"""Command line interface.

Groups mirror the library layout:

    dp2 galois  h1 | class <divisor> | represent <bits>
    dp2 cohom   dims | h0 | witness <divisor> | les <dims with ? for unknowns>
    dp2 chern   pairing --lhs r,c1,c2 --rhs r,c1,c2 | chi <divisor>
    dp2 order   model | ext --src <split> --tgt <split> | replay <chain>
    dp2 replay  all [--filter PREFIX] | <claim id>

Divisor classes use the shared grammar: a raw vector "d,m1,...,m7" or a
signed combination of the tokens H K L F E1..E7 L12..L67 C12..C67 D1..D7.
Split bundles are semicolon-separated divisor expressions, e.g. "E3;L23".
An expression starting with "-" must be shielded from option parsing: write
"dp2 cohom dims -- -F-H", or start with the zero token as in "0-F-H".

Every command takes --json for machine-readable output.  Exit status is 0 on
success, 1 on a failed verification or domain error, 2 on usage errors.
``DP2_VERBOSE=1`` expands the text output of the replay commands.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import chern, cohom, galois, order, picard, replay
from .errors import Infeasible, NotACocycle, TrivialClass, UnknownClaim
from .galois import CohClass
from .picard import DivClass, format_divisor, intersect, parse_divisor


def _print_json(payload) -> None:
    import json  # only --json output needs it

    print(json.dumps(payload, sort_keys=True))


def _parse_bits(text: str) -> CohClass:
    s = text.replace(",", "").replace(" ", "")
    if len(s) != 6 or any(c not in "01" for c in s):
        raise ValueError(f"need six bits like 101000, got {text!r}")
    return CohClass.from_bits(s)


def _parse_split(text: str) -> order.SplitBundle:
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError(f"empty split bundle {text!r}")
    return order.SplitBundle(tuple(parse_divisor(p) for p in parts))


def _parse_chern_triple(text: str) -> chern.ChernChar:
    parts = text.split(",")
    if len(parts) < 3:
        raise ValueError(f"need rank,c1,c2 in {text!r}")
    rank = int(parts[0])
    c2 = int(parts[-1])
    c1 = parse_divisor(",".join(parts[1:-1]))
    return chern.ch_of(rank, c1, c2)


def _parse_les(text: str) -> list[int | None]:
    entries: list[int | None] = []
    for piece in text.split(","):
        piece = piece.strip()
        entries.append(None if piece == "?" else int(piece))
    return entries


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_galois_h1(args) -> int:
    divisors = galois.h1_galois()
    order = math.prod(divisors)
    if args.json:
        _print_json({"elementary_divisors": divisors,
                     "order": order,
                     "generators": [str(galois.e_class(i)) for i in range(1, 7)]})
    else:
        print(f"H^1 elementary divisors: {divisors} (group order {order})")
        print("generated by e_i = Ei - Ei+1, i = 1..6")
    return 0


def _cmd_galois_class(args) -> int:
    d = parse_divisor(args.divisor)
    bits = galois.class_of(d)
    payload = {
        "divisor": format_divisor(d),
        "bits": str(bits),
        "is_coboundary": galois.is_coboundary(d),
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"[{payload['divisor']}] = {payload['bits']}"
              + ("  (coboundary)" if payload["is_coboundary"] else ""))
    return 0


def _cmd_galois_represent(args) -> int:
    bits = _parse_bits(args.bits)
    e, eprime = galois.represent_as_difference(bits)
    check = galois.class_of(e.cls - eprime.cls)
    payload = {
        "bits": str(bits),
        "pair": [e.name, eprime.name],
        "difference": str(e.cls - eprime.cls),
        "class_of_difference": str(check),
        "intersection": intersect(e.cls, eprime.cls),
    }
    if not bits.is_zero():
        de, deprime = galois.disjoint_representative(bits)
        payload["disjoint_pair"] = [de.name, deprime.name]
        payload["disjoint_intersection"] = intersect(de.cls, deprime.cls)
        payload["disjoint_class"] = str(galois.class_of(de.cls - deprime.cls))
    if args.json:
        _print_json(payload)
    else:
        print(f"class {payload['bits']} = [{payload['pair'][0]} - {payload['pair'][1]}]"
              f"  (E.E' = {payload['intersection']}, check {payload['class_of_difference']})")
        if "disjoint_pair" in payload:
            print(f"disjoint pair: ({payload['disjoint_pair'][0]}, "
                  f"{payload['disjoint_pair'][1]})  E.E' = {payload['disjoint_intersection']}")
    return 0


def _dims_payload(d: DivClass) -> dict:
    dims = cohom.cohom_dims(d)
    w = cohom.noneffective_witness(d)
    return {
        "divisor": format_divisor(d),
        "h0": dims.h0,
        "h1": dims.h1,
        "h2": dims.h2,
        "chi": cohom.chi_line(d),
        "witness": None if w is None else format_divisor(w),
    }


def _cmd_cohom_dims(args) -> int:
    payload = _dims_payload(parse_divisor(args.divisor))
    if args.json:
        _print_json(payload)
    else:
        print(f"h({payload['divisor']}) = ({payload['h0']}, {payload['h1']}, "
              f"{payload['h2']}), chi = {payload['chi']}")
        if payload["witness"] is not None:
            print(f"non-effectivity witness: {payload['witness']}")
    return 0


def _cmd_cohom_h0(args) -> int:
    d = parse_divisor(args.divisor)
    value = cohom.h0(d)
    if args.json:
        _print_json({"divisor": format_divisor(d), "h0": value})
    else:
        print(value)
    return 0


def _cmd_cohom_witness(args) -> int:
    d = parse_divisor(args.divisor)
    w = cohom.noneffective_witness(d)
    if args.json:
        _print_json({"divisor": format_divisor(d),
                     "witness": None if w is None else format_divisor(w),
                     "product": None if w is None else intersect(d, w)})
    else:
        if w is None:
            print("no witness in the pool")
        else:
            print(f"witness {format_divisor(w)} with product {intersect(d, w)}")
    return 0


def _cmd_cohom_les(args) -> int:
    result = cohom.les_solve(cohom.DimSequence(tuple(_parse_les(args.dims))))
    entries = [e if isinstance(e, int) else {"lo": e.lo, "hi": e.hi}
               for e in result.entries]
    if args.json:
        _print_json({"entries": entries, "determined": result.determined})
    else:
        shown = ", ".join(str(e) if isinstance(e, int) else str(result.entries[i])
                          for i, e in enumerate(entries))
        tag = "" if result.determined else "  (underdetermined)"
        print(f"solved: {shown}{tag}")
    return 0


def _cmd_chern_pairing(args) -> int:
    lhs = _parse_chern_triple(args.lhs)
    rhs = _parse_chern_triple(args.rhs)
    value = chern.euler_pairing(lhs, rhs)
    if args.json:
        _print_json({
            "lhs": {"rank": lhs.rank, "c1": list(lhs.c.coeffs), "ch2_times_2": lhs.s2},
            "rhs": {"rank": rhs.rank, "c1": list(rhs.c.coeffs), "ch2_times_2": rhs.s2},
            "pairing": value,
        })
    else:
        print(value)
    return 0


def _cmd_chern_chi(args) -> int:
    d = parse_divisor(args.divisor)
    if args.json:
        _print_json({"divisor": format_divisor(d), "chi": cohom.chi_line(d)})
    else:
        print(cohom.chi_line(d))
    return 0


def _cmd_order_model(args) -> int:
    model = order.standard_model()
    payload = {
        "e": model.e.name,
        "eprime": model.eprime.name,
        "sigma_eprime": model.sigma_eprime.name,
        "lclass": str(model.lclass),
        "f": format_divisor(model.f),
        "f_square": model.f.selfint,
        "f_degree": intersect(model.f, picard.H),
        "class_bits": str(galois.class_of(model.lclass)),
        "c1_constraint_n": chern.c1_constraint(model.f, model.lclass),
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"order model: E = {payload['e']}, E' = {payload['eprime']}, "
              f"sigma(E') = {payload['sigma_eprime']}")
        print(f"L = E - E' = {payload['lclass']}   class bits {payload['class_bits']}")
        print(f"F = E + sigma(E') = {payload['f']}   F.F = {payload['f_square']}, "
              f"F.H = {payload['f_degree']}, determinant constraint n = "
              f"{payload['c1_constraint_n']}")
    return 0


def _cmd_order_ext(args) -> int:
    src = _parse_split(args.src)
    tgt = _parse_split(args.tgt)
    if args.induced:
        if src.rank != 1:
            raise ValueError("--induced needs a single generator class as --src")
        table = order.ext_a_induced(src.summands[0], tgt)
        level, triple = "A", table.a_triple()
    else:
        table = order.ext_y_split(src, tgt)
        level, triple = "Y", table.y_triple()
    if args.json:
        _print_json({"src": str(src), "tgt": str(tgt), "level": level,
                     "ext": list(triple)})
    else:
        print(f"ext_{level}({src}, {tgt}) = {tuple(triple)}")
    return 0


def _cmd_order_replay(args) -> int:
    if args.chain == "orthogonality":
        reports = order.replay_orthogonality()
    else:
        reports = order.replay_exceptional()
    return _emit_reports(reports, args.json)


def _cmd_replay(args) -> int:
    if args.target == "all":
        reports = replay.run_all(prefix=args.filter)
    else:
        if args.filter:
            raise ValueError("--filter only applies to 'replay all'")
        reports = [replay.run_one(args.target)]
    return _emit_reports(reports, args.json)


def _emit_reports(reports, as_json: bool) -> int:
    if as_json:
        print(replay.render_json_lines(reports))
    else:
        verbose = os.environ.get("DP2_VERBOSE", "") not in ("", "0")
        print(replay.render_text(reports, verbose=verbose))
    return 1 if replay.failures(reports) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _with_json(p):
    p.add_argument("--json", action="store_true", help="emit JSON")
    return p


def _galois_commands(g) -> None:
    gsub = g.add_subparsers(dest="cmd", required=True)
    _with_json(gsub.add_parser("h1", help="elementary divisors of H^1")) \
        .set_defaults(func=_cmd_galois_h1)
    p = _with_json(gsub.add_parser("class", help="class of a cocycle in the e-basis"))
    p.add_argument("divisor")
    p.set_defaults(func=_cmd_galois_class)
    p = _with_json(gsub.add_parser("represent", help="difference pair for a 6-bit class"))
    p.add_argument("bits")
    p.set_defaults(func=_cmd_galois_represent)


def _cohom_commands(c) -> None:
    csub = c.add_subparsers(dest="cmd", required=True)
    for name, handler, helptext in [
        ("dims", _cmd_cohom_dims, "h0, h1, h2 and chi"),
        ("h0", _cmd_cohom_h0, "global sections by base-locus peeling"),
        ("witness", _cmd_cohom_witness, "non-effectivity witness, if any"),
    ]:
        p = _with_json(csub.add_parser(name, help=helptext))
        p.add_argument("divisor")
        p.set_defaults(func=handler)
    p = _with_json(csub.add_parser("les", help="solve exact-sequence dimensions"))
    p.add_argument("dims", help="comma list, ? for unknowns, e.g. 0,1,?,0")
    p.set_defaults(func=_cmd_cohom_les)


def _chern_commands(ch) -> None:
    chsub = ch.add_subparsers(dest="cmd", required=True)
    p = _with_json(chsub.add_parser("pairing", help="Euler pairing of two characters"))
    p.add_argument("--lhs", required=True, metavar="r,c1,c2")
    p.add_argument("--rhs", required=True, metavar="r,c1,c2")
    p.set_defaults(func=_cmd_chern_pairing)
    p = _with_json(chsub.add_parser("chi", help="Euler characteristic of a line bundle"))
    p.add_argument("divisor")
    p.set_defaults(func=_cmd_chern_chi)


def _order_commands(o) -> None:
    osub = o.add_subparsers(dest="cmd", required=True)
    _with_json(osub.add_parser("model", help="the standard disjoint-pair gauge")) \
        .set_defaults(func=_cmd_order_model)
    p = _with_json(osub.add_parser("ext", help="Ext dimensions between split bundles"))
    p.add_argument("--src", required=True, help="semicolon-separated summands")
    p.add_argument("--tgt", required=True, help="semicolon-separated summands")
    p.add_argument("--induced", action="store_true",
                   help="treat --src as a single induced-module generator (A level)")
    p.set_defaults(func=_cmd_order_ext)
    p = _with_json(osub.add_parser("replay", help="re-run a vanishing chain"))
    p.add_argument("chain", choices=["orthogonality", "exceptional"])
    p.set_defaults(func=_cmd_order_replay)


def _replay_commands(r) -> None:
    r.add_argument("target", help="'all' or a claim identifier")
    r.add_argument("--json", action="store_true", help="emit JSON lines")
    r.add_argument("--filter", default=None, metavar="PREFIX",
                   help="with 'all': only claims whose id starts with PREFIX")
    r.set_defaults(func=_cmd_replay)


# group name -> (help, builder of its arguments and subcommands)
_GROUPS = {
    "galois": ("involution and group cohomology", _galois_commands),
    "cohom": ("cohomology dimensions of line bundles", _cohom_commands),
    "chern": ("Chern character arithmetic", _chern_commands),
    "order": ("the cyclic order layer", _order_commands),
    "replay": ("run registered verification claims", _replay_commands),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The dp2 parser; given argv, only the group it names gets its subcommands.

    argparse hands everything after the first positional argument to that
    group's parser, and the root takes no option but --help, so the first
    group name in argv is the only group the parse can enter.  With no argv,
    or none naming a group, every group is built.
    """
    parser = argparse.ArgumentParser(
        prog="dp2",
        description="exact lattice, cohomology and order bookkeeping "
                    "on the degree-2 del Pezzo double plane")
    sub = parser.add_subparsers(dest="group", required=True)
    named = next((a for a in argv or () if a in _GROUPS), None)
    for name, (helptext, add_commands) in _GROUPS.items():
        group = sub.add_parser(name, help=helptext)
        if named is None or named == name:
            add_commands(group)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (NotACocycle, TrivialClass, Infeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnknownClaim as exc:
        print(f"unknown claim: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
