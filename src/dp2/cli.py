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
success, 1 on a failed verification or domain error, 2 on usage errors, and
141 (128 + SIGPIPE) when the reader of the output closed it early.
A command with one answer builds it once, as a payload dict and its text,
and ends in ``_emit``, the one place that chooses between the payload as
sorted JSON and the text.  The report commands (``replay``, ``order
replay``) end in ``_emit_reports``: one JSON line per report, and exit 1 on
a failed claim.

The grammar is one table, ``_COMMANDS``: per group and command its help,
handler and ``add_argument`` specifications, in the order argparse adds them.
``build_parser`` builds the argparse parser from it, with subcommands only
for the group that argv names, so parsing, help, usage and error messages
all come from argparse.  Each handler imports only the layer it uses.
"""

from __future__ import annotations

import math
import os
import sys

from . import picard
from .errors import Infeasible, NotACocycle, TrivialClass, UnknownClaim
from .picard import format_divisor, intersect, parse_divisor, parse_integer


def _parse_bits(text: str) -> CohClass:
    from .galois import CohClass

    try:
        return CohClass.from_bits(text.replace(",", "").replace(" ", ""))
    except ValueError:
        raise ValueError(f"need six bits like 101000, got {text!r}") from None


def _parse_split(text: str) -> order.SplitBundle:
    from . import order

    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError(f"empty split bundle {text!r}")
    return order.SplitBundle(tuple(parse_divisor(p) for p in parts))


def _parse_chern_triple(text: str) -> chern.ChernChar:
    from . import chern

    parts = text.split(",")
    if len(parts) < 3:
        raise ValueError(f"need rank,c1,c2 in {text!r}")
    # refused in this order: rank or c2 not an integer, c1, a negative rank
    parse_integer("rank", parts[0], text)
    c2 = parse_integer("c2", parts[-1], text)
    try:
        c1 = parse_divisor(",".join(parts[1:-1]))
    except ValueError as exc:
        raise ValueError(f"c1 of {text!r}: {exc}") from None
    rank = parse_integer("rank", parts[0], text, nonnegative=True)
    return chern.ch_of(rank, c1, c2)


def _parse_les(text: str) -> list[int | None]:
    """Comma-separated dimensions with ? for unknowns; a blank text is the empty sequence."""
    return [None if piece.strip() == "?" else
            parse_integer(f"field {field}", piece, text, nonnegative=True, alternative="?")
            for field, piece in enumerate(text.split(",") if text.strip() else [], 1)]


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _emit(args, payload: dict, text: str) -> int:
    """Print one answer: the payload as sorted JSON under --json, else the text."""
    if args.json:
        import json  # only --json output needs it

        text = json.dumps(payload, sort_keys=True)
    print(text)
    return 0


def _cmd_galois_h1(args) -> int:
    from . import galois

    divisors = galois.h1_galois()
    order = math.prod(divisors)
    payload = {"elementary_divisors": divisors, "order": order,
               "generators": [str(galois.e_class(i)) for i in range(1, 7)]}
    return _emit(args, payload, f"H^1 elementary divisors: {divisors} (group order {order})\n"
                                "generated by e_i = Ei - Ei+1, i = 1..6")


def _cmd_galois_class(args) -> int:
    from . import galois

    d = parse_divisor(args.divisor)
    payload = {"divisor": format_divisor(d), "bits": str(galois.class_of(d)),
               "is_coboundary": galois.is_coboundary(d)}
    return _emit(args, payload, f"[{payload['divisor']}] = {payload['bits']}"
                 + ("  (coboundary)" if payload["is_coboundary"] else ""))


def _cmd_galois_represent(args) -> int:
    from . import galois

    bits = _parse_bits(args.bits)
    e, eprime = galois.represent_as_difference(bits)
    payload = {
        "bits": str(bits),
        "pair": [format_divisor(e), format_divisor(eprime)],
        "difference": str(e - eprime),
        "class_of_difference": str(galois.class_of(e - eprime)),
        "intersection": intersect(e, eprime),
    }
    text = (f"class {payload['bits']} = [{payload['pair'][0]} - {payload['pair'][1]}]"
            f"  (E.E' = {payload['intersection']}, check {payload['class_of_difference']})")
    if not bits.is_zero():
        de, deprime = galois.disjoint_representative(bits)
        payload["disjoint_pair"] = [format_divisor(de), format_divisor(deprime)]
        payload["disjoint_intersection"] = intersect(de, deprime)
        payload["disjoint_class"] = str(galois.class_of(de - deprime))
        text += (f"\ndisjoint pair: ({payload['disjoint_pair'][0]}, "
                 f"{payload['disjoint_pair'][1]})  E.E' = {payload['disjoint_intersection']}")
    return _emit(args, payload, text)


def _cmd_cohom_dims(args) -> int:
    from . import cohom

    d = parse_divisor(args.divisor)
    dims = cohom.cohom_dims(d)
    w = cohom.noneffective_witness(d)
    payload = {"divisor": format_divisor(d), "h0": dims.h0, "h1": dims.h1, "h2": dims.h2,
               "chi": cohom.chi_line(d), "witness": None if w is None else format_divisor(w)}
    text = f"h({payload['divisor']}) = ({dims.h0}, {dims.h1}, {dims.h2}), chi = {payload['chi']}"
    if w is not None:
        text += f"\nnon-effectivity witness: {payload['witness']}"
    return _emit(args, payload, text)


def _cmd_cohom_h0(args) -> int:
    from . import cohom

    d = parse_divisor(args.divisor)
    value = cohom.h0(d)
    return _emit(args, {"divisor": format_divisor(d), "h0": value}, str(value))


def _cmd_cohom_witness(args) -> int:
    from . import cohom

    d = parse_divisor(args.divisor)
    w = cohom.noneffective_witness(d)
    payload = {"divisor": format_divisor(d),
               "witness": None if w is None else format_divisor(w),
               "product": None if w is None else intersect(d, w)}
    return _emit(args, payload, "no witness in the pool" if w is None else
                 f"witness {payload['witness']} with product {payload['product']}")


def _cmd_cohom_les(args) -> int:
    from . import cohom

    result = cohom.les_solve(_parse_les(args.dims))
    payload = {"entries": [e if isinstance(e, int) else {"lo": e.lo, "hi": e.hi}
                           for e in result.entries],
               "determined": result.determined}
    return _emit(args, payload, "solved: " + ", ".join(str(e) for e in result.entries)
                 + ("" if result.determined else "  (underdetermined)"))


def _cmd_chern_pairing(args) -> int:
    from . import chern

    lhs = _parse_chern_triple(args.lhs)
    rhs = _parse_chern_triple(args.rhs)
    value = chern.euler_pairing(lhs, rhs)
    payload = {
        "lhs": {"rank": lhs.rank, "c1": list(lhs.c.coeffs), "ch2_times_2": lhs.s2},
        "rhs": {"rank": rhs.rank, "c1": list(rhs.c.coeffs), "ch2_times_2": rhs.s2},
        "pairing": value,
    }
    return _emit(args, payload, str(value))


def _cmd_chern_chi(args) -> int:
    from . import cohom

    d = parse_divisor(args.divisor)
    chi = cohom.chi_line(d)
    return _emit(args, {"divisor": format_divisor(d), "chi": chi}, str(chi))


def _cmd_order_model(args) -> int:
    from . import chern, galois, order

    model = order.standard_model()
    payload = {
        "e": format_divisor(model.e),
        "eprime": format_divisor(model.eprime),
        "sigma_eprime": format_divisor(model.sigma_eprime),
        "lclass": str(model.lclass),
        "f": format_divisor(model.f),
        "f_square": model.f.selfint,
        "f_degree": intersect(model.f, picard.H),
        "class_bits": str(galois.class_of(model.lclass)),
        "c1_constraint_n": chern.c1_constraint(model.f, model.lclass),
    }
    return _emit(args, payload,
                 f"order model: E = {payload['e']}, E' = {payload['eprime']}, "
                 f"sigma(E') = {payload['sigma_eprime']}\n"
                 f"L = E - E' = {payload['lclass']}   class bits {payload['class_bits']}\n"
                 f"F = E + sigma(E') = {payload['f']}   F.F = {payload['f_square']}, "
                 f"F.H = {payload['f_degree']}, determinant constraint n = "
                 f"{payload['c1_constraint_n']}")


def _cmd_order_ext(args) -> int:
    from . import order

    src = _parse_split(args.src)
    tgt = _parse_split(args.tgt)
    if args.induced and src.rank != 1:
        raise ValueError("--induced needs a single generator class as --src")
    # by adjunction, Ext_A out of A x O(D) is Ext_Y out of O(D): one sum for both levels
    level = "A" if args.induced else "Y"
    triple = order.ext_y_split(src, tgt)
    payload = {"src": str(src), "tgt": str(tgt), "level": level, "ext": list(triple)}
    return _emit(args, payload, f"ext_{level}({src}, {tgt}) = {triple}")


def _cmd_order_replay(args) -> int:
    from . import order

    chain = getattr(order, _CHAINS[args.chain])
    return _emit_reports(chain(order.standard_model()), args.json)


def _cmd_replay(args) -> int:
    from . import replay

    if args.target == "all":
        reports = replay.run_all(prefix=args.filter)
        if args.filter is not None and not reports:
            raise ValueError(f"no claim id starts with {args.filter!r}")
    else:
        if args.filter is not None:
            raise ValueError("--filter only applies to 'replay all'")
        reports = [replay.run_one(args.target)]
    return _emit_reports(reports, args.json)


def _emit_reports(reports, as_json: bool) -> int:
    from . import reporting

    if as_json:
        print(reporting.render_json_lines(reports))
    else:
        print(reporting.render_text(reports))
    return 1 if reporting.failures(reports) else 0


# ---------------------------------------------------------------------------
# the command table and the argparse parser built from it
# ---------------------------------------------------------------------------

_JSON = ("--json", {"action": "store_true", "help": "emit JSON"})
_DIVISOR = ("divisor", {})
_CHAINS = {"orthogonality": "replay_orthogonality", "exceptional": "replay_exceptional"}

# group -> (help, {command: (help, handler, arguments)}); each argument is
# (name, add_argument keywords).  The command None stands for the group
# itself, which then takes the arguments and has no subcommands.
_COMMANDS = {
    "galois": ("involution and group cohomology", {
        "h1": ("elementary divisors of H^1", _cmd_galois_h1, [_JSON]),
        "class": ("class of a cocycle in the e-basis", _cmd_galois_class,
                  [_JSON, _DIVISOR]),
        "represent": ("difference pair for a 6-bit class", _cmd_galois_represent,
                      [_JSON, ("bits", {})]),
    }),
    "cohom": ("cohomology dimensions of line bundles", {
        "dims": ("h0, h1, h2 and chi", _cmd_cohom_dims, [_JSON, _DIVISOR]),
        "h0": ("global sections by base-locus peeling", _cmd_cohom_h0, [_JSON, _DIVISOR]),
        "witness": ("non-effectivity witness, if any", _cmd_cohom_witness,
                    [_JSON, _DIVISOR]),
        "les": ("solve exact-sequence dimensions", _cmd_cohom_les,
                [_JSON, ("dims", {"help": "comma list, ? for unknowns, e.g. 0,1,?,0"})]),
    }),
    "chern": ("Chern character arithmetic", {
        "pairing": ("Euler pairing of two characters", _cmd_chern_pairing,
                    [_JSON, ("--lhs", {"required": True, "metavar": "r,c1,c2"}),
                     ("--rhs", {"required": True, "metavar": "r,c1,c2"})]),
        "chi": ("Euler characteristic of a line bundle", _cmd_chern_chi, [_JSON, _DIVISOR]),
    }),
    "order": ("the cyclic order layer", {
        "model": ("the standard disjoint-pair gauge", _cmd_order_model, [_JSON]),
        "ext": ("Ext dimensions between split bundles", _cmd_order_ext,
                [_JSON, ("--src", {"required": True, "help": "semicolon-separated summands"}),
                 ("--tgt", {"required": True, "help": "semicolon-separated summands"}),
                 ("--induced", {"action": "store_true", "help": "treat --src as a single "
                                "induced-module generator (A level)"})]),
        "replay": ("re-run a vanishing chain", _cmd_order_replay,
                   [_JSON, ("chain", {"choices": list(_CHAINS)})]),
    }),
    "replay": ("run registered verification claims", {
        None: (None, _cmd_replay,
               [("target", {"help": "'all' or a claim identifier"}),
                ("--json", {"action": "store_true", "help": "emit JSON lines"}),
                ("--filter", {"metavar": "PREFIX",
                              "help": "with 'all': only claims whose id starts with PREFIX"})]),
    }),
}


def _add_arguments(parser, handler, arguments) -> None:
    for name, spec in arguments:
        parser.add_argument(name, **spec)
    parser.set_defaults(func=handler)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The dp2 parser; given argv, only the group it names gets its subcommands.

    argparse hands everything after the first positional argument to that
    group's parser, and the root takes no option but --help, so the first
    group name in argv is the only group the parse can enter.  With no argv,
    or none naming a group, every group is built.
    """
    import argparse  # at the first parse, not at `import dp2.cli`

    parser = argparse.ArgumentParser(
        prog="dp2",
        description="exact lattice, cohomology and order bookkeeping "
                    "on the degree-2 del Pezzo double plane")
    sub = parser.add_subparsers(dest="group", required=True)
    named = next((a for a in argv or () if a in _COMMANDS), None)
    for group, (helptext, commands) in _COMMANDS.items():
        group_parser = sub.add_parser(group, help=helptext)
        if named not in (None, group):
            continue
        if None in commands:
            _add_arguments(group_parser, *commands[None][1:])
            continue
        csub = group_parser.add_subparsers(dest="cmd", required=True)
        for cmd, (cmd_help, handler, arguments) in commands.items():
            _add_arguments(csub.add_parser(cmd, help=cmd_help), handler, arguments)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    # argparse 3.13.0 rejects "--" before a group or command name, 3.13.13 skips it
    group = next((a for a in argv if a in _COMMANDS), None)
    if group and "--" in argv[:argv.index(group) + (1 if None in _COMMANDS[group][1] else 2)]:
        parser.error("'--' must come after the command")
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # answers print in full; parse_integer caps input
        sys.set_int_max_str_digits(0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit stays silent
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
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
