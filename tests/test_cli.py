import collections
import decimal
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dp2 import cli, galois
from dp2.cli import main
from dp2.picard import parse_divisor

QUERIES = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "queries.json"
REPLAY_ALL = QUERIES.parent / "replay_all.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def test_galois_h1(capsys):
    code, payload = run_json(capsys, "galois", "h1")
    assert code == 0
    assert payload["elementary_divisors"] == [2, 2, 2, 2, 2, 2]
    assert payload["order"] == 64


def test_galois_h1_order_is_the_product_of_the_divisors(capsys, monkeypatch):
    monkeypatch.setattr(galois, "h1_galois", lambda: [2, 4])
    code, out, _ = run(capsys, "galois", "h1")
    assert code == 0
    assert "(group order 8)" in out
    code, payload = run_json(capsys, "galois", "h1")
    assert code == 0
    assert payload["order"] == 8


def test_galois_class(capsys):
    code, payload = run_json(capsys, "galois", "class", "C67-E5")
    assert code == 0
    assert payload["bits"] == "101000"
    assert payload["is_coboundary"] is False


def test_galois_class_rejects_non_cocycle(capsys):
    # the message names the class as dp2 prints it
    assert run(capsys, "galois", "class", "E1") == (1, "", "error: (1+sigma) does not kill E1\n")
    assert run(capsys, "galois", "class", "H") == (1, "", "error: (1+sigma) does not kill H\n")


def test_galois_represent(capsys):
    code, payload = run_json(capsys, "galois", "represent", "101000")
    assert code == 0
    assert payload["class_of_difference"] == "101000"
    assert payload["disjoint_intersection"] == 0
    assert payload["disjoint_class"] == "101000"


def test_galois_represent_bad_bits(capsys):
    # a full-width digit is refused by CohClass.from_bits, the one check of the bits
    for bits in ["10", "\uff1000000", "10100", "1111111"]:
        assert run(capsys, "galois", "represent", bits) == (
            2, "", f"usage error: need six bits like 101000, got {bits!r}\n")


@pytest.mark.parametrize("bits", ["1,0,1,0,0,0", "1 0 1 0 0 0"])
def test_galois_represent_strips_separators(capsys, bits):
    assert run(capsys, "galois", "represent", bits) == run(capsys, "galois", "represent", "101000")


def test_cohom_dims(capsys):
    code, payload = run_json(capsys, "cohom", "dims", "E3-E1")
    assert code == 0
    assert (payload["h0"], payload["h1"], payload["h2"], payload["chi"]) == (0, 0, 0, 0)
    assert payload["witness"] == "L-E1"


def test_cohom_dims_raw_vector(capsys):
    code, payload = run_json(capsys, "cohom", "dims", "3,-1,-1,-1,-1,-1,-1,-1")
    assert code == 0
    assert payload["divisor"] == "H"
    assert payload["h0"] == 3


def test_cohom_dims_deep_multiple(capsys):
    code, out, err = run(capsys, "cohom", "dims", "900E1")
    assert code == 0 and err == ""
    assert out == "h(900E1) = (1, 404550, 0), chi = -404549\n"


def test_cohom_h0_and_witness(capsys):
    code, out, err = run(capsys, "cohom", "h0", "H")
    assert code == 0 and out.strip() == "3"
    # "--" shields a leading minus from option parsing; "0-F-H" also works
    code, out, err = run(capsys, "cohom", "witness", "--json", "--", "-F-H")
    payload = json.loads(out)
    assert code == 0
    assert payload["witness"] == "H" and payload["product"] == -4
    code, payload = run_json(capsys, "cohom", "witness", "0-F-H")
    assert payload["witness"] == "H" and payload["product"] == -4


def test_cohom_les(capsys):
    code, payload = run_json(capsys, "cohom", "les", "0,1,?,0")
    assert code == 0
    assert payload["entries"] == [0, 1, 1, 0]
    assert payload["determined"] is True


def test_cohom_les_underdetermined(capsys):
    code, payload = run_json(capsys, "cohom", "les", "?,?,1")
    assert code == 0
    assert payload["determined"] is False
    assert payload["entries"][0] == {"lo": 0, "hi": None}


def test_cohom_les_infeasible(capsys):
    assert run(capsys, "cohom", "les", "1,0") == (1, "", "error: no rank assignment for 1, 0\n")
    assert run(capsys, "cohom", "les", "1") == (1, "", "error: no rank assignment for 1\n")


@pytest.mark.parametrize("dims, message", [
    ("", "empty sequence"),
    ("1,,2", "field 2 of '1,,2' is empty: need a nonnegative integer or ?"),
    ("x", "field 1 of 'x' is 'x': need a nonnegative integer or ?"),
    ("1,-1", "field 2 of '1,-1' is '-1': need a nonnegative integer or ?"),
    ("0, 2.5", "field 2 of '0, 2.5' is '2.5': need a nonnegative integer or ?"),
    ("??", "field 1 of '??' is '??': need a nonnegative integer or ?"),
    # the grammar's integers are ASCII digits, not int()'s wider reading
    ("\uff10,\uff11,?,\uff10",
     "field 1 of '\uff10,\uff11,?,\uff10' is '\uff10': need a nonnegative integer or ?"),
    ("1_0,?", "field 1 of '1_0,?' is '1_0': need a nonnegative integer or ?"),
])
def test_cohom_les_usage_errors_name_the_field(capsys, dims, message):
    assert run(capsys, "cohom", "les", "--", dims) == (2, "", f"usage error: {message}\n")


def test_chern_pairing(capsys):
    code, payload = run_json(capsys, "chern", "pairing", "--lhs", "2,F,1", "--rhs", "2,F,1")
    assert code == 0
    assert payload["pairing"] == 0
    assert payload["lhs"]["ch2_times_2"] == -2


# rank, c1 and c2 errors name the field as typed, not Python's int() text
@pytest.mark.parametrize("triple, message", [
    ("x,H,0", "rank of 'x,H,0' is 'x': need an integer"),
    ("1,H,2.5", "c2 of '1,H,2.5' is '2.5': need an integer"),
    ("1,H,", "c2 of '1,H,' is empty: need an integer"),
    (" ,H,0", "rank of ' ,H,0' is empty: need an integer"),
    ("1,H", "need rank,c1,c2 in '1,H'"),
    ("-1,H,0", "rank of '-1,H,0' is '-1': need a nonnegative integer"),
    ("\uff12,F,\uff11", "rank of '\uff12,F,\uff11' is '\uff12': need an integer"),
    ("1,H,\uff11", "c2 of '1,H,\uff11' is '\uff11': need an integer"),
    ("1_0,H,0", "rank of '1_0,H,0' is '1_0': need an integer"),
    # a c1 refusal names its field and the argument as typed, then the divisor's own refusal
    ("1,1,2,x,0,0,0,0,0,0",
     "c1 of '1,1,2,x,0,0,0,0,0,0': entry 3 of '1,2,x,0,0,0,0,0' is 'x': need an integer"),
    ("1,E9,0", "c1 of '1,E9,0': unknown divisor token 'E9'"),
    ("1,,0", "c1 of '1,,0': empty divisor expression"),
])
def test_chern_pairing_usage_errors_name_the_field(capsys, triple, message):
    assert run(capsys, "chern", "pairing", f"--lhs={triple}", "--rhs", "1,H,0") == (
        2, "", f"usage error: {message}\n")


def test_chern_chi(capsys):
    code, out, err = run(capsys, "chern", "chi", "H")
    assert code == 0 and out.strip() == "3"


def test_order_model(capsys):
    code, payload = run_json(capsys, "order", "model")
    assert code == 0
    assert payload["e"] == "E1" and payload["eprime"] == "C12"
    assert payload["sigma_eprime"] == "L12"
    assert payload["f"] == "F"
    assert payload["c1_constraint_n"] == 1


def test_order_ext(capsys):
    code, payload = run_json(capsys, "order", "ext", "--src", "E1", "--tgt", "E3;L23")
    assert code == 0
    assert payload["level"] == "Y"
    assert payload["ext"][1] == 0
    code, payload = run_json(capsys, "order", "ext", "--src", "H", "--tgt", "H;F-H+H",
                             "--induced")
    assert code == 0
    assert payload["level"] == "A"
    assert payload["ext"] == [1, 0, 0]


def test_order_ext_induced_needs_one_generator(capsys):
    assert run(capsys, "order", "ext", "--src", "H;F", "--tgt", "H", "--induced") == (
        2, "", "usage error: --induced needs a single generator class as --src\n")


def test_order_replay(capsys):
    # the CLI and the registry both run the chains on the standard model, so
    # each report line equals the line with its id in the frozen replay output
    golden = {line.split()[1]: line for line in REPLAY_ALL.read_text().splitlines()
              if line[:4] in ("PASS", "FAIL", "FLAG")}
    for chain, ids in [
        ("orthogonality", ["ORTH.I0", "ORTH.I2", "ORTH.H1MH", "ORTH.EXT2HO", "L53", "ORTH.I1"]),
        ("exceptional", ["ORD.EXC.HL", "ORD.EXC", "ORD.CANON"]),
    ]:
        code, out, err = run(capsys, "order", "replay", chain)
        assert (code, err) == (0, "")
        n = len(ids)
        assert out.splitlines() == [golden[i] for i in ids] + [
            f"{n} claims: {n} passed, 0 failed, 0 flagged known-discrepancy"]


def test_replay_all_json(capsys):
    code, out, err = run(capsys, "replay", "all", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert len(payloads) > 70
    assert sum(1 for p in payloads if p["known_discrepancy"]) == 1


def test_replay_filter(capsys):
    code, out, err = run(capsys, "replay", "all", "--filter", "PIC.")
    assert code == 0
    assert "PIC.COUNT56" in out and "GAL.H1" not in out


def test_replay_filter_matching_no_claim_is_usage_error(capsys):
    code, out, err = run(capsys, "replay", "all", "--filter", "NOPE")
    assert (code, out) == (2, "")
    assert err == "usage error: no claim id starts with 'NOPE'\n"


def test_replay_filter_on_one_claim_is_usage_error_even_when_empty(capsys):
    code, out, err = run(capsys, "replay", "PIC.HH", "--filter", "")
    assert (code, out) == (2, "")
    assert err == "usage error: --filter only applies to 'replay all'\n"


def test_replay_single(capsys):
    code, out, err = run(capsys, "replay", "L53")
    assert code == 0
    assert "PASS" in out


def test_replay_unknown_claim(capsys):
    code, out, err = run(capsys, "replay", "NOPE")
    assert code == 2


def test_bad_divisor_is_usage_error(capsys):
    code, out, err = run(capsys, "cohom", "dims", "Q5")
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("\uff13H", "cannot parse divisor expression '\uff13H' at '\uff13H'"),
    # a raw vector's refusal names its entry, like every other integer field
    ("\uff13,-1,-1,-1,-1,-1,-1,-1",
     "entry 1 of '\uff13,-1,-1,-1,-1,-1,-1,-1' is '\uff13': need an integer"),
    ("1_0,0,0,0,0,0,0,0", "entry 1 of '1_0,0,0,0,0,0,0,0' is '1_0': need an integer"),
    ("1,2,x,0,0,0,0,0", "entry 3 of '1,2,x,0,0,0,0,0' is 'x': need an integer"),
    ("1,0,0,0,0,0,0,", "entry 8 of '1,0,0,0,0,0,0,' is empty: need an integer"),
])
def test_divisor_integers_are_ascii_digits(capsys, text, message):
    assert run(capsys, "cohom", "h0", text) == (2, "", f"usage error: {message}\n")


_LONG = "1" * 4301
_AT_MOST = "of at most 4300 digits"


# a digit run longer than CPython's default cap on int() is refused in the grammar's
# words, not Python's, on every interpreter
@pytest.mark.parametrize("argv, message", [
    (["cohom", "h0", f"{_LONG},0,0,0,0,0,0,0"],
     f"entry 1 of '{_LONG},0,0,0,0,0,0,0' is '{_LONG}': need an integer {_AT_MOST}"),
    (["cohom", "h0", f"{_LONG}H"],
     f"multiplier of '{_LONG}H' is '{_LONG}': need an integer {_AT_MOST}"),
    (["chern", "pairing", "--lhs", f"1,H,{_LONG}", "--rhs", "1,H,0"],
     f"c2 of '1,H,{_LONG}' is '{_LONG}': need an integer {_AT_MOST}"),
    (["cohom", "les", f"{_LONG},?"],
     f"field 1 of '{_LONG},?' is '{_LONG}': need a nonnegative integer {_AT_MOST} or ?"),
], ids=["vector entry", "multiplier", "c2", "les field"])
def test_over_long_integers_are_refused_naming_the_field(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


# an accepted input gets its answer in full, even one with more digits than the
# interpreter's cap on int -> str conversion, which main lifts
@pytest.mark.skipif(not _CAP, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("command, answer", [
    ("chern chi", "{chi}"),
    ("cohom h0", "{chi}"),
    ("cohom dims", "h({d}L) = ({chi}, 0, 0), chi = {chi}"),
], ids=["chern chi", "cohom h0", "cohom dims"])
def test_long_answers_print_in_full(capsys, command, answer):
    d = "1" * 4300  # the longest integer the grammar reads
    chi = (int(d) * (int(d) + 3)) // 2 + 1  # D.(D + H)/2 + 1 for D = dL, which is nef
    expected = answer.format(d=d, chi=decimal.Decimal(chi))  # Decimal prints past the cap
    assert run(capsys, *command.split(), f"{d},0,0,0,0,0,0,0") == (0, expected + "\n", "")


# L98 is named as typed, not with its indices sorted
@pytest.mark.parametrize("token", ["L1", "L11", "L98", "E8", "D12", "e1"])
def test_unknown_curve_name_is_usage_error(capsys, token):
    assert run(capsys, "cohom", "dims", token) == (
        2, "", f"usage error: unknown divisor token '{token}'\n")


# ---------------------------------------------------------------------------
# the per-group parser answers like the full one
# ---------------------------------------------------------------------------


def _parse_outcome(capsys, parser, argv):
    # the parsed arguments, or the exit status of a help or usage error
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# one usage error per subcommand: a missing positional or required option
_USAGE_ERRORS = {
    ("galois", "h1"): ["extra"], ("galois", "class"): [], ("galois", "represent"): [],
    ("cohom", "dims"): [], ("cohom", "h0"): [], ("cohom", "witness"): [],
    ("cohom", "les"): [], ("chern", "pairing"): ["--lhs", "1,0,0"], ("chern", "chi"): [],
    ("order", "model"): ["extra"], ("order", "ext"): ["--src", "E1"], ("order", "replay"): [],
}

_GROUP_ARGVS = [["--help"], ["nosuch"]] + [
    argv for group in ("galois", "cohom", "chern", "order", "replay")
    for argv in ([group, "--help"], [group], [group, "nosuch"])] + [
    argv for (group, cmd), tail in _USAGE_ERRORS.items()
    for argv in ([group, cmd, "--help"], [group, cmd, *tail])]


@pytest.mark.parametrize("argv", _GROUP_ARGVS, ids=" ".join)
def test_group_parser_matches_the_full_parser(capsys, argv):
    # compared in one interpreter, so the argparse version cannot matter
    expected = _parse_outcome(capsys, cli.build_parser(), argv)
    assert _parse_outcome(capsys, cli.build_parser(argv), argv) == expected


# ---------------------------------------------------------------------------
# argv forms that argparse reads on its own terms: an accepted form prints what
# its canonical spelling prints, a rejected form is a usage error, help exits 0
# ---------------------------------------------------------------------------


# argv, and its canonical spelling, or "help", or the stderr prefix of exit 2:
# "usage" for a rejection by argparse, "usage error" for one by a handler
_EDGE_ARGVS = [
    (["cohom", "h0", "--json", "H"], ["cohom", "h0", "H", "--json"]),
    (["cohom", "h0", "H", "--json"], ["cohom", "h0", "--json", "H"]),
    (["order", "ext", "--tgt", "E3;L23", "--src", "E1", "--induced"],
     ["order", "ext", "--src", "E1", "--tgt", "E3;L23", "--induced"]),
    (["cohom", "dims", "--", "--json"], "usage error"),  # the divisor grammar rejects it
    (["cohom", "dims", "--json", "--", "-F-H"], ["cohom", "dims", "0-F-H", "--json"]),
    (["cohom", "dims", "H", "--"], ["cohom", "dims", "H"]),
    (["replay", "--filter", "PIC.", "all", "--json"],
     ["replay", "all", "--filter", "PIC.", "--json"]),
    (["order", "replay", "exceptional"], ["order", "replay", "--", "exceptional"]),
    (["cohom", "h0", "--json", "--json", "H"], ["cohom", "h0", "H", "--json"]),
    (["order", "ext", "--src", "E1", "--src", "E2", "--tgt", "E3"],
     ["order", "ext", "--src", "E2", "--tgt", "E3"]),
    (["cohom", "h0", "--js", "H"], ["cohom", "h0", "H", "--json"]),
    (["order", "ext", "--src=E1", "--tgt", "E3"], ["order", "ext", "--src", "E1", "--tgt", "E3"]),
    (["cohom", "h0", "-h"], "help"),
    (["cohom", "h0", "--help"], "help"),
    (["cohom", "dims", "--", "--", "H"], "usage"),
    (["cohom", "dims", "--", "H", "--"], "usage"),
    (["cohom", "dims", "-F-H"], "usage"),
    (["order", "replay", "bogus"], "usage"),
    (["order", "ext", "--src", "E1"], "usage"),
    (["cohom", "h0", "H", "E1"], "usage"),
    (["replay", "all", "--filter", "--json"], "usage"),
    (["order", "ext", "--src", "-E1", "--tgt", "E3"], "usage"),
    # argparse of 3.13.13 would skip these "--"; dp2 refuses them on every Python
    (["--", "cohom", "h0", "H"], "usage"),
    (["cohom", "--", "h0", "H"], "usage"),
    (["cohom", "nosuch"], "usage"),
    ([], "usage"),
]


def _main_outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,expected", _EDGE_ARGVS,
                         ids=[" ".join(argv) or "(empty)" for argv, _ in _EDGE_ARGVS])
def test_edge_argv_forms_through_main(capsys, argv, expected):
    code, out, err = _main_outcome(capsys, argv)
    if expected == "help":
        assert (code, err) == (0, "") and out.startswith("usage: dp2 ")
    elif isinstance(expected, str):
        assert (code, out) == (2, "") and err.startswith(expected + ":"), err
    else:
        assert (code, err) == (0, "") and out
        assert _main_outcome(capsys, expected) == (code, out, err)


def test_commands_load_only_the_layers_they_use():
    script = ("import sys\n"
              "from dp2 import cli\n"
              "assert cli.main(['cohom', 'h0', 'H']) == 0\n"
              "print(sorted({'dp2.galois', 'dp2.order', 'dp2.replay'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["3", "[]"]
    proc = subprocess.run([sys.executable, "-m", "dp2", "cohom", "h0", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: dp2 cohom h0 [-h] [--json] divisor\n")


def test_order_replay_does_not_load_the_claim_registry():
    # one order chain renders through reporting; the 80-claim registry stays unloaded
    script = ("import sys\n"
              "from dp2 import cli\n"
              "assert cli.main(['order', 'replay', 'exceptional']) == 0\n"
              "print('dp2.replay' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_a_deep_order_ext_answers():
    # h2 needs h0(N(L - E1) - 2H); a peeling without a step bound takes time linear in N
    n = "9" * 4300
    proc = subprocess.run([sys.executable, "-m", "dp2", "order", "ext", "--src", f"{n}L-{n}E1",
                           "--tgt", "H"], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ext_Y(")


@pytest.mark.parametrize("argv", [["replay", "all"], ["cohom", "h0", "H"]])
def test_a_closed_output_pipe_ends_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dp2", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_frozen_query_pool(capsys):
    # the 200 reference queries of the benchmark, each with exit status,
    # stdout and stderr prefix
    entries = json.loads(QUERIES.read_text())
    assert len(entries) == 200
    for entry in entries:
        try:
            code = main(entry["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]
        prefix = entry["stderr_prefix"]
        assert err.startswith(prefix) if prefix else err == "", (entry["argv"], err)


# ---------------------------------------------------------------------------
# seeded fuzz: every input must end in a documented exit code, never a traceback
# ---------------------------------------------------------------------------

_TOKENS = (["H", "K", "L", "F", "0"] + [f"E{i}" for i in range(1, 8)]
           + [f"D{i}" for i in range(1, 8)]
           + [f"{kind}{i}{j}" for kind in "LC" for i in range(1, 8)
              for j in range(1, 8) if i != j])


def _random_divisor(rng):
    if rng.random() < 0.15:
        return ",".join(str(rng.randint(-6, 6)) for _ in range(8))
    terms = []
    for pos in range(rng.randint(1, 4)):
        sign = rng.choice(["+", "-"]) if pos else rng.choice(["", "-"])
        mult = rng.choice(["", "", str(rng.randint(0, 9)), f"{rng.randint(1, 9)}*"])
        token = rng.choice(_TOKENS)
        # the token 0 takes no multiplier
        terms.append(f"{sign}{'' if token == '0' else mult}{token}")
    text = "".join(terms)
    parse_divisor(text)  # the generator only emits grammar-accepted sums
    return text


def _malformed_vector(rng):
    # a raw vector with one entry that is not an ASCII integer
    entries = [str(rng.randint(-6, 6)) for _ in range(8)]
    entries[rng.randrange(8)] = rng.choice(["x", "", " ", "2.5", "1e3", "+", "--1", "None",
                                            "\uff13", "1_0"])
    return ",".join(entries)


def _random_les(rng):
    pieces = ["?", "0", "1", "3", "12", "-1", "", "x", "2.5", " 4 ", "??", "+2", "None", " ",
              "\uff11", "1\uff12"]
    return ",".join(rng.choice(pieces) for _ in range(rng.randint(1, 7)))


_LES_ERROR = re.compile(r"error: no rank assignment for [0-9?, ]+\n"
                        r"|usage error: (empty sequence"
                        r"|field \d+ of '.*' is (empty|'.*'): need a nonnegative integer or \?)\n")

_VECTOR_ERROR = re.compile(r"usage error: entry [1-8] of '.*' is (empty|'.*'): need an integer\n")

_PAIRING_FIELD_ERROR = re.compile(
    r"usage error: (rank|c2) of '.*' is (empty|'.*'): need (an|a nonnegative) integer\n")


def _random_argv(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return ["cohom", rng.choice(["dims", "h0", "witness"]), "--", _random_divisor(rng)]
    if kind == 1:
        return ["chern", "chi", "--", _random_divisor(rng)]
    if kind == 2:
        # half of them differences of two curves, which are cocycles
        text = (_random_divisor(rng) if rng.random() < 0.5
                else "-".join(rng.sample(_TOKENS[5:], 2)))
        return ["galois", "class", "--", text]
    if kind == 3:
        splits = [";".join(_random_divisor(rng) for _ in range(rng.randint(1, 3)))
                  for _ in range(2)]
        argv = ["order", "ext", f"--src={splits[0]}", f"--tgt={splits[1]}"]
        return argv + (["--induced"] if rng.random() < 0.3 else [])
    if kind == 4:
        triples = []
        for _ in range(2):
            fields = [str(rng.randint(-1, 4)), _random_divisor(rng), str(rng.randint(-9, 9))]
            if rng.random() < 0.15:  # a malformed rank or c2
                fields[rng.choice((0, 2))] = rng.choice(["x", "2.5", "", " ", "None", "1e3",
                                                         "\uff12"])
            triples.append(",".join(fields))
        return ["chern", "pairing", f"--lhs={triples[0]}", f"--rhs={triples[1]}"]
    if kind == 5:
        return [*rng.choice([["cohom", "dims"], ["cohom", "h0"], ["chern", "chi"]]), "--",
                _malformed_vector(rng)]
    return ["cohom", "les", "--", _random_les(rng)]


def _fuzz_argvs():
    rng = random.Random(31337)
    for _ in range(500):
        argv = _random_argv(rng)
        if rng.random() < 0.3:
            argv.insert(2, "--json")  # after the subcommand, before any "--"
        yield argv


def test_cli_fuzz_exits_with_documented_codes(capsys):
    codes = collections.Counter()
    for argv in _fuzz_argvs():
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed options with 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        codes[code] += 1
        if argv[1] == "les" and code:
            # les errors speak the command line's spelling, not Python's
            assert _LES_ERROR.fullmatch(err), (argv, err)
        if argv[1] in ("dims", "h0", "witness", "chi") and "," in argv[-1] and code:
            # a refused raw vector names its entry
            assert _VECTOR_ERROR.fullmatch(err), (argv, err)
            codes["vector entry"] += 1
        if argv[1] == "pairing" and code:
            assert "int()" not in err, (argv, err)
            codes["pairing field"] += bool(_PAIRING_FIELD_ERROR.fullmatch(err))
    # the sample reaches answers, domain errors and usage errors
    assert min(codes[0], codes[1], codes[2]) > 20, codes
    assert codes["pairing field"] > 5, codes
    assert codes["vector entry"] > 20, codes
