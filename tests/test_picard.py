import collections
import itertools
import random
import subprocess
import sys

import pytest
import sympy

from dp2 import picard
from dp2.errors import InternalInconsistency
from dp2.picard import (
    ZERO,
    DivClass,
    E,
    F,
    H,
    K,
    L,
    classes_with,
    classify,
    conic_through,
    coordinate_bounds,
    cubic_with_node,
    enumerate_exceptional,
    format_divisor,
    intersect,
    line_through,
    parse_divisor,
)


def raw_intersect(a, b):
    # the diagonal form, written out independently of picard.intersect
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def test_basis_self_intersections():
    assert intersect(L, L) == 1
    for i in range(1, 8):
        assert intersect(E(i), E(i)) == -1
        assert intersect(L, E(i)) == 0
    for i, j in itertools.combinations(range(1, 8), 2):
        assert intersect(E(i), E(j)) == 0


def test_hyperplane_numbers():
    assert H == 3 * L - sum((E(i) for i in range(1, 8)), ZERO)
    assert intersect(H, H) == 2
    for c in enumerate_exceptional():
        assert intersect(H, c) == 1


def test_e1_dot_d1_from_expansion():
    # oracle: expand D1 = 3L - 2E1 - (E2 + ... + E7) and evaluate the raw form
    d1 = (3, -2, -1, -1, -1, -1, -1, -1)
    expected = raw_intersect(E(1).coeffs, d1)
    assert expected == 2
    assert intersect(E(1), cubic_with_node(1)) == expected


def test_canonical_class():
    assert K == DivClass((-3, 1, 1, 1, 1, 1, 1, 1))
    assert intersect(K, K) == 9 - 7 == 2
    assert K + H == ZERO
    for c in enumerate_exceptional():
        assert intersect(K, c) == -1


def test_intersect_symmetric_bilinear(rng, random_classes):
    for a, b, c in zip(*(random_classes(1000) for _ in range(3))):
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        assert intersect(a, b) == intersect(b, a)
        assert intersect(m * a + n * b, c) == m * intersect(a, c) + n * intersect(b, c)
        assert intersect(a, b) == raw_intersect(a.coeffs, b.coeffs)


def test_census_counts_and_families():
    curves = enumerate_exceptional()
    assert len(curves) == 56
    assert len(set(curves)) == 56
    # a family is the curves of one degree in L: E 0, L 1, C 2, D 3
    assert [sum(1 for c in curves if c.coeffs[0] == d) for d in range(4)] == [7, 21, 21, 7]
    for c in curves:
        assert c.selfint == -1
        assert intersect(c, H) == 1


def test_census_family_closed_forms():
    curves = enumerate_exceptional()
    expected = [E(i).coeffs for i in range(1, 8)]
    expected += [(L - E(i) - E(j)).coeffs for i, j in itertools.combinations(range(1, 8), 2)]
    expected += [(2 * L - sum((E(k) for k in range(1, 8) if k not in (i, j)), ZERO)).coeffs
                 for i, j in itertools.combinations(range(1, 8), 2)]
    expected += [(3 * L - 2 * E(i) - sum((E(k) for k in range(1, 8) if k != i), ZERO)).coeffs
                 for i in range(1, 8)]
    assert [c.coeffs for c in curves] == expected


def brute_force_box_scan():
    # exhaustive scan of |d| <= 4, |mi| <= 3 for D.D = -1, D.H = 1; the last
    # coordinate is solved from the linear degree equation, which discards
    # exactly the box points failing D.H = 1
    found = set()
    for d in range(-4, 5):
        for ms in itertools.product(range(-3, 4), repeat=6):
            m7 = 1 - 3 * d - sum(ms)
            if not -3 <= m7 <= 3:
                continue
            if d * d - sum(m * m for m in ms) - m7 * m7 == -1:
                found.add((d, *ms, m7))
    return found


def test_census_equals_brute_force_scan():
    assert {c.coeffs for c in enumerate_exceptional()} == brute_force_box_scan()


def test_census_bounds_are_derived():
    assert coordinate_bounds(1, -1) == [(0, 3)] + [(-2, 1)] * 7


def test_enumerator_finds_the_census_in_order():
    found = [d.coeffs for d in classes_with(1, -1)]
    assert found == sorted(c.coeffs for c in enumerate_exceptional())


def test_enumerator_finds_the_126_roots_of_e7():
    roots = classes_with(0, -2)
    assert len(roots) == 126 == len(set(roots))
    assert all(intersect(r, H) == 0 and r.selfint == -2 for r in roots)
    assert [r.coeffs for r in roots] == sorted(r.coeffs for r in roots)


def brute_force_classes_with(degree, selfint):
    # every point of the coordinate_bounds box, in lexicographic order, kept
    # when D.H = 3d + m1 + ... + m7 and D.D = d^2 - m1^2 - ... - m7^2 match
    box = itertools.product(*(range(lo, hi + 1) for lo, hi in coordinate_bounds(degree, selfint)))
    return [v for v in box
            if 3 * v[0] + sum(v[1:]) == degree and raw_intersect(v, v) == selfint]


# besides the roots, the curves and the conic classes: a negative degree, a
# single solution (0), a box that holds no solution, and the negated conics
ENUMERATOR_INPUTS = [(0, -2), (1, -1), (2, 0), (2, -2), (3, 1), (-1, -1), (0, 0), (0, -1), (-2, 0)]


@pytest.mark.parametrize("degree, selfint", ENUMERATOR_INPUTS)
def test_enumerator_equals_brute_force_over_the_box(degree, selfint):
    found = [d.coeffs for d in classes_with(degree, selfint)]
    assert found == brute_force_classes_with(degree, selfint)


# the simple roots E_i - E_{i+1} and L - E1 - E2 - E3 of E7: a.a = -2 and a.H = 0
SIMPLE_ROOTS = [tuple(int(k == i) - int(k == i + 1) for k in range(8)) for i in range(1, 7)]
SIMPLE_ROOTS.append((1, -1, -1, -1, 0, 0, 0, 0))


@pytest.mark.parametrize("degree, selfint", ENUMERATOR_INPUTS)
def test_enumerator_output_is_closed_under_the_weyl_group(degree, selfint):
    # a second route to completeness that never reads coordinate_bounds: the
    # reflection s(D) = D + (D.a) a fixes H and the form, so it permutes the
    # classes with given D.H and D.D, and a complete set is closed under it
    found = {d.coeffs for d in classes_with(degree, selfint)}
    for a in SIMPLE_ROOTS:
        assert {tuple(x + raw_intersect(v, a) * y for x, y in zip(v, a)) for v in found} == found


def test_enumerator_empty_when_no_class_exists():
    # E7 is even, and v.v > 0 is impossible in the negative definite H-perp
    assert classes_with(0, -1) == []
    assert classes_with(1, 1) == []


def test_census_closed_under_bitangent_pairing():
    classes = set(enumerate_exceptional())
    for c in classes:
        assert H - c in classes


def test_classify_examples():
    lij = DivClass((1, -1, -1, 0, 0, 0, 0, 0))
    assert classify(lij) is lij and format_divisor(lij) == "L12"
    # oracle: expand 2L - sum(Ek, k != 1, 2)
    cij = DivClass((2, 0, 0, -1, -1, -1, -1, -1))
    assert classify(cij) is cij and format_divisor(cij) == "C12"
    for d in (ZERO, L, H, E(1) + E(2)):
        assert classify(d) is None
    for c in enumerate_exceptional():
        assert classify(c) is c


def test_classify_agrees_with_the_numerical_definition_on_the_box():
    # every class with D.D = -1 and D.H = 1 lies in this box (coordinate_bounds)
    box = itertools.product(*(range(lo, hi + 1) for lo, hi in coordinate_bounds(1, -1)))
    for v in box:
        d = DivClass(v)
        is_curve = raw_intersect(v, v) == -1 and 3 * v[0] + sum(v[1:]) == 1
        assert (classify(d) is d) == is_curve, v


def test_curve_names():
    assert format_divisor(E(3)) == "E3"
    assert format_divisor(line_through(2, 5)) == "L25"
    assert format_divisor(conic_through(1, 7)) == "C17"
    assert format_divisor(cubic_with_node(6)) == "D6"


def _name_from_coordinates(coeffs):
    # E_i has the 1 at i; L_ij the -1s, C_ij the 0s, D_i the -2 at i
    d, ms = coeffs[0], coeffs[1:]
    marked = {0: 1, 1: -1, 2: 0, 3: -2}[d]
    return "ELCD"[d] + "".join(str(i) for i, m in enumerate(ms, 1) if m == marked)


def test_census_names_follow_from_the_coordinates():
    curves = enumerate_exceptional()
    names = [format_divisor(c) for c in curves]
    assert names == [_name_from_coordinates(c.coeffs) for c in curves]
    assert len(set(names)) == 56


def test_census_refuses_a_class_that_is_not_a_curve(monkeypatch):
    monkeypatch.setattr(picard, "cubic_with_node", lambda i: 3 * L - 2 * E(i))
    with pytest.raises(InternalInconsistency, match="not a \\(-1\\)-curve"):
        picard._census()


def test_parse_raw_vector():
    assert parse_divisor("3,-1,-1,-1,-1,-1,-1,-1") == H
    assert parse_divisor(" 0,0,0,0,0,0,0,0 ") == ZERO
    assert parse_divisor("3, -1,-1 ,-1,-1,-1,-1,-1") == H  # spaces around an entry
    with pytest.raises(ValueError):
        parse_divisor("1,2,3")
    with pytest.raises(ValueError):
        parse_divisor("1,2,3,x,5,6,7,8")
    assert parse_divisor("+3,-1,-1,-1,-1,-1,-1,-1") == H


def test_determinant_matches_sympy(rng):
    # picard.determinant (Bareiss) against sympy, including singular matrices
    # and zero leading pivots
    assert picard.determinant([]) == 1
    for n in range(1, 8):
        for _ in range(40):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:
                m[rng.randrange(n)] = [0] * n
            if rng.random() < 0.3:
                m[0][0] = 0
            assert picard.determinant(m) == sympy.Matrix(m).det(), m


def test_parse_symbolic():
    assert parse_divisor("H") == H
    assert parse_divisor("K") == K
    assert parse_divisor("-H") == -H
    assert parse_divisor("2H-3E1+L23") == 2 * H - 3 * E(1) + line_through(2, 3)
    assert parse_divisor("F") == E(1) + line_through(1, 2)
    assert parse_divisor("F-H") == F - H
    assert parse_divisor(" L21 ") == line_through(1, 2)  # whitespace and index order
    # spaces may surround a sign or the whole text
    assert parse_divisor(" 2H - 3E1 + L23 ") == 2 * H - 3 * E(1) + line_through(2, 3)
    assert parse_divisor("- H") == -H
    assert parse_divisor("C67-E5") == conic_through(6, 7) - E(5)
    assert parse_divisor("D7") == cubic_with_node(7)
    assert parse_divisor("0") == ZERO
    assert parse_divisor("3*H") == 3 * H


# the grammar's integers are ASCII digits: int() would read "\uff13" as 3 and "1_0" as 10;
# whitespace separates, it never joins the digits of an integer or the parts of a term
@pytest.mark.parametrize("bad", ["", "Q1", "E8", "E12", "L1", "L11", "D12", "2", "H+", "\uff13H",
                                 "\uff13,-1,-1,-1,-1,-1,-1,-1", "1_0,0,0,0,0,0,0,0",
                                 "1 0,0,0,0,0,0,0,0", "1 0L", " L 2 1 ", "2 H", "3 * H",
                                 "3* H", "- 1,0,0,0,0,0,0,0", "2H 3E1",
                                 # the token 0 takes no multiplier: no digit run is a class
                                 "10", "00", "2*0", "-20", "H-30", "*0",
                                 # a "*" follows the digits of a multiplier only
                                 "*H", "-*E1+*L"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_divisor(bad)


# an independent reader of the symbolic grammar: each text is built from its parts,
# and its class is computed from those parts, with no regex and no name table of picard
_ORACLE_TOKENS = {
    "H": H, "K": K, "L": L, "F": E(1) + line_through(1, 2), "0": ZERO,
    **{f"E{i}": E(i) for i in range(1, 8)},
    **{f"D{i}": cubic_with_node(i) for i in range(1, 8)},
    **{f"L{i}{j}": line_through(i, j) for i, j in itertools.permutations(range(1, 8), 2)},
    **{f"C{i}{j}": conic_through(i, j) for i, j in itertools.permutations(range(1, 8), 2)},
}


def _grammar_case(rng):
    """A text of up to four signed terms and its class, or None when the grammar refuses it.

    A term is a sign (optional on the first), a multiplier of ASCII digits with or
    without "*", and a token, with the whitespace the grammar allows around the
    sign and the term.  A multiplier before the token 0 makes a bare digit run,
    such as "10", "00", "2*0" or "-20", which is refused, and so is a "*" with no
    digits before it, as in "*H" or "-*E1".
    """
    text, total, refused = rng.choice(["", " "]), ZERO, False
    for pos in range(rng.randint(1, 4)):
        sign = rng.choice(["+", "-"] if pos else ["", "+", "-"])
        digits = rng.choice(["", "", "0", "1", "2", "10", "007", str(rng.randint(0, 999))])
        star = rng.choice(["", "*"])
        token = "0" if rng.random() < 0.2 else rng.choice(sorted(_ORACLE_TOKENS))
        text += sign + rng.choice(["", " "]) + digits + star + token + rng.choice(["", " "])
        refused = refused or (token == "0" and digits != "") or (star and not digits)
        multiple = (-1 if sign == "-" else 1) * (int(digits) if digits else 1)
        total = total + multiple * _ORACLE_TOKENS[token]
    return text, None if refused else total


def test_parse_divisor_agrees_with_a_reader_built_from_parts():
    rng = random.Random(26)
    outcomes = collections.Counter()
    for _ in range(4000):
        text, expected = _grammar_case(rng)
        if expected is None:
            with pytest.raises(ValueError):
                parse_divisor(text)
        else:
            assert parse_divisor(text) == expected, text
        outcomes["refused" if expected is None else "read"] += 1
    assert min(outcomes["refused"], outcomes["read"]) > 500, outcomes


def test_every_name_parses_back_to_its_class():
    # the grammar reads its tokens from the table format_divisor prints from
    named = picard._NAMES
    assert len(named) == 61
    for d in named:
        assert parse_divisor(format_divisor(d)) == d
    for i, j in itertools.combinations(range(1, 8), 2):
        assert parse_divisor(f"L{j}{i}") == line_through(i, j)
        assert parse_divisor(f"C{j}{i}") == conic_through(i, j)


def test_str_round_trip(random_classes):
    for d in random_classes(200):
        assert parse_divisor(str(d)) == d


def test_format_divisor():
    assert format_divisor(H) == "H"
    assert format_divisor(E(1) + line_through(1, 2)) == "F"
    assert format_divisor(conic_through(1, 2)) == "C12"
    assert format_divisor(ZERO) == "0"
    assert format_divisor(E(1) - E(2)) == "E1-E2"


def test_importing_picard_loads_no_other_layer():
    # the package root re-exports nothing, so a submodule import stays small
    script = ("import sys, dp2.picard\n"
              "print(sorted({'dp2.replay', 'dp2.order', 'dp2.cohom', 'dp2.chern'}"
              " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # every fresh `python -m dp2 ...` pays for its imports; dataclasses alone
    # brings inspect, ast and dis with it, and argparse brings gettext
    script = ("import sys, dp2.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'json', 'argparse'}"
              " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
