import functools
import itertools
import math
import random
import time

from conftest import oracle_feasible_values, random_dim_sequence

import pytest

from dp2 import cohom
from dp2.cohom import (
    CohomDims,
    chi_line,
    cohom_dims,
    cohom_ideal_twist,
    h0,
    h1,
    h2,
    les_solve,
    noneffective_witness,
)
from dp2.errors import Infeasible, InternalInconsistency
from dp2.picard import (
    ZERO,
    DivClass,
    E,
    F,
    H,
    L,
    cubic_with_node,
    enumerate_exceptional,
    intersect,
    line_through,
    parse_divisor,
)

LCLASS = F - H  # E1 - C12


@pytest.fixture
def rng():
    return random.Random(424242)


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def test_chi_values():
    assert chi_line(ZERO) == 1
    assert chi_line(E(3) - E(1)) == 0
    assert chi_line(line_through(2, 3) - E(1)) == 0
    assert chi_line(F - H) == 0
    assert chi_line(LCLASS) == 0
    assert chi_line(H) == 3
    assert chi_line(F) == 2
    assert chi_line(-H) == 1


def test_chi_serre_symmetry(random_classes):
    for d in random_classes(500):
        assert chi_line(d) == chi_line(-H - d)


# ---------------------------------------------------------------------------
# h0 / h1 / h2
# ---------------------------------------------------------------------------


def is_nef(d):
    """Oracle: nonnegative degree on H and on all 56 exceptional curves."""
    if intersect(d, H) < 0:
        return False
    return all(intersect(d, c) >= 0 for c in enumerate_exceptional())


def test_h0_base_cases():
    assert h0(ZERO) == 1
    assert h0(-H) == 0
    assert h0(E(1) - E(2)) == 0  # degree 0, nonzero
    for c in enumerate_exceptional():
        assert h0(c) == 1


def test_h0_of_polarisation():
    # peeling reaches the nef case; chi(H) = 3 matches the pulled-back lines
    assert is_nef(H)
    assert h0(H) == 3
    assert h0(2 * H) == chi_line(2 * H) == 7


def test_h0_of_deep_multiples_of_a_curve():
    # chi(kC) = 1 - k(k-1)/2 and kC is rigid, far past the interpreter's
    # recursion limit; D7 is the last curve the peeling scans
    for c in (E(1), enumerate_exceptional()[-1]):
        for k in range(1, 2001):
            assert h0(k * c) == 1
            assert h1(k * c) == k * (k - 1) // 2
    for c in enumerate_exceptional():
        assert (h0(2000 * c), h1(2000 * c)) == (1, 1999000)


def test_h0_caches_only_its_own_calls():
    h0.cache_clear()
    assert h0(900 * E(1)) == 1
    assert h0.cache_info().currsize == 1


def test_h0_of_a_deep_non_effective_class_takes_a_few_steps():
    # a peeling without a step bound removes a bounded part of D.H per step: seconds here
    d = parse_divisor("1000000L-1000000E1-2H")
    start = time.perf_counter()
    assert h0.__wrapped__(d) == 0
    assert time.perf_counter() - start < 0.05


def _unbounded_peel(d):
    # reference: peel every negative curve until the degree or nefness decides
    curves = enumerate_exceptional()
    while True:
        deg = intersect(d, H)
        if deg <= 0:
            return int(deg == 0 and d.is_zero())
        negative = next((c for c in curves if intersect(d, c) < 0), None)
        if negative is None:
            return chi_line(d)
        d = d + intersect(d, negative) * negative


class _ScanCount(list):
    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_h0_matches_the_unbounded_peeling(monkeypatch):
    # the same answers, in at most 8 scans of the curves whatever the coefficients
    curves = _ScanCount(enumerate_exceptional())
    monkeypatch.setattr(cohom, "enumerate_exceptional", lambda: curves)
    rng = random.Random(28)
    most = 0
    for _ in range(3000):
        d = DivClass(tuple(rng.randint(-20, 20) for _ in range(8)))
        curves.scans = 0
        assert h0.__wrapped__(d) == _unbounded_peel(d), d
        most = max(most, curves.scans)
    assert 1 < most <= 8


def test_vanishing_table():
    for name in ["E3-E1", "L23-E1"]:
        d = parse_divisor(name)
        assert cohom_dims(d) == CohomDims(0, 0, 0)
    for name in ["-F-H", "F-H", "E1-C12", "C12-E1-H", "-H", "E1-E3-H", "E1-L23-H"]:
        assert h0(parse_divisor(name)) == 0
    assert h2(F) == 0
    assert h1(E(3) - E(1)) == 0
    assert h1(LCLASS) == 0
    assert h1(F - H) == 0


def test_euler_characteristic_identity(random_classes):
    for d in random_classes(500):
        assert h0(d) - h1(d) + h2(d) == chi_line(d)


def test_peeling_invariance(rng, random_classes):
    # any negative curve may be peeled first without changing the answer
    checked = 0
    for d in random_classes(300, bound=4):
        for c in enumerate_exceptional():
            if intersect(d, c) < 0:
                assert h0(d) == h0(d - c)
                checked += 1
    assert checked > 100


# W(E7) oracle: the simple roots E_i - E_{i+1} and the Cremona root L - E1 - E2 - E3,
# each acting by the reflection s(D) = D + (D.a) a, written here with picard.intersect
# only, so it shares no code with the peeling
SIMPLE_ROOTS = [E(i) - E(i + 1) for i in range(1, 7)] + [L - E(1) - E(2) - E(3)]


def _reflect(d, root):
    return d + intersect(d, root) * root


def test_simple_reflections_are_isometries_fixing_h():
    basis = [L] + [E(i) for i in range(1, 8)]
    for root in SIMPLE_ROOTS:
        assert intersect(root, root) == -2 and intersect(root, H) == 0
        assert _reflect(H, root) == H
        for a in basis:
            assert _reflect(_reflect(a, root), root) == a
            for b in basis:
                assert intersect(_reflect(a, root), _reflect(b, root)) == intersect(a, b)


# k D_i + m (D_i + E_j), j != i, k, m >= 1: D_i + E_j is a conic class (square 0),
# and D_i, of product -k, is the only (-1)-curve the class meets negatively,
# so peeling it leaves the nef class m (D_i + E_j) with h0 = chi = m + 1; a
# peeling that skipped the nodal cubics would answer chi = m + 1 - k(k-1)/2
NODAL_ONLY = {(i, j, k, m): k * cubic_with_node(i) + m * (cubic_with_node(i) + E(j))
              for i, j in itertools.permutations(range(1, 8), 2)
              for k, m in ((1, 1), (3, 2), (5, 4))}


def test_h0_of_classes_negative_only_on_a_nodal_cubic():
    for (i, j, k, m), d in NODAL_ONLY.items():
        negative = [c for c in enumerate_exceptional() if intersect(d, c) < 0]
        assert negative == [cubic_with_node(i)] and intersect(d, cubic_with_node(i)) == -k, d
        assert h0(d) == m + 1, d


def test_cohom_dims_invariant_under_w_e7():
    rng = random.Random(7077)

    def invariant_dims(d):
        moved = d
        for _ in range(rng.randint(3, 6)):
            moved = _reflect(moved, rng.choice(SIMPLE_ROOTS))
        dims = cohom_dims(d)
        assert cohom_dims(moved) == dims, (d, moved)
        return dims

    nonzero_h0 = nonzero_h1 = 0
    for _ in range(500):
        # L-coordinate in [0, 8] keeps about a fifth of the sample effective
        dims = invariant_dims(DivClass((rng.randint(0, 8),)
                                       + tuple(rng.randint(-8, 8) for _ in range(7))))
        nonzero_h0 += dims.h0 > 0
        nonzero_h1 += dims.h1 > 0
    # the random sample reaches effective and non-regular classes, not only h = 0
    assert nonzero_h0 > 100 and nonzero_h1 > 400
    for d in NODAL_ONLY.values():
        invariant_dims(d)


def test_h0_monotone_under_adding_curves(random_classes):
    for d in random_classes(100, bound=3):
        base = h0(d)
        for c in enumerate_exceptional()[::11]:
            assert h0(d + c) >= base


def test_nef_classes_have_chi_sections(random_classes):
    seen = 0
    for d in random_classes(500, bound=3):
        if is_nef(d):
            assert h0(d) == chi_line(d)
            assert h1(d) == 0 and h2(d) == 0
            seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# Oracle A: plane curves through seven points, which shares no code with peeling.
# Y is P^2 blown up at seven general points, so h0(dL + sum m_i E_i) is the
# dimension of degree-d ternary forms vanishing to order max(0, -m_i) at the
# i-th point (a positive m_i only adds the fixed component m_i E_i).  Seeded
# random points over F_p give an upper bound by semicontinuity, and general
# points attain it.
# ---------------------------------------------------------------------------

_P = 2**31 - 1


@functools.lru_cache(maxsize=None)
def _vanishing_conditions(d, point):
    """Rows of Taylor coefficients at point = (1 : u : v), ordered by total order i + j.

    The form x^(d-b-c) y^b z^c contributes C(b, i) C(c, j) u^(b-i) v^(c-j) to
    the coefficient of (y - u)^i (z - v)^j at x = 1.
    """
    u, v = point
    monomials = [(b, c) for b in range(d + 1) for c in range(d + 1 - b)]
    return [[math.comb(b, i) * math.comb(c, t - i) * pow(u, b - i, _P) * pow(v, c - t + i, _P) % _P
             if b >= i and c >= t - i else 0 for b, c in monomials]
            for t in range(d + 1) for i in range(t + 1)]


def _rank_mod_p(rows):
    # each pivot row is 1 in its column and 0 in the columns of earlier pivots,
    # so reducing a row against the pivots in order clears all their columns
    pivots = {}
    for row in rows:
        for col, pivot in pivots.items():
            if row[col]:
                f = row[col]
                row = [(a - f * b) % _P for a, b in zip(row, pivot)]
        col = next((c for c, a in enumerate(row) if a), None)
        if col is not None:
            inv = pow(row[col], _P - 2, _P)
            pivots[col] = [a * inv % _P for a in row]
    return len(pivots)


def forms_through_points(d, orders, points):
    """Dimension of degree-d forms, d >= 0, vanishing to the given orders at the points."""
    rows = []
    for point, order in zip(points, orders):
        if order > d:  # every form vanishing that deep is zero
            return 0
        rows += _vanishing_conditions(d, point)[:order * (order + 1) // 2]
    return (d + 1) * (d + 2) // 2 - _rank_mod_p(rows)


def test_h0_matches_plane_curves_through_seven_points():
    rng = random.Random(70031)
    points = [(rng.randrange(1, _P), rng.randrange(1, _P)) for _ in range(7)]
    classes = [DivClass((rng.randint(0, 6),) + tuple(rng.randint(-3, 3) for _ in range(7)))
               for _ in range(400)]
    # the (3, 2) and (5, 4) nodal classes have degree 15 and 27: too big for this
    # elimination; 2 D_i, of degree 6, meets only D_i negatively, at -2, so a
    # peeling that skipped the nodal cubics would answer chi(2 D_i) = 0
    classes += [d for (i, j, k, m), d in NODAL_ONLY.items() if (k, m) == (1, 1)]
    classes += [2 * cubic_with_node(i) for i in range(1, 8)]
    effective = 0
    for d in classes:
        expected = forms_through_points(d.coeffs[0], [max(0, -m) for m in d.coeffs[1:]], points)
        assert h0(d) == expected, d
        effective += expected > 0
    assert effective == 200 + 42 + 7


# ---------------------------------------------------------------------------
# witness oracle
# ---------------------------------------------------------------------------


def test_witness_examples():
    w = noneffective_witness(-F - H)
    assert w == H and intersect(-F - H, w) == -4
    w = noneffective_witness(F - H)
    assert w == L and intersect(F - H, w) == -2
    w = noneffective_witness(E(3) - E(1))
    assert w == L - E(1) and intersect(E(3) - E(1), w) == -1


def test_witness_pool_is_nef():
    # the effective cone is spanned by the 56 curves, so a class meeting each of
    # them nonnegatively meets every effective class nonnegatively: D.W < 0
    # then certifies that D is not effective, without asking h0
    for w in cohom._WITNESS_POOL:
        assert w.selfint >= 0
        assert all(intersect(w, c) >= 0 for c in enumerate_exceptional()), w


def test_witness_pool_rejects_a_negative_square(monkeypatch):
    # E(3) doubled makes the pool class L - E(3) square to 1 - 4 = -3
    monkeypatch.setattr(cohom, "E", lambda i: 2 * E(i) if i == 3 else E(i))
    with pytest.raises(InternalInconsistency, match="negative square"):
        cohom._witness_pool()


def test_witness_none_for_effective():
    assert noneffective_witness(H) is None
    assert noneffective_witness(ZERO) is None
    assert noneffective_witness(E(1)) is None


def test_witness_soundness(random_classes):
    # a witness certifies emptiness; never contradicts the peeling oracle
    fired = 0
    for d in random_classes(500):
        w = noneffective_witness(d)
        if w is not None:
            assert w.selfint >= 0 and intersect(d, w) < 0
            assert h0(d) == 0
            fired += 1
    assert fired > 50


# ---------------------------------------------------------------------------
# ideal-sheaf twists
# ---------------------------------------------------------------------------


def test_ideal_twist_generic():
    assert cohom_ideal_twist(F) == CohomDims(1, 0, 0)
    assert cohom_ideal_twist(ZERO) == CohomDims(0, 0, 0)
    assert cohom_ideal_twist(H) == CohomDims(2, 0, 0)


def test_ideal_twist_empty_case():
    d = F - H
    out = cohom_ideal_twist(d)
    assert out == CohomDims(0, h1(d) + 1, h2(d)) == CohomDims(0, 1, 0)


def test_ideal_twist_h2_is_h2_of_line(random_classes):
    for d in random_classes(100):
        out = cohom_ideal_twist(d)
        first = out[0] if isinstance(out, tuple) else out
        assert first.h2 == h2(d)


# ---------------------------------------------------------------------------
# exact-sequence solver
# ---------------------------------------------------------------------------




def test_les_squeeze():
    assert les_solve([0, None, 0]).entry(1) == 0
    assert les_solve([0, 1, None, 0]).entry(2) == 1
    assert les_solve([None]).entry(0) == 0
    # the split sequence 0 -> Ext_A -> Ext_Y -> Ext_A(-, Au x -) -> 0 of the order layer:
    # a zero Y-level value forces both sides, an A-level value forces the twisted one
    assert les_solve([None, 0, None]).entries == (0, 0, 0)
    assert les_solve([1, 1, None]).entry(2) == 0
    assert les_solve([1, 2, None]).entry(2) == 1


def test_les_six_term_chain():
    result = les_solve([0, None, 1, 1, 0, None])
    assert result.entry(1) == 0
    assert result.entry(5) == 0


def test_les_double_unknown_forced():
    result = les_solve([1, None, 2, 0, None, 3])
    assert result.entry(1) == 3
    assert result.entry(4) == 3
    feasible, values = oracle_feasible_values((1, None, 2, 0, None, 3))
    assert feasible
    assert values[1] == {3} and values[4] == {3}


def test_les_underdetermined_intervals():
    result = les_solve([None, None, 1])
    # d1 = r1, d2 = r1 + r2, 1 = r2 (+0): with r2 <= 1 free and r1 free the
    # first two entries stay coupled but each ranges over an interval
    assert not result.determined
    feasible, values = oracle_feasible_values((None, None, 1), bound=15)
    assert feasible
    for i, entry in enumerate(result.entries):
        if isinstance(entry, int):
            assert values[i] == {entry}
        else:
            assert entry.hi is None or values[i] == set(range(entry.lo, entry.hi + 1))


def test_les_infeasible():
    # the message shows the entries as typed, "?" for an unknown one
    with pytest.raises(Infeasible, match=r"^no rank assignment for 1, 0$"):
        les_solve([1, 0])
    with pytest.raises(Infeasible, match=r"^no rank assignment for 0, 1, 0, 1$"):
        les_solve([0, 1, 0, 1])
    with pytest.raises(Infeasible, match=r"^no rank assignment for 2, 1, 2$"):
        les_solve([2, 1, 2])
    with pytest.raises(Infeasible, match=r"^no rank assignment for 0, \?, 0, 0, 3$"):
        les_solve([0, None, 0, 0, 3])
    # an A-level value above the Y-level one in the split sequence [ext_A, ext_Y, twisted]
    with pytest.raises(Infeasible, match=r"^no rank assignment for 2, 1, \?$"):
        les_solve([2, 1, None])


def test_les_rejects_bad_entries():
    for entries, message in [
        ([], "empty sequence"),
        ([1, -1], "entries must be nonnegative ints or None, got -1"),
        ([-1, 1, None], "entries must be nonnegative ints or None, got -1"),
        ([1.5], "entries must be nonnegative ints or None, got 1.5"),
    ]:
        with pytest.raises(ValueError) as info:
            les_solve(entries)
        assert str(info.value) == message


def test_les_random_against_oracle(rng):
    tested = 0
    for _ in range(200):
        seq = random_dim_sequence(rng)
        feasible, values = oracle_feasible_values(seq)
        if not feasible:
            with pytest.raises(Infeasible):
                les_solve(seq)
            continue
        result = les_solve(seq)
        for i, entry in enumerate(result.entries):
            if isinstance(entry, int):
                assert values[i] == {entry}
            else:
                assert entry.hi is not None  # isolated unknowns are bounded
                assert values[i] == set(range(entry.lo, entry.hi + 1))
        tested += 1
    assert tested > 100
