import itertools
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_decomp

from dp2 import intlinalg


@pytest.fixture
def rng():
    return random.Random(987123)


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def solvable_over_z(m, b):
    # oracle via a Smith decomposition D = S*M*T: M x = b has an integer
    # solution iff y = S*b is divisible by the diagonal of D entrywise and
    # vanishes past the rank
    mm = sympy.Matrix(m)
    d, s, t = smith_normal_decomp(mm)
    y = s * sympy.Matrix(b)
    for i in range(len(b)):
        di = d[i, i] if i < d.shape[0] and i < d.shape[1] else 0
        if di == 0:
            if y[i] != 0:
                return False
        elif y[i] % di != 0:
            return False
    return True


def test_xgcd(rng):
    for _ in range(500):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        g, x, y = intlinalg.xgcd(a, b)
        assert g == abs(sympy.gcd(a, b))
        assert x * a + y * b == g


def test_column_echelon_structure(rng):
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        h, u, pivots = intlinalg.column_echelon(m)
        assert sympy.Matrix(m) * sympy.Matrix(u) == sympy.Matrix(h)
        assert abs(sympy.Matrix(u).det()) == 1
        rows_seen = [r for r, _ in pivots]
        assert rows_seen == sorted(rows_seen)
        # pivot columns are 0..k-1 and later columns vanish
        for _, c in pivots:
            assert c < len(pivots)
        for j in range(len(pivots), len(m[0])):
            assert all(h[i][j] == 0 for i in range(len(m)))
        # zeros above each pivot, zeros to its right in the pivot row
        for r, c in pivots:
            assert all(h[i][c] == 0 for i in range(r))
            assert all(h[r][j] == 0 for j in range(c + 1, len(m[0])))
            assert h[r][c] > 0


def test_kernel_basis(rng):
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        basis = intlinalg.kernel_basis(m)
        for v in basis:
            assert all(x == 0 for x in intlinalg.mat_vec(m, v))
        expected_dim = len(m[0]) - sympy.Matrix(m).rank()
        assert len(basis) == expected_dim


def test_solve_constructed_systems(rng):
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        x0 = [rng.randint(-4, 4) for _ in range(cols)]
        b = intlinalg.mat_vec(m, x0)
        x = intlinalg.solver(m)(b)
        assert x is not None
        assert intlinalg.mat_vec(m, x) == b


def test_solve_detects_unsolvable():
    assert intlinalg.solver([[2]])([1]) is None
    assert intlinalg.solver([[2, 0], [0, 3]])([1, 3]) is None
    assert intlinalg.solver([[1, 1], [1, 1]])([0, 1]) is None
    # integrality matters, not just rank: 2x + 4y = 3 has rational solutions only
    assert intlinalg.solver([[2, 4]])([3]) is None
    assert intlinalg.solver([[2, 4]])([6]) is not None


def test_solve_agrees_with_smith_feasibility(rng):
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, bound=4)
        b = [rng.randint(-6, 6) for _ in range(rows)]
        ours = intlinalg.solver(m)(b)
        assert (ours is not None) == solvable_over_z(m, b)
        if ours is not None:
            assert intlinalg.mat_vec(m, ours) == b


def test_rank_mod_2_counts_the_span(rng):
    # oracle: the F_2 span of the rows, listed by brute force, has 2^rank elements
    for _ in range(150):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, bound=5)
        span = {tuple(sum(c * row[j] for c, row in zip(coeffs, m)) % 2 for j in range(cols))
                for coeffs in itertools.product((0, 1), repeat=rows)}
        assert len(span) == 2 ** intlinalg.rank_mod_2(m)


def test_solver_agrees_with_solve(rng):
    # one solver reused for many right-hand sides answers as a fresh solve does
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        solve_m = intlinalg.solver(m)
        for _ in range(5):
            # half constructed to be solvable, half random (often unsolvable)
            if rng.random() < 0.5:
                b = intlinalg.mat_vec(m, [rng.randint(-5, 5) for _ in range(cols)])
            else:
                b = [rng.randint(-9, 9) for _ in range(rows)]
            x = solve_m(b)
            assert x == intlinalg.solver(m)(b)
            assert (x is None) == (not solvable_over_z(m, b))
            if x is not None:
                assert intlinalg.mat_vec(m, x) == b


def test_solver_keeps_its_echelon_data_private():
    m = [[2, 0], [0, 3]]
    solve_m = intlinalg.solver(m)
    first = solve_m([4, 9])
    assert first == [2, 3]
    first[0] = 99
    m[0][0] = 5
    assert solve_m([4, 9]) == [2, 3]
    assert solve_m([1, 3]) is None
