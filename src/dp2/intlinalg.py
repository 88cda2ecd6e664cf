"""Small exact linear algebra over the integers.

Matrices are lists of rows of Python ints, so nothing here ever overflows or
rounds.  The workhorse is a column echelon reduction H = M*U with U unimodular,
which yields integer kernels, column-space bases, and membership/solution tests
for M*x = b over the integers (``solver`` reduces once, then solves for many
right-hand sides).  ``rank_mod_2`` is the rank over F_2, from an XOR basis of
bit masks; it is all that the group cohomology needs, because that group is
killed by 2.  All inputs in this package are at most 8x8, so no attention is
paid to asymptotics; correctness is cross-checked against sympy in the test
suite.
"""

from __future__ import annotations

from typing import Callable

Matrix = list[list[int]]
Vector = list[int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def column_echelon(m: Matrix) -> tuple[Matrix, Matrix, list[tuple[int, int]]]:
    """Reduce by unimodular column operations.

    Returns (h, u, pivots) with h = m*u, u unimodular, and pivots a list of
    (row, col) pairs with strictly increasing rows and cols 0,1,2,...  Columns
    past the last pivot are identically zero, and every pivot has only zeros
    above it and to its right within its row.
    """
    rows, cols = len(m), len(m[0])
    h = [row[:] for row in m]
    u = identity(cols)

    def combine(c1: int, c2: int, a: int, b: int, c: int, d: int) -> None:
        # (col_c1, col_c2) <- (a*col_c1 + b*col_c2, c*col_c1 + d*col_c2)
        for mat in (h, u):
            for row in mat:
                v1, v2 = row[c1], row[c2]
                row[c1] = a * v1 + b * v2
                row[c2] = c * v1 + d * v2

    pivots: list[tuple[int, int]] = []
    col = 0
    for row in range(rows):
        if col >= cols:
            break
        support = [j for j in range(col, cols) if h[row][j] != 0]
        if not support:
            continue
        lead = support[0]
        if lead != col:
            combine(col, lead, 0, 1, 1, 0)
        for j in range(col + 1, cols):
            if h[row][j] == 0:
                continue
            a, b = h[row][col], h[row][j]
            g, x, y = xgcd(a, b)
            combine(col, j, x, y, -(b // g), a // g)
        pivots.append((row, col))
        col += 1
    # normalise pivot signs (pure column negation keeps u unimodular)
    for row, c in pivots:
        if h[row][c] < 0:
            for mat in (h, u):
                for r in mat:
                    r[c] = -r[c]
    return h, u, pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """A basis of the full integer kernel lattice {x : m*x = 0}."""
    _, u, pivots = column_echelon(m)
    cols = len(m[0])
    first_free = len(pivots)
    return [[u[i][j] for i in range(cols)] for j in range(first_free, cols)]


def column_space_basis(m: Matrix) -> list[Vector]:
    """A basis (echelon columns) of the lattice spanned by the columns of m."""
    h, _, pivots = column_echelon(m)
    rows = len(m)
    return [[h[i][c] for i in range(rows)] for _, c in pivots]


def solver(m: Matrix) -> Callable[[Vector], Vector | None]:
    """Echelonise m once; the result maps b to one integer solution of m*x = b, or None.

    The echelon data stays private to the returned function, so neither later
    changes to m nor changes to a returned solution affect other solves.
    """
    h, u, pivots = column_echelon(m)
    rows, cols = len(m), len(m[0])

    def solve_for(b: Vector) -> Vector | None:
        residual = list(b)
        y = [0] * cols
        for row, c in pivots:
            num, den = residual[row], h[row][c]
            if num % den != 0:
                return None
            y[c] = num // den
            if y[c] != 0:
                for i in range(rows):
                    residual[i] -= y[c] * h[i][c]
        if any(residual):
            return None
        return mat_vec(u, y)

    return solve_for


def rank_mod_2(rows: Matrix) -> int:
    """The rank over F_2 of the rows of an integer matrix."""
    basis: list[int] = []  # reduced bit masks with distinct leading bits
    for row in rows:
        mask = sum((x & 1) << j for j, x in enumerate(row))
        for b in basis:
            mask = min(mask, mask ^ b)  # clears b's leading bit, keeps earlier ones clear
        if mask:
            basis.append(mask)
    return len(basis)
