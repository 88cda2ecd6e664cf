"""Picard lattice of the degree-2 del Pezzo double plane.

The surface Y is the blow-up of the projective plane at seven points in
general position, equivalently the double cover of the plane branched on a
smooth quartic.  Its Picard group is the free abelian group of rank 8 with
basis (L, E1, ..., E7), where L is the pullback of a line under the blow-down
and the Ei are the exceptional curves of the blow-up.  The intersection form
is diagonal with signature (1, 7):

    (d; m1..m7) . (d'; m1'..m7')  =  d*d' - m1*m1' - ... - m7*m7'

Everything in this module is exact integer arithmetic on that lattice: the
distinguished classes H = -K (the halved anticanonical polarisation, pullback
of a line under the double cover), the census of the 56 (-1)-curves, a
provably complete enumerator of the classes with given degree and
self-intersection, and a small text grammar for divisor classes used by the
command line tools.  A (-1)-curve is its class: the census maps each of the
56 classes, in the order of the four classical families (E, L, C, D), to its
name E1..D7, which ``format_divisor`` prints.
"""

from __future__ import annotations

import itertools
import math
import re

from .errors import InternalInconsistency, Value

__all__ = [
    "DivClass",
    "ZERO",
    "L",
    "H",
    "K",
    "F",
    "E",
    "line_through",
    "conic_through",
    "cubic_with_node",
    "intersect",
    "determinant",
    "enumerate_exceptional",
    "classify",
    "coordinate_bounds",
    "classes_with",
    "parse_integer",
    "parse_divisor",
    "format_divisor",
]

RANK = 8


class DivClass(Value):
    """A divisor class d*L + m1*E1 + ... + m7*E7, stored as (d, m1, ..., m7)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, int, int, int, int, int, int, int]):
        if len(coeffs) != RANK:
            raise ValueError(f"need {RANK} coordinates, got {len(coeffs)}")
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError("coordinates must be integers")
        object.__setattr__(self, "coeffs", coeffs)

    # the key of h0's cache and of the census: Value's generic __eq__ and
    # __hash__ would take about twice as long per call
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    def __add__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivClass":
        return DivClass(tuple(-a for a in self.coeffs))

    def __mul__(self, n: int) -> "DivClass":
        if not isinstance(n, int):
            return NotImplemented
        return DivClass(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def selfint(self) -> int:
        return intersect(self, self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __str__(self) -> str:
        # compact symbolic form in the blow-up basis, e.g. "3L-E1-2E3";
        # always re-parseable by parse_divisor
        if self.is_zero():
            return "0"
        parts = []
        names = ["L"] + [f"E{i}" for i in range(1, RANK)]
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"DivClass{self.coeffs}"


ZERO = DivClass((0, 0, 0, 0, 0, 0, 0, 0))
L = DivClass((1, 0, 0, 0, 0, 0, 0, 0))


def _curve_class(degree: int, fill: int, value: int, *points: int) -> DivClass:
    """degree*L + sum(m_k Ek) with m_k = value at the given points and fill elsewhere."""
    coeffs = [fill] * RANK
    coeffs[0] = degree
    for i in points:
        if not 1 <= i <= 7:
            raise ValueError(f"index out of range: {i}")
        coeffs[i] = value
    return DivClass(tuple(coeffs))


def E(i: int) -> DivClass:
    """The i-th exceptional class of the blow-up, 1 <= i <= 7."""
    return _curve_class(0, 0, 1, i)


def line_through(i: int, j: int) -> DivClass:
    """Strict transform L - Ei - Ej of the line through the i-th and j-th points."""
    if i == j:
        raise ValueError("indices must be distinct")
    return _curve_class(1, 0, -1, i, j)


def conic_through(i: int, j: int) -> DivClass:
    """Strict transform 2L - sum(Ek, k != i, j) of the conic through the other five points."""
    if i == j:
        raise ValueError("indices must be distinct")
    return _curve_class(2, -1, 0, i, j)


def cubic_with_node(i: int) -> DivClass:
    """Strict transform 3L - 2Ei - sum(Ek, k != i) of the nodal cubic through all seven points."""
    return _curve_class(3, -1, -2, i)


K = DivClass((-3, 1, 1, 1, 1, 1, 1, 1))  # K.K = 2 and K.E = -1 for every (-1)-curve E
H = -K  # halved anticanonical class; pullback of a line under the double cover; H.H = 2
F = E(1) + line_through(1, 2)  # E1 + L12, the fibre-type class of the standard order model


def intersect(a: DivClass, b: DivClass) -> int:
    """Intersection number in the diagonal form diag(+1, -1, ..., -1); symmetric and bilinear."""
    x, y = a.coeffs, b.coeffs
    return x[0] * y[0] - sum(x[i] * y[i] for i in range(1, RANK))


def determinant(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in rows]
    n, sign, previous = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            # exact: each entry is a minor of the original matrix
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1] if n else 1


def _census() -> dict[DivClass, str]:
    """The 56 (-1)-curve classes in census order, each with its name E1..D7, checked."""
    pairs = list(itertools.combinations(range(1, 8), 2))
    census = {E(i): f"E{i}" for i in range(1, 8)}
    census.update({line_through(i, j): f"L{i}{j}" for i, j in pairs})
    census.update({conic_through(i, j): f"C{i}{j}" for i, j in pairs})
    census.update({cubic_with_node(i): f"D{i}" for i in range(1, 8)})
    if len(census) != 56 or any(c.selfint != -1 or intersect(c, H) != 1 for c in census):
        raise InternalInconsistency("the census holds a class that is not a (-1)-curve of degree 1")
    return census


_CENSUS = _census()  # built and checked once, at import


def enumerate_exceptional() -> list[DivClass]:
    """All 56 (-1)-curve classes: E1..E7, then Lij, Cij (lexicographic), then D1..D7."""
    return list(_CENSUS)


def classify(d: DivClass) -> DivClass | None:
    """d itself when it is one of the 56 (-1)-curve classes, else None."""
    return d if d in _CENSUS else None


# ---------------------------------------------------------------------------
# complete enumeration of the classes with D.H = k and D.D = s
#
# Write D = (k/2) H + v with v.H = 0, so v.v = s - k^2/2.  By the Hodge index
# theorem H-perp (the E7 lattice) is negative definite, so Cauchy-Schwarz
# there gives, for every class X with X = (X.H/2) H + x,
#
#     (D.X - k (X.H)/2)^2 = (v.x)^2 <= (v.v)(x.x) = (k^2/2 - s)((X.H)^2/2 - X.X).
#
# Taking X = L and X = Ei bounds every coordinate, so a search of that box
# finds every solution, not just those inside an arbitrary box.  This is the
# idea behind Fincke-Pohst short-vector enumeration.
# ---------------------------------------------------------------------------


def coordinate_bounds(degree: int, selfint: int) -> list[tuple[int, int]] | None:
    """Interval of each coordinate (d, m1..m7) over all D with D.H = degree, D.D = selfint.

    The intervals follow from the Cauchy-Schwarz bound above, in exact integer
    arithmetic.  None when degree^2 < 2*selfint, where no class exists.
    """
    slack = degree * degree - 2 * selfint  # 4 (k^2/2 - s)
    if slack < 0:
        return None
    bounds = []
    for x in [L] + [E(i) for i in range(1, 8)]:
        xh = intersect(x, H)
        # |2 D.X - k X.H| <= isqrt(slack * ((X.H)^2 - 2 X.X))
        r = math.isqrt(slack * (xh * xh - 2 * x.selfint))
        lo, hi = -((r - degree * xh) // 2), (degree * xh + r) // 2
        # the basis is orthonormal up to sign: the coordinate is (D.X)(X.X)
        bounds.append((lo, hi) if x.selfint > 0 else (-hi, -lo))
    return bounds


def classes_with(degree: int, selfint: int) -> list[DivClass]:
    """Every class D with D.H = degree and D.D = selfint, in lexicographic order.

    Exhaustive over the box of coordinate_bounds, which provably holds all of
    them.  The prefix (d, m1..m5) is searched, pruning partial sums of the
    mi^2 beyond d^2 - selfint.  The last pair is then solved in closed form:
    D.H = 3d + m1 + ... + m7 fixes s = m6 + m7 and D.D fixes
    q = m6^2 + m7^2, so (m6 - m7)^2 = 2q - s^2 must be a square r^2, and
    m6 = (s - r)/2, then (s + r)/2 when r > 0 (r and s have equal parity).
    """
    bounds = coordinate_bounds(degree, selfint)
    if bounds is None:
        return []
    (d_lo, d_hi), *m_bounds = bounds
    (lo6, hi6), (lo7, hi7) = m_bounds[-2:]
    found: list[DivClass] = []

    def extend(prefix: tuple[int, ...], degree_left: int, squares_left: int) -> None:
        if len(prefix) == RANK - 2:
            diff_square = 2 * squares_left - degree_left * degree_left
            if diff_square < 0:
                return
            r = math.isqrt(diff_square)
            if r * r != diff_square:
                return
            first = (degree_left - r) // 2
            for m6 in (first, first + r) if r else (first,):
                m7 = degree_left - m6
                if lo6 <= m6 <= hi6 and lo7 <= m7 <= hi7:
                    found.append(DivClass((*prefix, m6, m7)))
            return
        lo, hi = m_bounds[len(prefix) - 1]
        for m in range(lo, hi + 1):
            if m * m <= squares_left:
                extend((*prefix, m), degree_left - m, squares_left - m * m)

    for d in range(d_lo, d_hi + 1):
        extend((d,), degree - 3 * d, d * d - selfint)
    return found


# ---------------------------------------------------------------------------
# text grammar
#
# Either a raw coordinate vector "d,m1,m2,m3,m4,m5,m6,m7" or a signed sum of
# symbolic tokens with optional integer multipliers.  A token is one of the
# names format_divisor prints, looked up in the inverse of that table:
#
#     H K L F 0 and the census names E1..E7 L12..L67 C12..C67 D1..D7
#
# e.g. "2H-3E1+L23", "F-H", "-H".  A "*" may only follow a multiplier's digits,
# so "*H" is refused.  The token 0 takes no multiplier, so a digit run such as
# "10", "00" or "2*0" is refused, not read as a multiple of zero; "0H" is the
# multiplier 0 times H.  Whitespace separates, it never joins: spaces may
# surround a sign, a raw-vector entry or the whole text, but a term ("2H",
# "3*E1", "L21") and an integer are written without them, so "2 H", "L 2 1"
# and "1 0,0,0,0,0,0,0,0" are refused.  The two indices of an L or C token may
# come in either order, so "L21" is "L12".  Every integer field (a multiplier
# and a raw vector's entries here; the command line's rank, c2 and les fields)
# is ASCII digits, read by parse_integer, whose refusal names the field:
# "entry 3 of '1,2,x,0,0,0,0,0' is 'x': need an integer".
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([+-]?)\s*(?:(?:([0-9]+)\*?)?([A-Za-z][0-9]*)|(0))\s*")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_MAX_DIGITS = 4300  # CPython's default cap on int <-> str conversion


def parse_integer(field: str, piece: str, text: str, nonnegative: bool = False,
                  alternative: str = "") -> int:
    """The integer in the field ``piece`` of ``text``: an optionally signed run of ASCII digits.

    Whitespace around the piece is ignored.  Anything else is refused with
    ``<field> of '<text>' is '<piece>': need an integer`` (``empty`` for a
    blank piece), or ``a nonnegative integer`` when ``nonnegative`` also
    refuses negatives, followed by `` or <alternative>`` when the caller
    accepts one more spelling itself.  ``int`` alone also reads other
    scripts' digits (``int("\uff13") == 3``) and underscores, which the
    grammar does not have.  A run of more than 4300 digits, counted here
    whatever cap the interpreter has on ``int``, is refused in the same form,
    with ``need an integer of at most 4300 digits``.
    """
    piece = piece.strip()
    need = "a nonnegative integer" if nonnegative else "an integer"
    if _INTEGER_RE.fullmatch(piece):
        if len(piece.lstrip("+-")) > _MAX_DIGITS:
            need += f" of at most {_MAX_DIGITS} digits"
        else:
            value = int(piece)
            if value >= 0 or not nonnegative:
                return value
    shown = repr(piece) if piece else "empty"
    raise ValueError(f"{field} of {text!r} is {shown}: need {need}"
                     + (f" or {alternative}" if alternative else ""))


def _token_class(tok: str) -> DivClass:
    try:
        return _BY_NAME[tok]
    except KeyError:
        raise ValueError(f"unknown divisor token {tok!r}") from None


def parse_divisor(text: str) -> DivClass:
    """Parse the divisor-class grammar shared by all command line surfaces."""
    if not text.strip():
        raise ValueError("empty divisor expression")
    if "," in text:
        parts = text.split(",")
        if len(parts) != RANK:
            raise ValueError(f"coordinate vector needs {RANK} entries, got {len(parts)}")
        return DivClass(tuple(parse_integer(f"entry {i}", p, text)
                              for i, p in enumerate(parts, 1)))
    total = ZERO
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or (pos > 0 and m.group(1) == ""):
            raise ValueError(f"cannot parse divisor expression {text!r} at {text[pos:].strip()!r}")
        sign = -1 if m.group(1) == "-" else 1
        mult = parse_integer("multiplier", m.group(2), text) if m.group(2) else 1
        total = total + sign * mult * _token_class(m.group(3) or m.group(4))
        pos = m.end()
    return total


# the printed names (no short name is a curve); the grammar also reads Lji and Cji
_NAMES = {**_CENSUS, ZERO: "0", H: "H", K: "K", L: "L", F: "F"}
_BY_NAME = {s: d for d, n in _NAMES.items() for s in (n, n[0] + n[:0:-1])}


def format_divisor(d: DivClass) -> str:
    """A short name (H, K, L, F, or a curve name) when one exists, else the symbolic sum."""
    return _NAMES.get(d, str(d))
