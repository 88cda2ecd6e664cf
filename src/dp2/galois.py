"""The covering involution on the Picard lattice and its group cohomology.

The double cover Y -> P^2 branched on the quartic has a covering involution
sigma (the Geiser involution of the blown-up plane).  On the Picard lattice it
is the unique isometric involution fixing H and acting as -1 on the orthogonal
complement of H, hence the closed form

    sigma(D) = (D.H) H - D.

This reproduces the classical values sigma(Ei) = Di and sigma(Lij) = Cij.
(The frequently printed expression "L - 3(E1+...+E7)" for sigma(L) is not an
isometry - its square is -62 - and the replay suite carries a permanent
flagged claim recording that discrepancy instead of silently correcting it.)

With G of order two acting through sigma, the first group cohomology is

    H^1(G, Pic Y) = ker(1 + sigma) / im(1 - sigma) = (Z/2)^6,

computed here mechanically, not copied from the literature.  Since
(1 + sigma)D = (D.H) H, a class D is a cocycle exactly when D.H = 0.  An
integer kernel basis gives ker(1 + sigma) = Z^7, which is saturated, so the
basis has an integer left inverse P and a cocycle D has kernel coordinates
P.D.  sigma = -1 on the kernel, so (1 - sigma)k = 2k puts 2 ker(1 + sigma)
inside the image, and the quotient is F_2^7 modulo the image generators'
kernel coordinates P.img mod 2: six copies of Z/2 when those have rank 1
over F_2.  The class of a cocycle k in the basis e_i = Ei - Ei+1 is read off
by one exact integer solve of k = sum x_i e_i + (an element of im(1 - sigma)):
the x_i mod 2 are its bits.  That reading is well defined only because
H^1 = (Z/2)^6 and the e_i generate it, and the derivation checks both once
per process.  It solves only for the kernel basis: the class is linear, so a
cocycle D has class P.D times those seven, mod 2, which is a 6-bit parity
code per coordinate of (L, E1..E7) XORed over the odd coordinates of D.
A ``CohClass`` is that code and nothing else: bit i is the coordinate on
e_{i+1}, and it prints as the six bits e1 first, e.g. 101000 for e1 + e3.
The module also houses the cocycle tests and one search over the 56 x 56
ordered curve pairs (E, E') in census row-major order: its first pair with
[E - E'] = v represents v, and its first disjoint one represents a nonzero v.
"""

from __future__ import annotations

from functools import lru_cache

from . import intlinalg
from .errors import InternalInconsistency, NotACocycle, TrivialClass, Value
from .picard import (
    RANK,
    ZERO,
    DivClass,
    E,
    H,
    L,
    enumerate_exceptional,
    format_divisor,
    intersect,
)

__all__ = [
    "CohClass",
    "sigma",
    "printed_sigma_of_line",
    "h_class",
    "e_class",
    "one_plus_sigma_kernel",
    "one_minus_sigma_image",
    "h1_galois",
    "is_coboundary",
    "class_of",
    "represent_as_difference",
    "disjoint_representative",
]


def sigma(d: DivClass) -> DivClass:
    """The covering involution: (D.H) H - D."""
    n = intersect(d, H)
    return DivClass(tuple(n * h - c for h, c in zip(H.coeffs, d.coeffs)))


def printed_sigma_of_line() -> DivClass:
    """The erroneous textbook-style expression L - 3(E1+...+E7) for sigma(L).

    Kept only so the replay suite can document that it is not an isometry;
    the implemented involution sends L to 8L - 3(E1+...+E7).
    """
    return L - 3 * sum((E(i) for i in range(1, 8)), ZERO)


def h_class() -> DivClass:
    """h = L - 3*E1, an anti-invariant generator alongside the e_i."""
    return L - 3 * E(1)


def e_class(i: int) -> DivClass:
    """e_i = Ei - Ei+1 for 1 <= i <= 6; their classes generate H^1."""
    if not 1 <= i <= 6:
        raise ValueError(f"index out of range: {i}")
    return E(i) - E(i + 1)


_BIT = {0: 0, 1: 1, "0": 0, "1": 1}  # the entries CohClass.from_bits accepts


class CohClass(Value):
    """An element of H^1(G, Pic Y) as a 6-bit code: bit i is its coordinate on e_{i+1}."""

    __slots__ = ("code",)

    def __init__(self, code: int):
        if not isinstance(code, int) or not 0 <= code < 64:
            raise ValueError(f"need a 6-bit code, got {code!r}")
        object.__setattr__(self, "code", code)

    @staticmethod
    def from_bits(bits) -> "CohClass":
        """The class with coordinates (e1, ..., e6) read from six entries 0, 1, "0" or "1"."""
        bits = tuple(bits)
        if len(bits) != 6 or any(b not in _BIT for b in bits):
            raise ValueError(f"need six bits, got {bits!r}")
        return CohClass(sum(_BIT[b] << i for i, b in enumerate(bits)))

    def is_zero(self) -> bool:
        return self.code == 0

    def __str__(self) -> str:
        return "".join(str((self.code >> i) & 1) for i in range(6))


# ---------------------------------------------------------------------------
# derived cohomology data, computed once
# ---------------------------------------------------------------------------


def _columns(classes: list[DivClass]) -> intlinalg.Matrix:
    return [[d.coeffs[i] for d in classes] for i in range(RANK)]


def _one_plus_sign_sigma(sign: int) -> intlinalg.Matrix:
    """The matrix of 1 + sign*sigma on (L, E1..E7), from sigma on the unit vectors."""
    units = [DivClass(tuple(int(i == j) for i in range(RANK))) for j in range(RANK)]
    return _columns([u + sign * sigma(u) for u in units])


@lru_cache(maxsize=1)
def _one_minus_solver():
    """Solves (1 - sigma)x = b; the matrix is echelonised once per process."""
    return intlinalg.solver(_one_plus_sign_sigma(-1))


@lru_cache(maxsize=1)
def _cohomology():
    """(kernel, image, divisors, codes), derived once per process.

    ``divisors`` are the non-unit elementary divisors of the quotient.
    ``codes`` holds one 6-bit parity code per coordinate: the class of a
    cocycle d is the XOR of the codes of its odd coordinates (see class_of).
    """
    kernel = [DivClass(tuple(v)) for v in intlinalg.kernel_basis(_one_plus_sign_sigma(1))]
    image = [DivClass(tuple(v)) for v in intlinalg.column_space_basis(_one_plus_sign_sigma(-1))]
    if len(kernel) != 7:
        raise InternalInconsistency(f"ker(1+sigma) has rank {len(kernel)}, expected 7")

    # ker(1 + sigma) is saturated, so its basis has an integer left inverse P;
    # a cocycle d has kernel coordinates P.d, and class_of is linear
    left_inverse = intlinalg.solver([list(k.coeffs) for k in kernel])
    p_rows = [left_inverse([int(i == j) for i in range(7)]) for j in range(7)]
    if None in p_rows:
        raise InternalInconsistency("ker(1+sigma) has no integer left inverse")

    # 2 ker lies in im, so ker/im = F_2^7 modulo P.img mod 2; img.H = 0 puts img in ker
    coords = []
    for img in image:
        if img.dot(H) != 0:
            raise InternalInconsistency(f"{img!r} is not inside ker(1+sigma)")
        coords.append([sum(p * c for p, c in zip(row, img.coeffs)) for row in p_rows])
    divisors = [2] * (len(kernel) - intlinalg.rank_mod_2(coords))

    # startup self-check: the bits of class_of are well defined only when
    # H^1 = (Z/2)^6 and the classes of e_1..e_6 generate it.  Solving
    # k = sum x_i e_i + (image combination) gives each kernel vector's class
    # as x mod 2.
    if divisors != [2] * 6:
        raise InternalInconsistency(f"H^1 has elementary divisors {divisors}, expected six 2s")
    class_solver = intlinalg.solver(_columns([e_class(i) for i in range(1, 7)] + image))
    kernel_classes = []
    for k in kernel:
        x = class_solver(list(k.coeffs))
        if x is None:
            raise InternalInconsistency(f"e_1..e_6 and im(1-sigma) do not span {k!r}")
        kernel_classes.append(x[:6])

    codes = tuple(
        sum((sum(x[i] * p[col] for x, p in zip(kernel_classes, p_rows)) % 2) << i
            for i in range(6))
        for col in range(RANK))
    return tuple(kernel), tuple(image), tuple(divisors), codes


def one_plus_sigma_kernel() -> list[DivClass]:
    """An integer basis of ker(1 + sigma); rank 7."""
    return list(_cohomology()[0])


def one_minus_sigma_image() -> list[DivClass]:
    """An integer basis of im(1 - sigma)."""
    return list(_cohomology()[1])


def h1_galois() -> list[int]:
    """Elementary divisors of ker(1 + sigma)/im(1 - sigma), units dropped."""
    return list(_cohomology()[2])


def _require_cocycle(d: DivClass) -> None:
    # (1 + sigma)d = (d.H) H, which vanishes exactly when d.H does
    if d.dot(H) != 0:
        raise NotACocycle(f"(1+sigma) does not kill {format_divisor(d)}")


def is_coboundary(d: DivClass) -> bool:
    """Exact membership test for im(1 - sigma); requires d in ker(1 + sigma)."""
    _require_cocycle(d)
    return _one_minus_solver()(list(d.coeffs)) is not None


def class_of(d: DivClass) -> CohClass:
    """Coordinates of a cocycle in the basis (e1, ..., e6) of H^1."""
    _require_cocycle(d)
    code = 0
    for c, coordinate_code in zip(d.coeffs, _cohomology()[3]):
        if c & 1:
            code ^= coordinate_code
    return CohClass(code)


# ---------------------------------------------------------------------------
# difference representatives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _curve_codes() -> tuple[int, ...]:
    """The code of [C - E1] for each curve C in census order."""
    # class_of is additive, so [C - C'] has code [C - E1] XOR [C' - E1]
    return tuple(class_of(c - E(1)).code for c in enumerate_exceptional())


def _pairs_realising(v: CohClass):
    """Yield the pairs of curve classes (E, E') with [E - E'] = v, in census row-major order."""
    curves, codes, target = enumerate_exceptional(), _curve_codes(), v.code
    for e, a in zip(curves, codes):
        for eprime, b in zip(curves, codes):
            if a ^ b == target:
                yield e, eprime


def represent_as_difference(v: CohClass) -> tuple[DivClass, DivClass]:
    """The first pair of curve classes (E, E') in census row-major order with [E - E'] = v.

    The zero class gives (E1, E1).  A curve is its class;
    ``picard.format_divisor`` gives its name E1..D7.
    """
    for pair in _pairs_realising(v):
        return pair
    raise InternalInconsistency(f"no exceptional difference realises {v}")


def disjoint_representative(v: CohClass) -> tuple[DivClass, DivClass]:
    """The first pair (E, E') in census row-major order with [E - E'] = v and E.E' = 0.

    It is ``represent_as_difference(v)`` whenever that pair is disjoint; for
    7 of the 63 nonzero classes the first pair meets, e.g. 101101 -> (E1, C14).
    Every nonzero class has 24 disjoint ordered pairs.  The trivial class is
    refused: its algebra would be unramified, and no disjoint pair realises it.
    """
    if v.is_zero():
        raise TrivialClass("the trivial class has no disjoint representative here")
    for e, eprime in _pairs_realising(v):
        if intersect(e, eprime) == 0:
            return e, eprime
    raise InternalInconsistency(f"no disjoint pair of curves realises {v}")
