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

read off in closed form from that of sigma.  (1 + sigma)D = (D.H) H, so
the cocycles are H-perp; (1 - sigma)D = 2D - (D.H) H, so the
coboundaries are 2 H-perp + Z(2E1 - H).  H = 3L - E1 - ... - E7 is odd in all
eight coordinates, hence the parity rule:

  * a cocycle is a coboundary exactly when its eight coordinates are all
    even or all odd;
  * its class is its parity vector, of even weight since D.H = 0, taken
    modulo the all-ones vector: complement all eight bits when the L bit is
    set, then bit i of the code is the XOR of the E1..E_{i+1} bits.

So H^1 is the even-weight subsets of the eight coordinates modulo
complement, 64 of them: the classical model of Jac(C)[2] for the branch
quartic C (Dolgachev, Classical Algebraic Geometry, ch. 6).  The code of
e_i = Ei - Ei+1 is the single bit i - 1, so a ``CohClass``, which is that
code and nothing else, has bit i as its coordinate on e_{i+1}; it prints as
the six bits e1 first, e.g. 101000 for e1 + e3.
The module also houses the cocycle tests and one search over the 56 x 56
ordered curve pairs (E, E') in census row-major order, by the codes [C - E1]
built at import: its first pair with [E - E'] = v represents v, and its first
disjoint one represents a nonzero v.
"""

from __future__ import annotations

from .errors import InternalInconsistency, NotACocycle, TrivialClass, Value
from .picard import (
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
# H^1 by the parity rule
# ---------------------------------------------------------------------------


def _parity_code(coeffs) -> int:
    """The 6-bit code of the parity vector of (d, m1, ..., m7); see the module docstring."""
    bits = [c & 1 for c in coeffs]
    if bits[0]:
        bits = [1 - b for b in bits]
    code = running = 0
    for i, b in enumerate(bits[1:7]):
        running ^= b
        code |= running << i
    return code


def h1_galois() -> list[int]:
    """Elementary divisors of ker(1 + sigma)/im(1 - sigma), units dropped.

    2 ker(1 + sigma) lies in im(1 - sigma), so the group is (Z/2)^k with 2^k
    the number of its classes: the distinct codes of the even-weight parity
    vectors, which are the parity vectors of the cocycles.  The code is
    linear, and the seven vectors with two adjacent bits set span the
    even-weight ones, so the codes are the span of those seven codes.
    """
    codes = {0}
    for j in range(7):
        step = _parity_code([int(i in (j, j + 1)) for i in range(8)])
        codes |= {c ^ step for c in codes}
    return [2] * (len(codes).bit_length() - 1)


def _require_cocycle(d: DivClass) -> None:
    # (1 + sigma)d = (d.H) H, which vanishes exactly when d.H does
    if intersect(d, H) != 0:
        raise NotACocycle(f"(1+sigma) does not kill {format_divisor(d)}")


def is_coboundary(d: DivClass) -> bool:
    """Membership in im(1 - sigma): all eight coordinates even or all odd; d must be a cocycle."""
    _require_cocycle(d)
    return len({c & 1 for c in d.coeffs}) == 1


def class_of(d: DivClass) -> CohClass:
    """Coordinates of a cocycle in the basis (e1, ..., e6) of H^1."""
    _require_cocycle(d)
    return CohClass(_parity_code(d.coeffs))


# ---------------------------------------------------------------------------
# difference representatives
# ---------------------------------------------------------------------------


def _curve_codes() -> tuple[int, ...]:
    """The code of [C - E1] for each curve C in census order."""
    # class_of is additive, so [C - C'] has code [C - E1] XOR [C' - E1]
    return tuple(class_of(c - E(1)).code for c in enumerate_exceptional())


_CURVE_CODES = _curve_codes()  # built once, at import


def _pairs_realising(v: CohClass):
    """Yield the pairs of curve classes (E, E') with [E - E'] = v, in census row-major order."""
    curves, codes, target = enumerate_exceptional(), _CURVE_CODES, v.code
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
