"""Chern character arithmetic and the Riemann-Roch pairing on the double plane.

A Chern character on a surface is (rank, degree-1 class, degree-2 part); the
degree-2 part lives in half-integers, so it is stored doubled to keep every
operation in exact integer arithmetic.  For a sheaf of rank r with Chern
classes (c1, c2) the character is r + c1 + (c1^2 - 2 c2)/2.

With Todd class 1 + H/2 + [1] (its degree-2 component integrates to
chi(O) = 1), the Euler pairing of two characters is the degree-2 coefficient
of ch(x)^dual . ch(y) . td, which works out to

    chi(x, y) = r + s + (c . H)/2      for (r, c, s) = dual(x) * y.

The module also carries the rank-2 discriminant 4c2 - c1^2, its Bogomolov
lower bound and the least c2 that stability allows, additivity of characters
in short exact sequences (with the ideal-sheaf correction for a point), and
the constraint that the first Chern class of a module over a cyclic
quaternion order is the class of its invertible summand plus a multiple of H.
"""

from __future__ import annotations

from .errors import InternalInconsistency, Value
from .picard import ZERO, DivClass, H, intersect

__all__ = [
    "ChernChar",
    "ch_of",
    "ch_line",
    "CH_O",
    "dual",
    "mult",
    "euler_pairing",
    "discriminant",
    "bogomolov_min_c2",
    "minimal_c2",
    "chern_of_extension",
    "ch_ideal_point_twist",
    "c1_constraint",
]


class ChernChar(Value):
    """(rank, degree-1 class, doubled degree-2 part)."""

    __slots__ = ("rank", "c", "s2")

    def __init__(self, rank: int, c: DivClass, s2: int):
        # s2 is twice the degree-2 coefficient
        if (s2 - c.selfint) % 2 != 0:
            raise ValueError(
                f"degree-2 part {s2}/2 violates integrality against c^2 = {c.selfint}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s2", s2)

    @property
    def c2(self) -> int:
        """Second Chern class recovered from c1^2 - 2 ch2."""
        return (self.c.selfint - self.s2) // 2


def ch_of(rank: int, c1: DivClass, c2: int) -> ChernChar:
    """Character of a sheaf with the given rank and Chern classes."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return ChernChar(rank, c1, c1.selfint - 2 * c2)


def ch_line(d: DivClass) -> ChernChar:
    """Character of the line bundle O(D)."""
    return ch_of(1, d, 0)


CH_O = ch_line(ZERO)


def dual(x: ChernChar) -> ChernChar:
    return ChernChar(x.rank, -x.c, x.s2)


def mult(x: ChernChar, y: ChernChar) -> ChernChar:
    """Product truncated in degree 2 (the ambient space is a surface)."""
    return ChernChar(
        x.rank * y.rank,
        x.rank * y.c + y.rank * x.c,
        x.rank * y.s2 + y.rank * x.s2 + 2 * intersect(x.c, y.c),
    )


def euler_pairing(x: ChernChar, y: ChernChar) -> int:
    """chi(x, y): degree-2 coefficient of dual(x) * y * td, an exact integer.

    The Todd class is td = 1 + H/2 + [1], so twice the coefficient is
    2r + s2 + c.H for (r, c, s2) = dual(x) * y with s2 stored doubled.
    """
    z = mult(dual(x), y)
    doubled = 2 * z.rank + z.s2 + intersect(z.c, H)
    if doubled % 2 != 0:
        raise InternalInconsistency(f"pairing of {x!r} and {y!r} is {doubled}/2")
    return doubled // 2


def discriminant(c1: DivClass, c2: int) -> int:
    """4 c2 - c1^2 of a rank-2 sheaf with Chern classes (c1, c2)."""
    return 4 * c2 - c1.selfint


def bogomolov_min_c2(c1: DivClass) -> int:
    """Least integer c2 with 4 c2 - c1^2 >= 0 (semistability bound)."""
    sq = c1.selfint
    return -((-sq) // 4)  # ceil(sq / 4)


def minimal_c2(c1: DivClass) -> int:
    """Least c2 >= bogomolov_min_c2(c1) with chi(x, x) <= 2 for x = ch_of(2, c1, c2).

    A stable module M over the order is simple, and ext^2_A(M, M) = 0 since
    the canonical bimodule is A(-H) (ORD.CANON), so chi_A(M, M) <= 1; for the
    restriction x of M to Y, chi_A(M, M) = chi(x, x)/2.  That halving is
    checked only on induced modules.  That a stable module exists at this c2
    is the paper's classification.
    """
    c2 = bogomolov_min_c2(c1)
    while euler_pairing(ch_of(2, c1, c2), ch_of(2, c1, c2)) > 2:  # drops by 4 per step
        c2 += 1
    return c2


def chern_of_extension(sub: ChernChar, quot: ChernChar) -> ChernChar:
    """Additivity of the character in a short exact sequence."""
    return ChernChar(sub.rank + quot.rank, sub.c + quot.c, sub.s2 + quot.s2)


def ch_ideal_point_twist(d: DivClass) -> ChernChar:
    """Character of I_p(D): the line bundle minus one point class."""
    base = ch_line(d)
    return ChernChar(base.rank, base.c, base.s2 - 2)


def c1_constraint(c1: DivClass, lclass: DivClass) -> int | None:
    """The integer n with c1 = lclass + n*H, or None when no such n exists.

    First Chern classes of line bundles over the cyclic order with invertible
    part O(lclass) are constrained to this one-parameter family.
    """
    rest = c1 - lclass
    n, odd = divmod(intersect(rest, H), H.selfint)
    return n if not odd and rest == n * H else None
