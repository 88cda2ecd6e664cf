"""Exact cohomology dimensions of line bundles on the double plane.

Riemann-Roch on a surface with canonical class -H and chi(O) = 1 reads

    chi(D) = D.(D + H)/2 + 1,

always an integer on this lattice.  Global sections are computed by base-locus
peeling along (-1)-curves: whenever D.C < 0 for an exceptional curve C, the
curve C is in the base locus of |D| and h0(D) = h0(D - C).  If D has
sections, the curves peeled are pairwise disjoint (see ``h0``), so at most 7.
The peeling bottoms out at

* D.H < 0: no sections (H is ample),
* D.H = 0: only the trivial class has a section,
* an eighth curve to peel: no sections,
* D nef (nonnegative against all 56 curves): h0 = chi(D), because
  D = K + (D + H) writes D as canonical plus ample, so the higher
  cohomology vanishes.

h2 is Serre duality h0(-H - D), and h1 closes the Euler characteristic.  A
separate non-effectivity oracle looks for a witness W with W.W >= 0 and
D.W < 0 among a small pool of irreducible classes; whenever it fires it
cross-checks the peeling route.

The module also contains the exact-sequence dimension solver used to replay
long-exact-sequence squeezes: given the dimensions of an exact sequence with
zero maps at both ends as a list (None where unknown), it propagates the
rank equations d_i = r_{i-1} + r_i, r_i >= 0 to exact integer intervals.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import Infeasible, InternalInconsistency, Value
from .picard import DivClass, E, H, L, enumerate_exceptional, intersect

__all__ = [
    "CohomDims",
    "chi_line",
    "h0",
    "h1",
    "h2",
    "cohom_dims",
    "noneffective_witness",
    "cohom_ideal_twist",
    "Interval",
    "LesResult",
    "les_solve",
]


class CohomDims(Value):
    """The triple (h0, h1, h2) of a line bundle (or ideal-sheaf twist)."""

    __slots__ = ("h0", "h1", "h2")

    def __init__(self, h0: int, h1: int, h2: int):
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


def chi_line(d: DivClass) -> int:
    """chi(D) = D.(D + H)/2 + 1, exactly."""
    num = intersect(d, d + H)
    half, rem = divmod(num, 2)
    if rem:
        raise InternalInconsistency(f"D.(D+H) odd for {d!r}")
    return half + 1


# dp2's one cache, measured to pay: an order model's chains make ~18 h0 calls on classes of
# degree <= 0, and without it a model and both chains took 0.237 ms, not 0.215 (3.11.7, 2 cores)
H0_CACHE_SIZE = 1 << 13  # answers kept for repeated h0 queries, not for peeled classes


@lru_cache(maxsize=H0_CACHE_SIZE)
def h0(d: DivClass) -> int:
    """Dimension of global sections, by base-locus peeling.

    Each step removes the first curve C with D.C = -k < 0 at its full
    multiplicity k, since (D - kC).C = 0.  Removing base curves keeps h0, so
    if D is effective, every peeled class is, and the removed curves are
    pairwise disjoint with product 0 against the current class: a negative C
    meeting a removed C' would contradict effectiveness, because for
    C.C' = 1, C + C' is a conic class, which is nef, and for C.C' = 2,
    C + C' = H and the degree would already be negative.  Disjoint (-1)-curves
    span a negative definite sublattice, so at most 7 of them, and an
    effective D is decided within 8 steps; an eighth removal proves h0 = 0.
    """
    curves = enumerate_exceptional()
    for _ in range(8):  # an effective D returns by the eighth step
        deg = intersect(d, H)
        if deg < 0:
            return 0
        if deg == 0:
            return 1 if d.is_zero() else 0
        for curve in curves:
            k = -intersect(d, curve)
            if k > 0:
                d = d - k * curve
                break
        else:
            return chi_line(d)  # nef: higher cohomology vanishes
    return 0  # an eighth curve removed: D is not effective


def h2(d: DivClass) -> int:
    """Serre duality: h2(D) = h0(-H - D)."""
    return h0(-H - d)


def h1(d: DivClass) -> int:
    """h1 = h0 + h2 - chi, as computed by cohom_dims."""
    return cohom_dims(d).h1


def cohom_dims(d: DivClass) -> CohomDims:
    """h0 and h2 looked up once each; h1 = h0 + h2 - chi, and a negative h1 is a bug."""
    h0d, h2d = h0(d), h2(d)
    h1d = h0d + h2d - chi_line(d)
    if h1d < 0:
        raise InternalInconsistency(f"negative h1 for {d!r}")
    return CohomDims(h0d, h1d, h2d)


def _witness_pool() -> tuple[DivClass, ...]:
    pool = (H, L, *(L - E(i) for i in range(1, 8)))
    if any(w.selfint < 0 for w in pool):
        raise InternalInconsistency("the witness pool holds a class of negative square")
    return pool


_WITNESS_POOL = _witness_pool()  # built and checked once, at import


def noneffective_witness(d: DivClass) -> DivClass | None:
    """First pool class W with D.W < 0; a certificate that h0(D) = 0.

    Every pool class is irreducible with W.W >= 0, checked once when the pool
    is built at import, so a returned witness meets D negatively and D cannot
    be effective; this is cross-checked against the peeling oracle.
    """
    for w in _WITNESS_POOL:
        if intersect(d, w) < 0:
            if h0(d) != 0:
                raise InternalInconsistency(
                    f"witness {w!r} contradicts h0({d!r}) = {h0(d)}")
            return w
    return None


def cohom_ideal_twist(d: DivClass) -> CohomDims:
    """Dimensions of an ideal-sheaf twist I_p(D) for a generic point p.

    The restriction sequence 0 -> I_p(D) -> O(D) -> O_p -> 0 forces
    h2(I_p(D)) = h2(D), and the evaluation of sections at p settles h0/h1:

    * h0(D) = 0: evaluation is zero, so (0, h1(D) + 1, h2(D));
    * h0(D) > 0: at a generic point evaluation is onto, so
      (h0(D) - 1, h1(D), h2(D)).
    """
    base = cohom_dims(d)
    if base.h0 == 0:
        return CohomDims(0, base.h1 + 1, base.h2)
    return CohomDims(base.h0 - 1, base.h1, base.h2)


# ---------------------------------------------------------------------------
# exact-sequence dimension solver
# ---------------------------------------------------------------------------


class Interval(Value):
    """Integers lo..hi inclusive; hi = None means unbounded above."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int | None):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def is_empty(self) -> bool:
        return self.hi is not None and self.lo > self.hi

    def is_point(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    def meet(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo, hi)

    def __str__(self) -> str:
        if self.is_point():
            return str(self.lo)
        return f"[{self.lo}..{'inf' if self.hi is None else self.hi}]"


class LesResult(Value):
    """Solved entries (int where forced, Interval otherwise) plus rank intervals."""

    __slots__ = ("entries", "ranks")

    def __init__(self, entries: tuple[int | Interval, ...], ranks: tuple[Interval, ...]):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ranks", ranks)

    @property
    def determined(self) -> bool:
        return all(isinstance(e, int) for e in self.entries)

    def entry(self, i: int) -> int:
        e = self.entries[i]
        if not isinstance(e, int):
            raise ValueError(f"entry {i} is underdetermined: {e}")
        return e


def _image(prev: Interval, d: int) -> Interval:
    # r_i = d - r_{i-1} for r_{i-1} in prev, clamped to r_i >= 0
    lo = 0 if prev.hi is None else d - prev.hi
    hi = d - prev.lo
    return Interval(max(lo, 0), hi)


def les_solve(entries: list[int | None]) -> LesResult:
    """Solve d_i = r_{i-1} + r_i with r_0 = r_n = 0 and all r_i >= 0.

    Forward/backward interval propagation along the chain is exact here, so
    every unknown entry (None) comes back either as a forced integer or as the
    exact interval of its feasible values.  Raises Infeasible when the known
    entries admit no rank assignment at all.
    """
    if not entries:
        raise ValueError("empty sequence")
    for e in entries:
        if e is not None and (not isinstance(e, int) or e < 0):
            raise ValueError(f"entries must be nonnegative ints or None, got {e!r}")
    top = Interval(0, None)
    fwd = [Interval(0, 0)]
    for known in entries:
        fwd.append(top if known is None else _image(fwd[-1], known))
    bwd = [Interval(0, 0)]
    for known in reversed(entries):
        bwd.append(top if known is None else _image(bwd[-1], known))
    bwd.reverse()
    # an empty forward or backward interval leaves its meet empty too
    ranks = [f.meet(b) for f, b in zip(fwd, bwd)]
    if any(r.is_empty() for r in ranks):
        shown = ", ".join("?" if e is None else str(e) for e in entries)
        raise Infeasible(f"no rank assignment for {shown}")

    solved: list[int | Interval] = []
    for i, known in enumerate(entries):
        if known is not None:
            solved.append(known)
            continue
        left, right = ranks[i], ranks[i + 1]
        hi = None if (left.hi is None or right.hi is None) else left.hi + right.hi
        iv = Interval(left.lo + right.lo, hi)
        solved.append(iv.lo if iv.is_point() else iv)
    return LesResult(tuple(solved), tuple(ranks))
