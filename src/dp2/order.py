"""Numerical bookkeeping for the cyclic quaternion order on the double plane.

The order is A = O_Y + O_Y(E - E')_sigma for a pair of disjoint exceptional
curves; pushing forward along the double cover gives a maximal quaternion
order on the plane ramified on the branch quartic.  An ``OrderModel`` holds
the gauge (E, E') as two classes of the picard census, which it checks, and
nothing else; everything else is derived from them.  Every function that
depends on the gauge, ``ramification(model)`` included, takes the model as
an argument; none falls back to a default.
``standard_model()`` is the gauge (E1, C12).  Writing L for the
class E - E' of the invertible summand, the three recurring first Chern
classes are

    c1(A) = L,   c1(E_t) = L + H = F,   c1(A x O(H)) = L + 2H,

where E_t runs over the rank-2 modules with c2 = 1 parametrised by the
genus-2 moduli curve.  Its six branch points carry split modules, one for
each reducible fibre of the conic bundle |F|.

Nothing here touches the sheaf of algebras itself.  Every module-level Ext
is reduced to line-bundle cohomology on Y through three exact mechanisms:

* adjunction for induced modules, Ext_A(A x O(D), N) = Ext_Y(O(D), N);
* the endomorphism-algebra decomposition
  Ext_Y(M, N) = Ext_A(M, N) + Ext_A(M, Au x N), solved by ``les_solve``
  degree by degree as the split exact sequence
  0 -> Ext_A(M, N) -> Ext_Y(M, N) -> Ext_A(M, Au x N) -> 0;
* injectivity of nonzero maps between generically simple modules, so a
  non-effective determinant difference forces Hom = 0.

The three replay routines at the bottom re-run, value by value, the vanishing
chains showing that A x O(H) is exceptional and that the moduli family is
right-orthogonal to it, and the Ext bookkeeping over the six branch points.
"""

from __future__ import annotations

from .chern import CH_O, ChernChar, ch_line, ch_of, chern_of_extension, mult
from .cohom import chi_line, cohom_dims, h0, h1, h2, les_solve
from .errors import Value
from .galois import sigma
from .picard import (
    ZERO,
    DivClass,
    E,
    H,
    classify,
    conic_through,
    enumerate_exceptional,
    format_divisor,
    intersect,
)
from .reporting import ClaimReport

__all__ = [
    "OrderModel",
    "SplitBundle",
    "standard_model",
    "ramification",
    "induced_split",
    "ext_y_split",
    "ext_a_induced",
    "hom_vanishing_by_det",
    "serre_twist",
    "replay_orthogonality",
    "replay_exceptional",
    "replay_branch_points",
]

Triple = tuple[int, int, int]


class OrderModel(Value):
    """A choice of disjoint (-1)-curve classes (E, E') defining the cyclic order.

    The two checks on the input imply the rest: for disjoint curves the class
    [E - E'] is nonzero, so the order is ramified, and F = E - E' + H has
    F.F = 0 and F.H = 2.
    """

    __slots__ = ("e", "eprime")

    def __init__(self, e: DivClass, eprime: DivClass):
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "eprime", eprime)
        for c in (e, eprime):
            if classify(c) is None:
                raise ValueError(f"{format_divisor(c)} is not a (-1)-curve")
        if intersect(e, eprime) != 0:
            raise ValueError(f"{format_divisor(e)} and {format_divisor(eprime)} are not disjoint")

    @property
    def lclass(self) -> DivClass:
        """Class of the invertible summand O(E - E')."""
        return self.e - self.eprime

    @property
    def sigma_eprime(self) -> DivClass:
        return sigma(self.eprime)

    @property
    def f(self) -> DivClass:
        """F = E + sigma(E') = lclass + H; square 0, degree 2 against H."""
        return self.e + self.sigma_eprime

    def order_char(self) -> ChernChar:
        """ch of the order's rank-2 restriction O + O(lclass)."""
        return chern_of_extension(CH_O, ch_line(self.lclass))

    def module_char(self) -> ChernChar:
        """ch of the moduli objects: rank 2, c1 = F, c2 = 1."""
        return ch_of(2, self.f, 1)


def standard_model() -> OrderModel:
    """The gauge (E, E') = (E1, C12), so that sigma(E') = L12 and F = E1 + L12."""
    return OrderModel(E(1), conic_through(1, 2))


class SplitBundle(Value):
    """A direct sum of line bundles, recorded by its summand classes."""

    __slots__ = ("summands",)

    def __init__(self, summands: tuple[DivClass, ...]):
        object.__setattr__(self, "summands", summands)

    @property
    def rank(self) -> int:
        return len(self.summands)

    @property
    def c1(self) -> DivClass:
        return sum(self.summands, ZERO)

    @property
    def c2(self) -> int:
        return sum(intersect(a, b)
                   for i, a in enumerate(self.summands)
                   for b in self.summands[i + 1:])

    @property
    def slopes(self) -> tuple[int, ...]:
        """Degrees against H of the summands; equal slopes mark strict semistability."""
        return tuple(intersect(s, H) for s in self.summands)

    def ch(self) -> ChernChar:
        return ch_of(self.rank, self.c1, self.c2)

    def __str__(self) -> str:
        return " + ".join(f"O({format_divisor(s)})" for s in self.summands)


def ramification(model: OrderModel) -> tuple[tuple[DivClass, SplitBundle], ...]:
    """The six (generator D, split restriction of A x O(D)) pairs over the branch points.

    The splits are the reducible fibres A + B = F of the conic bundle |F|.
    A (-1)-curve C is a fibre component exactly when C.F = 0, because
    (F - C)^2 = -1 - 2 F.C; its partner F - C is then a (-1)-curve too.
    Entry 1 is (E, E + sigma(E')).  Each other fibre enters as
    (G, (F - G) + G) for its component G that comes first in census
    order, and these five are sorted by G.
    """
    f = model.f
    e, partner = model.e, model.sigma_eprime
    entries = [(e, SplitBundle((e, partner)))]
    seen = {e, partner}
    for g in enumerate_exceptional():
        if g not in seen and intersect(g, f) == 0:
            seen.add(f - g)
            entries.append((g, SplitBundle((f - g, g))))
    return tuple(entries)


def induced_split(d: DivClass, model: OrderModel) -> SplitBundle:
    """Restriction to Y of the induced module A x O(D): O(D) + O(lclass + sigma D)."""
    return SplitBundle((d, model.lclass + sigma(d)))


def ext_y_split(src: SplitBundle, tgt: SplitBundle) -> Triple:
    """Y-level Ext between sums of line bundles: sums of h^i(B - A) over A in src, B in tgt."""
    h0s = h1s = h2s = 0
    for a in src.summands:
        for b in tgt.summands:
            dd = cohom_dims(b - a)
            h0s += dd.h0
            h1s += dd.h1
            h2s += dd.h2
    return (h0s, h1s, h2s)


def ext_a_induced(d: DivClass, tgt: SplitBundle) -> Triple:
    """A-level Ext out of an induced module A x O(D), by adjunction.

    Ext_A(A x O(D), N) = Ext_Y(O(D), N) = sum over the summand classes B of
    N of h^i(B - D).  The caller is responsible for ``tgt`` being the
    Y-restriction of an actual A-module; this is recorded, not checked.
    """
    return ext_y_split(SplitBundle((d,)), tgt)


def hom_vanishing_by_det(c1_src: DivClass, c1_tgt: DivClass) -> bool:
    """True when Hom between rank-2 modules with these determinants must vanish.

    A nonzero map between generically simple modules of equal rank is
    injective, so its determinant gives a section of O(c1_tgt - c1_src);
    non-effectivity of the difference therefore kills Hom.  False means no
    conclusion, not that a map exists.
    """
    return h0(c1_tgt - c1_src) == 0


def serre_twist(x: ChernChar) -> ChernChar:
    """Numerical Serre twist: multiply by ch O(-H), mirroring x -> omega_A x."""
    return mult(x, ch_line(-H))


# ---------------------------------------------------------------------------
# replayed vanishing chains
# ---------------------------------------------------------------------------


def replay_exceptional(model: OrderModel) -> list[ClaimReport]:
    """Re-run the chain showing A x O(H) is exceptional: Ext_A = (k, 0, 0)."""
    lclass = model.lclass
    dims = cohom_dims(lclass)
    reports = []
    reports.append(ClaimReport(
        "ORD.EXC.HL",
        "the invertible summand O(E-E') has no cohomology",
        "exceptionality chain for the H-twist of the order",
        {"h0": 0, "h1": 0, "h2": 0, "chi": 0},
        {"h0": dims.h0, "h1": dims.h1, "h2": dims.h2, "chi": chi_line(lclass)},
    ))
    triple = ext_a_induced(H, induced_split(H, model))
    reports.append(ClaimReport(
        "ORD.EXC",
        "self-Ext of A x O(H): one-dimensional in degree 0 only",
        "exceptionality of the H-twist of the order",
        [1, 0, 0],
        list(triple),
    ))
    reports.append(ClaimReport(
        "ORD.CANON",
        "twisting ch(A x O(H)) by the canonical bimodule returns ch(A)",
        "canonical bimodule of the order is its (-H)-twist",
        _ch_dict(model.order_char()),
        _ch_dict(serre_twist(induced_split(H, model).ch())),
    ))
    return reports


def replay_orthogonality(model: OrderModel) -> list[ClaimReport]:
    """Re-run the chain showing the moduli family is right-orthogonal to A x O(H).

    Emits one report per intermediate value: the degree-0 and degree-2
    determinant arguments, the two cohomology inputs h1(-H) and h2(-H), the
    one-dimensional connecting Ext through the point's ideal sheaf, and the
    final exact-sequence squeeze in degree 1.
    """
    f = model.f
    twisted = f + H  # c1(A x O(H)) = lclass + 2H
    reports = []

    diff0 = f - twisted
    reports.append(ClaimReport(
        "ORTH.I0",
        "degree 0: c1(E_t) - c1(A x O(H)) = -H is not effective, so Hom = 0",
        "orthogonality chain, degree-0 determinant comparison",
        {"difference_is_minus_H": True, "hom_vanishes": True},
        {
            "difference_is_minus_H": diff0 == -H,
            "hom_vanishes": hom_vanishing_by_det(twisted, f),
        },
    ))

    diff2 = model.lclass - f
    reports.append(ClaimReport(
        "ORTH.I2",
        "degree 2 via the canonical twist: c1(A) - c1(E_t) = -H, so Hom(E_t, A) = 0",
        "orthogonality chain, degree-2 step through the canonical bimodule",
        {"difference_is_minus_H": True, "hom_vanishes": True},
        {
            "difference_is_minus_H": diff2 == -H,
            "hom_vanishes": hom_vanishing_by_det(f, model.lclass),
        },
    ))

    reports.append(ClaimReport(
        "ORTH.H1MH",
        "Ext^1(O(H), O) = h1(-H) vanishes, with chi(-H) = 1",
        "orthogonality chain, first cohomology input",
        {"h1": 0, "chi": 1},
        {"h1": h1(-H), "chi": chi_line(-H)},
    ))
    reports.append(ClaimReport(
        "ORTH.EXT2HO",
        "Ext^2(O(H), O) = h2(-H) is one-dimensional (dual of the constants)",
        "orthogonality chain, second cohomology input",
        1,
        h2(-H),
    ))

    l53 = les_solve([cohom_dims(f - H).h0, 1, None, h1(f - H)])
    reports.append(ClaimReport(
        "L53",
        "Ext^1(O(H), I_p(F)) is one-dimensional, squeezed through the point",
        "connecting Ext through the ideal sheaf of the point",
        1,
        l53.entry(2),
    ))

    chain = les_solve([h1(-H), None, l53.entry(2), h2(-H), 0, None])
    reports.append(ClaimReport(
        "ORTH.I1",
        "degree 1: the six-term squeeze forces Ext^1(O(H), E_t) = 0",
        "orthogonality chain, degree-1 exact-sequence squeeze",
        {"ext1": 0, "ext2_ideal": 0},
        {"ext1": chain.entry(1), "ext2_ideal": chain.entry(5)},
    ))
    return reports


def replay_branch_points(model: OrderModel) -> list[ClaimReport]:
    """Re-run the Ext bookkeeping over the six branch points, reading ``ramification`` once.

    The expected split names are those of the standard gauge.  KS.CASEII
    reads no model; it is reported here because it sits among these claims
    in the replay order.
    """
    branches = ramification(model)
    (g1, split1), (g2, split2), (g3, _) = branches[:3]
    splits = [split for _, split in branches]
    selfpair = list(ext_y_split(split1, split1))
    crosspair = list(ext_y_split(split1, split2))
    # each degree of the decomposition is the split sequence [ext_A, ext_Y, twisted]
    ext2 = les_solve([None, crosspair[2], None])
    # conditional on the cited stability of the non-split modules: the Y-level
    # ext^1 = 1 and the tangent-space input ext^1_A = 1 are taken as stated,
    # the arithmetic of the decomposition is what is verified
    swapped = les_solve([1, 1, None]).entry(2)
    at_branch = les_solve([1, selfpair[1], None]).entry(2)
    return [
        ClaimReport(
            "RAM.SPLITS",
            "the six split modules over the branch points of the moduli curve",
            "split restrictions at the ramification points",
            {"splits": [["E1", "L12"], ["L23", "E3"], ["L24", "E4"],
                        ["L25", "E5"], ["L26", "E6"], ["L27", "E7"]],
             "slopes_all_one": True, "chern_all_2_2_1": True, "induced_match": True},
            {"splits": [[format_divisor(s) for s in split.summands] for split in splits],
             "slopes_all_one": all(split.slopes == (1, 1) for split in splits),
             "chern_all_2_2_1": all((split.rank, intersect(split.c1, H), split.c2) == (2, 2, 1)
                                    for split in splits),
             "induced_match": all(set(split.summands) == set(induced_split(g, model).summands)
                                  for g, split in branches)}),
        ClaimReport("EXTA1.IV", "Ext_A between the first two branch-point modules vanishes",
                    "branch-pair computation, fully worked case",
                    [0, 0, 0], list(ext_a_induced(g1, induced_split(g2, model)))),
        ClaimReport("EXTA1.IV.B", "Ext_A between branch-point modules 1 and 3 vanishes",
                    "derived", [0, 0, 0], list(ext_a_induced(g1, induced_split(g3, model)))),
        ClaimReport("EXTA1.IV.C", "Ext_A between branch-point modules 2 and 3 vanishes",
                    "derived", [0, 0, 0], list(ext_a_induced(g2, induced_split(g3, model)))),
        ClaimReport(
            "EXTA2.ZERO",
            "vanishing Y-level Ext forces both A-level summands to vanish",
            "degree-2 vanishing through the endomorphism decomposition",
            {"ext_y": [0, 0, 0], "ext2_A_forced": 0, "ext2_twisted_forced": 0},
            {"ext_y": crosspair, "ext2_A_forced": ext2.entry(0),
             "ext2_twisted_forced": ext2.entry(2)}),
        ClaimReport(
            "EXT01.EQ", "ext^0 = ext^1 at the Y level for module pairs",
            "equality of Hom and first Ext dimensions for the moduli modules",
            {"selfpair_ext0_eq_ext1": True, "crosspair_ext0_eq_ext1": True,
             "selfpair": [2, 2], "crosspair": [0, 0]},
            {"selfpair_ext0_eq_ext1": selfpair[0] == selfpair[1],
             "crosspair_ext0_eq_ext1": crosspair[0] == crosspair[1],
             "selfpair": selfpair[:2], "crosspair": crosspair[:2]}),
        ClaimReport(
            "KS.CASEII",
            "(conditional on cited stability) Y-level ext^1 = 1 with tangent input 1 "
            "forces the untwisted A-level ext^1 to 0",
            "swapped-point case of the first-Ext vanishing",
            {"complement_ext1": 0}, {"complement_ext1": swapped}),
        ClaimReport(
            "KS.SPLIT",
            "at a branch point, ext^1_Y = 2 and tangent input 1 leave exactly one "
            "twisted first-order deformation",
            "tangent-space bookkeeping at the branch points",
            {"ext_y": [2, 2, 0], "complement_ext1": 1},
            {"ext_y": selfpair, "complement_ext1": at_branch}),
    ]


def _ch_dict(x: ChernChar) -> dict:
    return {"rank": x.rank, "c1": format_divisor(x.c), "ch2_times_2": x.s2}
