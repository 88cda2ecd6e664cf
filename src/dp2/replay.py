"""Registry of replayed claims and the machinery to run them.

Every numerical statement that the package re-verifies is a claim with a
stable identifier and an expected value.  A registry entry is one computation
and the ids of the claims it settles: most settle one, and each of the order
layer's three chains settles several in one call, with nothing kept between
calls.  Claims are grouped by prefix:

    PIC.*    lattice census of the 56 exceptional curves
    SIG.*    the covering involution
    GAL.*    Galois cohomology of the involution
    COH.* / CHI.* / VAN.* / H0.* / H2.* / WIT.* / TWIST.* / LES.* / EX2.*
             cohomology dimensions, vanishing tables, exact-sequence squeezes
    CH.* / CK.* / DISC.* / C1.*   Chern character arithmetic
    ORD.* / RAM.* / EXTA1.* / EXTA2.* / EXT01.* / KS.*   the order layer
    ORTH.* and L53                the orthogonality chain

``SIGMA.FORMULA-DISCREPANCY`` is deliberately non-passing: it documents a
printed formula for the involution's action on the line class that cannot be
an isometry.  It is tagged known-discrepancy and never fails a run.

Output is deterministic: claims run in registration order, reports render to
stable text or JSON lines, and no timing or environment information is mixed
into the payload.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable

from . import chern, cohom, galois, order, picard
from .errors import InternalInconsistency, UnknownClaim
from .galois import CohClass, class_of, is_coboundary, sigma
from .picard import (
    DivClass,
    E,
    F,
    H,
    K,
    L,
    ZERO,
    conic_through,
    cubic_with_node,
    enumerate_exceptional,
    intersect,
    line_through,
)
from .reporting import ClaimReport

__all__ = ["ClaimReport", "all_claim_ids", "run_one", "run_all"]

# a registry entry: the ids of the claims that one computation settles, and
# the thunk that runs it and returns their reports in that order
Entry = tuple[tuple[str, ...], Callable[[], list[ClaimReport]]]


def _claim(claim_id: str, description: str, paper_ref: str, expected: Any,
           compute: Callable[[], Any], known_discrepancy: bool = False) -> Entry:
    return (claim_id,), lambda: [ClaimReport(claim_id, description, paper_ref, expected,
                                             compute(), known_discrepancy)]


# ---------------------------------------------------------------------------
# computed ingredients shared by several claims
# ---------------------------------------------------------------------------


def _census_matches_scan() -> dict[str, Any]:
    # complete, not just a box search: see picard.coordinate_bounds
    scanned = picard.classes_with(1, -1)
    return {"scan_count": len(scanned),
            "matches_closed_form": set(scanned) == set(enumerate_exceptional())}


def _sigma_permutation() -> dict[str, Any]:
    curves = enumerate_exceptional()
    images = [sigma(c) for c in curves]
    index = {c: i for i, c in enumerate(curves)}
    image = [index.get(s) for s in images]
    fixed = sum(1 for i, j in enumerate(image) if i == j)
    closed = all(j is not None for j in image)
    transpositions = sum(1 for i, j in enumerate(image) if j is not None and j > i
                         and image[j] == i)
    pairs_sum = all(s + c == H for s, c in zip(images, curves))
    return {"closed": closed, "fixed_points": fixed,
            "transpositions": transpositions, "pairs_sum_to_H": pairs_sum}


def _isometry_check() -> bool:
    basis = [L] + [E(i) for i in range(1, 8)]
    images = [sigma(a) for a in basis]
    if any(sigma(s) != a for s, a in zip(images, basis)):
        return False
    return all(intersect(sa, sb) == intersect(a, b)
               for sa, a in zip(images, basis) for sb, b in zip(images, basis))


def _h_and_e() -> list[DivClass]:
    """The stated basis h, e1, ..., e6 of ker(1 + sigma)."""
    return [galois.h_class()] + [galois.e_class(i) for i in range(1, 7)]


def _kernel_generated_by_h_and_e() -> bool:
    # ker(1 + sigma) = H-perp, whose discriminant in the unimodular Pic Y is
    # H.H = 2; seven classes in H-perp span it exactly when their Gram
    # determinant is +-2, as a sublattice of index n has n^2 times that
    stated = _h_and_e()
    gram = [[intersect(a, b) for b in stated] for a in stated]
    return (all(intersect(d, H) == 0 for d in stated)
            and abs(picard.determinant(gram)) == intersect(H, H))


def _image_generated_as_stated() -> bool:
    # by the parity rule, im(1 - sigma) is spanned by twice a kernel basis
    # (GAL.KER.GEN) and any one coboundary that is odd in every coordinate
    special = galois.h_class() + galois.e_class(2) + galois.e_class(4) + galois.e_class(6)
    stated = [2 * d for d in _h_and_e()] + [special]
    return all(is_coboundary(d) for d in stated) and all(c % 2 for c in special.coeffs)


def _all_differences_are_cocycles() -> bool:
    # (1 + sigma)(a - b) = (1 + sigma)a - (1 + sigma)b, so all 3136 differences
    # are cocycles exactly when the 56 images sigma(C) + C are one class
    return len({sigma(c) + c for c in enumerate_exceptional()}) == 1


def _all_63_represented() -> bool:
    for code in range(64):
        bits = CohClass(code)
        e, eprime = galois.represent_as_difference(bits)
        if class_of(e - eprime) != bits:
            return False
    return True


def _e1e3_pair_payload() -> dict[str, Any]:
    bits = CohClass.from_bits("101000")
    e, eprime = galois.represent_as_difference(bits)
    # a difference of two curves is a cocycle, so class_of is asked only then
    exceptional = all(picard.classify(c) is not None for c in (e, eprime))
    return {"class_matches": exceptional and class_of(e - eprime) == bits,
            "pair_is_exceptional": exceptional}


def _all_63_disjoint() -> bool:
    for code in range(1, 64):
        bits = CohClass(code)
        e, eprime = galois.disjoint_representative(bits)
        if intersect(e, eprime) != 0 or class_of(e - eprime) != bits:
            return False
    return True


def _printed_sigma_line() -> dict[str, Any]:
    printed = galois.printed_sigma_of_line()
    return {
        "printed_square": printed.selfint,
        "is_isometric_image_of_L": printed.selfint == L.selfint,
        "agrees_with_involution": printed == sigma(L),
    }


def _dims_list(d: DivClass) -> list[int]:
    return list(cohom.cohom_dims(d).as_tuple())


def _witness_info(d: DivClass) -> dict[str, Any]:
    w = cohom.noneffective_witness(d)
    return {"witness": None if w is None else picard.format_divisor(w),
            "product": None if w is None else intersect(d, w)}


def _h2_of_module(model: order.OrderModel) -> int:
    # two squeezes: first through the point sequence, then the module extension
    twist = cohom.les_solve([0, None, cohom.h2(model.f)])  # H1(O_p) -> H2(I_p F) -> H2(F)
    ext = cohom.les_solve([cohom.h2(ZERO), None, twist.entry(1)])
    return ext.entry(1)


def _ex2_conclusion(model: order.OrderModel) -> dict[str, int]:
    # Ext^2(O(F), I_p F) squeezed between Ext^1(F, O_p) = 0 and Ext^2(F, F) = h2(O)
    sq = cohom.les_solve([0, None, cohom.h2(ZERO)])
    ext2_f_o = cohom.h2(-model.f)  # Serre dual of h0(F - H)
    # Ext^2(O(F), M) sits between Ext^2(F, O) and Ext^2(F, I_p F)
    ext2_f_m = cohom.les_solve([ext2_f_o, None, sq.entry(1)]).entry(1)
    # right exactness: Ext^2(O(F), M) -> Ext^2(I_p F, M) -> 0
    conclusion = cohom.les_solve([ext2_f_m, None]).entry(1)
    return {"ext2_F_ideal": sq.entry(1), "ext2_F_module": ext2_f_m,
            "ext2_ideal_module": conclusion}


def _ch_payload(x: chern.ChernChar) -> dict[str, Any]:
    return {"rank": x.rank, "c1": list(x.c.coeffs), "ch2_times_2": x.s2}


def _ck_extension(model: order.OrderModel) -> dict[str, Any]:
    total = chern.chern_of_extension(chern.CH_O, chern.ch_ideal_point_twist(model.f))
    return {"rank": total.rank, "c1_is_F": total.c == F, "c2": total.c2,
            "ch2_times_2": total.s2}


def _minimal_c2_table(model: order.OrderModel) -> dict[str, int]:
    return {
        "n0_bogomolov_bound": chern.bogomolov_min_c2(model.lclass),
        "n0_minimum": chern.minimal_c2(model.lclass),
        "n1_bogomolov_bound": chern.bogomolov_min_c2(model.f),
        "n1_minimum": chern.minimal_c2(model.f),
    }


def _model_payload(model: order.OrderModel) -> dict[str, Any]:
    return {
        "e": picard.format_divisor(model.e),
        "eprime": picard.format_divisor(model.eprime),
        "sigma_eprime": picard.format_divisor(model.sigma_eprime),
        "disjoint": intersect(model.e, model.eprime) == 0,
        "f_is_F": model.f == F,
        "f_square": model.f.selfint,
        "f_degree": intersect(model.f, H),
        "c1_constraint_n": chern.c1_constraint(model.f, model.lclass),
    }


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


_E3E1 = E(3) - E(1)
_L23E1 = line_through(2, 3) - E(1)
# each claim that needs the model builds it when it runs; nothing is kept
_model = order.standard_model

_REGISTRY: tuple[Entry, ...] = (
    # --- lattice census -------------------------------------------------
    _claim("PIC.HH", "H.H = 2 and H.E = 1 for every exceptional curve",
           "intersection numbers of the halved anticanonical class",
           {"HH": 2, "HE_all_one": True},
           lambda: {"HH": intersect(H, H),
                    "HE_all_one": all(intersect(H, c) == 1 for c in enumerate_exceptional())}),
    _claim("PIC.COUNT56", "exactly 56 exceptional curve classes",
           "census of (-1)-curves on the blown-up double plane",
           56, lambda: len(enumerate_exceptional())),
    _claim("PIC.FAMILIES", "family sizes 7 (points), 21 (lines), 21 (conics), 7 (cubics)",
           "the four classical families of (-1)-curves",
           [7, 21, 21, 7],
           # a family is the curves of one degree 0-3 in L
           lambda: [sum(1 for c in enumerate_exceptional() if c.coeffs[0] == d)
                    for d in range(4)]),
    _claim("PIC.SCAN", "closed-form census equals the exhaustive box scan",
           "derived",
           {"scan_count": 56, "matches_closed_form": True},
           _census_matches_scan),
    _claim("PIC.KK", "the canonical class has self-intersection 2",
           "derived", 2, lambda: intersect(K, K)),

    # --- the involution --------------------------------------------------
    _claim("SIG.EI.DI", "the involution swaps each point curve with its nodal cubic",
           "action of the covering involution on the exceptional families",
           True,
           lambda: all(sigma(E(i)) == cubic_with_node(i) for i in range(1, 8))),
    _claim("SIG.LIJ.CIJ", "the involution swaps each line curve with its conic",
           "action of the covering involution on the exceptional families",
           True,
           lambda: all(sigma(line_through(i, j)) == conic_through(i, j)
                       for i, j in itertools.combinations(range(1, 8), 2))),
    _claim("SIG.H", "the involution fixes H",
           "the involution is the covering involution of the double plane",
           True, lambda: sigma(H) == H),
    _claim("SIG.ISOMETRY", "sigma is an involutive isometry",
           "derived", True, _isometry_check),
    _claim("SIG.PAIRS", "the 56 curves fall into 28 disjoint swapped pairs summing to H",
           "bitangent pairs of the branch quartic",
           {"closed": True, "fixed_points": 0, "transpositions": 28,
            "pairs_sum_to_H": True},
           _sigma_permutation),
    _claim(
        "SIGMA.FORMULA-DISCREPANCY",
        "the printed image L - 3(E1+...+E7) of the line class is not an isometry "
        "(square -62, not 1) and differs from the involution's 8L - 3(E1+...+E7); "
        "recorded as a documented discrepancy, never silently repaired",
        "printed involution formula for the line class",
        {"printed_square": 1, "is_isometric_image_of_L": True,
         "agrees_with_involution": True},
        _printed_sigma_line,
        known_discrepancy=True,
    ),

    # --- Galois cohomology ----------------------------------------------
    _claim("GAL.KER.H", "h = L - 3E1 lies in ker(1 + sigma)",
           "generators of the anti-invariant lattice",
           True, lambda: sigma(galois.h_class()) + galois.h_class() == ZERO),
    _claim("GAL.KER.EI", "e_i = Ei - Ei+1 lies in ker(1 + sigma) for i = 1..6",
           "generators of the anti-invariant lattice",
           True, lambda: all(sigma(galois.e_class(i)) + galois.e_class(i) == ZERO
                             for i in range(1, 7))),
    _claim("GAL.KER.GEN", "ker(1 + sigma) is generated by h and the e_i",
           "generators of the anti-invariant lattice",
           True, _kernel_generated_by_h_and_e),
    _claim("GAL.IM.GEN",
           "im(1 - sigma) is generated by twice the kernel and h + e2 + e4 + e6",
           "generators of the coboundary lattice",
           True, _image_generated_as_stated),
    _claim("GAL.H1", "H^1 of the involution action has elementary divisors [2]*6",
           "first group cohomology is (Z/2)^6",
           [2, 2, 2, 2, 2, 2], galois.h1_galois),
    _claim("GAL.H1.ORDER", "the quotient has order 64",
           "derived", 64,
           lambda: math.prod(galois.h1_galois())),
    _claim("GAL.COB.2H", "2h is a coboundary",
           "twice the kernel lies in the coboundaries",
           True, lambda: is_coboundary(2 * galois.h_class())),
    _claim("GAL.COB.HE246", "h + e2 + e4 + e6 is a coboundary",
           "generators of the coboundary lattice",
           True, lambda: is_coboundary(galois.h_class() + galois.e_class(2)
                                       + galois.e_class(4) + galois.e_class(6))),
    _claim("GAL.COB.E1", "e1 is not a coboundary",
           "the e_i generate the cohomology",
           False, lambda: is_coboundary(galois.e_class(1))),
    _claim("GAL.TRICKY.C67E5", "[C67 - E5] = e1 + e3",
           "worked reduction chain for e1 + e3",
           "101000",
           lambda: str(class_of(conic_through(6, 7) - E(5)))),
    _claim("GAL.TRICKY.C67E6", "[C67 - E6] = e1 + e3 + e5",
           "worked reduction chain for e1 + e3 + e5",
           "101010",
           lambda: str(class_of(conic_through(6, 7) - E(6)))),
    _claim("GAL.EE.COCYCLE", "every difference of exceptional curves is a cocycle",
           "differences of exceptional curves define cohomology classes",
           True, _all_differences_are_cocycles),
    _claim("GAL.REPR.E1E3", "e1 + e3 is the class of a difference of two curves",
           "every class is represented by a difference of exceptional curves",
           {"class_matches": True, "pair_is_exceptional": True},
           _e1e3_pair_payload),
    _claim("GAL.REPR.ALL63", "all 63 nonzero classes arise as differences of curves",
           "every class is represented by a difference of exceptional curves",
           True, _all_63_represented),
    _claim("GAL.DISJ.ALL63", "every nonzero class has a disjoint representative pair",
           "every order is equivalent to one built from a disjoint pair",
           True, _all_63_disjoint),

    # --- cohomology engine ----------------------------------------------
    _claim("COH.O", "the structure sheaf has cohomology (1, 0, 0)",
           "rationality of the double plane",
           {"h0": 1, "h1": 0, "h2": 0, "chi": 1},
           lambda: {"h0": cohom.h0(ZERO), "h1": cohom.h1(ZERO),
                    "h2": cohom.h2(ZERO), "chi": cohom.chi_line(ZERO)}),
    _claim("CHI.E3E1", "chi(E3 - E1) = 0",
           "Euler characteristic inputs of the branch-pair computation",
           0, lambda: cohom.chi_line(_E3E1)),
    _claim("CHI.L23E1", "chi(L23 - E1) = 0",
           "Euler characteristic inputs of the branch-pair computation",
           0, lambda: cohom.chi_line(_L23E1)),
    _claim("CHI.FH", "chi(F - H) = 0",
           "Euler characteristic input of the connecting-Ext computation",
           0, lambda: cohom.chi_line(_model().f - H)),
    _claim("CHI.LCLASS", "chi(E - E') = 0",
           "Euler characteristic input of the exceptionality computation",
           0, lambda: cohom.chi_line(_model().lclass)),
    _claim("VAN.E3E1", "E3 - E1 has no cohomology at all",
           "vanishing table of the branch-pair computation",
           [0, 0, 0], lambda: _dims_list(_E3E1)),
    _claim("VAN.L23E1", "L23 - E1 has no cohomology at all",
           "vanishing table of the branch-pair computation",
           [0, 0, 0], lambda: _dims_list(_L23E1)),
    _claim("H0.MFMH", "|-F - H| is empty",
           "vanishing input for h2 of the moduli modules",
           0, lambda: cohom.h0(-_model().f - H)),
    _claim("H0.FMH", "|F - H| is empty",
           "vanishing input for the connecting Ext",
           0, lambda: cohom.h0(_model().f - H)),
    _claim("H0.EE", "|E - E'| is empty",
           "vanishing input for exceptionality of the twisted order",
           0, lambda: cohom.h0(_model().lclass)),
    _claim("H0.EPEH", "|E' - E - H| is empty",
           "vanishing input for exceptionality of the twisted order",
           0, lambda: cohom.h0(-_model().lclass - H)),
    _claim("H0.MH", "|-H| is empty",
           "vanishing input of the orthogonality chain",
           0, lambda: cohom.h0(-H)),
    _claim("H0.E1E3H", "|E1 - E3 - H| is empty",
           "Serre-dual vanishing input of the branch-pair computation",
           0, lambda: cohom.h0(E(1) - E(3) - H)),
    _claim("H0.E1L23H", "|E1 - L23 - H| is empty",
           "Serre-dual vanishing input of the branch-pair computation",
           0, lambda: cohom.h0(E(1) - line_through(2, 3) - H)),
    _claim("H2.F", "h2(F) = 0",
           "vanishing of top cohomology of the fibre class",
           0, lambda: cohom.h2(_model().f)),
    _claim("WIT.MFH", "H witnesses that -F - H is not effective (product -4)",
           "non-effectivity via an irreducible class of nonnegative square",
           {"witness": "H", "product": -4}, lambda: _witness_info(-_model().f - H)),
    _claim("WIT.FMH", "L witnesses that F - H is not effective (product -2)",
           "non-effectivity via the pulled-back line",
           {"witness": "L", "product": -2}, lambda: _witness_info(_model().f - H)),
    _claim("WIT.E3E1", "L - E1 witnesses that E3 - E1 is not effective (product -1)",
           "non-effectivity via the strict transform of a line through one point",
           {"witness": "L-E1", "product": -1}, lambda: _witness_info(_E3E1)),
    _claim("TWIST.H2F", "h2 of the ideal-twisted fibre class vanishes",
           "top cohomology through the point sequence",
           0, lambda: cohom.cohom_ideal_twist(_model().f).h2),
    _claim("TWIST.F", "generic ideal twist of the fibre class has dimensions (1, 0, 0)",
           "derived",
           [1, 0, 0], lambda: list(cohom.cohom_ideal_twist(_model().f).as_tuple())),
    _claim("LES.H2SQ", "the point sequence squeezes h2(I_p F) to 0",
           "exact-sequence squeeze for top cohomology",
           0, lambda: cohom.les_solve([0, None, cohom.h2(_model().f)]).entry(1)),
    _claim("LES.EX2SQ", "the point sequence squeezes Ext^2(O(F), I_p F) to 0",
           "exact-sequence squeeze in the branch-pair computation",
           0, lambda: cohom.les_solve([0, None, cohom.h2(ZERO)]).entry(1)),
    _claim("EX2.EXT2FO", "Ext^2(O(F), O) vanishes (Serre dual of |F - H|)",
           "second Ext input of the branch-pair computation",
           0, lambda: cohom.h2(-_model().f)),
    _claim("EX2.CONC", "Ext^2 out of the ideal twist into any module vanishes",
           "conclusion of the second-Ext vanishing chain",
           {"ext2_F_ideal": 0, "ext2_F_module": 0, "ext2_ideal_module": 0},
           lambda: _ex2_conclusion(_model())),
    _claim("H2.M", "the moduli modules have no top cohomology",
           "top-cohomology vanishing for the moduli modules",
           0, lambda: _h2_of_module(_model())),

    # --- Chern characters -------------------------------------------------
    _claim("CH.M1", "ch of a moduli module is 2 + [F] + [-1]",
           "Chern character of the rank-2 modules",
           {"rank": 2, "c1": list(F.coeffs), "ch2_times_2": -2},
           lambda: _ch_payload(_model().module_char())),
    _claim("CH.M0STAR", "ch of the dual is 2 - [F] + [-1]",
           "Chern character of the dual module",
           {"rank": 2, "c1": list((-F).coeffs), "ch2_times_2": -2},
           lambda: _ch_payload(chern.dual(_model().module_char()))),
    _claim("CH.PROD", "the product character is 4 + [0] + [-4]",
           "product of the dual and direct characters",
           {"rank": 4, "c1": list(ZERO.coeffs), "ch2_times_2": -8},
           lambda: _ch_payload(chern.mult(chern.dual(_model().module_char()),
                                          _model().module_char()))),
    _claim("CHI.ZERO", "the Euler pairing of two moduli modules vanishes",
           "Euler pairing of the rank-2 moduli modules",
           0, lambda: chern.euler_pairing(_model().module_char(), _model().module_char())),
    _claim("CHI.OO", "chi(O, O) = 1",
           "Euler characteristic of the structure sheaf",
           1, lambda: chern.euler_pairing(chern.CH_O, chern.CH_O)),
    _claim("CK.CHERN", "the extension O -> M -> I_p(F) has total ch (2, F, c2 = 1)",
           "module structure as an extension by an ideal-sheaf twist",
           {"rank": 2, "c1_is_F": True, "c2": 1, "ch2_times_2": -2},
           lambda: _ck_extension(_model())),
    _claim("DISC.MINC2",
           "minimal second Chern classes: 0 for the order's own determinant, "
           "1 for the H-twist (the semistability bound alone only gives 0)",
           "minimal second Chern classes of order line bundles",
           {"n0_bogomolov_bound": 0, "n0_minimum": 0,
            "n1_bogomolov_bound": 0, "n1_minimum": 1},
           lambda: _minimal_c2_table(_model())),
    _claim("DISC.DELTA", "the discriminant of (rank 2, c1 = F, c2 = 1) is 4",
           "derived", 4, lambda: chern.discriminant(_model().f, 1)),
    _claim("C1.N0", "c1 = E - E' satisfies the determinant constraint with n = 0",
           "allowed first Chern classes of order line bundles",
           0, lambda: chern.c1_constraint(_model().lclass, _model().lclass)),
    _claim("C1.N1", "c1 = F satisfies the determinant constraint with n = 1",
           "first Chern class of the moduli modules",
           1, lambda: chern.c1_constraint(_model().f, _model().lclass)),
    _claim("C1.H.INVALID", "H itself violates the determinant constraint",
           "derived", None, lambda: chern.c1_constraint(H, _model().lclass)),

    # --- the order layer --------------------------------------------------
    _claim("ORD.MODEL", "the standard gauge: disjoint pair (E1, C12) with F = E1 + L12",
           "normal form of the order after contracting suitably",
           {"e": "E1", "eprime": "C12", "sigma_eprime": "L12", "disjoint": True,
            "f_is_F": True, "f_square": 0, "f_degree": 2, "c1_constraint_n": 1},
           lambda: _model_payload(_model())),
    (("RAM.SPLITS", "EXTA1.IV", "EXTA1.IV.B", "EXTA1.IV.C", "EXTA2.ZERO", "EXT01.EQ",
      "KS.CASEII", "KS.SPLIT"), lambda: order.replay_branch_points(_model())),
    (("ORD.EXC.HL", "ORD.EXC", "ORD.CANON"), lambda: order.replay_exceptional(_model())),
    (("ORTH.I0", "ORTH.I2", "ORTH.H1MH", "ORTH.EXT2HO", "L53", "ORTH.I1"),
     lambda: order.replay_orthogonality(_model())),
)
_IDS = tuple(claim_id for ids, _ in _REGISTRY for claim_id in ids)
if len(_IDS) != len(set(_IDS)):
    raise AssertionError("duplicate claim identifiers in the registry")


def _reports(entry: Entry) -> list[ClaimReport]:
    """Run one entry; its reports must carry its registered ids, in that order."""
    ids, produce = entry
    reports = produce()
    if tuple(r.id for r in reports) != ids:
        raise InternalInconsistency(f"entry {list(ids)} reported {[r.id for r in reports]}")
    return reports


def all_claim_ids() -> list[str]:
    return list(_IDS)


def run_one(claim_id: str) -> ClaimReport:
    """The report of one claim; the entry that settles it runs whole."""
    for entry in _REGISTRY:
        if claim_id in entry[0]:
            return _reports(entry)[entry[0].index(claim_id)]
    raise UnknownClaim(claim_id)


def run_all(prefix: str | None = None) -> list[ClaimReport]:
    """The reports whose ids start with ``prefix``; an entry runs once if any of its ids does."""
    prefix = prefix or ""
    return [r for entry in _REGISTRY if any(i.startswith(prefix) for i in entry[0])
            for r in _reports(entry) if r.id.startswith(prefix)]
