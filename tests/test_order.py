import itertools
import random

import pytest

from dp2.chern import ch_line, ch_of, euler_pairing
from dp2.cohom import cohom_dims
from dp2.galois import CohClass, class_of, disjoint_representative, sigma
from dp2.order import (
    OrderModel,
    SplitBundle,
    ext_a_induced,
    ext_y_split,
    hom_vanishing_by_det,
    induced_split,
    ramification,
    replay_branch_points,
    replay_exceptional,
    replay_orthogonality,
    serre_twist,
    standard_model,
)
from dp2.picard import (
    ZERO,
    E,
    F,
    H,
    conic_through,
    enumerate_exceptional,
    format_divisor,
    intersect,
    line_through,
)


@pytest.fixture
def rng():
    return random.Random(90125)


LCLASS = F - H


def test_standard_model():
    model = standard_model()
    assert (model.e, model.eprime, model.sigma_eprime) == (E(1), conic_through(1, 2),
                                                           line_through(1, 2))
    assert [format_divisor(c) for c in (model.e, model.eprime, model.sigma_eprime)] == [
        "E1", "C12", "L12"]
    assert intersect(model.e, model.eprime) == 0
    assert model.lclass == LCLASS
    assert model.f == F
    assert model.f.selfint == 0
    assert intersect(model.f, H) == 2
    assert str(class_of(model.lclass)) == "110101"
    assert disjoint_representative(class_of(model.lclass)) == (model.e, model.eprime)


def test_model_rejects_meeting_pair():
    with pytest.raises(ValueError):
        OrderModel(E(1), line_through(1, 2))  # E1.L12 = 1


def test_model_accepts_any_disjoint_nontrivial_pair():
    # OrderModel checks only census membership and disjointness; on all
    # 56 x 56 ordered census pairs those imply a nonzero class, F.F = 0, F.H = 2
    curves = enumerate_exceptional()
    disjoint = 0
    for a, b in itertools.product(curves, repeat=2):
        if intersect(a, b) != 0:
            with pytest.raises(ValueError):
                OrderModel(a, b)
            continue
        disjoint += 1
        f = OrderModel(a, b).f
        assert not class_of(a - b).is_zero()
        assert (f.selfint, intersect(f, H)) == (0, 2)
    assert disjoint == 1512


def test_induced_split():
    model = standard_model()
    assert set(induced_split(E(3), model).summands) == {E(3), line_through(2, 3)}
    assert set(induced_split(H, model).summands) == {H, LCLASS + H}
    assert set(induced_split(ZERO, model).summands) == {ZERO, LCLASS}


def test_split_bundle_invariants():
    split = SplitBundle((E(1), line_through(1, 2)))
    assert split.rank == 2
    assert split.c1 == F
    assert split.c2 == 1
    assert split.slopes == (1, 1)
    assert split.ch() == ch_of(2, F, 1)


def test_ext_y_split_structure_sheaf():
    assert ext_y_split(SplitBundle((ZERO,)), SplitBundle((ZERO,))) == (1, 0, 0)


def test_ext_y_split_case_iv_ingredients():
    triple = ext_y_split(SplitBundle((E(1),)), SplitBundle((E(3), line_through(2, 3))))
    assert triple[1] == 0


def test_ext_y_twisted_order_self():
    # derived: the four difference classes are 0, L, -L, 0 with
    # h(0) = (1,0,0) and h(+-L) = (0,0,0)
    split = induced_split(H, standard_model())
    triple = ext_y_split(split, split)
    expected = [0, 0, 0]
    for d in [ZERO, LCLASS, -LCLASS, ZERO]:
        dims = cohom_dims(d)
        expected[0] += dims.h0
        expected[1] += dims.h1
        expected[2] += dims.h2
    assert triple == tuple(expected) == (2, 0, 0)


def test_ext_a_induced_examples():
    model = standard_model()
    assert ext_a_induced(E(1), induced_split(E(3), model)) == (0, 0, 0)
    assert ext_a_induced(H, induced_split(H, model)) == (1, 0, 0)
    assert ext_a_induced(ZERO, induced_split(ZERO, model)) == (1, 0, 0)


def test_hom_vanishing_by_det():
    model = standard_model()
    assert hom_vanishing_by_det(model.f + H, model.f) is True
    assert hom_vanishing_by_det(model.f, model.lclass) is True
    assert hom_vanishing_by_det(F, F) is False
    assert hom_vanishing_by_det(ZERO, H) is False


def test_serre_twist():
    twisted = serre_twist(ch_of(2, F, 1))
    assert twisted.rank == 2
    assert twisted.c == F - 2 * H
    assert serre_twist(ch_line(ZERO)) == ch_line(-H)


def test_serre_twist_pairing_symmetry(rng):
    for _ in range(100):
        d1 = sigma(E(rng.randint(1, 7)))
        x = ch_of(2, d1 + F, rng.randint(-5, 5))
        y = ch_line(d1 - E(1))
        assert euler_pairing(x, y) == euler_pairing(y, serre_twist(x))


def test_ramification_splits():
    expected = [
        ("E1", "L12"),
        ("L23", "E3"),
        ("L24", "E4"),
        ("L25", "E5"),
        ("L26", "E6"),
        ("L27", "E7"),
    ]
    branches = ramification(standard_model())
    assert [format_divisor(g) for g, _ in branches] == ["E1", "E3", "E4", "E5", "E6", "E7"]
    assert [tuple(format_divisor(s) for s in split.summands)
            for _, split in branches] == expected
    for generator, split in branches:
        assert split.slopes == (1, 1)
        assert (split.rank, intersect(split.c1, H), split.c2) == (2, 2, 1)
        induced = induced_split(generator, standard_model())
        assert set(split.summands) == set(induced.summands)


def test_ext_alternating_sum_matches_euler_pairing():
    splits = [split for _, split in ramification(standard_model())]
    for src, tgt in itertools.product(splits, repeat=2):
        triple = ext_y_split(src, tgt)
        assert triple[0] - triple[1] + triple[2] == euler_pairing(src.ch(), tgt.ch())


def test_ext_between_branch_modules():
    branches = ramification(standard_model())
    first, second = branches[0][1], branches[1][1]
    self_table = ext_y_split(first, first)
    assert self_table == (2, 2, 0)
    cross_table = ext_y_split(first, second)
    assert cross_table == (0, 0, 0)
    # ext0 = ext1 at the Y level in both cases
    assert self_table[0] == self_table[1]
    assert cross_table[0] == cross_table[1]


def test_case_iv_all_branch_pairs():
    model = standard_model()
    generators = [g for g, _ in ramification(model)]
    for src, tgt in itertools.permutations(generators, 2):
        assert ext_a_induced(src, induced_split(tgt, model)) == (0, 0, 0)


def _all_disjoint_gauges():
    curves = enumerate_exceptional()
    return [OrderModel(a, b) for a in curves for b in curves
            if a != b and intersect(a, b) == 0]


def test_ramification_derived_for_every_gauge():
    # the six reducible fibres of |F| in each of the 56 * 27 ordered disjoint gauges
    models = _all_disjoint_gauges()
    assert len(models) == 1512
    for model in models:
        # sigma(E') = H - E' for a census curve, so F = E + sigma(E') = lclass + H
        assert model.f == model.lclass + H
        branches = ramification(model)
        assert len(branches) == 6
        assert branches[0] == (model.e, SplitBundle((model.e, model.sigma_eprime)))
        for generator, split in branches:
            assert split.slopes == (1, 1)
            assert (split.rank, intersect(split.c1, H), split.c2) == (2, 2, 1)
            assert split.c1 == model.f
            assert set(split.summands) == set(induced_split(generator, model).summands)


def test_branch_point_exts_on_every_order():
    # Bondal-Orlov's point conditions at the six branch points, on all 63 orders:
    # Ext_A between distinct branch modules vanishes in every degree and each
    # self-Ext is (1, 1, 0).  Each alternating sum is also chi through chern,
    # a route that does not peel h0, and it is 0.
    for code in range(1, 64):
        model = OrderModel(*disjoint_representative(CohClass(code)))
        for (src, _), (tgt, _) in itertools.product(ramification(model), repeat=2):
            triple = ext_a_induced(src, induced_split(tgt, model))
            assert triple == ((1, 1, 0) if src == tgt else (0, 0, 0)), (code, src, tgt)
            chi = euler_pairing(ch_line(src), induced_split(tgt, model).ch())
            assert triple[0] - triple[1] + triple[2] == chi == 0, (code, src, tgt)
        for _, split in ramification(model):
            assert ext_y_split(split, split) == (2, 2, 0)


BRANCH_POINT_IDS = ["RAM.SPLITS", "EXTA1.IV", "EXTA1.IV.B", "EXTA1.IV.C",
                    "EXTA2.ZERO", "EXT01.EQ", "KS.CASEII", "KS.SPLIT"]


def test_replay_branch_points_on_every_order():
    # every claim but RAM.SPLITS, whose expected curve names are the standard
    # gauge's, holds on the disjoint representative of each of the 63 orders
    for code in range(1, 64):
        model = OrderModel(*disjoint_representative(CohClass(code)))
        reports = replay_branch_points(model)
        assert [r.id for r in reports] == BRANCH_POINT_IDS, code
        assert [r.id for r in reports if not r.passed] in ([], ["RAM.SPLITS"]), code
        ram = reports[0].computed
        assert ram["slopes_all_one"] and ram["chern_all_2_2_1"] and ram["induced_match"], code


def test_replay_exceptional_reports():
    reports = replay_exceptional(standard_model())
    assert [r.id for r in reports] == ["ORD.EXC.HL", "ORD.EXC", "ORD.CANON"]
    assert all(r.passed for r in reports)


def test_replay_orthogonality_reports():
    reports = replay_orthogonality(standard_model())
    assert [r.id for r in reports] == [
        "ORTH.I0", "ORTH.I2", "ORTH.H1MH", "ORTH.EXT2HO", "L53", "ORTH.I1"]
    assert all(r.passed for r in reports)
    by_id = {r.id: r for r in reports}
    assert by_id["L53"].computed == 1
    assert by_id["ORTH.I1"].computed == {"ext1": 0, "ext2_ideal": 0}


def test_replay_works_for_other_gauges(rng):
    # the chains are gauge independent: rerun them on sampled disjoint pairs
    candidates = [
        OrderModel(a, b)
        for a, b in itertools.combinations(enumerate_exceptional(), 2)
        if intersect(a, b) == 0 and not class_of(a - b).is_zero()
    ]
    assert len(candidates) > 100
    for model in [OrderModel(E(2), conic_through(2, 3))] + rng.sample(
            candidates, 10):
        assert all(r.passed for r in replay_exceptional(model))
        assert all(r.passed for r in replay_orthogonality(model))
