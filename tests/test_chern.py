import random

import pytest

from dp2.chern import (
    CH_O,
    ChernChar,
    bogomolov_min_c2,
    c1_constraint,
    ch_ideal_point_twist,
    ch_line,
    ch_of,
    chern_of_extension,
    discriminant,
    dual,
    euler_pairing,
    minimal_c2,
    mult,
)
from dp2.cohom import chi_line
from dp2.galois import CohClass, disjoint_representative
from dp2.order import OrderModel, ext_a_induced, induced_split, ramification, standard_model
from dp2.picard import ZERO, DivClass, E, F, H, L, conic_through, intersect, line_through


@pytest.fixture
def rng():
    return random.Random(77031)


def random_char(rng):
    rank = rng.randint(0, 3)
    c = DivClass(tuple(rng.randint(-4, 4) for _ in range(8)))
    # pick s2 with the right parity against c^2
    s2 = 2 * rng.randint(-8, 8) + (c.selfint % 2)
    return ChernChar(rank, c, s2)


def test_ch_of_examples():
    m1 = ch_of(2, F, 1)
    assert (m1.rank, m1.c, m1.s2) == (2, F, -2)  # 2 + [F] + [-1]
    assert m1.c2 == 1
    assert ch_of(1, ZERO, 0) == CH_O
    for d in [H, F, E(1) - E(3)]:
        assert ch_line(d).s2 == d.selfint


def test_integrality_guard():
    with pytest.raises(ValueError):
        ChernChar(1, E(1), 0)  # E1^2 = -1 is odd, so s2 = 0 is inconsistent
    with pytest.raises(ValueError):
        ch_of(-1, ZERO, 0)


def test_dual_and_product():
    m1 = ch_of(2, F, 1)
    m0_star = dual(m1)
    assert (m0_star.rank, m0_star.c, m0_star.s2) == (2, -F, -2)
    prod = mult(m0_star, m1)
    assert (prod.rank, prod.c, prod.s2) == (4, ZERO, -8)  # 4 + [0] + [-4]


def test_mult_unit_and_commutativity(rng):
    for _ in range(200):
        x, y = random_char(rng), random_char(rng)
        assert mult(x, CH_O) == x
        assert mult(x, y) == mult(y, x)
        assert (mult(x, y).s2 - mult(x, y).c.selfint) % 2 == 0  # parity survives
        assert (dual(x).s2 - dual(x).c.selfint) % 2 == 0


def test_mult_associative(rng):
    for _ in range(100):
        x, y, z = (random_char(rng) for _ in range(3))
        assert mult(mult(x, y), z) == mult(x, mult(y, z))


def test_todd_integrates_to_one():
    assert euler_pairing(CH_O, CH_O) == 1


def test_euler_pairing_of_moduli_modules():
    m = ch_of(2, F, 1)
    assert euler_pairing(m, m) == 0


def test_euler_pairing_matches_chi_line(rng, random_classes):
    assert euler_pairing(CH_O, ch_line(H)) == chi_line(H) == 3
    for d1, d2 in zip(random_classes(100), random_classes(100)):
        assert euler_pairing(ch_line(d1), ch_line(d2)) == chi_line(d2 - d1)


def test_euler_pairing_bilinear(rng):
    # additivity in each slot under direct sum of characters
    for _ in range(100):
        x, x2, y = (random_char(rng) for _ in range(3))
        assert (euler_pairing(chern_of_extension(x, x2), y)
                == euler_pairing(x, y) + euler_pairing(x2, y))
        assert (euler_pairing(y, chern_of_extension(x, x2))
                == euler_pairing(y, x) + euler_pairing(y, x2))


def test_euler_pairing_serre_symmetry(rng):
    for _ in range(100):
        x, y = random_char(rng), random_char(rng)
        assert euler_pairing(x, y) == euler_pairing(y, mult(x, ch_line(-H)))


def test_discriminant_and_bound():
    assert discriminant(F, 1) == 4
    assert bogomolov_min_c2(standard_model().lclass) == 0  # c1^2 = -2
    assert bogomolov_min_c2(F) == 0
    assert bogomolov_min_c2(H) == 1  # H^2 = 2
    # derived: chi(x, x) = 4 - (4 c2 - c1^2) <= 2 first holds at c2 = 0 for
    # c1^2 = -2 and at c2 = 1 for c1^2 = 0, sharper than the bound for F
    assert minimal_c2(standard_model().lclass) == 0
    assert minimal_c2(F) == 1
    assert euler_pairing(ch_of(2, F, 0), ch_of(2, F, 0)) == 4


def test_chi_a_is_half_chi_y_on_induced_modules():
    # the halving behind minimal_c2, by a route through h0 peeling, not chern:
    # by adjunction chi_A(A x O(g), A x O(g)) is the alternating sum of
    # ext_a_induced, for g = H and the six ramification generators, on every order
    for code in range(1, 64):
        model = OrderModel(*disjoint_representative(CohClass(code)))
        for g in (H, *(generator for generator, _ in ramification(model))):
            split = induced_split(g, model)
            ext0, ext1, ext2 = ext_a_induced(g, split)
            assert 2 * (ext0 - ext1 + ext2) == euler_pairing(split.ch(), split.ch()), (code, g)


def test_extension_characters():
    # derived: additivity matches the direct sum O(E1) + O(L12)
    split = chern_of_extension(ch_line(E(1)), ch_line(line_through(1, 2)))
    assert split == ch_of(2, F, intersect(E(1), line_through(1, 2)))
    assert split.c2 == 1
    assert chern_of_extension(ChernChar(0, ZERO, 0), split) == split


def test_module_extension_chern():
    total = chern_of_extension(CH_O, ch_ideal_point_twist(F))
    assert total == ch_of(2, F, 1)
    assert total.c2 == 1


def test_c1_constraint():
    lclass = standard_model().lclass
    assert lclass == E(1) - conic_through(1, 2) == E(1) + line_through(1, 2) - H
    assert c1_constraint(lclass, lclass) == 0
    assert c1_constraint(F, lclass) == 1
    assert c1_constraint(H, lclass) is None
    assert c1_constraint(ZERO, lclass) is None
    for n in range(-5, 6):
        assert c1_constraint(lclass + n * H, lclass) == n
    # rest = E1 has rest.H = 1, odd, so no n exists
    assert c1_constraint(lclass + E(1), lclass) is None
    assert c1_constraint(L, lclass=L) == 0
    assert c1_constraint(L + 2 * H, lclass=L) == 2
