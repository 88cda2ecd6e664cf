import collections
import functools
import itertools

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_decomp, smith_normal_form

from dp2 import galois
from dp2.errors import NotACocycle, TrivialClass
from dp2.galois import (
    CohClass,
    class_of,
    disjoint_representative,
    e_class,
    h1_galois,
    h_class,
    is_coboundary,
    printed_sigma_of_line,
    represent_as_difference,
    sigma,
)
from dp2.picard import (
    ZERO,
    DivClass,
    E,
    H,
    K,
    L,
    classes_with,
    conic_through,
    cubic_with_node,
    enumerate_exceptional,
    format_divisor,
    intersect,
    line_through,
)


def test_sigma_on_named_classes():
    for i in range(1, 8):
        assert sigma(E(i)) == cubic_with_node(i)
    for i, j in itertools.combinations(range(1, 8), 2):
        assert sigma(line_through(i, j)) == conic_through(i, j)
    assert sigma(H) == H
    assert sigma(K) == K
    assert sigma(E(1)) == DivClass((3, -2, -1, -1, -1, -1, -1, -1))


def test_sigma_of_line():
    # derived: (L.H) H - L = 3H - L, and the result must again be an isometric
    # involution image
    image = sigma(L)
    assert image == 3 * H - L
    assert image == DivClass((8, -3, -3, -3, -3, -3, -3, -3))
    assert image.selfint == 1
    assert sigma(image) == L


def test_printed_line_formula_is_not_an_isometry():
    printed = printed_sigma_of_line()
    assert printed == DivClass((1, -3, -3, -3, -3, -3, -3, -3))
    assert printed.selfint == -62
    assert printed != sigma(L)


def test_sigma_is_involutive_isometry(rng, random_classes):
    for c in enumerate_exceptional():
        assert sigma(sigma(c)) == c
    for a, b in zip(random_classes(1000), random_classes(1000)):
        assert sigma(sigma(a)) == a
        assert intersect(sigma(a), sigma(b)) == intersect(a, b)


def test_sigma_permutes_curves_in_28_transpositions():
    curves = enumerate_exceptional()
    index = {c: i for i, c in enumerate(curves)}
    image = [index[sigma(c)] for c in curves]  # KeyError would mean not closed
    assert sorted(image) == list(range(56))
    assert all(image[i] != i for i in range(56))
    assert all(image[image[i]] == i for i in range(56))
    assert sum(1 for i in range(56) if image[i] > i) == 28
    for c in curves:
        assert c + sigma(c) == H


# the stated bases: h and the e_i span ker(1 + sigma); twice those and h + e2 + e4 + e6
# span im(1 - sigma)
KERNEL = [h_class()] + [e_class(i) for i in range(1, 7)]
IMAGE = [2 * k for k in KERNEL] + [h_class() + e_class(2) + e_class(4) + e_class(6)]


def random_cocycle(rng, bound=3):
    """A random class with D.H = 3d + m1 + ... + m7 = 0, drawn without the stated basis."""
    d, *m = [rng.randint(-bound, bound) for _ in range(7)]
    return DivClass((d, *m, -3 * d - sum(m)))


# 1 - sigma on the unit vectors of (L, E1..E7): generators of im(1 - sigma)
IMAGE_COLUMNS = tuple(u - sigma(u) for u in (DivClass(tuple(int(i == j) for i in range(8)))
                                             for j in range(8)))


@functools.lru_cache(maxsize=None)
def _span_test(columns):
    """A test of membership in the integer span of ``columns``, from sympy's Smith form.

    With S = U M V diagonal, M x = d has an integer solution exactly when
    each entry of U d is divisible by the matching diagonal entry of S.
    """
    m = sympy.Matrix([[c.coeffs[i] for c in columns] for i in range(8)])
    s, u, _ = smith_normal_decomp(m, domain=sympy.ZZ)
    diagonal = [int(s[i, i]) if i < s.cols else 0 for i in range(8)]
    rows = [[int(x) for x in u.row(i)] for i in range(8)]

    def contains(d):
        ud = [sum(a * b for a, b in zip(row, d.coeffs)) for row in rows]
        return all(y % n == 0 if n else y == 0 for y, n in zip(ud, diagonal))

    return contains


def in_image(d):
    """Whether (1 - sigma)x = d has an integer solution x: sympy's Smith form, not parity."""
    return _span_test(IMAGE_COLUMNS)(d)


def kernel_coordinates(d):
    """The coordinates of d in h, e1..e6, solved by sympy over Q."""
    basis = sympy.Matrix([list(k.coeffs) for k in KERNEL]).T
    return list(basis.solve(sympy.Matrix(d.coeffs)))


def test_kernel_membership_and_rank():
    for gen in KERNEL:
        assert sigma(gen) + gen == ZERO
    assert sympy.Matrix([list(k.coeffs) for k in KERNEL]).rank() == 7


def test_kernel_is_h_perp():
    # derived: (1 + sigma)D = (D.H)H, so the kernel is exactly H-perp
    for k in KERNEL:
        assert intersect(k, H) == 0


def test_kernel_lattice_equals_stated_generators(rng):
    # every cocycle has integer coordinates in h, e1..e6 (sympy solves over Q),
    # and their Gram determinant is the discriminant H.H of H-perp
    for _ in range(200):
        assert all(c.is_integer for c in kernel_coordinates(random_cocycle(rng)))
    gram = sympy.Matrix([[intersect(a, b) for b in KERNEL] for a in KERNEL])
    assert gram.det() == -2 == -intersect(H, H)


def test_image_membership():
    assert in_image(E(1) - cubic_with_node(1))
    for d in IMAGE:
        assert in_image(d)
        assert is_coboundary(d)
    assert not in_image(e_class(1))


def test_image_lattice_equals_stated_generators():
    # both span the same lattice: the columns of 1 - sigma on the unit vectors
    # lie in the span of the stated generators, which lie in the image
    in_stated = _span_test(tuple(IMAGE))
    assert all(in_stated(c) for c in IMAGE_COLUMNS)
    assert all(in_image(d) for d in IMAGE)


def test_h1_elementary_divisors():
    assert h1_galois() == [2, 2, 2, 2, 2, 2]
    order = 1
    for d in h1_galois():
        order *= d
    assert order == 64


def test_coboundary_examples():
    assert is_coboundary(2 * h_class()) is True
    assert is_coboundary(ZERO) is True
    assert is_coboundary(e_class(1)) is False
    assert is_coboundary(h_class() + e_class(2) + e_class(4) + e_class(6)) is True
    with pytest.raises(NotACocycle):
        is_coboundary(E(1))


def test_twice_a_cocycle_is_a_coboundary(rng):
    for _ in range(100):
        d = ZERO
        for k in KERNEL:
            d = d + rng.randint(-3, 3) * k
        assert is_coboundary(2 * d)


def test_class_of_basis_and_chains():
    for i in range(1, 7):
        assert class_of(e_class(i)) == CohClass(1 << (i - 1))
    assert str(class_of(conic_through(6, 7) - E(5))) == "101000"
    assert str(class_of(conic_through(6, 7) - E(6))) == "101010"
    assert str(class_of(h_class())) == "010101"  # h = (h+e2+e4+e6) - e2-e4-e6
    with pytest.raises(NotACocycle):
        class_of(L)


def test_cocycle_test_agrees_with_applying_one_plus_sigma(rng):
    # oracle: sigma(d) + d == ZERO, on random classes and on random cocycles,
    # half of them knocked off ker(1 + sigma) by one unit vector
    classes = [DivClass(tuple(rng.randint(-5, 5) for _ in range(8))) for _ in range(300)]
    for _ in range(300):
        d = sum((rng.randint(-3, 3) * k for k in KERNEL), ZERO)
        if rng.random() < 0.5:
            j = rng.randrange(8)
            d = d + DivClass(tuple(int(i == j) for i in range(8)))
        classes.append(d)
    outcomes = set()
    for d in classes:
        is_cocycle = sigma(d) + d == ZERO
        outcomes.add(is_cocycle)
        if is_cocycle:
            galois._require_cocycle(d)
        else:
            with pytest.raises(NotACocycle) as info:
                galois._require_cocycle(d)
            assert str(info.value) == f"(1+sigma) does not kill {format_divisor(d)}"
    assert outcomes == {True, False}


def test_class_of_matches_brute_force(rng):
    # independent oracle: subtract each subset of the e_i and test membership
    # in im(1 - sigma) with sympy's Smith form; the inputs are 25 random cocycles
    # and the 64 differences represent_as_difference picked, each checked against its code
    es = [e_class(i) for i in range(1, 7)]
    cocycles = [(None, random_cocycle(rng, 2)) for _ in range(25)]
    for code in range(64):
        e, eprime = represent_as_difference(CohClass(code))
        cocycles.append((code, e - eprime))
    assert len(cocycles) == 25 + 64
    for code, d in cocycles:
        hits = []
        for bits in itertools.product((0, 1), repeat=6):
            shifted = d
            for b, e in zip(bits, es):
                if b:
                    shifted = shifted - e
            if in_image(shifted):
                hits.append(CohClass.from_bits(bits))
        assert hits == [class_of(d)]
        if code is not None:
            assert class_of(d).code == code


def test_parity_rule_matches_smith_membership(rng):
    # the parity rule against sympy on 2000 random cocycles and all 3136
    # curve differences: d is a coboundary exactly when sympy finds it in the
    # image, and d minus the e_i of its class always is; that class is the
    # only one, as no nonzero sum of e_i is in the image (brute force above)
    curves = enumerate_exceptional()
    cocycles = [random_cocycle(rng, 6) for _ in range(2000)]
    cocycles += [a - b for a, b in itertools.product(curves, repeat=2)]
    assert len(cocycles) == 2000 + 3136
    zero_classes = 0
    for d in cocycles:
        assert is_coboundary(d) == in_image(d), d
        v = class_of(d)
        zero_classes += v.is_zero()
        rest = d - sum((e_class(i + 1) for i in range(6) if v.code >> i & 1), ZERO)
        assert in_image(rest) and is_coboundary(rest), d
    assert zero_classes > 50


def test_class_of_is_additive(rng):
    for _ in range(200):
        d1 = ZERO
        d2 = ZERO
        for k in KERNEL:
            d1 = d1 + rng.randint(-3, 3) * k
            d2 = d2 + rng.randint(-3, 3) * k
        assert class_of(d1 + d2).code == class_of(d1).code ^ class_of(d2).code
        assert is_coboundary(d1) == class_of(d1).is_zero()


def test_represent_zero_class():
    e, eprime = represent_as_difference(CohClass(0))
    assert (e, eprime) == (E(1), E(1))


def test_represent_all_classes_and_determinism():
    for code in range(64):
        bits = CohClass(code)
        e, eprime = represent_as_difference(bits)
        assert class_of(e - eprime) == bits
        assert represent_as_difference(bits) == (e, eprime)


def test_represent_first_hit_matches_exhaustive_scan():
    # oracle: scan all 56 x 56 ordered pairs in enumeration order
    curves = enumerate_exceptional()
    first = {}
    for a, b in itertools.product(curves, repeat=2):
        first.setdefault(class_of(a - b), (a, b))
    assert len(first) == 64
    for bits, pair in first.items():
        assert represent_as_difference(bits) == pair


def test_disjoint_representative_all_classes():
    # oracle: the first disjoint pair per class over all 56 x 56 ordered pairs, row-major
    curves = enumerate_exceptional()
    first = {}
    for a, b in itertools.product(curves, repeat=2):
        if intersect(a, b) == 0:
            first.setdefault(class_of(a - b), (a, b))
    assert len(first) == 63
    for bits, pair in first.items():
        assert disjoint_representative(bits) == pair
    # 7 classes have a meeting first pair, so their disjoint one comes later
    assert sum(represent_as_difference(bits) != pair for bits, pair in first.items()) == 7
    assert [format_divisor(c) for c in disjoint_representative(CohClass.from_bits("101101"))] == [
        "E1", "C14"]
    with pytest.raises(TrivialClass):
        disjoint_representative(CohClass(0))


def test_h1_matches_sympy_smith_form():
    # independent route: im(1 - sigma) from sigma on the eight unit vectors,
    # its generators' coordinates in the kernel basis h, e1..e6 by sympy, and
    # the Smith normal form of that matrix over Z
    coords = [kernel_coordinates(c) for c in IMAGE_COLUMNS]
    assert all(c.is_integer for row in coords for c in row)
    snf = smith_normal_form(sympy.Matrix(coords), domain=sympy.ZZ)
    diagonal = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    assert h1_galois() == [d for d in diagonal if d != 1] == [2] * 6


def test_meeting_pair_swap_identity(rng):
    # E.sigma(E') = E.(H - E') = 1 - E.E' for exceptional curves
    curves = enumerate_exceptional()
    for _ in range(300):
        a = rng.choice(curves)
        b = rng.choice(curves)
        assert intersect(a, sigma(b)) == 1 - intersect(a, b)


@pytest.fixture
def rng():
    import random

    return random.Random(555001)


def test_roots_cover_each_nonzero_class_twice_and_the_form_descends():
    # the 63 orders as the nonzero 2-torsion points of the branch quartic's
    # Jacobian (Dolgachev, Classical Algebraic Geometry, ch. 5-6): the 126
    # roots of H-perp = E7(-1), complete by the box of classes_with, are
    # anti-invariant and map 2:1 onto the nonzero classes
    roots = classes_with(0, -2)
    assert len(roots) == 126
    assert all(sigma(r) == -r for r in roots)
    assert collections.Counter(class_of(r).code for r in roots) == dict.fromkeys(range(1, 64), 2)
    # the intersection form mod 2 descends to H^1 = ker/im ...
    assert all(intersect(k, m) % 2 == 0 for k in KERNEL for m in IMAGE)
    # ... where on e_1..e_6 it is minus the A6 Cartan matrix: determinant 7,
    # so non-degenerate mod 2, and alternating since e_i.e_i = -2
    gram = [[intersect(e_class(i), e_class(j)) for j in range(1, 7)] for i in range(1, 7)]
    assert sympy.Matrix(gram).det() == 7


def test_sigma_is_the_longest_element_of_w_e7():
    # sigma = w0 of W(E7) (Dolgachev, Classical Algebraic Geometry, ch. 8),
    # by a route that never uses the closed form: reflect the antidominant
    # 5L - E1 - 2E2 - ... - 7E7, which pairs to -1 with every simple root, in a
    # simple root it pairs negatively with until it pairs with none; the word
    # is reduced, of length the 63 positive roots, and its product is w0
    simple = [E(i) - E(i + 1) for i in range(1, 7)] + [L - E(1) - E(2) - E(3)]

    def reflect(x, r):
        return x + intersect(x, r) * r  # s_r(x) = x + (x.r) r, as r.r = -2

    x = 5 * L - sum((i * E(i) for i in range(1, 8)), ZERO)
    assert [intersect(x, r) for r in simple] == [-1] * 7
    word = []
    while (r := next((r for r in simple if intersect(x, r) < 0), None)) is not None:
        word.append(r)
        x = reflect(x, r)
    assert len(word) == 63
    for b in [L] + [E(i) for i in range(1, 8)]:
        image = b
        for r in word:
            image = reflect(image, r)
        assert image == sigma(b), format_divisor(b)
