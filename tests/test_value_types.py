"""The contract of the package's immutable value types.

Every value type subclasses ``errors.Value``, which derives the contract from
its ``__slots__``: it compares and hashes by its field tuple, prints as
``Name(field=value, ...)``, refuses assignment and deletion,
and copies and pickles through its constructor.  Each type checks its fields
on construction in its own ``__init__``, its one constructor, and stores
nothing beside them.  Every subclass of ``Value`` in the package must have a
case in ``CASES``.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import dp2
from dp2 import order
from dp2.chern import ChernChar, ch_of
from dp2.cohom import CohomDims, Interval, LesResult, les_solve
from dp2.errors import Value
from dp2.galois import CohClass
from dp2.order import OrderModel, SplitBundle, standard_model
from dp2.picard import DivClass, E, F, H, L, conic_through
from dp2.reporting import ClaimReport


def _cases():
    """(a, an equal but distinct instance, its repr, its field tuple, its first field)."""
    return [
        (H, DivClass((3, -1, -1, -1, -1, -1, -1, -1)),
         "DivClass(3, -1, -1, -1, -1, -1, -1, -1)", ((3, -1, -1, -1, -1, -1, -1, -1),), "coeffs"),
        (ch_of(2, F, 1), ChernChar(2, L - E(2), -2),
         "ChernChar(rank=2, c=DivClass(1, 0, -1, 0, 0, 0, 0, 0), s2=-2)", (2, F, -2), "rank"),
        (CohomDims(3, 0, 0), CohomDims(3, 0, 0), "CohomDims(h0=3, h1=0, h2=0)", (3, 0, 0), "h0"),
        (Interval(0, None), Interval(0, None), "Interval(lo=0, hi=None)", (0, None), "lo"),
        (les_solve([1, None, 1]),
         LesResult((1, 2, 1), (Interval(0, 0), Interval(1, 1), Interval(1, 1), Interval(0, 0))),
         "LesResult(entries=(1, 2, 1), ranks=(Interval(lo=0, hi=0), Interval(lo=1, hi=1), "
         "Interval(lo=1, hi=1), Interval(lo=0, hi=0)))",
         ((1, 2, 1), (Interval(0, 0), Interval(1, 1), Interval(1, 1), Interval(0, 0))), "ranks"),
        (CohClass.from_bits("101000"), CohClass(5), "CohClass(code=5)", (5,), "code"),
        (standard_model(), OrderModel(E(1), conic_through(1, 2)),
         "OrderModel(e=DivClass(0, 1, 0, 0, 0, 0, 0, 0), "
         "eprime=DivClass(2, 0, 0, -1, -1, -1, -1, -1))",
         (E(1), conic_through(1, 2)), "eprime"),
        (SplitBundle((H, L)), SplitBundle((H, L)),
         "SplitBundle(summands=(DivClass(3, -1, -1, -1, -1, -1, -1, -1), "
         "DivClass(1, 0, 0, 0, 0, 0, 0, 0)))", ((H, L),), "summands"),
        (ClaimReport("X", "d", "ref", 1, 1), ClaimReport("X", "d", "ref", 1, 1, False),
         "ClaimReport(id='X', description='d', paper_ref='ref', expected=1, computed=1, "
         "known_discrepancy=False)",
         ("X", "d", "ref", 1, 1, False), "computed"),
    ]


CASES = _cases()
IDS = [type(a).__name__ for a, *_ in CASES]


@pytest.mark.parametrize("a, twin, text, fields, name", CASES, ids=IDS)
def test_repr_is_pinned(a, twin, text, fields, name):
    assert repr(a) == text
    assert repr(twin) == text


@pytest.mark.parametrize("a, twin, text, fields, name", CASES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(a, twin, text, fields, name):
    assert a is not twin
    assert a == twin and not a != twin
    assert hash(a) == hash(twin) == hash(fields)
    # another class never compares equal, not even with the same fields
    assert a.__eq__(fields) is NotImplemented
    assert a != fields and fields != a
    assert a != object()


@pytest.mark.parametrize("a, twin, text, fields, name", CASES, ids=IDS)
def test_every_field_takes_part_in_equality(a, twin, text, fields, name):
    names = type(a).__slots__
    assert len(names) == len(fields)
    for changed in names:
        other = object.__new__(type(a))  # bypasses the constructor's checks
        for n, value in zip(names, fields):
            object.__setattr__(other, n, object() if n == changed else value)
        assert a != other and not a == other


@pytest.mark.parametrize("a, twin, text, fields, name", CASES, ids=IDS)
def test_fields_are_read_only(a, twin, text, fields, name):
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, before)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 0
    assert getattr(a, name) is before


@pytest.mark.parametrize("a, twin, text, fields, name", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(a, twin, text, fields, name):
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and type(clone) is type(a)


@pytest.mark.parametrize("build, error, message", [
    (lambda: DivClass((1, 2)), ValueError, "need 8 coordinates, got 2"),
    (lambda: DivClass((1.0,) * 8), TypeError, "coordinates must be integers"),
    (lambda: ChernChar(1, H, 1), ValueError,
     "degree-2 part 1/2 violates integrality against c^2 = 2"),
    (lambda: les_solve([]), ValueError, "empty sequence"),
    (lambda: les_solve([1, -1]), ValueError, "entries must be nonnegative ints or None, got -1"),
    (lambda: CohClass(64), ValueError, "need a 6-bit code, got 64"),
    (lambda: CohClass.from_bits("10"), ValueError, "need six bits, got ('1', '0')"),
    (lambda: CohClass.from_bits("100002"), ValueError,
     "need six bits, got ('1', '0', '0', '0', '0', '2')"),
    (lambda: CohClass.from_bits("\uff1100000"), ValueError,
     "need six bits, got ('\uff11', '0', '0', '0', '0', '0')"),
    (lambda: OrderModel(E(1), E(1)), ValueError, "E1 and E1 are not disjoint"),
    (lambda: OrderModel(L, E(1)), ValueError, "L is not a (-1)-curve"),
    (lambda: OrderModel(E(1), E(1) + E(2)), ValueError, "E1+E2 is not a (-1)-curve"),
])
def test_construction_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_claim_report_passes_exactly_when_its_values_agree():
    # the verdict is derived, so a report cannot pass with differing values
    assert ClaimReport("X", "d", "ref", [1, 0], [1, 0]).status() == "PASS"
    assert ClaimReport("X", "d", "ref", 1, 2).status() == "FAIL"
    assert ClaimReport("X", "d", "ref", 1, 2, known_discrepancy=True).status() == "FLAG"
    assert not ClaimReport("X", "d", "ref", 1, 2, known_discrepancy=True).passed


def test_claim_report_json_has_no_fallback_for_values():
    # a report carries plain data: a value type in it is refused, not printed as str()
    assert ClaimReport("X", "d", "ref", (1, 0), [1, 0]).to_json() == (
        '{"computed": [1, 0], "description": "d", "expected": [1, 0], "id": "X", '
        '"known_discrepancy": false, "paper_ref": "ref", "pass": false}')
    with pytest.raises(TypeError):
        ClaimReport("X", "d", "ref", "H", H).to_json()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _modules():
    # every dp2 module but __main__, importing which runs the command line
    return [importlib.import_module(f"dp2.{info.name}")
            for info in pkgutil.iter_modules(dp2.__path__) if info.name != "__main__"]


def test_every_value_type_has_a_case():
    _modules()
    covered = {type(a) for a, *_ in CASES}
    assert set(_subclasses(Value)) == covered and len(covered) == len(CASES)


def test_cached_ramification_is_not_a_field():
    # ramification is computed from the model each time and kept nowhere
    model = OrderModel(E(1), conic_through(1, 2))
    before = (repr(model), hash(model))
    assert order.ramification(model)
    assert not hasattr(order.ramification, "cache_info")
    assert not hasattr(model, "__dict__")  # the model has nowhere to keep it
    assert (repr(model), hash(model)) == before
    assert model == standard_model()
    assert pickle.loads(pickle.dumps(model)) == model


def test_h0_is_the_only_cached_function():
    # the fixed tables are built at import; h0's answer cache is the one cache
    cached = set()
    for module in _modules():
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else ()
            for qualname, f in [(name, obj), *((f"{name}.{n}", m) for n, m in members)]:
                if hasattr(f, "cache_info") and f.__module__ == module.__name__:
                    cached.add(f"{module.__name__}.{qualname}")
    assert cached == {"dp2.cohom.h0"}
