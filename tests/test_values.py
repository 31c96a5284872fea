"""The value classes behave as the frozen dataclasses they replace: the same repr,
equality and hash by fields, no comparison with other types, order for
`QScalar` alone, and no assignment to a field."""

import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from gldual.bernstein import Block, Component, CycleType, Stratum
from gldual.cohomology import PermutationAction, PoincarePolynomial
from gldual.parameters import TRIVIAL, InertialClass, LParameter, OrbitDescriptor, WeilLabel
from gldual.qproj import StratumPoint, SymPoint
from gldual.scalars import ONE, QScalar, q_power, unit
from gldual.symfun import SymCoords
from gldual.verify import CheckResult

STRATUM = Stratum(Component.from_exponents((3,)), CycleType(((2, 1),)))

# per class: two equal values built apart, and a third value that differs
VALUES = {
    QScalar: (lambda: QScalar(F(1, 2), F(4, 3)), lambda: q_power(F(1, 2)) * unit(F(1, 3)),
              lambda: q_power(F(1, 2))),
    WeilLabel: (lambda: WeilLabel("a"), lambda: WeilLabel("a", 1, True),
                lambda: WeilLabel("a", 2)),
    InertialClass: (lambda: InertialClass(TRIVIAL, F(1, 2)),
                    lambda: InertialClass(TRIVIAL, F(2, 4)),
                    lambda: InertialClass(TRIVIAL)),
    LParameter: (lambda: LParameter(((InertialClass(TRIVIAL), q_power(1)),
                                     (InertialClass(TRIVIAL, 1), ONE))),
                 lambda: LParameter(((InertialClass(TRIVIAL, 1), ONE),
                                     (InertialClass(TRIVIAL), q_power(1)))),
                 lambda: LParameter(((InertialClass(TRIVIAL), ONE),))),
    OrbitDescriptor: (lambda: OrbitDescriptor(((InertialClass(TRIVIAL), 2),)),
                      lambda: OrbitDescriptor([(InertialClass(TRIVIAL), 2)]),
                      lambda: OrbitDescriptor(((InertialClass(TRIVIAL), 1),))),
    Block: (lambda: Block("a", 2), lambda: Block("a", 2, F(1)), lambda: Block("a", 2, F(1, 2))),
    Component: (lambda: Component.from_exponents((2, 1)),
                lambda: Component((Block("sc0", 2), Block("sc1", 1))),
                lambda: Component.from_exponents((1, 2))),
    CycleType: (lambda: CycleType(((2, 1),)), lambda: CycleType(((2, 1),)),
                lambda: CycleType(((1, 1, 1),))),
    Stratum: (lambda: STRATUM,
              lambda: Stratum(Component.from_exponents((3,)), CycleType(((2, 1),))),
              lambda: Stratum(Component.from_exponents((3,)), CycleType(((3,),)))),
    PoincarePolynomial: (lambda: PoincarePolynomial((1, 2, 1)),
                         lambda: PoincarePolynomial([1, 2, 1, 0]),
                         lambda: PoincarePolynomial((1, 1))),
    PermutationAction: (lambda: PermutationAction((2, 1)), lambda: PermutationAction((2, 1)),
                        lambda: PermutationAction((1, 2))),
    SymPoint: (lambda: SymPoint(((q_power(1), ONE),)), lambda: SymPoint(((ONE, q_power(1)),)),
               lambda: SymPoint(((ONE, ONE),))),
    StratumPoint: (lambda: StratumPoint(STRATUM, (q_power(1), ONE)),
                   lambda: StratumPoint(STRATUM, [q_power(1), ONE]),
                   lambda: StratumPoint(STRATUM, (ONE, q_power(1)))),
    SymCoords: (lambda: SymCoords((5, 6)), lambda: SymCoords((5 + 0j, 6.0)),
                lambda: SymCoords((5, 7))),
    CheckResult: (lambda: CheckResult("c", True, "ok", 0.5),
                  lambda: CheckResult("c", True, "ok", 0.5, None),
                  lambda: CheckResult("c", True, "ok", 0.5, 1.0)),
}


def _dataclass_twin(value):
    """The same fields held by a frozen dataclass of the same name."""
    cls = type(value)
    twin = dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True)
    return twin(*(getattr(value, name) for name in cls._fields))


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_repr_equality_and_hash_follow_the_fields(cls):
    make, make_equal, make_other = VALUES[cls]
    a, b, c = make(), make_equal(), make_other()
    assert type(a) is type(b) is type(c) is cls
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert repr(a) == repr(_dataclass_twin(a))
    assert repr(c) == repr(_dataclass_twin(c))
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_other_types_are_not_equal_and_not_ordered(cls):
    a = VALUES[cls][0]()
    twin = _dataclass_twin(a)
    for other in (twin, getattr(a, cls._fields[0]), None, object()):
        assert cls.__eq__(a, other) is NotImplemented
        assert a != other and not a == other
        with pytest.raises(TypeError):
            a < other
    if cls is not QScalar:  # only QScalar is ordered
        with pytest.raises(TypeError):
            a < VALUES[cls][2]()


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = VALUES[cls][0]()
    for name in cls._fields:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


def test_qscalar_order_is_that_of_q_exp_then_turn():
    scalars = [QScalar(F(a, 2), F(t, 3)) for a in (-1, 0, 1) for t in (0, 1, 2)]
    for x, y in itertools.product(scalars, repeat=2):
        key_x, key_y = (x.q_exp, x.turn), (y.q_exp, y.turn)
        assert (x < y, x <= y, x > y, x >= y) == (key_x < key_y, key_x <= key_y,
                                                  key_x > key_y, key_x >= key_y)
    assert sorted(reversed(scalars)) == scalars
    assert QScalar.__lt__(ONE, F(0)) is NotImplemented
