"""The value classes behave as the frozen dataclasses they replace: the same repr,
equality and hash by fields, no comparison with other types, order for
`QScalar` alone, and no assignment to a field.  Each class built unchecked
builds through `Cls._trusted(*fields)` what its checked constructor builds.
The checked constructors take an int alone for an integer field, a bool alone
for `unitary_det` and no bool or float for a rational, so every value's JSON
reads back as that value."""

import dataclasses
import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gldual.bernstein import Block, Component, CycleType, Stratum
from gldual.cohomology import PermutationAction
from gldual.parameters import (TRIVIAL, InertialClass, LParameter, OrbitDescriptor, WeilLabel,
                               _class_key, _summand_key)
from gldual.qproj import StratumPoint, SymPoint
from gldual.partitions import partitions
from gldual.scalars import ONE, QScalar, _fraction, q_power, unit
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


# valid, canonical input for each class that is built unchecked somewhere
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_turns = st.fractions(min_value=0, max_value=1, max_denominator=6).filter(lambda t: t < 1)
_labels = st.sampled_from([TRIVIAL, WeilLabel("a", 2, True), WeilLabel("b", 1, False)])
_classes = st.builds(InertialClass, _labels, st.sampled_from([F(0), F(1, 2), F(1), F(3, 2)]))
_partitions = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
_parts_per_block = st.lists(_partitions, min_size=1, max_size=3).map(tuple)


def _checked_stratum(parts_per_block):
    return Stratum(Component.from_exponents(tuple(map(sum, parts_per_block))),
                   CycleType(parts_per_block))


_BUILT_UNCHECKED = ("QScalar", "CycleType", "Stratum", "OrbitDescriptor", "LParameter",
                    "StratumPoint", "SymCoords")


@st.composite
def _unchecked_and_checked(draw, kind):
    """The class named `kind`, the fields its `_trusted` takes, and that value built checked."""
    if kind == "QScalar":
        q_exp, turn = draw(_rationals), draw(_turns)
        return QScalar, (q_exp, turn), QScalar(q_exp, turn)
    if kind == "CycleType":
        parts = draw(_parts_per_block)
        return CycleType, (parts,), CycleType(parts)
    if kind == "Stratum":
        checked = _checked_stratum(draw(_parts_per_block))
        return Stratum, (checked.component, checked.cycle_type), checked
    if kind == "OrbitDescriptor":
        entries = draw(st.lists(st.tuples(_classes, st.integers(1, 4)), min_size=1,
                                max_size=4, unique_by=lambda e: e[0]))
        return (OrbitDescriptor, (tuple(sorted(entries, key=_class_key)),),
                OrbitDescriptor(entries))
    if kind == "LParameter":
        summands = draw(st.lists(st.tuples(_classes, st.builds(QScalar, _rationals, _turns)),
                                 min_size=1, max_size=4))
        return (LParameter, (tuple(sorted(summands, key=_summand_key)),),
                LParameter(tuple(summands)))
    if kind == "StratumPoint":
        stratum = _checked_stratum(draw(_parts_per_block))
        # one sorted run of coordinates per residual block is canonical; the
        # checked constructor gets each run in reverse
        scalars = st.builds(QScalar, _rationals, _turns)
        runs = [sorted(draw(st.lists(scalars, min_size=m, max_size=m)))
                for m in stratum.residual_blocks()]
        return (StratumPoint, (stratum, tuple(z for run in runs for z in run)),
                StratumPoint(stratum, tuple(z for run in runs for z in reversed(run))))
    finite = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6)
    sigma = tuple(draw(st.lists(finite, max_size=4))) + (draw(finite.filter(bool)),)
    return SymCoords, (sigma,), SymCoords(sigma)


@pytest.mark.parametrize("kind", _BUILT_UNCHECKED)
@given(data=st.data())
def test_the_unchecked_constructor_builds_what_the_checked_one_builds(kind, data):
    cls, fields, checked = data.draw(_unchecked_and_checked(kind))
    trusted = cls._trusted(*fields)
    assert type(trusted) is cls
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    if hasattr(cls, "to_json"):
        assert json.dumps(trusted.to_json()) == json.dumps(checked.to_json())


def test_only_classes_of_one_or_two_fields_have_an_unchecked_constructor():
    for cls in VALUES:  # an inertial class is built checked alone: it keeps its `j` text
        assert (cls._trusted is None) == (len(cls._fields) > 2 or cls is InertialClass)
    with pytest.raises(TypeError):
        QScalar._trusted(F(1))  # positional, in `_fields` order, all of them


def test_an_inertial_class_keeps_the_json_text_of_its_spin():
    rho = WeilLabel("a", 2, False)
    made = InertialClass(rho, F(1, 2))
    for j in ("1/2", "2/4"):
        read = InertialClass.from_json(
            {"rho": {"id": "a", "dim": 2, "unitary_det": False}, "j": j})
        assert read == made and hash(read) == hash(made)
        assert read.to_json()["j"] == "1/2"
    assert made.to_json() == {"rho": {"id": "a", "dim": 2, "unitary_det": False}, "j": "1/2"}
    assert repr(made) == "InertialClass(rho=%r, spin_j=Fraction(1, 2))" % (rho,)


# each checked field that takes an int alone, and each that takes a rational
INTEGER_FIELDS = {
    "Block.exponent": lambda x: Block("a", x),
    "CycleType part": lambda x: CycleType(((x,),)),
    "WeilLabel.dim": lambda x: WeilLabel("a", x),
    "OrbitDescriptor multiplicity": lambda x: OrbitDescriptor(((InertialClass(TRIVIAL), x),)),
    "PermutationAction block": lambda x: PermutationAction((x,)),
}
RATIONAL_FIELDS = {
    "Block.q_scale": lambda x: Block("a", 1, x),
    "InertialClass.spin_j": lambda x: InertialClass(TRIVIAL, x),
    "QScalar.q_exp": lambda x: QScalar(x, F(0)),
    "QScalar.turn": lambda x: QScalar(F(0), x),
    "_fraction": _fraction,
}


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_an_integer_field_takes_an_int_alone(field, bad):
    INTEGER_FIELDS[field](2)
    with pytest.raises(TypeError, match="must be an integer, got %r" % (bad,)):
        INTEGER_FIELDS[field](bad)


@pytest.mark.parametrize("bad", [2.0, 1, "2", "yes", None], ids=repr)
def test_unitary_det_takes_a_bool_alone(bad):
    assert WeilLabel("a", 1, False).unitary_det is False
    with pytest.raises(TypeError, match="unitary_det must be a bool"):
        WeilLabel("a", 1, bad)


@pytest.mark.parametrize("bad", [2.0, True, False], ids=repr)
@pytest.mark.parametrize("field", RATIONAL_FIELDS)
def test_a_rational_field_takes_no_bool_and_no_float(field, bad):
    RATIONAL_FIELDS[field](F(1, 2))
    with pytest.raises(TypeError, match="exact rational required, got %s %r"
                       % (type(bad).__name__, bad)):
        RATIONAL_FIELDS[field](bad)


def test_a_value_given_lists_stores_tuples():
    assert hash(Component([Block("a", 2)])) == hash(Component((Block("a", 2),)))
    assert PermutationAction([2, 1]).blocks == (2, 1)
    read = CycleType(([2, 1], (1,)))
    assert read == CycleType(((2, 1), (1,))) and hash(read) == hash(CycleType(((2, 1), (1,))))
    assert read.parts_per_block == ((2, 1), (1,))
    stratum = Stratum(Component.from_exponents((3, 1)), read)
    assert stratum.residual_blocks() == (1, 1, 1)
    assert StratumPoint(stratum, (ONE, ONE, ONE)).to_json()["cycle_type"] == [[2, 1], [1]]


_ids = st.sampled_from(["b", "a", "B", "a1", "sc10"])
_steps = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4).filter(bool)
_components = st.lists(st.tuples(st.integers(1, 4), _steps), min_size=1, max_size=3).flatmap(
    lambda blocks: st.lists(_ids, min_size=len(blocks), max_size=len(blocks), unique=True).map(
        lambda ids: Component(tuple(Block(i, e, step) for i, (e, step) in zip(ids, blocks)))))
_scalars = st.builds(QScalar, _rationals, _turns)
_orbits = st.lists(st.tuples(_classes, st.integers(1, 4)), min_size=1, max_size=4,
                   unique_by=lambda e: e[0]).map(OrbitDescriptor)


@st.composite
def _strata(draw):
    c = draw(_components)
    return Stratum(c, CycleType(tuple(draw(st.sampled_from(partitions(e))) for e in c.exponents)))


@st.composite
def _stratum_points(draw):
    stratum = draw(_strata())
    return StratumPoint(stratum, draw(st.lists(_scalars, min_size=stratum.torus_rank,
                                               max_size=stratum.torus_rank)))


# each class with a JSON form, its values, and its reader
ROUND_TRIPS = {
    "QScalar": (_scalars, QScalar.from_json),
    "InertialClass": (_classes, InertialClass.from_json),
    "LParameter": (st.lists(st.tuples(_classes, _scalars), min_size=1, max_size=4).map(
        lambda summands: LParameter(tuple(summands))), LParameter.from_json),
    "OrbitDescriptor": (_orbits, OrbitDescriptor.from_json),
    "Component": (_components, Component.from_json),
    "Stratum": (_strata(), None),
    "SymPoint": (st.lists(st.lists(_scalars, max_size=3).map(tuple), min_size=1, max_size=3).map(
        lambda blocks: SymPoint(tuple(blocks))), SymPoint.from_json),
    "StratumPoint": (_stratum_points(), StratumPoint.from_json),
}


@pytest.mark.parametrize("kind", ROUND_TRIPS)
@given(data=st.data())
def test_every_value_reads_back_from_its_json(kind, data):
    values, read = ROUND_TRIPS[kind]
    x = data.draw(values)
    text = json.loads(json.dumps(x.to_json()))
    back = Stratum.from_json(text, x.component) if read is None else read(text)
    assert back == x and hash(back) == hash(x)
    assert json.dumps(back.to_json()) == json.dumps(x.to_json())


@given(_orbits)
def test_an_orbit_entry_is_the_class_json_with_its_multiplicity(orbit):
    # `OrbitDescriptor.to_json` writes each entry itself; it must stay the class's own JSON
    entries = orbit.to_json()["classes"]
    assert [json.dumps(entry) for entry in entries] == [
        json.dumps({**cls.to_json(), "multiplicity": m}) for cls, m in orbit.classes]
