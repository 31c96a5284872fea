from collections import Counter
from fractions import Fraction as F
from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gldual import parameters
from gldual.parameters import (
    TRIVIAL,
    InertialClass,
    LParameter,
    OrbitDescriptor,
    WeilLabel,
    dimension,
    is_discrete_series,
    is_supercuspidal,
    is_tempered,
    orbit_of,
    orbit_shape,
    steinberg_parameter,
)
from gldual.scalars import ONE, QScalar

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
twists = st.builds(QScalar, rationals, rationals)
spins = st.sampled_from([F(0), F(1, 2), F(1), F(3, 2), F(2)])
labels = st.sampled_from(
    [TRIVIAL, WeilLabel("a", 2, True), WeilLabel("b", 1, False), WeilLabel("c", 3, True)]
)
classes = st.builds(InertialClass, labels, spins)
params = st.builds(
    LParameter,
    st.lists(st.tuples(classes, twists), min_size=1, max_size=5).map(tuple),
)

# labels out of sorted order ("B" < "a" < "sc10" < "sc2"), one of them with a
# non-unitary determinant, and few classes, so that classes repeat
mixed_classes = st.builds(
    InertialClass,
    st.sampled_from([WeilLabel("sc2"), WeilLabel("sc10", 2), WeilLabel("B", 1, False),
                     WeilLabel("a", 3)]),
    st.sampled_from([F(0), F(1, 2), F(3, 2)]),
)
mixed_params = st.builds(
    LParameter, st.lists(st.tuples(mixed_classes, twists), min_size=1, max_size=8).map(tuple)
)


def equal_copy(c):
    """An inertial class equal to `c` that shares neither its label nor its spin object."""
    rho = c.rho
    return InertialClass(WeilLabel(rho.id, rho.dim, rho.unitary_det),
                         F(c.spin_j.numerator, c.spin_j.denominator))


# every class at least twice, as distinct but equal instances
copied_params = st.lists(st.tuples(classes, twists, twists), min_size=1, max_size=4).map(
    lambda rows: LParameter(tuple(
        summand for c, a, b in rows for summand in ((c, a), (equal_copy(c), b)))))


def cls(label=TRIVIAL, j=0):
    return InertialClass(label, F(j))


def test_dimension_examples():
    assert dimension(LParameter(((cls(j=1), ONE),))) == 3
    # the unramified GL(3) parameter shape: psi_1 (x) 1  (+)  psi_2 (x) spin(1/2)
    phi = LParameter(((cls(), ONE), (cls(j=F(1, 2)), ONE)))
    assert dimension(phi) == 3
    assert dimension(LParameter(((InertialClass(WeilLabel("a", 2), F(1, 2)), ONE),))) == 4


def test_orbit_of_groups_equal_classes():
    phi = LParameter(((cls(), QScalar(F(1), F(0))), (cls(), QScalar(F(0), F(1, 3)))))
    orbit = orbit_of(phi)
    assert orbit.classes == ((cls(), 2),)
    assert orbit_shape(orbit) == (1, 1)


def test_orbit_of_distinct_classes():
    phi = LParameter(((cls(), ONE), (cls(j=F(1, 2)), ONE)))
    orbit = orbit_of(phi)
    assert orbit.k == 2
    assert orbit_shape(orbit) == (0, 2)


def test_orbit_of_single_summand():
    orbit = orbit_of(LParameter(((cls(j=2), ONE),)))
    assert orbit.k == 1 and orbit_shape(orbit) == (0, 1)


def test_orbit_shape_examples():
    assert orbit_shape(OrbitDescriptor(((cls(), 2),))) == (1, 1)
    assert orbit_shape(OrbitDescriptor(((cls(), 1), (cls(j=1), 1)))) == (0, 2)
    assert orbit_shape(OrbitDescriptor(((cls(), 3),))) == (2, 1)


@given(params, twists)
def test_orbit_invariant_under_retwisting(phi, new_twist):
    # replacing any single twist never changes the orbit descriptor
    base = orbit_of(phi)
    for i in range(len(phi.summands)):
        summands = list(phi.summands)
        summands[i] = (summands[i][0], new_twist)
        assert orbit_of(LParameter(tuple(summands))) == base


@given(st.one_of(params, mixed_params, copied_params))
def test_unchecked_orbit_of_equals_its_checked_construction(phi):
    orbit = orbit_of(phi)
    assert orbit == OrbitDescriptor(tuple(Counter(c for c, _ in phi.summands).items()))
    # each entry is the first instance of its class in the parameter
    for c, _ in orbit.classes:
        assert next(d for d, _ in phi.summands if d == c) is c
    keys = [c.key() for c, _ in orbit.classes]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(type(m) is int and m >= 1 for _, m in orbit.classes)
    assert all(type(c.spin_j) is F for c, _ in orbit.classes)


def _run_lengths(phi):
    return [len(run) for run in parameters._class_runs(phi.summands)]


def test_class_runs_split_exactly_at_unequal_classes():
    a, b = WeilLabel("a"), WeilLabel("a")  # distinct objects of equal value
    twists = [QScalar(F(i), F(0)) for i in range(3)]
    # spins 0 and 1 are separate runs; 1/2 and 2/4 are one, as are equal labels
    assert _run_lengths(LParameter(((cls(j=0), ONE), (cls(j=1), ONE)))) == [1, 1]
    assert _run_lengths(LParameter(((cls(j=F(1, 2)), twists[0]),
                                    (cls(j=F(2, 4)), twists[1]),
                                    (InertialClass(TRIVIAL, F(1, 2)), twists[2])))) == [3]
    assert _run_lengths(LParameter(((InertialClass(a), twists[0]),
                                    (InertialClass(b), twists[1])))) == [2]
    assert _run_lengths(LParameter(((InertialClass(a), ONE), (InertialClass(WeilLabel("b")), ONE),
                                    (InertialClass(b), twists[1])))) == [2, 1]


@given(st.one_of(params, mixed_params, copied_params))
def test_class_runs_compare_no_class_and_no_fraction(phi):
    # the runs are the groups of equal classes in key order, found without a
    # class comparison, a Fraction comparison or a hash
    expected = [len(list(group)) for _, group in groupby(c.key() for c, _ in phi.summands)]

    def refuse(*args):
        raise AssertionError("compared or hashed a class or a Fraction")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("__eq__", "__ne__", "__hash__"):
            patch.setattr(InertialClass, name, refuse)
            patch.setattr(F, name, refuse)
        runs = list(parameters._class_runs(phi.summands))
    assert [len(run) for run in runs] == expected
    assert sum(runs, ()) == phi.summands


@given(params)
def test_shape_counts_summands(phi):
    l, k = orbit_shape(orbit_of(phi))
    assert l + k == len(phi.summands)
    assert k >= 1 and l >= 0


@given(params)
def test_dimension_additive_and_canonical(phi):
    assert dimension(phi) == sum(c.dimension for c, _ in phi.summands)
    assert LParameter(tuple(reversed(phi.summands))) == phi


def test_is_tempered():
    unit_twists = LParameter(((cls(), QScalar(F(0), F(1, 7))), (cls(j=1), ONE)))
    assert is_tempered(unit_twists)
    assert not is_tempered(LParameter(((cls(), QScalar(F(1, 2), F(0))),)))
    bad_det = InertialClass(WeilLabel("b", 1, False), F(0))
    assert not is_tempered(LParameter(((bad_det, ONE),)))


def test_is_supercuspidal():
    assert is_supercuspidal(LParameter(((InertialClass(WeilLabel("x", 5), F(0)), ONE),)))
    assert not is_supercuspidal(LParameter(((cls(j=1), ONE),)))
    assert not is_supercuspidal(LParameter(((cls(), ONE), (cls(j=1), ONE))))


def test_is_discrete_series():
    assert is_discrete_series(LParameter(((cls(j=F(1, 2)), QScalar(F(0), F(1, 3))),)))
    assert not is_discrete_series(LParameter(((cls(), ONE), (cls(), ONE))))
    assert not is_discrete_series(LParameter(((cls(j=F(1, 2)), QScalar(F(1, 2), F(0))),)))


def test_steinberg_parameter():
    st3 = steinberg_parameter(3)
    assert st3.summands == ((InertialClass(TRIVIAL, F(1)), ONE),)
    assert steinberg_parameter(1).summands[0][0].spin_j == 0
    assert steinberg_parameter(2).summands[0][0].spin_j == F(1, 2)
    assert dimension(steinberg_parameter(7)) == 7
    with pytest.raises(ValueError):
        steinberg_parameter(0)


def test_steinberg_is_discrete_but_not_supercuspidal():
    st2 = steinberg_parameter(2)
    assert is_discrete_series(st2) and is_tempered(st2) and not is_supercuspidal(st2)


def test_spin_must_be_half_integral():
    with pytest.raises(ValueError):
        InertialClass(TRIVIAL, F(1, 3))
    with pytest.raises(ValueError):
        InertialClass(TRIVIAL, F(-1, 2))


def test_spin_is_exact():
    with pytest.raises(TypeError):
        InertialClass(TRIVIAL, 0.5)
    assert InertialClass(TRIVIAL, 1).spin_j == F(1)
    assert InertialClass(TRIVIAL, F(3, 2)).spin_j == F(3, 2)


def test_label_validation():
    with pytest.raises(ValueError):
        WeilLabel("", 1)
    with pytest.raises(ValueError):
        WeilLabel("x", 0)
    # same id with conflicting attributes is rejected at the sum level
    with pytest.raises(ValueError):
        LParameter(
            (
                (InertialClass(WeilLabel("x", 1), F(0)), ONE),
                (InertialClass(WeilLabel("x", 2), F(0)), ONE),
            )
        )


def test_a_parameter_needs_a_summand():
    with pytest.raises(ValueError, match="at least one summand"):
        LParameter(())


def test_orbit_descriptor_validation():
    with pytest.raises(ValueError):
        OrbitDescriptor(())
    with pytest.raises(ValueError):
        OrbitDescriptor(((cls(), 0),))
    with pytest.raises(ValueError):
        OrbitDescriptor(((cls(), 1), (cls(), 2)))
    # order-insensitive equality
    a = OrbitDescriptor(((cls(), 1), (cls(j=1), 2)))
    b = OrbitDescriptor(((cls(j=1), 2), (cls(), 1)))
    assert a == b


@given(params)
def test_parameter_json_round_trip(phi):
    assert LParameter.from_json(phi.to_json()) == phi


def test_json_shape():
    phi = LParameter(((cls(j=F(1, 2)), ONE),))
    data = phi.to_json()
    assert data == {
        "summands": [
            {
                "rho": {"id": "triv", "dim": 1, "unitary_det": True},
                "j": "1/2",
                "twist": {"q_exp": "0", "turn": "0"},
            }
        ]
    }


@pytest.mark.parametrize("field, value", [
    ("dim", True), ("dim", 2.0), ("unitary_det", "false"), ("j", True), ("j", 0.5),
    ("j", "1e400"),
])
def test_from_json_refuses_inexact_fields(field, value):
    data = {"rho": {"id": "a", "dim": 1, "unitary_det": True}, "j": "1/2"}
    (data["rho"] if field in data["rho"] else data)[field] = value
    with pytest.raises(ValueError):
        InertialClass.from_json(data)


def test_orbit_from_json_refuses_bool_multiplicity():
    data = OrbitDescriptor(((cls(), 1),)).to_json()
    assert OrbitDescriptor.from_json(data).multiplicities == (1,)
    data["classes"][0]["multiplicity"] = True
    with pytest.raises(ValueError):
        OrbitDescriptor.from_json(data)
