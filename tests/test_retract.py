from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gldual import parameters
from gldual.bernstein import Component, CycleType, Stratum, enumerate_orbits
from gldual.cohomology import orbit_poincare, tempered_orbit_poincare
from gldual.parameters import (
    TRIVIAL,
    InertialClass,
    LParameter,
    OrbitDescriptor,
    WeilLabel,
    is_tempered,
    orbit_of,
)
from gldual.qproj import StratumPoint, SymPoint, project
from gldual.retract import (
    homotopy,
    homotopy_point,
    temper_parameter,
    temper_point,
)
from gldual.scalars import ONE, QScalar, q_power

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
twists = st.builds(QScalar, rationals, rationals)
classes = st.builds(
    InertialClass,
    st.sampled_from([TRIVIAL, WeilLabel("a", 2, True)]),
    st.sampled_from([F(0), F(1, 2), F(1)]),
)
params = st.builds(
    LParameter, st.lists(st.tuples(classes, twists), min_size=1, max_size=4).map(tuple)
)
times = st.fractions(min_value=0, max_value=1, max_denominator=8)
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


def assert_canonical(phi):
    """Exact twists with turns in [0, 1), and summands in the constructor's key order."""
    for _, tw in phi.summands:
        assert type(tw.q_exp) is F and type(tw.turn) is F
        assert 0 <= tw.turn < 1
    keys = [(c.key(), tw.q_exp, tw.turn) for c, tw in phi.summands]
    assert keys == sorted(keys)


def test_temper_parameter_examples():
    cls = InertialClass(TRIVIAL, F(0))
    phi = LParameter(((cls, QScalar(F(3, 2), F(1, 4))),))
    assert temper_parameter(phi).summands[0][1] == QScalar(F(0), F(1, 4))

    already = LParameter(((cls, QScalar(F(0), F(1, 3))),))
    assert temper_parameter(already) == already

    # unramified GL(3): twists q and q^(-1/2) both land on 1
    gl3 = LParameter(
        ((cls, q_power(1)), (InertialClass(TRIVIAL, F(1, 2)), q_power(F(-1, 2))))
    )
    assert all(tw == ONE for _, tw in temper_parameter(gl3).summands)


@given(params)
def test_temper_is_idempotent(phi):
    once = temper_parameter(phi)
    assert temper_parameter(once) == once


@given(st.one_of(params, mixed_params))
def test_unchecked_temper_equals_its_checked_construction(phi):
    result = temper_parameter(phi)
    assert result == LParameter(tuple((c, tw.unit_part()) for c, tw in phi.summands))
    assert_canonical(result)


@given(st.one_of(params, mixed_params), st.one_of(times, st.sampled_from([0, 1])))
def test_unchecked_homotopy_equals_its_checked_construction(phi, t):
    result = homotopy(phi, t)
    assert result == LParameter(
        tuple((c, QScalar((1 - t) * tw.q_exp, tw.turn)) for c, tw in phi.summands))
    assert_canonical(result)


@given(st.one_of(params, mixed_params))
def test_temper_sorts_the_turns_within_each_run(phi):
    # the whole-parameter sort by the canonical key, as an oracle: the same
    # summands in the same order, each class instance kept with its own twist
    oracle = sorted(((c, tw.unit_part()) for c, tw in phi.summands), key=parameters._summand_key)
    result = temper_parameter(phi).summands
    assert result == tuple(oracle)
    assert all(c is d for (c, _), (d, _) in zip(result, oracle))


@given(st.one_of(params, mixed_params))
def test_orbit_and_homotopy_read_the_canonical_order(phi):
    # none of them hashes a class or computes a sort key: the checked
    # parameter's order is used as it is
    orbit = OrbitDescriptor(tuple(Counter(c for c, _ in phi.summands).items()))
    moved = LParameter(tuple((c, QScalar(tw.q_exp / 2, tw.turn)) for c, tw in phi.summands))
    tempered = LParameter(tuple((c, tw.unit_part()) for c, tw in phi.summands))

    def refuse(*args):
        raise AssertionError("hashed a class or computed a sort key")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(InertialClass, "__hash__", refuse)
        patch.setattr(parameters, "_class_key", refuse)
        patch.setattr(parameters, "_summand_key", refuse)
        assert orbit_of(phi) == orbit
        assert homotopy(phi, F(1, 2)).summands == moved.summands
        assert temper_parameter(phi).summands == tempered.summands
        assert homotopy(phi, 1).summands == tempered.summands
        assert homotopy(phi, 0) is phi


@given(params)
def test_homotopy_endpoints(phi):
    assert homotopy(phi, 0) is phi
    assert homotopy(phi, F(0)) is phi
    assert homotopy(phi, 1) == temper_parameter(phi)


@given(params, times)
def test_homotopy_preserves_orbit(phi, t):
    assert orbit_of(homotopy(phi, t)) == orbit_of(phi)


def test_homotopy_scales_linearly():
    cls = InertialClass(TRIVIAL, F(0))
    phi = LParameter(((cls, QScalar(F(1), F(1, 8))),))
    assert homotopy(phi, F(1, 2)).summands[0][1] == QScalar(F(1, 2), F(1, 8))


def test_homotopy_rejects_out_of_range():
    phi = LParameter(((InertialClass(TRIVIAL, F(0)), ONE),))
    for bad in (F(-1, 2), F(3, 2), 2):
        with pytest.raises(ValueError):
            homotopy(phi, bad)
        with pytest.raises(ValueError):
            homotopy_point(
                StratumPoint(
                    Stratum(Component.from_exponents((1,)), CycleType(((1,),))), (ONE,)
                ),
                bad,
            )


@given(params)
def test_temper_fixes_exactly_unit_twists(phi):
    fixed = temper_parameter(phi) == phi
    assert fixed == all(tw.is_unit() for _, tw in phi.summands)


@given(params)
def test_tempered_output_is_tempered_when_dets_unitary(phi):
    result = temper_parameter(phi)
    if all(cls.rho.unitary_det for cls, _ in phi.summands):
        assert is_tempered(result)
    else:
        assert not is_tempered(result)


def test_temper_point_examples():
    c3 = Component.from_exponents((3,))
    cycle3 = Stratum(c3, CycleType(((3,),)))
    before = StratumPoint(cycle3, (q_power(2),))
    after = temper_point(before)
    assert after.coords == (ONE,)
    assert after.stratum == before.stratum
    # images before and after: {q^3, q^2, q} collapses onto {q, 1, q^-1}
    assert project(before) == SymPoint(((q_power(3), q_power(2), q_power(1)),))
    assert project(after) == SymPoint(((q_power(1), ONE, q_power(-1)),))

    mixed = StratumPoint(
        Stratum(Component.from_exponents((2,)), CycleType(((1, 1),))),
        (q_power(1), QScalar(F(-1, 2), F(1, 3))),
    )
    assert temper_point(mixed).coords == (ONE, QScalar(F(0), F(1, 3)))
    unit_point = StratumPoint(cycle3, (QScalar(F(0), F(2, 5)),))
    assert temper_point(unit_point) == unit_point


def test_point_homotopy_endpoints():
    c3 = Component.from_exponents((3,))
    s = Stratum(c3, CycleType(((2, 1),)))
    point = StratumPoint(s, (q_power(2), QScalar(F(1), F(1, 3))))
    assert homotopy_point(point, 0) == point
    assert homotopy_point(point, 1) == temper_point(point)
    assert homotopy_point(point, F(1, 2)).coords == (
        q_power(1),
        QScalar(F(1, 2), F(1, 3)),
    )


def test_homotopy_time_is_exact():
    phi = LParameter(((InertialClass(TRIVIAL, F(0)), q_power(1)),))
    point = StratumPoint(Stratum(Component.from_exponents((1,)), CycleType(((1,),))),
                         (q_power(1),))
    # a float is refused, not snapped: 0.1 would move q^1 to q^(32425917317067571/2^55)
    for t in (0.5, 0.1):
        with pytest.raises(TypeError):
            homotopy(phi, t)
        with pytest.raises(TypeError):
            homotopy_point(point, t)
    assert homotopy(phi, 1) == homotopy(phi, F(1)) == temper_parameter(phi)
    assert homotopy_point(point, F(1, 2)).coords == (q_power(F(1, 2)),)


def test_compact_orbit():
    # the compact orbit is prod(Sym^{l_i} T) for the multiplicities (l_1, ..., l_k)
    orbit = OrbitDescriptor(((InertialClass(TRIVIAL, F(0)), 1),))
    assert orbit.multiplicities == (1,)
    doubled = OrbitDescriptor(((InertialClass(TRIVIAL, F(0)), 2),))
    assert doubled.multiplicities == (2,)
    two = OrbitDescriptor(
        ((InertialClass(WeilLabel("a"), F(0)), 1), (InertialClass(WeilLabel("b"), F(0)), 1))
    )
    assert two.multiplicities == (1, 1)
    # every determinant is unitary, so the compact orbit is defined
    for o in (orbit, doubled, two):
        assert tempered_orbit_poincare(o)[0] == 1


def test_compact_orbit_rejects_non_unitary_det():
    orbit = OrbitDescriptor(((InertialClass(WeilLabel("x", 1, False), F(0)), 1),))
    with pytest.raises(ValueError, match="'x' has non-unitary determinant; the compact orbit "
                                         "is undefined"):
        tempered_orbit_poincare(orbit)


def test_orbit_cohomology_matches_compact_orbit_cohomology():
    for exponents in [(3,), (2, 2), (4, 1)]:
        for orbit in enumerate_orbits(Component.from_exponents(exponents)):
            assert orbit_poincare(orbit) == tempered_orbit_poincare(orbit)
