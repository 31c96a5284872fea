"""Sanity and sensitivity tests for the regression harness itself."""

import time
from fractions import Fraction as F

import pytest

import gldual.partitions
import gldual.qproj
import gldual.scalars
import gldual.verify as verify
from gldual.bernstein import Component
from gldual.errors import LimitExceeded
from gldual.qproj import q_string


def test_run_all_wiring_with_reduced_samples():
    results = verify.run_all(seed=1, fiber_samples=25, sym_samples=5)
    assert [r.name for r in results] == [
        "gl2_q_projection",
        "gl3_q_projection_and_fiber",
        "extended_quotient_strata",
        "hp_dimensions",
        "hp_orbit_count_consistency",
        "tempering_retraction",
        "fiber_soundness_completeness",
        "symmetric_coordinates_roundtrip",
    ]
    assert all(r.passed for r in results)
    for r in results:
        data = r.to_json()
        assert set(data) >= {"name", "passed", "detail", "seconds"}


@pytest.mark.parametrize("counts", [{"fiber_samples": verify.SAMPLE_LIMIT + 1},
                                    {"sym_samples": verify.SAMPLE_LIMIT + 1},
                                    {"fiber_samples": 10 ** 8}])
def test_run_all_refuses_sample_counts_above_the_limit(monkeypatch, counts):
    # a count at the limit runs for minutes, so only the refusal is tested
    def unreachable(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_gl2_projection", unreachable)
    with pytest.raises(LimitExceeded, match=r"^(fiber|sym)_samples \d+ exceeds the sample limit "
                                            r"10000$"):
        verify.run_all(**counts)


@pytest.mark.parametrize("counts", [{"fiber_samples": True}, {"fiber_samples": 2.5},
                                    {"sym_samples": "2"}], ids=repr)
def test_run_all_refuses_sample_counts_that_are_not_ints(monkeypatch, counts):
    # refused before any check: a bool ran one sample, and 2.5 raised only
    # after six checks had run
    def unreachable(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_gl2_projection", unreachable)
    (name, count), = counts.items()
    with pytest.raises(TypeError, match="^%s must be an integer, got %r$" % (name, count)):
        verify.run_all(**counts)


def test_centered_string_is_symmetric_under_full_sign_flip():
    # inverting every shift maps a centered string to itself, so that flip is
    # invisible; the step sign below is the flip the harness must catch
    z = gldual.scalars.QScalar(F(1, 3), F(1, 7))
    for alpha in (1, 2, 3, 4):
        flipped = tuple(
            sorted(z.q_shift(-F(alpha - 1, 2) + i) for i in range(alpha))
        )
        assert q_string(alpha, z) == flipped


def test_gl3_regression_detects_string_step_sign_flip(monkeypatch):
    # a build whose strings climb one-sidedly from the center must fail GL(3)
    def one_sided(alpha, z, scale=F(1)):
        return tuple(sorted(z.q_shift(scale * (F(alpha - 1, 2) + i)) for i in range(alpha)))

    monkeypatch.setattr(gldual.qproj, "q_string", one_sided)
    assert not verify.check_gl3_fiber().passed
    monkeypatch.undo()
    assert gldual.qproj.q_string is q_string
    assert verify.check_gl3_fiber().passed


def test_hp_regression_detects_total_dimension_misread(monkeypatch):
    # reading the dimension formula as the total (both parities summed)
    # doubles the prediction and must fail the per-parity consistency check
    original = verify.orbit_hp_dimension
    monkeypatch.setattr(verify, "orbit_hp_dimension", lambda c, *a, **kw: 2 * original(c))
    assert not verify.check_hp_values().passed
    assert not verify.check_hp_consistency_sweep().passed


def test_hp_regression_detects_a_corrupted_overpartition_count(monkeypatch):
    # one wrong entry of the table behind the closed form, p̄(4) = 14 read as 16,
    # must disagree with the strata, orbit and Molien walks
    gldual.partitions.overpartition_count(8)
    table = list(gldual.partitions._OVERPARTITIONS)
    table[4] += 2
    monkeypatch.setattr(gldual.partitions, "_OVERPARTITIONS", table)
    assert not verify.check_hp_values().passed
    assert not verify.check_hp_consistency_sweep().passed
    monkeypatch.undo()
    assert verify.check_hp_values().passed
    assert verify.check_hp_consistency_sweep().passed


def test_a_check_over_its_budget_fails():
    result = verify._result("late", True, "ok", time.perf_counter() - 1.0, budget=0.5)
    assert not result.passed
    assert result.detail.startswith("ok [over budget: ")
    assert result.seconds >= 1.0


def test_fiber_oracle_counts_a_dropped_point_as_a_mismatch(monkeypatch):
    # no fiber is empty (the identity stratum reaches every point), so dropping
    # one point of it always differs from the brute force
    monkeypatch.setattr(verify, "fiber", lambda y, c: gldual.qproj.fiber(y, c)[1:])
    result = verify.check_fiber_oracle(samples=1)
    assert not result.passed
    assert "1 random points, 1 mismatches" in result.detail


def test_fiber_oracle_fails_when_a_point_does_not_re_project(monkeypatch):
    # the first projection builds the query; every later one, of a returned
    # point, is moved by q, so fiber and brute force agree but re-projection fails
    calls = []

    def project(point):
        calls.append(point)
        image = gldual.qproj.project(point)
        if len(calls) == 1:
            return image
        return gldual.qproj.SymPoint(tuple(tuple(z.q_shift(1) for z in block)
                                           for block in image.blocks))

    monkeypatch.setattr(verify, "project", project)
    result = verify.check_fiber_oracle(samples=1)
    assert len(calls) > 1
    assert not result.passed
    assert "1 random points, 0 mismatches" in result.detail


def test_check_results_report_budgets():
    result = verify.check_gl2_projection()
    assert result.budget == 0.001
    assert result.seconds < result.budget


def test_fiber_reference_refuses_a_degree_above_its_limit():
    # the brute force grows about 15x per degree: refused before any candidate is built
    n = verify.REFERENCE_LIMIT + 1
    component = Component.from_exponents((n,))
    point = gldual.qproj.SymPoint((tuple(gldual.scalars.q_power(i) for i in range(n)),))
    with pytest.raises(LimitExceeded, match="exceeds the reference limit 5"):
        verify.fiber_reference(point, component)
