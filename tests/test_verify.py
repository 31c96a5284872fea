"""Sanity and sensitivity tests for the regression harness itself."""

from fractions import Fraction as F

import gldual.qproj
import gldual.scalars
import gldual.verify as verify
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


def test_check_results_report_budgets():
    result = verify.check_gl2_projection()
    assert result.budget == 0.001
    assert result.seconds < result.budget
