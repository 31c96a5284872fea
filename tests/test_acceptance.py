"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them live.  The checks themselves (exact values, exactness requirements
and runtime budgets) live in gldual.verify, which the CLI `verify` verb also runs.
"""

from gldual import verify


def _report(result):
    line = "%s %s: %s (%.3fs%s)" % (
        "PASS" if result.passed else "FAIL",
        result.name,
        result.detail,
        result.seconds,
        "" if result.budget is None else " / budget %.3fs" % result.budget,
    )
    print(line)
    assert result.passed, line


def test_criterion_1_gl2_q_projection():
    _report(verify.check_gl2_projection())


def test_criterion_2_gl3_projection_and_fiber():
    _report(verify.check_gl3_fiber())


def test_criterion_3_extended_quotient_strata():
    _report(verify.check_strata_shapes())


def test_criterion_4_hp_dimensions():
    _report(verify.check_hp_values())


def test_criterion_5_hp_orbit_count_consistency_sweep():
    _report(verify.check_hp_consistency_sweep())


def test_criterion_6_tempering_retraction():
    _report(verify.check_retraction_properties())


def test_criterion_7_fiber_soundness_and_completeness():
    _report(verify.check_fiber_oracle(samples=500, seed=20250810))


def test_criterion_8_symmetric_coordinates_round_trip():
    _report(verify.check_symfun_roundtrip(samples_per_degree=200, seed=20250810))
