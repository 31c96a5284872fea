import cmath
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gldual.scalars import ONE, QScalar, exact_int, exact_rational, q_power, unit

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
qscalars = st.builds(QScalar, rationals, rationals)


def test_mul_examples():
    assert QScalar(F(1, 2), F(0)) * QScalar(F(1, 2), F(0)) == QScalar(F(1), F(0))
    assert QScalar(F(0), F(3, 4)) * QScalar(F(0), F(1, 2)) == QScalar(F(0), F(1, 4))
    assert QScalar(F(1), F(1, 3)) * QScalar(F(-1), F(2, 3)) == ONE


def test_unit_part_examples():
    assert QScalar(F(3, 2), F(1, 4)).unit_part() == QScalar(F(0), F(1, 4))
    assert QScalar(F(0), F(1, 4)).unit_part() == QScalar(F(0), F(1, 4))
    assert QScalar(F(-2), F(0)).unit_part() == ONE


def test_q_shift_examples():
    assert ONE.q_shift(F(1, 2)) == QScalar(F(1, 2), F(0))
    assert QScalar(F(-1, 2), F(1, 8)).q_shift(F(1, 2)) == QScalar(F(0), F(1, 8))
    assert QScalar(F(1), F(0)).q_shift(-2) == QScalar(F(-1), F(0))


def test_to_complex_examples():
    assert QScalar(F(1), F(0)).to_complex(9) == pytest.approx(9 + 0j)
    assert QScalar(F(0), F(1, 2)).to_complex(4) == pytest.approx(-1 + 0j)
    assert QScalar(F(1, 2), F(0)).to_complex(4) == pytest.approx(2 + 0j)


def test_to_complex_rejects_small_q():
    with pytest.raises(ValueError):
        ONE.to_complex(1)
    with pytest.raises(ValueError):
        ONE.to_complex(0.5)


@pytest.mark.parametrize("q", [float("inf"), float("nan"), -float("inf")])
def test_to_complex_rejects_non_finite_q(q):
    # inf ** -3 would be a silent 0.0, inf ** 3 an Infinity
    for z in (q_power(-3), ONE, q_power(3)):
        with pytest.raises(ValueError):
            z.to_complex(q)


def test_to_complex_out_of_float_range_is_a_value_error():
    # overflow was an uncaught OverflowError, underflow a silent 0.0
    for a in (2000, -2000):
        with pytest.raises(ValueError, match="out of float range"):
            q_power(a).to_complex(9)
    assert q_power(300).to_complex(9).real > 1e285  # large but representable
    assert 0 < q_power(-330).to_complex(9).real < 1e-310  # subnormal, not zero


def test_exact_parsers_refuse_bools_floats_and_huge_exponents():
    assert exact_int(3, "n") == 3 and exact_int("3", "n") == 3
    assert exact_rational("-1/2", "x") == F(-1, 2) and exact_rational("0.25", "x") == F(1, 4)
    assert exact_rational("1e100", "x") == 10**100
    for bad in (True, False, 2.0, None, [1]):
        with pytest.raises(ValueError):
            exact_int(bad, "n")
        with pytest.raises(ValueError):
            exact_rational(bad, "x")
    for huge in ("1e400", "1E-400", "1e+101", "0e1_000_000_000"):
        with pytest.raises(ValueError, match="decimal exponent"):
            exact_rational(huge, "x")


def test_exact_parsers_read_ascii_digits_only():
    assert exact_int(" -12 ", "n") == -12 and exact_int("+4", "n") == 4
    assert exact_rational(".5", "x") == F(1, 2) and exact_rational("-1.5e-1", "x") == F(-3, 20)
    for bad in ("1_0", "\u0661\u0662", "\uff11"):
        with pytest.raises(ValueError, match="ASCII digits"):
            exact_int(bad, "n")
    # '1e_' and '1e1__0' were int()'s own "invalid literal" from the exponent check
    for bad in ("1_0", "1/2_0", "0.1_5", "\u0661\u0662", "1/\u0662", "1e\u0661\u0660", "1e_",
                "1e1__0"):
        with pytest.raises(ValueError, match="ASCII digits"):
            exact_rational(bad, "x")


def test_turn_is_normalized():
    assert QScalar(F(0), F(5, 4)).turn == F(1, 4)
    assert QScalar(F(0), F(-1, 4)).turn == F(3, 4)
    assert QScalar(F(0), F(7)).turn == F(0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        QScalar(0.5, F(0))


@given(qscalars, qscalars, qscalars)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(qscalars)
def test_identity_and_inverse(a):
    assert a * ONE == a
    assert a * a.inverse() == ONE


@given(qscalars, qscalars)
def test_unit_part_is_multiplicative_projection(a, b):
    assert a.unit_part().unit_part() == a.unit_part()
    assert (a * b).unit_part() == a.unit_part() * b.unit_part()


@given(qscalars, qscalars, st.floats(min_value=1.25, max_value=16))
def test_to_complex_homomorphism(a, b, q):
    lhs = (a * b).to_complex(q)
    rhs = a.to_complex(q) * b.to_complex(q)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12)


@given(st.lists(qscalars, min_size=1, max_size=8))
def test_sorting_is_canonical(values):
    once = sorted(values)
    assert sorted(reversed(once)) == once
    for x, y in zip(once, once[1:]):
        assert x < y or x == y


@given(qscalars)
def test_json_round_trip(a):
    assert QScalar.from_json(a.to_json()) == a


def test_json_shape():
    assert QScalar(F(1, 2), F(1, 3)).to_json() == {"q_exp": "1/2", "turn": "1/3"}


def test_str_forms():
    assert str(ONE) == "1"
    assert str(q_power(F(1, 2))) == "q^1/2"
    assert str(unit(F(1, 3))) == "e(1/3)"
    assert str(QScalar(F(1), F(1, 4))) == "q*e(1/4)"
