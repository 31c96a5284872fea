"""The tempering retraction onto the tempered dual, with its linear homotopy.

On every carrier the map is coordinatewise z -> z/|z|.  Since |q^a * u| = q^a
exactly, stripping the modulus is exact rational arithmetic and the retraction
is genuinely idempotent, not idempotent up to rounding.  The homotopy scales
each modulus exponent by (1 - t), so t = 0 is the identity and t = 1 the
retraction, and neither the inertial classes of a parameter nor the stratum of
a point ever change along the way.

On a parameter, which was checked when it was built, the new twists keep its
reduced turns and the classes stay, so both maps build their output unchecked
through `LParameter._trusted` and `QScalar._trusted`; the point maps use the
checked constructors.  A parameter keeps its summands sorted by (class key,
q_exp, turn).  For t < 1 the homotopy multiplies every q_exp by s = 1 - t > 0,
which keeps that order exactly, so it builds its output in the input's order.
Only tempering re-sorts, `temper_parameter` and the homotopy at t = 1: every
q_exp becomes 0 there, and the turns then order the summands of each class.
"""

from __future__ import annotations

from fractions import Fraction

from .parameters import LParameter, _retwisted
from .qproj import StratumPoint
from .scalars import QScalar, _fraction

__all__ = [
    "temper_parameter",
    "homotopy",
    "temper_point",
    "homotopy_point",
]

_ZERO = Fraction(0)  # the modulus exponent of every tempered twist


def temper_parameter(phi: LParameter) -> LParameter:
    """Replace every twist by its unit part."""
    scalar = QScalar._trusted
    return _retwisted([(cls, scalar(_ZERO, twist.turn)) for cls, twist in phi.summands])


def _check_t(t) -> Fraction:
    t = _fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("homotopy parameter must lie in [0, 1], got %s" % t)
    return t


def homotopy(phi: LParameter, t) -> LParameter:
    """Contract the twist moduli by (1 - t); t = 0 is the identity, t = 1 tempers."""
    s = 1 - _check_t(t)
    scalar = QScalar._trusted
    summands = [(cls, scalar(s * twist.q_exp, twist.turn)) for cls, twist in phi.summands]
    # s > 0 keeps the (class key, q_exp, turn) order; s = 0 tempers, which re-sorts
    return LParameter._trusted(tuple(summands)) if s else _retwisted(summands)


def temper_point(point: StratumPoint) -> StratumPoint:
    """Coordinatewise unit part on a stratum point; the stratum is unchanged."""
    return StratumPoint(point.stratum, tuple(z.unit_part() for z in point.coords))


def homotopy_point(point: StratumPoint, t) -> StratumPoint:
    t = _check_t(t)
    return StratumPoint(
        point.stratum, tuple(QScalar((1 - t) * z.q_exp, z.turn) for z in point.coords)
    )
