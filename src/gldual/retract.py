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
q_exp, turn).  For 0 < t < 1 the homotopy multiplies every q_exp by s = 1 - t > 0,
which keeps that order exactly, so it builds its output in the input's order.
Tempering makes every q_exp 0, so the turns alone order the summands within
each run of equal classes: `temper_parameter` sorts the runs of more than one
summand by turn and copies the others.  The homotopy returns its input at
t = 0 and the tempered parameter at t = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .parameters import LParameter, _class_runs
from .qproj import StratumPoint
from .scalars import QScalar, _fraction

__all__ = [
    "temper_parameter",
    "homotopy",
    "temper_point",
    "homotopy_point",
]

_ZERO = Fraction(0)  # the modulus exponent of every tempered twist


def _turn(summand):
    return summand[1].turn


def temper_parameter(phi: LParameter) -> LParameter:
    """Replace every twist by its unit part."""
    scalar = QScalar._trusted
    summands = []
    for run in _class_runs(phi.summands):
        tempered = [(cls, scalar(_ZERO, twist.turn)) for cls, twist in run]
        if len(tempered) > 1:
            tempered.sort(key=_turn)
        summands += tempered
    return LParameter._trusted(tuple(summands))


def _check_t(t) -> Fraction:
    t = _fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("homotopy parameter must lie in [0, 1], got %s" % t)
    return t


def homotopy(phi: LParameter, t) -> LParameter:
    """Contract the twist moduli by (1 - t); t = 0 is the identity, t = 1 tempers."""
    t = _check_t(t)
    if not t:
        return phi
    if t == 1:
        return temper_parameter(phi)
    # s = 1 - t = a/b in lowest terms; each modulus is scaled in integers
    a, b = t.denominator - t.numerator, t.denominator
    scalar = QScalar._trusted
    summands = []
    for cls, twist in phi.summands:
        q = twist.q_exp
        summands.append((cls, scalar(Fraction(a * q.numerator, b * q.denominator), twist.turn)))
    return LParameter._trusted(tuple(summands))


def temper_point(point: StratumPoint) -> StratumPoint:
    """Coordinatewise unit part on a stratum point; the stratum is unchanged."""
    return StratumPoint(point.stratum, tuple(z.unit_part() for z in point.coords))


def homotopy_point(point: StratumPoint, t) -> StratumPoint:
    t = _check_t(t)
    return StratumPoint(
        point.stratum, tuple(QScalar((1 - t) * z.q_exp, z.turn) for z in point.coords)
    )
