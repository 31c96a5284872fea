"""Exact arithmetic in the subgroup q^Q * (rational-angle units) of the punctured plane.

Every coordinate that appears in the orbit, quotient and q-projection formulas
is a point q^a * e^(2*pi*i*u) with a, u rational and q a fixed indeterminate
q > 1.  Keeping (a, u) as exact fractions makes equality, sorting and fiber
membership decidable; a numeric q enters only in :meth:`QScalar.to_complex`.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction

from ._value import Value, _json_field, set_field

__all__ = ["QScalar", "ONE", "q_power", "unit", "exact_int", "exact_rational",
           "MAX_DECIMAL_EXPONENT"]

# A decimal exponent builds a power of ten: "1e400" is five characters of text
# but a 401-digit integer.  Parsed rationals with a larger exponent are refused
# while still text.
MAX_DECIMAL_EXPONENT = 100

# underscores only between digits, as int() reads them: '1e_' is refused as text
_EXPONENT = re.compile(r"[eE]\s*([-+]?[0-9](?:_?[0-9])*)\s*$")


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError("exact rational required, got %s %r" % (type(x).__name__, x))
    return Fraction(x)


def _integer(x, what: str) -> int:
    """`x` if it is an int and not a bool; a float, bool or string is refused."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError("%s must be an integer, got %r" % (what, x))
    return x


def _refuse_digit_variants(text: str, what: str) -> None:
    # int() and Fraction() also read underscores between digits and the
    # digits of other scripts: '1_0' and '\u0661\u0660' are both 10.
    if not text.isascii() or "_" in text:
        raise ValueError("%s must be written in ASCII digits without underscores, got %r"
                         % (what, text))


def _refuse_long_digits(text: str, what: str) -> None:
    # int() and Fraction() refuse a run of more digits than the interpreter's
    # limit (4300 by default, none before Python 3.10.7); refused here in a
    # message that echoes none of them
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and re.search("[0-9]{%d}" % (limit + 1), text):
        raise ValueError("%s has more than %d digits" % (what, limit))


def exact_int(value, what: str) -> int:
    """A parsed integer: an int or a string of ASCII digits with an optional
    sign, never a bool or a float; anything else is refused by the name `what`."""
    if type(value) is str:
        _refuse_digit_variants(value, what)
    try:
        if type(value) in (int, str):
            return int(value)
    except ValueError:
        _refuse_long_digits(value, what)
    raise ValueError("%s must be an integer, got %r" % (what, value))


def exact_rational(value, what: str) -> Fraction:
    """A parsed rational: an int or a string such as '3', '-1/2', '0.25' or
    '1e-3', in ASCII digits.

    Bools, floats and text that does not parse ('abc', '1/0') are refused by the
    name `what`, as is a decimal exponent beyond MAX_DECIMAL_EXPONENT, while text.
    """
    if type(value) is str:
        m = _EXPONENT.search(value)
        if m and abs(int(m.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError("%s has a decimal exponent beyond %d: %r"
                             % (what, MAX_DECIMAL_EXPONENT, value))
        _refuse_digit_variants(value, what)
    try:
        if type(value) in (int, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        _refuse_long_digits(value, what)
    raise ValueError("%s must be an integer or a rational string, got %r" % (what, value))


class QScalar(Value, order=True):
    """The exact point q^q_exp * e^(2*pi*i*turn), with turn reduced into [0, 1).

    Ordered by q_exp, then by turn.
    """

    _fields = ("q_exp", "turn")

    def __init__(self, q_exp: Fraction, turn: Fraction):
        set_field(self, "q_exp", q_exp)
        set_field(self, "turn", turn)
        self.__post_init__()

    def __post_init__(self):
        # a method of its own: the traced benchmark run (bench/layers.py)
        # patches it to count the checked constructions
        set_field(self, "q_exp", _fraction(self.q_exp))
        set_field(self, "turn", _fraction(self.turn) % 1)

    def __mul__(self, other: QScalar) -> QScalar:
        return QScalar(self.q_exp + other.q_exp, self.turn + other.turn)

    def inverse(self) -> QScalar:
        return QScalar(-self.q_exp, -self.turn)

    def __pow__(self, n: int) -> QScalar:
        return QScalar(self.q_exp * n, self.turn * n)

    def unit_part(self) -> QScalar:
        """Strip the modulus: |z|^(-1) * z.  Idempotent; |q^a| = q^a exactly."""
        return QScalar(Fraction(0), self.turn)

    def q_shift(self, h) -> QScalar:
        """Multiply by q^h."""
        return QScalar(self.q_exp + _fraction(h), self.turn)

    def is_unit(self) -> bool:
        return self.q_exp == 0

    def to_complex(self, q: float) -> complex:
        """Evaluate at a finite numeric q > 1 (floating point).

        Raises ValueError for any other q, and when |z| = q^q_exp overflows a
        float or underflows to 0, which is not a point of the punctured plane.
        """
        if not 1 < q < math.inf:
            raise ValueError("q must be a finite real number > 1, got %r" % q)
        try:
            modulus = float(q) ** float(self.q_exp)
        except OverflowError:
            modulus = math.inf
        if not 0 < modulus < math.inf:
            raise ValueError("q^%s is out of float range at q = %r" % (self.q_exp, q))
        return modulus * cmath.exp(2j * cmath.pi * float(self.turn))

    def __str__(self) -> str:
        parts = []
        if self.q_exp != 0:
            parts.append("q" if self.q_exp == 1 else "q^%s" % self.q_exp)
        if self.turn != 0:
            parts.append("e(%s)" % self.turn)
        return "*".join(parts) or "1"

    def to_json(self) -> dict:
        return {"q_exp": str(self.q_exp), "turn": str(self.turn)}

    @classmethod
    def from_json(cls, data: dict, path: str = "") -> QScalar:
        return cls(_json_field(data, "q_exp", exact_rational, path),
                   _json_field(data, "turn", exact_rational, path))


ONE = QScalar(Fraction(0), Fraction(0))


def q_power(a) -> QScalar:
    """The positive real point q^a."""
    return QScalar(_fraction(a), Fraction(0))


def unit(turn) -> QScalar:
    """The unit-circle point e^(2*pi*i*turn)."""
    return QScalar(Fraction(0), _fraction(turn))
