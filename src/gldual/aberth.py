"""Roots of a monic polynomial with complex double coefficients, in pure Python.

The root finder is the Aberth-Ehrlich simultaneous iteration (Aberth 1973,
Math. Comp. 27; Bini 1996, Numer. Algorithms 13) in two phases: at most
MAX_STEPS steps in complex doubles until every residual is under the Horner
rounding bound, then polish sweeps of the same correction with p/p' evaluated
exactly over the Gaussian integers (every double is an integer over a power of
two).  A sweep visits only the roots for which some root has moved since their
last visit, and each point is evaluated exactly once per call: the other roots
would stay put again, and the exact ratio is a function of the double alone.
A polished simple root is a fixed point of that correction, so it is
the double nearest a root of the exact polynomial that the coefficients
define, up to the one rounding of the correction.  A multiple root at a double
comes back exactly only at small multiplicity m: the root 2 for m <= 6, but as
a cluster of width 3.7e-3 for m = 7, 9.9e-3 for m = 8 and 9.7e-2 for m = 12.

:mod:`gldual.symfun` imports this module on its first root-finding call, so
``import gldual`` does not compile it.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import RootFindingError

__all__ = ["polyroots"]

MAX_STEPS = 100  # Aberth steps in doubles before RootFindingError
EPS = 2.0 ** -52  # spacing of the doubles at 1; the unit roundoff is EPS / 2
POLISH_SWEEPS = 8  # exact polish sweeps; a simple root settles in two or three
CLUSTER = 2.0 ** -10  # relative spread of approximants taken for one multiple root


def polyroots(c: list[complex]) -> list[complex]:
    """All roots, with multiplicity, of the monic polynomial with coefficients
    c (highest degree first, c[0] == 1, c[-1] != 0, all finite).

    Raises RootFindingError if the double-precision iteration has not
    converged after MAX_STEPS steps, if it overflows or divides by zero, or if
    a root still moving after the polish fails the exact-residual test.  A
    real or imaginary part below EPS times the other part is rounding noise of
    the complex iteration and is returned as zero.
    """
    # z = 2**s * w puts the largest roots w near the unit circle; the scaling is exact
    s = round(max(math.frexp(max(abs(x.real), abs(x.imag)))[1] / k
                  for k, x in enumerate(c) if k and x))
    b = [complex(math.ldexp(x.real, -s * k), math.ldexp(x.imag, -s * k)) for k, x in enumerate(c)]
    if max(abs(b[-1].real), abs(b[-1].imag)) < sys.float_info.min:  # zero or subnormal
        raise RootFindingError("the roots span more magnitudes than the doubles hold")
    exact = _Polynomial(c, s)
    pairs = [(x, abs(x)) for x in b[1:]]
    try:
        w = _aberth(_initial_guesses(b), pairs)
        _polish(exact, pairs, w)
        out = [complex(math.ldexp(x.real, s), math.ldexp(x.imag, s)) for x in w]
    except ArithmeticError as exc:  # an overflow or a zero divisor in double arithmetic
        raise RootFindingError("root finding failed in double arithmetic: %s" % exc) from exc
    return [complex(0.0 if abs(r.real) < EPS * abs(r.imag) else r.real,
                    0.0 if abs(r.imag) < EPS * abs(r.real) else r.imag) for r in out]


def _double_horner(pairs, w: complex):
    """(p, p', bound) at w in complex doubles, for the monic polynomial whose
    other coefficients b_k come with their magnitudes in pairs: bound is
    Horner's rounding bound on the computed p, 4n*EPS*sum |b_k| |w|^(n-k)."""
    r = abs(w)
    p, dp, bound = 1 + 0j, 0j, 1.0
    for x, mag in pairs:
        dp = dp * w + p
        p = p * w + x
        bound = bound * r + mag
    return p, dp, 4 * len(pairs) * EPS * bound


def _initial_guesses(b) -> list[complex]:
    """Bini's starting points: for each edge of the upper convex hull of
    (j, log|a_j|), a_j the coefficient of w^j, as many points as the edge is
    long on a circle whose radius the edge's slope gives."""
    n = len(b) - 1
    hull = []
    for j in range(n + 1):
        if not b[n - j]:
            continue
        point = (j, math.log(abs(b[n - j])))
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1]) \
                >= (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0]):
            hull.pop()
        hull.append(point)
    guesses = []
    for (i, yi), (k, yk) in zip(hull, hull[1:]):
        radius = math.exp((yi - yk) / (k - i))
        guesses += [cmath.rect(radius, 2 * math.pi * (j / (k - i) + i / n) + 0.7)
                    for j in range(k - i)]
    return guesses


def _aberth(w: list[complex], pairs) -> list[complex]:
    """Phase one: Aberth-Ehrlich steps in complex doubles from the guesses w.
    A root is frozen once its residual is under the rounding bound."""
    pending = list(range(len(w)))
    for _ in range(MAX_STEPS):
        still = []
        for i in pending:
            wi = w[i]
            p, dp, bound = _double_horner(pairs, wi)
            if abs(p) <= bound < math.inf:
                continue
            ratio = p / dp
            w[i] = wi - ratio / (1 - ratio * sum(1 / (wi - x) for x in w[:i] + w[i + 1:]))
            still.append(i)
        pending = still
        if not pending:
            return w
    raise RootFindingError("Aberth iteration did not converge in %d steps" % MAX_STEPS)


def _polish(exact: _Polynomial, pairs, w: list[complex]) -> None:
    """Phase two: Aberth sweeps with the exact Newton ratio, until no root
    moves.  Approximants still moving after POLISH_SWEEPS close in linearly
    on a multiple root: a cluster of m of them becomes the m-fold root when
    there is one at a double, and every other root must pass the rounding
    bound with its exact residual.

    A sweep visits a root only if some root has moved since its last visit:
    otherwise its ratio and its repulsion are what they were, and it stays put
    again.  A root that moves is visited in the next sweep.  Each point is
    evaluated exactly once per call: the ratio is a function of the double
    alone, and 0.0 and -0.0, which compare equal, are the same rational."""
    ratios = {}  # approximant -> exact.newton(approximant)

    def newton(z: complex):
        if z not in ratios:
            ratios[z] = exact.newton(z)
        return ratios[z]

    moves, visited = 0, [-1] * len(w)  # visited[i]: moves before the last visit of root i
    for _ in range(POLISH_SWEEPS):
        moved = []
        for i, wi in enumerate(w):
            if visited[i] == moves:
                continue
            visited[i] = moves
            ratio = newton(wi)
            if ratio == 0:  # an exact root
                continue
            repulsion = sum(1 / (wi - x) for x in w[:i] + w[i + 1:])
            # p' = 0 != p: the correction's limit as p/p' grows without bound
            new = wi + 1 / repulsion if ratio is None else wi - ratio / (1 - ratio * repulsion)
            if new != wi:
                if not cmath.isfinite(new):
                    raise RootFindingError("the polish step left the range of doubles")
                w[i] = new
                moved.append(i)
                moves += 1
        if not moved:
            return
    while moved:
        centre = w[moved[0]]
        cluster = [j for j in moved if abs(w[j] - centre) <= CLUSTER * abs(centre)]
        moved = [j for j in moved if j not in cluster]
        m = len(cluster)
        if m > 1:
            root = sum(w[j] for j in cluster) / m
            for _ in range(2):  # Schroeder's step m*p/p', quadratic on an m-fold root
                ratio = newton(root)
                if not ratio:
                    break
                root -= m * ratio
            if cmath.isfinite(root) and exact.has_root(root, m):
                for j in cluster:
                    w[j] = root
                continue
        if any(exact.residual(w[j]) > _double_horner(pairs, w[j])[2] for j in cluster):
            raise RootFindingError("the exact residual of a moving root exceeds the rounding "
                                   "bound after %d polish sweeps" % POLISH_SWEEPS)


def _dyadic(x: complex) -> tuple[int, int, int]:
    """(re, im, e) with x = (re + i*im) / 2**e exactly."""
    (a, da), (b, db) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    e = max(da, db).bit_length() - 1
    return a << e - da.bit_length() + 1, b << e - db.bit_length() + 1, e


class _Polynomial:
    """The monic polynomial with coefficients c (doubles, highest degree
    first), evaluated exactly at z = 2**s * w: every coefficient is
    C_k / 2**F with a Gaussian integer C_k."""

    def __init__(self, c, s: int):
        parts = [_dyadic(x) for x in c]
        self.F = max(e for _, _, e in parts)
        self.C = [(re << self.F - e, im << self.F - e) for re, im, e in parts]
        self.s = s

    def _at(self, w: complex):
        """(t, W) with z = W / 2**t, W a Gaussian integer and t >= 0."""
        re, im, e = _dyadic(w)
        t = e - self.s
        return (0, (re << -t, im << -t)) if t < 0 else (t, (re, im))

    def _horner(self, w: complex):
        """(t, P, Q) with p(z) = P / 2**(t*n + F) and p'(z) = Q / 2**(t*(n-1) + F)."""
        t, (wr, wi) = self._at(w)
        (pr, pi), qr, qi = self.C[0], 0, 0
        for k, (cr, ci) in enumerate(self.C[1:], 1):
            qr, qi = qr * wr - qi * wi + pr, qr * wi + qi * wr + pi
            pr, pi = pr * wr - pi * wi + (cr << t * k), pr * wi + pi * wr + (ci << t * k)
        return t, (pr, pi), (qr, qi)

    def newton(self, w: complex):
        """p(z) / p'(z) in the w scale, rounded once: 0 when z is an exact
        root, None when only p' vanishes."""
        t, (pr, pi), (qr, qi) = self._horner(w)
        if not (pr or pi):
            return 0j
        shift = t + self.s  # max(e, s) >= 0, e the exponent of w; the ratio is P / (Q * 2**shift)
        qr, qi = qr << shift, qi << shift
        norm = qr * qr + qi * qi
        if not norm:
            return None
        return complex((pr * qr + pi * qi) / norm, (pi * qr - pr * qi) / norm)

    def residual(self, w: complex) -> float:
        """|p(z)| / 2**(s*n): the residual of the monic polynomial in w."""
        t, (pr, pi), _ = self._horner(w)
        e = (t + self.s) * (len(self.C) - 1) + self.F  # >= 0, as t + s and F are
        return math.hypot(pr / (1 << e), pi / (1 << e))

    def has_root(self, w: complex, m: int) -> bool:
        """Whether z = 2**s * w is a root of multiplicity at least m: m exact
        synthetic divisions by (x - z) leave no remainder."""
        t, (wr, wi) = self._at(w)
        quotient = [(cr << t * k, ci << t * k) for k, (cr, ci) in enumerate(self.C)]
        for _ in range(m):
            for k in range(1, len(quotient)):
                (pr, pi), (cr, ci) = quotient[k - 1], quotient[k]
                quotient[k] = (cr + pr * wr - pi * wi, ci + pr * wi + pi * wr)
            if quotient.pop() != (0, 0):
                return False
        return True
