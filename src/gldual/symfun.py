"""Elementary-symmetric coordinates on symmetric products of the punctured plane.

A multiset of n nonzero complex points maps to its elementary symmetric
functions (sigma_1, ..., sigma_n); sigma_n != 0 records that the points avoid
the origin.  The inverse direction recovers the multiset as the roots of
x^n - sigma_1 x^(n-1) + ... + (-1)^n sigma_n.  Together the two maps certify,
at sample points, that the n-th symmetric power of the punctured plane is the
product of an affine (n-1)-space with a punctured affine line.

Every input number, a point or a sigma_k, is converted to a complex double
once, on entry; the first that is not finite (NaN, an infinity, an integer
beyond the doubles) is refused with a ValueError naming its position and value.

The roots come from :func:`gldual.aberth.polyroots`, a pure-Python
Aberth-Ehrlich root finder with an exact polish, imported on the first call
to :func:`from_sym_coords`: importing this module (and with it ``gldual`` and
its command line) compiles and loads none of it.  Recovered roots are paired
with the originals by :func:`match_multisets`: each to its unique nearest
root when those are distinct, and by a pure-Python Hungarian algorithm
otherwise.  The module uses the standard library only.
"""

from __future__ import annotations

import cmath
import math

from ._value import Value, set_field
from .errors import LimitExceeded, RootFindingError

__all__ = ["SymCoords", "ROOTS_LIMIT", "to_sym_coords", "from_sym_coords", "match_multisets"]

# from_sym_coords refuses polynomials above this degree; no argument raises it.
# Its cost grows about as the cube of the degree: at 64, about 0.035 s for
# scattered roots and 0.12 s for a 64-fold root; at 1000, more than 40 s.
ROOTS_LIMIT = 64


def _finite(values, message: str, first: int = 0) -> list[complex]:
    """The values as complex doubles; the first that is not finite (NaN, an infinity,
    an integer beyond the doubles) is refused as `message % (position from first, value)`."""
    values = tuple(values)  # walked again only to name the culprit
    try:
        out = list(map(complex, values))
        if all(map(cmath.isfinite, out)):
            return out
    except OverflowError:  # an integer beyond the range of doubles
        pass
    for i, x in enumerate(values, first):
        try:
            if cmath.isfinite(complex(x)):
                continue
        except OverflowError:
            pass
        raise ValueError(message % (i, x))


class SymCoords(Value):
    """The elementary symmetric functions (sigma_1, ..., sigma_n) of n nonzero points."""

    _fields = ("sigma",)

    def __init__(self, sigma: tuple[complex, ...]):
        sigma = tuple(_finite(sigma, "sigma must be finite, sigma_%d is %r", 1))
        if not sigma:
            raise ValueError("sigma must be nonempty")
        if sigma[-1] == 0:
            raise ValueError("sigma_n must be nonzero (points must avoid the origin)")
        set_field(self, "sigma", sigma)


def to_sym_coords(points) -> SymCoords:
    """Elementary symmetric functions of the points.

    The points are sorted internally before accumulation, so the output is
    bitwise identical for every input ordering.  A sigma_k beyond the range of
    doubles is refused, not returned as inf or as a false zero.
    """
    pts = _finite(points, "points must be finite, point %d is %r")
    if not pts:
        raise ValueError("need at least one point")
    if any(p == 0 for p in pts):
        raise ValueError("points must be nonzero")
    pts.sort(key=lambda z: (z.real, z.imag))
    # coefficients of prod(1 + p*t); coeff of t^k is sigma_k
    coeffs = [1 + 0j]
    for p in pts:
        coeffs = [coeffs[k] + (coeffs[k - 1] * p if k else 0) for k in range(len(coeffs))] + [
            coeffs[-1] * p
        ]
    for k, s in enumerate(coeffs[1:], 1):
        if not cmath.isfinite(s):
            raise ValueError("sigma_%d overflows the range of doubles" % k)
    if coeffs[-1] == 0:
        raise ValueError("sigma_%d underflows to zero: the points avoid the origin, but their "
                         "product is below the range of doubles" % len(pts))
    return SymCoords._trusted(tuple(coeffs[1:]))  # finite and sigma_n != 0


def from_sym_coords(coords: SymCoords) -> tuple[complex, ...]:
    """The multiset inverse: all roots (with multiplicity) of the monic
    polynomial with the given symmetric functions, sorted deterministically.

    Raises LimitExceeded for a polynomial of degree above ROOTS_LIMIT, and
    RootFindingError if :func:`gldual.aberth.polyroots` does: its
    double-precision iteration has not converged after
    :data:`gldual.aberth.MAX_STEPS` steps, has overflowed or divided by zero,
    or left a root that fails the exact-residual test.
    """
    if len(coords.sigma) > ROOTS_LIMIT:
        raise LimitExceeded("polynomial degree %d exceeds the root-finding limit %d"
                            % (len(coords.sigma), ROOTS_LIMIT))
    from .aberth import polyroots  # deferred: only root finding compiles and loads it

    monic = [1 + 0j] + [-x if k % 2 == 0 else x for k, x in enumerate(coords.sigma)]
    out = sorted(polyroots(monic), key=lambda z: (z.real, z.imag))
    if any(r == 0 for r in out):
        raise RootFindingError("root collapsed to zero despite sigma_n != 0")
    return tuple(out)


def match_multisets(a, b) -> list[tuple[int, int]]:
    """Optimal pairing of two equal-size multisets under absolute-difference cost.

    Returns index pairs (i, j), sorted by i, matching a[i] with b[j] so that
    the total of |a[i] - b[j]| is minimal; well-defined even for clustered
    values, unlike greedy nearest-neighbor matching.  When every a[i] has one
    nearest b[j], and no two share it, that pairing is the unique optimum: any
    other pays more in some row and less in none.  Otherwise (a tie, or two
    rows that want one column) the assignment is the Hungarian algorithm, which
    returns the same pairing where the certificate holds.
    """
    a = _finite(a, "points must be finite, a[%d] is %r")
    b = _finite(b, "points must be finite, b[%d] is %r")
    if len(a) != len(b):
        raise ValueError("multisets must have equal size")
    try:  # abs itself raises where only the modulus of a difference overflows
        cost = [[abs(x - y) for y in b] for x in a]
        if not all(math.isfinite(c) for row in cost for c in row):
            raise OverflowError
    except OverflowError:
        raise ValueError("a distance between the points overflows the range of doubles") from None
    nearest = [row.index(min(row)) for row in cost]
    if len(set(nearest)) == len(a) and all(row.count(row[j]) == 1 for row, j in zip(cost, nearest)):
        return list(enumerate(nearest))
    return _hungarian(cost)


def _hungarian(cost) -> list[tuple[int, int]]:
    """A minimum-cost assignment of the rows of the square matrix cost to its
    columns, as (row, column) pairs sorted by row: the Hungarian algorithm with
    row and column potentials (Kuhn 1955; Munkres 1957), O(n^3) in pure
    Python.  With integer-valued costs every potential is exact, so the
    minimum is too."""
    n = len(cost)
    # Shortest augmenting paths over 1-based columns; column 0 is the root.
    # row_of[j] is the row assigned to column j (0 while free), u and v are
    # the potentials, with cost[i][j] - u[i] - v[j] >= 0 on every pair.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    row_of = [0] * (n + 1)
    prev = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        slack = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            row = cost[i0 - 1]
            ui = u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], prev[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            if not j1:
                raise ValueError("assignment costs overflowed")
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the root
            j1 = prev[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return sorted((row_of[j] - 1, j - 1) for j in range(1, n + 1))
