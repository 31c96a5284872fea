"""Periodised de Rham dimensions of orbits and extended quotients.

A stratum is a torus (C*)^r modulo a product of symmetric groups permuting
disjoint coordinate blocks: a product of k symmetric powers Sym^m(C*).  Each
has the cohomology of C* (Macdonald 1962), as each Sym^m of the circle in a
compact orbit has that of the circle (Morton 1967): both are (1+t)^k.  The
Molien-type average of det(I + t * P_g) over the group, kept only as the
cross-check of `gldual.verify` and the tests, gives the same invariant exterior
algebra dimensions: a cycle type (alpha_1, alpha_2, ...) contributes
prod(1 - (-t)^alpha) with weight 1/z(class), exactly over the rationals.

The even/odd totals summed over the strata of a component are its periodic
cyclic homology dimensions; the independent check is the orbit-count formula
sum(2^(k-1)) over the parameter orbits of the component.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import STRATA_LIMIT, Component, Stratum, enumerate_orbits, enumerate_strata
from .errors import LimitExceeded
from .parameters import OrbitDescriptor
from .partitions import centralizer_order, partitions

__all__ = [
    "PoincarePolynomial",
    "PermutationAction",
    "RANK_LIMIT",
    "invariant_exterior_dims",
    "stratum_poincare",
    "component_hp",
    "orbit_hp_dimension",
    "orbit_poincare",
    "tempered_orbit_poincare",
]

RANK_LIMIT = 20


@dataclass(frozen=True)
class PoincarePolynomial:
    """Graded dimension vector: coeffs[p] = dim H^p, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ValueError("the zero polynomial is not a valid Poincare polynomial")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def even_total(self) -> int:
        return sum(self.coeffs[0::2])

    @property
    def odd_total(self) -> int:
        return sum(self.coeffs[1::2])

    def total(self) -> int:
        return sum(self.coeffs)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class PermutationAction:
    """Product of symmetric groups S_{m_1} x S_{m_2} x ... permuting disjoint
    coordinate blocks of sizes m_1, m_2, ... of rank = sum(m_i) coordinates."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if any(m < 1 for m in self.blocks):
            raise ValueError("block sizes must be positive")
        if not self.blocks:
            raise ValueError("rank must be >= 1")

    @property
    def rank(self) -> int:
        return sum(self.blocks)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _cycle_factor(alpha: int) -> list:
    # det(I + t*C) for a cyclic permutation matrix of size alpha: 1 - (-t)^alpha
    return [1] + [0] * (alpha - 1) + [1 if alpha % 2 else -1]


def invariant_exterior_dims(action: PermutationAction) -> PoincarePolynomial:
    """Graded dimensions of the group-invariant exterior algebra.

    Averages det(I + t * P_g) over the acting group, one conjugacy class
    (= one cycle type per block) at a time with weight 1/centralizer_order.
    """
    if action.rank > RANK_LIMIT:
        raise LimitExceeded("rank %d exceeds the limit %d" % (action.rank, RANK_LIMIT))
    total = [Fraction(0)] * (action.rank + 1)
    for cycle_types in itertools.product(*map(partitions, action.blocks)):
        weight = Fraction(1)
        poly = [1]
        for lam in cycle_types:
            weight /= centralizer_order(lam)
            for alpha in lam:
                poly = _poly_mul(poly, _cycle_factor(alpha))
        for p, c in enumerate(poly):
            total[p] += weight * c
    coeffs = []
    for p, c in enumerate(total):
        if c.denominator != 1:
            raise ArithmeticError("non-integral invariant dimension %s in degree %d" % (c, p))
        coeffs.append(int(c))
    return PoincarePolynomial(tuple(coeffs))


# one entry per torus rank k seen; PoincarePolynomial is frozen, so callers may share it
@functools.lru_cache(maxsize=None)
def _binomial(k: int) -> PoincarePolynomial:
    return PoincarePolynomial(tuple(math.comb(k, p) for p in range(k + 1)))


def stratum_poincare(stratum: Stratum) -> PoincarePolynomial:
    """Cohomology dimensions of one extended-quotient stratum: (1+t)^k for its
    k symmetric-power factors."""
    return _binomial(len(stratum.residual_blocks()))


def component_hp(component: Component, max_degree: int = STRATA_LIMIT) -> tuple[int, int]:
    """(HP_0, HP_1) dimensions for the component: even/odd totals over its strata."""
    hp0 = hp1 = 0
    for stratum in enumerate_strata(component, max_degree):
        poly = stratum_poincare(stratum)
        hp0 += poly.even_total
        hp1 += poly.odd_total
    return hp0, hp1


def orbit_hp_dimension(component: Component, max_degree: int = STRATA_LIMIT) -> int:
    """The dimension formula sum(2^(k-1)) over the component's parameter orbits."""
    return sum(2 ** (orbit.k - 1) for orbit in enumerate_orbits(component, max_degree))


def orbit_poincare(orbit: OrbitDescriptor) -> PoincarePolynomial:
    """Cohomology of the full orbit A^l x (C*)^k: binomial coefficients of (1+t)^k."""
    return _binomial(orbit.k)


def tempered_orbit_poincare(orbit: OrbitDescriptor) -> PoincarePolynomial:
    """Cohomology of the compact orbit prod(Sym^{l_i} T): (1+t)^k, as for the full
    orbit, since each Sym^{l_i} T retracts onto T; every determinant must be unitary."""
    for cls, _ in orbit.classes:
        if not cls.rho.unitary_det:
            raise ValueError(
                "class %r has non-unitary determinant; the compact orbit is undefined"
                % (cls.rho.id,)
            )
    return orbit_poincare(orbit)
