"""Periodised de Rham dimensions of orbits and extended quotients.

A stratum is a torus (C*)^r modulo a product of symmetric groups permuting
disjoint coordinate blocks: a product of k symmetric powers Sym^m(C*).  Each
has the cohomology of C* (Macdonald 1962), as each Sym^m of the circle in a
compact orbit has that of the circle (Morton 1967): both are (1+t)^k.

Summed over the strata of a component, (1+t)^k gives HP_0 = HP_1 =
sum(2^(k-1)), the orbit-count formula.  Here k counts the distinct parts of
the stratum's partitions, and the partitions of e weighted by 2^(distinct
parts) number p̄(e), the overpartitions of e, so the sum is prod(p̄(e_i)) / 2
over the exponents.  `component_hp` and `orbit_hp_dimension` read that closed
form and walk no strata.

The walks it replaces are the oracles of `gldual.verify` and the tests: the
even/odd totals over the strata, the orbit count, and the Molien-type average
of det(I + t * P_g) over each stratum's group.  In that average a cycle type
(alpha_1, alpha_2, ...) contributes prod(1 - (-t)^alpha) times the size of
its class, prod(m_i! / z(lambda_i)), in integers, and each total is divided
once by the group order prod(m_i!).
"""

from __future__ import annotations

import math

from ._value import Value, set_field
# annotations name Component, Stratum and OrbitDescriptor unimported: `hp` loads no parameters
from .bernstein import _check_degree
from .partitions import multipartitions, overpartition_count, part_multiplicities
from .scalars import _integer

__all__ = [
    "PermutationAction",
    "HP_LIMIT",
    "invariant_exterior_dims",
    "stratum_poincare",
    "component_hp",
    "orbit_hp_dimension",
    "orbit_poincare",
    "tempered_orbit_poincare",
]

# HP refuses components above this degree: filling the overpartition table up
# to n takes O(n^1.5) steps, about 21,000 for 1000
HP_LIMIT = 1000


class PermutationAction(Value):
    """Product of symmetric groups S_{m_1} x S_{m_2} x ... permuting disjoint
    coordinate blocks of sizes m_1, m_2, ... of rank = sum(m_i) coordinates."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        blocks = tuple(blocks)
        if any(_integer(m, "a block size") < 1 for m in blocks):
            raise ValueError("block sizes must be positive")
        if not blocks:
            raise ValueError("rank must be >= 1")
        set_field(self, "blocks", blocks)

    @property
    def rank(self) -> int:
        return sum(self.blocks)


def _centralizer_order(partition: tuple[int, ...]) -> int:
    """Order z of the S_n-centralizer of a permutation with this cycle type:
    prod(part^mult * mult!) over distinct parts; its class has n!/z elements."""
    z = 1
    for part, mult in part_multiplicities(partition):
        z *= part**mult * math.factorial(mult)
    return z


def invariant_exterior_dims(action: PermutationAction) -> tuple[int, ...]:
    """Graded dimensions (dim H^0, dim H^1, ...) of the group-invariant exterior
    algebra, trailing zeros trimmed.

    Sums det(I + t * P_g) over the acting group, one conjugacy class (= one
    cycle type per block) at a time times its size, and divides by the group
    order.  More than OUTPUT_LIMIT classes are refused by their count, before
    the walk and before the group order is computed.
    """
    classes = multipartitions(action.blocks)
    factorials = [math.factorial(m) for m in action.blocks]
    total = [0] * (action.rank + 1)
    for cycle_types in classes:
        size = 1
        poly = [1]
        for m_factorial, lam in zip(factorials, cycle_types):
            size *= m_factorial // _centralizer_order(lam)
            for alpha in lam:
                # times det(I + t*C) = 1 - (-t)^alpha, C a cyclic permutation of size alpha
                poly = [a - (-1) ** alpha * b
                        for a, b in zip(poly + [0] * alpha, [0] * alpha + poly)]
        for p, c in enumerate(poly):
            total[p] += size * c
    order = math.prod(factorials)
    dims = []
    for p, c in enumerate(total):
        d, remainder = divmod(c, order)
        if remainder:
            raise ArithmeticError("non-integral invariant dimension %d/%d in degree %d"
                                  % (c, order, p))
        dims.append(d)
    while dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def _binomial(k: int) -> tuple[int, ...]:
    return tuple(math.comb(k, p) for p in range(k + 1))


def stratum_poincare(stratum: Stratum) -> tuple[int, ...]:
    """Cohomology dimensions of one extended-quotient stratum: (1+t)^k for its
    k symmetric-power factors."""
    return _binomial(len(stratum.residual_blocks()))


def component_hp(component: Component) -> tuple[int, int]:
    """(HP_0, HP_1) dimensions for the component: the even and odd totals of
    its strata's cohomology, both equal to `orbit_hp_dimension`."""
    d = orbit_hp_dimension(component)
    return d, d


def orbit_hp_dimension(component: Component) -> int:
    """The dimension formula sum(2^(k-1)) over the component's parameter orbits,
    in closed form: prod(p̄(e_i)) / 2 over its exponents.

    A component of degree above HP_LIMIT is refused with LimitExceeded.
    """
    _check_degree(component, HP_LIMIT, "the ceiling HP_LIMIT")
    return math.prod(map(overpartition_count, component.exponents)) // 2


def orbit_poincare(orbit: OrbitDescriptor) -> tuple[int, ...]:
    """Cohomology of the full orbit A^l x (C*)^k: binomial coefficients of (1+t)^k."""
    return _binomial(orbit.k)


def tempered_orbit_poincare(orbit: OrbitDescriptor) -> tuple[int, ...]:
    """Cohomology of the compact orbit prod(Sym^{l_i} T): (1+t)^k, as for the full
    orbit, since each Sym^{l_i} T retracts onto T; every determinant must be unitary."""
    for cls, _ in orbit.classes:
        if not cls.rho.unitary_det:
            raise ValueError(
                "class %r has non-unitary determinant; the compact orbit is undefined"
                % (cls.rho.id,)
            )
    return orbit_poincare(orbit)
