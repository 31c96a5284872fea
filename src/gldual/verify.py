"""Named regression checks bundling the package's acceptance gates.

Each check pins one classical computation (principal-series GL(2) and GL(3)
q-projections, extended-quotient shapes, HP dimensions, the orbit-count
dimension formula, retraction laws, fiber completeness against a brute-force
reference, symmetric-coordinate round trips) together with its exactness and
runtime budget.  The CLI `verify` verb and the acceptance test suite both run
these.  The brute-force fiber reference lives here so it never shares code
paths with the production search in :mod:`gldual.qproj`, and so do the walks
that sum HP over strata and orbits, which check the closed form of
:mod:`gldual.cohomology`.
"""

from __future__ import annotations

import cmath
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from . import retract
from ._value import Value, set_field
from .bernstein import Component, CycleType, Stratum, _check_degree, enumerate_strata, \
    orbit_stratum_bijection
from .cohomology import PermutationAction, component_hp, invariant_exterior_dims, \
    orbit_hp_dimension, orbit_poincare, stratum_poincare, tempered_orbit_poincare
from .errors import LimitExceeded
from .parameters import LParameter, orbit_of
from .partitions import multipartitions
from .qproj import StratumPoint, SymPoint, fiber, project
from .scalars import ONE, QScalar, _integer, q_power, unit
from .symfun import from_sym_coords, match_multisets, to_sym_coords

__all__ = ["CheckResult", "fiber_reference", "hp_by_walks", "run_all", "SAMPLE_LIMIT"]

# The sweeps cover every exponent vector of total up to SWEEP_TOTAL_MAX (the HP
# sweep only those of at most SWEEP_MAX_BLOCKS blocks); the fiber oracle draws
# vectors of total up to FIBER_TOTAL_MAX with at most three blocks.
SWEEP_TOTAL_MAX = 8
SWEEP_MAX_BLOCKS = 3
FIBER_TOTAL_MAX = 5
# the degree bound of the brute-force fiber reference, which costs about 15x
# per degree: on a generic one-block point 0.2 s at degree 5, 85 s at degree 7
REFERENCE_LIMIT = 5
ROOT_SEPARATION = 1e-3  # least distance between two roots of a round-trip sample
# run_all refuses a larger sample count.  500 fiber samples take about 7 s and
# 200 round trips per degree about 0.6 s on a 2-core VM, so the ceiling allows
# about 2.5 min of fiber oracle and 31 s of round trips.
SAMPLE_LIMIT = 10_000


class CheckResult(Value):
    """The outcome of one acceptance check, with its time and its budget in seconds."""

    _fields = ("name", "passed", "detail", "seconds", "budget")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float,
                 budget: float | None = None):
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)
        set_field(self, "seconds", seconds)
        set_field(self, "budget", budget)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 6),
        }
        if self.budget is not None:
            out["budget_seconds"] = self.budget
        return out


def fiber_reference(point: SymPoint, component: Component) -> list[StratumPoint]:
    """Brute-force q-projection preimage, for cross-checking.

    For every cycle type, candidate centers for each coordinate are read off
    the query multiset independently (no incremental subtraction); every
    assignment in the full cartesian product is kept iff its strings add up to
    the query multiset exactly.
    """
    _check_degree(component, REFERENCE_LIMIT, "the reference limit")

    def strings(alpha, z, scale):
        return [z.q_shift(scale * (Fraction(alpha - 1, 2) - i)) for i in range(alpha)]

    found: list[StratumPoint] = []
    for mp in multipartitions(component.exponents):
        per_block: list[list[tuple[QScalar, ...]]] = []
        feasible = True
        for block, parts, mset in zip(component.blocks, mp, point.blocks):
            target = Counter(mset)
            cand_per_part = []
            for alpha in parts:
                cands = set()
                for w in mset:
                    for i in range(alpha):
                        cands.add(w.q_shift(-block.q_scale * (Fraction(alpha - 1, 2) - i)))
                cands = [z for z in sorted(cands)
                         if not Counter(strings(alpha, z, block.q_scale)) - target]
                cand_per_part.append(cands)
            block_solutions = []
            for centers in itertools.product(*cand_per_part):
                union: Counter = Counter()
                for alpha, z in zip(parts, centers):
                    union.update(strings(alpha, z, block.q_scale))
                if union == target:
                    block_solutions.append(centers)
            if not block_solutions:
                feasible = False
                break
            per_block.append(block_solutions)
        if not feasible:
            continue
        stratum = Stratum(component, CycleType(mp))
        for combo in itertools.product(*per_block):
            found.append(StratumPoint(stratum, tuple(itertools.chain.from_iterable(combo))))
    return sorted(set(found), key=_point_key)


def _point_key(p: StratumPoint):
    return (p.stratum.cycle_type.parts_per_block,
            tuple((z.q_exp, z.turn) for z in p.coords))


def _result(name, passed, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        passed = False
        detail += " [over budget: %.3fs >= %.3fs]" % (elapsed, budget)
    return CheckResult(name, passed, detail, elapsed, budget)


def check_gl2_projection() -> CheckResult:
    """Unramified GL(2): the 2-cycle stratum maps z to {q^(1/2) z, q^(-1/2) z},
    the identity stratum maps a pair to itself."""
    c = Component.from_exponents((2,))
    full, twisted = enumerate_strata(c)
    z1, z2 = unit(Fraction(1, 3)), q_power(2)
    pair = StratumPoint(full, (z1, z2))
    center = StratumPoint(twisted, (ONE,))
    project(pair), project(center)  # warm path before timing
    t0 = time.perf_counter()
    img_pair = project(pair)
    img_center = project(center)
    ok = img_pair == SymPoint(((z1, z2),))
    ok &= img_center == SymPoint(((q_power(Fraction(1, 2)), q_power(Fraction(-1, 2))),))
    return _result("gl2_q_projection", ok,
                   "identity stratum fixed pointwise; z=1 on the 2-cycle stratum "
                   "maps to {q^1/2, q^-1/2}", t0, budget=0.001)


def check_gl3_fiber() -> CheckResult:
    """Unramified GL(3): (z,z,z) maps to {qz, z, q^(-1)z}; the fiber over
    {q^-1, 1, q} has exactly 4 points, two of them on the same stratum."""
    t0 = time.perf_counter()
    c = Component.from_exponents((3,))
    strata = enumerate_strata(c)
    z = unit(Fraction(1, 5))
    img = project(StratumPoint(strata[2], (z,)))
    ok = img == SymPoint(((z.q_shift(1), z, z.q_shift(-1)),))

    y = SymPoint(((q_power(-1), ONE, q_power(1)),))
    points = fiber(y, c)
    by_stratum = Counter(p.stratum.cycle_type.parts_per_block for p in points)
    ok &= len(points) == 4
    ok &= by_stratum == {((1, 1, 1),): 1, ((2, 1),): 2, ((3,),): 1}
    ok &= all(project(p) == y for p in points)
    return _result("gl3_q_projection_and_fiber", ok,
                   "fiber over {q^-1, 1, q}: %d points, per-stratum counts %s"
                   % (len(points), sorted(by_stratum.items())), t0, budget=1.0)


def check_strata_shapes() -> CheckResult:
    """Extended quotients as products of symmetric powers, for exponents (2) and (3)."""
    t0 = time.perf_counter()
    shapes2 = [s.residual_blocks() for s in enumerate_strata(Component.from_exponents((2,)))]
    shapes3 = [s.residual_blocks() for s in enumerate_strata(Component.from_exponents((3,)))]
    ok = shapes2 == [(2,), (1,)]
    ok &= shapes3 == [(3,), (1, 1), (1,)]
    return _result("extended_quotient_strata", ok,
                   "exponents (2): %s; exponents (3): %s" % (shapes2, shapes3),
                   t0, budget=1.0)


def hp_by_walks(component: Component) -> tuple[tuple[int, int], ...]:
    """(HP_0, HP_1) of the component three ways, each walking every stratum.

    The even and odd totals of `stratum_poincare`; the orbit count
    sum(2^(k-1)) for both parities; and the even and odd totals of the Molien
    average over each stratum's residual group S_m1 x S_m2 x ..., the product
    of the averages over its factors S_m, each computed once per m.  The
    totals of a polynomial P are (P(1) + P(-1)) / 2 and (P(1) - P(-1)) / 2,
    and P(1), P(-1) multiply over the factors.
    """
    pairs = orbit_stratum_bijection(component)
    strata = [stratum_poincare(s) for _, s in pairs]
    orbits = sum(2 ** (orbit.k - 1) for orbit, _ in pairs)
    at_pm1 = {}  # m -> (P(1), P(-1)) of the Molien average over S_m
    molien = [0, 0]
    for _, stratum in pairs:
        plus = minus = 1
        for m in stratum.residual_blocks():
            if m not in at_pm1:
                poly = invariant_exterior_dims(PermutationAction((m,)))
                at_pm1[m] = (sum(poly), sum(poly[0::2]) - sum(poly[1::2]))
            plus *= at_pm1[m][0]
            minus *= at_pm1[m][1]
        molien[0] += (plus + minus) // 2
        molien[1] += (plus - minus) // 2
    return ((sum(sum(p[0::2]) for p in strata), sum(sum(p[1::2]) for p in strata)),
            (orbits, orbits), tuple(molien))


_HP_EXPECTED = {(1,): (1, 1), (2,): (2, 2), (3,): (4, 4), (4,): (7, 7)}


def check_hp_values() -> CheckResult:
    """HP dimensions for the single-block components of degree 1..4 in closed
    form, each equal to the strata walk, the orbit count and the Molien average."""
    t0 = time.perf_counter()
    ok = True
    got = {}
    for exponents, expected in _HP_EXPECTED.items():
        t_one = time.perf_counter()
        c = Component.from_exponents(exponents)
        hp = component_hp(c)
        d = orbit_hp_dimension(c)
        got[exponents] = hp
        ok &= hp == expected == (d, d)
        ok &= all(walk == expected for walk in hp_by_walks(c))
        ok &= time.perf_counter() - t_one < 1.0
    return _result("hp_dimensions", ok, "hp per degree: %s" % (sorted(got.items()),),
                   t0, budget=5.0)


def _compositions(total_max: int, max_blocks: int | None):
    for n in range(1, total_max + 1):
        max_r = n if max_blocks is None else min(max_blocks, n)
        for r in range(1, max_r + 1):
            for cuts in itertools.combinations(range(1, n), r - 1):
                bounds = (0, *cuts, n)
                yield tuple(bounds[i + 1] - bounds[i] for i in range(r))


def check_hp_consistency_sweep() -> CheckResult:
    """hp0 = hp1 = orbit-count formula in closed form, and equal to the strata
    walk, the orbit count and the Molien average, over every exponent vector
    with small total."""
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for exponents in _compositions(SWEEP_TOTAL_MAX, SWEEP_MAX_BLOCKS):
        c = Component.from_exponents(exponents)
        d = orbit_hp_dimension(c)
        ok &= component_hp(c) == (d, d)
        ok &= all(walk == (d, d) for walk in hp_by_walks(c))
        checked += 1
    return _result("hp_orbit_count_consistency", ok,
                   "%d components with total exponent <= %d, closed form against "
                   "three walks" % (checked, SWEEP_TOTAL_MAX), t0, budget=60.0)


_TWIST_POOL = (
    QScalar(Fraction(3, 2), Fraction(1, 4)),
    QScalar(Fraction(-1), Fraction(0)),
    QScalar(Fraction(1, 2), Fraction(1, 3)),
    QScalar(Fraction(0), Fraction(1, 2)),
    QScalar(Fraction(2), Fraction(0)),
)


def check_retraction_properties() -> CheckResult:
    """Retraction laws (idempotence, homotopy endpoints, orbit preservation) and the
    orbit, compact-orbit and stratum cohomologies against the Molien average."""
    t0 = time.perf_counter()
    ok = True
    orbits_seen = 0
    for exponents in _compositions(SWEEP_TOTAL_MAX, None):
        c = Component.from_exponents(exponents)
        for orbit, stratum in orbit_stratum_bijection(c):
            orbits_seen += 1
            molien = invariant_exterior_dims(PermutationAction(orbit.multiplicities))
            ok &= orbit_poincare(orbit) == tempered_orbit_poincare(orbit) == molien
            ok &= stratum_poincare(stratum) == molien
            summands = []
            i = 0
            for cls, mult in orbit.classes:
                for _ in range(mult):
                    summands.append((cls, _TWIST_POOL[i % len(_TWIST_POOL)]))
                    i += 1
            phi = LParameter(tuple(summands))
            tempered = retract.temper_parameter(phi)
            ok &= retract.temper_parameter(tempered) == tempered
            ok &= retract.homotopy(phi, 0) == phi
            ok &= retract.homotopy(phi, 1) == tempered
            ok &= (tempered == phi) == all(tw.is_unit() for _, tw in phi.summands)
            for t in (Fraction(1, 3), Fraction(1, 2)):
                ok &= orbit_of(retract.homotopy(phi, t)) == orbit
            ok &= orbit_of(tempered) == orbit
    return _result("tempering_retraction", ok,
                   "%d orbits across all components with total exponent <= %d"
                   % (orbits_seen, SWEEP_TOTAL_MAX), t0, budget=60.0)


_QEXP_POOL = [Fraction(k, 2) for k in range(-4, 5)]
_TURN_POOL = [Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 3)]


def _random_scalar(rng: random.Random) -> QScalar:
    return QScalar(rng.choice(_QEXP_POOL), rng.choice(_TURN_POOL))


def _random_sym_point(rng: random.Random, component: Component) -> SymPoint:
    if rng.random() < 0.5:
        # arbitrary multiset, biased toward q-power collisions
        return SymPoint(
            tuple(
                tuple(_random_scalar(rng) for _ in range(b.exponent))
                for b in component.blocks
            )
        )
    # image of a random stratum point, so deep fibers occur
    mps = list(multipartitions(component.exponents))
    stratum = Stratum(component, CycleType(rng.choice(mps)))
    coords = tuple(_random_scalar(rng) for _ in range(stratum.torus_rank))
    return project(StratumPoint(stratum, coords))


def check_fiber_oracle(samples: int = 500, seed: int = 20250810) -> CheckResult:
    """Fiber enumeration agrees with the brute-force reference on random points,
    and every returned point re-projects to the query."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    pool = list(_compositions(FIBER_TOTAL_MAX, 3))
    ok = True
    mismatches = 0
    for _ in range(samples):
        component = Component.from_exponents(rng.choice(pool))
        y = _random_sym_point(rng, component)
        got = fiber(y, component)
        expected = fiber_reference(y, component)
        if sorted(got, key=_point_key) != expected:
            ok = False
            mismatches += 1
        if not all(project(p) == y for p in got):
            ok = False
    return _result("fiber_soundness_completeness", ok,
                   "%d random points, %d mismatches vs brute force" % (samples, mismatches),
                   t0, budget=120.0)


def _random_roots(rng: random.Random, n: int) -> list[complex]:
    while True:
        roots = [
            10 ** rng.uniform(-2.0, 2.0) * cmath.exp(2j * cmath.pi * rng.random())
            for _ in range(n)
        ]
        if all(
            abs(roots[i] - roots[j]) >= ROOT_SEPARATION
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return roots


def check_symfun_roundtrip(samples_per_degree: int = 200, seed: int = 20250810) -> CheckResult:
    """Round trip through elementary symmetric coordinates recovers the multiset
    to better than 1e-9 relative error, for degrees 2..8."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(samples_per_degree):
            roots = _random_roots(rng, n)
            recovered = from_sym_coords(to_sym_coords(roots))
            pairs = match_multisets(roots, recovered)
            err = max(abs(roots[i] - recovered[j]) / abs(roots[i]) for i, j in pairs)
            worst = max(worst, err)
    ok = worst < 1e-9
    return _result("symmetric_coordinates_roundtrip", ok,
                   "worst relative round-trip error %.3e over %d samples per degree"
                   % (worst, samples_per_degree), t0, budget=30.0)


def run_all(seed: int = 20250810, fiber_samples: int = 500,
            sym_samples: int = 200) -> list[CheckResult]:
    """Run every acceptance check; the CLI `verify` verb wraps exactly this.
    Both sample counts must be ints (or TypeError), at least 1 (or ValueError)
    and at most SAMPLE_LIMIT (or LimitExceeded), or nothing runs."""
    for name, count in (("fiber_samples", fiber_samples), ("sym_samples", sym_samples)):
        if _integer(count, name) < 1:
            raise ValueError("%s must be at least 1, got %d" % (name, count))
        if count > SAMPLE_LIMIT:
            raise LimitExceeded("%s %d exceeds the sample limit %d" % (name, count, SAMPLE_LIMIT))
    return [
        check_gl2_projection(),
        check_gl3_fiber(),
        check_strata_shapes(),
        check_hp_values(),
        check_hp_consistency_sweep(),
        check_retraction_properties(),
        check_fiber_oracle(samples=fiber_samples, seed=seed),
        check_symfun_roundtrip(samples_per_degree=sym_samples, seed=seed),
    ]
