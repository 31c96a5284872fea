import collections
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gldual.partitions
from gldual.bernstein import Component, enumerate_orbits, enumerate_strata, \
    orbit_stratum_bijection
from gldual.cli import main
from gldual.cohomology import (
    PermutationAction,
    component_hp,
    invariant_exterior_dims,
    orbit_hp_dimension,
    orbit_poincare,
    stratum_poincare,
    tempered_orbit_poincare,
)
from gldual.errors import LimitExceeded
from gldual.parameters import TRIVIAL, InertialClass, OrbitDescriptor
from gldual.partitions import overpartition_count, partitions
from gldual.verify import hp_by_walks


# --- independent oracle: invariant dimensions by averaging traces on the
# --- exterior-power bases over explicitly enumerated group elements


def group_elements(blocks):
    offsets = [sum(blocks[:i]) for i in range(len(blocks))]
    per_block = [
        [tuple(off + i for i in perm) for perm in itertools.permutations(range(m))]
        for off, m in zip(offsets, blocks)
    ]
    return [tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*per_block)]


def perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def invariant_dims_by_traces(blocks):
    rank = sum(blocks)
    elements = group_elements(blocks)
    dims = []
    for p in range(rank + 1):
        total = F(0)
        for g in elements:
            for subset in itertools.combinations(range(rank), p):
                image = tuple(g[i] for i in subset)
                if tuple(sorted(image)) == subset:
                    total += perm_sign(image)
        dims.append(total / len(elements))
    assert all(d.denominator == 1 for d in dims)
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(int(d) for d in dims)


def det_int(matrix):
    # exact Leibniz determinant, for the t=1 cross-check on tiny ranks
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def test_molien_examples():
    assert invariant_exterior_dims(PermutationAction((1, 1))) == (1, 2, 1)
    assert invariant_exterior_dims(PermutationAction((2,))) == (1, 1)
    assert invariant_exterior_dims(PermutationAction((3,))) == (1, 1)


@pytest.mark.parametrize(
    "blocks",
    [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 2)],
)
def test_molien_matches_trace_oracle(blocks):
    action = PermutationAction(blocks)
    assert invariant_exterior_dims(action) == invariant_dims_by_traces(blocks)


@pytest.mark.parametrize("blocks", [(2,), (3,), (2, 2), (4, 1)])
def test_value_at_one_matches_explicit_determinants(blocks):
    rank = sum(blocks)
    elements = group_elements(blocks)
    total = F(0)
    for g in elements:
        matrix = [[(1 if i == j else 0) + (1 if g[j] == i else 0) for j in range(rank)]
                  for i in range(rank)]
        total += det_int(matrix)
    average = total / len(elements)
    assert average.denominator == 1
    poly = invariant_exterior_dims(PermutationAction(blocks))
    assert sum(poly) == int(average)


def test_stratum_poincare_examples():
    strata2 = enumerate_strata(Component.from_exponents((2,)))
    assert stratum_poincare(strata2[0]) == (1, 1)
    strata3 = enumerate_strata(Component.from_exponents((3,)))
    assert stratum_poincare(strata3[1]) == (1, 2, 1)
    (stratum1,) = enumerate_strata(Component.from_exponents((1,)))
    assert stratum_poincare(stratum1) == (1, 1)


def test_component_hp_small_degrees():
    assert component_hp(Component.from_exponents((1,))) == (1, 1)
    assert component_hp(Component.from_exponents((2,))) == (2, 2)
    assert component_hp(Component.from_exponents((3,))) == (4, 4)


def test_orbit_hp_dimension_examples():
    assert orbit_hp_dimension(Component.from_exponents((2,))) == 2
    assert orbit_hp_dimension(Component.from_exponents((3,))) == 4
    assert orbit_hp_dimension(Component.from_exponents((4,))) == 7


def test_hp_parities_match_orbit_formula_on_sweep():
    for exponents in [(1,), (2,), (5,), (2, 2), (4, 3), (2, 3, 3), (1, 1, 1)]:
        c = Component.from_exponents(exponents)
        hp0, hp1 = component_hp(c)
        assert hp0 == hp1 == orbit_hp_dimension(c)


def test_orbit_poincare_is_binomial():
    def orbit_with_k(k):
        return OrbitDescriptor(
            tuple((InertialClass(TRIVIAL, F(j)), 1) for j in range(k))
        )

    assert orbit_poincare(orbit_with_k(1)) == (1, 1)
    assert orbit_poincare(orbit_with_k(2)) == (1, 2, 1)
    assert orbit_poincare(orbit_with_k(3)) == (1, 3, 3, 1)


def test_tempered_orbit_poincare_examples():
    single = OrbitDescriptor(((InertialClass(TRIVIAL, F(0)), 1),))
    assert tempered_orbit_poincare(single) == (1, 1)
    doubled = OrbitDescriptor(((InertialClass(TRIVIAL, F(0)), 2),))
    assert tempered_orbit_poincare(doubled) == (1, 1)
    two_classes = OrbitDescriptor(
        ((InertialClass(TRIVIAL, F(0)), 1), (InertialClass(TRIVIAL, F(1)), 1))
    )
    assert tempered_orbit_poincare(two_classes) == (1, 2, 1)


def test_tempered_equals_full_orbit_cohomology():
    for exponents in [(4,), (3, 2), (2, 2, 1)]:
        for orbit in enumerate_orbits(Component.from_exponents(exponents)):
            assert tempered_orbit_poincare(orbit) == orbit_poincare(orbit)


def test_stratum_matches_paired_orbit():
    for orbit, stratum in orbit_stratum_bijection(Component.from_exponents((4, 2))):
        assert stratum_poincare(stratum) == orbit_poincare(orbit)


def test_leading_coefficient_always_one():
    for blocks in [(1,), (3,), (2, 2), (5,), (3, 1, 1)]:
        poly = invariant_exterior_dims(PermutationAction(blocks))
        assert poly[0] == 1
        assert all(c >= 0 for c in poly)


def test_molien_walks_are_refused_by_their_count_before_any_walk(monkeypatch):
    # p(40) = 37,338 and p(20) p(19) = 307,230 classes exceed OUTPUT_LIMIT
    def walk(n, max_part):
        raise AssertionError("walked the partitions of %d" % n)
        yield

    monkeypatch.setattr(gldual.partitions, "_bounded", walk)
    for blocks, message in [((40,), "the partitions of 40 exceed"),
                            ((20, 19), "307230 multipartitions exceed")]:
        with pytest.raises(LimitExceeded, match=message):
            invariant_exterior_dims(PermutationAction(blocks))


def test_a_refused_molien_walk_allocates_nothing_for_its_rank():
    # the count is read before the rank-sized table is built, which at rank
    # 10^7 would take 80 MB
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="the partitions of 10000000 exceed"):
            invariant_exterior_dims(PermutationAction((10 ** 7,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_permutation_action_validation():
    with pytest.raises(ValueError):
        PermutationAction(())
    with pytest.raises(ValueError):
        PermutationAction((2, 0))


def test_binomial_identity_for_trivial_action():
    # a trivial group leaves the whole exterior algebra invariant
    for rank in range(1, 7):
        poly = invariant_exterior_dims(PermutationAction((1,) * rank))
        assert poly == tuple(math.comb(rank, p) for p in range(rank + 1))



# --- the integer Molien average against the Fraction-weighted one it replaced


def molien_by_fractions(blocks):
    # each class weighted by 1/z, z its centralizer order, summed in rationals
    total = [F(0)] * (sum(blocks) + 1)
    for cycle_types in itertools.product(*map(partitions, blocks)):
        weight = F(1)
        poly = [1]
        for lam in cycle_types:
            for part, mult in collections.Counter(lam).items():
                weight /= part ** mult * math.factorial(mult)
            for alpha in lam:
                poly = [a - (-1) ** alpha * b
                        for a, b in zip(poly + [0] * alpha, [0] * alpha + poly)]
        for p, c in enumerate(poly):
            total[p] += weight * c
    assert all(c.denominator == 1 for c in total)
    dims = [int(c) for c in total]
    while dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def test_integer_molien_average_equals_the_fraction_weighted_one():
    # every composition of n <= 10, every trivial action up to rank 59, and
    # the largest single and equal blocks the benchmark and verify reach
    actions = {*exponent_vectors(10), *((1,) * k for k in range(1, 60)),
               (4, 4, 4, 4), (5, 5, 4), (6, 6), (12,), (16,), (20,)}
    assert len(actions) == 1078
    for blocks in sorted(actions):
        assert invariant_exterior_dims(PermutationAction(blocks)) \
            == molien_by_fractions(blocks), blocks


# --- the closed form (1+t)^k against the Molien average it replaced


def exponent_vectors(total_max):
    for n in range(1, total_max + 1):
        for r in range(1, n + 1):
            for cuts in itertools.combinations(range(1, n), r - 1):
                bounds = (0, *cuts, n)
                yield tuple(bounds[i + 1] - bounds[i] for i in range(r))


def test_closed_form_matches_molien_on_every_small_stratum():
    for exponents in [*exponent_vectors(8), *((n,) for n in range(9, 15))]:
        for stratum in enumerate_strata(Component.from_exponents(exponents)):
            blocks = stratum.residual_blocks()
            molien = invariant_exterior_dims(PermutationAction(blocks))
            assert stratum_poincare(stratum) == molien, (exponents, stratum.cycle_type)


def overpartition_counts(n_max):
    # coefficients of prod_{n>=1} (1 + x^n) / (1 - x^n), truncated after x^n_max
    series = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for i in range(n_max, n - 1, -1):  # times (1 + x^n)
            series[i] += series[i - n]
        for i in range(n, n_max + 1):  # divided by (1 - x^n)
            series[i] += series[i - n]
    return series


@pytest.mark.parametrize(
    "exponents", [(n,) for n in range(1, 21)] + [(4, 4, 4, 4), (5, 5, 4), (6, 6)], ids=str
)
def test_component_hp_is_half_the_overpartition_product(exponents):
    pbar = overpartition_counts(max(exponents))
    h = math.prod(pbar[e] for e in exponents) // 2
    assert component_hp(Component.from_exponents(exponents)) == (h, h)


def test_hp_path_never_reaches_the_molien_average(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Molien average is a cross-check, not the HP path")

    monkeypatch.setattr("gldual.cohomology.invariant_exterior_dims", forbidden)
    h = overpartition_counts(12)[12] // 2
    assert component_hp(Component.from_exponents((12,))) == (h, h)
    assert main(["hp", "--component", "(12)"]) == 0
    assert json.loads(capsys.readouterr().out) == {"hp0": h, "hp1": h, "orbit_dim": h}


def test_overpartition_table_matches_the_series():
    assert [overpartition_count(n) for n in range(301)] == overpartition_counts(300)
    with pytest.raises(ValueError):
        overpartition_count(-1)


_compositions_to_20 = st.lists(st.integers(1, 20), min_size=1, max_size=4).filter(
    lambda exponents: sum(exponents) <= 20)


@settings(max_examples=40, deadline=None)
@given(exponents=_compositions_to_20)
def test_closed_form_equals_the_strata_orbit_and_molien_walks(exponents):
    c = Component.from_exponents(tuple(exponents))
    d = orbit_hp_dimension(c)
    assert component_hp(c) == (d, d)
    assert hp_by_walks(c) == ((d, d), (d, d), (d, d))


def test_hp_path_never_walks_strata_or_orbits(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("HP is a closed form; the walks are the oracles of verify")

    monkeypatch.setattr("gldual.bernstein.enumerate_strata", forbidden)
    monkeypatch.setattr("gldual.bernstein.enumerate_orbits", forbidden)
    # every walk reaches this, under whatever name a module imported the walk
    monkeypatch.setattr("gldual.bernstein.multipartitions", forbidden)
    h = overpartition_counts(12)[12] // 2
    assert component_hp(Component.from_exponents((12,))) == (h, h)
    assert orbit_hp_dimension(Component.from_exponents((12,))) == h
    assert main(["hp", "--component", "(12)"]) == 0
    assert json.loads(capsys.readouterr().out) == {"hp0": h, "hp1": h, "orbit_dim": h}


def test_hp_answers_above_the_default_limit_up_to_max_degree(capsys):
    # p(60) = 966,467 strata, none of them built
    h = overpartition_counts(60)[60] // 2
    assert h == 36975904
    start = time.perf_counter()
    assert main(["hp", "--component", "(60)", "--max-degree", "60"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out) == {"hp0": h, "hp1": h, "orbit_dim": h}
