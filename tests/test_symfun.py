import cmath
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gldual.errors import RootFindingError
from gldual.symfun import SymCoords, from_sym_coords, match_multisets, to_sym_coords


def test_forward_examples():
    assert to_sym_coords([2, 3]).sigma == (5 + 0j, 6 + 0j)
    assert to_sym_coords([1, -1]).sigma == (0j, -1 + 0j)
    assert to_sym_coords([1, 1, 1]).sigma == (3 + 0j, 3 + 0j, 1 + 0j)


def test_inverse_examples():
    assert from_sym_coords(SymCoords((5, 6))) == pytest.approx((2 + 0j, 3 + 0j))
    roots = from_sym_coords(SymCoords((0, -1)))
    assert sorted(r.real for r in roots) == pytest.approx([-1, 1])


def test_zero_point_rejected():
    with pytest.raises(ValueError):
        to_sym_coords([1, 0])
    with pytest.raises(ValueError):
        SymCoords((1, 0))
    with pytest.raises(ValueError):
        to_sym_coords([])


def test_sigma_n_is_product_of_inputs():
    pts = [2 + 1j, -0.5j, 3.25]
    product = 1
    for p in pts:
        product *= p
    assert to_sym_coords(pts).sigma[-1] == pytest.approx(product)


def test_permutation_invariance_is_bitwise():
    pts = [0.3 + 1.7j, -2.5 + 0.01j, 4.0, 0.125 - 3j, -1e-2 + 1j]
    rng = random.Random(3)
    reference = to_sym_coords(pts).sigma
    for _ in range(10):
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert to_sym_coords(shuffled).sigma == reference


def random_roots(rng, n, separation=1e-3):
    while True:
        roots = [
            10 ** rng.uniform(-2, 2) * cmath.exp(2j * cmath.pi * rng.random())
            for _ in range(n)
        ]
        if all(
            abs(roots[i] - roots[j]) >= separation
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return roots


@pytest.mark.parametrize("n", range(2, 9))
def test_round_trip(n):
    rng = random.Random(n)
    for _ in range(25):
        roots = random_roots(rng, n)
        recovered = from_sym_coords(to_sym_coords(roots))
        assert len(recovered) == n
        pairs = match_multisets(roots, recovered)
        err = max(abs(roots[i] - recovered[j]) / abs(roots[i]) for i, j in pairs)
        assert err < 1e-9


def test_round_trip_with_multiple_root():
    # a genuine multiset: the double root comes back twice
    recovered = from_sym_coords(to_sym_coords([2, 2, -1]))
    pairs = match_multisets([2, 2, -1], recovered)
    err = max(abs([2, 2, -1][i] - recovered[j]) for i, j in pairs)
    assert err < 1e-6


def test_non_convergence_raises():
    # a tight cluster with a starved step budget cannot converge
    coords = to_sym_coords([1, 1 + 1e-12, 1 + 2e-12, 1 - 1e-12])
    with pytest.raises(RootFindingError):
        from_sym_coords(coords, max_steps=1)


def test_match_multisets_is_optimal_not_greedy():
    # greedy nearest-neighbor pairs 1.0 with 0.95 for total cost 1.15;
    # the optimal assignment crosses over for 1.05
    pairs = dict(match_multisets([1.0, 0.9], [0.95, 2.0]))
    assert pairs == {0: 1, 1: 0}
    # and on a clean instance it is the identity matching
    clean = dict(match_multisets([1.0, 5.0], [1.0001, 5.0001]))
    assert clean == {0: 0, 1: 1}


def test_match_multisets_size_mismatch():
    with pytest.raises(ValueError):
        match_multisets([1], [1, 2])


def _brute_force_minimum(a, b):
    return min(sum(abs(x - b[j]) for x, j in zip(a, perm))
               for perm in itertools.permutations(range(len(b))))


def _assert_optimal(a, b, exact):
    pairs = match_multisets(a, b)
    n = len(a)
    assert [i for i, _ in pairs] == list(range(n))
    assert sorted(j for _, j in pairs) == list(range(n))
    total = sum(abs(a[i] - b[j]) for i, j in pairs)
    best = _brute_force_minimum(a, b)
    if exact:
        assert total == best
    else:
        assert total == pytest.approx(best, rel=1e-12, abs=1e-12)


# few distinct values, so the multisets repeat values and optimal pairings tie
grid = st.integers(-2, 2)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(grid, min_size=n, max_size=n), st.lists(grid, min_size=n, max_size=n))))
def test_match_multisets_is_a_minimum_on_the_line(ab):
    # integer costs keep the potentials exact, so the totals agree exactly
    _assert_optimal(*ab, exact=True)


gaussian = st.builds(complex, grid, grid)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(gaussian, min_size=n, max_size=n), st.lists(gaussian, min_size=n, max_size=n))))
def test_match_multisets_is_a_minimum_in_the_plane(ab):
    _assert_optimal(*ab, exact=False)


def test_match_multisets_refuses_non_finite_points():
    with pytest.raises(ValueError):
        match_multisets([float("inf")], [1])
    with pytest.raises(ValueError):
        match_multisets([complex("nan")], [1])
