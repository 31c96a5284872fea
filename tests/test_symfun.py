import cmath
import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gldual.aberth
from gldual.errors import LimitExceeded, RootFindingError
from gldual.symfun import ROOTS_LIMIT, SymCoords, from_sym_coords, match_multisets, to_sym_coords


def test_forward_examples():
    assert to_sym_coords([2, 3]).sigma == (5 + 0j, 6 + 0j)
    assert to_sym_coords([1, -1]).sigma == (0j, -1 + 0j)
    assert to_sym_coords([1, 1, 1]).sigma == (3 + 0j, 3 + 0j, 1 + 0j)


def test_inverse_examples():
    assert from_sym_coords(SymCoords((5, 6))) == pytest.approx((2 + 0j, 3 + 0j))
    roots = from_sym_coords(SymCoords((0, -1)))
    assert sorted(r.real for r in roots) == pytest.approx([-1, 1])


def test_root_finding_degree_limit():
    # ROOTS_LIMIT is a ceiling: from_sym_coords takes no argument that raises it
    with pytest.raises(LimitExceeded):
        from_sym_coords(SymCoords((1,) * (ROOTS_LIMIT + 1)))
    assert len(from_sym_coords(SymCoords((1,) * ROOTS_LIMIT))) == ROOTS_LIMIT
    with pytest.raises(TypeError):
        from_sym_coords(SymCoords((5, 6)), max_degree=1)


def test_empty_sigma_rejected():
    with pytest.raises(ValueError, match=r"^sigma must be nonempty$"):
        SymCoords(())


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


def test_non_convergence_raises(monkeypatch):
    # a tight cluster with a starved step budget cannot converge
    monkeypatch.setattr(gldual.aberth, "MAX_STEPS", 1)
    coords = to_sym_coords([1, 1 + 1e-12, 1 + 2e-12, 1 - 1e-12])
    with pytest.raises(RootFindingError):
        from_sym_coords(coords)


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


@pytest.mark.parametrize("a, b", [
    ([1.7e308, 1.7e308j], [1.7e308j, 1.7e308]),  # abs raised OverflowError
    ([1.7e308], [-1.7e308]),  # the difference itself is infinite
], ids=["modulus", "difference"])
def test_match_multisets_refuses_finite_points_whose_distance_overflows(a, b):
    with pytest.raises(ValueError, match=r"^a distance between the points overflows the "
                                         r"range of doubles$"):
        match_multisets(a, b)


def test_sigma_overflow_and_underflow_are_named():
    # was sigma = (2e200, inf), returned without an error
    with pytest.raises(ValueError, match=r"^sigma_2 overflows the range of doubles$"):
        to_sym_coords([1e200, 1e200])
    # was "points must avoid the origin", though they do: their product underflows
    with pytest.raises(ValueError, match=r"^sigma_2 underflows to zero: the points avoid the "
                                         r"origin, but their product is below the range of "
                                         r"doubles$"):
        to_sym_coords([1e-200, 1e-200])


def test_point_beyond_doubles_is_named():
    # was OverflowError("int too large to convert to float") from complex(p); SymCoords
    # refuses the same integer as a sigma with a ValueError
    with pytest.raises(ValueError, match=r"^points must be finite, point 0 is 10{400}$"):
        to_sym_coords([10**400, 1])
    with pytest.raises(ValueError, match=r"^points must be finite, point 1 is -10{400}$"):
        to_sym_coords([1, -10**400])


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), complex(1, float("-inf")), 1e400, 10 ** 400, -10 ** 400,
], ids=["nan", "inf", "(1-infj)", "1e400", "10**400", "-10**400"])
def test_non_finite_points_refused(value):
    # one rule for every input of the module: the first value that is not a finite
    # double is refused by position and value.  Was "points must be finite" with no
    # position for NaN and inf, and OverflowError from match_multisets for 10**400.
    shown = re.escape(repr(value))
    for refused, message in [
        (lambda: SymCoords((1, value)), "sigma must be finite, sigma_2 is "),
        (lambda: to_sym_coords([1, value]), "points must be finite, point 1 is "),
        (lambda: match_multisets([value], [1]), r"points must be finite, a\[0\] is "),
        (lambda: match_multisets([1], [value]), r"points must be finite, b\[0\] is "),
    ]:
        with pytest.raises(ValueError, match="^%s%s$" % (message, shown)):
            refused()


@pytest.mark.parametrize("value", [float("inf"), float("nan"), complex(1, float("-inf")),
                                   10 ** 400])
def test_non_finite_sigma_refused(value):
    with pytest.raises(ValueError, match=r"^sigma must be finite, sigma_1 is "):
        SymCoords((value, 1))


def test_exact_multiple_roots_come_back_exactly():
    # each root is a double and a root of the float polynomial of that multiplicity
    assert from_sym_coords(SymCoords((3, 3, 1))) == (1 + 0j,) * 3
    assert from_sym_coords(to_sym_coords([2, 2, -1])) == (-1 + 0j, 2 + 0j, 2 + 0j)
    assert from_sym_coords(to_sym_coords([1j, 1j, 3])) == (1j, 1j, 3 + 0j)
    assert from_sym_coords(to_sym_coords([0.5j] * 3 + [1] * 3)) == (0.5j,) * 3 + (1 + 0j,) * 3


def test_exact_newton_ratio_is_none_where_only_the_derivative_vanishes():
    # x^2 + 1 at 0: p = 1, p' = 0
    assert gldual.aberth._Polynomial([1.0, 0.0, 1.0], 0).newton(0j) is None


@pytest.mark.parametrize("s, w", [(0, 2 + 0j), (2, 0.5 + 0j)])
def test_exact_multiplicity_test_stops_at_the_first_remainder(s, w):
    # (x-2)^2 (x-3), with z = 2**s * w = 2 a root of multiplicity exactly 2
    cubic = gldual.aberth._Polynomial([1.0, -7.0, 16.0, -12.0], s)
    assert cubic.has_root(w, 2)
    assert not cubic.has_root(w, 3)


# --- parity with mpmath.polyroots, the root finder of earlier versions -------------------


@pytest.fixture
def mpmath():
    return pytest.importorskip("mpmath")


def _mpmath_roots(mpmath, sigma):
    monic = [mpmath.mpc(1)] + [(-1) ** (k + 1) * mpmath.mpc(s) for k, s in enumerate(sigma)]
    roots = mpmath.polyroots(monic, maxsteps=100, extraprec=60)
    return tuple(sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag)))


@pytest.mark.parametrize("n", range(2, 13))
def test_roots_equal_mpmath_bit_for_bit(mpmath, n):
    rng = random.Random("parity:%d" % n)
    separated = [random_roots(rng, n) for _ in range(4)]
    close = random_roots(rng, n - 1)
    for roots in separated + [close + [rng.choice(close)]]:
        sigma = to_sym_coords(roots).sigma
        assert from_sym_coords(SymCoords(sigma)) == _mpmath_roots(mpmath, sigma)


def test_decimal_sigma_inputs_equal_mpmath_bit_for_bit(mpmath):
    # `symcoords --sigma` style: 3-decimal coordinates of degree 1 to 4
    rng = random.Random("parity:decimal")
    for _ in range(60):
        sigma = tuple(complex(round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3)) or 1 + 0j
                      for _ in range(rng.randint(1, 4)))
        assert from_sym_coords(SymCoords(sigma)) == _mpmath_roots(mpmath, sigma)
    for sigma in [(5, 6), (0, -1), (4, 4), to_sym_coords([2, 2, -1]).sigma]:
        assert from_sym_coords(SymCoords(sigma)) == _mpmath_roots(mpmath, sigma)


def _assert_roots_or_refusal(coords):
    try:
        roots = from_sym_coords(coords)
    except RootFindingError:
        return
    assert len(roots) == len(coords.sigma)
    assert all(cmath.isfinite(r) and r != 0 for r in roots)


unit = st.builds(cmath.rect, st.floats(0.01, 100), st.floats(0, 2 * cmath.pi))
cluster_offset = st.sampled_from([0.0, 1e-12, 1e-8, 1e-4])


@given(st.integers(-150, 150), st.lists(unit, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), cluster_offset, unit), min_size=1, max_size=12))
def test_roots_or_root_finding_error_at_every_scale(exponent, centres, draws):
    # clusters of roots around a few centres, all scaled by 10**exponent
    scale = 10.0 ** exponent
    roots = [scale * centres[i % len(centres)] * (1 + offset * u) for i, offset, u in draws]
    try:
        coords = to_sym_coords(roots)
    except ValueError as exc:
        assert re.fullmatch(r"sigma_\d+ (overflows|underflows) .*", str(exc))
        return
    _assert_roots_or_refusal(coords)


@given(st.lists(st.complex_numbers(min_magnitude=1e-150, max_magnitude=1e150),
                min_size=1, max_size=12))
def test_roots_or_root_finding_error_for_any_sigma(sigma):
    _assert_roots_or_refusal(SymCoords(tuple(sigma)))
