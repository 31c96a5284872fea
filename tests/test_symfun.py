import cmath
import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gldual.aberth
import gldual.symfun
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


def test_match_multisets_certificate_agrees_with_the_hungarian_algorithm(monkeypatch):
    # separated round trips: every root has one nearest recovered root, and the
    # certificate answers without the Hungarian algorithm
    hungarian = gldual.symfun._hungarian
    calls = []
    monkeypatch.setattr(gldual.symfun, "_hungarian", lambda cost: calls.append(cost) or hungarian(cost))

    def hungarian_pairs(a, b):
        return hungarian([[abs(x - y) for y in b] for x in a])

    for n in range(2, 13):
        rng = random.Random(n)
        for _ in range(25):
            roots = random_roots(rng, n)
            recovered = from_sym_coords(to_sym_coords(roots))
            assert match_multisets(roots, recovered) == hungarian_pairs(roots, recovered)
    assert not calls
    # duplicates, equidistant ties and the greedy counterexample: two rows want
    # one column, or a row has two nearest columns
    cases = [([2, 2, -1], from_sym_coords(to_sym_coords([2, 2, -1]))),
             ([0, 2], [1, 1]), ([1, -1], [1j, -1j]), ([1.0, 0.9], [0.95, 2.0])]
    for a, b in cases:
        assert match_multisets(a, b) == hungarian_pairs(a, b)
    assert len(calls) == len(cases)


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


def _exact_evaluations(monkeypatch, roots):
    """The points passed to _Polynomial.newton and the number of multiplicity
    tests while recovering the roots."""
    newton, has_root = gldual.aberth._Polynomial.newton, gldual.aberth._Polynomial.has_root
    points, tests = [], []
    monkeypatch.setattr(gldual.aberth._Polynomial, "newton",
                        lambda self, w: points.append(w) or newton(self, w))
    monkeypatch.setattr(gldual.aberth._Polynomial, "has_root",
                        lambda self, w, m: tests.append(w) or has_root(self, w, m))
    from_sym_coords(to_sym_coords(roots))
    return points, len(tests)


@pytest.mark.parametrize("roots, cluster_step", [
    ([0.3 + 0.7j, -1, 3, -2j, 1 + 1j, -3 + 0.5j, 0.5, 2.5 - 1.5j], False),
    ([2, 2, -1, 3j, -2j, 1 + 1j, -3 + 0.5j, 0.5], True),
])
def test_polish_evaluates_each_point_once(monkeypatch, roots, cluster_step):
    points, tests = _exact_evaluations(monkeypatch, roots)
    assert len(points) == len(set(points))
    assert (tests > 0) == cluster_step  # the double root is settled by the cluster step


def _corpus_point(rng, spread=2):
    # a mantissa from uniform() scaled by 2**e: no libm call, so the inputs
    # are the same doubles on every platform
    return complex(math.ldexp(rng.uniform(-1, 1), rng.randint(-3 * spread, 3 * spread)),
                   math.ldexp(rng.uniform(-1, 1), rng.randint(-3 * spread, 3 * spread)))


def _polyroots_corpus():
    """376 monic polynomials, as coefficient lists."""
    def monic(roots):
        sigma = to_sym_coords(roots).sigma
        return [1 + 0j] + [-x if k % 2 == 0 else x for k, x in enumerate(sigma)]

    rng = random.Random("polyroots corpus")
    gaussian_integers = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b]
    for n in range(1, 15):  # separated roots
        for _ in range(12):
            yield monic([_corpus_point(rng) for _ in range(n)])
    for _ in range(60):  # exact multiples at small Gaussian integers
        roots = []
        for _ in range(rng.randint(1, 3)):
            roots += [rng.choice(gaussian_integers)] * rng.randint(2, 4)
        yield monic(roots + [_corpus_point(rng) for _ in range(rng.randint(0, 2))])
    for width in (1e-12, 1e-8, 1e-6, 1e-4):  # clusters
        for _ in range(12):
            centre = _corpus_point(rng, 0)
            yield monic([centre * (1 + width * _corpus_point(rng, 0)) for _ in range(rng.randint(2, 6))]
                        + [_corpus_point(rng) for _ in range(rng.randint(0, 4))])
    for _ in range(40):  # roots on the axes
        yield monic([complex(*rng.choice([(x.real, 0.0), (0.0, x.imag)]))
                     for x in (_corpus_point(rng) for _ in range(rng.randint(1, 10)))])
    for scale in (1e120, 1e-120):
        for _ in range(15):
            yield monic([scale * _corpus_point(rng, 0) for _ in range(rng.randint(1, 2))])
        for _ in range(15):  # coefficients spread between 1 and 2**(+-399)
            sign = 1 if scale > 1 else -1
            yield [1 + 0j] + [math.ldexp(1, sign * rng.randint(0, 399)) * _corpus_point(rng, 0)
                              for _ in range(rng.randint(1, 8))]


def test_polyroots_corpus_is_bit_identical():
    # every root's repr, or the refusal, of each polynomial in one SHA-256: a
    # root that moves by one ulp changes it.  Pinned on x86-64 Linux, where
    # CPython 3.10 to 3.13 give the same digest.
    digest = hashlib.sha256()
    count = 0
    for c in _polyroots_corpus():
        try:
            text = ";".join("%r,%r" % (z.real, z.imag) for z in gldual.aberth.polyroots(c))
        except RootFindingError as exc:
            text = "error: %s" % exc
        digest.update(text.encode() + b"\n")
        count += 1
    assert count == 376
    assert digest.hexdigest() == "6bd527532eb3298adf399b733c35236ecda64fce8f4c946601fac844a8f7df37"


def _exact_multiplicity(c, z):
    """The multiplicity of z as a root of the polynomial whose coefficients are
    the doubles c, by synthetic division in exact Gaussian rationals."""
    coefficients = [(Fraction(x.real), Fraction(x.imag)) for x in c]
    zr, zi = Fraction(z.real), Fraction(z.imag)
    m = 0
    while len(coefficients) > 1:
        quotient = [coefficients[0]]
        for cr, ci in coefficients[1:]:
            pr, pi = quotient[-1]
            quotient.append((cr + pr * zr - pi * zi, ci + pr * zi + pi * zr))
        if quotient.pop() != (0, 0):
            break
        coefficients, m = quotient, m + 1
    return m


def test_the_multiple_roots_snapped_on_an_axis_are_exact():
    # the corpus polynomials whose roots changed when the cluster step zeroed a
    # part below EPS times the other: each returned clusters around roots on an
    # axis, and now returns every root exactly, as often as its multiplicity
    corpus = list(_polyroots_corpus())
    for index in (171, 175, 193, 197, 206, 209, 226):
        roots = gldual.aberth.polyroots(corpus[index])
        for z in set(roots):
            assert _exact_multiplicity(corpus[index], z) == roots.count(z), (index, z)


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
