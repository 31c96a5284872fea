import hashlib
import importlib
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldual.bernstein import Block, Component, CycleType, Stratum, enumerate_strata
from gldual.errors import LimitExceeded
from gldual.partitions import part_multiplicities, partitions
from gldual.qproj import OUTPUT_LIMIT, StratumPoint, SymPoint, fiber, project, q_string
from gldual.scalars import ONE, QScalar, q_power, unit
from gldual.verify import fiber_reference

BENCH = Path(__file__).resolve().parent.parent / "bench"


def stratum(component, *parts_per_block):
    return Stratum(component, CycleType(tuple(tuple(p) for p in parts_per_block)))


C2 = Component.from_exponents((2,))
C3 = Component.from_exponents((3,))


def verify_section(point):
    """Round-trip soundness: the point occurs in the fiber over its own image."""
    return point in fiber(project(point), point.stratum.component)


def test_q_string_examples():
    assert q_string(2, ONE) == (q_power(F(-1, 2)), q_power(F(1, 2)))
    assert q_string(3, ONE) == (q_power(-1), ONE, q_power(1))
    z = QScalar(F(1, 3), F(1, 7))
    assert q_string(1, z) == (z,)


def test_q_string_refuses_a_length_below_one():
    with pytest.raises(ValueError, match="alpha must be >= 1"):
        q_string(0, ONE)


def test_q_string_general_center():
    z = unit(F(1, 5))
    assert Counter(q_string(3, z)) == Counter([z.q_shift(1), z, z.q_shift(-1)])


def test_project_identity_stratum():
    z1, z2 = QScalar(F(1), F(0)), QScalar(F(0), F(1, 3))
    point = StratumPoint(stratum(C2, (1, 1)), (z1, z2))
    assert project(point) == SymPoint(((z1, z2),))


def test_project_gl3_mixed_stratum():
    # (z, w, w) with w = 1 goes to {z, q^(1/2), q^(-1/2)}
    z = unit(F(1, 3))
    point = StratumPoint(stratum(C3, (2, 1)), (ONE, z))
    assert project(point) == SymPoint(((q_power(F(1, 2)), q_power(F(-1, 2)), z),))


def test_project_gl3_regular_stratum():
    point = StratumPoint(stratum(C3, (3,)), (ONE,))
    assert project(point) == SymPoint(((q_power(1), ONE, q_power(-1)),))


def test_gl2_fiber():
    y = SymPoint(((q_power(F(1, 2)), q_power(F(-1, 2))),))
    points = fiber(y, C2)
    assert len(points) == 2
    identity_point, cycle_point = points
    assert identity_point.stratum.cycle_type.parts_per_block == ((1, 1),)
    assert identity_point.coords == (q_power(F(-1, 2)), q_power(F(1, 2)))
    assert cycle_point.stratum.cycle_type.parts_per_block == ((2,),)
    assert cycle_point.coords == (ONE,)


def test_gl3_collision_fiber():
    y = SymPoint(((q_power(-1), ONE, q_power(1)),))
    points = fiber(y, C3)
    assert len(points) == 4
    by_stratum = Counter(p.stratum.cycle_type.parts_per_block for p in points)
    assert by_stratum == {((1, 1, 1),): 1, ((2, 1),): 2, ((3,),): 1}
    # two distinct points on the same stratum, with the expected coordinates
    middle = [p for p in points if p.stratum.cycle_type.parts_per_block == ((2, 1),)]
    assert {p.coords for p in middle} == {
        (q_power(F(-1, 2)), q_power(1)),
        (q_power(F(1, 2)), q_power(-1)),
    }
    assert all(project(p) == y for p in points)


def test_fiber_of_generic_point_is_identity_stratum_only():
    y = SymPoint(((ONE, unit(F(1, 3)), QScalar(F(1, 3), F(0))),))
    points = fiber(y, C3)
    assert len(points) == 1
    assert points[0].stratum.cycle_type.parts_per_block == ((1, 1, 1),)


def test_fiber_empty_outside_image():
    # only two of three entries lie in one block-sized multiset: sizes must match
    y = SymPoint(((ONE, ONE),))
    with pytest.raises(ValueError):
        fiber(y, C3)
    # a correct-size point is always in the image (identity stratum)
    assert len(fiber(SymPoint(((ONE, ONE, ONE),)), C3)) == 1


def test_fiber_respects_multiplicities():
    y = SymPoint(((q_power(F(1, 2)), q_power(F(1, 2)), q_power(F(-1, 2))),))
    points = fiber(y, C3)
    by_stratum = Counter(p.stratum.cycle_type.parts_per_block for p in points)
    assert by_stratum == {((1, 1, 1),): 1, ((2, 1),): 1}


def test_fiber_multiblock_is_blockwise():
    c = Component((Block("a", 2), Block("b", 1)))
    y = SymPoint(((q_power(F(1, 2)), q_power(F(-1, 2))), (ONE,)))
    points = fiber(y, c)
    assert len(points) == 2
    assert {p.stratum.cycle_type.parts_per_block for p in points} == {
        ((1, 1), (1,)),
        ((2,), (1,)),
    }


def test_fiber_q_scale_escape_hatch():
    # with q_scale = 2 the 2-cycle string has ratio q^2
    c = Component((Block("a", 2, F(2)),))
    y = SymPoint(((q_power(1), q_power(-1)),))
    points = fiber(y, c)
    assert {p.stratum.cycle_type.parts_per_block for p in points} == {((1, 1),), ((2,),)}
    cycle_point = [p for p in points if p.stratum.cycle_type.parts_per_block == ((2,),)][0]
    assert cycle_point.coords == (ONE,)
    assert project(cycle_point) == y


def test_identity_stratum_projection_is_identity():
    values = (QScalar(F(1), F(1, 3)), QScalar(F(-1, 2), F(0)), ONE)
    point = StratumPoint(stratum(C3, (1, 1, 1)), values)
    assert project(point) == SymPoint((values,))


def test_verify_section_examples():
    assert verify_section(StratumPoint(stratum(C3, (1, 1, 1)), (ONE, ONE, unit(F(1, 2)))))
    assert verify_section(StratumPoint(stratum(C3, (3,)), (ONE,)))
    assert verify_section(StratumPoint(stratum(C2, (2,)), (QScalar(F(1, 2), F(1, 3)),)))


def test_fiber_matches_bruteforce_oracle_on_random_points():
    rng = random.Random(7)
    qexps = [F(k, 2) for k in range(-3, 4)]
    turns = [F(0), F(0), F(1, 2)]
    compositions = [(1,), (2,), (3,), (4,), (5,), (2, 1), (2, 2), (3, 2), (1, 1, 1)]
    for _ in range(120):
        component = Component.from_exponents(rng.choice(compositions))
        y = SymPoint(
            tuple(
                tuple(
                    QScalar(rng.choice(qexps), rng.choice(turns))
                    for _ in range(b.exponent)
                )
                for b in component.blocks
            )
        )
        got = fiber(y, component)
        expected = fiber_reference(y, component)
        assert sorted(got, key=lambda p: (p.stratum.cycle_type.parts_per_block, p.coords)) \
            == expected
        assert all(project(p) == y for p in got)
        assert len(set(got)) == len(got)


def test_fiber_soundness_on_projected_points():
    rng = random.Random(11)
    qexps = [F(k, 2) for k in range(-2, 3)]
    for _ in range(60):
        component = Component.from_exponents(rng.choice([(3,), (4,), (2, 2)]))
        strata = enumerate_strata(component)
        s = rng.choice(strata)
        coords = tuple(QScalar(rng.choice(qexps), F(0)) for _ in range(s.torus_rank))
        point = StratumPoint(s, coords)
        assert verify_section(point)


def bell_number(n):
    import math

    bells = [1]
    for m in range(n):
        bells.append(sum(math.comb(m, k) * bells[k] for k in range(m + 1)))
    return bells[n]


def test_fiber_size_bounded_by_set_partition_counts():
    # each fiber point on a stratum is one way of cutting the query multisets
    # into cells, so across all strata the set-partition counts bound the fiber
    from gldual.partitions import multipartitions

    rng = random.Random(23)
    qexps = [F(k, 2) for k in range(-3, 4)]
    for _ in range(40):
        exponents = rng.choice([(3,), (4,), (5,), (2, 2), (3, 2)])
        component = Component.from_exponents(exponents)
        y = SymPoint(
            tuple(
                tuple(QScalar(rng.choice(qexps), F(0)) for _ in range(b.exponent))
                for b in component.blocks
            )
        )
        bound = 0
        for _mp in multipartitions(exponents):
            cells = 1
            for e in exponents:
                cells *= bell_number(e)
            bound += cells
        assert len(fiber(y, component)) <= bound


def _q_line(n):
    return SymPoint((tuple(q_power(i) for i in range(n)),)), Component.from_exponents((n,))


def test_fiber_output_limit():
    # n consecutive q-powers have 2^(n-1) preimages, 2^(n-2)(n+1) coordinates in all
    n = max(n for n in range(2, 40) if 2 ** (n - 2) * (n + 1) <= OUTPUT_LIMIT)
    assert len(fiber(*_q_line(n))) == 2 ** (n - 1)
    with pytest.raises(LimitExceeded, match="output limit"):
        fiber(*_q_line(n + 1))


def test_a_generic_fiber_walk_is_linear_in_its_cells():
    # 32,000 distinct unit roots, one cell each: one point, no recursion
    cells = 32000
    point = SymPoint((tuple(unit(F(i, cells)) for i in range(cells)),))
    start = time.perf_counter()
    (found,) = fiber(point, Component.from_exponents((cells,)))
    assert time.perf_counter() - start < 2.0
    assert found.stratum.cycle_type.parts_per_block == ((1,) * cells,)
    assert sorted(found.coords) == list(point.blocks[0])


def test_project_degree_limit():
    # the image holds one scalar per unit of degree: refused above OUTPUT_LIMIT
    s = Stratum(Component.from_exponents((21,)), CycleType(((21,),)))
    image = project(StratumPoint(s, (ONE,)))
    assert image == SymPoint((tuple(q_power(i - 10) for i in range(21)),))
    s = Stratum(Component.from_exponents((OUTPUT_LIMIT + 1,)), CycleType(((OUTPUT_LIMIT + 1,),)))
    with pytest.raises(LimitExceeded):
        project(StratumPoint(s, (ONE,)))


def test_stratum_point_canonicalization():
    s = stratum(C3, (1, 1, 1))
    a = StratumPoint(s, (q_power(2), ONE, q_power(1)))
    b = StratumPoint(s, (ONE, q_power(1), q_power(2)))
    assert a == b
    assert a.coords == (ONE, q_power(1), q_power(2))
    # equal-length runs sort independently of the other runs
    s21 = stratum(C3, (2, 1))
    p = StratumPoint(s21, (q_power(5), ONE))
    assert p.coords == (q_power(5), ONE)


def test_stratum_point_length_validation():
    with pytest.raises(ValueError):
        StratumPoint(stratum(C3, (2, 1)), (ONE,))


def test_sym_point_sorts_blocks():
    y = SymPoint(((q_power(2), ONE, q_power(1)),))
    assert y.blocks == ((ONE, q_power(1), q_power(2)),)


def test_json_round_trips():
    y = SymPoint(((q_power(F(1, 2)), unit(F(1, 3))),))
    assert SymPoint.from_json(y.to_json()) == y
    point = StratumPoint(stratum(C3, (2, 1)), (ONE, q_power(1)))
    assert StratumPoint.from_json(point.to_json()) == point


_SCALES = (F(1, 2), F(1), F(2))
# every composition of 1..5 into at most three blocks
_COMPOSITIONS = [c for r in (1, 2, 3) for c in itertools.product(range(1, 6), repeat=r)
                 if sum(c) <= 5]
_scalars = st.builds(QScalar, st.integers(-6, 6).map(lambda k: F(k, 2)),
                     st.sampled_from((F(0), F(1, 2), F(1, 3))))


@st.composite
def _fiber_queries(draw, scales=_SCALES, scalars=_scalars):
    exponents = draw(st.sampled_from(_COMPOSITIONS))
    component = Component(tuple(Block("b%d" % i, e, draw(st.sampled_from(scales)))
                                for i, e in enumerate(exponents)))
    if draw(st.booleans()):
        # the image of a stratum point, so that deep fibers occur
        s = Stratum(component, CycleType(tuple(
            draw(st.sampled_from(list(partitions(e)))) for e in exponents)))
        coords = draw(st.lists(scalars, min_size=s.torus_rank, max_size=s.torus_rank))
        return component, project(StratumPoint(s, tuple(coords)))
    return component, SymPoint(tuple(
        tuple(draw(st.lists(scalars, min_size=e, max_size=e))) for e in exponents))


@settings(max_examples=200, deadline=None)
@given(_fiber_queries())
def test_fiber_equals_reference_across_q_lines(query):
    # half-integer exponents at q_scale 1/2, 1 and 2 split a block into one,
    # two or four q-lines per turn
    component, y = query
    assert fiber(y, component) == fiber_reference(y, component)


def test_q_string_fiber_has_one_point_per_ordering_of_parts():
    c = Component.from_exponents((12,))
    points = fiber(SymPoint((q_string(12, ONE),)), c)
    assert len(points) == 2048
    assert list(dict.fromkeys(p.stratum for p in points)) == enumerate_strata(c)
    orderings = {
        parts: math.factorial(len(parts))
        // math.prod(math.factorial(m) for _, m in part_multiplicities(parts))
        for parts in partitions(12)
    }
    assert Counter(p.stratum.cycle_type.parts_per_block[0] for p in points) == orderings


def test_sparse_query_stays_sparse():
    y = SymPoint(((q_power(-10**20), q_power(10**20)),))
    t0 = time.perf_counter()
    points = fiber(y, C2)
    assert time.perf_counter() - t0 < 1.0
    assert points == [StratumPoint(stratum(C2, (1, 1)), (q_power(-10**20), q_power(10**20)))]


# q-steps with a numerator or denominator other than 1, and exponents k/6 that
# reduce against them in every way: q_exp / q_scale takes the lowest-terms
# denominators 1, 2, 3, 4, 6, 9 and 18, and negative positions
_WIDE_SCALES = (F(1, 3), F(2, 3), F(3, 2), F(3))
_wide_scalars = st.builds(QScalar, st.integers(-12, 6).map(lambda k: F(k, 6)),
                          st.sampled_from((F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4))))


def _assert_canonical(points):
    """Each point equals the one the checked constructors make of its fields,
    and each coordinate is a reduced QScalar."""
    for p in points:
        parts = p.stratum.cycle_type.parts_per_block
        assert p.stratum == Stratum(p.stratum.component, CycleType(parts))
        assert p == StratumPoint(p.stratum, p.coords)
        for z in p.coords:
            assert type(z) is QScalar
            assert type(z.q_exp) is F and type(z.turn) is F
            assert 0 <= z.turn < 1


@settings(max_examples=150, deadline=None)
@given(_fiber_queries(_WIDE_SCALES, _wide_scalars))
def test_fiber_equals_reference_on_wide_q_lines(query):
    component, y = query
    points = fiber(y, component)
    assert points == fiber_reference(y, component)
    _assert_canonical(points)


def test_q_string_fiber_points_are_canonical():
    points = fiber(SymPoint((q_string(12, ONE),)), Component.from_exponents((12,)))
    assert len(points) == 2048
    _assert_canonical(points)


def test_deep_fiber_sizes_equal_the_benchmark_multisegment_count(monkeypatch):
    # fiber_reference cannot reach degrees 9-13 in time; the benchmark's
    # counter, written apart from gldual, counts each q-line's covers on its
    # own and multiplies them
    monkeypatch.syspath_prepend(str(BENCH))
    combinat = importlib.import_module("combinat")
    rng = random.Random(18)
    deepest = most_lines = 0
    for _ in range(120):
        degree, blocks = rng.randint(9, 13), rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, degree), blocks - 1))
        exponents = [b - a for a, b in zip([0, *cuts], [*cuts, degree])]
        component = Component(tuple(Block("b%d" % i, e, rng.choice(_SCALES))
                                    for i, e in enumerate(exponents)))
        s = Stratum(component, CycleType(tuple(rng.choice(list(partitions(e)))
                                               for e in exponents)))
        coords = tuple(QScalar(F(rng.randint(-2, 2), 2), rng.choice((F(0), F(1, 2), F(1, 3))))
                       for _ in range(s.torus_rank))
        y = project(StratumPoint(s, coords))
        elements = [[(z.q_exp, z.turn) for z in b] for b in y.blocks]
        scales = [b.q_scale for b in component.blocks]
        points = fiber(y, component)
        assert len(points) == combinat.fiber_size(elements, scales)
        # a set of that size: pairwise distinct points, each over the query
        assert len(set(points)) == len(points)
        assert all(project(p) == y for p in points)
        _assert_canonical(points)
        deepest = max(deepest, len(points))
        most_lines = max(most_lines, sum(len(combinat.line_counts(e, scale))
                                         for e, scale in zip(elements, scales)))
    assert deepest >= 1000 and most_lines >= 6


def test_fiber_search_compares_no_scalar(monkeypatch):
    c = Component.from_exponents((8,))
    y = SymPoint((q_string(8, unit(F(1, 3))),))
    expected = fiber(y, c)

    def refuse(self, other):
        raise AssertionError("QScalar compared")

    with monkeypatch.context() as patch:
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            patch.setattr(QScalar, name, refuse)
        points = fiber(y, c)
    assert len(points) == 2 ** 7
    assert points == expected



def test_fiber_does_no_fraction_arithmetic(monkeypatch):
    # each center is one Fraction made from its lowest cell's integers
    twisted = Component((Block("a", 8, F(1, 2)),))
    c = Component((Block("y", 4, F(3, 2)), Block("x", 3)))
    s = Stratum(c, CycleType(((3, 1), (2, 1))))
    image = project(StratumPoint(s, (QScalar(F(1, 2), F(1, 3)), q_power(F(3, 2)),
                                     unit(F(1, 3)), q_power(-1))))
    queries = [(SymPoint((q_string(8, QScalar(F(1, 3), F(1, 4)), F(1, 2)),)), twisted),
               (image, c)]
    expected = [fiber(*query) for query in queries]

    def refuse(self, other):
        raise AssertionError("Fraction arithmetic")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            patch.setattr(F, name, refuse)
        points = [fiber(*query) for query in queries]
    assert points == expected
    assert [len(p) for p in points] == [2 ** 7, 8]


@pytest.mark.parametrize("component, point", [
    # a single cell, so segments are written in base 2
    (Component.from_exponents((1,)), SymPoint(((QScalar(F(1, 3), F(1, 2)),),))),
    (Component.from_exponents((3,)), SymPoint(((q_power(2),) * 3,))),
    # one string spans every cell of the last block
    (Component((Block("b", 1), Block("a", 4, F(1, 2)))),
     SymPoint(((unit(F(1, 2)),), q_string(4, unit(F(1, 3)), F(1, 2))))),
    # the highest rank, the last block's highest cell, in the last of three blocks
    (Component((Block("c", 1, F(2)), Block("b", 1), Block("a", 3, F(1, 3)))),
     SymPoint(((q_power(-1),), (ONE,), (q_power(F(1, 3)), q_power(F(2, 3)), q_power(F(5, 2)))))),
])
def test_fiber_equals_reference_at_the_edges_of_the_segment_encoding(component, point):
    points = fiber(point, component)
    assert points == fiber_reference(point, component)
    _assert_canonical(points)

# A seeded corpus of fiber queries whose outputs, points, strata and order,
# are pinned by one hash: twisted q-strings of every length up to 12, pairs of
# overlapping strings, images of stratum points, generic points up to degree
# 40, and a refusal above the output limit, on components of one to three
# blocks whose labels are not in block order.
_CORPUS_SCALES = (F(1), F(1, 2), F(2), F(1, 3), F(3, 2))
_CORPUS_HASH = "e6469ff188ef327b875a1adfbd6e96c4c99b382dadfc1bf1b5bee45e3f9b1d3b"


def _fiber_corpus():
    rng = random.Random(2028)

    def scalar(exps=range(-6, 7)):
        return QScalar(F(rng.choice(exps), rng.choice((1, 2, 3, 6))), F(rng.randrange(6), 6))

    def component(exponents):
        labels = rng.sample("abcdefgh", len(exponents))
        if len(labels) > 1 and labels == sorted(labels):
            labels.reverse()
        return Component(tuple(Block(label, e, rng.choice(_CORPUS_SCALES))
                               for label, e in zip(labels, exponents)))

    def split(degree):
        blocks = rng.randint(1, min(3, degree))
        cuts = sorted(rng.sample(range(1, degree), blocks - 1))
        return [b - a for a, b in zip([0, *cuts], [*cuts, degree])]

    queries = []
    for n in [*range(1, 13), *range(1, 13), 14]:
        c = component((n,))
        queries.append((c, SymPoint((q_string(n, scalar(), c.blocks[0].q_scale),))))
    for _ in range(60):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        c = component((a + b,))
        s, z = c.blocks[0].q_scale, scalar()
        w = z.q_shift(s * F(rng.randint(-a - b, a + b), rng.choice((1, 1, 2))))
        if rng.random() < 0.2:
            w = QScalar(w.q_exp, w.turn + F(1, 2))
        queries.append((c, SymPoint((q_string(a, z, s) + q_string(b, w, s),))))
    for _ in range(110):
        c = component(split(rng.randint(1, 11)))
        s = Stratum(c, CycleType(tuple(rng.choice(list(partitions(e))) for e in c.exponents)))
        coords = tuple(scalar(range(-2, 3)) for _ in range(s.torus_rank))
        queries.append((c, project(StratumPoint(s, coords))))
    for _ in range(100):
        c = component(split(rng.randint(1, 40)))
        queries.append((c, SymPoint(tuple(tuple(scalar(range(-30, 31)) for _ in range(e))
                                          for e in c.exponents))))
    c = Component((Block("y", 7, F(1, 2)), Block("x", 7)))
    queries.append((c, SymPoint((q_string(7, ONE, F(1, 2)), q_string(7, ONE)))))
    return queries


def test_the_fiber_corpus_hash_is_pinned():
    corpus = _fiber_corpus()
    assert len(corpus) == 296
    digest = hashlib.sha256()
    for component, point in corpus:
        try:
            out = [p.to_json() for p in fiber(point, component)]
        except LimitExceeded as e:
            out = str(e)
        digest.update(json.dumps(out, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == _CORPUS_HASH
