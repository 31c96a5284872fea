import copy
import hashlib
import json
import random
from fractions import Fraction as F

import pytest

import gldual.bernstein
import gldual.partitions
from gldual.bernstein import (
    Block,
    Component,
    CycleType,
    Stratum,
    enumerate_orbits,
    enumerate_strata,
    orbit_stratum_bijection,
)
from gldual.cohomology import _centralizer_order
from gldual.errors import LimitExceeded
from gldual.parameters import OrbitDescriptor, orbit_shape
from gldual.partitions import (OUTPUT_LIMIT, multipartitions, part_multiplicities, partitions,
                               run_lengths)
from gldual.verify import _compositions


def partition_count(n):
    # independent counter: coin-style DP over part sizes
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def test_partition_enumeration_matches_independent_counter():
    for n in range(0, 21):
        assert isinstance(partitions(n), tuple) and partitions(n) is partitions(n)
        parts = list(partitions(n))
        assert len(parts) == partition_count(n)
        assert parts == sorted(parts)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def test_partitions_are_bounded_by_the_output_limit():
    # p(39) = 31,185 fits under OUTPUT_LIMIT, p(40) = 37,338 does not
    assert len(partitions(39)) == partition_count(39) == 31185
    assert list(partitions(39)) == sorted(partitions(39))
    with pytest.raises(LimitExceeded, match="the partitions of 40 exceed the output limit"):
        partitions(40)
    assert partition_count(40) > OUTPUT_LIMIT


def test_multipartitions_beyond_the_output_limit_are_refused_before_any_is_yielded():
    assert len(list(multipartitions((4, 4, 4, 4, 4, 4)))) == 5 ** 6
    with pytest.raises(LimitExceeded,
                       match="31404816 multipartitions exceed the output limit 32768"):
        multipartitions((30, 30))


def test_partition_counts_are_filled_up_to_the_output_limit_only():
    assert gldual.partitions._count(39) == 31185
    assert gldual.partitions._PARTITIONS == [partition_count(n) for n in range(40)]
    with pytest.raises(LimitExceeded):
        gldual.partitions._count(10 ** 8)
    assert len(gldual.partitions._PARTITIONS) == 40


def test_partition_count_refuses_a_negative_n():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        gldual.partitions._count(-1)


def test_refused_multipartitions_build_no_partition_table():
    partitions.cache_clear()
    with pytest.raises(LimitExceeded, match="31404816 multipartitions exceed"):
        multipartitions((30, 30))
    assert partitions.cache_info().currsize == 0


def test_refusals_far_past_the_output_limit_walk_nothing(monkeypatch):
    def walk(n, max_part):
        raise AssertionError("walked the partitions of %d" % n)
        yield

    monkeypatch.setattr(gldual.partitions, "_bounded", walk)
    for call, n in [(lambda: partitions(10 ** 8), 10 ** 8),
                    (lambda: multipartitions((1200,)), 1200)]:
        with pytest.raises(LimitExceeded) as refusal:
            call()
        assert str(refusal.value) == "the partitions of %d exceed the output limit 32768" % n


def test_centralizer_orders_sum_to_group_order():
    import math

    for n in range(1, 8):
        assert sum(math.factorial(n) // _centralizer_order(p) for p in partitions(n)) \
            == math.factorial(n)


def test_part_multiplicities():
    assert part_multiplicities((3, 2, 2, 1, 1, 1)) == ((3, 1), (2, 2), (1, 3))
    assert run_lengths((3, 2, 2, 1, 1, 1)) == (1, 2, 3)
    for n in range(8):
        for p in partitions(n):
            assert run_lengths(p) == tuple(m for _, m in part_multiplicities(p))
            assert run_lengths(p) is run_lengths(p)


def test_strata_for_exponents_2():
    strata = enumerate_strata(Component.from_exponents((2,)))
    assert [s.cycle_type.parts_per_block for s in strata] == [((1, 1),), ((2,),)]
    assert [s.torus_rank for s in strata] == [2, 1]
    assert [s.residual_blocks() for s in strata] == [(2,), (1,)]


def test_strata_for_exponents_3():
    strata = enumerate_strata(Component.from_exponents((3,)))
    assert [s.torus_rank for s in strata] == [3, 2, 1]
    assert [s.residual_blocks() for s in strata] == [(3,), (1, 1), (1,)]


def test_single_exponent_component():
    strata = enumerate_strata(Component.from_exponents((1,)))
    assert len(strata) == 1 and strata[0].torus_rank == 1


def test_strata_count_is_product_of_partition_counts():
    for exponents in [(2,), (4,), (2, 3), (1, 2, 3), (5, 2)]:
        c = Component.from_exponents(exponents)
        expected = 1
        for e in exponents:
            expected *= partition_count(e)
        assert len(enumerate_strata(c)) == expected


def test_orbits_for_exponents_2():
    orbits = enumerate_orbits(Component.from_exponents((2,)))
    assert len(orbits) == 2
    unramified, twisted_steinberg = orbits
    assert unramified.multiplicities == (2,)
    assert unramified.classes[0][0].spin_j == 0
    assert twisted_steinberg.multiplicities == (1,)
    assert twisted_steinberg.classes[0][0].spin_j == F(1, 2)


def test_orbits_for_exponents_3():
    orbits = enumerate_orbits(Component.from_exponents((3,)))
    assert [o.k for o in orbits] == [1, 2, 1]
    assert [orbit_shape(o) for o in orbits] == [(2, 1), (0, 2), (0, 1)]


def test_orbit_for_exponents_1():
    (orbit,) = enumerate_orbits(Component.from_exponents((1,)))
    assert orbit.k == 1 and orbit.multiplicities == (1,)


def test_orbits_pairwise_distinct():
    for exponents in [(4,), (2, 2), (3, 2, 1)]:
        orbits = enumerate_orbits(Component.from_exponents(exponents))
        assert len(set(orbits)) == len(orbits)


def test_bijection_pairs_matching_invariants():
    for exponents in [(2,), (3,), (2, 2), (3, 1)]:
        c = Component.from_exponents(exponents)
        pairs = orbit_stratum_bijection(c)
        assert len(pairs) == len(enumerate_strata(c)) == len(enumerate_orbits(c))
        assert len({o for o, _ in pairs}) == len(pairs)
        assert len({s for _, s in pairs}) == len(pairs)
        for orbit, stratum in pairs:
            l, k = orbit_shape(orbit)
            assert k == len(stratum.residual_blocks())
            assert stratum.torus_rank == sum(orbit.multiplicities) == l + k


def test_gl3_k2_orbit_pairs_with_rank2_stratum():
    pairs = orbit_stratum_bijection(Component.from_exponents((3,)))
    orbit, stratum = pairs[1]
    assert orbit.k == 2
    assert stratum.cycle_type.parts_per_block == ((2, 1),)
    assert stratum.torus_rank == 2


def test_quotient_shape_sym2_for_two_2_cycles():
    c = Component.from_exponents((4,))
    strata = {s.cycle_type.parts_per_block: s for s in enumerate_strata(c)}
    assert strata[((2, 2),)].residual_blocks() == (2,)


def test_multiblock_residual_blocks_concatenate():
    c = Component.from_exponents((3, 2))
    s = Stratum(c, CycleType(((2, 1), (1, 1))))
    assert s.residual_blocks() == (1, 1, 2)
    assert s.torus_rank == 4


def test_walks_are_bounded_by_their_count_alone():
    # no degree limit: p(21) = 792 strata, orbits and pairs; p(40) is refused by its count
    c = Component.from_exponents((21,))
    assert len(enumerate_strata(c)) == len(enumerate_orbits(c)) == partition_count(21) == 792
    assert len(orbit_stratum_bijection(c)) == 792
    for walk in (enumerate_strata, enumerate_orbits, orbit_stratum_bijection):
        with pytest.raises(LimitExceeded, match="the partitions of 40 exceed the output limit"):
            walk(Component.from_exponents((40,)))


def test_the_orbit_walk_is_refused_before_any_table_is_built(monkeypatch):
    # enumerate_orbits walks the multipartitions itself and never the strata
    def not_called(*args):
        raise AssertionError("called with %r" % (args,))

    monkeypatch.setattr(gldual.bernstein, "enumerate_strata", not_called)
    assert len(enumerate_orbits(Component.from_exponents((3, 2)))) == 6
    monkeypatch.setattr(gldual.bernstein, "partitions", not_called)  # a block's table
    for exponents, message in [((40,), "the partitions of 40 exceed the output limit"),
                               ((30, 30), "31404816 multipartitions exceed the output limit")]:
        partitions.cache_clear()
        with pytest.raises(LimitExceeded, match=message):
            enumerate_orbits(Component.from_exponents(exponents))
        assert partitions.cache_info().currsize == 0


def test_component_validation():
    with pytest.raises(ValueError):
        Component(())
    with pytest.raises(ValueError):
        Component((Block("a", 1), Block("a", 2)))
    with pytest.raises(ValueError):
        Block("a", 0)
    with pytest.raises(ValueError):
        Block("", 1)
    with pytest.raises(ValueError):
        Block("a", 1, F(-1))


def test_block_q_scale_is_exact():
    # a float is refused, not snapped to 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        Block("a", 2, 0.1)
    with pytest.raises(TypeError):
        Block("a", 2, q_scale=0.5)
    assert Block("a", 2, 2).q_scale == F(2)
    assert Block("a", 2, F(1, 2)).q_scale == F(1, 2)


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType(((1, 2),))
    with pytest.raises(ValueError):
        CycleType(((0,),))
    c = Component.from_exponents((3,))
    with pytest.raises(ValueError):
        Stratum(c, CycleType(((2, 2),)))
    with pytest.raises(ValueError):
        Stratum(c, CycleType(((2, 1), (1,))))


def test_component_json_round_trip():
    c = Component((Block("sc0", 3), Block("other", 1, F(2))))
    assert Component.from_json(c.to_json()) == c
    assert c.to_json() == {
        "blocks": [
            {"label": "sc0", "exponent": 3},
            {"label": "other", "exponent": 1, "q_scale": "2"},
        ]
    }


def test_stratum_json():
    c = Component.from_exponents((3,))
    s = enumerate_strata(c)[1]
    data = s.to_json()
    assert data == {"cycle_type": [[2, 1]], "torus_rank": 2, "sym_factors": [1, 1]}
    assert Stratum.from_json(data, c) == s


# Out of sorted order in str comparison ("B" < "a" < "a1" < "b", "sc10" < "sc2").
UNSORTED_LABELS = ("b", "a", "B", "a1", "sc2", "sc10", "Z", "a0")
Q_SCALES = (F(1), F(3, 2), F(2), F(1, 3))


def _unsorted_component(exponents):
    return Component(tuple(Block(UNSORTED_LABELS[i], e, Q_SCALES[i % len(Q_SCALES)])
                           for i, e in enumerate(exponents)))


def test_walk_builds_what_the_validating_constructors_build():
    exponent_vectors = [*_compositions(8, None), (4, 4, 4, 4), (5, 5, 4)]
    for exponents in exponent_vectors:
        for c in (Component.from_exponents(exponents), _unsorted_component(exponents)):
            strata = enumerate_strata(c)
            for s in strata:
                assert s == Stratum(c, CycleType(s.cycle_type.parts_per_block))
            orbits = enumerate_orbits(c)
            assert orbit_stratum_bijection(c) == list(zip(orbits, strata))
            for o in orbits:
                validated = OrbitDescriptor(o.classes)
                assert o == validated
                assert hash(o) == hash(validated)
                assert o.to_json() == validated.to_json()
                assert OrbitDescriptor(tuple(reversed(o.classes))) == o


def test_to_json_is_the_dict_of_the_shape_properties():
    # the JSON is built directly; it equals, key order included, the dict read
    # off `torus_rank`, `residual_blocks`, `orbit_shape` and each class's JSON
    for exponents in [(3,), (2, 2), (4, 1, 2), (5, 5, 4)]:
        c = _unsorted_component(exponents)
        for s, o in zip(enumerate_strata(c), enumerate_orbits(c)):
            assert json.dumps(s.to_json()) == json.dumps({
                "cycle_type": [list(p) for p in s.cycle_type.parts_per_block],
                "torus_rank": s.torus_rank,
                "sym_factors": list(s.residual_blocks()),
            })
            l, k = orbit_shape(o)
            assert json.dumps(o.to_json()) == json.dumps({
                "classes": [dict(cls.to_json(), multiplicity=m) for cls, m in o.classes],
                "l": l,
                "k": k,
            })


def test_orbit_json_still_validated():
    orbit = enumerate_orbits(_unsorted_component((3, 2)))[0]
    data = orbit.to_json()
    assert OrbitDescriptor.from_json(data) == orbit
    duplicate = dict(data, classes=[data["classes"][0], data["classes"][0]])
    with pytest.raises(ValueError, match="pairwise distinct"):
        OrbitDescriptor.from_json(duplicate)
    clash = dict(data["classes"][0], j="1/2")
    clash["rho"] = dict(clash["rho"], dim=2)
    with pytest.raises(ValueError, match="inconsistent attributes"):
        OrbitDescriptor.from_json(dict(data, classes=[data["classes"][0], clash]))
    for bad, message in [({}, "classes is missing"),
                         ({"classes": 1}, "classes must be a JSON list, got a number"),
                         ({"classes": [[1]]}, r"classes\[0\] must be a JSON object, got a list"),
                         ({"classes": [{"j": "0", "multiplicity": 1}]},
                          r"classes\[0\]\.rho is missing")]:
        with pytest.raises(ValueError, match=message):
            OrbitDescriptor.from_json(bad)


def _walk_corpus():
    """Seeded components of 1-4 blocks, labels out of sorted order and q-steps
    other than 1, with the shapes (20,), (5, 5, 5) and (4, 4, 4, 4)."""
    rng = random.Random(29)
    shapes = [(20,), (5, 5, 5), (4, 4, 4, 4)]
    shapes += [tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4))) for _ in range(40)]
    for shape in shapes:
        labels = rng.sample(UNSORTED_LABELS, len(shape))
        yield Component(tuple(Block(label, e, rng.choice(Q_SCALES[1:]))
                              for label, e in zip(labels, shape)))


# the SHA-256 of the corpus's walks, recorded before the walks were last changed
WALK_CORPUS_SHA256 = "56d41cad6b3f6c8b07fda3b5573ee40ef7957867c029079a6c8cb9b74922385e"


def test_the_walks_print_what_they_printed_when_the_corpus_was_recorded():
    digest = hashlib.sha256()
    for c in _walk_corpus():
        strata = enumerate_strata(c)
        digest.update(json.dumps([
            c.to_json(),
            [s.to_json() for s in strata],
            [o.to_json() for o in enumerate_orbits(c)],
            [[o.to_json(), s.to_json()] for o, s in orbit_stratum_bijection(c)],
            [s.residual_blocks() for s in strata],
        ]).encode())
    assert digest.hexdigest() == WALK_CORPUS_SHA256


def _mutate(value):
    """Change every list and dict inside `value`, and `value` itself."""
    if isinstance(value, dict):
        for member in value.values():
            _mutate(member)
        value["mutated"] = True
    elif isinstance(value, list):
        for entry in value:
            _mutate(entry)
        value.append("mutated")


def test_to_json_is_fresh_and_leaves_the_memos_intact():
    # one block, whose orbit holds its table entry itself, and three blocks
    for exponents in [(6,), (4, 3, 3)]:
        c = _unsorted_component(exponents)
        memos = {p: (run_lengths(p), part_multiplicities(p))
                 for e in exponents for p in partitions(e)}
        strata, orbits = enumerate_strata(c), enumerate_orbits(c)
        for value in (strata[-2], orbits[-2], strata[1], orbits[1]):
            first = value.to_json()
            expected = copy.deepcopy(first)
            _mutate(first)
            assert value.to_json() == expected
        assert {p: (run_lengths(p), part_multiplicities(p)) for p in memos} == memos
        assert [s.to_json() for s in enumerate_strata(c)] == [s.to_json() for s in strata]
        assert [o.to_json() for o in enumerate_orbits(c)] == [o.to_json() for o in orbits]
