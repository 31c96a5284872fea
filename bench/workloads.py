"""The four workloads: seeded inputs, one request each, and independent oracles.

A workload builds one round of requests from its seed.  The runner repeats
the round; `call` performs one request through the public gldual functions
(looked up on their modules at call time, so the traced run sees them),
`check` judges an output with the benchmark's own oracles and returns None or
a failure message, and `encode` turns an output into canonical JSON for the
output digest.

Shapes (degrees and block counts) are fixed per round so that every seed
costs about the same; the seed draws labels, q-steps, points, orbits,
twists, times and roots, and block order except in fiber_search.  Round
sizes are fixed too: they set the tail percentile of each workload (the
highest with ten requests of a round beyond it).  An in-process round takes
about 5-7 s on a 2-core Xeon VM, so a 24 s run holds two to four of them
besides its setup probes.
"""

from __future__ import annotations

import cmath
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from gldual import bernstein, cohomology, parameters, qproj, retract, symfun, verify
from gldual.bernstein import Block, Component, CycleType, Stratum
from gldual.parameters import InertialClass, LParameter, WeilLabel
from gldual.qproj import StratumPoint, SymPoint
from gldual.scalars import QScalar

import combinat
from combinat import product


def _labels(rng: random.Random, n: int) -> list[str]:
    labels: list[str] = []
    while len(labels) < n:
        label = "sc%05x" % rng.getrandbits(20)
        if label not in labels:
            labels.append(label)
    return labels


def _component(rng: random.Random, shape, layout: random.Random | None = None) -> Component:
    """A component of the given shape with seeded labels; `layout`, if given,
    draws the block order and q-scales instead of `rng`."""
    layout = layout or rng
    exponents = layout.sample(list(shape), len(shape))
    scales = [Fraction(layout.choice((1, 1, Fraction(1, 2), 2))) for _ in exponents]
    return Component(tuple(
        Block(label, e, scale)
        for label, e, scale in zip(_labels(rng, len(exponents)), exponents, scales)
    ))


def _half_integer(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-2 * bound, 2 * bound), 2)


def _turn(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(12), 12)


def _scalar(pair) -> QScalar:
    return QScalar(pair[0], pair[1])


# ---------------------------------------------------------------------------
# fiber_search

# Every shape is queried once in each of three ways with large outputs (a
# full q-string, the {1,1,q,q,...} pairs, and the image of a random stratum
# point on a few q-lines) and three times with generic points, one element
# per q-line, whose fiber is a single point.  Degree 10 gives the largest
# output, 512 points.  Low degrees get more shapes, so most requests are
# cheap.  Degree 9 is left out to keep a round near 5 s on a 2-core Xeon VM:
# 102 requests, so the tail is p90.
FIBER_SHAPES = (
    (4,), (2, 2), (3, 1),
    (5,), (3, 2), (2, 2, 1),
    (6,), (3, 3), (4, 2), (2, 2, 2),
    (7,), (4, 3), (3, 2, 2),
    (8,), (4, 4), (3, 3, 2),
    (10,),
)
FIBER_KINDS = ("qstring", "pairs", "image", "generic", "generic", "generic")
FIBER_ROUND = tuple((kind, shape) for shape in FIBER_SHAPES for kind in FIBER_KINDS)

# fiber_reference takes 0.35 s at degree 5 on a 2-core Xeon VM, ~15x more per degree
REFERENCE_MAX_DEGREE = 5


def _fiber_block(rng: random.Random, kind: str, e: int, scale: Fraction, layout: random.Random):
    """The query's elements in one block.  `layout` draws what sets the size of
    an image's fiber: its cycle type and how its q-strings lie relative to
    each other; `rng` draws where they lie."""
    base = (_half_integer(rng, 2), _turn(rng))
    if kind == "qstring":
        return combinat.string(e, base, scale)
    if kind == "pairs":
        return [(base[0] + scale * (i // 2), base[1]) for i in range(e)]
    if kind == "image":
        parts = layout.choice(combinat.partitions_sorted(e))
        turns = (base[1], (base[1] + Fraction(1, 2)) % 1)
        elements = []
        for alpha in parts:
            center = (base[0] + scale * Fraction(layout.randint(-2, 2), 2), layout.choice(turns))
            elements += combinat.string(alpha, center, scale)
        return elements
    turns = rng.sample(range(97), e)
    return [(_half_integer(rng, 3), Fraction(t, 97)) for t in turns]


def make_fiber_search(rng: random.Random) -> list:
    # A fiber's cost follows its layout: a degree-10 image cost between 0.3 s
    # and 1.3 s from one seed to the next, and a q-scale of 1/2 or 2 can
    # double the cost of a search.  The layouts are the same for every seed,
    # so each seed costs about the same.
    layout = random.Random("fiber_search:layout")
    requests = []
    for kind, shape in FIBER_ROUND:
        component = _component(rng, shape, layout)
        blocks = [_fiber_block(rng, kind, b.exponent, b.q_scale, layout) for b in component.blocks]
        point = SymPoint(tuple(tuple(_scalar(z) for z in block) for block in blocks))
        requests.append((kind, component, point))
    rng.shuffle(requests)
    return requests


def call_fiber_search(request):
    _, component, point = request
    return qproj.fiber(point, component)


def _coords_key(point: StratumPoint):
    return tuple((z.q_exp, z.turn) for z in point.coords)


def _own_projection(point: StratumPoint) -> list[Counter]:
    out, i = [], 0
    for block, parts in zip(point.stratum.component.blocks,
                            point.stratum.cycle_type.parts_per_block):
        elements: Counter = Counter()
        for alpha in parts:
            z = point.coords[i]
            i += 1
            elements.update(combinat.string(alpha, (z.q_exp, z.turn), block.q_scale))
        out.append(elements)
    return out


def check_fiber_search(request, out) -> str | None:
    _, component, query = request
    target = [Counter((z.q_exp, z.turn) for z in block) for block in query.blocks]
    keys = []
    for point in out:
        if point.stratum.component != component:
            return "point on another component"
        if _own_projection(point) != target:
            return "a point does not re-project to the query"
        coords, i = _coords_key(point), 0
        for parts in point.stratum.cycle_type.parts_per_block:
            for j in range(len(parts) - 1):
                if parts[j] == parts[j + 1] and coords[i + j] > coords[i + j + 1]:
                    return "coordinates not sorted within a run of equal cycles"
            i += len(parts)
        keys.append((point.stratum.cycle_type.parts_per_block, _coords_key(point)))
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "points repeated or not in canonical order"
    expected = combinat.fiber_size(
        [[(z.q_exp, z.turn) for z in block] for block in query.blocks],
        [b.q_scale for b in component.blocks],
    )
    if len(out) != expected:
        return "fiber has %d points, the multisegment count is %d" % (len(out), expected)
    if component.degree <= REFERENCE_MAX_DEGREE and list(out) != verify.fiber_reference(query, component):
        return "fiber differs from verify.fiber_reference"
    return None


def encode_fiber_search(out):
    return [p.to_json() for p in out]


# ---------------------------------------------------------------------------
# hp_orbits

# total exponent 6..16, one to four blocks; (4,4,4,4) is the Molien-heavy case
HP_SHAPES = (
    (6,), (3, 3), (2, 2, 2), (2, 2, 1, 1), (7,),
    (8,), (5, 3), (3, 3, 2), (2, 2, 2, 2), (9,),
    (10,), (5, 5), (4, 3, 3), (3, 3, 2, 2),
    (12,), (6, 6), (6, 4), (4, 4, 4), (3, 3, 3, 3),
    (14,), (5, 5, 4), (16,), (4, 4, 4, 4),
)
HP_KINDS = ("hp", "strata", "temper")
HP_DRAWS = 2  # per shape and kind: 138 requests, so the tail is p90


def _parameter(rng: random.Random, component: Component):
    """A parameter over a drawn orbit of the component, with random twists."""
    summands = []
    for block in component.blocks:
        rho = WeilLabel(block.label, rng.randint(1, 3), True)
        parts = rng.choice(combinat.partitions_sorted(block.exponent))
        for alpha in parts:
            twist = QScalar(_half_integer(rng, 3), _turn(rng))
            summands.append((InertialClass(rho, Fraction(alpha - 1, 2)), twist))
    return LParameter(tuple(summands)), Fraction(rng.randint(0, 12), 12)


def make_hp_orbits(rng: random.Random) -> list:
    requests = []
    for shape in HP_SHAPES:
        for kind in HP_KINDS * HP_DRAWS:
            component = _component(rng, shape)
            extra = _parameter(rng, component) if kind == "temper" else None
            requests.append((kind, component, extra))
    rng.shuffle(requests)
    return requests


def call_hp_orbits(request):
    kind, component, extra = request
    if kind == "hp":
        return cohomology.component_hp(component), cohomology.orbit_hp_dimension(component)
    if kind == "strata":
        return {
            "strata": [s.to_json() for s in bernstein.enumerate_strata(component)],
            "orbits": [o.to_json() for o in bernstein.enumerate_orbits(component)],
            "pairs": [[o.to_json(), s.to_json()]
                      for o, s in bernstein.orbit_stratum_bijection(component)],
        }
    phi, t = extra
    tempered = retract.temper_parameter(phi)
    moved = retract.homotopy(phi, t)
    return tempered, moved, parameters.orbit_of(tempered), parameters.orbit_of(moved)


def _check_strata(component: Component, out) -> str | None:
    mps = combinat.multipartitions_sorted(component.exponents)
    strata, orbits, pairs = out["strata"], out["orbits"], out["pairs"]
    if not len(strata) == len(orbits) == len(pairs) == len(mps):
        return "%d strata, %d orbits, %d pairs; the partition count is %d" % (
            len(strata), len(orbits), len(pairs), len(mps))
    for mp, stratum, orbit, pair in zip(mps, strata, orbits, pairs):
        if [list(p) for p in mp] != stratum["cycle_type"]:
            return "strata not in multipartition order"
        factors = [m for parts in mp for m in combinat.multiplicities(list(parts))]
        rank = sum(len(p) for p in mp)
        if stratum["torus_rank"] != rank or stratum["sym_factors"] != factors:
            return "stratum %s has the wrong shape" % (mp,)
        classes = sorted(
            (block.label, str(Fraction(alpha - 1, 2)), parts.count(alpha))
            for block, parts in zip(component.blocks, mp) for alpha in set(parts)
        )
        got = sorted((c["rho"]["id"], c["j"], c["multiplicity"]) for c in orbit["classes"])
        if got != classes or orbit["k"] != len(classes) or orbit["l"] != rank - len(classes):
            return "orbit for %s does not match its multipartition" % (mp,)
        if pair != [orbit, stratum]:
            return "bijection pairs differ from the enumerations"
    return None


def _check_temper(extra, out) -> str | None:
    phi, t = extra
    tempered, moved, orbit_t, orbit_m = out

    def summands(p):
        return Counter((c.key(), tw.q_exp, tw.turn) for c, tw in p.summands)

    if summands(tempered) != Counter((c.key(), 0, tw.turn) for c, tw in phi.summands):
        return "tempered parameter is not the unit part"
    if summands(moved) != Counter((c.key(), (1 - t) * tw.q_exp, tw.turn) for c, tw in phi.summands):
        return "homotopy did not scale the moduli by 1 - t"
    classes = Counter(c.key() for c, _ in phi.summands)
    for orbit in (orbit_t, orbit_m):
        if Counter({c.key(): m for c, m in orbit.classes}) != classes:
            return "retraction changed the orbit"
    return None


def check_hp_orbits(request, out) -> str | None:
    kind, component, extra = request
    if kind == "strata":
        return _check_strata(component, out)
    if kind == "temper":
        return _check_temper(extra, out)
    (hp0, hp1), orbit_dim = out
    closed = product(combinat.overpartition_count(e) for e in component.exponents) // 2
    if not hp0 == hp1 == orbit_dim == closed:
        return "hp (%d, %d), orbit formula %d, overpartition count %d" % (
            hp0, hp1, orbit_dim, closed)
    return None


def encode_hp_orbits(out):
    if isinstance(out, dict):
        return out
    if isinstance(out[0], tuple):
        return [list(out[0]), out[1]]
    return [x.to_json() for x in out]


# ---------------------------------------------------------------------------
# symcoords_roundtrip

SYM_DEGREES = range(2, 13)
# a root-finding call costs more or less with its roots: many per degree even
# it out; 154 requests, so the tail is p90
SYM_SEPARATED_PER_DEGREE = 13
SYM_DOUBLE_PER_DEGREE = 1
SYM_TOLERANCE = {False: 1e-9, True: 1e-6}  # well separated / with a double root


def _separated_roots(rng: random.Random, n: int, separation: float = 1e-3) -> list[complex]:
    # the sampling scheme of the tier-1 round-trip check
    while True:
        roots = [10 ** rng.uniform(-2.0, 2.0) * cmath.exp(2j * cmath.pi * rng.random())
                 for _ in range(n)]
        if all(abs(roots[i] - roots[j]) >= separation
               for i in range(n) for j in range(i + 1, n)):
            return roots


def make_symcoords_roundtrip(rng: random.Random) -> list:
    requests = []
    for n in SYM_DEGREES:
        for _ in range(SYM_SEPARATED_PER_DEGREE):
            requests.append((False, _separated_roots(rng, n)))
        for _ in range(SYM_DOUBLE_PER_DEGREE):
            roots = _separated_roots(rng, n - 1)
            requests.append((True, roots + [rng.choice(roots)]))
    rng.shuffle(requests)
    return requests


def call_symcoords_roundtrip(request):
    _, roots = request
    recovered = symfun.from_sym_coords(symfun.to_sym_coords(roots))
    return recovered, symfun.match_multisets(roots, recovered)


def roundtrip_error(request, out) -> float:
    """Worst relative error of the round trip, over the returned pairing and over
    nearest-neighbour matching computed here."""
    _, roots = request
    recovered, pairs = out
    paired = max(abs(roots[i] - recovered[j]) / abs(roots[i]) for i, j in pairs)
    nearest = max(min(abs(r - s) for s in recovered) / abs(r) for r in roots)
    return max(paired, nearest)


def check_symcoords_roundtrip(request, out) -> str | None:
    double, roots = request
    recovered, pairs = out
    n = len(roots)
    if len(recovered) != n or sorted(i for i, _ in pairs) != list(range(n)) \
            or sorted(j for _, j in pairs) != list(range(n)):
        return "matching is not a permutation of %d roots" % n
    err = roundtrip_error(request, out)
    if not err < SYM_TOLERANCE[double]:
        return "relative round-trip error %.3e" % err
    return None


def encode_symcoords_roundtrip(out):
    recovered, pairs = out
    return [[repr(z.real), repr(z.imag)] for z in recovered], [list(p) for p in pairs]


# ---------------------------------------------------------------------------
# cli_cold

CLI_VERBS = ("strata", "orbits", "hp", "project", "project_q", "fiber", "temper",
             "homotopy", "symcoords")
# two of each verb, one refusal and one known defect: 20 requests, one round
# of about 21 s on a 2-core Xeon VM (28 s with the setup probes, so a 24 s run
# holds one round), and the tail is p50, equal to the median
CLI_VALID_PER_ROUND = 2
CLI_REFUSALS_PER_ROUND = 1


def _fmt_scalar(z: QScalar) -> str:
    parts = []
    if z.q_exp:
        parts.append("q^%s" % z.q_exp)
    if z.turn:
        parts.append("e(%s)" % z.turn)
    return "*".join(parts) or "1"


def _fmt_multiset(blocks) -> str:
    return "{%s}" % ";".join(",".join(_fmt_scalar(z) for z in b) for b in blocks)


def _cli_component(rng: random.Random, degree: int, max_blocks: int) -> tuple[Component, str]:
    r = rng.randint(1, min(max_blocks, degree))
    cuts = sorted(rng.sample(range(1, degree), r - 1))
    exponents = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    if rng.random() < 0.5:
        return (Component.from_exponents(tuple(exponents)),
                "(%s)" % ",".join(map(str, exponents)))
    component = _component(rng, exponents)
    return component, json.dumps(component.to_json())


def _stratum_point(rng: random.Random, degree: int, bound: int) -> StratumPoint:
    component = Component.from_exponents((degree,))
    parts = rng.choice(combinat.partitions_sorted(degree))
    coords = [QScalar(_half_integer(rng, bound), _turn(rng)) for _ in parts]
    return StratumPoint(Stratum(component, CycleType((parts,))), coords)


def _project_argv(point: StratumPoint) -> list[str]:
    parts = point.stratum.cycle_type.parts_per_block[0]
    return ["--component", "(%d)" % point.stratum.component.degree,
            "--cycle", "(%s)" % ",".join(map(str, parts)),
            "--coords", _fmt_multiset([point.coords])]


def _cli_valid(rng: random.Random, verb: str):
    """(argv, spec) of a request that must succeed; spec rebuilds its payload."""
    if verb in ("strata", "orbits", "hp"):
        component, text = _cli_component(rng, rng.randint(1, 6), 3)
        return [verb, "--component", text], (verb, component)
    if verb in ("project", "project_q"):
        point = _stratum_point(rng, rng.randint(1, 6), 2)
        if verb == "project":
            return ["project"] + _project_argv(point), (verb, point, None)
        q = rng.choice((2, 3, 5, 9))
        return ["project"] + _project_argv(point) + ["--q", str(q)], (verb, point, float(q))
    if verb == "fiber":
        component = Component.from_exponents(rng.choice(((2,), (3,), (4,), (2, 1), (2, 2), (3, 1))))
        kind = rng.choice(("qstring", "image", "generic"))
        blocks = [_fiber_block(rng, kind, b.exponent, b.q_scale, rng) for b in component.blocks]
        point = SymPoint(tuple(tuple(_scalar(z) for z in block) for block in blocks))
        text = "(%s)" % ",".join(map(str, component.exponents))
        return ["fiber", "--component", text, "--point", _fmt_multiset(point.blocks)], \
            (verb, component, point)
    if verb in ("temper", "homotopy"):
        if rng.random() < 0.5:
            component, _ = _cli_component(rng, rng.randint(1, 6), 3)
            carrier, t = _parameter(rng, component)
        else:
            carrier, t = _stratum_point(rng, rng.randint(1, 6), 3), Fraction(rng.randint(0, 6), 6)
        argv = [verb, "--input", json.dumps(carrier.to_json())]
        if verb == "homotopy":
            argv += ["--t", str(t)]
        return argv, (verb, carrier, t)
    n = rng.randint(1, 4)
    values = [complex(round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3)) for _ in range(n)]
    values = [z if z else 1 + 0j for z in values]
    text = json.dumps([{"re": z.real, "im": z.imag} for z in values])
    flag = rng.choice(("--points", "--sigma"))
    argv = ["symcoords", flag, text] + (["--n", str(n)] if rng.random() < 0.5 else [])
    return argv, (verb, flag, values)


def _cli_refusal(rng: random.Random):
    """(argv, expected exit code) of a request that must be refused."""
    kind = rng.randrange(3)
    if kind == 0:  # malformed shorthand
        return rng.choice((
            ["hp", "--component", "(%d,x)" % rng.randint(1, 4)],
            ["fiber", "--component", "(2)", "--point", "{q^%d*w,1}" % rng.randint(1, 3)],
            ["project", "--component", "(2)", "--cycle", "(2)", "--coords", "{2q}"],
        )), 2
    if kind == 1:  # wrong multiset size
        d = rng.randint(2, 4)
        size = rng.choice((d - 1, d + 1))
        return ["fiber", "--component", "(%d)" % d,
                "--point", "{%s}" % ",".join("q^%d" % i for i in range(size))], 2
    d = rng.randint(21, 30)  # above the default limit, or above an explicit one
    return rng.choice((
        [rng.choice(("strata", "orbits", "hp")), "--component", "(%d,%d)" % (d - 10, 10)],
        ["hp", "--component", "(6)", "--max-degree", str(rng.randint(1, 5))],
    )), 3


def _cli_defect(rng: random.Random):
    """(argv, documented exit code) of an input that the CLI currently mishandles.

    Each counts as a failure until the CLI boundary refuses it with exit 2.
    """
    kind = rng.randrange(5)
    if kind == 0:  # OverflowError: traceback and exit 1
        return ["project", "--component", "(1)", "--cycle", "(1)",
                "--coords", "{q^%d}" % rng.randint(2000, 3000), "--q", "9"], 2
    if kind == 1:  # non-finite q: prints Infinity or a silent 0.0
        return ["project", "--component", "(1)", "--cycle", "(1)",
                "--coords", "{q^%d}" % rng.choice((-3, -2, 2, 3)), "--q", "inf"], 2
    if kind == 2:  # a JSON boolean accepted as exponent 1
        return ["hp", "--component", '{"blocks": [{"label": "a", "exponent": true}]}'], 2
    if kind == 3:  # a spin of 400 digits
        summand = {"rho": {"id": "a"}, "j": "1e400", "twist": {"q_exp": "1", "turn": "0"}}
        return ["temper", "--input", json.dumps({"summands": [summand]})], 2
    return ["strata", "--component", "(3)", "--max-degree", "-%d" % rng.randint(1, 3)], 2


def make_cli_cold(rng: random.Random) -> list:
    requests = [(argv, 0, spec, False)
                for verb in CLI_VERBS for _ in range(CLI_VALID_PER_ROUND)
                for argv, spec in [_cli_valid(rng, verb)]]
    for _ in range(CLI_REFUSALS_PER_ROUND):
        argv, code = _cli_refusal(rng)
        requests.append((argv, code, None, False))
    argv, code = _cli_defect(rng)
    requests.append((argv, code, None, True))
    rng.shuffle(requests)
    return requests


def _cli_payload(spec) -> dict:
    """The in-process library result the CLI must print for a valid request."""
    verb = spec[0]
    if verb in ("strata", "orbits", "hp"):
        c = spec[1]
        if verb == "strata":
            return {"component": c.to_json(),
                    "strata": [s.to_json() for s in bernstein.enumerate_strata(c)]}
        if verb == "orbits":
            return {"component": c.to_json(),
                    "orbits": [o.to_json() for o in bernstein.enumerate_orbits(c)]}
        hp0, hp1 = cohomology.component_hp(c)
        return {"hp0": hp0, "hp1": hp1, "orbit_dim": cohomology.orbit_hp_dimension(c)}
    if verb in ("project", "project_q"):
        _, point, q = spec
        image = qproj.project(point)
        report = {"point": point.to_json(), "image": image.to_json()}
        if q is not None:
            report["numeric"] = [[{"re": w.real, "im": w.imag}
                                  for w in (z.to_complex(q) for z in block)]
                                 for block in image.blocks]
        return report
    if verb == "fiber":
        _, component, point = spec
        points = qproj.fiber(point, component)
        return {"component": component.to_json(), "point": point.to_json(),
                "count": len(points), "points": [p.to_json() for p in points]}
    if verb in ("temper", "homotopy"):
        _, carrier, t = spec
        is_param = isinstance(carrier, LParameter)
        if verb == "temper":
            result = retract.temper_parameter(carrier) if is_param else retract.temper_point(carrier)
            return {"result": result.to_json()}
        result = retract.homotopy(carrier, t) if is_param else retract.homotopy_point(carrier, t)
        return {"t": str(t), "result": result.to_json()}
    _, flag, values = spec
    if flag == "--points":
        sigma = symfun.to_sym_coords(values).sigma
        return {"sigma": [{"re": s.real, "im": s.imag} for s in sigma]}
    roots = symfun.from_sym_coords(symfun.SymCoords(tuple(values)))
    return {"points": [{"re": r.real, "im": r.imag} for r in roots]}


def _strict_constant(name):
    raise ValueError("non-JSON constant %s" % name)


def check_cli_cold(request, out) -> str | None:
    _, expected_code, spec, _ = request
    code, stdout = out
    if code != expected_code:
        return "exit code %d, expected %d" % (code, expected_code)
    try:
        payload = json.loads(stdout, parse_constant=_strict_constant)
    except ValueError as exc:
        return "stdout is not JSON: %s" % exc
    if spec is None:
        error_type = {2: "validation", 3: "limit"}[expected_code]
        if not isinstance(payload, dict) or payload.get("error", {}).get("type") != error_type:
            return "refusal without a %s error object" % error_type
        return None
    if payload != _cli_payload(spec):
        return "payload differs from the in-process library result"
    return None


def encode_cli_cold(out):
    code, stdout = out
    return [code, stdout.decode("utf-8", "replace")]


@dataclass(frozen=True)
class Workload:
    make: object
    call: object
    check: object
    encode: object
    in_process: bool
    tail_percentile: str  # fixed by the round size; a run that computes another one is flagged


WORKLOADS = {
    "cli_cold": Workload(make_cli_cold, None, check_cli_cold, encode_cli_cold, False, "50"),
    "fiber_search": Workload(make_fiber_search, call_fiber_search, check_fiber_search,
                             encode_fiber_search, True, "90"),
    "hp_orbits": Workload(make_hp_orbits, call_hp_orbits, check_hp_orbits,
                          encode_hp_orbits, True, "90"),
    "symcoords_roundtrip": Workload(make_symcoords_roundtrip, call_symcoords_roundtrip,
                                    check_symcoords_roundtrip, encode_symcoords_roundtrip, True,
                                    "90"),
}


def is_known_defect(workload: str, request) -> bool:
    return workload == "cli_cold" and request[3]
