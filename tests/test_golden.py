"""The enumeration and retraction verbs print exactly what they printed when the
corpus was recorded, and every JSON carrier refuses each missing member by its path.

`tests/data/enumeration_golden.json` maps each argv below to the exit code and
the SHA-256 of the stdout of `gldual.cli.main`.  Regenerate it, only for an
intended change of output, with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import copy
import functools
import hashlib
import io
import json
from pathlib import Path

import pytest

from gldual.bernstein import enumerate_orbits, orbit_stratum_bijection
from gldual.cli import _parse_component, main
from gldual.parameters import LParameter, OrbitDescriptor, orbit_of
from gldual.qproj import StratumPoint, SymPoint, project
from gldual.verify import _compositions

GOLDEN = Path(__file__).with_name("data") / "enumeration_golden.json"

# Labels out of sorted order (upper case, digits, "sc10" before "sc2") and a
# rational q_scale, so the canonical class order differs from the block order.
UNSORTED = json.dumps({"blocks": [
    {"label": "sc10", "exponent": 2},
    {"label": "b", "exponent": 1, "q_scale": "3/2"},
    {"label": "a", "exponent": 2},
    {"label": "sc2", "exponent": 1},
    {"label": "B", "exponent": 2, "q_scale": "2"},
    {"label": "a1", "exponent": 1},
]})

# Retraction carriers.  The parameter lists its labels out of sorted order,
# repeats inertial classes with distinct twists (two of which temper to the
# same unit), and carries unreduced turns and a non-unitary determinant.
PARAMETER = json.dumps({"summands": [
    {"rho": {"id": "sc10", "dim": 2}, "j": "1/2", "twist": {"q_exp": "3/2", "turn": "1/3"}},
    {"rho": {"id": "b"}, "j": "0", "twist": {"q_exp": "-1", "turn": "5/4"}},
    {"rho": {"id": "a"}, "j": "1", "twist": {"q_exp": "2", "turn": "0"}},
    {"rho": {"id": "sc2"}, "j": "0", "twist": {"q_exp": "0", "turn": "1/2"}},
    {"rho": {"id": "B", "unitary_det": False}, "j": "3/2",
     "twist": {"q_exp": "1/3", "turn": "-1/6"}},
    {"rho": {"id": "a"}, "j": "1", "twist": {"q_exp": "-1/2", "turn": "2/3"}},
    {"rho": {"id": "a"}, "j": "1", "twist": {"q_exp": "2", "turn": "0"}},
    {"rho": {"id": "sc10", "dim": 2}, "j": "1/2", "twist": {"q_exp": "-3/2", "turn": "4/3"}},
]})
# A stratum point on a component with labels out of sorted order, with runs of
# equal cycles whose coordinates are given out of order.
POINT = json.dumps({
    "component": {"blocks": [{"label": "sc10", "exponent": 5},
                             {"label": "B", "exponent": 3, "q_scale": "1/2"}]},
    "cycle_type": [[2, 1, 1, 1], [1, 1, 1]],
    "coords": [{"q_exp": "1", "turn": "1/5"}, {"q_exp": "-2", "turn": "3/2"},
               {"q_exp": "1/2", "turn": "0"}, {"q_exp": "-2", "turn": "1/2"},
               {"q_exp": "0", "turn": "1/3"}, {"q_exp": "7/3", "turn": "-1/3"},
               {"q_exp": "0", "turn": "1/3"}],
})
NAMED = {UNSORTED: "unsorted-json", PARAMETER: "parameter-json", POINT: "point-json"}


def _cases():
    components = ["(%s)" % ",".join(map(str, e)) for e in _compositions(6, 3)]
    components += ["(12)", "(16)", "(4,4,4,4)", "(5,5,4)", UNSORTED, "(21)"]
    for verb in ("strata", "orbits", "hp"):
        for component in components:
            yield [verb, "--component", component]
        yield [verb, "--component", "(21)", "--max-degree", "21"]
    yield ["strata", "--component", "(39)", "--max-degree", "39"]  # the largest strata walk
    for carrier in (PARAMETER, POINT):
        yield ["temper", "--input", carrier]
        for t in ("0", "1/3", "1"):
            yield ["homotopy", "--input", carrier, "--t", t]


def _record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _key(argv):
    return " ".join(NAMED.get(a, a) for a in argv)


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_corpus_covers_every_case():
    assert sorted(_golden()) == sorted(_key(a) for a in _cases())


@pytest.mark.parametrize("argv", list(_cases()), ids=_key)
def test_enumeration_stdout_matches_golden(argv):
    assert _record(argv) == _golden()[_key(argv)]


@pytest.mark.parametrize("component", sorted({a[2] for a in _cases() if a[0] == "orbits"}),
                         ids=lambda c: NAMED.get(c, c))
def test_the_orbit_walk_lists_the_orbits_of_the_bijection(component):
    # enumerate_orbits walks the multipartitions, the bijection the parts of its strata
    c = _parse_component(component)
    orbits = enumerate_orbits(c)
    paired = [o for o, _ in orbit_stratum_bijection(c)]
    assert orbits == paired
    assert [o.to_json() for o in orbits] == [o.to_json() for o in paired]


# Each JSON carrier, by name: its value, the path of that value in refusals,
# and a reader that returns ("ok", output) or ("refused", message).
def _cli_reader(*argv):
    def read(value):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, json.dumps(value)])
        assert code in (0, 2)
        return ("ok", out.getvalue()) if code == 0 else (
            "refused", json.loads(out.getvalue())["error"]["message"])
    return read


def _library_reader(from_json):
    def read(value):
        try:
            return "ok", from_json(value)
        except ValueError as exc:
            return "refused", str(exc)
    return read


_POINT = json.loads(POINT)
CARRIERS = {
    "unsorted-json": (json.loads(UNSORTED), "", _cli_reader("strata", "--component")),
    "parameter-json": (json.loads(PARAMETER), "", _cli_reader("temper", "--input")),
    "point-json": (_POINT, "", _cli_reader("temper", "--input")),
    "orbit": (orbit_of(LParameter.from_json(json.loads(PARAMETER))).to_json(), "",
              _library_reader(OrbitDescriptor.from_json)),
    "sym-point": (project(StratumPoint.from_json(_POINT)).to_json(), "",
                  _library_reader(SymPoint.from_json)),
    "symcoords-points": ([{"re": 2, "im": 1}, {"re": 3, "im": 0}], "--points",
                         _cli_reader("symcoords", "--points")),
}
# the value a reader takes for each optional member when it is absent
DEFAULTS = {"dim": 1, "unitary_det": True, "q_scale": "1", "im": 0}
# the members of an orbit's JSON that it derives from its classes and does not read
DERIVED = {"l", "k"}
# `temper` reads an input without `summands` as a stratum point
MISSING = {("parameter-json", ("summands",)): "component"}


def _members(value, trail=()):
    """The trail of keys and indices to each member of every object in `value`."""
    if isinstance(value, dict):
        for key, member in value.items():
            yield trail + (key,)
            yield from _members(member, trail + (key,))
    elif isinstance(value, list):
        for i, entry in enumerate(value):
            yield from _members(entry, trail + (i,))


def _replaced(value, trail, member):
    """A copy of `value` whose member at `trail` is `member`, or is deleted if None."""
    value = copy.deepcopy(value)
    parent = functools.reduce(lambda v, step: v[step], trail[:-1], value)
    if member is None:
        del parent[trail[-1]]
    else:
        parent[trail[-1]] = member
    return value


def _path(start, trail):
    """The JSON path of the member at `trail`, as refusals name it."""
    path = start
    for step in trail:
        if isinstance(step, int):
            path = "%s[%d]" % (path, step)
        else:
            path = "%s.%s" % (path, step) if path else step
    return path


@pytest.mark.parametrize("carrier, trail", [
    pytest.param(name, trail, id="%s:%s" % (name, _path(start, trail)))
    for name, (value, start, _) in CARRIERS.items() for trail in _members(value)])
def test_every_missing_member_is_refused_by_its_path(carrier, trail):
    value, start, read = CARRIERS[carrier]
    key = trail[-1]
    assert read(value)[0] == "ok"
    if key in DEFAULTS:  # as if given with its default value
        assert read(_replaced(value, trail, None)) == read(_replaced(value, trail, DEFAULTS[key]))
    elif key in DERIVED:
        assert read(_replaced(value, trail, None)) == read(value)
    else:
        path = MISSING.get((carrier, trail), _path(start, trail))
        assert read(_replaced(value, trail, None)) == ("refused", "%s is missing" % path)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({_key(a): _record(a) for a in _cases()}, indent=1,
                                 sort_keys=True) + "\n")
