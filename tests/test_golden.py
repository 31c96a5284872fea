"""The enumeration and retraction verbs print exactly what they printed when the
corpus was recorded.

`tests/data/enumeration_golden.json` maps each argv below to the exit code and
the SHA-256 of the stdout of `gldual.cli.main`.  Regenerate it, only for an
intended change of output, with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path

import pytest

from gldual.bernstein import enumerate_orbits, orbit_stratum_bijection
from gldual.cli import _parse_component, main
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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({_key(a): _record(a) for a in _cases()}, indent=1,
                                 sort_keys=True) + "\n")
