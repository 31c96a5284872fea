"""The package exports each module's `__all__` but loads a module only on first
use; each command-line verb loads its own modules only, none of them a numeric
third-party package or `dataclasses`, and only `gldual verify` loads the
regression suite."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gldual

NUMERIC = ("numpy", "scipy", "mpmath")
SRC = str(Path(gldual.__file__).resolve().parent.parent)

# Runs argv through gldual.cli in-process, then reports which of the watched
# modules ended up in sys.modules.
PROBE = """
import json, sys
import gldual, gldual.cli
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = gldual.cli.main(argv) if argv else 0
sys.stdout.flush()
sys.stderr.write(json.dumps([code, sorted(m for m in watched if m in sys.modules)]))
"""


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _loaded(*argv, watched=NUMERIC):
    proc = _run("-c", PROBE, json.dumps(list(argv)), json.dumps(list(watched)))
    code, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    return code, loaded


def test_import_loads_no_numeric_package():
    assert _loaded() == (0, [])


def test_exact_verbs_load_no_numeric_package():
    assert _loaded("hp", "--component", "(3)") == (0, [])
    assert _loaded("fiber", "--component", "(3)", "--point", "{q^-1,1,q}") == (0, [])
    assert _loaded("symcoords", "--points", '[{"re": 2}, {"re": 3}]') == (0, [])


def test_root_finding_loads_no_numeric_package():
    sigma = json.dumps([{"re": 5, "im": 0}, {"re": 6, "im": 0}])
    assert _loaded("symcoords", "--sigma", sigma) == (0, [])


def test_import_leaves_the_root_finder_unloaded():
    # gldual.aberth is imported on the first root-finding call, so importing
    # the package never compiles or loads it
    proc = _run("-c", "import sys, gldual, gldual.cli; print('gldual.aberth' in sys.modules)")
    assert proc.stdout.split() == ["False"]


def test_only_the_verify_verb_loads_the_regression_suite():
    suite = ("gldual.verify",)
    assert _loaded(watched=suite) == (0, [])
    assert _loaded("hp", "--component", "(3)", watched=suite) == (0, [])
    assert _loaded("fiber", "--component", "(3)", "--point", "{q^-1,1,q}",
                   watched=suite) == (0, [])
    assert _loaded("symcoords", "--points", '[{"re": 2}, {"re": 3}]', watched=suite) == (0, [])
    assert _loaded("verify", "--fiber-samples", "1", "--sym-samples", "1",
                   watched=suite) == (0, ["gldual.verify"])


# home module -> the public names `gldual` re-exports from it
SURFACE = {
    "bernstein": ["Block", "Component", "CycleType", "Stratum", "enumerate_orbits",
                  "enumerate_strata", "orbit_stratum_bijection"],
    "cohomology": ["PermutationAction", "component_hp",
                   "invariant_exterior_dims", "orbit_hp_dimension", "orbit_poincare",
                   "stratum_poincare", "tempered_orbit_poincare", "HP_LIMIT"],
    "errors": ["LimitExceeded", "RootFindingError"],
    "parameters": ["InertialClass", "LParameter", "OrbitDescriptor", "WeilLabel", "dimension",
                   "is_discrete_series", "is_supercuspidal", "is_tempered", "orbit_of",
                   "orbit_shape", "steinberg_parameter", "TRIVIAL"],
    "qproj": ["StratumPoint", "SymPoint", "fiber", "project", "q_string", "OUTPUT_LIMIT"],
    "retract": ["homotopy", "homotopy_point", "temper_parameter", "temper_point"],
    "scalars": ["ONE", "QScalar", "q_power", "unit", "exact_int", "exact_rational",
                "MAX_DECIMAL_EXPONENT"],
    "symfun": ["SymCoords", "from_sym_coords", "match_multisets", "to_sym_coords",
               "ROOTS_LIMIT"],
}
# gldual.partitions stays the module: a star import would bind its function there
SUBMODULES = (*SURFACE, "partitions")
DEFERRED = ("aberth", "cli", "verify")


def test_package_exports_each_public_name_from_its_home_module():
    for home, names in SURFACE.items():
        module = importlib.import_module("gldual." + home)
        for name in names:
            assert getattr(gldual, name) is getattr(module, name), (home, name)
    for name in (*SUBMODULES, *DEFERRED):
        assert getattr(gldual, name) is importlib.import_module("gldual." + name)
    exported = [n for names in SURFACE.values() for n in names]
    assert sorted(gldual.__all__) == sorted(exported)
    public = {name for name in dir(gldual) if not name.startswith("_")}
    assert public == {*SUBMODULES, *DEFERRED, *exported}
    namespace = {}
    exec("from gldual import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)


def test_import_loads_no_gldual_module():
    proc = _run("-c", "import sys, gldual; "
                      "print(sorted(m for m in sys.modules if m.startswith('gldual.')))")
    assert proc.returncode == 0 and proc.stdout.split() == ["[]"]


# each verb, and the gldual modules it loads in a fresh process: its own layers
# and what they import, nothing more; only the verbs that build orbits or read
# a parameter load gldual.parameters
_EXACT = {"gldual._value", "gldual.bernstein", "gldual.cli", "gldual.errors",
          "gldual.partitions", "gldual.scalars"}
_ORBITS = _EXACT | {"gldual.parameters"}
_SYMCOORDS = {"gldual._value", "gldual.cli", "gldual.errors", "gldual.symfun"}
_PARAMETER = {"summands": [{"rho": {"id": "a"}, "j": "0",
                            "twist": {"q_exp": "1", "turn": "1/3"}}]}
VERBS = {
    "strata": (("strata", "--component", "(3)"), _EXACT),
    "orbits": (("orbits", "--component", "(2,1)"), _ORBITS),
    "hp": (("hp", "--component", "(3)"), _EXACT | {"gldual.cohomology"}),
    "project": (("project", "--component", "(3)", "--cycle", "(2,1)", "--coords", "{q,1}"),
                _EXACT | {"gldual.qproj"}),
    "fiber": (("fiber", "--component", "(3)", "--point", "{q^-1,1,q}"),
              _EXACT | {"gldual.qproj"}),
    "temper": (("temper", "--input", json.dumps(_PARAMETER)),
               _ORBITS | {"gldual.qproj", "gldual.retract"}),
    "homotopy": (("homotopy", "--input", json.dumps(_PARAMETER), "--t", "1/2"),
                 _ORBITS | {"gldual.qproj", "gldual.retract"}),
    "symcoords --points": (("symcoords", "--points", '[{"re": 2}, {"re": 3}]'), _SYMCOORDS),
    "symcoords --sigma": (("symcoords", "--sigma", '[{"re": 5}, {"re": 6}]'),
                          _SYMCOORDS | {"gldual.aberth"}),
    "verify": (("verify", "--fiber-samples", "1", "--sym-samples", "1"),
               _ORBITS | {"gldual.aberth", "gldual.cohomology", "gldual.qproj",
                         "gldual.retract", "gldual.symfun", "gldual.verify"}),
}
GLDUAL_MODULES = tuple(sorted("gldual." + path.stem
                              for path in Path(gldual.__file__).parent.glob("*.py")
                              if path.stem != "__init__"))


@pytest.mark.parametrize("verb", VERBS)
def test_each_verb_loads_only_its_own_modules(verb):
    argv, expected = VERBS[verb]
    code, loaded = _loaded(*argv, watched=(*GLDUAL_MODULES, "dataclasses", "fractions",
                                           *NUMERIC))
    assert code == 0
    assert {m for m in loaded if m.startswith("gldual.")} == expected
    # no verb loads dataclasses or a numeric package, and symcoords not fractions
    assert not {"dataclasses", *NUMERIC} & set(loaded)
    assert ("fractions" in loaded) == (not verb.startswith("symcoords"))


def test_no_name_is_public_in_two_modules():
    seen = {}
    for home in SURFACE:
        for name in importlib.import_module("gldual." + home).__all__:
            assert seen.setdefault(name, home) == home, (name, seen[name], home)
