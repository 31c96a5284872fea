"""The package exports each module's `__all__`; the library and every command-line
verb load no numeric third-party package, and only `gldual verify` loads the
regression suite."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
                  "enumerate_strata", "orbit_stratum_bijection", "STRATA_LIMIT"],
    "cohomology": ["PermutationAction", "PoincarePolynomial", "component_hp",
                   "invariant_exterior_dims", "orbit_hp_dimension", "orbit_poincare",
                   "stratum_poincare", "tempered_orbit_poincare", "RANK_LIMIT"],
    "errors": ["LimitExceeded", "RootFindingError"],
    "parameters": ["InertialClass", "LParameter", "OrbitDescriptor", "WeilLabel", "dimension",
                   "is_discrete_series", "is_supercuspidal", "is_tempered", "orbit_of",
                   "orbit_shape", "steinberg_parameter", "TRIVIAL"],
    "qproj": ["StratumPoint", "SymPoint", "fiber", "project", "q_string", "verify_section",
              "FIBER_LIMIT"],
    "retract": ["homotopy", "homotopy_point", "temper_parameter", "temper_point"],
    "scalars": ["ONE", "QScalar", "q_power", "unit", "exact_int", "exact_rational",
                "MAX_DECIMAL_EXPONENT"],
    "symfun": ["SymCoords", "from_sym_coords", "match_multisets", "to_sym_coords"],
}
# gldual.partitions stays the module: a star import would bind its function there
SUBMODULES = (*SURFACE, "partitions")
DEFERRED = {"aberth", "cli", "verify"}


def test_package_exports_each_public_name_from_its_home_module():
    for home, names in SURFACE.items():
        module = importlib.import_module("gldual." + home)
        for name in names:
            assert getattr(gldual, name) is getattr(module, name), (home, name)
    for name in SUBMODULES:
        assert getattr(gldual, name) is sys.modules["gldual." + name]
    # the deferred modules become attributes once some call has loaded them
    public = {name for name in vars(gldual) if not name.startswith("_")} - DEFERRED
    assert public == {*SUBMODULES, *(n for names in SURFACE.values() for n in names)}


def test_no_name_is_public_in_two_modules():
    seen = {}
    for home in SURFACE:
        for name in importlib.import_module("gldual." + home).__all__:
            assert seen.setdefault(name, home) == home, (name, seen[name], home)
