"""Which gldual functions the traced run wraps, and the per-layer metrics.

Metric names are fixed: later changes are compared on them.
"""

from __future__ import annotations

import statistics

import gldual
from gldual.errors import RootFindingError
from gldual.scalars import QScalar

import combinat
from spans import Patches, Tracer


def _count_fiber(counts, args, result, exc):
    if result is None:
        return
    component = args[1]
    counts["qproj.fiber.points"] += len(result)
    counts["qproj.fiber.strata_tried"] += combinat.product(
        combinat.partition_count(e) for e in component.exponents)
    counts["qproj.fiber.strata_hit"] += len({p.stratum for p in result})


def _count_strata(counts, args, result, exc):
    if result is not None:
        counts["bernstein.strata.count"] += len(result)


def _count_molien(counts, args, result, exc):
    # one conjugacy class of S_m1 x S_m2 x ... per tuple of partitions
    counts["cohomology.molien_classes"] += combinat.product(
        combinat.partition_count(m) for m in args[0].blocks)


def _count_root_failures(counts, args, result, exc):
    counts["symfun.from_sym_coords.failed"] += isinstance(exc, RootFindingError)


# (module, public function, count hook): one span per call
SPANNED = (
    ("qproj", "fiber", _count_fiber),
    ("bernstein", "enumerate_strata", _count_strata),
    ("bernstein", "enumerate_orbits", None),
    ("bernstein", "orbit_stratum_bijection", None),
    ("cohomology", "component_hp", None),
    ("cohomology", "stratum_poincare", None),
    ("cohomology", "invariant_exterior_dims", _count_molien),
    ("cohomology", "orbit_hp_dimension", None),
    ("parameters", "orbit_of", None),
    ("retract", "temper_parameter", None),
    ("retract", "homotopy", None),
    ("symfun", "to_sym_coords", None),
    ("symfun", "from_sym_coords", _count_root_failures),
    ("symfun", "match_multisets", None),
)
# generator functions: calls are counted, their work shows in the caller's span
COUNTED = (("partitions", "multipartitions"),)

# exact counts that must repeat between two traced runs with the same seed
EXACT_COUNTS = (
    "qproj.fiber.points",
    "bernstein.strata.count",
    "cohomology.molien_classes",
    "scalars.qscalar.count",
    "symfun.from_sym_coords.failed",
)

CLI_METRICS = ("cli.import_s", "cli.main_s", "cli.interp_s",
               "import.scipy_s", "import.mpmath_s", "import.numpy_s")
IMPORT_PACKAGES = ("scipy", "mpmath", "numpy")


def install(tracer: Tracer) -> Patches:
    """Wrap every function above wherever gldual modules reference it."""
    patches = Patches()
    for modname, name, count in SPANNED:
        original = getattr(getattr(gldual, modname), name)
        patches.replace_everywhere(original, tracer.wrap("%s.%s" % (modname, name), original, count))
    for modname, name in COUNTED:
        original = getattr(getattr(gldual, modname), name)
        patches.replace_everywhere(original, tracer.wrap_counting("%s.%s" % (modname, name), original))

    post_init = QScalar.__post_init__

    def counted_post_init(self):
        tracer.counts["scalars.qscalar.count"] += 1
        post_init(self)

    patches.set(QScalar, "__post_init__", counted_post_init)
    return patches


def importtime_seconds(stderr: str) -> dict:
    """Seconds spent in each package's own modules, from `python -X importtime`."""
    out = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in out:
            out[top] += int(fields[0]) / 1e6
    return out


def in_process_metrics(tracer: Tracer) -> dict:
    """Per-layer values for one traced round of an in-process workload."""
    totals = tracer.totals()
    counts = tracer.counts
    busy = {name: t[0] for name, t in totals.items()}
    own = {name: t[1] for name, t in totals.items()}
    tried = counts["qproj.fiber.strata_tried"]
    return {
        "qproj.fiber.busy_s": busy.get("qproj.fiber", 0.0),
        "qproj.fiber.self_s": own.get("qproj.fiber", 0.0),
        "qproj.fiber.calls": counts["qproj.fiber.calls"],
        "qproj.fiber.points": counts["qproj.fiber.points"],
        "qproj.fiber.strata_hit_ratio": counts["qproj.fiber.strata_hit"] / tried if tried else 0.0,
        "scalars.qscalar.count": counts["scalars.qscalar.count"],
        "bernstein.enumerate_strata.busy_s": busy.get("bernstein.enumerate_strata", 0.0),
        "bernstein.enumerate_strata.calls": counts["bernstein.enumerate_strata.calls"],
        "bernstein.enumerate_orbits.busy_s": busy.get("bernstein.enumerate_orbits", 0.0),
        "bernstein.orbit_stratum_bijection.busy_s": busy.get("bernstein.orbit_stratum_bijection", 0.0),
        "bernstein.strata.count": counts["bernstein.strata.count"],
        "partitions.multipartitions.calls": counts["partitions.multipartitions.calls"],
        "cohomology.component_hp.busy_s": busy.get("cohomology.component_hp", 0.0),
        "cohomology.component_hp.self_s": own.get("cohomology.component_hp", 0.0),
        "cohomology.stratum_poincare.calls": counts["cohomology.stratum_poincare.calls"],
        "cohomology.invariant_exterior_dims.busy_s": busy.get("cohomology.invariant_exterior_dims", 0.0),
        "cohomology.orbit_hp_dimension.busy_s": busy.get("cohomology.orbit_hp_dimension", 0.0),
        "cohomology.molien_classes": counts["cohomology.molien_classes"],
        "parameters.orbit_of.busy_s": busy.get("parameters.orbit_of", 0.0),
        "retract.temper_parameter.busy_s": busy.get("retract.temper_parameter", 0.0),
        "retract.homotopy.busy_s": busy.get("retract.homotopy", 0.0),
        "symfun.to_sym_coords.busy_s": busy.get("symfun.to_sym_coords", 0.0),
        "symfun.from_sym_coords.busy_s": busy.get("symfun.from_sym_coords", 0.0),
        "symfun.match_multisets.busy_s": busy.get("symfun.match_multisets", 0.0),
        "symfun.from_sym_coords.failed": counts["symfun.from_sym_coords.failed"],
    }


def cli_metrics(samples: list[dict]) -> dict:
    """Medians per request of the child-side CLI timings."""
    return {name: statistics.median(s[name] for s in samples) for name in CLI_METRICS}
