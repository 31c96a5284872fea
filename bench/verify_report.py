"""One-shot headroom report for the `gldual verify` checks.

    python3 bench/verify_report.py [--seed 20250810]

Not a workload: it runs `verify.run_all()` once (about 30 s) and prints one
JSON object with `verify.<check>.seconds` and `verify.<check>.headroom_s`
(budget minus seconds) for each check, whether it passed, and the Python,
numpy, scipy and mpmath versions, `nproc`, the commit and the seed.  The same
object is written to `.bench_out/verify_report.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20250810)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC_DIR, "gldual", "__init__.py")):
        print("bench: no gldual sources under %s" % SRC_DIR, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC_DIR)

    import mpmath
    import numpy
    import scipy
    from gldual import verify

    report = {
        "seed": args.seed,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "checks": {},
    }
    for result in verify.run_all(seed=args.seed):
        prefix = "verify.%s." % result.name
        report["checks"][prefix + "seconds"] = result.seconds
        report["checks"][prefix + "headroom_s"] = result.budget - result.seconds
        report["checks"][prefix + "passed"] = result.passed
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "verify_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
