"""Run one workload of the gldual benchmark and print its metrics.

    python3 bench/run.py --workload fiber_search --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout: the program is imported from `src/`.
Each workload is a closed loop with one client: the next request starts when
the previous one has returned.  The loop repeats a seeded round of requests
and stops at the first round boundary after `--seconds`; setup probes run
between requests inside that window.  The tail
percentile is fixed by the round size, so it does not change with the
number of rounds that fit.

With `--trace 0` the last line of stdout carries the end-to-end metrics named
in BENCHMARK.json; with `--trace 1` it carries the per-layer metrics from a
traced run.  The line before it is a summary with the fail ratio, the tail
percentile used, the output digest and any failures.  Full reports and spans
go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_SCRIPT = os.path.join(BENCH_DIR, "cli_child.py")

SETUP_SAMPLES = 9  # spread evenly through the measured window
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import gldual; print(time.perf_counter() - t0)"
# the tail is the highest of these with at least ten samples beyond it in one round
TAIL_PERCENTILES = ("99.9", "99", "95", "90", "75", "50")
TRACED_ROUNDS = 2  # the second repeats the first, to check that counts repeat
WARMUP_REQUESTS = 10  # in-process only: untimed calls before the first round


def _stop(message: str):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def percentile(latencies: list[float], p: str) -> tuple[float, int]:
    """(value, samples beyond it) of a percentile.

    The value is the Harrell-Davis estimate: a mean of all order statistics
    weighted by the Beta((n+1)q, (n+1)(1-q)) density at the middle of each
    one's interval, q = p/100.  A single order statistic jumps when the rank
    falls between two groups of requests of different cost; this estimate
    moves smoothly.  The samples beyond it are counted by nearest rank.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    q = float(Fraction(p) / 100)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    value = math.fsum(w * t for w, t in zip(weights, ordered)) / math.fsum(weights)
    return value, n - max(1, math.ceil(Fraction(p) * n / 100))


def tail_percentile(round_size: int) -> str:
    """The highest percentile in TAIL_PERCENTILES with at least ten requests of
    one round beyond it (the median, below 20 requests)."""
    for p in TAIL_PERCENTILES:
        if round_size - max(1, math.ceil(Fraction(p) * round_size / 100)) >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def _source_hash() -> str:
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC_DIR, "gldual"), BENCH_DIR):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()[:16]


def _repeat_check(key: str, digest: str, counts: dict | None) -> list[str]:
    """Compare with an earlier run of the same seed and sources, then record this one."""
    path = os.path.join(OUT_DIR, "repeat", key + ".json")
    problems = []
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier["digest"] != digest:
            problems.append("output digest differs from an earlier run with this seed")
        if counts is not None and earlier.get("counts") not in (None, counts):
            problems.append("exact counts differ from an earlier traced run with this seed")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digest": digest, "counts": counts if counts is not None else earlier.get("counts")},
                  fh, sort_keys=True)
    return problems


@dataclass
class Raised:
    """An exception raised by a request, kept as its output."""

    kind: str
    message: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stderr=subprocess.DEVNULL) -> tuple[int, bytes, float]:
    """Run one child to completion: (exit code, stdout, its peak RSS in MB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                            stdin=subprocess.DEVNULL, env=_child_env())
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


class SetupProbe:
    """`import gldual` timed in fresh processes, spread through the loop."""

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_SAMPLES
        self.samples: list[float] = []

    def run(self):
        code, out, _ = spawn([sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            _stop("importing gldual failed")
        self.samples.append(float(out))

    def maybe(self, clock: float):
        """Probe once if one is due at this time of the loop."""
        if len(self.samples) < SETUP_SAMPLES and clock >= len(self.samples) * self.every:
            self.run()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.run()
        return statistics.median(self.samples)


class Loop:
    """Closed loop with one client over a fixed round of requests.

    The first output of each request becomes its reference; every later
    output is compared with it outside the timed region.  Before each
    request, untimed, the loop collects what the previous request left and
    freezes everything still alive (references, spans), so a request never
    pays for the benchmark's own objects.  A collection after the call is
    timed with it: each request pays for collecting its own garbage.
    """

    def __init__(self, requests, call):
        self.requests = requests
        self.call = call
        self.reference: dict = {}
        self.mismatched: list[int] = []  # request index, once per differing output
        self.attempted = 0

    def _one(self, idx: int, tracer=None) -> float:
        if tracer is not None:
            tracer.request = self.attempted
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        try:
            out = self.call(self.requests[idx])
        except Exception as exc:  # judged by the oracle, never fatal
            out = Raised(type(exc).__name__, str(exc))
        gc.collect()
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if idx not in self.reference:
            self.reference[idx] = out
        elif out != self.reference[idx]:
            self.mismatched.append(idx)
        return elapsed

    def warm_up(self, count: int):
        """Run the first `count` requests once, untimed and uncounted."""
        for idx in range(min(count, len(self.requests))):
            self._one(idx)
        self.attempted = 0

    def rounds(self, seconds: float, tracer=None, probe=None) -> list[list[float]]:
        """Whole rounds until `seconds` have passed; per round, the time of
        each request.  Setup probes run between requests inside the window."""
        rounds = []
        start = time.perf_counter()
        while True:
            times = []
            for idx in range(len(self.requests)):
                if probe is not None:
                    probe.maybe(time.perf_counter() - start)
                times.append(self._one(idx, tracer))
            rounds.append(times)
            if time.perf_counter() - start >= seconds:
                return rounds


class CliClient:
    """Runs each request in a fresh `python -m gldual.cli` process; traced, it
    runs `cli_child.py` under `-X importtime` and keeps the child's stderr."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.peak_rss_mb = 0.0
        self.records: list[tuple[float, float, str]] = []

    def __call__(self, request):
        if not self.traced:
            code, out, rss = spawn([sys.executable, "-m", "gldual.cli"] + request[0])
        else:
            argv = [sys.executable, "-X", "importtime", CHILD_SCRIPT] + request[0]
            with open(os.path.join(OUT_DIR, "cli-stderr.txt"), "w+b") as err:
                t0 = time.perf_counter()
                code, out, rss = spawn(argv, stderr=err)
                t1 = time.perf_counter()
                err.seek(0)
                self.records.append((t0, t1, err.read().decode("utf-8", "replace")))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out


def _cli_samples(records, tracer) -> list[dict]:
    from cli_child import MARKER
    from layers import importtime_seconds

    samples = []
    for request_id, (t0, t1, stderr) in enumerate(records):
        lines = [ln for ln in stderr.splitlines() if ln.startswith(MARKER)]
        times = json.loads(lines[-1][len(MARKER):])
        main_start = times.get("main_start", times["main_end"])
        tracer.request = request_id
        parent = tracer.span("cli.request", t0, t1)
        tracer.span("cli.import", times["import_start"], main_start, parent)
        tracer.span("cli.main", main_start, times["main_end"], parent)
        sample = {
            "cli.import_s": main_start - times["import_start"],
            "cli.main_s": times["main_end"] - main_start,
        }
        sample["cli.interp_s"] = (t1 - t0) - sample["cli.import_s"] - sample["cli.main_s"]
        for pkg, seconds in importtime_seconds(stderr).items():
            sample["import.%s_s" % pkg] = seconds
        samples.append(sample)
    return samples


def _import_breakdown() -> dict:
    from layers import importtime_seconds

    path = os.path.join(OUT_DIR, "import-stderr.txt")
    with open(path, "w+b") as err:
        code, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import gldual"], stderr=err)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    if code != 0:
        _stop("importing gldual failed")
    return {"import.%s_s" % pkg: s for pkg, s in importtime_seconds(text).items()}


def _trace_in_process(loop, metrics: dict) -> tuple[list[list[float]], object, dict, list[str]]:
    """Two traced rounds; per-layer metrics come from the first, and the
    second must repeat its exact counts."""
    import layers
    from spans import Tracer

    metrics.update(_import_breakdown())
    rounds, tracers = [], []
    for _ in range(TRACED_ROUNDS):
        tracer = Tracer()
        patches = layers.install(tracer)
        try:
            rounds += loop.rounds(0, tracer)
        finally:
            patches.restore()
        tracers.append(tracer)
    counts = [{name: t.counts[name] for name in layers.EXACT_COUNTS} for t in tracers]
    problems = ["exact counts differ between two traced rounds"] if counts[0] != counts[-1] else []
    metrics.update(layers.in_process_metrics(tracers[0]))
    metrics.update({name: 0.0 for name in layers.CLI_METRICS if name not in metrics})
    return rounds, tracers[0], counts[0], problems


def _trace_cli(loop, metrics: dict) -> tuple[list[list[float]], object]:
    """One round through cli_child.py; every stdout must equal the untraced one."""
    import layers
    from spans import Tracer

    client = CliClient(traced=True)
    loop.call = client
    rounds = loop.rounds(0)
    tracer = Tracer()
    metrics.update(layers.in_process_metrics(tracer))
    metrics.update(layers.cli_metrics(_cli_samples(client.records, tracer)))
    return rounds, tracer


def _worst_relerr(workload_name: str, requests, references) -> float:
    """Worst round-trip error over every request that returned, passing its
    oracle or not."""
    from workloads import roundtrip_error

    if workload_name != "symcoords_roundtrip":
        return 0.0
    errors = []
    for idx, out in references.items():
        if isinstance(out, Raised):
            continue
        try:
            errors.append(roundtrip_error(requests[idx], out))
        except (ValueError, IndexError, TypeError, ZeroDivisionError):
            continue  # malformed output; its oracle already fails it
    return max(errors, default=0.0)


def main():
    args = _parse_args()
    if not os.path.isfile(os.path.join(SRC_DIR, "gldual", "__init__.py")):
        _stop("no gldual sources under %s; run from the root of a checkout" % SRC_DIR)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)

    from workloads import WORKLOADS, is_known_defect

    if args.workload not in WORKLOADS:
        _stop("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    requests = workload.make(random.Random("%s:%d" % (args.workload, args.seed)))
    problems: list[str] = []
    metrics: dict = {}

    probe = None if args.trace else SetupProbe(args.seconds)
    measure_seconds = args.seconds / 2 if args.trace else args.seconds

    if workload.in_process:
        loop = Loop(requests, workload.call)
        loop.warm_up(WARMUP_REQUESTS)
        rounds = loop.rounds(measure_seconds, probe=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        client = CliClient(traced=False)
        loop = Loop(requests, client)
        rounds = loop.rounds(measure_seconds, probe=probe)
        peak_rss_mb = client.peak_rss_mb
    latencies = [t for times in rounds for t in times]
    if probe is not None:
        metrics["setup_s"] = probe.median()

    counts = None
    traced_rounds: list[list[float]] = []
    if args.trace:
        if workload.in_process:
            traced_rounds, tracer, counts, trouble = _trace_in_process(loop, metrics)
            problems += trouble
        else:
            traced_rounds, tracer = _trace_cli(loop, metrics)
        metrics["trace.overhead_ratio"] = (
            sum(latencies) / len(rounds) / (sum(map(sum, traced_rounds)) / len(traced_rounds)))
        with open(os.path.join(OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed)), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)

    # oracles, outside every timed region
    verdicts = {idx: "raised %s: %s" % (out.kind, out.message) if isinstance(out, Raised)
                else workload.check(requests[idx], out) for idx, out in loop.reference.items()}
    rounds_run = len(rounds) + len(traced_rounds)
    measured = rounds_run * len(requests)
    # a wrong reference output fails in every round; otherwise each differing output fails
    failed = sum(rounds_run if verdicts[idx] else loop.mismatched.count(idx) for idx in verdicts)
    failures = {idx: verdicts[idx] or "output changed between rounds"
                for idx in sorted(set(loop.mismatched) | {i for i, v in verdicts.items() if v})}
    known = [idx for idx in failures if is_known_defect(args.workload, requests[idx])]
    problems += ["request %d: %s" % (idx, why) for idx, why in failures.items() if idx not in known]
    if args.trace:
        metrics["symfun.roundtrip_worst_relerr"] = _worst_relerr(args.workload, requests, loop.reference)

    outputs = [loop.reference[i] for i in range(len(requests))]
    digest = hashlib.sha256(json.dumps(
        [[out.kind, out.message] if isinstance(out, Raised) else workload.encode(out)
         for out in outputs],
        sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    problems += _repeat_check("%s-%d-%s" % (args.workload, args.seed, _source_hash()), digest, counts)

    tail_p = tail_percentile(len(requests))
    if tail_p != workload.tail_percentile:
        problems.append("tail percentile p%s differs from the workload's p%s; the round size changed"
                        % (tail_p, workload.tail_percentile))
    tail_value, beyond = percentile(latencies, tail_p)
    if not args.trace:
        metrics.update({
            "call_s_p50": percentile(latencies, "50")[0],
            "call_s_tail": tail_value,
            "throughput_rps": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_rss_mb,
        })
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": measured,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": {"value": failed / measured, "unit": "ratio"},
        "tail_percentile": tail_p,
        "samples": len(latencies),
        "samples_beyond_tail": beyond,
        "round_size": len(requests),
        "rounds": len(rounds),
        "round_seconds": [sum(times) for times in rounds],
        "setup_samples": probe.samples if probe is not None else None,
        "digest": digest,
        "exact_counts": counts,
        "failures": {str(i): why for i, why in failures.items()},
        "known_defects": known,
        "problems": problems,
    }
    with open(os.path.join(OUT_DIR, "%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "result": result, "request_seconds": rounds}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
