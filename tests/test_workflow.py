"""Tier-1 runs the steps of the workflow's `no-dependencies` job.

Each `run` step of that job in `.github/workflows/tests.yml` is one case here,
named after the step, run under `bash -e` (as a runner runs it) from the root
of the repository with `PYTHONPATH=src` and a timeout.  The reader below takes
the job's steps in exactly two forms: `- uses:` with its indented `with:`,
which is left out, and `- name:` followed by comment lines and one `run:`
line or `run: |` block.  It refuses every other form, so that a new step
cannot be left out unseen.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

_INSTALLED = "tier-1 runs with the test extras installed, numeric packages among them"
_BENCH = ("writes .bench_out/ into the checkout, and a checkout holding it reads "
          "differently in the cli_cold benchmark")
SKIPPED = {
    "Install without extras": _INSTALLED,
    "No numeric package is installed": _INSTALLED,
    "a benchmark run of hp_orbits is correct, traced and untraced": _BENCH,
    "a benchmark run of fiber_search is correct, traced and untraced": _BENCH,
}


def read_steps(text: str, job: str) -> list[tuple[str, str]]:
    """(name, script) of each `run` step of `job`, in order."""
    lines = text.splitlines()
    at = lines.index("    steps:", lines.index("  %s:" % job)) + 1
    steps = []
    while at < len(lines) and (lines[at].startswith("      ") or not lines[at].strip()):
        line = lines[at]
        at += 1
        if not line.strip():
            continue
        if line.startswith("      - uses: "):
            while at < len(lines) and lines[at].startswith("        "):
                at += 1
            continue
        if not line.startswith("      - name: "):
            raise ValueError("line %d is not a step of a known form: %r" % (at, line))
        name = line[len("      - name: "):]
        while lines[at].startswith("        #"):
            at += 1
        run, at = lines[at], at + 1
        if run == "        run: |":
            script = []
            while at < len(lines) and (lines[at].startswith("          ") or not lines[at].strip()):
                script.append(lines[at][10:])
                at += 1
            steps.append((name, "\n".join(script)))
        elif run.startswith("        run: ") and run[13:14] not in ("'", '"', "|", ">"):
            steps.append((name, run[13:]))
        else:
            raise ValueError("line %d is not a run: line or block: %r" % (at, run))
    return steps


STEPS = read_steps(WORKFLOW.read_text(encoding="utf-8"), "no-dependencies")


def test_every_skipped_step_is_a_step_of_the_job():
    assert set(SKIPPED) <= {name for name, _ in STEPS}


def test_the_reader_refuses_a_step_of_another_form():
    job = "jobs:\n  j:\n    steps:\n      - name: a\n        run: true\n"
    assert read_steps(job, "j") == [("a", "true")]
    for other in ("        shell: sh\n        run: true\n", "        run: 'true'\n"):
        with pytest.raises(ValueError):
            read_steps("jobs:\n  j:\n    steps:\n      - name: a\n" + other, "j")


@pytest.mark.parametrize("name, script", [
    pytest.param(name, script, marks=[pytest.mark.skip(reason=SKIPPED[name])] if name in SKIPPED
                 else []) for name, script in STEPS], ids=[name for name, _ in STEPS])
def test_the_step_passes(name, script, tmp_path):
    # `python` and `python3` in the steps are the interpreter running the tests
    for command in ("python", "python3"):
        (tmp_path / command).symlink_to(sys.executable)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=os.pathsep.join((str(tmp_path), os.environ.get("PATH", ""))))
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env, text=True,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
    assert proc.returncode == 0, "exit %d\n%s\n%s" % (
        proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:])
