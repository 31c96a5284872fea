"""The argument parser prints what it printed when the corpus was recorded, and a
verb's process builds that verb's subparser only.

`tests/data/parser_golden.json` maps each argv below to the exit code and the
SHA-256 of the stdout of `gldual.cli.main`: the help texts, and the JSON of the
argument errors.  Help is wrapped at 80 columns; the corpus was recorded with
the argparse of Python 3.10-3.12 (3.13 wraps the top-level usage line
differently).  Regenerate it, only for an intended change of output, with
`PYTHONPATH=src python tests/test_parser.py`.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from gldual.cli import main

GOLDEN = Path(__file__).with_name("data") / "parser_golden.json"

VERBS = ("strata", "orbits", "hp", "project", "fiber", "temper", "homotopy", "symcoords",
         "verify")

CASES = [
    [], ["--help"], ["-h"],
    ["bogus"], ["HP"],
    *([verb, "--help"] for verb in VERBS),
    ["hp"], ["hp", "--comp", "(3)"], ["hp", "--component", "(3)", "extra"],
    ["hp", "--component", "(3)"],
]


def _record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _key(argv):
    return " ".join(argv) or "(no arguments)"


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_corpus_covers_every_case():
    assert sorted(_golden()) == sorted(map(_key, CASES))


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_parser_stdout_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _record(argv) == _golden()[_key(argv)]


def _subparsers_built(monkeypatch, argv):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    _record(argv)
    return names


def test_a_verb_builds_its_own_subparser_only(monkeypatch):
    assert _subparsers_built(monkeypatch, ["hp", "--component", "(3)"]) == ["hp"]
    assert _subparsers_built(monkeypatch, ["verify", "--help"]) == ["verify"]


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["HP"]], ids=_key)
def test_help_and_an_unknown_verb_build_all_nine(monkeypatch, argv):
    assert _subparsers_built(monkeypatch, argv) == list(VERBS)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({_key(a): _record(a) for a in CASES}, indent=1,
                                 sort_keys=True) + "\n")
