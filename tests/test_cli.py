import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gldual
from gldual._value import MAX_DIGITS
from gldual.cli import main, parse_scalar
from gldual.partitions import partitions
from gldual.scalars import ONE, QScalar


SRC = str(Path(gldual.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_parse_scalar_shorthand():
    assert parse_scalar("1") == ONE
    assert parse_scalar("q") == QScalar(F(1), F(0))
    assert parse_scalar("q^-1") == QScalar(F(-1), F(0))
    assert parse_scalar("q^1/2") == QScalar(F(1, 2), F(0))
    assert parse_scalar("q^{-3/2}") == QScalar(F(-3, 2), F(0))
    assert parse_scalar("e(1/3)") == QScalar(F(0), F(1, 3))
    assert parse_scalar("q^1/2*e(1/3)") == QScalar(F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        parse_scalar("2q")


def test_strata_verb(capsys):
    code, report, _ = run_cli(capsys, "strata", "--component", "(2)")
    assert code == 0
    assert [s["sym_factors"] for s in report["strata"]] == [[2], [1]]
    assert [s["torus_rank"] for s in report["strata"]] == [2, 1]


def test_orbits_verb(capsys):
    code, report, _ = run_cli(capsys, "orbits", "--component", "(3)")
    assert code == 0
    assert [o["k"] for o in report["orbits"]] == [1, 2, 1]


def test_hp_verb(capsys):
    component = json.dumps({"blocks": [{"label": "a", "exponent": 3}]})
    code, report, _ = run_cli(capsys, "hp", "--component", component)
    assert code == 0
    assert report == {"hp0": 4, "hp1": 4, "orbit_dim": 4}


def test_project_verb_shorthand(capsys):
    code, report, _ = run_cli(
        capsys, "project", "--component", "(2)", "--cycle", "(2)", "--coords", "{1}"
    )
    assert code == 0
    image = report["image"]["blocks"][0]
    assert {frozenset(z.items()) for z in image} == {
        frozenset({"q_exp": "1/2", "turn": "0"}.items()),
        frozenset({"q_exp": "-1/2", "turn": "0"}.items()),
    }


def test_project_with_numeric_q(capsys):
    code, report, _ = run_cli(
        capsys, "project", "--component", "(2)", "--cycle", "(2)",
        "--coords", "{1}", "--q", "4",
    )
    assert code == 0
    values = sorted(z["re"] for z in report["numeric"][0])
    assert values == pytest.approx([0.5, 2.0])


def test_project_point_json_round_trip(capsys):
    code, report, _ = run_cli(
        capsys, "project", "--component", "(3)", "--cycle", "(3)", "--coords", "{1}"
    )
    assert code == 0
    # feed the echoed point back in via --point
    code2, report2, _ = run_cli(capsys, "project", "--point", json.dumps(report["point"]))
    assert code2 == 0 and report2["image"] == report["image"]


def test_fiber_verb(capsys):
    code, report, _ = run_cli(
        capsys, "fiber", "--component", "(3)", "--point", "{q^-1,1,q}"
    )
    assert code == 0
    assert report["count"] == 4
    assert [p["cycle_type"] for p in report["points"]] == [[[1, 1, 1]], [[2, 1]], [[2, 1]], [[3]]]


def test_fiber_misses_deep_strata_with_exit_zero(capsys):
    code, report, _ = run_cli(
        capsys, "fiber", "--component", "(2)", "--point", "{q^1/2,q^1/2}"
    )
    assert code == 0
    # {q^1/2, q^1/2} is hit only by the identity stratum
    assert report["count"] == 1
    code, report, _ = run_cli(
        capsys, "fiber", "--component",
        json.dumps({"blocks": [{"label": "a", "exponent": 2, "q_scale": "2"}]}),
        "--point", "{q^1/2,q^-1/2}",
    )
    assert code == 0 and report["count"] == 1  # scale 2 kills the 2-cycle stratum


def test_temper_verb_on_parameter(capsys):
    phi = {
        "summands": [
            {
                "rho": {"id": "triv", "dim": 1, "unitary_det": True},
                "j": "0",
                "twist": {"q_exp": "3/2", "turn": "1/4"},
            }
        ]
    }
    code, report, _ = run_cli(capsys, "temper", "--input", json.dumps(phi))
    assert code == 0
    assert report["result"]["summands"][0]["twist"] == {"q_exp": "0", "turn": "1/4"}


def test_homotopy_verb_on_point(capsys):
    point = {
        "component": {"blocks": [{"label": "sc0", "exponent": 3}]},
        "cycle_type": [[3]],
        "coords": [{"q_exp": "2", "turn": "0"}],
    }
    code, report, _ = run_cli(
        capsys, "homotopy", "--t", "1/2", "--input", json.dumps(point)
    )
    assert code == 0
    assert report["result"]["coords"] == [{"q_exp": "1", "turn": "0"}]
    code, report, _ = run_cli(capsys, "homotopy", "--t", "3/2", "--input", json.dumps(point))
    assert code == 2


def test_symcoords_verbs(capsys):
    points = json.dumps([{"re": 2, "im": 0}, {"re": 3, "im": 0}])
    code, report, _ = run_cli(capsys, "symcoords", "--points", points, "--n", "2")
    assert code == 0
    assert [s["re"] for s in report["sigma"]] == pytest.approx([5.0, 6.0])

    sigma = json.dumps([{"re": 5, "im": 0}, {"re": 6, "im": 0}])
    code, report, _ = run_cli(capsys, "symcoords", "--sigma", sigma)
    assert code == 0
    assert sorted(p["re"] for p in report["points"]) == pytest.approx([2.0, 3.0])


def test_symcoords_requires_exactly_one_direction(capsys):
    code, report, _ = run_cli(capsys, "symcoords", "--n", "2")
    assert code == 2 and report["error"]["type"] == "validation"


def test_malformed_json_is_validation_error(capsys):
    code, report, _ = run_cli(capsys, "hp", "--component", "{not json")
    assert code == 2
    assert report["error"]["type"] == "validation"


def test_bad_arguments_still_emit_json(capsys):
    code, report, _ = run_cli(capsys, "no-such-verb")
    assert code == 2
    assert report["error"]["type"] == "validation"
    code, report, _ = run_cli(capsys, "hp")  # missing --component
    assert code == 2
    assert report["error"]["type"] == "validation"


def test_limit_refusal_exit_code(capsys):
    code, report, _ = run_cli(capsys, "strata", "--component", "(21)")
    assert code == 3
    assert report["error"]["type"] == "limit"
    # the guard is configurable
    code, _, _ = run_cli(capsys, "strata", "--component", "(21)", "--max-degree", "21")
    assert code == 0


def test_hp_above_the_default_limit_needs_only_max_degree(capsys):
    code, report, _ = run_cli(capsys, "hp", "--component", "(21)")
    assert code == 3 and report["error"]["type"] == "limit"
    # up to HP_LIMIT, --max-degree is the one guard: the closed form has no rank limit
    code, report, _ = run_cli(capsys, "hp", "--component", "(21)", "--max-degree", "21")
    assert code == 0
    assert report == {"hp0": 4952, "hp1": 4952, "orbit_dim": 4952}


def test_project_refuses_a_component_above_its_degree_limit(capsys):
    # the image would hold 10^8 scalars: refused before any is built
    start = time.perf_counter()
    code, report, _ = run_cli(capsys, "project", "--component", "(100000000)",
                              "--cycle", "(100000000)", "--coords", "{1}")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and report["error"] == {
        "type": "limit", "message": "component degree 100000000 exceeds the output limit 32768"}
    # above the degree limit of the strata walks, an image that fits answers
    code, report, _ = run_cli(capsys, "project", "--component", "(21)", "--cycle", "(21)",
                              "--coords", "{1}")
    assert code == 0 and len(report["image"]["blocks"][0]) == 21


@pytest.mark.parametrize("argv", [
    ["project", "--component", "(3)", "--cycle", "(2,1)", "--coords", "{q,1}"],
    ["fiber", "--component", "(3)", "--point", "{q^-1,1,q}"]], ids=lambda argv: argv[0])
def test_project_and_fiber_have_no_max_degree(capsys, argv):
    code, report, _ = run_cli(capsys, *argv, "--max-degree", "3")
    assert code == 2 and report["error"] == {"type": "validation", "message": "invalid arguments"}


def test_verify_has_no_seed_option(capsys):
    # the seed is fixed on the command line; run_all(seed=...) stays for library callers
    code, report, _ = run_cli(capsys, "verify", "--seed", "1")
    assert code == 2 and report["error"] == {"type": "validation", "message": "invalid arguments"}


def _q_string(n):
    # the n-term q-string centred on 1: q^((1-n)/2), ..., q^((n-1)/2)
    return "{%s}" % ",".join("q^%d/2" % (2 * i + 1 - n) for i in range(n))


def test_the_largest_q_string_fiber_answers_and_the_next_is_a_limit(capsys):
    # the README's sizes: 4,096 points for 13 terms, and 8,192 for 14 do not fit
    code, report, _ = run_cli(capsys, "fiber", "--component", "(13)", "--point", _q_string(13))
    assert code == 0 and report["count"] == len(report["points"]) == 4096
    code, report, _ = run_cli(capsys, "fiber", "--component", "(14)", "--point", _q_string(14))
    assert code == 3 and report["error"] == {
        "type": "limit", "message": "the fiber exceeds the output limit 32768"}


def test_a_fiber_above_the_output_limit_is_refused_at_once_in_bounded_memory():
    # 75 copies of each of 20 consecutive q-powers: was enumerated until memory
    # ran out (1.7 GB within two minutes).  The child's address space of 100 MB
    # also bounds its resident memory.
    point = "{%s}" % ",".join("q^%d" % (i % 20) for i in range(1500))
    cap = 100 * 2**20
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gldual.cli", "fiber", "--component", "(1500)", "--point", point],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3
    assert _strict_json(proc.stdout)["error"] == {
        "type": "limit", "message": "the fiber exceeds the output limit 32768"}
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


def _generic_fiber_argv(cells):
    return ["fiber", "--component", "(%d)" % cells,
            "--point", "{%s}" % ",".join("e(%d/%d)" % (i, cells) for i in range(cells))]


@pytest.mark.parametrize("cells", [100, 500, 5000])
def test_a_generic_fiber_answers_with_one_point(capsys, cells):
    # one point, one coordinate per cell: 500 cells were a RecursionError,
    # mapped to exit 3, when the cover walk recursed two frames a cell
    result = main(_generic_fiber_argv(cells))
    captured = capsys.readouterr()
    assert result == 0
    assert _strict_json(captured.out)["count"] == 1
    assert "Traceback" not in captured.err


def test_symcoords_sigma_refuses_a_degree_above_its_limit(capsys):
    sigma = json.dumps([{"re": 1}] * 65)
    start = time.perf_counter()
    code, report, _ = run_cli(capsys, "symcoords", "--sigma", sigma)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and report["error"] == {
        "type": "limit", "message": "polynomial degree 65 exceeds the root-finding limit 64"}
    # x^64 - x^63 + ... + 1: the 65th roots of unity other than 1
    code, report, _ = run_cli(capsys, "symcoords", "--sigma", json.dumps([{"re": 1}] * 64))
    assert code == 0 and len(report["points"]) == 64
    # ROOTS_LIMIT is a ceiling: symcoords has no --max-degree to raise it
    code, report, _ = run_cli(capsys, "symcoords", "--sigma", sigma, "--max-degree", "65")
    assert code == 2 and report["error"] == {"type": "validation", "message": "invalid arguments"}
    # the guard is on root finding only: --points has none
    code, report, _ = run_cli(capsys, "symcoords", "--points", sigma)
    assert code == 0 and len(report["sigma"]) == 65


def _strict_json(text):
    def refuse(token):
        raise ValueError("non-JSON token %s" % token)

    return json.loads(text, parse_constant=refuse)


def _phi(rho, j):
    return json.dumps({"summands": [{"rho": rho, "j": j, "twist": {"q_exp": "1", "turn": "0"}}]})


# refused by gldual.symfun, which names the point or the sigma index
_SYMCOORDS_NOT_FINITE = {
    "nan-re": '[{"re": NaN}]', "infinity-im": '[{"re": 1, "im": Infinity}]',
    "infinity-re": '[{"re": Infinity}]', "negative-infinity-im": '[{"re": 1, "im": -Infinity}]',
    # parsed as inf, and integers beyond the float range (was a traceback)
    "float-overflow-re": '[{"re": 1e400}]', "int-overflow-re": '[{"re": 1%s}]' % ("0" * 400),
    "negative-int-overflow-re": '[{"re": -1%s}]' % ("0" * 400)}
_SYMCOORDS_BAD = {"bool-re": '[{"re": true}]', "string-re": '[{"re": "1"}]',
                  **_SYMCOORDS_NOT_FINITE}
_SYMCOORDS_FLAGS = ("--points", "--sigma")
_DEEP = "[" * 100000
_CARRIER_VERBS = (["temper"], ["homotopy", "--t", "1/2"])
_RHO_BAD = {"list": [1], "string": "a"}
_TWIST = {"q_exp": "1", "turn": "0"}
_NON_STRING_NAMES = {
    "id-int": ["temper", "--input", _phi({"id": 7}, "0")],
    "id-int-and-string": ["temper", "--input", json.dumps({"summands": [
        {"rho": {"id": 7}, "j": "0", "twist": _TWIST},
        {"rho": {"id": "7"}, "j": "0", "twist": _TWIST}]})],
    "label-int-homotopy": ["homotopy", "--t", "1/2", "--input", json.dumps({
        "component": {"blocks": [{"label": 5, "exponent": 3}]},
        "cycle_type": [[3]], "coords": [{"q_exp": "2", "turn": "0"}]})],
    "label-bool": ["hp", "--component", '{"blocks": [{"label": true, "exponent": 1}]}'],
    "label-list": ["hp", "--component", '{"blocks": [{"label": ["a"], "exponent": 1}]}'],
}
# each name's path and what it got
_NAME_REFUSALS = {
    "id-int": ("summands[0].rho.id", "a number"),
    "id-int-and-string": ("summands[0].rho.id", "a number"),
    "label-int-homotopy": ("component.blocks[0].label", "a number"),
    "label-bool": ("blocks[0].label", "a boolean"),
    "label-list": ("blocks[0].label", "a list"),
}
_TWO_BLOCKS = '{"blocks": [{"label": "a", "exponent": 1}, {"label": "b", "exponent": 1}]}'
_MISMATCHED_ARGS = {
    "project-component-only": ["project", "--component", "(3)"],
    "project-cycle-two-blocks": ["project", "--component", "(2,1)", "--cycle", "(2)",
                                 "--coords", "{q}"],
    "symcoords-points-n-too-large": ["symcoords", "--points", '[{"re": 2}, {"re": 3}]',
                                     "--n", "3"],
    "symcoords-sigma-n-too-large": ["symcoords", "--sigma", '[{"re": 5}, {"re": 6}]',
                                    "--n", "3"],
    "fiber-block-count": ["fiber", "--component", _TWO_BLOCKS, "--point", "{1}"],
}
# a JSON value of the wrong type where a flag expects an object or a list: was
# refused with Python's own message, such as "list indices must be integers or
# slices, not str"
_WRONG_JSON_TYPES = {
    "hp-component-list": (["hp", "--component", "[1]"],
                          "--component must be a JSON object, got a list"),
    "temper-input-list": (["temper", "--input", "[1]"],
                          "--input must be a JSON object, got a list"),
    "fiber-point-list": (["fiber", "--component", "(2)", "--point", "[1]"],
                         "--point must be a JSON object, got a list"),
    "project-point-list": (["project", "--point", "[1]"],
                           "--point must be a JSON object, got a list"),
    "symcoords-points-number-entry": (["symcoords", "--points", "[1]"],
                                      "--points[0] must be a JSON object, got a number"),
    "symcoords-points-object": (["symcoords", "--points", '{"re":1}'],
                                "--points must be a JSON list, got an object"),
    # nested fields: were Python's own TypeError and KeyError messages
    "hp-block-number": (["hp", "--component", '{"blocks": [1]}'],
                        "blocks[0] must be a JSON object, got a number"),
    "hp-blocks-number": (["hp", "--component", '{"blocks": 1}'],
                         "blocks must be a JSON list, got a number"),
    "temper-summand-number": (["temper", "--input", '{"summands": [1]}'],
                              "summands[0] must be a JSON object, got a number"),
    "symcoords-points-missing-re": (["symcoords", "--points", "[{}]"],
                                    "--points[0].re is missing"),
    "temper-twist-number": (["temper", "--input", json.dumps(
        {"summands": [{"rho": {"id": "a"}, "j": "0", "twist": 1}]})],
                            "summands[0].twist must be a JSON object, got a number"),
    # a missing member or a nested field of a stratum point: were Python's own
    # "'twist'" and "'int' object is not subscriptable"
    "temper-twist-missing": (["temper", "--input", json.dumps(
        {"summands": [{"rho": {"id": "a"}, "j": "0"}]})], "summands[0].twist is missing"),
    "temper-point-component-number": (["temper", "--input", json.dumps(
        {"component": 1, "cycle_type": [[1]], "coords": []})],
                                      "component must be a JSON object, got a number"),
    "temper-point-cycle-part-number": (["temper", "--input", json.dumps(
        {"component": {"blocks": [{"label": "a", "exponent": 1}]}, "cycle_type": [1],
         "coords": []})], "cycle_type[0] must be a JSON list, got a number"),
    "temper-point-coords-missing": (["temper", "--input", json.dumps(
        {"component": {"blocks": [{"label": "a", "exponent": 1}]}, "cycle_type": [[1]]})],
                                    "coords is missing"),
    # fields nested in a stratum point's component or a summand: named by their full path
    "temper-point-blocks-number": (["temper", "--input", json.dumps(
        {"component": {"blocks": 1}, "cycle_type": [[1]], "coords": []})],
                                   "component.blocks must be a JSON list, got a number"),
    "temper-point-blocks-missing": (["temper", "--input", json.dumps(
        {"component": {}, "cycle_type": [[1]], "coords": []})], "component.blocks is missing"),
    "temper-point-block-number": (["temper", "--input", json.dumps(
        {"component": {"blocks": [1]}, "cycle_type": [[1]], "coords": []})],
                                  "component.blocks[0] must be a JSON object, got a number"),
    "temper-summand-rho-list": (["temper", "--input", _phi([1], "0")],
                        "summands[0].rho must be a JSON object, got a list"),
    "temper-summand-rho-missing": (["temper", "--input", json.dumps(
        {"summands": [{"j": "0", "twist": _TWIST}]})], "summands[0].rho is missing"),
    "fiber-point-block-number": (["fiber", "--component", "(1)", "--point", '{"blocks": [1]}'],
                                 "blocks[0] must be a JSON list, got a number"),
    "fiber-point-scalar-list": (["fiber", "--component", "(1)", "--point",
                                 '{"blocks": [[[1]]]}'],
                                "blocks[0][0] must be a JSON object, got a list"),
    # scalar text that does not parse: was Python's own ValueError or ZeroDivisionError
    "temper-point-cycle-part-text": (["temper", "--input", json.dumps(
        {"component": {"blocks": [{"label": "a", "exponent": 1}]}, "cycle_type": [["x"]],
         "coords": []})], "cycle_type[0][0] must be an integer, got 'x'"),
    "temper-summand-j-text": (["temper", "--input", _phi({"id": "a"}, "abc")],
                              "summands[0].j must be an integer or a rational string, "
                              "got 'abc'"),
    "hp-q-scale-zero-denominator": (["hp", "--component", json.dumps(
        {"blocks": [{"label": "a", "exponent": 1, "q_scale": "1/0"}]})],
                                    "blocks[0].q_scale must be an integer or a rational "
                                    "string, got '1/0'"),
    # an empty JSON object for a quotient point: was read as the scalar shorthand
    # of one empty block, "point has 1 blocks, component has 2"
    "fiber-point-empty-object": (["fiber", "--component", "(1,1)", "--point", "{}"],
                                 "blocks is missing"),
    "fiber-point-empty-object-spaced": (["fiber", "--component", "(1,1)", "--point", "{ }"],
                                        "blocks is missing"),
}
# numbers of more than MAX_DIGITS characters, refused by name before anything
# parses them: were Python's own "Exceeds the limit (4300 digits) ..." as a JSON
# number and for the last two (a decimal exponent; a product of two numbers
# read), and "must be an integer, got '1000...'", echoing every digit, as text;
# (argv, message) with {limit} for MAX_DIGITS
_DIGITS = "1" + "0" * 5000
_TOO_MANY_DIGITS = {
    "hp-exponent-number": (["hp", "--component", '{"blocks": [{"label": "a", "exponent": %s}]}'
                            % _DIGITS],
                           "a number in --component has more than {limit} characters"),
    "hp-exponent-string": (["hp", "--component", '{"blocks": [{"label": "a", "exponent": "%s"}]}'
                            % _DIGITS], "blocks[0].exponent has more than {limit} characters"),
    "hp-exponent-shorthand": (["hp", "--component", "(%s)" % _DIGITS],
                              "exponent has more than {limit} characters"),
    "temper-q-exp-string": (["temper", "--input", json.dumps({"summands": [
        {"rho": {"id": "a"}, "j": "0", "twist": {"q_exp": _DIGITS, "turn": "0"}}]})],
                            "summands[0].twist.q_exp has more than {limit} characters"),
    "homotopy-t-denominator": (["homotopy", "--t", "1/" + _DIGITS,
                                "--input", _phi({"id": "a"}, "0")],
                               "t has more than {limit} characters"),
    "homotopy-t-exponent": (["homotopy", "--t", "1e" + "1" * 5000,
                             "--input", _phi({"id": "a"}, "0")],
                            "t has more than {limit} characters"),
    "homotopy-t-and-q-exp-denominators": (["homotopy", "--t", "1/" + "9" * 4000, "--input",
                                           json.dumps({"summands": [{
                                               "rho": {"id": "a"}, "j": "0",
                                               "twist": {"q_exp": "1/" + "7" * 4000,
                                                         "turn": "0"}}]})],
                                          "t has more than {limit} characters"),
}
_Q_ONE = ["project", "--component", "(1)", "--cycle", "(1)", "--coords", "{q}"]
# numeric options in text that every other reader of numbers refuses: all but
# the last were read by argparse's int() and float() as 10, 3, 1, 10 and 1,
# 9.0 and 10.0, and answered with exit 0
_OPTION_TEXT = {
    "max-degree-underscore": ["strata", "--component", "(3)", "--max-degree", "1_0"],
    "max-degree-arabic-indic": ["strata", "--component", "(3)", "--max-degree", "\u0663"],
    "n-arabic-indic": ["symcoords", "--points", '[{"re": 2}]', "--n", "\u0661"],
    "samples-underscore-and-arabic-indic": ["verify", "--fiber-samples", "1_0",
                                            "--sym-samples", "\u0661"],
    "q-arabic-indic": [*_Q_ONE, "--q", "\u0669"],
    "q-underscore": [*_Q_ONE, "--q", "1_0"],
    "max-degree-4301-digits": ["strata", "--component", "(3)", "--max-degree", "1" * 4301],
}
_DEEP_JSON_ARGS = ((["hp"], "--component"), (["fiber", "--component", "(1)"], "--point"),
                   (["project"], "--point"), (["temper"], "--input"),
                   (["homotopy", "--t", "1/2"], "--input"), (["symcoords"], "--points"),
                   (["symcoords"], "--sigma"))


@pytest.mark.parametrize("argv", [
    # q^2000 overflows a float: was an uncaught OverflowError with exit 1
    ["project", "--component", "(1)", "--cycle", "(1)", "--coords", "{q^2000}", "--q", "9"],
    # q^-2000 underflows: was a silent 0.0
    ["project", "--component", "(1)", "--cycle", "(1)", "--coords", "{q^-2000}", "--q", "9"],
    # a non-finite q: was a silent 0.0 for negative powers ...
    ["project", "--component", "(1)", "--cycle", "(1)", "--coords", "{q^-3}", "--q", "inf"],
    # ... and the non-JSON token Infinity for positive ones
    ["project", "--component", "(1)", "--cycle", "(1)", "--coords", "{q^3}", "--q", "inf"],
    ["project", "--component", "(1)", "--cycle", "(1)", "--coords", "{q}", "--q", "nan"],
    # JSON booleans where integers belong: were read as 1
    ["hp", "--component", '{"blocks": [{"label": "a", "exponent": true}]}'],
    ["temper", "--input", _phi({"id": "a", "dim": True}, "0")],
    ["project", "--point", json.dumps({
        "component": {"blocks": [{"label": "a", "exponent": 2}]},
        "cycle_type": [[True, True]], "coords": [{"q_exp": "0", "turn": "0"}] * 2})],
    # a spin of 401 digits, refused while still text
    ["temper", "--input", _phi({"id": "a"}, "1e400")],
    # a time whose denominator would have a billion digits
    ["homotopy", "--t", "1e-1000000000", "--input", _phi({"id": "a"}, "0")],
    # a negative size guard: was reported as a limit refusal
    ["strata", "--component", "(3)", "--max-degree", "-1"],
    ["orbits", "--component", "(2)", "--max-degree", "-2"],
    # symcoords input: a boolean was read as 1, NaN/Infinity tokens were accepted
    *(["symcoords", flag, value] for flag in _SYMCOORDS_FLAGS for value in _SYMCOORDS_BAD.values()),
    # an unreadable @file: was a traceback with exit 1
    ["hp", "--component", "@/nonexistent/component.json"],
    ["hp", "--component", "@/"],
    # underscores and non-ASCII digits: were read as 10, 11 and 12
    ["hp", "--component", "(1_0)"],
    ["project", "--component", "(11)", "--cycle", "(1_1)", "--coords", "{1}"],
    ["hp", "--component", "(\u0661\u0662)"],
    ["hp", "--component", '{"blocks": [{"label": "a", "exponent": "1_0"}]}'],
    ["temper", "--input", json.dumps({"summands": [
        {"rho": {"id": "a"}, "j": "0", "twist": {"q_exp": "1_0", "turn": "0"}}]})],
    ["fiber", "--component", "(2)", "--point", "{q^1_0,1}"],
    # JSON nested beyond the decoder's recursion limit: was a RecursionError traceback
    *([*verb, flag, _DEEP] for verb, flag in _DEEP_JSON_ARGS),
    # a rho that is not a JSON object: was an AttributeError traceback
    *([*verb, "--input", _phi(rho, "0")] for verb in _CARRIER_VERBS for rho in _RHO_BAD.values()),
    # labels and ids that are not strings: were echoed as given, or refused by
    # the comparison or the hash that first met them
    *_NON_STRING_NAMES.values(),
    # numeric options read by argparse's own int() and float()
    *_OPTION_TEXT.values(),
    # argument combinations that only the verbs themselves refuse
    *_MISMATCHED_ARGS.values(),
    *(argv for argv, _ in _WRONG_JSON_TYPES.values()),
], ids=["overflow", "underflow", "q-inf-small", "q-inf-large", "q-nan", "bool-exponent", "bool-dim",
        "bool-cycle-part", "spin-1e400", "t-tiny-exponent", "negative-max-degree",
        "negative-orbits-degree",
        *("symcoords-%s-%s" % (flag[2:], name) for flag in _SYMCOORDS_FLAGS
          for name in _SYMCOORDS_BAD),
        "missing-file", "directory-file", "underscore-exponent", "underscore-cycle-part",
        "arabic-indic-exponent", "underscore-json-exponent", "underscore-q-exp",
        "underscore-shorthand-q-exp",
        *("deep-json-%s-%s" % (verb[0], flag[2:]) for verb, flag in _DEEP_JSON_ARGS),
        *("%s-rho-%s" % (verb[0], name) for verb in _CARRIER_VERBS for name in _RHO_BAD),
        *_NON_STRING_NAMES, *_OPTION_TEXT, *_MISMATCHED_ARGS, *_WRONG_JSON_TYPES])
def test_boundary_inputs_are_validation_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert _strict_json(captured.out)["error"]["type"] == "validation"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", sorted(_WRONG_JSON_TYPES))
def test_wrong_json_types_are_refused_by_flag(capsys, name):
    argv, message = _WRONG_JSON_TYPES[name]
    code, report, _ = run_cli(capsys, *argv)
    assert code == 2
    assert report["error"] == {"type": "validation", "message": message}


_PARENTHESES = "shorthand must be integers in one pair of parentheses, like '(2,1)'"
_NOT_JSON = "is not JSON: Expecting value: line 1 column 1 (char 0)"
_BRACES = "shorthand must be scalars in one pair of braces, like '{q,1}'"
# malformed shorthand and text that is not JSON: the shorthands were read as
# '(2,1)', '{q,1}', '{q}', '(2)' and '{q^(1/2)}', and the JSON error did not
# name the flag
_MALFORMED = {
    "hp-component-empty-entry": (["hp", "--component", "(2,,1)"],
                                 "--component shorthand has an empty entry"),
    "hp-component-trailing-comma": (["hp", "--component", "(2,1,)"],
                                    "--component shorthand has an empty entry"),
    "hp-component-unclosed": (["hp", "--component", "(2,1"], "--component " + _PARENTHESES),
    "hp-component-nested": (["hp", "--component", "((2,1))"], "--component " + _PARENTHESES),
    "fiber-point-empty-entry": (["fiber", "--component", "(2)", "--point", "{q,,1}"],
                                "--point shorthand has an empty entry"),
    "fiber-point-leading-comma": (["fiber", "--component", "(1)", "--point", "{,q}"],
                                  "--point shorthand has an empty entry"),
    "project-cycle-bare": (["project", "--component", "(2)", "--cycle", "2", "--coords", "{q}"],
                           "--cycle " + _PARENTHESES),
    "project-coords-empty-entry": (["project", "--component", "(2)", "--cycle", "(2)",
                                    "--coords", "{q,}"], "--coords shorthand has an empty entry"),
    "fiber-point-unclosed-brace": (["fiber", "--component", "(1)", "--point", "{q"],
                                   "--point " + _BRACES),
    "fiber-point-nested-braces": (["fiber", "--component", "(1)", "--point", "{{q}}"],
                                  "--point shorthand: cannot parse scalar factor '{q}'"),
    "fiber-point-exponent-braces-reversed": (
        ["fiber", "--component", "(1)", "--point", "{q^}1/2{}"],
        "--point shorthand: q exponent must be an integer or a rational string, got '}1/2{'"),
    "fiber-point-exponent-braces-nested": (
        ["fiber", "--component", "(1)", "--point", "{q^{{1/2}}}"],
        "--point shorthand: q exponent must be an integer or a rational string, got '{1/2}'"),
    "project-coords-bare": (["project", "--component", "(1)", "--cycle", "(1)", "--coords", "q"],
                            "--coords " + _BRACES),
    # whitespace of other scripts around a shorthand: was stripped, and '(1)' and '{q}' read
    "hp-component-no-break-space": (["hp", "--component", "\u00a0(1)"],
                                    "--component shorthand must be ASCII text"),
    "fiber-point-ideographic-space": (["fiber", "--component", "(1)", "--point", "{q}\u3000"],
                                      "--point shorthand must be ASCII text"),
    "hp-component-not-json": (["hp", "--component", "abc"], "--component " + _NOT_JSON),
    "temper-input-not-json": (["temper", "--input", "abc"], "--input " + _NOT_JSON),
    "symcoords-points-not-json": (["symcoords", "--points", "abc"], "--points " + _NOT_JSON),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_text_is_refused_by_flag(capsys, name):
    argv, message = _MALFORMED[name]
    code, report, _ = run_cli(capsys, *argv)
    assert code == 2
    assert report["error"] == {"type": "validation", "message": message}


def test_braces_inside_a_scalar_stay_legal(capsys):
    _, _, braced = run_cli(capsys, "fiber", "--component", "(2)", "--point", "{q^{-1/2},q^{1/2}}")
    code, _, plain = run_cli(capsys, "fiber", "--component", "(2)", "--point", "{q^-1/2,q^1/2}")
    assert code == 0 and braced == plain


def test_blocks_share_one_pair_of_braces(capsys):
    code, report, _ = run_cli(capsys, "fiber", "--component", "(1,1)", "--point", "{q;1}")
    assert code == 0 and report["count"] == 1
    assert report["point"]["blocks"] == [[{"q_exp": "1", "turn": "0"}],
                                         [{"q_exp": "0", "turn": "0"}]]
    code, _, _ = run_cli(capsys, "fiber", "--component", "(1,1)", "--point", "{q};{1}")
    assert code == 2


@pytest.mark.parametrize("name", sorted(_TOO_MANY_DIGITS))
def test_numbers_beyond_the_digit_limit_are_refused_by_path(capsys, name):
    argv, message = _TOO_MANY_DIGITS[name]
    code, report, out = run_cli(capsys, *argv)
    assert code == 2
    assert report["error"] == {"type": "validation", "message": message.format(limit=MAX_DIGITS)}
    assert "0" * 100 not in out


@pytest.mark.parametrize("flag, prefix", [("--points", "points must be finite, point 0 is "),
                                          ("--sigma", "sigma must be finite, sigma_1 is ")])
@pytest.mark.parametrize("name", sorted(_SYMCOORDS_NOT_FINITE))
def test_non_finite_symcoords_input_is_refused_by_position(capsys, name, flag, prefix):
    code, report, _ = run_cli(capsys, "symcoords", flag, _SYMCOORDS_NOT_FINITE[name])
    assert code == 2
    assert report["error"]["message"].startswith(prefix)


@pytest.mark.parametrize("name", sorted(_NON_STRING_NAMES))
def test_non_string_names_are_refused_by_field(capsys, name):
    code, report, _ = run_cli(capsys, *_NON_STRING_NAMES[name])
    assert code == 2
    assert report["error"]["message"] == "%s must be a JSON string, got %s" % _NAME_REFUSALS[name]


def test_non_finite_output_is_refused_not_printed(capsys):
    # 1e300 * 1e300 overflows sigma_2; the report would hold Infinity
    points = json.dumps([{"re": 1e300, "im": 0}, {"re": 1e300, "im": 0}])
    code = main(["symcoords", "--points", points])
    assert code == 2
    assert _strict_json(capsys.readouterr().out)["error"]["type"] == "validation"


def test_symcoords_names_sigma_overflow_and_underflow(capsys):
    # [1e200, 1e200] reached the report as sigma_2 = inf; [1e-200, 1e-200] was
    # refused with "points must avoid the origin", though they do
    for value, message in [(1e200, "sigma_2 overflows the range of doubles"),
                           (1e-200, "sigma_2 underflows to zero: the points avoid the origin, "
                                    "but their product is below the range of doubles")]:
        points = json.dumps([{"re": value}, {"re": value}])
        code, report, _ = run_cli(capsys, "symcoords", "--points", points)
        assert code == 2
        assert report == {"error": {"type": "validation", "message": message}}


def test_symcoords_returns_roots_where_mpmath_gave_up(capsys):
    # the triple root 1: mpmath.polyroots exited 2 with "Didn't converge in
    # maxsteps=100 steps."; each root is now an exact root of multiplicity 3
    code, report, _ = run_cli(capsys, "symcoords", "--sigma", '[{"re":3},{"re":3},{"re":1}]')
    assert code == 0
    assert report == {"points": [{"re": 1.0, "im": 0.0}] * 3}
    # roots of modulus 1e-100: mpmath's absolute tolerance made them "root
    # collapsed to zero"; they are now the doubles nearest the cube roots
    sigma = '[{"re":1e-300},{"re":1e-300},{"re":1e-300}]'
    code, report, _ = run_cli(capsys, "symcoords", "--sigma", sigma)
    assert code == 0
    assert report == {"points": [{"re": -5e-101, "im": -8.660254037844387e-101},
                                 {"re": -5e-101, "im": 8.660254037844387e-101},
                                 {"re": 1e-100, "im": 0.0}]}


def test_undecodable_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "component.json"
    path.write_bytes(b"\xff\xfe(2)")
    code, report, _ = run_cli(capsys, "hp", "--component", "@" + str(path))
    assert code == 2 and report["error"]["type"] == "validation"


def test_fiber_point_accepts_inline_json(capsys):
    point = '{"blocks": [[{"q_exp": "-1", "turn": "0"}, {"q_exp": "0", "turn": "0"}, ' \
            '{"q_exp": "1", "turn": "0"}]]}'
    _, _, shorthand = run_cli(capsys, "fiber", "--component", "(3)", "--point", "{q^-1,1,q}")
    code, _, inline = run_cli(capsys, "fiber", "--component", "(3)", "--point", point)
    assert code == 0 and inline == shorthand


def test_output_is_byte_identical_across_runs(capsys):
    _, _, first = run_cli(capsys, "fiber", "--component", "(3)", "--point", "{q^-1,1,q}")
    _, _, second = run_cli(capsys, "fiber", "--component", "(3)", "--point", "{q^-1,1,q}")
    assert first == second


def test_verify_verb_exit_codes(capsys, monkeypatch):
    from gldual.verify import CheckResult

    monkeypatch.setattr(
        "gldual.verify.run_all",
        lambda **kw: [CheckResult("stub", True, "ok", 0.0)],
    )
    code, report, _ = run_cli(capsys, "verify")
    assert code == 0 and report["passed"] is True

    monkeypatch.setattr(
        "gldual.verify.run_all",
        lambda **kw: [CheckResult("stub", False, "broken", 0.0)],
    )
    code, report, _ = run_cli(capsys, "verify")
    assert code == 1 and report["passed"] is False
    assert report["checks"][0]["name"] == "stub"


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("broken handler")


@pytest.mark.parametrize("counts", [
    ["--fiber-samples", "-5", "--sym-samples", "-3"],  # was "-5 random points" with exit 0
    ["--fiber-samples", "0"],
    ["--sym-samples", "0"],
])
def test_verify_refuses_sample_counts_below_one(capsys, monkeypatch, counts):
    # refused before any check runs: a check that ran would exit 4
    monkeypatch.setattr("gldual.verify.check_gl2_projection", _raise_runtime_error)
    code, report, _ = run_cli(capsys, "verify", *counts)
    assert code == 2
    assert report["error"]["type"] == "validation"
    assert "samples must be at least 1, got " in report["error"]["message"]


@pytest.mark.parametrize("flag, name", [("--fiber-samples", "fiber_samples"),
                                        ("--sym-samples", "sym_samples")])
def test_verify_refuses_sample_counts_above_the_limit(capsys, monkeypatch, flag, name):
    # refused with exit 3 before any check runs: a check that ran would exit 4
    monkeypatch.setattr("gldual.verify.check_gl2_projection", _raise_runtime_error)
    code, report, _ = run_cli(capsys, "verify", flag, "10001")
    assert code == 3
    assert report["error"] == {
        "type": "limit", "message": "%s 10001 exceeds the sample limit 10000" % name}


def test_an_unexpected_exception_is_an_internal_error_with_code_4(capsys, monkeypatch):
    from gldual import cli

    summary, _, arguments = cli._VERBS["hp"]
    monkeypatch.setitem(cli._VERBS, "hp", (summary, _raise_runtime_error, arguments))
    code = main(["hp", "--component", "(3)"])
    captured = capsys.readouterr()
    assert code == 4
    assert _strict_json(captured.out) == {
        "error": {"type": "internal", "message": "RuntimeError: broken handler"}}
    assert captured.err == ""

    # a verify suite that raises is internal too: code 1 means failed regressions only
    monkeypatch.setattr("gldual.verify.run_all", _raise_runtime_error)
    code, report, _ = run_cli(capsys, "verify")
    assert code == 4 and report["error"]["type"] == "internal"


def test_file_input(tmp_path, capsys):
    path = tmp_path / "component.json"
    path.write_text(json.dumps({"blocks": [{"label": "a", "exponent": 2}]}))
    code, report, _ = run_cli(capsys, "hp", "--component", "@" + str(path))
    assert code == 0 and report == {"hp0": 2, "hp1": 2, "orbit_dim": 2}


_JUNK_TOKENS = ("x", "2.5")
_exponent_tokens = st.integers(0, 6 + len(_JUNK_TOKENS)).map(
    lambda i: str(i) if i <= 6 else _JUNK_TOKENS[i - 7])


@settings(max_examples=60, deadline=None)
@given(verb=st.sampled_from(["strata", "orbits", "hp"]),
       tokens=st.lists(_exponent_tokens, min_size=1, max_size=3),
       max_degree=st.integers(-2, 24))
def test_component_verbs_always_answer_in_json(verb, tokens, max_degree):
    argv = [verb, "--component", "(%s)" % ",".join(tokens), "--max-degree", str(max_degree)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = _strict_json(out.getvalue())
    assert code in (0, 2, 3)
    if verb == "hp" and code == 0:
        assert report["hp0"] == report["hp1"] == report["orbit_dim"]


@pytest.mark.parametrize("verb", ["strata", "orbits"])
@pytest.mark.parametrize("component, max_degree", [
    pytest.param(component, max_degree, id=component) for component, max_degree in [
        ("(1200)", "1200"), ("(1100,100)", "1200"), ("(900)", "1200"), ("(30,30)", "1200"),
        ("(100000000)", "100000000")]])
def test_partition_walk_deeper_than_the_interpreter_is_a_limit(capsys, verb, component,
                                                               max_degree):
    # more partitions or multipartitions than OUTPUT_LIMIT: (1200) and (1100,100)
    # were refused by the interpreter's recursion limit, (900) and (30,30) ran
    # without bound; each is now refused by its count before any partition is built
    start = time.perf_counter()
    code = main([verb, "--component", component, "--max-degree", max_degree])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    error = _strict_json(captured.out)["error"]
    assert error["type"] == "limit"
    assert "exceed the output limit 32768" in error["message"]
    assert "Traceback" not in captured.err
    assert elapsed < 1.0


# every walk reproducer, and its exit code, whatever stack the caller leaves
_WALKS = [
    *(([verb, "--component", component, "--max-degree", "1200"], 3)
      for verb in ("strata", "orbits") for component in ("(1200)", "(1100,100)", "(900)")),
    (["orbits", "--component", "(30,30)", "--max-degree", "60"], 3),
    *(([verb, "--component", "(100000000)", "--max-degree", "100000000"], 3)
      for verb in ("strata", "orbits")),
    (["fiber", "--component", "(1500)",
      "--point", "{%s}" % ",".join("q^%d" % (i % 20) for i in range(1500))], 3),
    (_generic_fiber_argv(500), 0),
    (_generic_fiber_argv(5000), 0),
]


def test_no_exit_code_depends_on_the_recursion_limit(capsys):
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    try:
        runs = [(main(argv), capsys.readouterr().out) for argv, _ in _WALKS]
    finally:
        sys.setrecursionlimit(limit)
    assert [code for code, _ in runs] == [code for _, code in _WALKS]
    for _, out in runs:
        _strict_json(out)


@pytest.mark.parametrize("component, max_degree", [
    ("(1200)", "1200"), ("(1100,100)", "1200"), ("(100000000)", "100000000")])
def test_hp_above_its_ceiling_is_a_limit_whatever_max_degree_says(capsys, component,
                                                                   max_degree):
    # hp walks no partitions; a raised --max-degree lifts its limit up to HP_LIMIT only
    start = time.perf_counter()
    code = main(["hp", "--component", component, "--max-degree", max_degree])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    error = _strict_json(captured.out)["error"]
    assert error["type"] == "limit"
    assert "HP_LIMIT" in error["message"]
    assert "Traceback" not in captured.err
    assert elapsed < 1.0


# Arbitrary JSON, drawn in place of any valid field below.
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text("ab1/-_", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "re", "q_exp", "blocks"]), inner, max_size=2),
    max_leaves=5)


def _field(valid, junk=_junk):
    # one draw in eight is junk, so that whole inputs are often valid too
    return st.integers(0, 7).flatmap(lambda i: junk if i == 0 else valid)


# numbers of 1 to 5,000 digits, on both sides of MAX_DIGITS: an integer, a
# denominator, a decimal and a decimal exponent
_long_number = st.builds(lambda form, n: form % ("7" * n),
                         st.sampled_from(["%s", "-1/%s", "0.%s", "1e%s"]), st.integers(1, 5000))
_rational = st.integers(0, 15).flatmap(lambda i: _long_number if i == 0 else st.sampled_from(
    ["0", "1", "-1", "1/2", "-3/2", "1/3", 2, 0]))
_twist = st.fixed_dictionaries({"q_exp": _field(_rational), "turn": _field(_rational)})
_rho = st.fixed_dictionaries({"id": _field(st.sampled_from(["a", "b"])),
                              "dim": _field(st.integers(1, 2)),
                              "unitary_det": _field(st.booleans())})
_summand = st.fixed_dictionaries({"rho": _field(_rho),
                                  "j": _field(st.sampled_from(["0", "1/2", "1", 0])),
                                  "twist": _field(_twist)})
_parameter = st.fixed_dictionaries({"summands": _field(st.lists(_summand, min_size=1,
                                                                 max_size=3))})
# degree <= 6 and parts <= 6: `project` has no size guard
_exponents = st.lists(st.integers(1, 3), min_size=1, max_size=2)


@st.composite
def _stratum_point(draw):
    """A stratum point, every field valid or arbitrary JSON."""
    exponents = draw(_exponents)
    blocks = [draw(_field(st.fixed_dictionaries({
        "label": _field(st.just("ab"[i])), "exponent": _field(st.just(e))})))
        for i, e in enumerate(exponents)]
    cycle_type = [draw(_field(st.sampled_from([list(p) for p in partitions(e)])))
                  for e in exponents]
    rank = sum(len(p) if isinstance(p, list) else 1 for p in cycle_type)
    return {"component": draw(_field(st.just({"blocks": blocks}))),
            "cycle_type": draw(_field(st.just(cycle_type))),
            "coords": draw(_field(st.lists(_field(_twist), min_size=rank, max_size=rank)))}


_text_junk = st.text("q^e()1/-*,;{}_x", max_size=5)
_scalar_text = _field(st.sampled_from(["1", "q", "q^-1", "q^1/2", "e(1/3)", "q^2*e(1/2)"]),
                      _text_junk)


def _scalar_entries(n):
    return st.lists(_scalar_text, min_size=n, max_size=n).map(",".join)


def _scalars(n):
    return _scalar_entries(n).map(lambda entries: "{%s}" % entries)


# refused wherever --q or --n holds them: the first two are not written in
# ASCII digits without underscores, and the last is beyond the doubles as a q
# and no count of the points given as an n
_REFUSED_NUMBERS = ("1_0", "\u0661\u0660", "1" * 400)


def _shorthand(values):
    return "(%s)" % ",".join(map(str, values))


@st.composite
def _project_argv(draw):
    if draw(st.booleans()):
        return ["project", "--point", json.dumps(draw(_field(_stratum_point())))]
    e = draw(st.integers(1, 6))
    parts = draw(st.sampled_from(list(partitions(e))))
    argv = ["project", "--component", draw(_field(st.just(_shorthand([e])), _text_junk)),
            "--cycle", draw(_field(st.just(_shorthand(parts)), _text_junk)),
            "--coords", draw(_scalars(len(parts)))]
    q = draw(st.sampled_from([None, "9", "1.5", "1", "0.5", "inf", "nan", "x", *_REFUSED_NUMBERS]))
    return argv if q is None else argv + ["--q", q]


@st.composite
def _fiber_argv(draw):
    exponents = draw(_exponents)
    point = "{%s}" % ";".join(draw(_scalar_entries(e)) for e in exponents)
    return ["fiber", "--component", draw(_field(st.just(_shorthand(exponents)), _text_junk)),
            "--point", draw(_field(st.just(point), _text_junk))]


_carrier = _field(st.one_of(_parameter, _stratum_point())).map(json.dumps)
_complex = st.fixed_dictionaries({"re": _field(st.floats(-4, 4)), "im": _field(st.floats(-4, 4))})


@st.composite
def _symcoords_argv(draw):
    argv = ["symcoords"]
    n = draw(st.integers(1, 6))
    for flag in draw(st.sampled_from([["--points"], ["--sigma"], ["--points", "--sigma"], []])):
        argv += [flag, json.dumps(draw(_field(st.lists(_complex, min_size=n, max_size=n))))]
    if draw(st.booleans()):
        argv += ["--n", str(draw(st.sampled_from([n, n, -1, 0, 7, *_REFUSED_NUMBERS])))]
    return argv


_ARGV = st.one_of(
    _project_argv(),
    _fiber_argv(),
    _carrier.map(lambda c: ["temper", "--input", c]),
    st.tuples(_carrier, st.sampled_from(["0", "1/2", "1", "2", "-1/3", "x", "0.5"])
              | _long_number).map(
        lambda a: ["homotopy", "--input", a[0], "--t", a[1]]),
    _symcoords_argv(),
)


@settings(max_examples=400, deadline=None)
@given(argv=_ARGV)
def test_every_verb_answers_in_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    _strict_json(out.getvalue())
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    # no length of number reaches the interpreter's own digit limit
    assert "set_int_max_str_digits" not in out.getvalue()
    assert "Exceeds the limit" not in out.getvalue()
    if any(value in _REFUSED_NUMBERS for value in argv):
        assert code == 2


# --- adversarial sizes: each verb just under and just past every limit, in a child
# process whose address space is capped, so a guard that failed would show as a
# timeout, a MemoryError or a traceback rather than as a slow test run


def _summand_json(j="0", q_exp="1"):
    return json.dumps({"summands": [{"rho": {"id": "a"}, "j": j,
                                     "twist": {"q_exp": q_exp, "turn": "0"}}]})


_NESTED = "[" * 50000 + "]" * 50000  # deeper than the decoder's recursion allows
_SHALLOW = "[" * 100 + "]" * 100  # decoded, then refused as not an object

# MAX_DIGITS = 2000 characters, whatever the interpreter's digit limit: (id, argv, exit code)
_DIGIT_BOUNDARY = [
    ("t-2000", ["homotopy", "--input", _summand_json(), "--t", "1/" + "9" * 1998], 0),
    ("t-2001", ["homotopy", "--input", _summand_json(), "--t", "1/" + "9" * 1999], 2),
    ("q_exp-2000", ["temper", "--input", _summand_json(q_exp="1/" + "7" * 1998)], 0),
    ("q_exp-2001", ["temper", "--input", _summand_json(q_exp="1/" + "7" * 1999)], 2),
    ("shorthand-exponent-2000", ["fiber", "--component", "(1)",
                                 "--point", "{q^1/%s}" % ("3" * 1998)], 0),
    ("shorthand-exponent-2001", ["fiber", "--component", "(1)",
                                 "--point", "{q^1/%s}" % ("3" * 1999)], 2),
    # a 1,998-digit t on a 1,999-digit q_exp: the scaled q_exp's denominator has
    # 3,994 digits, and prints
    ("t-1998-digits-on-q_exp-1999-digits", ["homotopy", "--t", "1/" + "9" * 1997, "--input",
                                            _summand_json(q_exp="1/" + "7" * 1998)], 0),
]

# (id, argv, exit code)
_ADVERSARIAL = [
    # OUTPUT_LIMIT = 32768: p(39) = 31,185 strata fit, p(40) = 37,338 do not
    ("strata-39", ["strata", "--component", "(39)", "--max-degree", "39"], 0),
    ("strata-40", ["strata", "--component", "(40)", "--max-degree", "40"], 3),
    ("orbits-40", ["orbits", "--component", "(40)", "--max-degree", "40"], 3),
    # p(15)^2 = 30,976 multipartitions fit, p(15) p(16) = 40,656 do not
    ("orbits-15-15", ["orbits", "--component", "(15,15)", "--max-degree", "30"], 0),
    ("orbits-15-16", ["orbits", "--component", "(15,16)", "--max-degree", "31"], 3),
    ("fiber-13", ["fiber", "--component", "(13)", "--point", _q_string(13)], 0),
    ("fiber-14", ["fiber", "--component", "(14)", "--point", _q_string(14)], 3),
    ("project-32768", ["project", "--component", "(32768)", "--cycle", "(32768)",
                       "--coords", "{1}"], 0),
    ("project-32769", ["project", "--component", "(32769)", "--cycle", "(32769)",
                       "--coords", "{1}"], 3),
    # HP_LIMIT = 1000, whatever --max-degree says
    ("hp-1000", ["hp", "--component", "(1000)", "--max-degree", "1000"], 0),
    ("hp-1001", ["hp", "--component", "(1001)", "--max-degree", "1001"], 3),
    # ROOTS_LIMIT = 64, a ceiling
    ("sigma-64", ["symcoords", "--sigma", json.dumps([{"re": 1}] * 64)], 0),
    ("sigma-65", ["symcoords", "--sigma", json.dumps([{"re": 1}] * 65)], 3),
    # MAX_DECIMAL_EXPONENT = 100
    ("t-1e-100", ["homotopy", "--input", _summand_json(), "--t", "1e-100"], 0),
    ("t-1e-101", ["homotopy", "--input", _summand_json(), "--t", "1e-101"], 2),
    ("j-1e100", ["temper", "--input", _summand_json(j="1e100")], 0),
    ("j-1e101", ["temper", "--input", _summand_json(j="1e101")], 2),
    ("q_exp-1e100", ["temper", "--input", _summand_json(q_exp="1e100")], 0),
    ("q_exp-1e101", ["temper", "--input", _summand_json(q_exp="1e101")], 2),
    *_DIGIT_BOUNDARY,
    # JSON nesting
    ("component-shallow", ["hp", "--component", _SHALLOW], 2),
    ("component-nested", ["hp", "--component", _NESTED], 2),
    ("input-nested", ["temper", "--input", _NESTED], 2),
    ("sigma-nested", ["symcoords", "--sigma", _NESTED], 2),
]


@pytest.mark.parametrize("argv, expected", [
    pytest.param(argv, expected, id=name) for name, argv, expected in _ADVERSARIAL])
def test_adversarial_sizes_answer_or_refuse_in_strict_json(argv, expected):
    # an answer may print megabytes (orbits-15-15: 34 MB) and is timed as such;
    # a refusal comes before any walk, in a small address space
    cap, bound = (1024 * 2**20, 10.0) if expected == 0 else (100 * 2**20, 1.0)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gldual.cli", *argv], capture_output=True, text=True, env=env,
        timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    elapsed = time.perf_counter() - start
    report = _strict_json(proc.stdout)
    assert proc.returncode == expected
    assert ("error" in report) == (expected != 0)
    assert "Traceback" not in proc.stderr
    assert elapsed < bound


# every case on either side of MAX_DIGITS, as (id, argv)
_DIGIT_CASES = [*((name, argv) for name, (argv, _) in _TOO_MANY_DIGITS.items()),
                *((name, argv) for name, argv, _ in _DIGIT_BOUNDARY)]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name) for name, argv in _DIGIT_CASES])
def test_no_answer_depends_on_the_interpreter_digit_limit(argv):
    # PYTHONINTMAXSTRDIGITS unset, the limit of 4,300 digits, and 0, no limit at
    # all, as on Python 3.10.0 to 3.10.6; one child at a time
    runs = []
    for limit in (None, "0"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run([sys.executable, "-m", "gldual.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]


def test_the_fiber_reference_answers_at_its_limit_and_refuses_above_at_once():
    # REFERENCE_LIMIT is on no verb's path: the brute force grows about 15x per degree
    from gldual.bernstein import Component
    from gldual.qproj import SymPoint, fiber
    from gldual.scalars import unit
    from gldual.verify import REFERENCE_LIMIT, fiber_reference

    def generic(n):
        return SymPoint((tuple(unit(F(i, n)) for i in range(n)),)), Component.from_exponents((n,))

    start = time.perf_counter()
    assert fiber_reference(*generic(REFERENCE_LIMIT)) == fiber(*generic(REFERENCE_LIMIT))
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with pytest.raises(gldual.errors.LimitExceeded, match="exceeds the reference limit"):
        fiber_reference(*generic(REFERENCE_LIMIT + 1))
    assert time.perf_counter() - start < 0.1
