"""Batch command-line interface: JSON in, JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 failed `verify` regressions, 2 invalid input,
3 refused resource limit (a degree guard, or a walk that would return more
than `partitions.OUTPUT_LIMIT` items), 4 an internal error.  Code 4 is the
last resort: any other exception is reported as
`{"error": {"type": "internal", ...}}`, never as a traceback, and never as
code 1, which only `verify` returns.  No known input reaches it; one that
does has found a fault of the program.

Components and points are passed inline as JSON (or `@file`), or in this
shorthand, the one grammar of the command line:

    component, cycle   (n,...)           one or more integers, unit blocks of
                                         those exponents for a component
    point              {s,...;s,...}     one or more blocks, separated by ';'
                                         inside the one pair of braces, each
                                         of one or more scalars
    coordinates        {s,...}           one or more scalars
    scalar s           f*f*...           each factor f is 1, q, q^r, q^{r} or e(r)
    rational r         3, -1/2, 0.25, .5, 1e-3   as `exact_rational` reads it

The text is ASCII.  Whitespace may stand around any bracket, entry, factor
and number, but not inside `q^`, `e(` or a number.  A `--point` whose brace
is followed by `"` or closes at once (`{"blocks": ...}`, `{}`) is JSON.
Every JSON member is read by `gldual._value._json_field` and refused by its
full path, missing, of the wrong type or unparsed: `summands[0].j is missing`.
Every number in text is read by one reader of its kind, whether it comes from
JSON, the shorthand or an option: integers (`--max-degree`, `--n`,
`--fiber-samples`, `--sym-samples`) by `exact_int`, rationals (`--t`) by
`exact_rational`, and `--q`, in the same ASCII digits, by `float`.

Each verb imports the modules it runs inside its handler and parse helpers,
so a process pays for its own verb only: `symcoords`, for one, loads neither
the exact layers nor `fractions`.  Likewise a process builds the argparse
subparser of its own verb only; help, no verb and an unknown verb build all
nine.  `--max-degree` of `strata`, `orbits` and `hp`, `STRATA_LIMIT` when left
out, is this command line's own check.  The library bounds every walk by its
count, `OUTPUT_LIMIT` items, HP by `HP_LIMIT`, `project` and `fiber` by their
output, `OUTPUT_LIMIT` scalars, and `symcoords --sigma` by `ROOTS_LIMIT`.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._value import _json_field, _json_objects, _json_of_type, _refuse_digit_variants, exact_int
from .errors import LimitExceeded, RootFindingError

STRATA_LIMIT = 20  # the default of --max-degree on strata, orbits and hp


def _load_text(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError("cannot read %s: %s" % (value[1:], exc)) from exc
    return value


def _decode_json(text: str, flag: str, expected: type):
    """json.loads of the value of `flag`, refused unless it is of the `expected`
    type (dict or list), where it is nested too deeply for the decoder, or where
    it holds an integer of more digits than `sys.get_int_max_str_digits()`."""
    try:
        value = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError("%s is not JSON: %s" % (flag, exc)) from None
    except ValueError:  # the only other refusal: an integer longer than int() reads
        raise ValueError("%s holds a number of more than %d digits"
                         % (flag, sys.get_int_max_str_digits())) from None
    return _json_of_type(value, flag, expected)


def _entries(inner: str, flag: str) -> list[str]:
    """The comma-separated entries inside a shorthand's brackets, none of them
    empty; blank brackets hold none."""
    entries = inner.split(",") if inner.strip() else []
    if not all(entry.strip() for entry in entries):
        raise ValueError("%s shorthand has an empty entry" % flag)
    return entries


def _ascii_stripped(text: str, flag: str) -> str:
    """A shorthand text without the whitespace around it, refused unless ASCII,
    so that no other whitespace is stripped either."""
    if not text.isascii():
        raise ValueError("%s shorthand must be ASCII text" % flag)
    return text.strip()


def _int_tuple(text: str, flag: str, what: str) -> tuple[int, ...]:
    """The shorthand '(a,b,...)' of integers, as for components and cycle types:
    exactly one enclosing pair of parentheses."""
    text = _ascii_stripped(text, flag)
    if not (text.startswith("(") and text.endswith(")")) or text.count("(") + text.count(")") != 2:
        raise ValueError("%s shorthand must be integers in one pair of parentheses, like '(2,1)'"
                         % flag)
    return tuple(exact_int(p, what) for p in _entries(text[1:-1], flag))


def parse_scalar(text: str):
    """Compact scalar syntax: products of `1`, `q`, `q^a` and `e(u)` with rational a, u,
    as a `QScalar`."""
    from .scalars import QScalar, exact_rational

    q_exp = turn = 0  # QScalar makes both Fractions
    for factor in text.strip().split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        if factor == "q":
            q_exp += 1
        elif factor.startswith("q^"):
            exponent = factor[2:].strip()
            if exponent.startswith("{") and exponent.endswith("}"):  # q^{r}: one pair
                exponent = exponent[1:-1]
            q_exp += exact_rational(exponent, "q exponent")
        elif factor.startswith("e(") and factor.endswith(")"):
            turn += exact_rational(factor[2:-1].strip(), "turn")
        else:
            raise ValueError("cannot parse scalar factor %r" % factor)
    return QScalar(q_exp, turn)


def _parse_component(text: str):
    from .bernstein import Component

    text = _load_text(text)
    if text.lstrip().startswith("("):
        return Component.from_exponents(_int_tuple(text, "--component", "exponent"))
    return Component.from_json(_decode_json(text.strip(), "--component", dict))


def _braced(text: str, flag: str) -> str:
    """The text inside the one pair of braces that encloses a scalar shorthand."""
    text = _ascii_stripped(text, flag)
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("%s shorthand must be scalars in one pair of braces, like '{q,1}'"
                         % flag)
    return text[1:-1]


def _parse_scalar_list(inner: str, flag: str) -> tuple:
    """The comma-separated scalars of one block of a shorthand, refused by `flag`."""
    entries = _entries(inner, flag)
    try:
        return tuple(map(parse_scalar, entries))
    except ValueError as exc:
        raise ValueError("%s shorthand: %s" % (flag, exc)) from None


def _parse_sym_point(text: str):
    from .qproj import SymPoint

    text = _load_text(text)
    body = text.strip()
    # '{"blocks": ...}' and '{}' are JSON; any other '{...' is the scalar shorthand,
    # its blocks separated by ';' inside one pair of braces
    if body.startswith("{") and not body[1:].lstrip().startswith(('"', "}")):
        return SymPoint(tuple(_parse_scalar_list(block, "--point")
                              for block in _braced(text, "--point").split(";")))
    return SymPoint.from_json(_decode_json(body, "--point", dict))


def _json_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("%s must be a JSON number, got %r" % (name, value))
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range: symfun refuses it
        return float("inf")


def _parse_complex_list(text: str, flag: str) -> list[complex]:
    """A JSON list of {re, im} objects (im defaults to 0) as complex numbers; NaN
    and infinities are left for `gldual.symfun` to refuse."""
    return [complex(_json_field(d, "re", _json_float, at),
                    _json_field(d, "im", _json_float, at, 0.0))
            for d, at in _json_objects(_decode_json(_load_text(text), flag, list), flag)]


def _int_option(text: str) -> int:
    """An integer option, read as every integer in text is."""
    return exact_int(text, "option")


def _float_option(text: str) -> float:
    """`--q`, in ASCII digits as every number in text; `QScalar.to_complex`
    refuses a q that is not finite and above 1."""
    _refuse_digit_variants(text, "--q")
    return float(text)


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _bounded_component(args):
    """`--component`, refused above `--max-degree`, which is refused if negative first."""
    from .bernstein import _check_degree

    if args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative, got %d" % args.max_degree)
    component = _parse_component(args.component)
    _check_degree(component, args.max_degree)
    return component


def _cmd_strata(args) -> tuple[int, dict]:
    from .bernstein import enumerate_strata

    component = _bounded_component(args)
    strata = enumerate_strata(component)
    return 0, {"component": component.to_json(), "strata": [s.to_json() for s in strata]}


def _cmd_orbits(args) -> tuple[int, dict]:
    from .bernstein import enumerate_orbits

    component = _bounded_component(args)
    orbits = enumerate_orbits(component)
    return 0, {"component": component.to_json(), "orbits": [o.to_json() for o in orbits]}


def _cmd_hp(args) -> tuple[int, dict]:
    from .cohomology import orbit_hp_dimension

    d = orbit_hp_dimension(_bounded_component(args))
    return 0, {"hp0": d, "hp1": d, "orbit_dim": d}


def _stratum_point_from_args(args):
    from .bernstein import CycleType, Stratum
    from .qproj import StratumPoint

    if args.point is not None:
        return StratumPoint.from_json(_decode_json(_load_text(args.point), "--point", dict))
    if args.component is None or args.cycle is None or args.coords is None:
        raise ValueError("need either --point or all of --component/--cycle/--coords")
    component = _parse_component(args.component)
    parts = _int_tuple(args.cycle, "--cycle", "cycle part")
    # shorthand covers single-block components; JSON covers the general case
    if len(component.blocks) != 1:
        raise ValueError("--cycle shorthand requires a single-block component")
    stratum = Stratum(component, CycleType((parts,)))
    return StratumPoint(stratum, _parse_scalar_list(_braced(args.coords, "--coords"), "--coords"))


def _cmd_project(args) -> tuple[int, dict]:
    from .qproj import project

    point = _stratum_point_from_args(args)
    image = project(point)
    report = {"point": point.to_json(), "image": image.to_json()}
    if args.q is not None:
        report["numeric"] = [[_complex_json(z.to_complex(args.q)) for z in block]
                             for block in image.blocks]
    return 0, report


def _cmd_fiber(args) -> tuple[int, dict]:
    from .qproj import fiber

    component = _parse_component(args.component)
    point = _parse_sym_point(args.point)
    points = fiber(point, component)
    return 0, {
        "component": component.to_json(),
        "point": point.to_json(),
        "count": len(points),
        "points": [p.to_json() for p in points],
    }


def _parse_carrier(text: str):
    from .parameters import LParameter
    from .qproj import StratumPoint

    data = _decode_json(_load_text(text), "--input", dict)
    if "summands" in data:
        return LParameter.from_json(data)
    return StratumPoint.from_json(data)


def _cmd_temper(args) -> tuple[int, dict]:
    from .parameters import LParameter
    from .retract import temper_parameter, temper_point

    obj = _parse_carrier(args.input)
    result = temper_parameter(obj) if isinstance(obj, LParameter) else temper_point(obj)
    return 0, {"result": result.to_json()}


def _cmd_homotopy(args) -> tuple[int, dict]:
    from .parameters import LParameter
    from .retract import homotopy, homotopy_point
    from .scalars import exact_rational

    obj = _parse_carrier(args.input)
    t = exact_rational(args.t, "t")
    result = homotopy(obj, t) if isinstance(obj, LParameter) else homotopy_point(obj, t)
    return 0, {"t": str(t), "result": result.to_json()}


def _cmd_symcoords(args) -> tuple[int, dict]:
    from .symfun import SymCoords, from_sym_coords, to_sym_coords

    if (args.points is None) == (args.sigma is None):
        raise ValueError("need exactly one of --points or --sigma")
    forward = args.points is not None
    flag, text, noun = (("--points", args.points, "points") if forward
                        else ("--sigma", args.sigma, "coordinates"))
    values = _parse_complex_list(text, flag)
    if args.n is not None and len(values) != args.n:
        raise ValueError("expected %d %s, got %d" % (args.n, noun, len(values)))
    if forward:
        return 0, {"sigma": [_complex_json(s) for s in to_sym_coords(values).sigma]}
    return 0, {"points": [_complex_json(r) for r in from_sym_coords(SymCoords(values))]}


def _cmd_verify(args) -> tuple[int, dict]:
    from . import verify  # deferred: only this verb compiles and loads the regression suite

    results = verify.run_all(fiber_samples=args.fiber_samples, sym_samples=args.sym_samples)
    passed = all(r.passed for r in results)
    for r in results:
        print("%s %s (%.3fs)" % ("PASS" if r.passed else "FAIL", r.name, r.seconds),
              file=sys.stderr)
    return (0 if passed else 1), {"passed": passed, "checks": [r.to_json() for r in results]}


_DEGREE = "refuse a component of higher degree (default: %s)"
_STRATA_DEGREE = ("--max-degree", {"type": _int_option, "default": STRATA_LIMIT,
                                   "help": _DEGREE % "STRATA_LIMIT"})
_COMPONENT = ("--component", {
    "required": True, "help": "component JSON, @file, or exponent shorthand like '(2,1)'"})
_CARRIER = ("--input", {"required": True, "help": "parameter or stratum point JSON"})

# verb -> (help, handler, its add_argument calls as (flag, options) pairs), in the
# order `gldual --help` lists them
_VERBS = {
    "strata": ("extended-quotient strata", _cmd_strata, [_COMPONENT, _STRATA_DEGREE]),
    "orbits": ("parameter orbits over a component", _cmd_orbits, [_COMPONENT, _STRATA_DEGREE]),
    "hp": ("periodic cyclic homology dimensions", _cmd_hp, [_COMPONENT, ("--max-degree", dict(
        _STRATA_DEGREE[1], help=_DEGREE % "STRATA_LIMIT; never above HP_LIMIT"))]),
    "project": ("apply the q-projection to a stratum point", _cmd_project, [
        ("--point", {"help": "stratum point JSON or @file"}),
        ("--component", {"help": "shorthand alternative to --point"}),
        ("--cycle", {"help": "cycle type shorthand, e.g. '(2,1)'"}),
        ("--coords", {"help": "coordinates shorthand, e.g. '{q,1}'"}),
        ("--q", {"type": _float_option, "help": "also evaluate the image at this numeric q"})]),
    "fiber": ("enumerate a q-projection fiber", _cmd_fiber, [
        _COMPONENT,
        ("--point", {"required": True,
                     "help": "quotient point JSON, @file, or shorthand like '{q^-1,1,q}'"})]),
    "temper": ("retract onto the tempered locus", _cmd_temper, [_CARRIER]),
    "homotopy": ("evaluate the tempering homotopy", _cmd_homotopy, [
        _CARRIER, ("--t", {"required": True, "help": "rational time in [0,1], e.g. '1/2'"})]),
    "symcoords": ("elementary symmetric coordinates, both directions", _cmd_symcoords, [
        ("--points", {"help": "JSON list of {re, im} points"}),
        ("--sigma", {"help": "JSON list of {re, im} coordinates"}),
        ("--n", {"type": _int_option, "help": "expected size, validated when given"})]),
    "verify": ("run the regression suite", _cmd_verify, [
        ("--fiber-samples", {"type": _int_option, "default": 500}),
        ("--sym-samples", {"type": _int_option, "default": 200})]),
}


def _build_parser(verb=None) -> argparse.ArgumentParser:
    """The parser with the subparser of `verb` only, or of all nine when `verb`
    names none (help, no verb, an unknown verb)."""
    parser = argparse.ArgumentParser(
        prog="gldual",
        description="Exact invariants of the smooth dual of p-adic GL(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [verb] if verb in _VERBS else _VERBS:
        summary, _, arguments = _VERBS[name]
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _dumps(report: dict) -> str:
    # allow_nan=False: a non-finite float is refused, never printed as Infinity
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _emit_error(kind: str, exc) -> None:
    sys.stdout.write(_dumps({"error": {"type": kind, "message": str(exc)}}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help and friends
            return 0
        _emit_error("validation", "invalid arguments")
        return 2
    try:
        code, report = _VERBS[args.command][1](args)
        text = _dumps(report)
    except LimitExceeded as exc:
        _emit_error("limit", exc)
        return 3
    except (ValueError, TypeError, ZeroDivisionError, RootFindingError) as exc:
        _emit_error("validation", exc)
        return 2
    except Exception as exc:
        _emit_error("internal", "%s: %s" % (type(exc).__name__, exc))
        return 4
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
