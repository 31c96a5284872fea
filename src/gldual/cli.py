"""Batch command-line interface: JSON in, JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 failed `verify` regressions, 2 invalid input,
3 refused resource limit.  Components and points are passed inline as JSON
(or `@file`), with a compact shorthand for the common cases: a component
`(2,1)` means unit blocks with those exponents, and a scalar multiset
`{q^-1,1,q}` lists q-powers and unit factors `e(1/3)` joined by `*`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .bernstein import (
    STRATA_LIMIT, Component, CycleType, Stratum, enumerate_orbits, enumerate_strata,
)
from .cohomology import component_hp, orbit_hp_dimension
from .errors import LimitExceeded, RootFindingError
from .parameters import LParameter
from .qproj import FIBER_LIMIT, StratumPoint, SymPoint, fiber, project
from .retract import homotopy, homotopy_point, temper_parameter, temper_point
from .scalars import QScalar, exact_int, exact_rational
from .symfun import SymCoords, from_sym_coords, to_sym_coords


def _load_text(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError("cannot read %s: %s" % (value[1:], exc)) from exc
    return value


def _decode_json(text: str, **kwargs):
    """json.loads, with input nested too deeply for the decoder refused as invalid."""
    try:
        return json.loads(text, **kwargs)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _int_tuple(text: str, what: str) -> tuple[int, ...]:
    """The shorthand '(a,b,...)' of integers, as for components and cycle types."""
    return tuple(exact_int(p, what) for p in text.strip().strip("()").split(",") if p.strip())


def parse_scalar(text: str) -> QScalar:
    """Compact scalar syntax: products of `1`, `q`, `q^a` and `e(u)` with rational a, u."""
    q_exp = Fraction(0)
    turn = Fraction(0)
    for factor in text.strip().split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        if factor == "q":
            q_exp += 1
        elif factor.startswith("q^"):
            q_exp += exact_rational(factor[2:].strip().strip("{}"), "q exponent")
        elif factor.startswith("e(") and factor.endswith(")"):
            turn += exact_rational(factor[2:-1].strip(), "turn")
        else:
            raise ValueError("cannot parse scalar factor %r" % factor)
    return QScalar(q_exp, turn)


def _parse_component(text: str) -> Component:
    text = _load_text(text).strip()
    if text.startswith("("):
        return Component.from_exponents(_int_tuple(text, "exponent"))
    return Component.from_json(_decode_json(text))


def _parse_scalar_list(text: str) -> tuple[QScalar, ...]:
    return tuple(parse_scalar(tok) for tok in text.strip().strip("{}").split(",") if tok.strip())


def _parse_sym_point(text: str) -> SymPoint:
    text = _load_text(text).strip()
    # '{"blocks": ...}' is JSON; any other '{...}' is the scalar shorthand
    if text.startswith("{") and not text[1:].lstrip().startswith('"'):
        return SymPoint(tuple(_parse_scalar_list(part) for part in text.split(";")))
    return SymPoint.from_json(_decode_json(text))


def _finite_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("%s must be a JSON number, got %r" % (name, value))
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return out


def _parse_complex_list(text: str, what: str) -> list[complex]:
    """A JSON list of {re, im} objects (im defaults to 0) as finite complex numbers."""

    def refuse(token):
        raise ValueError("non-finite token %s in %s" % (token, what))

    return [complex(_finite_float(d["re"], "re"), _finite_float(d.get("im", 0.0), "im"))
            for d in _decode_json(_load_text(text), parse_constant=refuse)]


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _numeric_blocks(point: SymPoint, q: float) -> list:
    return [[_complex_json(z.to_complex(q)) for z in block] for block in point.blocks]


def _cmd_strata(args) -> tuple[int, dict]:
    component = _parse_component(args.component)
    strata = enumerate_strata(component, args.max_degree)
    return 0, {"component": component.to_json(), "strata": [s.to_json() for s in strata]}


def _cmd_orbits(args) -> tuple[int, dict]:
    component = _parse_component(args.component)
    orbits = enumerate_orbits(component, args.max_degree)
    return 0, {"component": component.to_json(), "orbits": [o.to_json() for o in orbits]}


def _cmd_hp(args) -> tuple[int, dict]:
    component = _parse_component(args.component)
    hp0, hp1 = component_hp(component, args.max_degree)
    return 0, {"hp0": hp0, "hp1": hp1, "orbit_dim": orbit_hp_dimension(component, args.max_degree)}


def _stratum_point_from_args(args) -> StratumPoint:
    if args.point is not None:
        return StratumPoint.from_json(_decode_json(_load_text(args.point)))
    if args.component is None or args.cycle is None or args.coords is None:
        raise ValueError("need either --point or all of --component/--cycle/--coords")
    component = _parse_component(args.component)
    parts = _int_tuple(args.cycle, "cycle part")
    # shorthand covers single-block components; JSON covers the general case
    if len(component.blocks) != 1:
        raise ValueError("--cycle shorthand requires a single-block component")
    stratum = Stratum(component, CycleType((parts,)))
    return StratumPoint(stratum, _parse_scalar_list(args.coords))


def _cmd_project(args) -> tuple[int, dict]:
    point = _stratum_point_from_args(args)
    image = project(point)
    report = {"point": point.to_json(), "image": image.to_json()}
    if args.q is not None:
        report["numeric"] = _numeric_blocks(image, args.q)
    return 0, report


def _cmd_fiber(args) -> tuple[int, dict]:
    component = _parse_component(args.component)
    point = _parse_sym_point(args.point)
    points = fiber(point, component, args.max_degree)
    return 0, {
        "component": component.to_json(),
        "point": point.to_json(),
        "count": len(points),
        "points": [p.to_json() for p in points],
    }


def _parse_carrier(text: str):
    data = _decode_json(_load_text(text))
    if "summands" in data:
        return LParameter.from_json(data)
    return StratumPoint.from_json(data)


def _cmd_temper(args) -> tuple[int, dict]:
    obj = _parse_carrier(args.input)
    result = temper_parameter(obj) if isinstance(obj, LParameter) else temper_point(obj)
    return 0, {"result": result.to_json()}


def _cmd_homotopy(args) -> tuple[int, dict]:
    obj = _parse_carrier(args.input)
    t = exact_rational(args.t, "t")
    result = homotopy(obj, t) if isinstance(obj, LParameter) else homotopy_point(obj, t)
    return 0, {"t": str(t), "result": result.to_json()}


def _cmd_symcoords(args) -> tuple[int, dict]:
    if (args.points is None) == (args.sigma is None):
        raise ValueError("need exactly one of --points or --sigma")
    if args.points is not None:
        pts = _parse_complex_list(args.points, "--points")
        if args.n is not None and len(pts) != args.n:
            raise ValueError("expected %d points, got %d" % (args.n, len(pts)))
        sigma = to_sym_coords(pts).sigma
        return 0, {"sigma": [_complex_json(s) for s in sigma]}
    sigma = _parse_complex_list(args.sigma, "--sigma")
    if args.n is not None and len(sigma) != args.n:
        raise ValueError("expected %d coordinates, got %d" % (args.n, len(sigma)))
    roots = from_sym_coords(SymCoords(tuple(sigma)))
    return 0, {"points": [_complex_json(r) for r in roots]}


def _cmd_verify(args) -> tuple[int, dict]:
    from . import verify  # deferred: only this verb compiles and loads the regression suite

    results = verify.run_all(
        seed=args.seed, fiber_samples=args.fiber_samples, sym_samples=args.sym_samples
    )
    passed = all(r.passed for r in results)
    for r in results:
        print("%s %s (%.3fs)" % ("PASS" if r.passed else "FAIL", r.name, r.seconds),
              file=sys.stderr)
    return (0 if passed else 1), {"passed": passed, "checks": [r.to_json() for r in results]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldual",
        description="Exact invariants of the smooth dual of p-adic GL(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_component(p):
        p.add_argument("--component", required=True,
                       help="component JSON, @file, or exponent shorthand like '(2,1)'")
        p.add_argument("--max-degree", type=int, default=STRATA_LIMIT)
        return p

    p = with_component(sub.add_parser("strata", help="extended-quotient strata"))
    p.set_defaults(handler=_cmd_strata)
    p = with_component(sub.add_parser("orbits", help="parameter orbits over a component"))
    p.set_defaults(handler=_cmd_orbits)
    p = with_component(sub.add_parser("hp", help="periodic cyclic homology dimensions"))
    p.set_defaults(handler=_cmd_hp)

    p = sub.add_parser("project", help="apply the q-projection to a stratum point")
    p.add_argument("--point", help="stratum point JSON or @file")
    p.add_argument("--component", help="shorthand alternative to --point")
    p.add_argument("--cycle", help="cycle type shorthand, e.g. '(2,1)'")
    p.add_argument("--coords", help="coordinates shorthand, e.g. '{q,1}'")
    p.add_argument("--q", type=float, help="also evaluate the image at this numeric q")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("fiber", help="enumerate a q-projection fiber")
    p.add_argument("--component", required=True)
    p.add_argument("--point", required=True,
                   help="quotient point JSON, @file, or shorthand like '{q^-1,1,q}'")
    p.add_argument("--max-degree", type=int, default=FIBER_LIMIT)
    p.set_defaults(handler=_cmd_fiber)

    p = sub.add_parser("temper", help="retract onto the tempered locus")
    p.add_argument("--input", required=True, help="parameter or stratum point JSON")
    p.set_defaults(handler=_cmd_temper)

    p = sub.add_parser("homotopy", help="evaluate the tempering homotopy")
    p.add_argument("--input", required=True, help="parameter or stratum point JSON")
    p.add_argument("--t", required=True, help="rational time in [0,1], e.g. '1/2'")
    p.set_defaults(handler=_cmd_homotopy)

    p = sub.add_parser("symcoords", help="elementary symmetric coordinates, both directions")
    p.add_argument("--points", help="JSON list of {re, im} points")
    p.add_argument("--sigma", help="JSON list of {re, im} coordinates")
    p.add_argument("--n", type=int, help="expected size, validated when given")
    p.set_defaults(handler=_cmd_symcoords)

    p = sub.add_parser("verify", help="run the regression suite")
    p.add_argument("--seed", type=int, default=20250810)
    p.add_argument("--fiber-samples", type=int, default=500)
    p.add_argument("--sym-samples", type=int, default=200)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _dumps(report: dict) -> str:
    # allow_nan=False: a non-finite float is refused, never printed as Infinity
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _emit_error(kind: str, exc) -> None:
    sys.stdout.write(_dumps({"error": {"type": kind, "message": str(exc)}}))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help and friends
            return 0
        _emit_error("validation", "invalid arguments")
        return 2
    try:
        if getattr(args, "max_degree", 0) < 0:
            raise ValueError("--max-degree must be nonnegative, got %d" % args.max_degree)
        code, report = args.handler(args)
        text = _dumps(report)
    except LimitExceeded as exc:
        _emit_error("limit", exc)
        return 3
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RootFindingError) as exc:
        _emit_error("validation", exc)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
