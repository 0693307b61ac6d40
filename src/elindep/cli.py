"""Command-line front end.

Reads a versioned JSON problem specification, runs one task per
invocation, and prints a deterministic report (JSON or text).  Exit codes:
0 task completed (an Inconclusive verdict is a completed task), 1 invalid
input, 2 internal contradiction, 3 precision cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebraic import DEFAULT_PRECISION, AlgebraicNumber, Precision
from .criterion import (
    Certificate,
    certificate_text,
    certify_hypergeometric,
    certify_main,
    certify_multi,
    certify_si_integrals,
    certify_single,
)
from .diffop import op_from_json, op_from_text, op_to_json, op_to_text, psi_transform
from .efunction import (
    EFunction,
    HypergeometricParams,
    _hypergeometric_function,
    ef_bessel_j0,
    ef_exp,
    ef_lagrange_combo,
    ef_scale,
    ef_sin_integral,
)
from .errors import (
    ElindepError,
    InputError,
    InternalCheckError,
    PrecisionExceededError,
)
from .numeric import eval_efunction, falsify
from .polynomials import Polynomial
from .rationals import MAX_DECIMAL_DIGITS, parse_decimal
from .singularities import singularity_superset

SPEC_VERSION = 1
TASKS = (
    "singularities",
    "transform",
    "certify",
    "certify_hyp",
    "certify_si",
    "eval",
    "falsify",
)

BUILTINS = {"exp": ef_exp, "J0": ef_bessel_j0, "Si": ef_sin_integral}

# the precision ladder doubles up to --max-precision-bits; at the edge-root
# point of a box, 2^18 bits take about 2 s, 2^20 about 25 s
MAX_PRECISION_BITS = 1 << 18


@dataclass
class Point:
    """A point of a document and the builder of its AlgebraicNumber."""

    text: str  # the rational as written, or the {poly, box} object as sorted JSON
    build: Callable[[Precision], AlgebraicNumber]


@dataclass
class ProblemSpec:
    """A checked problem document, its numbers parsed into exact values.
    Each function and point is a builder that `run` calls with the run's
    precision context, only for the fields its task reads."""

    task: str
    functions: list[Callable[[Precision], EFunction]]
    # per function: its parameters if it is hypergeometric, else None
    params: list[HypergeometricParams | None]
    points: list[Point]
    pairs: list[tuple[Point, Point]]


def _fail(path: str, message: str):
    raise InputError(f"{path}: {message}")


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required field '{key}'")
    for key in obj:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown field")


def _rational(value, path: str) -> Fraction:
    try:
        return parse_decimal(str(value))
    except (InputError, ValueError):
        _fail(path, f"not a rational number: {value!r}")


def _rational_list(values, path: str) -> list[Fraction]:
    if not isinstance(values, list):
        _fail(path, "expected a list")
    return [_rational(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _optional_rational(obj: dict, key: str, path: str) -> Fraction | None:
    return _rational(obj[key], f"{path}.{key}") if key in obj else None


def _parse_function(obj, path: str):
    """(builder of the EFunction, its parameters if it is hypergeometric)."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kind = obj.get("type")
    if kind == "builtin":
        _require_keys(obj, path, ("type", "name"), ("scale",))
        builtin = obj["name"]
        if builtin not in BUILTINS:
            _fail(
                f"{path}.name",
                f"unknown builtin {builtin!r}; choose from " + ", ".join(sorted(BUILTINS)),
            )
        scale = _optional_rational(obj, "scale", path)

        def build(ctx):
            return BUILTINS[builtin]()
    elif kind == "hypergeometric":
        _require_keys(obj, path, ("type", "upper", "lower"), ("scale",))
        upper = _rational_list(obj["upper"], f"{path}.upper")
        lower = _rational_list(obj["lower"], f"{path}.lower")
        scale = _rational(obj.get("scale", 1), f"{path}.scale")
        try:
            params = HypergeometricParams(tuple(upper), tuple(lower), scale)
        except InputError as exc:
            _fail(path, f"invalid parameters (need integers s > r >= 0 and "
                        f"lower parameters outside the nonpositive integers): {exc}")
        # the scale is already the series parameter, not a further z -> scale*z
        return (lambda ctx: _hypergeometric_function(params)), params
    elif kind == "ode":
        _require_keys(
            obj, path, ("type", "operator", "initial"), ("coeff_bound", "name", "scale")
        )
        if isinstance(obj["operator"], str):
            try:
                op = op_from_text(obj["operator"])
            except InputError as exc:
                # the text parser's message, then the field it came from
                raise InputError(f"{exc} ({path}.operator)") from None
        else:
            op = op_from_json(obj["operator"], f"{path}.operator")
        initial = _rational_list(obj["initial"], f"{path}.initial")
        bound = _optional_rational(obj, "coeff_bound", path)
        scale = _optional_rational(obj, "scale", path)
        name = obj.get("name", "f")
        if not isinstance(name, str):
            _fail(f"{path}.name", "expected a string")

        def build(ctx):
            return EFunction(op, initial, name=name, coeff_bound=bound, ctx=ctx)
    else:
        _fail(f"{path}.type", f"unknown function type {kind!r}")
    if scale is None:
        return build, None
    return (lambda ctx: ef_scale(build(ctx), scale, ctx)), None


def _parse_point(obj, path: str) -> Point:
    if isinstance(obj, (str, int)):
        q = _rational(obj, path)
        return Point(str(obj), lambda ctx: AlgebraicNumber.from_rational(q))
    if isinstance(obj, dict):
        _require_keys(obj, path, ("poly", "box"))
        coeffs = obj["poly"]
        if not isinstance(coeffs, list) or not all(
            type(c) is int for c in coeffs  # JSON true/false are not integers
        ):
            _fail(f"{path}.poly", "expected a list of integers")
        box = obj["box"]
        _require_keys(box, f"{path}.box", ("re", "im"))
        bounds = []
        for part in ("re", "im"):
            lohi = box[part]
            if not isinstance(lohi, list) or len(lohi) != 2:
                _fail(f"{path}.box.{part}", "expected [lo, hi]")
            bounds += _rational_list(lohi, f"{path}.box.{part}")
        text = json.dumps(
            {"poly": coeffs, "box": {part: [str(x) for x in box[part]] for part in ("re", "im")}},
            sort_keys=True,
        )

        def build(ctx):
            try:
                return AlgebraicNumber.root_in_box(Polynomial(coeffs), *bounds, ctx)
            except ValueError as exc:  # no root in the box, bounds out of order, ...
                raise InputError(f"point {text}: {exc}") from None
        return Point(text, build)
    _fail(path, "expected a rational string or a {poly, box} object")


def _list(doc: dict, key: str, parse) -> list:
    if key not in doc:
        return []
    if not isinstance(doc[key], list):
        _fail(f"$.{key}", "expected a list")
    return [parse(item, f"$.{key}[{i}]") for i, item in enumerate(doc[key])]


def _parse_pair(pair, path: str) -> tuple[Point, Point]:
    if not isinstance(pair, list) or len(pair) != 2:
        _fail(path, "expected a two-element list")
    return _parse_point(pair[0], f"{path}[0]"), _parse_point(pair[1], f"{path}[1]")


def parse_spec(text: str) -> ProblemSpec:
    """Parse and check a problem document (strict: unknown fields fail),
    each number once, into exact values; build nothing."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integers past Python's digit limit
        raise InputError(f"not valid JSON: {exc}") from None
    _require_keys(
        doc, "$", ("version", "task"), ("functions", "points", "pairs")
    )
    if type(doc["version"]) is not int or doc["version"] != SPEC_VERSION:
        _fail("$.version", f"unsupported version {doc['version']!r} (expected {SPEC_VERSION})")
    task = doc["task"]
    if task not in TASKS:
        _fail("$.task", f"unknown task {task!r}; choose from " + ", ".join(TASKS))
    functions = _list(doc, "functions", _parse_function)
    points = _list(doc, "points", _parse_point)
    pairs = _list(doc, "pairs", _parse_pair)

    needs_functions = task in (
        "singularities", "transform", "certify", "certify_hyp", "eval", "falsify",
    )
    if needs_functions and not functions:
        _fail("$.functions", f"task {task} needs at least one function")
    if task in ("certify", "certify_hyp", "eval", "falsify") and not points:
        _fail("$.points", f"task {task} needs points")
    if task == "certify_si" and not pairs:
        _fail("$.pairs", "task certify_si needs endpoint pairs")
    params = [p for _, p in functions]
    if task == "certify_hyp":
        for i, p in enumerate(params):
            if p is None:
                _fail(f"$.functions[{i}]", "certify_hyp needs hypergeometric functions")
    return ProblemSpec(task, [build for build, _ in functions], params, points, pairs)


def _certify_spec(spec: ProblemSpec, ctx: Precision) -> Certificate:
    """Pair one point with many functions, or one function with many
    points, or the two lists in order, and certify the pairs."""
    functions = [build(ctx) for build in spec.functions]
    points = [p.build(ctx) for p in spec.points]
    if len(points) == 1:
        points = points * len(functions)
    elif len(functions) == 1:
        functions = functions * len(points)
    elif len(functions) != len(points):
        raise InputError(
            f"cannot match {len(functions)} functions with {len(points)} points: "
            "use one function (many points), one point (many functions), or "
            "equal counts"
        )
    return certify_multi(functions, points, ctx)


def run(spec: ProblemSpec, digits: int = 60, coeff_bound: int = 10**6,
        ctx: Precision = DEFAULT_PRECISION) -> dict:
    """Execute the task under `ctx` and return the report document."""
    report = {"version": SPEC_VERSION, "task": spec.task}

    if spec.task == "singularities":
        results = []
        for build in spec.functions:
            f = build(ctx)
            rs = singularity_superset(f)
            results.append({"function": f.name, "root_set": rs.to_json()})
        report["results"] = results
    elif spec.task == "transform":
        results = []
        for build in spec.functions:
            f = build(ctx)
            op = psi_transform(f.annihilator, f.coefficients(f.order))
            results.append(
                {
                    "function": f.name,
                    "operator": op_to_json(op),
                    "operator_text": op_to_text(op),
                }
            )
        report["results"] = results
    elif spec.task == "certify":
        cert = _certify_spec(spec, ctx)
        report["certificate"] = cert.to_json()
    elif spec.task == "certify_hyp":
        points = [p.build(ctx) for p in spec.points]
        cert = certify_hypergeometric(spec.params, points, ctx)
        report["certificate"] = cert.to_json()
    elif spec.task == "certify_si":
        pairs = [(a.build(ctx), b.build(ctx)) for a, b in spec.pairs]
        cert = certify_si_integrals(pairs, ctx)
        report["certificate"] = cert.to_json()
    elif spec.task == "eval":
        results = []
        for build in spec.functions:
            f = build(ctx)
            for p in spec.points:
                point = p.build(ctx)
                # one guard digit keeps the widened printed radius <= 10^-digits
                ball = eval_efunction(f, point, digits + 1)
                results.append(
                    {
                        "function": f.name,
                        "point": p.text,
                        "value": ball.to_json(digits),
                    }
                )
        report["results"] = results
    elif spec.task == "falsify":
        cert = _certify_spec(spec, ctx)
        rel = falsify(cert, digits=digits, coeff_bound=coeff_bound)
        report["certificate"] = cert.to_json()
        report["relation_report"] = rel.to_json()
    else:
        raise InputError(f"unknown task {spec.task!r}")
    return report


def _render_text(report: dict) -> str:
    lines = [f"task: {report['task']}"]
    if "results" in report:
        for r in report["results"]:
            parts = [f"{k}={json.dumps(v)}" for k, v in r.items() if k != "function"]
            lines.append(f"  {r.get('function', '')}: " + "; ".join(parts))
    if "certificate" in report:
        lines.append(certificate_text(report["certificate"]))
    if "relation_report" in report:
        rel = report["relation_report"]
        if rel["found"]:
            lines.append(
                f"relation found: coefficients {rel['coefficients']} "
                f"(residual <= {rel['residual_bound']})"
            )
        elif rel["excluded"]:
            lines.append(
                f"no relation with |c| <= {rel['coeff_bound']} at "
                f"{rel['digits']} digits (exclusion proven for the given balls)"
            )
        elif rel["skipped"]:
            lines.append("relation search skipped")
        else:
            lines.append("no relation found (exclusion not proven)")
        if rel["contradiction"]:
            lines.append("CONTRADICTION: certified independence vs found relation")
        for n in rel["notices"]:
            lines.append(f"notice: {n}")
    if "demos" in report:
        for d in report["demos"]:
            lines.append(f"  {d['name']}: {d['outcome']}")
    return "\n".join(lines)


def demo_suite(digits: int = 40, coeff_bound: int = 10**3, ctx: Precision = DEFAULT_PRECISION):
    """Worked examples, certified under `ctx`: (name, certificate, relation
    report or None)."""
    exp = ef_exp()
    j0 = ef_bessel_j0()
    si = ef_sin_integral()
    items = []

    cert = certify_single(exp, [1, 2, Fraction(1, 2)], ctx)
    items.append(("exp at {1, 2, 1/2}", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_main([exp, j0], 1, ctx)
    items.append(("exp and J0 at 1", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_main([j0, si], 1, ctx)
    items.append(("J0 and Si at 1 (shared singularities)", cert, None))

    cert = certify_single(j0, [2, -2], ctx)
    items.append(("J0 at {2, -2} (opposite points)", cert, None))

    cert = certify_single(j0, [2, 3], ctx)
    items.append(("J0 at {2, 3}", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_si_integrals([(1, 2), (3, 4)], ctx)
    items.append(("sine-integral over [1,2], [3,4]", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_si_integrals([(1, -1)], ctx)
    items.append(("sine-integral over [1,-1] (equal squares)", cert, None))

    cert = certify_si_integrals([(0, 1)], ctx)
    items.append(("sine-integral over [0,1] (transcendence)", cert, falsify(cert, digits, coeff_bound)))

    hyp_k1 = HypergeometricParams((), (Fraction(1),))
    hyp_k2 = HypergeometricParams((), (Fraction(1), Fraction(1)))
    cert = certify_hypergeometric([hyp_k1, hyp_k2], [Fraction(1, 2), 1], ctx)
    items.append(("hypergeometric k=(1,2) at (1/2, 1)", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_hypergeometric([hyp_k1, hyp_k2], [2, 1], ctx)
    items.append(("hypergeometric k=(1,2) at (2, 1) boundary", cert, None))

    cert = certify_hypergeometric([hyp_k2, hyp_k2], [1, 3], ctx)
    items.append(("hypergeometric equal k, distinct points", cert, falsify(cert, digits, coeff_bound)))

    combo = ef_lagrange_combo(exp, [1, 2])
    cert = certify_multi([combo, combo], [1, 2], ctx)
    items.append(("interpolated-combination counterexample at {1, 2}", cert,
                  falsify(cert, digits, coeff_bound)))
    return items


def _run_demo(digits: int, coeff_bound: int, ctx: Precision) -> tuple[dict, int]:
    demos = []
    exit_code = 0
    for name, cert, rel in demo_suite(digits, coeff_bound, ctx):
        outcome = cert.verdict
        entry = {"name": name, "outcome": outcome, "certificate": cert.to_json()}
        if rel is not None:
            entry["relation_report"] = rel.to_json()
            if rel.found:
                entry["outcome"] = outcome + ", relation found"
            elif rel.excluded:
                entry["outcome"] = outcome + ", no relation"
            if rel.contradiction:
                entry["outcome"] += ", CONTRADICTION"
                exit_code = 2
        demos.append(entry)
    return {"version": SPEC_VERSION, "task": "demo", "demos": demos}, exit_code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (invalid input); exit 2 means a contradiction."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused after it:
    parsing leaves no state in it."""
    parser = _Parser(
        prog="elindep",
        description=(
            "Certify linear independence over the algebraic numbers for "
            "values of E-functions, and probe the values numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "singularities", "transform", "certify", "certify-hyp", "certify-si",
        "eval", "falsify", "demo",
    ):
        p = sub.add_parser(name)
        if name != "demo":
            p.add_argument("--spec", required=True, help="path to a JSON problem file")
        p.add_argument("--digits", type=int, default=60, help="decimals, 1..4300; a printed "
                       "value has at most 4300 digits in all, so 4300 fails if |value| >= 1")
        p.add_argument("--coeff-bound", type=int, default=10**6)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--max-precision-bits", type=int, default=1 << 16,
                       help=f"cap of the precision ladder, at most {MAX_PRECISION_BITS} (2^18)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if not 1 <= args.digits <= MAX_DECIMAL_DIGITS:
            raise InputError(
                f"digits must be positive and at most {MAX_DECIMAL_DIGITS}, "
                f"got {args.digits}"
            )
        if args.max_precision_bits > MAX_PRECISION_BITS:
            raise InputError(
                f"max precision bits must be at most {MAX_PRECISION_BITS}, "
                f"got {args.max_precision_bits}"
            )
        ctx = Precision(max_bits=args.max_precision_bits)
        if args.command == "demo":
            report, code = _run_demo(args.digits, args.coeff_bound, ctx)
        else:
            with open(args.spec, encoding="utf-8") as fh:
                spec = parse_spec(fh.read())
            expected = args.command.replace("-", "_")
            if spec.task != expected:
                raise InputError(
                    f"spec task {spec.task!r} does not match subcommand {expected!r}"
                )
            report = run(
                spec,
                digits=args.digits,
                coeff_bound=args.coeff_bound,
                ctx=ctx,
            )
            code = 0
            rel = report.get("relation_report")
            if rel and rel.get("contradiction"):
                code = 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except PrecisionExceededError as exc:
        print(f"precision cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ElindepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.format == "json":
            print(json.dumps(report, indent=2))
        else:
            print(_render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send the rest, and the flush at exit,
        # to devnull (Python docs, note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
