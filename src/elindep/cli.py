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
from dataclasses import dataclass, field
from fractions import Fraction

from .algebraic import AlgebraicNumber, Precision
from .criterion import (
    Certificate,
    certify_hypergeometric,
    certify_main,
    certify_multi,
    certify_si_integrals,
    certify_single,
)
from .diffop import DiffOperator, op_from_json, op_from_text, op_to_json, op_to_text, psi_transform
from .efunction import (
    EFunction,
    HypergeometricParams,
    ef_bessel_j0,
    ef_exp,
    ef_hypergeometric,
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
class FunctionSpec:
    kind: str  # builtin | hypergeometric | ode
    data: dict
    # an ode's operator, parsed once from data["operator"] where it is checked
    operator: DiffOperator | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        out = {"type": self.kind}
        out.update(self.data)
        return out


@dataclass
class ProblemSpec:
    task: str
    functions: list[FunctionSpec] = field(default_factory=list)
    points: list = field(default_factory=list)  # raw json values
    pairs: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"version": SPEC_VERSION, "task": self.task}
        if self.functions:
            out["functions"] = [f.to_json() for f in self.functions]
        if self.points:
            out["points"] = list(self.points)
        if self.pairs:
            out["pairs"] = [list(p) for p in self.pairs]
        return out


def render(spec: ProblemSpec) -> str:
    return json.dumps(spec.to_json(), indent=2)


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


def _rational_list(values, path: str) -> list[str]:
    if not isinstance(values, list):
        _fail(path, "expected a list")
    out = []
    for i, v in enumerate(values):
        try:
            parse_decimal(str(v))
        except (InputError, ValueError):
            _fail(f"{path}[{i}]", f"not a rational number: {v!r}")
        out.append(str(v))
    return out


def _parse_function(obj, path: str) -> FunctionSpec:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kind = obj.get("type")
    if kind == "builtin":
        _require_keys(obj, path, ("type", "name"), ("scale",))
        if obj["name"] not in BUILTINS:
            _fail(
                f"{path}.name",
                f"unknown builtin {obj['name']!r}; choose from "
                + ", ".join(sorted(BUILTINS)),
            )
        data = {"name": obj["name"]}
        if "scale" in obj:
            data["scale"] = _rational_list([obj["scale"]], f"{path}.scale")[0]
        return FunctionSpec("builtin", data)
    if kind == "hypergeometric":
        _require_keys(obj, path, ("type", "upper", "lower"), ("scale",))
        upper = _rational_list(obj["upper"], f"{path}.upper")
        lower = _rational_list(obj["lower"], f"{path}.lower")
        data = {"upper": upper, "lower": lower}
        if "scale" in obj:
            data["scale"] = _rational_list([obj["scale"]], f"{path}.scale")[0]
        try:
            _hyp_params(data).validate()
        except InputError as exc:
            _fail(path, f"invalid parameters (need integers s > r >= 0 and "
                        f"lower parameters outside the nonpositive integers): {exc}")
        return FunctionSpec("hypergeometric", data)
    if kind == "ode":
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
        data = {"operator": obj["operator"], "initial": _rational_list(obj["initial"], f"{path}.initial")}
        for key in ("coeff_bound", "scale"):
            if key in obj:
                data[key] = _rational_list([obj[key]], f"{path}.{key}")[0]
        if "name" in obj:
            if not isinstance(obj["name"], str):
                _fail(f"{path}.name", "expected a string")
            data["name"] = obj["name"]
        return FunctionSpec("ode", data, op)
    _fail(f"{path}.type", f"unknown function type {kind!r}")


def _parse_point(obj, path: str):
    if isinstance(obj, (str, int)):
        try:
            parse_decimal(str(obj))
        except (InputError, ValueError):
            _fail(path, f"not a rational number: {obj!r}")
        return str(obj)
    if isinstance(obj, dict):
        _require_keys(obj, path, ("poly", "box"))
        if not isinstance(obj["poly"], list) or not all(
            type(c) is int for c in obj["poly"]  # JSON true/false are not integers
        ):
            _fail(f"{path}.poly", "expected a list of integers")
        box = obj["box"]
        _require_keys(box, f"{path}.box", ("re", "im"))
        for part in ("re", "im"):
            lohi = box[part]
            if not isinstance(lohi, list) or len(lohi) != 2:
                _fail(f"{path}.box.{part}", "expected [lo, hi]")
            _rational_list(lohi, f"{path}.box.{part}")
        return {
            "poly": list(obj["poly"]),
            "box": {"re": [str(x) for x in box["re"]], "im": [str(x) for x in box["im"]]},
        }
    _fail(path, "expected a rational string or a {poly, box} object")


def parse_spec(text: str) -> ProblemSpec:
    """Parse and validate a problem document (strict: unknown fields fail)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integers past Python's digit limit
        raise InputError(f"not valid JSON: {exc}") from None
    _require_keys(
        doc, "$", ("version", "task"), ("functions", "points", "pairs")
    )
    if type(doc["version"]) is not int or doc["version"] != SPEC_VERSION:
        _fail("$.version", f"unsupported version {doc['version']!r} (expected {SPEC_VERSION})")
    if doc["task"] not in TASKS:
        _fail("$.task", f"unknown task {doc['task']!r}; choose from " + ", ".join(TASKS))
    spec = ProblemSpec(task=doc["task"])
    if "functions" in doc:
        if not isinstance(doc["functions"], list):
            _fail("$.functions", "expected a list")
        spec.functions = [
            _parse_function(f, f"$.functions[{i}]")
            for i, f in enumerate(doc["functions"])
        ]
    if "points" in doc:
        if not isinstance(doc["points"], list):
            _fail("$.points", "expected a list")
        spec.points = [
            _parse_point(p, f"$.points[{i}]") for i, p in enumerate(doc["points"])
        ]
    if "pairs" in doc:
        if not isinstance(doc["pairs"], list):
            _fail("$.pairs", "expected a list")
        pairs = []
        for i, pair in enumerate(doc["pairs"]):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"$.pairs[{i}]", "expected a two-element list")
            pairs.append(
                [
                    _parse_point(pair[0], f"$.pairs[{i}][0]"),
                    _parse_point(pair[1], f"$.pairs[{i}][1]"),
                ]
            )
        spec.pairs = pairs

    needs_functions = spec.task in (
        "singularities", "transform", "certify", "certify_hyp", "eval", "falsify",
    )
    if needs_functions and not spec.functions:
        _fail("$.functions", f"task {spec.task} needs at least one function")
    if spec.task in ("certify", "certify_hyp", "eval", "falsify") and not spec.points:
        _fail("$.points", f"task {spec.task} needs points")
    if spec.task == "certify_si" and not spec.pairs:
        _fail("$.pairs", "task certify_si needs endpoint pairs")
    if spec.task == "certify_hyp":
        for i, f in enumerate(spec.functions):
            if f.kind != "hypergeometric":
                _fail(f"$.functions[{i}]", "certify_hyp needs hypergeometric functions")
    return spec


def _hyp_params(data: dict) -> HypergeometricParams:
    return HypergeometricParams(
        tuple(Fraction(parse_decimal(a)) for a in data["upper"]),
        tuple(Fraction(parse_decimal(b)) for b in data["lower"]),
        Fraction(parse_decimal(data.get("scale", "1"))),
    )


def _build_function(fs: FunctionSpec, ctx: Precision) -> EFunction:
    if fs.kind == "builtin":
        f = BUILTINS[fs.data["name"]]()
    elif fs.kind == "hypergeometric":
        # the scale is already the series parameter, not a further z -> scale*z
        params = _hyp_params(fs.data)
        return ef_hypergeometric(params.upper, params.lower, params.scale)
    else:
        bound = fs.data.get("coeff_bound")
        f = EFunction(
            fs.operator,
            [parse_decimal(v) for v in fs.data["initial"]],
            name=fs.data.get("name", "f"),
            coeff_bound=parse_decimal(bound) if bound is not None else None,
        )
    if "scale" in fs.data:
        f = ef_scale(f, parse_decimal(fs.data["scale"]), ctx)
    return f


def _build_point(p, ctx: Precision) -> AlgebraicNumber:
    if isinstance(p, str):
        return AlgebraicNumber.from_rational(parse_decimal(p))
    poly = Polynomial(p["poly"])
    re_lo, re_hi = (parse_decimal(x) for x in p["box"]["re"])
    im_lo, im_hi = (parse_decimal(x) for x in p["box"]["im"])
    try:
        return AlgebraicNumber.root_in_box(poly, re_lo, re_hi, im_lo, im_hi, ctx)
    except ValueError as exc:  # no root in the box, bounds out of order, ...
        raise InputError(f"point {_point_json(p)}: {exc}") from None


def _point_json(p) -> str:
    return p if isinstance(p, str) else json.dumps(p, sort_keys=True)


def _certify_spec(spec: ProblemSpec, ctx: Precision) -> Certificate:
    """Pair one point with many functions, or one function with many
    points, or the two lists in order, and certify the pairs."""
    functions = [_build_function(fs, ctx) for fs in spec.functions]
    points = [_build_point(p, ctx) for p in spec.points]
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
        max_precision_bits: int = 1 << 16) -> dict:
    """Execute the task and return the report document."""
    ctx = Precision(max_bits=max_precision_bits)
    report = {"version": SPEC_VERSION, "task": spec.task}

    if spec.task == "singularities":
        results = []
        for fs in spec.functions:
            f = _build_function(fs, ctx)
            rs = singularity_superset(f, ctx)
            results.append({"function": f.name, "root_set": rs.to_json()})
        report["results"] = results
    elif spec.task == "transform":
        results = []
        for fs in spec.functions:
            f = _build_function(fs, ctx)
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
        params_list = [_hyp_params(fs.data) for fs in spec.functions]
        points = [_build_point(p, ctx) for p in spec.points]
        cert = certify_hypergeometric(params_list, points, ctx)
        report["certificate"] = cert.to_json()
    elif spec.task == "certify_si":
        pairs = [(_build_point(a, ctx), _build_point(b, ctx)) for a, b in spec.pairs]
        cert = certify_si_integrals(pairs, ctx)
        report["certificate"] = cert.to_json()
    elif spec.task == "eval":
        results = []
        for fs in spec.functions:
            f = _build_function(fs, ctx)
            for p in spec.points:
                point = _build_point(p, ctx)
                # one guard digit keeps the widened printed radius <= 10^-digits
                ball = eval_efunction(f, point, digits + 1)
                results.append(
                    {
                        "function": f.name,
                        "point": _point_json(p),
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
        cert = report["certificate"]
        lines.append(f"verdict: {cert['verdict']}")
        lines.append(f"statement: {cert['statement']}")
        if cert["conditional_on"]:
            lines.append("conditional on: " + "; ".join(cert["conditional_on"]))
        for h in cert["hypotheses"]:
            lines.append(f"  [{h['outcome']}] {h['anchor']}: {h['description']}")
        for note in cert["notes"]:
            lines.append(f"note: {note}")
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


def demo_suite(digits: int = 40, coeff_bound: int = 10**3):
    """Worked examples: (name, certificate, relation report or None)."""
    exp = ef_exp()
    j0 = ef_bessel_j0()
    si = ef_sin_integral()
    items = []

    cert = certify_single(exp, [1, 2, Fraction(1, 2)])
    items.append(("exp at {1, 2, 1/2}", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_main([exp, j0], 1)
    items.append(("exp and J0 at 1", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_main([j0, si], 1)
    items.append(("J0 and Si at 1 (shared singularities)", cert, None))

    cert = certify_single(j0, [2, -2])
    items.append(("J0 at {2, -2} (opposite points)", cert, None))

    cert = certify_single(j0, [2, 3])
    items.append(("J0 at {2, 3}", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_si_integrals([(1, 2), (3, 4)])
    items.append(("sine-integral over [1,2], [3,4]", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_si_integrals([(1, -1)])
    items.append(("sine-integral over [1,-1] (equal squares)", cert, None))

    cert = certify_si_integrals([(0, 1)])
    items.append(("sine-integral over [0,1] (transcendence)", cert, falsify(cert, digits, coeff_bound)))

    hyp_k1 = HypergeometricParams((), (Fraction(1),))
    hyp_k2 = HypergeometricParams((), (Fraction(1), Fraction(1)))
    cert = certify_hypergeometric([hyp_k1, hyp_k2], [Fraction(1, 2), 1])
    items.append(("hypergeometric k=(1,2) at (1/2, 1)", cert, falsify(cert, digits, coeff_bound)))

    cert = certify_hypergeometric([hyp_k1, hyp_k2], [2, 1])
    items.append(("hypergeometric k=(1,2) at (2, 1) boundary", cert, None))

    cert = certify_hypergeometric([hyp_k2, hyp_k2], [1, 3])
    items.append(("hypergeometric equal k, distinct points", cert, falsify(cert, digits, coeff_bound)))

    combo = ef_lagrange_combo(exp, [1, 2])
    cert = certify_multi([combo, combo], [1, 2])
    items.append(("interpolated-combination counterexample at {1, 2}", cert,
                  falsify(cert, digits, coeff_bound)))
    return items


def _run_demo(digits: int, coeff_bound: int) -> tuple[dict, int]:
    demos = []
    exit_code = 0
    for name, cert, rel in demo_suite(digits, coeff_bound):
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
        if args.command == "demo":
            report, code = _run_demo(args.digits, args.coeff_bound)
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
                max_precision_bits=args.max_precision_bits,
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
