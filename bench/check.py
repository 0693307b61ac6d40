"""Output checkers for the benchmark, computed apart from elindep.

Each checker takes an operation (docs.Op) and the CLI's stdout and returns
None when the output is right, or a one-line description of what is wrong.
Verdicts are recomputed from the problem document: exact rationals and
sympy gcds for rational points, mpmath at 50 digits for algebraic points
(the generator keeps every non-colliding ratio at least 1e-8 away from a
singularity ratio, and planted collisions are exact).  Values are
recomputed with mpmath at more digits than the program was asked for.
Nothing here imports elindep.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
import sympy

from docs import ODES as DOC_ODES

CERTIFIED = "CertifiedIndependent"
INCONCLUSIVE = "Inconclusive"
Z = sympy.Symbol("z")

# Closed forms and operator coefficients (order -> ascending polynomial
# coefficients) of the ode functions in docs.ODES.
ODES = {
    "I0": ({2: [0, 1], 1: [1], 0: [0, -1]}, lambda x: mpmath.besseli(0, x)),
    "cosh2": ({2: [1], 0: [-4]}, lambda x: mpmath.cosh(2 * x)),
    "zexp": ({1: [1, 1], 0: [-2, -1]}, lambda x: (1 + x) * mpmath.exp(x)),
    "expmix": ({2: [1], 1: [1], 0: [-2]}, lambda x: mpmath.exp(x) + mpmath.exp(-2 * x)),
    "sin3": ({2: [1], 0: [9]}, lambda x: mpmath.sin(3 * x)),
}
COLLIDE = mpmath.mpf("1e-30")
SEPARATE = mpmath.mpf("1e-8")


def parse_q(text) -> Fraction:
    return Fraction(str(text))


# -- singular sets -------------------------------------------------------------


def _ode_name(f: dict) -> str:
    name = f.get("name")
    if name not in ODES or DOC_ODES[name][0] != f["operator"] or DOC_ODES[name][1] != f["initial"]:
        raise ValueError(f"unknown ode function {f!r}")
    return name


def singular_poly(f: dict) -> sympy.Poly:
    """Polynomial whose roots are the finite singular points of
    sum a_n z^n, for f = sum a_n z^n / n!.

    exp(lz): 1/(1 - lz).  J0 and Si scaled by l: 1 + l^2 z^2.  Hypergeometric:
    (k z)^k - 1.  For an operator sum_b p_b(z) D^b the Laplace transform of f
    satisfies an equation whose leading coefficient is q(s) = sum_b
    [z^d] p_b * s^b (d the largest degree of the p_b), and sum a_n z^n is
    (1/z) times that transform at 1/z, so its singular points are the
    reciprocals of the nonzero roots of q.
    """
    kind = f["type"]
    if kind == "builtin":
        lam = parse_q(f.get("scale", "1"))
        if f["name"] == "exp":
            expr = lam * Z - 1
        else:
            expr = lam**2 * Z**2 + 1
    elif kind == "hypergeometric":
        if "scale" in f:
            raise ValueError("scaled hypergeometric functions are not used by certify")
        k = len(f["lower"]) - len(f["upper"])
        expr = (k * Z) ** k - 1
    else:
        coeffs, _ = ODES[_ode_name(f)]
        d = max(len(c) - 1 for c in coeffs.values())
        q = {b: c[d] for b, c in coeffs.items() if len(c) - 1 == d and c[d] != 0}
        top = max(q)
        expr = sum(sympy.Rational(c) * Z ** (top - b) for b, c in q.items())
    poly = sympy.Poly(expr, Z, domain="QQ")
    # strip roots at 0 and repeated roots
    while poly.degree() > 0 and poly.eval(0) == 0:
        poly = sympy.Poly(sympy.cancel(poly.as_expr() / Z), Z, domain="QQ")
    return sympy.Poly(sympy.quo(poly, sympy.gcd(poly, poly.diff(Z))), Z, domain="QQ")


def _poly_roots(poly: sympy.Poly) -> list:
    coeffs = [mpmath.mpf(sympy.Rational(c).p) / sympy.Rational(c).q for c in poly.all_coeffs()]
    if len(coeffs) <= 1:
        return []
    with mpmath.workdps(60):
        return [mpmath.mpc(r) for r in mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)]


def point_value(p):
    """A point as a Fraction (rational) or an mpc at 60 digits."""
    if isinstance(p, str):
        return parse_q(p)
    lo_re, hi_re = (parse_q(x) for x in p["box"]["re"])
    lo_im, hi_im = (parse_q(x) for x in p["box"]["im"])
    with mpmath.workdps(60):
        roots = mpmath.polyroots(list(reversed(p["poly"])), maxsteps=400, extraprec=400)
        inside = [
            mpmath.mpc(r) for r in roots
            if lo_re <= Fraction(float(mpmath.re(r))) <= hi_re
            and lo_im <= Fraction(float(mpmath.im(r))) <= hi_im
        ]
    if len(inside) != 1:
        raise ValueError(f"box holds {len(inside)} roots: {p!r}")
    return inside[0]


def _is_zero(a) -> bool:
    return a == 0 if isinstance(a, Fraction) else False


def ratio_collides(si: sympy.Poly, sj: sympy.Poly, ai, aj) -> bool:
    """True when a_i/a_j = r/s for a root r of si and a root s of sj."""
    if si.degree() <= 0 or sj.degree() <= 0:
        return False
    if isinstance(ai, Fraction) and isinstance(aj, Fraction):
        rho = sympy.Rational(ai.numerator, ai.denominator) / sympy.Rational(aj.numerator, aj.denominator)
        # r = rho * s with sj(s) = 0  <=>  r is a root of sj(z / rho)
        shifted = sympy.Poly(sj.as_expr().subs(Z, Z / rho), Z, domain="QQ")
        return sympy.gcd(si, shifted).degree() > 0
    with mpmath.workdps(50):
        rho = mpmath.mpc(ai) / mpmath.mpc(aj)
        gap = min(abs(rho - r / s) for r in _poly_roots(si) for s in _poly_roots(sj))
    if gap < COLLIDE:
        return True
    if gap > SEPARATE:
        return False
    raise ValueError(f"ratio {rho} lies {gap} from a singularity ratio: undecided")


# -- certificates ----------------------------------------------------------------


def expected_hypotheses(task: str, doc: dict) -> list:
    """[(anchor, satisfied)] in the order the certificate lists them."""
    if task == "certify_hyp":
        return _hyp_hypotheses(doc)
    if task == "certify_si":
        squares = [parse_q(x) ** 2 for pair in doc["pairs"] for x in pair]
        distinct = len(set(squares)) == len(squares)
        return [("distinct-endpoint-squares", distinct)]
    functions, points = doc["functions"], doc["points"]
    values = [point_value(p) for p in points]
    sets = [singular_poly(f) for f in functions]
    out = []
    if len(points) == 1:  # one point, any number of functions
        out.append(("nonzero-point", not _is_zero(values[0])))
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                out.append(("disjoint-singularity-sets", sympy.gcd(sets[i], sets[j]).degree() <= 0))
        return out
    if len(functions) == 1:
        functions, sets = functions * len(points), sets * len(points)
    if len(functions) != len(points):
        raise ValueError("function and point counts do not match")
    nonzero = [not _is_zero(v) for v in values]
    out += [("nonzero-point", ok) for ok in nonzero]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if nonzero[i] and nonzero[j]:
                out.append(("ratio-condition", not ratio_collides(sets[i], sets[j], values[i], values[j])))
            else:
                out.append(("ratio-condition", None))
    return out


def _hyp_hypotheses(doc: dict) -> list:
    ks, scales, pts = [], [], []
    for f, p in zip(doc["functions"], doc["points"]):
        ks.append(len(f["lower"]) - len(f["upper"]))
        scales.append(parse_q(f.get("scale", "1")))
        pts.append(parse_q(p))
    out = [("nonzero-point", a != 0) for a in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == 0 or pts[j] == 0:
                out.append(("power-ratio-condition", None))
            elif ks[i] == ks[j]:
                out.append(("equal-power-distinct-points", scales[i] * pts[i] != scales[j] * pts[j]))
            else:
                forbidden = Fraction(ks[j], ks[i]) ** (ks[i] * ks[j]) * scales[j] ** ks[i] / scales[i] ** ks[j]
                out.append(("power-ratio-condition", pts[i] ** ks[j] / pts[j] ** ks[i] != forbidden))
    return out


def check_certificate(task: str, doc: dict, cert: dict) -> str | None:
    want = expected_hypotheses(task, doc)
    got = [(h["anchor"], h["outcome"]) for h in cert["hypotheses"]]
    if len(got) != len(want):
        return f"{len(got)} hypotheses, expected {len(want)}"
    for (anchor, ok), (g_anchor, g_outcome) in zip(want, got):
        w_outcome = "skipped" if ok is None else ("satisfied" if ok else "failed")
        if anchor != g_anchor or w_outcome != g_outcome:
            return f"hypothesis {g_anchor}={g_outcome}, expected {anchor}={w_outcome}"
    certified = all(ok for _, ok in want)
    verdict = CERTIFIED if certified else INCONCLUSIVE
    if cert["verdict"] != verdict:
        return f"verdict {cert['verdict']}, expected {verdict}"
    if verdict == CERTIFIED and any(h["outcome"] != "satisfied" for h in cert["hypotheses"]):
        return "certified with an unsatisfied hypothesis"
    if task == "certify_hyp":
        discharged = False
    elif task == "certify_si":
        discharged = certified
    else:
        discharged = certified and all(f["type"] == "builtin" for f in doc["functions"])
    if cert["caveat_discharged"] != discharged:
        return f"caveat_discharged {cert['caveat_discharged']}, expected {discharged}"
    return None


# -- values ----------------------------------------------------------------------


def _mp(text):
    """A rational given as text (or a Fraction) as an mpf at the working precision."""
    q = parse_q(text)
    return mpmath.mpf(q.numerator) / q.denominator


def function_value(f: dict, x):
    """mpmath value of the E-function f at x (working precision set by caller)."""
    x = _mp(x) if isinstance(x, Fraction) else x
    kind = f["type"]
    if kind == "builtin":
        y = x * _mp(f.get("scale", "1"))
        return {"exp": mpmath.exp, "J0": lambda t: mpmath.besselj(0, t), "Si": mpmath.si}[f["name"]](y)
    if kind == "hypergeometric":
        if "scale" in f:
            raise ValueError("scaled hypergeometric functions are not used")
        k = len(f["lower"]) - len(f["upper"])
        return mpmath.hyper([_mp(a) for a in f["upper"]] + [1], [_mp(b) for b in f["lower"]], x**k)
    return ODES[_ode_name(f)][1](x)


def _mp_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    q = Fraction(man) * Fraction(2) ** exp if man else Fraction(0)
    return -q if sign else q


def parse_sci(text: str) -> Fraction:
    mant, _, exp = text.partition("e")
    return parse_q(mant) * Fraction(10) ** int(exp or 0)


def _decimal(text: str) -> Fraction:
    whole, _, frac = text.lstrip("-").partition(".")
    q = Fraction(int(whole or "0")) + (Fraction(int(frac), 10 ** len(frac)) if frac else 0)
    return -q if text.startswith("-") else q


def check_eval(doc: dict, digits: int, report: dict) -> str | None:
    results = report["results"]
    want = [(f, p) for f in doc["functions"] for p in doc["points"]]
    if len(results) != len(want):
        return f"{len(results)} results, expected {len(want)}"
    half_ulp = Fraction(1, 2 * 10**digits)
    for (f, p), r in zip(want, results):
        ball = r["value"]
        rad = parse_sci(ball["radius"])
        if rad > Fraction(1, 10**digits):
            return f"radius {ball['radius']} above 1e-{digits}"
        heuristic = f["type"] == "ode" and "coeff_bound" not in f
        if ball["heuristic_tail"] != heuristic:
            return f"heuristic_tail {ball['heuristic_tail']}, expected {heuristic}"
        with mpmath.workdps(digits + 30):
            v = mpmath.mpc(function_value(f, parse_q(p)))
            err = (abs(_decimal(ball["re"]) - _mp_fraction(v.real))
                   + abs(_decimal(ball["im"]) - _mp_fraction(v.imag)))
        # the printed midpoint is rounded to `digits` decimals
        if err > rad + half_ulp + Fraction(1, 10 ** (digits + 20)):
            return f"ball misses the value of {r['function']} at {p} by {float(err - rad - half_ulp):.3g}"
    return None


# -- relations -------------------------------------------------------------------


def _items(doc: dict) -> list:
    """(function, point) pairs in the order the certificate evaluates them."""
    fs, ps = doc["functions"], doc["points"]
    if len(ps) == 1:
        return [(f, ps[0]) for f in fs]
    if len(fs) == 1:
        return [(fs[0], p) for p in ps]
    return list(zip(fs, ps))


def planted_relation(doc: dict) -> list | None:
    """Integer vector over (1, values...) that the document plants, if any."""
    items = _items(doc)
    vec = [0] * (len(items) + 1)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (fi, pi), (fj, pj) = items[i], items[j]
            same_exp = (fi["type"] == fj["type"] == "builtin" and fi["name"] == fj["name"] == "exp"
                        and parse_q(fi.get("scale", "1")) * parse_q(pi) == parse_q(fj.get("scale", "1")) * parse_q(pj))
            even_j0 = (fi == fj and fi == {"type": "builtin", "name": "J0"}
                       and parse_q(pi) == -parse_q(pj))
            if same_exp or even_j0:
                vec[i + 1], vec[j + 1] = 1, -1
                return vec
    return None


def check_falsify(doc: dict, digits: int, bound: int, report: dict) -> str | None:
    problem = check_certificate("falsify", doc, report["certificate"])
    if problem:
        return problem
    rel = report["relation_report"]
    if rel["digits"] != digits or rel["coeff_bound"] != bound:
        return "digits or coefficient bound not echoed"
    if rel["contradiction"] or rel["skipped"]:
        return "contradiction or skipped search"
    planted = planted_relation(doc)
    if planted is None:
        if rel["found"] or not rel["excluded"] or rel["coefficients"] is not None:
            return "relation reported among values independent by theorem or certificate"
        return None
    coeffs = rel["coefficients"]
    if not rel["found"] or coeffs is None or len(coeffs) != len(planted):
        return "planted relation not found"
    pivot = next(i for i, c in enumerate(planted) if c)
    t = Fraction(coeffs[pivot], planted[pivot])
    if t == 0 or any(Fraction(c) != t * w for c, w in zip(coeffs, planted)):
        return f"relation {coeffs} is not a multiple of the planted {planted}"
    with mpmath.workdps(2 * digits):
        values = [mpmath.mpf(1)] + [function_value(f, parse_q(p)) for f, p in _items(doc)]
        resid = abs(mpmath.fsum(c * v for c, v in zip(coeffs, values)))
        if _mp_fraction(resid) > parse_sci(rel["residual_bound"]):
            return f"residual {mpmath.nstr(resid, 5)} above the reported {rel['residual_bound']}"
    return None


# -- demo ------------------------------------------------------------------------

# Outcome of each worked example of `elindep demo`, from the theory: exp at
# distinct nonzero rationals (Lindemann-Weierstrass); singular sets {1} and
# {+-i} for exp and J0/Si; J0 even; Si integrals need distinct endpoint
# squares; F[;1] and F[;1,1] collide when a_0^2/a_1 = 4; the interpolated
# combination g of exp at {1, 2} has g(1) = g(2).
DEMO = {
    "exp at {1, 2, 1/2}": "CertifiedIndependent, no relation",
    "exp and J0 at 1": "CertifiedIndependent, no relation",
    "J0 and Si at 1 (shared singularities)": "Inconclusive",
    "J0 at {2, -2} (opposite points)": "Inconclusive",
    "J0 at {2, 3}": "CertifiedIndependent, no relation",
    "sine-integral over [1,2], [3,4]": "CertifiedIndependent, no relation",
    "sine-integral over [1,-1] (equal squares)": "Inconclusive",
    "sine-integral over [0,1] (transcendence)": "CertifiedIndependent, no relation",
    "hypergeometric k=(1,2) at (1/2, 1)": "CertifiedIndependent, no relation",
    "hypergeometric k=(1,2) at (2, 1) boundary": "Inconclusive",
    "hypergeometric equal k, distinct points": "CertifiedIndependent, no relation",
    "interpolated-combination counterexample at {1, 2}": "Inconclusive, relation found",
}


def check_demo(report: dict) -> str | None:
    demos = {d["name"]: d for d in report["demos"]}
    if set(demos) != set(DEMO):
        return "demo list changed"
    for name, outcome in DEMO.items():
        d = demos[name]
        if d["outcome"] != outcome:
            return f"demo {name!r}: outcome {d['outcome']!r}, expected {outcome!r}"
        rel = d.get("relation_report")
        if outcome.endswith("no relation") and (rel["found"] or not rel["excluded"]):
            return f"demo {name!r}: relation reported"
        if outcome.endswith("relation found"):
            c = rel["coefficients"]
            if len(c) != 3 or c[0] != 0 or c[1] == 0 or c[1] != -c[2]:
                return f"demo {name!r}: relation {c} is not a multiple of (0, 1, -1)"
    return None


# -- dispatch --------------------------------------------------------------------


def _flag(flags: list, name: str, default: int) -> int:
    return int(flags[flags.index(name) + 1]) if name in flags else default


def check_output(op, stdout: str) -> str | None:
    """None when the output of a completed operation (exit 0) is right."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    task = "demo" if op.doc is None else op.doc["task"]
    if report.get("task") != task:
        return f"report task {report.get('task')!r}"
    digits = _flag(op.flags, "--digits", 60)
    if task == "demo":
        return check_demo(report)
    if task == "eval":
        return check_eval(op.doc, digits, report)
    if task == "falsify":
        return check_falsify(op.doc, digits, _flag(op.flags, "--coeff-bound", 10**6), report)
    return check_certificate(task, op.doc, report["certificate"])


def judge(op, code, error: str | None, stdout: str) -> tuple[bool, str | None]:
    """(failed, problem) for one attempt.

    An operation named as failing today must fail in the named way; it is
    then counted as failed and is not a problem.  Any other outcome of it,
    and any failure of another operation, is a problem.
    """
    if error is None and code == 0:
        try:
            problem = check_output(op, stdout)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"output could not be checked: {type(exc).__name__}: {exc}"
    elif error is not None:
        problem = f"raised {error}"
    else:
        problem = f"exit {code}"
    known = op.known_failure
    if known is None:
        return problem is not None, problem
    kind, value, fault = known
    if kind == "exit" and code == value and error is None:
        return True, None
    if kind == "raises" and error == value:
        return True, None
    if kind == "check" and problem is not None and problem.startswith(value):
        return True, None
    if problem is None:
        return False, None  # the fault is mended: checked like any other operation
    return True, f"expected to fail by {kind} {value} ({fault}), got: {problem}"
