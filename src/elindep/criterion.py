"""Certificates of Q-bar linear independence for E-function values.

Every certifier in this module checks a sufficient condition.  The verdict
is therefore two-valued: CertifiedIndependent when the condition holds,
Inconclusive otherwise.  There is no "dependent" verdict; a failed check
means the criterion does not apply, not that a relation exists.

Certified conclusions about values {1, f_1(a_1), ..., f_n(a_n)} carry a
standing caveat: independence holds unless two of the listed numbers are
algebraic.  For the built-in functions (exp, J0, Si) the values at nonzero
algebraic points are classically transcendental, so the caveat is
discharged and the conclusion is unconditional.  For generic inputs the
caveat is exposed verbatim in the machine-readable ``conditional_on``
field rather than silently resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .algebraic import (
    DEFAULT_PRECISION,
    AlgebraicNumber,
    Precision,
    alg_div,
    alg_equals,
    alg_is_zero,
    alg_nth_root,
    alg_pow,
)
from .efunction import EFunction, HypergeometricParams
from .errors import InputError, InternalCheckError
from .rationals import format_rational
from .singularities import (
    SUPERSET,
    RootSet,
    _coerce_point,
    hypergeometric_singularities,
    ratio_condition,
    rootsets_disjoint,
    singularity_superset,
)

CERTIFIED = "CertifiedIndependent"
INCONCLUSIVE = "Inconclusive"

# Fixed conditional clause attached to every independence conclusion.
CAVEAT = "unless two of them are algebraic"

SATISFIED = "satisfied"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Hypothesis:
    """One checked condition with its outcome and supporting data."""

    description: str
    anchor: str
    outcome: str
    witness: dict

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "anchor": self.anchor,
            "outcome": self.outcome,
            "witness": self.witness,
        }


@dataclass
class Certificate:
    verdict: str
    statement: str
    hypotheses: list[Hypothesis]
    caveat: str
    caveat_discharged: bool
    conditional_on: list[str]
    inputs: dict
    notes: list[str] = field(default_factory=list)
    # Evaluation plan for the numeric falsifier: list of item descriptors,
    # each ("efunction", f, point) or ("hyp_value", params, point) or
    # ("si_integral", lo, hi).  Points are AlgebraicNumber.
    eval_items: list = field(default_factory=list, repr=False)
    # "affine": the constant 1 belongs to the certified list, so any integer
    # relation over {1, values} contradicts the certificate.
    # "linear": only the values themselves are certified independent (and
    # individually transcendental); a relation must either omit the constant
    # or pin a single value to a rational to count as a contradiction.
    relation_scope: str = "affine"

    def all_satisfied(self) -> bool:
        return all(h.outcome == SATISFIED for h in self.hypotheses)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "statement": self.statement,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "caveat": self.caveat,
            "caveat_discharged": self.caveat_discharged,
            "conditional_on": list(self.conditional_on),
            "inputs": self.inputs,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        return certificate_text(self.to_json())


def certificate_text(cert: dict) -> str:
    """The text report of a certificate, from its JSON form."""
    lines = [f"verdict: {cert['verdict']}", f"statement: {cert['statement']}"]
    if cert["conditional_on"]:
        lines.append("conditional on: " + "; ".join(cert["conditional_on"]))
    for h in cert["hypotheses"]:
        lines.append(f"  [{h['outcome']}] {h['anchor']}: {h['description']}")
    for note in cert["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _point_text(a: AlgebraicNumber) -> str:
    q = a.as_rational()
    if q is not None:
        return format_rational(q)
    re = a.box.re
    im = a.box.im
    coeffs = ",".join(str(c) for c in a.poly.int_coeffs())
    return f"root([{coeffs}]) near ({float(re):.6g},{float(im):.6g})"


def _rootset_text(rs: RootSet) -> str:
    coeffs = ",".join(str(c) for c in rs.poly.int_coeffs())
    return f"roots([{coeffs}]) ({rs.provenance})"


def _certificate(statement: str, inputs: dict, eval_items: list) -> Certificate:
    """An undecided certificate that carries the standing caveat."""
    return Certificate(
        verdict=INCONCLUSIVE,
        statement=statement,
        hypotheses=[],
        caveat=CAVEAT,
        caveat_discharged=False,
        conditional_on=[CAVEAT],
        inputs=inputs,
        eval_items=eval_items,
    )


def _check_nonzero(
    cert: Certificate, pts: list[AlgebraicNumber], ctx: Precision, shared: bool
) -> list[bool]:
    """Append a nonzero-point hypothesis per point, or one for a shared point."""
    nonzero = []
    for idx, p in enumerate(pts):
        ok = not alg_is_zero(p, ctx)
        nonzero.append(ok)
        if shared:
            description = "evaluation point is nonzero"
            witness = {"point": _point_text(p)}
        else:
            description = f"point {idx} is nonzero"
            witness = {"index": idx, "point": _point_text(p)}
        cert.hypotheses.append(
            Hypothesis(
                description=description,
                anchor="nonzero-point",
                outcome=SATISFIED if ok else FAILED,
                witness=witness,
            )
        )
    return nonzero


def _finish(cert: Certificate) -> Certificate:
    if cert.all_satisfied():
        cert.verdict = CERTIFIED
    else:
        cert.verdict = INCONCLUSIVE
    if cert.verdict != CERTIFIED:
        cert.conditional_on = []
        cert.caveat_discharged = False
    return cert


def _discharge(cert: Certificate, functions) -> None:
    """Resolve the algebraicity caveat when every value is transcendental.

    Called only once every hypothesis holds, so every point is proven
    nonzero.  The built-ins carry values_transcendental = True (classical
    results for exp, J0 and Si at nonzero algebraic points).  In that case
    no two of {1, f_1(a_1), ...} can be algebraic, since only the constant is.
    """
    if functions and all(f.values_transcendental for f in functions):
        cert.caveat_discharged = True
        cert.conditional_on = []
        cert.notes.append(
            "caveat discharged: each value is transcendental at nonzero "
            "algebraic points, so the constant 1 is the only algebraic "
            "number in the list"
        )


def _value_list_statement(labels: list[str]) -> str:
    inner = ", ".join(labels)
    return f"1, {inner} are linearly independent over the algebraic numbers"


def _certify(
    functions: list[EFunction], points: list, ctx: Precision
) -> Certificate:
    """Pipeline behind certify_main, certify_single and certify_multi.

    When all points are one number, a_i/a_j = 1 for every pair, so the
    ratio condition says the two singularity sets are disjoint: one gcd
    per pair decides it, and the certificate takes the one-point form.
    Otherwise each pair tests a_i/a_j against the ratio-set polynomial.
    Conditions are tested on supersets; a failure involving a superset
    may come from an apparent singularity and is reported as
    Inconclusive, never as a dependence.
    """
    pts = [_coerce_point(p) for p in points]
    shared = all(alg_equals(p, pts[0], ctx) for p in pts[1:])
    listed = pts[:1] if shared else pts
    cert = _certificate(
        _value_list_statement(
            [f"{f.name}({_point_text(p)})" for f, p in zip(functions, pts)]
        ),
        {
            "functions": [f.name for f in functions],
            "points": [_point_text(p) for p in listed],
        },
        [("efunction", f, p) for f, p in zip(functions, pts)],
    )
    nonzero = _check_nonzero(cert, listed, ctx, shared)
    if shared and not nonzero[0]:
        cert.notes.append("values at 0 are algebraic")
        return _finish(cert)

    by_function = {f: singularity_superset(f) for f in dict.fromkeys(functions)}
    sets = [by_function[f] for f in functions]
    superset_failure = False
    for i in range(len(functions)):
        for j in range(i + 1, len(functions)):
            witness = {"pair": [i, j]}
            if shared:
                anchor = "disjoint-singularity-sets"
                description = (
                    f"singularity sets of {functions[i].name} and "
                    f"{functions[j].name} are disjoint"
                )
            else:
                anchor = "ratio-condition"
                description = (
                    f"point ratio a_{i}/a_{j} avoids all singularity ratios"
                )
                witness["point_i"] = _point_text(pts[i])
                witness["point_j"] = _point_text(pts[j])
            witness["set_i"] = _rootset_text(sets[i])
            witness["set_j"] = _rootset_text(sets[j])
            if not shared and not (nonzero[i] and nonzero[j]):
                outcome = SKIPPED
                witness["reason"] = "zero point"
            else:
                if shared:
                    ok = rootsets_disjoint(sets[i], sets[j])
                else:
                    ok = ratio_condition(sets[i], sets[j], pts[i], pts[j], ctx)
                outcome = SATISFIED if ok else FAILED
                if not ok and SUPERSET in (sets[i].provenance, sets[j].provenance):
                    superset_failure = True
            cert.hypotheses.append(
                Hypothesis(
                    description=description,
                    anchor=anchor,
                    outcome=outcome,
                    witness=witness,
                )
            )
    if superset_failure:
        test, could = (
            ("disjointness", "be disjoint")
            if shared
            else ("ratio", "satisfy the condition")
        )
        cert.notes.append(
            f"a failed {test} test involves a superset that may contain "
            "apparent singularities; the genuine singularity sets could "
            f"still {could}"
        )
    if cert.all_satisfied():
        _discharge(cert, functions)
    return _finish(cert)


def certify_main(
    functions: list[EFunction],
    alpha,
    ctx: Precision = DEFAULT_PRECISION,
) -> Certificate:
    """Certify independence of {1, f_1(alpha), ..., f_n(alpha)}.

    The shared-point form of certify_multi: requires a nonzero evaluation
    point and pairwise disjoint singularity sets of the transformed
    functions.
    """
    if not functions:
        raise InputError("need at least one function")
    return _certify(functions, [_coerce_point(alpha)] * len(functions), ctx)


def certify_multi(
    functions: list[EFunction],
    points: list,
    ctx: Precision = DEFAULT_PRECISION,
) -> Certificate:
    """Certify independence of {1, f_1(a_1), ..., f_n(a_n)}.

    Requires nonzero points and, for every pair i != j, that a_i/a_j avoids
    every ratio of singularities drawn from the two (superset) singularity
    sets.  Each function may appear several times with different points.
    When all points are equal the certificate is the one certify_main gives.
    """
    if len(functions) != len(points):
        raise InputError(
            f"{len(functions)} functions but {len(points)} points"
        )
    if not functions:
        raise InputError("need at least one function/point pair")
    return _certify(functions, points, ctx)


def certify_single(
    f: EFunction,
    points: list,
    ctx: Precision = DEFAULT_PRECISION,
) -> Certificate:
    """Certify independence of {1, f(a_1), ..., f(a_n)} for one function."""
    if not points:
        raise InputError("need at least one point")
    return certify_multi([f] * len(points), points, ctx)


def _power_condition_value(
    k_i: int, k_j: int, scale_i: Fraction, scale_j: Fraction
) -> Fraction:
    """Forbidden value of a_i^{k_j} / a_j^{k_i} for a pair of power series.

    A singularity-ratio collision between the two transformed functions
    forces a_i^{k_j}/a_j^{k_i} = (k_j/k_i)^{k_i k_j} * scale_j^{k_i} /
    scale_i^{k_j}; avoiding that single rational value rules the collision
    out.  With unit scales this is (k_j/k_i)^{k_i k_j}.
    """
    base = Fraction(k_j, k_i) ** (k_i * k_j)
    return base * scale_j**k_i / scale_i**k_j


def certify_hypergeometric(
    params_list: list[HypergeometricParams],
    points: list,
    ctx: Precision = DEFAULT_PRECISION,
) -> Certificate:
    """Certify independence of {1, F_1(a_1), ..., F_n(a_n)}.

    F_i is the hypergeometric series sum_n [prod (a)_n / prod (b)_n]
    (scale^n) x^n with k_i = s_i - r_i > 0; its value at a_i equals the
    E-function F_i(z^{k_i}) evaluated at any k_i-th root of a_i.

    Pair test: when k_i = k_j the condition is exactly that the scaled
    points scale_i*a_i and scale_j*a_j differ; when k_i != k_j the pair
    passes if a_i^{k_j}/a_j^{k_i} misses one explicit rational value.  The
    unequal-power test is sufficient but not necessary (it can only miss
    when gcd(k_i, k_j) > 1).  Both tests are exact algebraic-number
    arithmetic (alg_div, alg_pow, alg_equals), which settles rational
    points by rational arithmetic on the same path.

    Self-check: for rational nonzero points the same pair is re-decided
    through the singularity-ratio route (k-th roots of the points against
    the explicit singularity sets).  A pass that route calls a collision,
    or any disagreement where the arithmetic test is exact (equal or
    coprime powers), raises InternalCheckError.
    """
    if len(params_list) != len(points):
        raise InputError(
            f"{len(params_list)} parameter sets but {len(points)} points"
        )
    if not params_list:
        raise InputError("need at least one parameter set")
    pts = [_coerce_point(p) for p in points]
    ks = [params.k for params in params_list]
    scales = [params.scale for params in params_list]
    sings = [hypergeometric_singularities(params) for params in params_list]
    param_texts = [
        "F[{};{}]@{}".format(
            ",".join(format_rational(a) for a in params.upper),
            ",".join(format_rational(b) for b in params.lower),
            format_rational(params.scale),
        )
        for params in params_list
    ]
    labels = [
        f"{txt}({_point_text(p)})" for txt, p in zip(param_texts, pts)
    ]
    cert = _certificate(
        _value_list_statement(labels),
        {
            "functions": param_texts,
            "powers": ks,
            "points": [_point_text(p) for p in pts],
        },
        [("hyp_value", params, p) for params, p in zip(params_list, pts)],
    )
    nonzero = _check_nonzero(cert, pts, ctx, shared=False)
    if not all(nonzero):
        cert.notes.append(
            "a zero point gives the value 1, which is already in the list; "
            "certify the remaining values separately"
        )

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not (nonzero[i] and nonzero[j]):
                cert.hypotheses.append(
                    Hypothesis(
                        description=f"pair ({i},{j}) separation",
                        anchor="power-ratio-condition",
                        outcome=SKIPPED,
                        witness={"pair": [i, j], "reason": "zero point"},
                    )
                )
                continue
            qi = pts[i].as_rational()
            qj = pts[j].as_rational()
            rational = qi is not None and qj is not None
            if ks[i] == ks[j]:
                # Equal powers: collision happens exactly when the scaled
                # points coincide, so distinctness is both necessary and
                # sufficient.
                quot = alg_div(pts[i], pts[j], ctx)
                target = scales[j] / scales[i]
                description = (
                    f"scaled points {i} and {j} are distinct (equal power {ks[i]})"
                )
                anchor = "equal-power-distinct-points"
                witness = {
                    "pair": [i, j],
                    "point_i": _point_text(pts[i]),
                    "point_j": _point_text(pts[j]),
                    "power": ks[i],
                }
            else:
                quot = alg_div(
                    alg_pow(pts[i], ks[j], ctx), alg_pow(pts[j], ks[i], ctx), ctx
                )
                target = _power_condition_value(ks[i], ks[j], scales[i], scales[j])
                description = (
                    f"a_{i}^{ks[j]}/a_{j}^{ks[i]} differs from the collision value"
                )
                anchor = "power-ratio-condition"
                witness = {
                    "pair": [i, j],
                    "powers": [ks[i], ks[j]],
                    "actual": (
                        format_rational(quot.as_rational()) if rational else "algebraic"
                    ),
                    "forbidden": format_rational(target),
                }
            pair_pass = not alg_equals(quot, AlgebraicNumber.from_rational(target), ctx)
            cert.hypotheses.append(
                Hypothesis(
                    description=description,
                    anchor=anchor,
                    outcome=SATISFIED if pair_pass else FAILED,
                    witness=witness,
                )
            )

            # Independent route through the singularity sets, used as a
            # consistency check wherever k-th roots stay constructible.
            if not rational:
                continue
            roots = alg_nth_root(qi, ks[i], ctx), alg_nth_root(qj, ks[j], ctx)
            ratio_ok = ratio_condition(sings[i], sings[j], *roots, ctx)
            if pair_pass and not ratio_ok:
                raise InternalCheckError(
                    f"pair ({i},{j}): arithmetic test passed but the "
                    "singularity-ratio route found a collision"
                )
            if ratio_ok != pair_pass and (ks[i] == ks[j] or gcd(ks[i], ks[j]) == 1):
                test = ("equal-power distinctness" if ks[i] == ks[j]
                        else "coprime-power condition")
                raise InternalCheckError(
                    f"pair ({i},{j}): {test} and the singularity-ratio "
                    "route disagree"
                )

    return _finish(cert)


def certify_si_integrals(
    pairs: list,
    ctx: Precision = DEFAULT_PRECISION,
) -> Certificate:
    """Certify the integrals of sin(t)/t over [a_i, b_i].

    Each integral equals Si(b_i) - Si(a_i).  When the 2n endpoint squares
    a_1^2, b_1^2, ..., a_n^2, b_n^2 are pairwise distinct, the integrals
    are transcendental and linearly independent over the algebraic numbers.
    Zero endpoints are allowed (Si(0) = 0).  The conclusion here is
    unconditional: Si takes transcendental values at every nonzero
    algebraic point, which settles the algebraicity caveat.
    """
    if not pairs:
        raise InputError("need at least one endpoint pair")
    coerced: list[tuple[AlgebraicNumber, AlgebraicNumber]] = []
    for pair in pairs:
        if len(pair) != 2:
            raise InputError("each entry must be a pair of endpoints")
        coerced.append((_coerce_point(pair[0]), _coerce_point(pair[1])))

    labels = []
    for lo, hi in coerced:
        labels.append(
            f"integral of sin(t)/t over [{_point_text(lo)}, {_point_text(hi)}]"
        )
    if len(labels) == 1:
        statement = (
            labels[0]
            + " is transcendental (and in particular nonzero and irrational)"
        )
    else:
        statement = (
            ", ".join(labels)
            + " are transcendental and linearly independent over the "
            "algebraic numbers"
        )

    cert = _certificate(
        statement,
        {"pairs": [[_point_text(lo), _point_text(hi)] for lo, hi in coerced]},
        [("si_integral", lo, hi) for lo, hi in coerced],
    )
    cert.relation_scope = "linear"
    cert.caveat_discharged = True
    cert.conditional_on = []

    squares: list[AlgebraicNumber] = []
    square_texts: list[str] = []
    for lo, hi in coerced:
        for endpoint in (lo, hi):
            squares.append(alg_pow(endpoint, 2, ctx))
            square_texts.append(_point_text(squares[-1]))

    collision = None
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            if alg_equals(squares[i], squares[j], ctx):
                collision = [i, j]
                break
        if collision:
            break
    cert.hypotheses.append(
        Hypothesis(
            description="the 2n endpoint squares are pairwise distinct",
            anchor="distinct-endpoint-squares",
            outcome=FAILED if collision else SATISFIED,
            witness={"squares": square_texts, "collision": collision},
        )
    )
    if collision:
        cert.notes.append(
            "endpoint squares "
            f"{square_texts[collision[0]]} and {square_texts[collision[1]]} "
            "coincide"
        )
    else:
        cert.notes.append(
            "conclusion is unconditional: values of the sine integral at "
            "nonzero algebraic points are transcendental"
        )
    return _finish(cert)
