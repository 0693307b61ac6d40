"""High-precision evaluation with certified tails and relation search.

Evaluation keeps everything in exact rational arithmetic: the partial sum
is exact and the only error is the series tail, which is bounded through
the proven coefficient bound |a_n| <= C^n.  Functions without a proven
bound fall back to a heuristic tail (doubling the truncation point until
two evaluations agree) and the resulting ball is flagged.

The relation search is empirical by design: a found relation is certified
only up to the stated residual bound, and a negative search is an
exclusion statement about integer vectors below the coefficient bound,
proven through the Gram-Schmidt floor of an exactly reduced lattice.
Neither outcome is ever a transcendence proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .balls import Ball
from .criterion import CERTIFIED, Certificate
from .efunction import EFunction, HypergeometricParams, ef_sin_integral, growth_check
from .errors import (
    InputError,
    PrecisionExceededError,
    UnsupportedOperationError,
)
from .lattice import lll_reduce
from .rationals import format_rational, sci_upper

MAX_TERMS = 500_000


def _coerce_rational_point(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    as_rational = getattr(x, "as_rational", None)
    if as_rational is not None:
        q = as_rational()
        if q is not None:
            return q
        raise UnsupportedOperationError(
            "evaluation needs a rational point; got an irrational algebraic number"
        )
    if isinstance(x, Ball):
        if x.rad == 0 and x.im == 0:
            return x.re
        raise UnsupportedOperationError("evaluation point must be exact and real")
    return Fraction(x)


def eval_efunction(f: EFunction, x, digits: int) -> Ball:
    """Ball around sum a_n x^n / n! with tail radius below 10^-digits.

    With a proven coefficient bound C the tail past N is at most
    2 (C|x|)^(N+1) / (N+1)!  once N + 1 >= 2 C |x|, and the returned
    radius is that rigorous bound.  Without one the truncation point is
    doubled until two successive partial sums agree to the target, and the
    ball is flagged heuristic.
    """
    if digits < 1:
        raise InputError("digits must be positive")
    q = _coerce_rational_point(x)
    if q == 0:
        return Ball(f.coefficient(0))
    if f.coeff_bound is None:
        return _eval_heuristic(f, q, digits)
    y = f.coeff_bound * abs(q)
    # the loop cannot stop before n + 2 > 2y, and n stops at MAX_TERMS
    if 2 * y >= MAX_TERMS + 2:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    target = Fraction(1, 10**digits)
    total = Fraction(0)
    xpow = Fraction(1)
    n = 0
    tail = Fraction(1)  # y^(n+1) / (n+1)!
    while True:
        total += f.series_coefficient(n) * xpow
        tail = tail * y / (n + 1)
        if n + 2 > 2 * y and 2 * tail < target:
            break
        n += 1
        if n > MAX_TERMS:
            raise PrecisionExceededError(
                f"series truncation beyond {MAX_TERMS} terms"
            )
        xpow *= q
    return Ball(total, Fraction(0), 2 * tail)


def _partial_sum(f: EFunction, q: Fraction, terms: int) -> Fraction:
    total = Fraction(0)
    xpow = Fraction(1)
    for n in range(terms):
        if n:
            xpow *= q
        total += f.series_coefficient(n) * xpow
    return total


def _eval_heuristic(f: EFunction, q: Fraction, digits: int) -> Ball:
    """No proven coefficient bound: double the truncation until stable."""
    report = growth_check(f)
    c_emp = max(2.0, report.coeff_growth_estimate * 1.5)
    terms = max(32, int(Fraction(2 * c_emp) * abs(q)) + digits)
    if terms > MAX_TERMS:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    target = Fraction(1, 10**digits)
    prev = _partial_sum(f, q, terms)
    while terms <= MAX_TERMS:
        terms *= 2
        cur = _partial_sum(f, q, terms)
        if abs(cur - prev) * 2 < target:
            return Ball(cur, Fraction(0), target, heuristic_tail=True)
        prev = cur
    raise PrecisionExceededError("heuristic evaluation did not stabilize")


def eval_hypergeometric_value(
    params: HypergeometricParams, x, digits: int
) -> Ball:
    """Ball around sum scale^n [prod (a)_n / prod (b)_n] x^n.

    Term ratio t_{n+1}/t_n = scale * x * prod(a_i+n) / prod(b_j+n) decays
    like n^(r-s); past an explicit index the ratio stays below 1/2, so the
    tail is bounded by twice the first omitted term.
    """
    params.validate()
    q = _coerce_rational_point(x)
    if q == 0:
        return Ball(Fraction(1))
    target = Fraction(1, 10**digits)
    s = len(params.lower)
    k = params.k
    # past n0 every |b_j + n| >= n/2 and |a_i + n| <= (1+|a_i|) n, making
    # |ratio| <= K / n^k with the constant below
    n0 = 1 + max((2 * _ceil_abs(b) for b in params.lower), default=0)
    kconst = abs(params.scale * q) * 2**s
    for a in params.upper:
        kconst *= 1 + _ceil_abs(a)
    n1 = n0
    while kconst > Fraction(n1**k, 2):
        n1 *= 2
    # the loop cannot stop before n >= n1, and n stops past MAX_TERMS
    if n1 > MAX_TERMS + 1:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    term = Fraction(1)
    total = Fraction(0)
    n = 0
    while True:
        total += term
        ratio = params.scale * q
        for a in params.upper:
            ratio *= a + n
        for b in params.lower:
            ratio /= b + n
        term = term * ratio
        n += 1
        if n >= n1 and 2 * abs(term) < target:
            break
        if n > MAX_TERMS:
            raise PrecisionExceededError(
                f"series truncation beyond {MAX_TERMS} terms"
            )
    return Ball(total, Fraction(0), 2 * abs(term))


def _ceil_abs(q: Fraction) -> int:
    a = abs(q)
    return -((-a.numerator) // a.denominator)


@dataclass
class RelationReport:
    """Outcome of an integer-relation search over a list of balls."""

    found: bool
    coefficients: list[int] | None
    residual_bound: str | None
    digits: int
    coeff_bound: int
    excluded: bool = False
    min_lattice_norm: str | None = None
    contradiction: bool = False
    skipped: bool = False
    notices: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "coefficients": self.coefficients,
            "residual_bound": self.residual_bound,
            "digits": self.digits,
            "coeff_bound": self.coeff_bound,
            "excluded": self.excluded,
            "min_lattice_norm": self.min_lattice_norm,
            "contradiction": self.contradiction,
            "skipped": self.skipped,
            "notices": list(self.notices),
        }


def find_integer_relation(
    values: list[Ball], coeff_bound: int, digits: int
) -> RelationReport:
    """Search for integers c with |sum c_k v_k| below the resolution.

    A found vector is reported together with a certified residual bound
    computed in ball arithmetic.  When nothing is found, the reduced
    lattice's Gram-Schmidt floor is compared against the largest norm a
    true relation could produce; if the floor is higher, no relation with
    coefficients up to coeff_bound exists within the values' accuracy, and
    the report says so (excluded).  If the floor is too low the exclusion
    would be vacuous and a precision error is raised instead.
    """
    if len(values) < 2:
        raise InputError("need at least two values")
    if coeff_bound < 1:
        raise InputError("coefficient bound must be positive")
    guard = Fraction(1, 10 ** (digits + 10))
    for idx, v in enumerate(values):
        if v.rad > guard:
            raise InputError(
                f"value {idx} radius exceeds the 10^-(digits+10) margin"
            )
    m = len(values)
    scale = 10**digits
    complex_mode = any(v.im != 0 for v in values)
    rows = []
    for kk, v in enumerate(values):
        row = [0] * m
        row[kk] = 1
        row.append(_round_frac(scale * v.re))
        if complex_mode:
            row.append(_round_frac(scale * v.im))
        rows.append(row)
    reduced, min_norm_sq = lll_reduce(rows)

    tol = Fraction(1, 10**digits)
    best = None
    for vec in sorted(reduced, key=lambda r: sum(x * x for x in r)):
        coeffs = vec[:m]
        if all(c == 0 for c in coeffs):
            continue
        if max(abs(c) for c in coeffs) > coeff_bound:
            continue
        resid = Ball(Fraction(0))
        for c, v in zip(coeffs, values):
            resid = resid + v.scaled(c)
        # L1 upper bound for |residual| over the ball
        bound = abs(resid.re) + abs(resid.im) + resid.rad
        if bound <= tol:
            best = (coeffs, bound)
            break
    if best is not None:
        coeffs, bound = best
        return RelationReport(
            found=True,
            coefficients=list(coeffs),
            residual_bound=sci_upper(bound),
            digits=digits,
            coeff_bound=coeff_bound,
        )

    if any(v.heuristic_tail for v in values):
        return RelationReport(
            found=False,
            coefficients=None,
            residual_bound=None,
            digits=digits,
            coeff_bound=coeff_bound,
            notices=["no exclusion: a value's radius rests on an unproven series tail"],
        )
    # exclusion argument: a true relation sum c_k v_k = 0 with
    # |c_k| <= coeff_bound embeds to a lattice vector whose extra
    # coordinates are bounded by rounding plus scaled radii
    slack = m * coeff_bound * (Fraction(1, 2) + scale * guard)
    worst_sq = m * coeff_bound**2 + (2 if complex_mode else 1) * slack**2
    if min_norm_sq > worst_sq:
        return RelationReport(
            found=False,
            coefficients=None,
            residual_bound=None,
            digits=digits,
            coeff_bound=coeff_bound,
            excluded=True,
            min_lattice_norm=sci_upper(min_norm_sq),
        )
    raise PrecisionExceededError(
        "cannot exclude relations at this precision/coefficient bound; "
        "raise digits or lower the bound"
    )


def _round_frac(q: Fraction) -> int:
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


def falsify(
    cert: Certificate, digits: int = 60, coeff_bound: int = 10**6
) -> RelationReport:
    """Empirically probe a certificate's value list for integer relations.

    Evaluates {1, values...} from the certificate's evaluation plan and
    searches for relations.  Items at irrational points (no rational
    scaling route) and items at 0 (value is a rational constant) are
    skipped with a notice.  A CertifiedIndependent certificate together
    with a found relation inside the certified scope is flagged as a
    contradiction; that event failing loudly is the falsifier's purpose.
    """
    if digits < 1:
        raise InputError("digits must be positive")
    notices: list[str] = []
    values = [Ball.point(1)]
    eval_digits = digits + 12
    for item in cert.eval_items:
        kind = item[0]
        try:
            if kind == "efunction":
                _, f, point = item
                q = point.as_rational()
                if q is None:
                    notices.append(
                        f"skipped {f.name} at an irrational point"
                    )
                    continue
                if q == 0:
                    notices.append(
                        f"skipped {f.name} at 0 (value is the rational "
                        f"constant {format_rational(f.coefficient(0))})"
                    )
                    continue
                values.append(eval_efunction(f, q, eval_digits))
            elif kind == "hyp_value":
                _, params, point = item
                q = point.as_rational()
                if q is None:
                    notices.append("skipped a series value at an irrational point")
                    continue
                if q == 0:
                    notices.append("skipped a series value at 0 (equals 1)")
                    continue
                values.append(eval_hypergeometric_value(params, q, eval_digits))
            elif kind == "si_integral":
                _, lo, hi = item
                qlo = lo.as_rational()
                qhi = hi.as_rational()
                if qlo is None or qhi is None:
                    notices.append("skipped an integral with irrational endpoints")
                    continue
                f = ef_sin_integral()
                values.append(
                    eval_efunction(f, qhi, eval_digits)
                    - eval_efunction(f, qlo, eval_digits)
                )
            else:
                notices.append(f"skipped unknown item kind {kind!r}")
        except UnsupportedOperationError as exc:
            notices.append(f"skipped: {exc}")
    if len(values) < 2:
        return RelationReport(
            found=False,
            coefficients=None,
            residual_bound=None,
            digits=digits,
            coeff_bound=coeff_bound,
            skipped=True,
            notices=notices + ["no evaluable items"],
        )

    report = find_integer_relation(values, coeff_bound, digits)
    report.notices = notices + report.notices
    if report.found and cert.verdict == CERTIFIED:
        coeffs = report.coefficients
        if cert.relation_scope == "affine":
            report.contradiction = True
        else:
            value_support = [c for c in coeffs[1:] if c != 0]
            if coeffs[0] == 0 or len(value_support) == 1:
                report.contradiction = True
            else:
                report.notices.append(
                    "relation involves the constant term and several values; "
                    "it does not touch the certified statement"
                )
    return report
