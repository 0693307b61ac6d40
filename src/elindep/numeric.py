"""High-precision evaluation with certified tails and relation search.

Evaluation keeps everything exact.  A value is the exact partial sum of
its series up to a truncation N plus a tail bound: the proven coefficient
bound |a_n| <= C^n gives a rigorous one.  Functions without a proven bound
fall back to a heuristic tail (doubling the truncation point until two
partial sums agree) and the resulting ball is flagged.

Every partial sum is formed by binary splitting over the integer
recurrence its series carries (`efunction` module docstring), with row_d
multiplied by p^d q^(r-d) for the point x = p/q, divided out once.  An
EFunction's sum runs one product per residue class mod its stride g that
is not zero, the class rows scaled alike by x^g, and the classes share
that one division.

The truncation N is the least index that meets the series' stopping
rule, and no Fraction is built per index to find it: a float estimate of
log10 of the tail bound, whose error is far below the margin it keeps,
gives a start that the rule provably fails before, and exact integer
comparisons settle N from there (for an EFunction on 2 y^n / n! before
summing; for a hypergeometric value on the next term, read off the state
of the sum advanced to the start).  N, the terms and hence the exact
partial sum are the same rationals a term-by-term loop gives, and the
tail bound is the same rational, so every ball is unchanged.

The relation search is empirical by design: a found relation is certified
only up to the stated residual bound, and a negative search is an
exclusion statement about integer vectors below the coefficient bound,
proven through the Gram-Schmidt floor of an exactly reduced lattice.
Neither outcome is ever a transcendence proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .balls import Ball
from .criterion import CERTIFIED, Certificate
from .efunction import (
    EFunction,
    HypergeometricParams,
    _ClassSums,
    _horner,
    _RecurrenceSum,
    ef_sin_integral,
    growth_check,
)
from .errors import (
    InputError,
    PrecisionExceededError,
    UnsupportedOperationError,
)
from .lattice import lll_reduce
from .rationals import format_rational, sci_upper

MAX_TERMS = 500_000
# a float estimate of log10 of a tail, kept this far from the threshold,
# cannot be on the wrong side of it: its error stays below 1e-6 for any
# truncation up to MAX_TERMS and rationals of up to 4300 digits
_LOG_MARGIN = 1.0


def _coerce_rational_point(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    as_rational = getattr(x, "as_rational", None)
    if as_rational is not None:
        q = as_rational()
        if q is not None:
            return q
        raise UnsupportedOperationError(
            "evaluation needs a rational point; got an irrational algebraic number"
        )
    return Fraction(x)


def _scaled_rows(rows: list[list[int]], x: Fraction) -> list[list[int]]:
    """Recurrence rows of the terms u_n x^n from those of u_n, x = p/q:
    row_d times p^d q^(r-d)."""
    p, q = x.numerator, x.denominator
    r = len(rows) - 1
    factors = [p**d * q ** (r - d) for d in range(r + 1)]
    return [[c * f for c in row] for f, row in zip(factors, rows)]


def _efunction_sums(f: EFunction, x: Fraction) -> _ClassSums:
    """Partial sums of sum c_n x^n from f's seeds and recurrence: one sum
    per residue class mod f's stride g that is not zero, its rows scaled
    by x^g."""
    g = f.stride
    seeds = [f.series_coefficient(n) * x**n for n in range(f.seed_count)]
    xg = x**g
    return _ClassSums(f, [
        (c, _RecurrenceSum(seeds[c::g], _scaled_rows(rows, xg), offset, f.name))
        for c, rows, offset in f.residue_classes
    ])


def _efunction_truncation(y: Fraction, digits: int) -> tuple[int, Fraction]:
    """Terms N and tail radius 2 y^N / N! of a sum whose coefficients obey
    |c_n x^n| <= y^n / n!: the least N >= 1 with N + 1 > 2y and
    2 y^N / N! < 10^-digits.  Past the first condition each further term
    halves the bound, so the second is monotone there."""
    yn, yd = y.numerator, y.denominator
    lo = max(1, 2 * yn // yd)
    log_y = math.log10(yn) - math.log10(yd)

    def log_tail(n: int) -> float:  # log10(2 y^n / n! * 10^digits)
        return math.log10(2) + n * log_y - math.lgamma(n + 1) / math.log(10) + digits

    hi = MAX_TERMS + 1
    if log_tail(hi) >= _LOG_MARGIN:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    # least n in [lo, hi] with log_tail(n) < margin: the rule fails before it
    while lo < hi:
        mid = (lo + hi) // 2
        if log_tail(mid) < _LOG_MARGIN:
            hi = mid
        else:
            lo = mid + 1
    n = lo
    num, den = yn**n, yd**n * math.factorial(n)
    target = 10**digits
    while 2 * num * target >= den:
        n += 1
        if n > MAX_TERMS + 1:
            raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
        num *= yn
        den *= yd * n
    return n, Fraction(2 * num, den)


def eval_efunction(f: EFunction, x, digits: int) -> Ball:
    """Ball around sum a_n x^n / n! with tail radius below 10^-digits.

    With a proven coefficient bound C the tail past N terms is at most
    2 (C|x|)^N / N!  once N + 1 > 2 C |x|; N is the least such count
    that brings this below 10^-digits, found before summing (module
    docstring), and the returned radius is that rigorous bound.  The sum
    of the N terms is one binary-splitting product over f's recurrence
    applied to its seeds, divided out once.  Without a proven bound the
    truncation point is doubled until two successive partial sums agree
    to the target, and the ball is flagged heuristic.
    """
    if digits < 1:
        raise InputError("digits must be positive")
    q = _coerce_rational_point(x)
    if q == 0:
        return Ball(f.coefficient(0))
    if f.coeff_bound is None:
        return _eval_heuristic(f, q, digits)
    y = f.coeff_bound * abs(q)
    # the truncation cannot come before N + 1 > 2y, and stops past MAX_TERMS
    if 2 * y >= MAX_TERMS + 2:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    terms, radius = _efunction_truncation(y, digits)
    sums = _efunction_sums(f, q)
    sums.advance(terms)
    return Ball(sums.value(), Fraction(0), radius)


def _eval_heuristic(f: EFunction, q: Fraction, digits: int) -> Ball:
    """No proven coefficient bound: double the truncation until stable.

    Each doubling continues the same sum over [terms, 2 terms)."""
    report = growth_check(f)
    c_emp = max(2.0, report.coeff_growth_estimate * 1.5)
    if not math.isfinite(c_emp):
        raise PrecisionExceededError("unbounded coefficient growth estimate")
    terms = max(32, int(Fraction(2 * c_emp) * abs(q)) + digits)
    if terms > MAX_TERMS:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    target = Fraction(1, 10**digits)
    sums = _efunction_sums(f, q)
    sums.advance(terms)
    prev = sums.value()
    while terms <= MAX_TERMS:
        terms *= 2
        sums.advance(terms)
        cur = sums.value()
        if abs(cur - prev) * 2 < target:
            return Ball(cur, Fraction(0), target, heuristic_tail=True)
        prev = cur
    raise PrecisionExceededError("heuristic evaluation did not stabilize")


def eval_hypergeometric_value(
    params: HypergeometricParams, x, digits: int
) -> Ball:
    """Ball around sum scale^n [prod (a)_n / prod (b)_n] x^n.

    Term ratio t_{n+1}/t_n = scale * x * prod(a_i+n) / prod(b_j+n) decays
    like n^(r-s); past an explicit index n1 the ratio stays below 1/2, so
    the tail is bounded by twice the first omitted term.  The sum stops at
    the least n >= n1 with 2|t_n| < 10^-digits; the terms t_0..t_{n-1}
    are summed by binary splitting over the integer form of the ratio, and
    n is found from a running float estimate of log|t_n| and settled by
    exact comparisons on the state of that sum.
    """
    params.validate()
    q = _coerce_rational_point(x)
    if q == 0:
        return Ball(Fraction(1))
    k = params.k
    # past n1 the ratio, at most K0 |x| / n^k past N*, stays below 1/2
    n1, const = params.ratio_bound()
    kconst = const * abs(q)
    while kconst > Fraction(n1**k, 2):
        n1 *= 2
    # the sum cannot stop before n >= n1, and n stops past MAX_TERMS
    if n1 > MAX_TERMS + 1:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    # t_{n+1} x / t_n = num(n) / den(n) with integer polynomials in n
    den, num = _scaled_rows(params.ratio_rows, q)
    # the least n >= n1 whose estimate of log10(2 |t_n| 10^digits) is below
    # the margin: the rule fails before it, and the exact check starts there
    n = 0
    log_term = math.log10(2) + digits
    while n < n1 or log_term >= _LOG_MARGIN:
        if n > MAX_TERMS:
            raise PrecisionExceededError(
                f"series truncation beyond {MAX_TERMS} terms"
            )
        log_term += math.log10(abs(_horner(num, n))) - math.log10(abs(_horner(den, n)))
        n += 1
    sums = _RecurrenceSum([Fraction(1)], [den, num], 1, "the series")
    sums.advance(n)
    target = 10**digits
    while True:
        tn, td = sums.next_term()
        if 2 * abs(tn) * target < abs(td):
            break
        n += 1
        if n > MAX_TERMS + 1:
            raise PrecisionExceededError(
                f"series truncation beyond {MAX_TERMS} terms"
            )
        sums.advance(n)
    return Ball(sums.value(), Fraction(0), Fraction(2 * abs(tn), abs(td)))


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
    skipped with a notice.  An unconditional CertifiedIndependent
    certificate together with a found relation inside the certified scope
    is flagged as a contradiction; that event failing loudly is the
    falsifier's purpose.  A certificate that is conditional on a caveat only
    gets a notice: the relation may show that the caveat fails.
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
        if cert.conditional_on:
            # the relation may be what breaks the condition, not the proof
            report.notices.append(
                "relation found; the certificate is conditional on: "
                + "; ".join(cert.conditional_on)
            )
        elif cert.relation_scope == "affine":
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
