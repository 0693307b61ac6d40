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

One rule, `_truncation`, ends every proven sum.  Each series type gives
a majorant M of its terms at x that at least halves past a start
(`EFunction.majorant`, `HypergeometricParams.majorant`), so N is the
least index past the start with 2 M(N) < 10^-digits, and 2 M(N) is the
radius.  A float estimate of log10 M, bisected, gives where exact integer
comparisons begin, and those settle N, so no Fraction is built per index
and N, the sum and the radius are the rationals a term loop gives.

A function built by `ef_hypergeometric` is summed as its series
sum t_n y^n at y = x^k, against the terms |t_n y^n| themselves, not
against (C|x|)^n / n!: its C is at least every |a_m| up to an index, so
that majorant lies far above the terms t_{m/k} x^m it bounds.

The relation search embeds m values v in the lattice spanned by the rows
of identity | round(10^d v), with one big column for real values and two
(real and imaginary parts) otherwise, and reduces it exactly
(`lattice.lll_reduce`) on a ladder of precisions d_1 < ... < d_K = digits
(`_rungs`).  Rung j starts from the basis U (I | C_j), where C_j is the
rounded column at d_j and U the unimodular first m columns of rung j-1's
reduced basis; it spans exactly the lattice at d_j, and the digits enter a
few at a time (van Hoeij and Novocin, gradual sub-lattice reduction,
LATIN 2010).  After each rung, with B the coefficient bound:

- a reduced row c with |c_k| <= B whose residual |sum c_k v_k|, bounded
  in ball arithmetic, is at most 10^-digits is a found relation;
- a true relation sum c_k v_k = 0 with |c_k| <= B is a lattice vector
  whose big coordinates are at most slack_j = m B (1/2 + 10^d_j guard) in
  size (a rounding error plus a scaled radius per value, the radii below
  guard = 10^-(digits+10)), so its squared norm is at most worst_j =
  m B^2 + cols slack_j^2.  A floor min ||b_i*||^2 of the reduced basis
  above worst_j (compared as printed, rounded toward zero) excludes every
  such relation.  The bound holds at every rung, so no rung can exclude
  a true relation that the full-digit lattice would show.

The search stops at the first rung that finds or excludes and raises
only when the rung at full digits does neither.  It is empirical by
design: a found relation is certified only up to the stated residual
bound, and an exclusion is a statement about integer vectors below the
coefficient bound.  Neither outcome is ever a transcendence proof.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .balls import Ball
from .criterion import CERTIFIED, Certificate
from .efunction import EFunction, HypergeometricParams, _dot, ef_sin_integral, growth_check
from .errors import InputError, PrecisionExceededError, UnsupportedOperationError
from .lattice import lll_reduce
from .rationals import format_rational, sci_rounded, sci_upper

MAX_TERMS = 500_000
# where a float estimate of log10(2 M(n) 10^digits) is at least this, the
# rule fails, as the majorants' estimates are within 1e-4 up to MAX_TERMS + 1;
# an estimate that is too low only starts the exact comparisons earlier
_LOG_MARGIN = 1.0
# digits fed into the relation search's lattice per rung (`_rungs`)
_RUNG_STEP = 15


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


def _check_terms(terms: int):
    """The one cap on the length of a series sum."""
    if terms > MAX_TERMS + 1:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")


def _truncation(start: int, log_term, exact_term, digits: int) -> tuple[int, Fraction]:
    """The least N >= start with 2 M(N) < 10^-digits, and 2 M(N), for a
    majorant M of the terms that at least halves at each index past start,
    so the terms from N on add up to at most 2 M(N).  log_term(n) estimates
    log10 M(n) in floats; exact_term(n) is M(n) as (numerator, denominator).
    """
    # the least n in [start, MAX_TERMS + 1] whose estimate of
    # log10(2 M(n) 10^digits) is below the margin; MAX_TERMS + 2 when none is
    shift = math.log10(2) + digits
    n = start + bisect.bisect_left(range(start, MAX_TERMS + 2), True,
                                   key=lambda n: log_term(n) + shift < _LOG_MARGIN)
    target = 10**digits
    while True:
        _check_terms(n)
        num, den = exact_term(n)
        if 2 * num * target < den:
            return n, Fraction(2 * num, den)
        n += 1


def eval_efunction(f: EFunction, x, digits: int) -> Ball:
    """Ball around sum a_n x^n / n! with tail radius below 10^-digits.

    A function built by `ef_hypergeometric` is the value of its series
    sum t_n y^n at y = x^k (`eval_hypergeometric_value`), summed against
    its own terms, so N counts the terms t_n.  Otherwise, with a proven
    coefficient bound C the terms are majorized by (C|x|)^n / n!
    (`EFunction.majorant`), and the rule picks N and the rigorous radius
    before summing.  The sum of the N terms is one binary-splitting
    product over f's recurrence applied to its seeds, divided out once.
    Without a proven bound the truncation point is doubled until two
    successive partial sums agree to the target, and the ball is flagged
    heuristic.
    """
    if digits < 1:
        raise InputError("digits must be positive")
    q = _coerce_rational_point(x)
    if q == 0:
        return Ball(f.coefficient(0))
    params = f.hypergeometric
    if params is not None:
        return eval_hypergeometric_value(params, q**params.k, digits)
    if f.coeff_bound is None:
        return _eval_heuristic(f, q, digits)
    terms, radius = _truncation(*f.majorant(q), digits)
    sums = f.sums(q)
    sums.advance(terms)
    return Ball(sums.value(), Fraction(0), radius)


def _eval_heuristic(f: EFunction, q: Fraction, digits: int) -> Ball:
    """No proven coefficient bound: double the truncation until stable.

    Each doubling continues the same sum over [terms, 2 terms).  A doubling
    that moves the sum no less than the one before ends the search: the
    partial sums do not settle, as for a divergent series."""
    c_emp = max(2.0, growth_check(f).coeff_growth_estimate * 1.5)
    if not math.isfinite(c_emp):
        raise PrecisionExceededError("unbounded coefficient growth estimate")
    terms = max(32, int(Fraction(2 * c_emp) * abs(q)) + digits)
    _check_terms(terms)
    target = Fraction(1, 10**digits)
    sums = f.sums(q)
    sums.advance(terms)
    prev, moved = sums.value(), None
    while terms <= MAX_TERMS:
        terms *= 2
        sums.advance(terms)
        cur = sums.value()
        step = abs(cur - prev)
        if step * 2 < target:
            return Ball(cur, Fraction(0), target, heuristic_tail=True)
        if moved is not None and step >= moved:
            raise PrecisionExceededError("partial sums do not settle")
        prev, moved = cur, step
    raise PrecisionExceededError("heuristic evaluation did not stabilize")


def eval_hypergeometric_value(
    params: HypergeometricParams, x, digits: int
) -> Ball:
    """Ball around sum scale^n [prod (a)_n / prod (b)_n] x^n.

    The terms are majorized by their own absolute values, which at least
    halve past an explicit index n1 (`HypergeometricParams.majorant`); the
    rule stops at the least n >= n1 with 2|t_n x^n| < 10^-digits, reading
    each exact term off the binary-splitting sum over the integer form of
    the term ratio, which then holds t_0 + ... + t_{n-1}.
    """
    params.validate()
    q = _coerce_rational_point(x)
    if q == 0:
        return Ball(Fraction(1))
    sums = params.sums(q)
    terms, radius = _truncation(*params.majorant(q, sums), digits)
    sums.advance(terms)
    return Ball(sums.value(), Fraction(0), radius)


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
    lattice_digits: int | None = None
    contradiction: bool = False
    skipped: bool = False
    notices: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def find_integer_relation(
    values: list[Ball], coeff_bound: int, digits: int
) -> RelationReport:
    """Search for integers c with |sum c_k v_k| below the resolution.

    The lattice is identity | round(10^d v) for d on the ladder `_rungs`,
    each rung started from the unimodular part of the last rung's reduced
    basis.  After each rung, a reduced row c with |c_k| <= coeff_bound
    whose residual, bounded in ball arithmetic, is at most 10^-digits is
    reported as found, with that bound.  Otherwise the rung's Gram-Schmidt
    floor is compared against the largest squared norm a true relation can
    have in that lattice; if the printed floor is higher, no relation with
    coefficients up to coeff_bound exists within the values' accuracy, and
    the report says so (excluded), naming the rung in lattice_digits.  If
    no rung up to digits decides, the exclusion would be vacuous and a
    precision error is raised instead.
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
    parts = [[v.re for v in values]]
    if any(v.im != 0 for v in values):
        parts.append([v.im for v in values])
    full = [_scaled_column(part, 10**digits) for part in parts]
    heuristic = any(v.heuristic_tail for v in values)
    basis = [[int(i == k) for i in range(m)] for k in range(m)]
    for rung in _rungs(m, len(parts), coeff_bound, digits):
        scale = 10**rung
        columns = [_scaled_column(part, scale) for part in parts]
        reduced, min_norm_sq = lll_reduce(
            [u + [_dot(u, col) for col in columns] for u in basis]
        )
        basis = [row[:m] for row in reduced]
        found = _relation(values, reduced, m, coeff_bound, full, digits)
        if found is not None:
            coeffs, bound = found
            return RelationReport(
                found=True,
                coefficients=coeffs,
                residual_bound=sci_upper(bound),
                digits=digits,
                coeff_bound=coeff_bound,
            )
        if heuristic:
            continue
        # a true relation sum c_k v_k = 0 with |c_k| <= coeff_bound embeds
        # to a lattice vector whose big coordinates are each at most slack:
        # rounding plus scaled radii
        slack = m * coeff_bound * (Fraction(1, 2) + scale * guard)
        worst_sq = m * coeff_bound**2 + len(parts) * slack**2
        floor, printed = sci_rounded(min_norm_sq, away=False)
        if floor > worst_sq:
            return RelationReport(
                found=False,
                coefficients=None,
                residual_bound=None,
                digits=digits,
                coeff_bound=coeff_bound,
                excluded=True,
                min_lattice_norm=printed,
                lattice_digits=rung,
            )
    if heuristic:
        return RelationReport(
            found=False,
            coefficients=None,
            residual_bound=None,
            digits=digits,
            coeff_bound=coeff_bound,
            notices=["no exclusion: a value's radius rests on an unproven series tail"],
        )
    raise PrecisionExceededError(
        "cannot exclude relations at this precision/coefficient bound; "
        "raise digits or lower the bound"
    )


def _rungs(m: int, cols: int, coeff_bound: int, digits: int) -> list[int]:
    """The lattice precisions d_1 < ... < d_K = digits of the search.

    An m-row lattice with cols big columns at d digits has volume about
    10^(cols d), and the squared Gram-Schmidt norms of its reduced basis
    lie near the volume's (2/m)-th power, the last of them lower by about
    10^(m/30) (the slope of LLL along the basis; 10^0.9 at 31 rows).
    Exclusion needs them above about m B^2 (1 + cols m / 4), B =
    coeff_bound, which puts an estimate `need` on the digits it takes.
    The rungs are need + k _RUNG_STEP for whole k, from need or the least
    such one of at least _RUNG_STEP, whichever is lower, up to the last
    below digits; then digits itself.
    """
    worst = m * coeff_bound**2 * (4 + cols * m) // 4
    need = math.ceil(m * (math.log10(worst) + m / 30) / (2 * cols))
    start = min(need, need % _RUNG_STEP + _RUNG_STEP)
    return [*range(start, digits, _RUNG_STEP), digits]


def _relation(values, reduced, m, coeff_bound, full, digits):
    """The first reduced row, shortest first, whose coefficients are at most
    coeff_bound and whose residual is proven at most 10^-digits, with that
    bound; None if there is none."""
    tol = Fraction(1, 10**digits)
    for vec in sorted(reduced, key=lambda r: sum(x * x for x in r)):
        coeffs = vec[:m]
        if max(abs(c) for c in coeffs) > coeff_bound:
            continue
        # |sum c_k v_k| <= 10^-digits puts each full-digit coordinate
        # sum c_k round(10^digits v_k) within 1 + sum |c_k| / 2 of 0
        reach = sum(abs(c) for c in coeffs) + 2
        if any(2 * abs(_dot(coeffs, col)) > reach for col in full):
            continue
        resid = Ball(Fraction(0))
        for c, v in zip(coeffs, values):
            resid = resid + v.scaled(c)
        # L1 upper bound for |residual| over the ball
        bound = abs(resid.re) + abs(resid.im) + resid.rad
        if bound <= tol:
            return coeffs, bound
    return None


def _scaled_column(part: list[Fraction], scale: int) -> list[int]:
    """round(scale * x) for each x, ties up, without building a Fraction."""
    return [(2 * scale * x.numerator + x.denominator) // (2 * x.denominator) for x in part]


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
