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
radius.  A float estimate of log10 M, searched from the start by doubling
steps and then bisected, gives where exact integer comparisons begin, and those settle N, so no Fraction is built per index
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
LATIN 2010).  The values climb the same ladder: `falsify` hands the search
series values that refine on demand (`_SeriesValue`, which continues its
running sums), and C_j is built from them summed to d_j + 12 digits, so a
series is summed only as far as the rung that decides.  A Ball is a value
that does not refine; so are values with a heuristic tail and values at 0,
summed once at digits + 12.  After each rung, with B the coefficient
bound:

- a reduced row c with |c_k| <= B whose residual |sum c_k v_k|, bounded
  in ball arithmetic on the values summed to digits + 12, is at most
  10^-digits is a found relation.  A row is first tested against the
  rung's values: at e = d_j + 11 digits, where every radius is below
  10^-e (a sine-integral difference adds two below 10^-(e+1)), such a
  residual puts 2 |sum c_k round(10^e v_k)| at most 2 10^max(0, e-digits)
  + 3 sum |c_k| + 2.  Only a row that passes makes the values be summed to
  full digits, so the row found and its bound are those of values summed
  in advance;
- a true relation sum c_k v_k = 0 with |c_k| <= B is a lattice vector
  whose big coordinates are at most slack = m B (1/2 + 10^d_j 10^-(d_j+10))
  in size (a rounding error plus a scaled radius per value: the rung's
  values are summed past 10^-(d_j+10), and a Ball's radius is at most
  guard = 10^-(digits+10)), so its squared norm is at most worst = m B^2
  + cols slack^2.  A floor min ||b_i*||^2 of the reduced basis above
  worst (compared as printed, rounded toward zero) excludes every such
  relation.  The bound holds at every rung, so no rung can exclude a true
  relation that the full-digit lattice would show.

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
from .efunction import (
    MAX_TERMS,
    EFunction,
    HypergeometricParams,
    _dot,
    ef_sin_integral,
    growth_check,
)
from .errors import InputError, PrecisionExceededError, UnsupportedOperationError
from .lattice import lll_reduce
from .rationals import format_rational, sci_rounded, sci_upper

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
    # log10(2 M(n) 10^digits) is below the margin; MAX_TERMS + 2 when none
    # is.  Steps doubling from start find a range that holds it, which is
    # then bisected: a sum continued from its last N finds the next one in
    # a few estimates.
    shift = math.log10(2) + digits

    def below(n: int) -> bool:
        return log_term(n) + shift < _LOG_MARGIN

    lo = hi = start
    while hi <= MAX_TERMS + 1 and not below(hi):
        lo, hi = hi + 1, 2 * hi - start + 1
    hi = min(hi, MAX_TERMS + 2)
    n = lo + bisect.bisect_left(range(lo, hi), True, key=below)
    target = 10**digits
    while True:
        _check_terms(n)
        num, den = exact_term(n)
        if 2 * num * target < den:
            return n, Fraction(2 * num, den)
        n += 1


class _SeriesValue:
    """The value of a series at a point that refines on demand.

    It keeps the running partial sums of the series (`sums`) and the
    majorant that stops them (`majorant`: start, log10 M, M).  Asked for d
    digits it continues the sums to the N `_truncation` picks for d,
    searching from the last N on: N grows with d, so that is the N and the
    ball a fresh sum to d digits gives, and the hypergeometric majorant,
    which reads its exact terms off the running sum, is never asked for an
    index behind it.  Fewer digits than the most asked for so far give the
    ball already summed.
    """

    def __init__(self, sums, majorant):
        self._sums = sums
        self._start, self._log_term, self._exact_term = majorant
        self._digits = 0
        self._ball = None

    def ball(self, digits: int) -> Ball:
        if digits > self._digits:
            terms, radius = _truncation(max(self._start, self._sums.m),
                                        self._log_term, self._exact_term, digits)
            self._sums.advance(terms)
            self._digits = digits
            self._ball = Ball(self._sums.value(), Fraction(0), radius)
        return self._ball


@dataclass(frozen=True)
class _Difference:
    """hi - lo for two values, each refined to the digits asked for: the
    radius is below twice theirs."""

    hi: object
    lo: object

    def ball(self, digits: int) -> Ball:
        return _ball(self.hi, digits) - _ball(self.lo, digits)


def _ball(value, digits: int) -> Ball:
    """A value's ball at `digits`; a Ball is a value that does not refine."""
    return value if isinstance(value, Ball) else value.ball(digits)


def _efunction_value(f: EFunction, q: Fraction, digits: int):
    """f(q) as a value that refines on demand.  Two kinds stay fixed and
    are summed once, at `digits`: f(0), and a function without a proven
    coefficient bound, whose tail is heuristic."""
    if q == 0:
        return Ball(f.coefficient(0))
    params = f.hypergeometric
    if params is not None:
        return _hypergeometric_value(params, q**params.k)
    if f.coeff_bound is None:
        return _eval_heuristic(f, q, digits)
    return _SeriesValue(f.sums(q), f.majorant(q))


def _hypergeometric_value(params: HypergeometricParams, q: Fraction):
    """sum t_n q^n as a value that refines on demand; 1 at q = 0."""
    if q == 0:
        return Ball(Fraction(1))
    sums = params.sums(q)
    return _SeriesValue(sums, params.majorant(q, sums))


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
    heuristic.  It is a one-shot use of the value `falsify` refines.
    """
    if digits < 1:
        raise InputError("digits must be positive")
    return _ball(_efunction_value(f, _coerce_rational_point(x), digits), digits)


def _eval_heuristic(f: EFunction, q: Fraction, digits: int) -> Ball:
    """No proven coefficient bound: double the truncation until stable.

    Each doubling continues the same sum over [terms, 2 terms).  A doubling
    that moves the sum no less than the one before ends the search: the
    partial sums do not settle, as for a divergent series.  The partial
    sums stay integer pairs (`_ClassSums.state`) and the moves |num| / |den|
    are compared by cross-multiplying, so only the sum returned becomes a
    Fraction."""
    c_emp = max(2.0, growth_check(f) * 1.5)
    if not math.isfinite(c_emp):
        raise PrecisionExceededError("unbounded coefficient growth estimate")
    terms = max(32, int(Fraction(2 * c_emp) * abs(q)) + digits)
    _check_terms(terms)
    target = 10**digits
    sums = f.sums(q)
    sums.advance(terms)
    prev, moved = sums.state(), None
    while terms <= MAX_TERMS:
        terms *= 2
        sums.advance(terms)
        cur = sums.state()
        step = abs(cur[0] * prev[1] - prev[0] * cur[1]), abs(cur[1] * prev[1])
        if 2 * step[0] * target < step[1]:
            return Ball(Fraction(*cur), Fraction(0), Fraction(1, target), heuristic_tail=True)
        if moved is not None and step[0] * moved[1] >= moved[0] * step[1]:
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
    return _ball(_hypergeometric_value(params, _coerce_rational_point(x)), digits)


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

    Each value is a Ball, or a series value that `falsify` refines on
    demand (a Ball is a value that does not refine); a Ball's radius must
    be at most 10^-(digits+10).  The lattice is identity | round(10^d v)
    for d on the ladder `_rungs`, with the series values summed to d + 12
    digits, each rung started from the unimodular part of the last rung's
    reduced basis.  After each rung, a reduced row c with |c_k| <=
    coeff_bound whose residual, bounded in ball arithmetic at d + 12
    digits and then, if it may still be small enough, at digits + 12, is
    at most 10^-digits is reported as found, with that bound.  Otherwise
    the rung's Gram-Schmidt floor is compared against the largest squared
    norm a true relation can have in that lattice; if the printed floor is
    higher, no relation with coefficients up to coeff_bound exists within
    the values' accuracy, and the report says so (excluded), naming the
    rung in lattice_digits.  If no rung up to digits decides, the
    exclusion would be vacuous and a precision error is raised instead.
    """
    if len(values) < 2:
        raise InputError("need at least two values")
    if coeff_bound < 1:
        raise InputError("coefficient bound must be positive")
    guard = Fraction(1, 10 ** (digits + 10))
    for idx, v in enumerate(values):
        if isinstance(v, Ball) and v.rad > guard:
            raise InputError(
                f"value {idx} radius exceeds the 10^-(digits+10) margin"
            )
    m = len(values)
    # series values at rational points are real, and their tails proven
    fixed = [v for v in values if isinstance(v, Ball)]
    cols = 2 if any(v.im != 0 for v in fixed) else 1
    heuristic = any(v.heuristic_tail for v in fixed)
    # a true relation sum c_k v_k = 0 with |c_k| <= coeff_bound embeds at
    # rung d to a lattice vector whose big coordinates are each at most
    # slack: rounding plus radii below 10^-(d+10) scaled by 10^d
    slack = m * coeff_bound * (Fraction(1, 2) + Fraction(1, 10**10))
    worst_sq = m * coeff_bound**2 + cols * slack**2
    basis = [[int(i == k) for i in range(m)] for k in range(m)]
    for rung in _rungs(m, cols, coeff_bound, digits):
        balls = [_ball(v, rung + 12) for v in values]
        columns = _columns(balls, cols, 10**rung)
        reduced, min_norm_sq = lll_reduce(
            [u + [_dot(u, col) for col in columns] for u in basis]
        )
        basis = [row[:m] for row in reduced]
        found = _relation(values, balls, rung + 11, reduced, m, coeff_bound, cols, digits)
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


def _relation(values, balls, e, reduced, m, coeff_bound, cols, digits):
    """The first reduced row, shortest first, whose coefficients are at most
    coeff_bound and whose residual is proven at most 10^-digits, with that
    bound; None if there is none.

    `balls` are the values with radii below 10^-e.  A row is first tested
    against their column at 10^e, and only a row that passes makes the
    values be summed to digits + 12 digits for the full-digit tests, so
    the row found and its bound are those of values summed in advance."""
    tol = Fraction(1, 10**digits)
    near = _columns(balls, cols, 10**e)
    spare = 2 * 10 ** max(0, e - digits) + 2
    full = None
    for vec in sorted(reduced, key=lambda r: sum(x * x for x in r)):
        coeffs = vec[:m]
        if max(abs(c) for c in coeffs) > coeff_bound:
            continue
        size = sum(abs(c) for c in coeffs)
        # a residual bound of at most 10^-digits over the full-digit balls
        # leaves room for their radii, so it puts each coordinate
        # sum c_k round(10^e v_k) within 10^(e - digits) + 3/2 sum |c_k| of
        # 0: the balls here have radii below 10^-e, plus rounding (a Ball
        # is the same at both precisions)
        if any(2 * abs(_dot(coeffs, col)) > spare + 3 * size for col in near):
            continue
        if full is None:
            full_balls = [_ball(v, digits + 12) for v in values]
            full = _columns(full_balls, cols, 10**digits)
        # and each full-digit coordinate sum c_k round(10^digits v_k)
        # within 1 + sum |c_k| / 2 of 0
        if any(2 * abs(_dot(coeffs, col)) > size + 2 for col in full):
            continue
        resid = Ball(Fraction(0))
        for c, v in zip(coeffs, full_balls):
            resid = resid + v.scaled(c)
        # L1 upper bound for |residual| over the ball
        bound = abs(resid.re) + abs(resid.im) + resid.rad
        if bound <= tol:
            return coeffs, bound
    return None


def _columns(balls: list[Ball], cols: int, scale: int) -> list[list[int]]:
    """round(scale * x), ties up and without building a Fraction, for the
    real parts x of the balls' midpoints, and for the imaginary parts too
    when cols is 2."""
    parts = [[b.re for b in balls], [b.im for b in balls]][:cols]
    return [[(2 * scale * x.numerator + x.denominator) // (2 * x.denominator) for x in part]
            for part in parts]


def _falsify_value(f: EFunction, q: Fraction, digits: int):
    """f(q) for the relation search, to be refined up to `digits`.  A
    coefficient that f's recurrence leaves free below the truncation for
    `digits` is reported here, as summing that far would report it, so
    that `falsify` skips the item; the truncation is only worked out when
    a free index lies past f's seeds (`EFunction.first_free_index`)."""
    value = _efunction_value(f, q, digits)
    if (isinstance(value, _SeriesValue) and f.hypergeometric is None
            and f.first_free_index is not None):
        f.check_determined(0, _truncation(*f.majorant(q), digits)[0])
    return value


def falsify(
    cert: Certificate, digits: int = 60, coeff_bound: int = 10**6
) -> RelationReport:
    """Empirically probe a certificate's value list for integer relations.

    Builds {1, values...} from the certificate's evaluation plan as
    series values that refine on demand and searches for relations among
    them: each is summed to the digits of the rung that decides, plus 12,
    and to digits + 12 only when a row may be a relation.  Items at
    irrational points (no rational scaling route), items at 0 (value is a
    rational constant) and items with a series coefficient their
    recurrence leaves free below the truncation for digits + 12 are
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
                values.append(_falsify_value(f, q, eval_digits))
            elif kind == "hyp_value":
                _, params, point = item
                q = point.as_rational()
                if q is None:
                    notices.append("skipped a series value at an irrational point")
                    continue
                if q == 0:
                    notices.append("skipped a series value at 0 (equals 1)")
                    continue
                values.append(_hypergeometric_value(params, q))
            elif kind == "si_integral":
                _, lo, hi = item
                qlo = lo.as_rational()
                qhi = hi.as_rational()
                if qlo is None or qhi is None:
                    notices.append("skipped an integral with irrational endpoints")
                    continue
                f = ef_sin_integral()
                values.append(_Difference(_falsify_value(f, qhi, eval_digits),
                                          _falsify_value(f, qlo, eval_digits)))
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
