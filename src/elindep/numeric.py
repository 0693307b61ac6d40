"""High-precision evaluation with certified tails and relation search.

Evaluation keeps everything exact.  A value is the exact partial sum of
its series up to a truncation N plus a tail bound: the proven coefficient
bound |a_n| <= C^n gives a rigorous one.  Functions without a proven bound
fall back to a heuristic tail (doubling the truncation point until two
partial sums agree) and the resulting ball is flagged.

Every partial sum is formed by binary splitting over the series'
recurrence (Chudnovsky & Chudnovsky 1988; van der Hoeven, "Fast
evaluation of holonomic functions", TCS 210, 1999).  Past its first
terms, the sequence of terms u_n of the sum obeys

    den(t) u_m = row_1(t) u_{m-1} + ... + row_r(t) u_{m-r},   t = m - offset,

with integer polynomials den and row_d.  For an EFunction at x = p/q,
u_n = c_n x^n where c_n are the Taylor coefficients; its annihilator's
recurrence sum_j P_j(t) c_{t+j} = 0, with the band denominators cleared
once, gives den = P_jmax q^r and row_d = -P_{jmax-d} p^d q^(r-d) with
r = jmax - jmin.  A hypergeometric value has r = 1, with its term ratio
as row_1 / den.  The state at index m is the vector
(u_{m-r}, ..., u_{m-1}, S_m), S_m = u_0 + ... + u_{m-1}; one step maps it
to the state at m + 1 by an integer matrix (the shift rows, the new term,
and the running sum S_{m+1} = S_m + u_m) over the scalar denominator
den(t).  The product of the steps over [lo, hi) is formed by recursive
halving, so integers grow in balanced products, not one term at a time,
and the state is kept as integers over one common denominator.  The only
gcd is taken when the final partial sum becomes a Fraction; a term-by-term
sum takes one on numbers of the same size at every term.

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
import operator
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
from .polynomials import Polynomial
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


def _horner(coeffs: list[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class _RecurrenceSum:
    """Exact partial sums S_m = u_0 + ... + u_{m-1} of a recurrent sequence.

    The first terms are given (`seeds`, Fractions); past them

        den(t) u_m = row_1(t) u_{m-1} + ... + row_r(t) u_{m-r},
        t = m - offset,

    with `rows` = [den, row_1, ..., row_r] integer coefficient lists
    (ascending).  The state at index m is (u_{m-r}, ..., u_{m-1}, S_m)
    held as integers over one common denominator, terms before index 0
    being 0.  advance() moves it on by one binary-splitting product, so
    successive calls continue the sum and never restart it.
    """

    def __init__(self, seeds: list[Fraction], rows: list[list[int]],
                 offset: int, name: str):
        self._seeds = seeds
        self._rows = rows
        self._offset = offset
        self._name = name
        self.m = 0
        self._v = [0] * (len(rows) - 1)
        self._s = 0
        self._den = 1

    def advance(self, hi: int):
        """Move the state to index hi (no-op when hi <= m)."""
        while self.m < min(hi, len(self._seeds)):
            self._push(self._seeds[self.m])
        if self.m >= hi:
            return
        a, b, q = self._product(self.m, hi)
        v = self._v
        self._v = [_dot(row, v) for row in a]
        self._s = _dot(b, v) + q * self._s
        self._den *= q
        self.m = hi

    def value(self) -> Fraction:
        """S_m: the one division of the sum."""
        return Fraction(self._s, self._den)

    def next_term(self) -> tuple[int, int]:
        """u_m as (numerator, denominator), m at least the seed count."""
        _, last, q = self._leaf(self.m)
        return _dot(last, self._v), q * self._den

    def _push(self, u: Fraction):
        den = math.lcm(self._den, u.denominator)
        k = den // self._den
        w = u.numerator * (den // u.denominator)
        self._v = ([x * k for x in self._v] + [w])[1:]
        self._s = self._s * k + w
        self._den = den
        self.m += 1

    def _leaf(self, m: int):
        """Step matrix of index m as (A, b, q): the state (u, S) maps to
        (A u, b.u + q S) / q."""
        t = m - self._offset
        q = _horner(self._rows[0], t) if t >= 0 else 0
        if q == 0:
            raise UnsupportedOperationError(
                f"series coefficient {m} of {self._name} is not determined "
                "by the recurrence; supply it as an initial coefficient"
            )
        r = len(self._rows) - 1
        # column i of the state holds u_{m-r+i}, so row_d sits in column r-d
        last = [_horner(row, t) for row in reversed(self._rows[1:])]
        shift = [[q if j == i + 1 else 0 for j in range(r)] for i in range(r - 1)]
        return (shift + [last] if r else []), last, q

    def _product(self, lo: int, hi: int):
        """The steps of [lo, hi) in one (A, b, q), by recursive halving."""
        if hi - lo == 1:
            return self._leaf(lo)
        mid = (lo + hi) // 2
        a1, b1, q1 = self._product(lo, mid)
        a2, b2, q2 = self._product(mid, hi)
        cols = list(zip(*a1))
        a = [[_dot(row, col) for col in cols] for row in a2]
        b = [_dot(b2, col) + q2 * y for col, y in zip(cols, b1)]
        return a, b, q2 * q1


def _dot(xs, ys) -> int:
    return sum(map(operator.mul, xs, ys))


def _efunction_sums(f: EFunction, x: Fraction) -> _RecurrenceSum:
    """Partial sums of sum c_n x^n from f's seeds and recurrence."""
    bands = f.recurrence.bands()
    jmax = f.recurrence.max_shift
    r = jmax - f.recurrence.min_shift
    scale = math.lcm(*(c.denominator for band in bands.values() for c in band.coeffs))
    p, q = x.numerator, x.denominator

    def row(j: int, factor: int) -> list[int]:
        band = bands.get(j)
        if band is None:
            return []
        return [c.numerator * (scale // c.denominator) * factor for c in band.coeffs]

    rows = [row(jmax, q**r)] + [
        row(jmax - d, -(p**d) * q ** (r - d)) for d in range(1, r + 1)
    ]
    seeds = [f.series_coefficient(n) * x**n for n in range(f.seed_count)]
    return _RecurrenceSum(seeds, rows, jmax, f.name)


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
    # the sum cannot stop before n >= n1, and n stops past MAX_TERMS
    if n1 > MAX_TERMS + 1:
        raise PrecisionExceededError(f"series truncation beyond {MAX_TERMS} terms")
    # t_{n+1} / t_n = num(n) / den(n) with integer polynomials in n
    ratio = params.scale * q
    num, den = Polynomial((ratio.numerator,)), Polynomial((ratio.denominator,))
    for a in params.upper:
        num, den = num * Polynomial((a.numerator, a.denominator)), den * a.denominator
    for b in params.lower:
        num, den = num * b.denominator, den * Polynomial((b.numerator, b.denominator))
    num, den = ([c.numerator for c in p.coeffs] for p in (num, den))
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
