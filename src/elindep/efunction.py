"""Entire series f = sum a_n z^n / n! presented by an annihilating operator.

An EFunction bundles a linear differential operator with polynomial
coefficients, enough initial series coefficients to pin the solution, and
growth metadata:

  * coeff_bound C: a proven bound |a_n| <= C^n for all n >= 1 (None when
    only heuristic growth information is available),
  * support_modulus m: a_n = 0 unless m divides n,
  * values_transcendental: f(x) is transcendental for every nonzero
    algebraic x (set only for functions where this is classical).

Coefficients are generated from the recurrence induced by the annihilator;
indices where the recurrence degenerates must be covered by the supplied
initial coefficients, and supplied coefficients are checked against every
recurrence row they determine.

Closure operations build their operator exactly, so it is proven to
annihilate the result: a rational scale rescales the operator, p f is
killed by L composed with division by p (denominators cleared), and a sum
takes the least common left multiple of both operators
(`diffop.op_lclm`), a left multiple of each.  No operator is guessed from
a coefficient prefix.  Derivatives and irrational scale factors are not
offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebraic import AlgebraicNumber, Precision, DEFAULT_PRECISION, isolate_roots
from .diffop import DiffOperator, op_compose, op_lclm, recurrence_from_ode
from .errors import InputError, UnsupportedOperationError
from .polynomials import Polynomial, squarefree_part


class EFunction:
    """Solution of an ODE with polynomial coefficients, given by series data.

    initial_coeffs are a_0, a_1, ... (at least as many as the operator
    order; more when the recurrence has degenerate indices).
    """

    def __init__(
        self,
        annihilator: DiffOperator,
        initial_coeffs: Sequence,
        name: str = "f",
        coeff_bound=None,
        support_modulus: int = 1,
        values_transcendental: bool = False,
        psi_singularity_poly: Polynomial | None = None,
    ):
        if annihilator.is_zero:
            raise InputError("annihilator must be nonzero")
        if annihilator.order < 1:
            raise InputError("annihilator must involve at least one derivative")
        self.annihilator = annihilator
        self.name = name
        self.coeff_bound = Fraction(coeff_bound) if coeff_bound is not None else None
        if self.coeff_bound is not None and self.coeff_bound < 1:
            self.coeff_bound = Fraction(1)
        self.support_modulus = support_modulus
        self.values_transcendental = values_transcendental
        self.psi_singularity_poly = psi_singularity_poly

        seeds = [Fraction(v) for v in initial_coeffs]
        if len(seeds) < annihilator.order:
            raise InputError(
                f"order {annihilator.order} operator needs at least "
                f"{annihilator.order} initial coefficients, got {len(seeds)}"
            )
        self.recurrence = recurrence_from_ode(annihilator)
        self._bands = self.recurrence.bands()
        self._jmax = self.recurrence.max_shift
        self._lead = self._bands[self._jmax]
        # ordinary series coefficients c_n = a_n / n!
        self._c: list[Fraction] = [
            a / math.factorial(n) for n, a in enumerate(seeds)
        ]
        # the stream below extends _c; the series sums start after the seeds
        self.seed_count = len(seeds)
        self._check_seed_consistency()

    # -- coefficient stream ---------------------------------------------------

    def _check_seed_consistency(self):
        """Every recurrence row fully determined by the seeds must vanish."""
        known = len(self._c)
        for t in range(0, known - self._jmax):
            total = Fraction(0)
            for j, p in self._bands.items():
                idx = t + j
                val = self._c[idx] if 0 <= idx < known else Fraction(0)
                if idx >= known:
                    break
                total += p(Fraction(t)) * val
            else:
                if total != 0:
                    raise InputError(
                        f"initial coefficients violate the recurrence at row {t}"
                    )

    def _extend_to(self, n: int):
        while len(self._c) <= n:
            m = len(self._c)
            t = m - self._jmax
            lead_val = self._lead(Fraction(t)) if t >= 0 else Fraction(0)
            if t < 0 or lead_val == 0:
                raise UnsupportedOperationError(
                    f"series coefficient {m} of {self.name} is not determined "
                    "by the recurrence; supply it as an initial coefficient"
                )
            total = Fraction(0)
            for j, p in self._bands.items():
                if j == self._jmax:
                    continue
                idx = t + j
                if 0 <= idx:
                    total += p(Fraction(t)) * self._c[idx]
            self._c.append(-total / lead_val)

    def coefficient(self, n: int) -> Fraction:
        """a_n, the n-th coefficient of the z^n/n! expansion."""
        if n < 0:
            return Fraction(0)
        self._extend_to(n)
        return self._c[n] * math.factorial(n)

    def series_coefficient(self, n: int) -> Fraction:
        """c_n = a_n / n!, the plain Taylor coefficient."""
        if n < 0:
            return Fraction(0)
        self._extend_to(n)
        return self._c[n]

    def coefficients(self, count: int) -> list[Fraction]:
        return [self.coefficient(n) for n in range(count)]

    @property
    def order(self) -> int:
        return self.annihilator.order

    def __repr__(self) -> str:
        return f"EFunction({self.name}, order={self.order})"


# -- builtin functions ---------------------------------------------------------


def ef_exp() -> EFunction:
    return EFunction(
        DiffOperator.from_poly_coeffs([-1, 1]),
        [1],
        name="exp",
        coeff_bound=1,
        values_transcendental=True,  # Lindemann-Weierstrass
        psi_singularity_poly=Polynomial((-1, 1)),
    )


def ef_bessel_j0() -> EFunction:
    op = DiffOperator.from_poly_coeffs(
        [Polynomial((0, 1)), Polynomial.one(), Polynomial((0, 1))]
    )
    return EFunction(
        op,
        [1, 0],
        name="J0",
        coeff_bound=1,
        support_modulus=2,
        values_transcendental=True,  # Siegel
        psi_singularity_poly=Polynomial((1, 0, 1)),
    )


def ef_sin_integral() -> EFunction:
    op = DiffOperator.from_poly_coeffs([0, [0, 1], 2, [0, 1]])
    return EFunction(
        op,
        [0, 1, 0],
        name="Si",
        coeff_bound=1,
        values_transcendental=True,
        psi_singularity_poly=Polynomial((1, 0, 1)),
    )


@dataclass(frozen=True)
class HypergeometricParams:
    """Series sum_n [prod (a_i)_n / prod (b_j)_n] (scale^n) z^(kn), k = s - r."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    scale: Fraction = Fraction(1)

    @property
    def k(self) -> int:
        return len(self.lower) - len(self.upper)

    def validate(self):
        if len(self.lower) <= len(self.upper):
            raise InputError("need more lower than upper parameters")
        for b in self.lower:
            if b.denominator == 1 and b <= 0:
                raise InputError(f"lower parameter {b} is a nonpositive integer")
        for a in self.upper:
            if a.denominator == 1 and a <= 0:
                raise InputError(
                    f"upper parameter {a} is a nonpositive integer (series terminates)"
                )
        if self.scale == 0:
            raise InputError("scale must be nonzero")


def _theta_poly_operator(roots: Sequence[Fraction], extra_theta: bool) -> DiffOperator:
    """prod (theta + root) as an operator, optionally times theta, theta = z D."""
    theta = DiffOperator.from_poly_coeffs([0, [0, 1]])
    acc = DiffOperator.from_poly_coeffs([1])
    for r in roots:
        factor = DiffOperator.from_poly_coeffs([r, [0, 1]])
        acc = op_compose(acc, factor)
    if extra_theta:
        acc = op_compose(theta, acc)
    return acc


def hypergeometric_annihilator(params: HypergeometricParams) -> DiffOperator:
    """Annihilator of the z-form series, built from the theta form:

        theta prod_j (theta + k(b_j - 1))
            - scale k^k z^k (theta + k) prod_i (theta + k a_i)
    """
    params.validate()
    k = params.k
    left = _theta_poly_operator([k * (b - 1) for b in params.lower], extra_theta=True)
    right = _theta_poly_operator(
        [Fraction(k)] + [k * a for a in params.upper], extra_theta=False
    )
    right = right.shift_z(k).scale(params.scale * Fraction(k) ** k)
    return (left - right).primitive_normalized()


def _hypergeometric_coeff_bound(params: HypergeometricParams, prefix) -> Fraction:
    """A proven C with |a_n| <= C^n for n >= 1.

    For n >= N* = ceil(2 max |b_j|) + 1 each |b_j + n| >= n/2 and
    |a_i + n| <= (1 + ceil|a_i|) n, and prod_{i=1..k}(kn + i) <= k^k (2n)^k,
    so the step ratio |a_{k(n+1)}/a_{kn}| is at most the constant
    T = |scale| prod_i(1 + ceil|a_i|) 2^(s+k) k^k. Taking C >= T and
    C >= |a_m| for every m <= k N* covers all indices.
    """
    k = params.k
    s = len(params.lower)
    nstar = 1 + max(
        (math.ceil(abs(b)) * 2 for b in params.lower), default=0
    )
    t_const = abs(params.scale) * (2 ** (s + k)) * Fraction(k) ** k
    for a in params.upper:
        t_const *= 1 + math.ceil(abs(a))
    bound = max(Fraction(1), t_const)
    for m in range(1, k * nstar + 1):
        bound = max(bound, abs(prefix(m)))
    return bound


def ef_hypergeometric(
    upper: Sequence, lower: Sequence, scale=Fraction(1), name: str | None = None
) -> EFunction:
    params = HypergeometricParams(
        tuple(Fraction(a) for a in upper),
        tuple(Fraction(b) for b in lower),
        Fraction(scale),
    )
    params.validate()
    k = params.k
    op = hypergeometric_annihilator(params)

    # c_{kn} = scale^n prod (a_i)_n / prod (b_j)_n, zero off multiples of k
    ratios: list[Fraction] = [Fraction(1)]

    def series_c(m: int) -> Fraction:
        if m % k != 0:
            return Fraction(0)
        n = m // k
        while len(ratios) <= n:
            j = len(ratios) - 1
            step = params.scale
            for a in params.upper:
                step *= a + j
            for b in params.lower:
                step /= b + j
            ratios.append(ratios[-1] * step)
        return ratios[n]

    def a_coeff(m: int) -> Fraction:
        return series_c(m) * math.factorial(m)

    # the recurrence's leading band t prod_j (t + k(b_j - 1)) leaves c_t free
    # at t = 0 and at every nonnegative integer k(1 - b_j): seed past them
    free = [k * (1 - b) for b in params.lower]
    last_free = max([0] + [int(t) for t in free if t.denominator == 1 and t >= 0])
    seeds = [a_coeff(m) for m in range(max(op.order, last_free + 1))]
    bound = _hypergeometric_coeff_bound(params, a_coeff)
    sing = Polynomial(
        (-1,) + (0,) * (k - 1) + (params.scale * Fraction(k) ** k,)
    ).primitive_int()
    if name is None:
        up = ",".join(str(a) for a in params.upper)
        lo = ",".join(str(b) for b in params.lower)
        name = f"F[{up};{lo}]"
        if params.scale != 1:
            name += f"@{params.scale}"
    return EFunction(
        op,
        seeds,
        name=name,
        coeff_bound=bound,
        support_modulus=k,
        psi_singularity_poly=sing,
    )


# -- closure operations --------------------------------------------------------


def _poly_coeff_list(op: DiffOperator) -> list[Polynomial]:
    return [op.coefficient(b) for b in range(op.order + 1)]


def _singular_seed_length(op: DiffOperator, ctx: Precision = DEFAULT_PRECISION) -> int:
    """Seeds must reach past every index the recurrence cannot produce.

    Those are the nonnegative integer roots t of the leading band.  Each
    root lies in one certified disc of radius below 1/2, so it is the
    integer nearest the disc's centre, and an exact test settles it.
    """
    rec = recurrence_from_ode(op)
    lead = rec.bands()[rec.max_shift]
    worst = -1
    if lead.degree > 0:
        for disc in isolate_roots(squarefree_part(lead), 2, ctx):
            t = round(disc.re)
            if t >= 0 and lead(Fraction(t)) == 0:
                worst = max(worst, t)
    return max(op.order, worst + rec.max_shift + 1)


def ef_scale(f: EFunction, factor, ctx: Precision = DEFAULT_PRECISION) -> EFunction:
    """g(z) = f(factor * z), factor a rational or a rational AlgebraicNumber.

    The factor rescales the annihilator directly.  An irrational factor
    raises UnsupportedOperationError: the coefficients would leave Q.
    """
    if isinstance(factor, AlgebraicNumber):
        factor = factor.as_rational(ctx)
        if factor is None:
            raise UnsupportedOperationError("irrational scale factors are not supported")
    lam = Fraction(factor)
    if lam == 0:
        raise InputError("scale factor must be nonzero")
    coeffs = _poly_coeff_list(f.annihilator)
    order = len(coeffs) - 1
    new = [coeffs[i].compose_scale(lam) * lam ** (order - i) for i in range(order + 1)]
    op = DiffOperator.from_poly_coeffs(new).primitive_normalized()
    seed_len = _singular_seed_length(op, ctx)
    seeds = [f.coefficient(m) * lam**m for m in range(seed_len)]
    bound = None
    if f.coeff_bound is not None:
        bound = f.coeff_bound * max(Fraction(1), abs(lam))
    return EFunction(
        op,
        seeds,
        name=f"{f.name}({lam}z)" if lam != 1 else f.name,
        coeff_bound=bound,
        support_modulus=f.support_modulus,
        values_transcendental=f.values_transcendental,
        psi_singularity_poly=None,
    )


def ef_mul_poly(f: EFunction, p: Polynomial) -> EFunction:
    """h = p(z) f(z)."""
    if p.is_zero:
        raise InputError("multiplier polynomial must be nonzero")
    coeffs = _poly_coeff_list(f.annihilator)
    order = len(coeffs) - 1
    # inverse-power numerators: (1/p)^(m) = u_m / p^(m+1)
    u = [Polynomial.one()]
    for m_i in range(order):
        u.append(u[-1].derivative() * p - u[-1] * p.derivative() * (m_i + 1))
    acc = [Polynomial.zero()] * (order + 1)
    for i in range(order + 1):
        if coeffs[i].is_zero:
            continue
        for j in range(i + 1):
            term = coeffs[i] * math.comb(i, j) * u[i - j] * p ** (order + j - i)
            acc[j] = acc[j] + term
    op = DiffOperator.from_poly_coeffs(acc).primitive_normalized()

    def new_coeff(n: int) -> Fraction:
        total = Fraction(0)
        for j in range(min(n, p.degree) + 1):
            c = p[j]
            if c != 0:
                total += c * Fraction(math.factorial(n), math.factorial(n - j)) * f.coefficient(n - j)
        return total

    seed_len = _singular_seed_length(op)
    seeds = [new_coeff(m) for m in range(seed_len)]
    bound = None
    if f.coeff_bound is not None:
        absum = sum(abs(c) for c in p.coeffs)
        bound = max(Fraction(1), absum) * (2 ** p.degree) * f.coeff_bound
    return EFunction(
        op,
        seeds,
        name=f"({f.name}*poly)",
        coeff_bound=bound,
        support_modulus=1,
    )


def ef_sum(f: EFunction, g: EFunction) -> EFunction:
    """f + g, annihilated by the least common left multiple of their
    operators, which right-divides by each and so kills both."""
    op = op_lclm(f.annihilator, g.annihilator)
    seeds = [f.coefficient(m) + g.coefficient(m) for m in range(_singular_seed_length(op))]
    bound = None
    if f.coeff_bound is not None and g.coeff_bound is not None:
        bound = 2 * max(f.coeff_bound, g.coeff_bound)
    return EFunction(
        op,
        seeds,
        name=f"({f.name}+{g.name})",
        coeff_bound=bound,
        support_modulus=max(1, math.gcd(f.support_modulus, g.support_modulus)),
    )


def ef_lagrange_combo(f: EFunction, points: Sequence) -> EFunction:
    """g(z) = sum_i L_i(z) f(z / alpha_i) with L_i the interpolation basis
    on the points, so g(alpha_i) = f(1) for every i.

    Useful for manufacturing functions whose values at the points satisfy an
    obvious linear relation while sharing the singular geometry of f.
    """
    alphas = [Fraction(a) for a in points]
    if len(alphas) < 1:
        raise InputError("need at least one point")
    if len(set(alphas)) != len(alphas):
        raise InputError("points must be distinct")
    if any(a == 0 for a in alphas):
        raise InputError("points must be nonzero")
    total: EFunction | None = None
    for i, a in enumerate(alphas):
        li = Polynomial.one()
        for j, b in enumerate(alphas):
            if j != i:
                li = li * Polynomial((-b, 1)) * Fraction(1, a - b)
        piece = ef_mul_poly(ef_scale(f, Fraction(1, a)), li)
        total = piece if total is None else ef_sum(total, piece)
    total.name = f"combo({f.name})"
    return total


# -- growth diagnostics --------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Numeric growth summary of the coefficient sequence."""

    coeff_growth_estimate: float
    looks_exponential: bool

    @property
    def plausible_e_function(self) -> bool:
        return self.looks_exponential


def _abs_root(a: Fraction, n: int) -> float:
    """|a|^(1/n) as a float, through logarithms once |a| passes the float
    range (math.inf when the root does too)."""
    try:
        return float(abs(a)) ** (1.0 / n)
    except OverflowError:
        log = (math.log(abs(a.numerator)) - math.log(a.denominator)) / n
        try:
            return math.exp(log)
        except OverflowError:
            return math.inf


def growth_check(f: EFunction, terms: int = 80) -> GrowthReport:
    """Estimate |a_n|^(1/n) from a prefix.

    Heuristic only: a convergent estimate suggests (never proves) that the
    series satisfies the E-function growth requirements.
    """
    terms = max(8, terms)
    coeffs = f.coefficients(terms)
    best = 0.0
    half = terms // 2
    head_max = 0.0
    tail_max = 0.0
    for n in range(1, terms):
        a = coeffs[n]
        if a != 0:
            root = _abs_root(a, n)
            best = max(best, root)
            if n >= half:
                tail_max = max(tail_max, root)
            else:
                head_max = max(head_max, root)
    # super-exponential growth shows up as the tail estimate still climbing
    # past anything seen in the first half
    looks_exponential = tail_max <= max(4.0, 1.25 * head_max) and best < float("inf")
    return GrowthReport(
        coeff_growth_estimate=best,
        looks_exponential=looks_exponential,
    )
