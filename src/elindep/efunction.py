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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebraic import AlgebraicNumber, Precision, DEFAULT_PRECISION, alg_pow
from .diffop import DiffOperator, Recurrence, op_compose, recurrence_from_ode
from .errors import InputError, InternalCheckError, UnsupportedOperationError
from .polynomials import Polynomial


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

    order = op.order
    # degenerate recurrence indices must be seeded explicitly
    seed_len = max(order, k * (len(params.lower) + 2))
    seeds = [a_coeff(m) for m in range(seed_len)]
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
    f = EFunction(
        op,
        seeds,
        name=name,
        coeff_bound=bound,
        support_modulus=k,
        psi_singularity_poly=sing,
    )
    f.hypergeometric_params = params
    return f


# -- closure operations --------------------------------------------------------


def _poly_coeff_list(op: DiffOperator) -> list[Polynomial]:
    return [op.coefficient(b) for b in range(op.order + 1)]


def _singular_seed_length(op: DiffOperator) -> int:
    """Seeds must reach past every index the recurrence cannot produce."""
    rec = recurrence_from_ode(op)
    lead = rec.bands()[rec.max_shift]
    # nonnegative integer roots of the leading band, via the Cauchy bound
    bound = 1
    lc = abs(lead.lc)
    for c in lead.coeffs:
        bound = max(bound, 1 + math.ceil(abs(c) / lc))
    worst = -1
    for t in range(0, bound + 1):
        if lead(Fraction(t)) == 0:
            worst = t
    return max(op.order, worst + rec.max_shift + 1)


def ef_scale(f: EFunction, factor, ctx: Precision = DEFAULT_PRECISION) -> EFunction:
    """g(z) = f(factor * z), factor a rational or an AlgebraicNumber.

    A rational factor rescales the annihilator directly. An irrational
    factor is supported only when the coefficients of f live on multiples
    of m = support_modulus > 1 and factor^m is rational: every surviving
    coefficient then picks up a rational power of factor^m and an
    annihilator is recovered from the new (rational) coefficient stream.
    """
    if isinstance(factor, AlgebraicNumber):
        as_q = factor.as_rational(ctx)
        if as_q is not None:
            factor = as_q
        else:
            return _ef_scale_irrational(f, factor, ctx)
    lam = Fraction(factor)
    if lam == 0:
        raise InputError("scale factor must be nonzero")
    coeffs = _poly_coeff_list(f.annihilator)
    order = len(coeffs) - 1
    new = [coeffs[i].compose_scale(lam) * lam ** (order - i) for i in range(order + 1)]
    op = DiffOperator.from_poly_coeffs(new).primitive_normalized()
    seed_len = _singular_seed_length(op)
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


def _ef_scale_irrational(f: EFunction, factor: AlgebraicNumber, ctx: Precision) -> EFunction:
    m = f.support_modulus
    if m < 2:
        raise UnsupportedOperationError(
            "irrational scale factors need coefficients supported on a modulus"
        )
    q = alg_pow(factor, m, ctx).as_rational(ctx)
    if q is None:
        raise UnsupportedOperationError(
            f"scale factor^{m} is not rational; cannot keep coefficients rational"
        )
    if q == 0:
        raise InputError("scale factor must be nonzero")

    def new_coeff(n: int) -> Fraction:
        if n % m != 0:
            a = f.coefficient(n)
            if a != 0:
                raise InternalCheckError(
                    f"{f.name} has a coefficient off its support modulus"
                )
            return Fraction(0)
        return f.coefficient(n) * q ** (n // m)

    bound = None
    if f.coeff_bound is not None:
        bound = f.coeff_bound * max(Fraction(1), abs(q))
    return _from_stream(
        new_coeff,
        order_hint=f.order,
        degree_hint=2 * max(p.degree for p in _poly_coeff_list(f.annihilator)) + f.order,
        name=f"{f.name}(({q})^(1/{m})z)",
        coeff_bound=bound,
        support_modulus=m,
        values_transcendental=f.values_transcendental,
    )


def ef_derivative(f: EFunction) -> EFunction:
    coeffs = _poly_coeff_list(f.annihilator)
    p0 = coeffs[0]
    if p0.is_zero:
        new = coeffs[1:]
        op = DiffOperator.from_poly_coeffs(new).primitive_normalized()
    else:
        order = len(coeffs) - 1
        dp0 = p0.derivative()
        acc = [Polynomial.zero()] * (order + 1)
        # p0^2 h  +  sum_{i>=1} (p0 p_i' - p0' p_i) h^(i-1)  +  p0 p_i h^(i)
        acc[0] = acc[0] + p0 * p0
        for i in range(1, order + 1):
            pi = coeffs[i]
            if pi.is_zero:
                continue
            acc[i - 1] = acc[i - 1] + p0 * pi.derivative() - dp0 * pi
            acc[i] = acc[i] + p0 * pi
        op = DiffOperator.from_poly_coeffs(acc).primitive_normalized()
    seed_len = _singular_seed_length(op)
    seeds = [f.coefficient(m + 1) for m in range(seed_len)]
    bound = None
    if f.coeff_bound is not None:
        bound = f.coeff_bound * f.coeff_bound
    return EFunction(
        op,
        seeds,
        name=f"{f.name}'",
        coeff_bound=bound,
        support_modulus=1,
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
    """f + g, with an annihilator recovered by an exact ansatz."""

    def coeff(n: int) -> Fraction:
        return f.coefficient(n) + g.coefficient(n)

    bound = None
    if f.coeff_bound is not None and g.coeff_bound is not None:
        bound = 2 * max(f.coeff_bound, g.coeff_bound)
    mod = math.gcd(f.support_modulus, g.support_modulus)
    fdeg = max(p.degree for p in _poly_coeff_list(f.annihilator))
    gdeg = max(p.degree for p in _poly_coeff_list(g.annihilator))
    return _from_stream(
        coeff,
        order_hint=f.order + g.order,
        degree_hint=fdeg + gdeg + f.order + g.order,
        name=f"({f.name}+{g.name})",
        coeff_bound=bound,
        support_modulus=max(1, mod),
        values_transcendental=False,
    )


def _from_stream(
    coeff,
    order_hint: int,
    degree_hint: int,
    name: str,
    coeff_bound,
    support_modulus: int = 1,
    values_transcendental: bool = False,
    max_degree: int | None = None,
) -> EFunction:
    """Recover an annihilator for the series sum coeff(n) z^n / n!.

    Solves for an operator of order <= order_hint with polynomial degree
    escalating from degree_hint, by exact elimination on series rows, then
    validates the candidate on 80 fresh rows.
    """
    order = max(1, order_hint)
    cap = degree_hint + 40 if max_degree is None else max_degree
    cache: list[Fraction] = []

    def c_series(t: int) -> Fraction:
        while len(cache) <= t:
            n = len(cache)
            cache.append(coeff(n) / math.factorial(n))
        return cache[t]

    degree = max(0, degree_hint)
    while degree <= cap:
        op = None
        for extra_rows in (25, 105):
            op = _solve_annihilator_ansatz(c_series, order, degree, extra_rows)
            if op is not None:
                break
        if op is not None:
            seed_len = _singular_seed_length(op)
            seeds = [coeff(m) for m in range(seed_len)]
            return EFunction(
                op,
                seeds,
                name=name,
                coeff_bound=coeff_bound,
                support_modulus=support_modulus,
                values_transcendental=values_transcendental,
            )
        degree += max(2, (degree_hint + 2) // 2)
    raise UnsupportedOperationError(
        f"could not recover an annihilator for {name} "
        f"(order <= {order}, degree <= {cap})"
    )


def _solve_annihilator_ansatz(
    c_series, order: int, degree: int, extra_rows: int = 25
) -> DiffOperator | None:
    """One ansatz attempt: unknowns q_{a,b}, rows are series coefficients of
    the image; returns a validated operator or None."""
    unknowns = [(a, b) for b in range(order + 1) for a in range(degree + 1)]
    nuk = len(unknowns)
    rows = nuk + extra_rows
    matrix: list[list[Fraction]] = []
    for s in range(rows):
        row = []
        for a, b in unknowns:
            # z^a D^b sends z^t to ff(t,b) z^(t-b+a); contribution to z^s
            t = s - a + b
            if t < b:
                row.append(Fraction(0))
                continue
            ff = 1
            for q in range(b):
                ff *= t - q
            row.append(Fraction(ff) * c_series(t))
        matrix.append(row)
    kernel = _kernel_vector(matrix, nuk)
    if kernel is None:
        return None
    terms: dict[int, list[Fraction]] = {}
    for (a, b), v in zip(unknowns, kernel):
        if v != 0:
            terms.setdefault(b, [Fraction(0)] * (degree + 1))[a] = v
    op = DiffOperator({b: Polynomial(cs) for b, cs in terms.items()})
    if op.is_zero or op.order < 1:
        return None
    # fresh-row validation: the solved rows used c up to rows-1+order
    rec = recurrence_from_ode(op)
    bands = rec.bands()
    for t in range(rows, rows + 80):
        total = Fraction(0)
        for j, p in bands.items():
            idx = t + j
            if idx >= 0:
                total += p(Fraction(t)) * c_series(idx)
        if total != 0:
            return None
    return op.primitive_normalized()


def _kernel_vector(matrix: list[list[Fraction]], ncols: int) -> list[Fraction] | None:
    """A nonzero kernel vector of the row system, or None if only zero."""
    rows = [row[:] for row in matrix]
    nrows = len(rows)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivot_cols]
    if not free:
        return None
    fc = free[0]
    sol = [Fraction(0)] * ncols
    sol[fc] = Fraction(1)
    for i, pc in enumerate(pivot_cols):
        sol[pc] = -rows[i][fc]
    return sol


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

    terms_used: int
    coeff_growth_estimate: float
    denominator_growth_estimate: float
    looks_exponential: bool

    @property
    def plausible_e_function(self) -> bool:
        return self.looks_exponential


def growth_check(f: EFunction, terms: int = 80) -> GrowthReport:
    """Estimate |a_n|^(1/n) and lcm-denominator growth from a prefix.

    Heuristic only: a convergent estimate suggests (never proves) that the
    series satisfies the E-function growth requirements.
    """
    terms = max(8, terms)
    coeffs = f.coefficients(terms)
    best = 0.0
    lcm = 1
    den_best = 0.0
    half = terms // 2
    head_max = 0.0
    tail_max = 0.0
    for n in range(1, terms):
        a = coeffs[n]
        lcm = lcm * a.denominator // math.gcd(lcm, a.denominator)
        if a != 0:
            root = float(abs(a)) ** (1.0 / n)
            best = max(best, root)
            if n >= half:
                tail_max = max(tail_max, root)
            else:
                head_max = max(head_max, root)
        den_best = max(den_best, float(lcm) ** (1.0 / n))
    # super-exponential growth shows up as the tail estimate still climbing
    # past anything seen in the first half
    looks_exponential = tail_max <= max(4.0, 1.25 * head_max) and best < float("inf")
    return GrowthReport(
        terms_used=terms,
        coeff_growth_estimate=best,
        denominator_growth_estimate=den_best,
        looks_exponential=looks_exponential,
    )
