"""Shared helpers for the test suite: random instances and slow oracles."""

import functools
from fractions import Fraction
from math import gcd, lcm

import mpmath

from elindep.algebraic import DEFAULT_PRECISION, AlgebraicNumber, Precision, isolate_roots
from elindep.balls import Ball
from elindep.diffop import DiffOperator, op_compose, psi_transform
from elindep.efunction import EFunction
from elindep.errors import (
    InputError,
    InsufficientTruncationError,
    UnsupportedOperationError,
)
from elindep.polynomials import Polynomial, squarefree_part
from elindep.singularities import SUPERSET, RootSet


def random_fraction(rng, num_max=9, den_max=5, allow_zero=True):
    while True:
        q = Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if allow_zero or q != 0:
            return q


def random_polynomial(rng, max_degree, allow_zero=False):
    deg = rng.randint(0, max_degree)
    coeffs = [random_fraction(rng) for _ in range(deg + 1)]
    p = Polynomial(coeffs)
    if not allow_zero and p.is_zero:
        return random_polynomial(rng, max_degree, allow_zero)
    return p


def random_operator(rng, max_order=3, max_degree=3) -> DiffOperator:
    """Random ODE operator with a leading coefficient nonzero at 0."""
    order = rng.randint(1, max_order)
    coeffs = []
    for b in range(order):
        coeffs.append(
            random_polynomial(rng, max_degree)
            if rng.random() < 0.85
            else Polynomial([0])
        )
    lead = random_polynomial(rng, max_degree)
    if lead(Fraction(0)) == 0:
        lead = lead + Polynomial([rng.choice([1, -1, 2])])
    coeffs.append(lead)
    return DiffOperator.from_poly_coeffs(coeffs)


def random_efunction(rng, max_order=3, max_degree=3, check_terms=90) -> EFunction:
    """Random annihilator plus consistent seeds, resampled until usable."""
    while True:
        op = random_operator(rng, max_order, max_degree)
        seeds = [random_fraction(rng) for _ in range(op.order)]
        if all(s == 0 for s in seeds):
            seeds[0] = Fraction(1)
        try:
            f = EFunction(op, seeds)
            f.coefficient(check_terms)
        except (InputError, UnsupportedOperationError, InsufficientTruncationError):
            continue
        return f


@functools.lru_cache(maxsize=64)
def reference_bands(op):
    """The recurrence bands of op by `Polynomial` products, one monomial
    at a time: ({j: P_j}, jmax, jmin), sum_j P_j(t) c_{t+j} = 0 for t >= 0,
    each c z^a D^b adding c ff(t+j, b) to P_j, j = b - a.  The oracle of
    the integer rows of `recurrence_from_ode`; cached, as the scans of
    `cauchy_check_determined` read it once per range."""
    bands = {}
    t = Polynomial.x()
    for b, p in op.terms.items():
        for a, c in enumerate(p.coeffs):
            if c:
                j = b - a
                ff = Polynomial.one()
                for i in range(b):
                    ff = ff * (t + Polynomial.constant(j - i))
                bands[j] = bands.get(j, Polynomial.zero()) + ff * c
    bands = {j: p for j, p in bands.items() if not p.is_zero}
    return bands, max(bands), min(bands)


def reference_series(f, count):
    """Taylor coefficients c_0 .. c_{count-1} of f from its seeds by the
    term-by-term Fraction loop over its recurrence bands, an oracle that
    shares nothing with the binary-splitting engine."""
    bands, jmax, _ = reference_bands(f.annihilator)
    c = [f.series_coefficient(n) for n in range(min(count, f.seed_count))]
    while len(c) < count:
        m = len(c)
        t = m - jmax
        lead = bands[jmax](Fraction(t)) if t >= 0 else Fraction(0)
        if lead == 0:
            raise UnsupportedOperationError(
                f"series coefficient {m} of {f.name} is not determined "
                "by the recurrence"
            )
        total = Fraction(0)
        for j, p in bands.items():
            if j != jmax and t + j >= 0:
                total += p(Fraction(t)) * c[t + j]
        c.append(-total / lead)
    return c


# -- the principal root by ordering every isolated root ----------------------


def canonical_root(
    poly: Polynomial,
    ctx: Precision = DEFAULT_PRECISION,
) -> AlgebraicNumber:
    """A deterministic distinguished root of poly: maximal real part, ties
    broken towards the upper half plane. For z^k - q this is the principal
    k-th root."""
    poly = squarefree_part(poly).primitive_int()
    if poly.degree <= 0:
        raise ValueError("polynomial has no roots")
    for bits in ctx.ladder():
        balls = isolate_roots(poly, bits, ctx)
        order = _try_order(balls)
        if order is not None:
            return AlgebraicNumber(poly, balls[order[-1]])
    raise ctx.exhausted("canonical root selection")


def _try_order(balls: list[Ball]) -> list[int] | None:
    """Total order on disjoint discs by (re, im) when every pair separates
    cleanly in one coordinate (re +- rad, then im +- rad); None if some pair
    is still ambiguous."""
    n = len(balls)
    if n == 1:
        return [0]

    def cmp(i: int, j: int) -> int | None:
        a, b = balls[i], balls[j]
        for x, y in ((a.re, b.re), (a.im, b.im)):
            if abs(x - y) > a.rad + b.rad:
                return -1 if x < y else 1
        return None

    keys = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = cmp(i, j)
            if c is None:
                return None
            keys[(i, j)] = c

    def full(i, j):
        if i == j:
            return 0
        if (i, j) in keys:
            return keys[(i, j)]
        return -keys[(j, i)]

    return sorted(range(n), key=functools.cmp_to_key(full))


# -- the two rules for free indices that `efunction._band_roots` replaced ------


def _undetermined_message(m, name):
    return (f"series coefficient {m} of {name} is not determined "
            "by the recurrence; supply it as an initial coefficient")


def cauchy_check_determined(f, lo, hi):
    """The old `EFunction.check_determined`: a scan of [lo, hi) past the
    seeds, up to Cauchy's root bound of den, raising at the least m with
    t = m - jmax < 0 or den(t) = 0."""
    bands, offset, _ = reference_bands(f.annihilator)
    den = bands[offset].prim
    bound = 0 if len(den) == 1 else 2 + max(abs(c) for c in den[:-1]) // abs(den[-1])
    for m in range(max(lo, f.seed_count), min(hi, offset + bound)):
        t = m - offset
        if t < 0 or sum(c * t**i for i, c in enumerate(den)) == 0:
            raise UnsupportedOperationError(_undetermined_message(m, f.name))


def isolated_seed_length(op, ctx=DEFAULT_PRECISION):
    """The old `efunction._singular_seed_length`: max(order, last free
    index + 1), the free indices read off certified isolating discs of
    every complex root of the leading band."""
    bands, jmax, _ = reference_bands(op)
    lead = bands[jmax]
    worst = -1
    if lead.degree > 0:
        for disc in isolate_roots(squarefree_part(lead), 2, ctx):
            t = round(disc.re)
            if t >= 0 and lead(Fraction(t)) == 0:
                worst = max(worst, t)
    return max(op.order, worst + jmax + 1)


def transform_superset(op, seeds):
    """The old `singularity_superset` of an operator-given function: the
    roots of the leading coefficient of the whole transformed operator."""
    return RootSet.from_poly(psi_transform(op, seeds).leading_coefficient(), SUPERSET)


# -- the transform as it was built before its closed form ---------------------


def apply_t(h, order):
    """T h for T = z^2 D + (1 - order) z."""
    return h.derivative().shifted(2) + h.shifted(1) * (1 - order)


def compose_t(x, order):
    """T∘X for T = z^2 D + (1 - order) z, computed termwise.

    z^2 D (L D^o) = z^2 L' D^o + z^2 L D^(o+1), plus (1 - order) z L D^o.
    """
    out = {}
    for o, p in x.terms.items():
        out[o] = out.get(o, Polynomial.zero()) + apply_t(p, order)
        out[o + 1] = out.get(o + 1, Polynomial.zero()) + p.shifted(2)
    return DiffOperator(out)


def ladder_psi_transform(op, initial_values):
    """The old `psi_transform`: p_b(T) applied to z^(B-b) (g - r_b), with
    T^k z^(B-b) built one composition with T at a time, as an operator and
    as its value on z^(B-b) r_b."""
    order = op.order
    a = [Fraction(v) for v in initial_values[:order]]
    acc = DiffOperator.zero()
    rem = Polynomial.zero()
    for b, p_b in op.terms.items():
        ladder_op = DiffOperator({0: Polynomial.x_power(order - b)})
        ladder_val = Polynomial(a[:b]).shifted(order - b)
        for power, c in enumerate(p_b.coeffs):
            if c != 0:
                acc = acc + ladder_op.scale(c)
                rem = rem + ladder_val * c
            if power < p_b.degree:
                ladder_op = compose_t(ladder_op, order)
                ladder_val = apply_t(ladder_val, order)
    shared = min(
        [order] + [p.deflate_z()[0] for p in [*acc.terms.values(), rem] if not p.is_zero]
    )
    acc = DiffOperator({b: Polynomial(p.coeffs[shared:]) for b, p in acc.terms.items()})
    remainder = Polynomial(rem.coeffs[shared:])
    if not remainder.is_zero:
        acc = op_compose(DiffOperator({remainder.degree + 1: Polynomial.one()}), acc)
    return acc.primitive_normalized()


def companion_block(rows, dens):
    """The old `_RecurrenceSum._block` past order 1, on the values of one
    block's steps ([row_1, ..., row_r], dens) as `_RecurrenceSum._steps`
    gives them: each step is a companion matrix, which shifts the rows of
    A up, scaled by its q, and appends the new row last.A, which is also
    what it adds to q b.  Returns (A, b, den)."""
    r = len(rows)
    a = [[int(i == j) for j in range(r)] for i in range(r)]
    b = [0] * r
    den = 1
    # last = (row_r, ..., row_1) at each step, for (u_{m-r}, ..., u_{m-1})
    lasts = list(zip(*reversed(rows))) or [()] * len(dens)
    for last, q in zip(lasts, dens):
        new = [sum(x * y for x, y in zip(last, col)) for col in zip(*a)]
        if r:
            a = [[q * x for x in row] for row in a[1:]] + [new]
        b = [x + q * y for x, y in zip(new, b)]
        den *= q
    return a, b, den


def consistent_seeds(op, count, rng):
    """count Taylor coefficients c_0, c_1, ... that some solution of op has:
    random where the recurrence leaves them free, the rest from the
    recurrence in Fractions.  Where a free index's row does not vanish on
    the coefficients before it, those are reset to 0, which it does."""
    bands, jmax, _ = reference_bands(op)
    c = []
    for m in range(count):
        t = m - jmax
        if t < 0:
            c.append(random_fraction(rng))
            continue
        rest = sum(p(Fraction(t)) * c[t + j] for j, p in bands.items() if j != jmax and t + j >= 0)
        lead = bands[jmax](Fraction(t))
        if lead:
            c.append(-rest / lead)
            continue
        if rest:
            c = [Fraction(0)] * m
        c.append(random_fraction(rng))
    return c


def mp_direct_sum(coeff, x, terms, dps=150):
    """Independent series summation: sum coeff(n) x^n / n! at high precision.

    Deliberately avoids the package's evaluator; used as an oracle.
    """
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        xv = mpmath.mpf(x.numerator) / x.denominator
        power = mpmath.mpf(1)
        fact = mpmath.mpf(1)
        for n in range(terms):
            if n:
                power *= xv
                fact *= n
            a = coeff(n)
            if a:
                total += mpmath.mpf(a.numerator) / a.denominator * power / fact
        return total


# -- a plain tuple-of-Fraction polynomial oracle -------------------------------
# Coefficients ascending, trailing zeros trimmed, () for zero.  None of it
# goes through `Polynomial`, so it checks the class's scale * prim form from
# outside.


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    return ref_trim(out)


def ref_scale(a, c):
    return ref_trim([x * c for x in a])


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    """Schoolbook long division over Q (b nonzero)."""
    rem = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return ref_trim(q), ref_trim(rem[: len(b) - 1])


def ref_derivative(a):
    return ref_trim([i * c for i, c in enumerate(a)][1:])


def ref_compose_scale(a, c):
    return ref_trim([x * c**i for i, x in enumerate(a)])


def ref_content(a):
    """gcd of the numerators over lcm of the denominators."""
    return Fraction(gcd(*(c.numerator for c in a)), lcm(*(c.denominator for c in a)))


def ref_int_coeffs(a):
    if not a:
        return []
    g = ref_content(a) * (1 if a[-1] > 0 else -1)
    return [int(c / g) for c in a]


def ref_eval(a, x):
    """Horner over the Fraction coefficients, from the leading one down (a
    Ball's radius depends on the order of the operations)."""
    if not a:
        return Fraction(0)
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def reference_primitive(p):
    """p * (1/content) with a positive leading coefficient, all in
    Fractions: the reference for the integer `Polynomial.primitive_int`."""
    if p.is_zero:
        return p
    p = p * (1 / p.content())
    return -p if p.lc < 0 else p


def reference_pseudo_rem(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b over Fraction coefficients."""
    d = a.degree - b.degree
    if d < 0:
        return a
    rem = list(a.coeffs)
    for i in range(d, -1, -1):
        c = rem[i + b.degree]
        rem = [x * b.lc for x in rem]
        if c:
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= c * bc
    return Polynomial(rem[: b.degree])


def reference_gcd(p, q):
    """Monic gcd by a primitive pseudo-remainder sequence over Fraction
    coefficients: the reference for the integer `poly_gcd`."""
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    a, b = reference_primitive(p), reference_primitive(q)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        a, b = b, reference_primitive(reference_pseudo_rem(a, b))
    return a.monic()
