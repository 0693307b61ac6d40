"""Shared helpers for the test suite: random instances and slow oracles."""

from fractions import Fraction
from math import gcd, lcm

import mpmath

from elindep.diffop import DiffOperator
from elindep.efunction import EFunction
from elindep.errors import (
    InputError,
    InsufficientTruncationError,
    UnsupportedOperationError,
)
from elindep.polynomials import Polynomial


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


def reference_series(f, count):
    """Taylor coefficients c_0 .. c_{count-1} of f from its seeds by the
    term-by-term Fraction loop over its recurrence bands, an oracle that
    shares nothing with the binary-splitting engine."""
    bands = f.recurrence.bands()
    jmax = f.recurrence.max_shift
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
