import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elindep.balls import Ball

from elindep import polynomials
from elindep.polynomials import (
    Polynomial,
    is_squarefree,
    poly_gcd,
    power_set_poly,
    ratio_poly,
    ratio_set_poly,
    resultant,
    resultant_bivariate,
    squarefree_part,
)

from support import (
    random_polynomial,
    ref_add,
    ref_compose_scale,
    ref_content,
    ref_derivative,
    ref_divmod,
    ref_eval,
    ref_int_coeffs,
    ref_mul,
    ref_scale,
    ref_trim,
    reference_gcd,
    reference_primitive,
)


def P(*coeffs):
    return Polynomial([Fraction(c) for c in coeffs])


class TestArithmetic:
    def test_product_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_divmod_reconstructs(self):
        a = P(3, -2, 0, 5, 1)
        b = P(1, 2)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            P(1, 1, 1).exact_div(P(1, 1))

    def test_derivative(self):
        assert P(7, 0, 3, 2).derivative() == P(0, 6, 6)

    def test_horner_evaluation(self):
        p = P(1, -3, 2)
        assert p(Fraction(5)) == 1 - 15 + 50

    def test_compose_scale(self):
        # p(cz) for p = z^2 + z, c = 3
        p = P(0, 1, 1)
        assert p.compose_scale(Fraction(3)) == P(0, 3, 9)


class TestGcd:
    def test_common_factor(self):
        a = P(-1, 1) * P(1, 0, 1)
        b = P(-1, 1) * P(2, 1)
        g = poly_gcd(a, b)
        assert g.monic() == P(-1, 1).monic()

    def test_coprime(self):
        assert poly_gcd(P(-1, 1), P(1, 1)).degree == 0

    def test_squarefree_part_drops_multiplicity(self):
        p = P(-1, 1) * P(-1, 1) * P(2, 1)
        sf = squarefree_part(p)
        assert sf.monic() == (P(-1, 1) * P(2, 1)).monic()
        assert is_squarefree(sf)


class TestResultant:
    def test_frozen_value(self):
        # res(z^2-2, z^2-3) = prod of root differences = (2-3)^2 = 1
        assert resultant(P(-2, 0, 1), P(-3, 0, 1)) == 1

    def test_shared_root_vanishes(self):
        a = P(-1, 1) * P(1, 1)
        b = P(-1, 1) * P(3, 1)
        assert resultant(a, b) == 0

    def test_matches_root_product(self):
        # res(p, q) = lc(p)^deg q * prod q(alpha_i) over roots alpha_i of p
        rng = random.Random(1105)
        mpmath.mp.dps = 40
        for _ in range(15):
            p = random_polynomial(rng, 3)
            q = random_polynomial(rng, 3)
            if p.degree < 1 or q.degree < 1:
                continue
            val = resultant(p, q)
            desc_p = [mpmath.mpf(c.numerator) / c.denominator
                      for c in reversed(p.coeffs)]
            desc_q = [mpmath.mpf(c.numerator) / c.denominator
                      for c in reversed(q.coeffs)]
            roots = mpmath.polyroots(desc_p, maxsteps=100)
            prod = mpmath.mpf(p.lc.numerator) / p.lc.denominator
            prod = prod ** q.degree
            for r in roots:
                prod *= mpmath.polyval(desc_q, r)
            target = mpmath.mpf(val.numerator) / val.denominator
            assert abs(prod - target) < 1e-20 * (1 + abs(target))


class TestRatioSetPoly:
    def test_exact_ratios_are_roots(self):
        p = P(2, 1) * P(3, 1)      # roots -2, -3
        q = P(-1, 1) * P(-5, 1)    # roots 1, 5
        out = ratio_set_poly(p, q)
        for ratio in (Fraction(-2), Fraction(-2, 5), Fraction(-3), Fraction(-3, 5)):
            assert out(ratio) == 0
        assert out.degree <= p.degree * q.degree
        assert is_squarefree(out)

    def test_rejects_zero_root_denominator(self):
        with pytest.raises(ValueError):
            ratio_set_poly(P(1, 1), P(0, 1))

    def test_collapses_repeated_ratios(self):
        # p has roots {1,2}, q has roots {1,2}: ratio 1 appears twice but
        # the output is squarefree
        p = P(-1, 1) * P(-2, 1)
        out = ratio_set_poly(p, p)
        assert is_squarefree(out)
        for ratio in (1, 2, Fraction(1, 2)):
            assert out(Fraction(ratio)) == 0


def elimination_resultant(p, q):
    """Res_y(q(y), p(x y)) by the Sylvester/Bareiss route: the m n ratios
    with their multiplicities, up to a constant."""
    pxy = [Polynomial((0,) * k + (c,)) for k, c in enumerate(p.coeffs)]
    qy = [Polynomial.constant(c) for c in q.coeffs]
    return resultant_bivariate(qy, pxy)


def elimination_ratio_set(p, q):
    """The ratio set by the Sylvester/Bareiss route."""
    return squarefree_part(elimination_resultant(p, q))


def elimination_power_set(p, n):
    """The power set by the Sylvester/Bareiss route: eliminate y from
    (p(y), z - y^n)."""
    second = [Polynomial.x()] + [Polynomial.zero()] * (n - 1) + [Polynomial.constant(-1)]
    first = [Polynomial.constant(c) for c in p.coeffs]
    return squarefree_part(resultant_bivariate(first, second))


def random_int_poly(rng, degree, bound, zero_root=False):
    """Random integer polynomial of exact degree, non-monic in general, with
    p(0) = 0 when zero_root and p(0) != 0 otherwise."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    coeffs.append(rng.choice((-1, 1)) * rng.randint(1, bound))
    coeffs[0] = 0 if zero_root else rng.choice((-1, 1)) * rng.randint(1, bound)
    return Polynomial(coeffs)


class TestPowerSums:
    """`ratio_set_poly` and `power_set_poly` against the Sylvester/Bareiss
    elimination they replace: the same monic polynomial."""

    def test_ratio_set_quartic_pairs(self):
        rng = random.Random(2006)
        for _ in range(12):
            p = random_int_poly(rng, 4, 30)
            q = random_int_poly(rng, 4, 30)
            assert ratio_set_poly(p, q) == elimination_ratio_set(p, q)

    def test_ratio_set_of_a_polynomial_with_itself(self):
        rng = random.Random(2007)
        for degree in (1, 2, 3, 4):
            p = random_int_poly(rng, degree, 30)
            out = ratio_set_poly(p, p)
            assert out == elimination_ratio_set(p, p)
            assert out(1) == 0

    def test_ratio_set_with_a_zero_root(self):
        rng = random.Random(2008)
        for _ in range(6):
            p = random_int_poly(rng, rng.randint(1, 4), 30, zero_root=True)
            q = random_int_poly(rng, rng.randint(1, 3), 30)
            out = ratio_set_poly(p, q)
            assert out == elimination_ratio_set(p, q)
            assert out(0) == 0

    def test_ratio_set_of_degree_one(self):
        rng = random.Random(2009)
        for _ in range(6):
            p = random_int_poly(rng, 1, 50)
            q = random_int_poly(rng, rng.randint(1, 4), 50)
            assert ratio_set_poly(p, q) == elimination_ratio_set(p, q)
            assert ratio_set_poly(q, p) == elimination_ratio_set(q, p)

    def test_ratio_set_with_large_rational_coefficients(self):
        rng = random.Random(2010)
        for _ in range(4):
            p = random_int_poly(rng, 3, 10**6) * Fraction(rng.randint(1, 99), rng.randint(1, 99))
            q = random_int_poly(rng, 3, 10**6) * Fraction(-1, rng.randint(1, 99))
            assert ratio_set_poly(p, q) == elimination_ratio_set(p, q)

    def test_power_set(self):
        rng = random.Random(2011)
        for n in (2, 3, 5):
            for degree in (1, 2, 4):
                for zero_root in (False, True):
                    bound = 10**6 if degree == 2 else 30
                    p = random_int_poly(rng, degree, bound, zero_root)
                    assert power_set_poly(p, n) == elimination_power_set(p, n)

    def test_alg_pow_takes_the_power_set(self):
        from elindep.algebraic import alg_pow, canonical_root

        p = P(5, 1, 0, 1, 1)
        a = canonical_root(p)
        for n in (2, 3, 5):
            assert alg_pow(a, n).poly == elimination_power_set(p, n).primitive_int()

    def test_power_set_collapses_repeated_powers(self):
        # roots +-1, +-i: every fourth power is 1
        p = P(-1, 0, 0, 0, 1)
        assert power_set_poly(p, 4) == P(-1, 1)
        assert power_set_poly(p, 2) == elimination_power_set(p, 2) == P(-1, 1) * P(1, 1)


PRIME = polynomials._SCREEN_PRIME


class TestSquarefreeScreen:
    """The mod-P screen in `squarefree_part` and `is_squarefree` must give
    the answers of the rational gcd whether or not it decides."""

    def test_double_root_mod_the_prime_falls_back(self):
        # z (z - P) is squarefree over Q but z^2 mod P
        p = P(0, -PRIME, 1) * 3
        assert not polynomials._screened_squarefree(p)
        assert squarefree_part(p) == p.monic()
        assert is_squarefree(p)

    def test_leading_coefficient_divisible_by_the_prime_falls_back(self):
        # (P z + 1)^2 (z + 1) reduces to z + 1 mod P, coprime to its
        # derivative: only the degree check keeps the screen from calling
        # it squarefree
        p = P(1, PRIME) ** 2 * P(1, 1)
        assert not polynomials._screened_squarefree(p)
        assert squarefree_part(p) == (P(1, PRIME) * P(1, 1)).monic()
        assert not is_squarefree(p)
        q = P(1, 1, PRIME)
        assert not polynomials._screened_squarefree(q)
        assert squarefree_part(q) == q.monic()

    def test_repeated_root(self):
        p = P(-1, 1) ** 2 * P(2, 1)
        assert not polynomials._screened_squarefree(p)
        assert squarefree_part(p) == P(-1, 1) * P(2, 1)

    def test_agrees_with_the_rational_gcd(self):
        rng = random.Random(2061)
        screened = 0
        for _ in range(60):
            factors = [random_polynomial(rng, 3) for _ in range(rng.randint(1, 3))]
            p = Polynomial.one()
            for f in factors:
                p = p * f
            if rng.random() < 0.5:
                p = p * factors[0]
            if p.degree < 1:
                continue
            g = poly_gcd(p, p.derivative())
            assert is_squarefree(p) == (g.degree == 0)
            assert squarefree_part(p) == p.exact_div(g).monic()
            screened += polynomials._screened_squarefree(p)
        assert screened > 10


RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=8)
COEFFS = st.lists(st.one_of(RATIONALS, st.integers(-40, 40)), max_size=6)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestAgainstFractionTuples:
    """Every operation of the scale * prim form against the plain
    tuple-of-Fraction oracle of tests/support.py."""

    @PROPERTY
    @given(COEFFS, COEFFS, RATIONALS)
    def test_ring_operations(self, a, b, c):
        p, q = Polynomial(a), Polynomial(b)
        ra, rb = ref_trim(a), ref_trim(b)
        assert p.coeffs == ra and q.coeffs == rb
        assert (p + q).coeffs == ref_add(ra, rb)
        assert (p - q).coeffs == ref_add(ra, ref_scale(rb, -1))
        assert (-p).coeffs == ref_scale(ra, -1)
        assert (p * q).coeffs == ref_mul(ra, rb)
        assert (p * c).coeffs == (c * p).coeffs == ref_scale(ra, c)
        assert (p + c).coeffs == ref_add(ra, (c,))
        assert (p**3).coeffs == ref_mul(ra, ref_mul(ra, ra))
        assert (p**0).coeffs == (1,)
        if rb:
            quo, rem = p.divmod(q)
            assert (quo.coeffs, rem.coeffs) == ref_divmod(ra, rb)
            assert (p * q).exact_div(q) == p
        else:
            with pytest.raises(ZeroDivisionError):
                p.divmod(q)

    @PROPERTY
    @given(COEFFS, RATIONALS, st.integers(0, 3))
    def test_calculus_and_shape(self, a, c, k):
        p, ra = Polynomial(a), ref_trim(a)
        assert p.derivative().coeffs == ref_derivative(ra)
        assert p.compose_scale(c).coeffs == ref_compose_scale(ra, c)
        assert p.shifted(k).coeffs == (ref_trim((0,) * k + ra) if ra else ())
        assert p.reversed_coeffs().coeffs == ref_trim(ra[::-1])
        zeros = next((i for i, x in enumerate(ra) if x), 0)
        assert p.deflate_z()[0] == zeros
        assert p.deflate_z()[1].coeffs == ra[zeros:]
        assert p.degree == len(ra) - 1 and p.is_zero == (not ra)
        assert p.lc == (ra[-1] if ra else 0)
        assert [p[i] for i in range(-1, 8)] == [0] + list(ra) + [0] * (8 - len(ra))

    @PROPERTY
    @given(COEFFS, RATIONALS)
    def test_normal_forms_and_values(self, a, c):
        p, ra = Polynomial(a), ref_trim(a)
        assert p.int_coeffs() == ref_int_coeffs(ra)
        assert p.primitive_int().coeffs == tuple(map(Fraction, ref_int_coeffs(ra)))
        assert p.content() == (ref_content(ra) if ra else 0)
        assert p.monic().coeffs == (ref_scale(ra, 1 / ra[-1]) if ra else ())
        assert p(c) == ref_eval(ra, c)
        ball = Ball(c, Fraction(1, 3), Fraction(1, 7))
        assert p(ball) == ref_eval(ra, ball)

    @PROPERTY
    @given(COEFFS, st.integers(-30, 30).filter(bool))
    def test_equal_polynomials_hash_equal(self, a, k):
        p = Polynomial(a)
        routes = [
            Polynomial([x * k for x in ref_trim(a)]) * Fraction(1, k),
            p * Fraction(k, 3) * Fraction(3, k),
            (p * Polynomial.x()).exact_div(Polynomial.x()),
            p.shifted(2).divmod(Polynomial.x_power(2))[0],
            p + p - p,
            Polynomial(p.coeffs),
        ]
        for r in routes:
            assert r == p and hash(r) == hash(p)

    def test_scale_and_primitive_fields(self):
        assert P(2, 4) * Fraction(1, 2) == P(1, 2)
        assert hash(P(2, 4) * Fraction(1, 2)) == hash(P(1, 2))
        p = P(Fraction(-4, 3), Fraction(-2, 3), 0)
        assert (p.scale, p.prim) == (Fraction(-2, 3), (2, 1))
        assert (Polynomial.zero().scale, Polynomial.zero().prim) == (0, ())
        with pytest.raises(TypeError):
            Polynomial([0.5])


def test_content_and_primitive():
    p = Polynomial([Fraction(4, 3), Fraction(2, 3)])
    prim = p.primitive_int()
    assert prim == P(2, 1)
    assert prim.lc > 0


BIG = 2**64 + 13

KERNEL_CASES = {
    "negative-leading": (P(3, -7, -2), P(-1, 0, -5)),
    "zero-constant-terms": (P(0, 0, 2, -4), P(0, 6, -3)),
    "coprime": (P(-1, 1), P(1, 1)),
    "one-divides-the-other": (P(-1, 1) * P(2, 0, Fraction(-3, 7)), P(Fraction(-5, 2), Fraction(5, 2))),
    "constants": (P(Fraction(-6, 5)), P(4)),
    "constant-and-linear": (P(Fraction(3, 4)), P(-2, 6)),
    "zero-and-nonzero": (Polynomial.zero(), P(Fraction(6, 7), -4, 2)),
    "zero-and-zero": (Polynomial.zero(), Polynomial.zero()),
    "above-2^64": (
        P(BIG, -(BIG**2)) * P(Fraction(1, BIG), 3, BIG**3),
        P(BIG, -(BIG**2)) * P(-1, BIG + 2),
    ),
    "denominators-above-2^64": (
        P(Fraction(1, BIG), Fraction(-3, BIG**2), Fraction(BIG, 7)),
        P(Fraction(2, BIG)) * P(Fraction(1, BIG), Fraction(-3, BIG**2), Fraction(BIG, 7)),
    ),
}


class TestIntegerKernels:
    """`poly_gcd`, `primitive_int` and `int_coeffs` run on int lists; the
    Fraction forms they replace (tests/support.py) are the references."""

    @staticmethod
    def check(p, q):
        assert poly_gcd(p, q) == reference_gcd(p, q)
        assert poly_gcd(q, p) == reference_gcd(q, p)
        for r in (p, q):
            prim = r.primitive_int()
            assert prim == reference_primitive(r)
            assert r.int_coeffs() == [int(c) for c in prim.coeffs]
            assert all(type(c) is Fraction for c in prim.coeffs)
            assert all(type(c) is int for c in r.int_coeffs())

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_named_cases(self, case):
        self.check(*KERNEL_CASES[case])

    def test_values_of_the_named_cases(self):
        assert poly_gcd(*KERNEL_CASES["coprime"]) == P(1)
        assert poly_gcd(*KERNEL_CASES["one-divides-the-other"]) == P(-1, 1)
        assert poly_gcd(*KERNEL_CASES["above-2^64"]) == P(Fraction(-1, BIG), 1)
        assert poly_gcd(*KERNEL_CASES["zero-and-zero"]).is_zero
        assert Polynomial.zero().int_coeffs() == []
        assert Polynomial.zero().primitive_int().is_zero
        assert P(Fraction(-6, 5)).int_coeffs() == [1]
        assert P(3, -7, -2).int_coeffs() == [-3, 7, 2]
        assert P(0, 0, 2, -4).int_coeffs() == [0, 0, -1, 2]

    def test_random_products(self):
        rng = random.Random(6464)
        for _ in range(150):
            shared = random_polynomial(rng, 3)
            p = shared * random_polynomial(rng, 4)
            q = random_polynomial(rng, 4)
            if rng.random() < 0.6:
                q = q * shared
            if rng.random() < 0.2:
                p = p * Polynomial.constant(Fraction(rng.randint(1, 9), BIG))
            if rng.random() < 0.2:
                q = q.shifted(rng.randint(1, 3))
            self.check(p, q)


class TestRatioPoly:
    """`ratio_poly` keeps every one of the m n ratios: up to a constant it
    is the elimination resultant itself, before any squarefree part."""

    def test_is_the_elimination_resultant(self):
        rng = random.Random(1206)
        for _ in range(15):
            p = random_int_poly(rng, rng.randint(1, 3), 9)
            q = p if rng.random() < 0.3 else random_int_poly(rng, rng.randint(1, 3), 9)
            full = ratio_poly(p, q)
            assert full.degree == p.degree * q.degree
            assert full.monic() == elimination_resultant(p, q).monic()
            assert squarefree_part(full) == ratio_set_poly(p, q)

    def test_keeps_the_repeated_ratio_one(self):
        p = P(-2, 0, 1)  # roots +-sqrt 2: ratios 1, 1, -1, -1
        assert ratio_poly(p, p).monic() == (P(-1, 1) * P(1, 1)) ** 2
        assert ratio_set_poly(p, p) == P(-1, 0, 1)

    def test_constants_have_no_ratios(self):
        assert ratio_poly(P(5), P(-1, 1)) == Polynomial.one()
        assert ratio_poly(P(-1, 1), P(3)) == Polynomial.one()
