"""Entire-series containers: coefficient streams, constructors, closure ops."""

import math
import random
from fractions import Fraction

import pytest

from elindep.algebraic import alg_nth_root
from elindep.diffop import DiffOperator, op_apply
from elindep.efunction import (
    EFunction,
    HypergeometricParams,
    ef_bessel_j0,
    ef_derivative,
    ef_exp,
    ef_hypergeometric,
    ef_lagrange_combo,
    ef_mul_poly,
    ef_scale,
    ef_sin_integral,
    ef_sum,
    growth_check,
    hypergeometric_annihilator,
)
from elindep.errors import InputError
from elindep.polynomials import Polynomial

from support import random_efunction


class TestBuiltins:
    def test_exp_coefficients(self):
        f = ef_exp()
        assert f.coefficients(6) == [1, 1, 1, 1, 1, 1]
        assert f.coeff_bound == 1
        assert f.values_transcendental

    def test_bessel_coefficients(self):
        f = ef_bessel_j0()
        # J0 = sum (-1)^m (z/2)^(2m) / m!^2, so a_(2m) = (-1)^m (2m)! / (4^m m!^2)
        for m in range(8):
            want = Fraction((-1) ** m * math.factorial(2 * m),
                            4**m * math.factorial(m) ** 2)
            assert f.coefficient(2 * m) == want
            if m:
                assert f.coefficient(2 * m - 1) == 0
        assert f.support_modulus == 2
        assert f.coeff_bound == 1

    def test_sin_integral_coefficients(self):
        f = ef_sin_integral()
        # Si(z) = sum (-1)^m z^(2m+1) / ((2m+1) (2m+1)!)
        for m in range(6):
            n = 2 * m + 1
            want = Fraction((-1) ** m, n)
            assert f.coefficient(n) == want
            assert f.coefficient(2 * m) == 0
        assert f.coeff_bound == 1

    def test_seed_consistency_enforced(self):
        op = ef_bessel_j0().annihilator
        with pytest.raises(InputError):
            EFunction(op, [1, 1], name="bad")  # J0'(0) = 0, not 1


class TestHypergeometric:
    def test_confluent_is_exp(self):
        f = ef_hypergeometric([], [1], 1)
        assert f.coefficients(10) == ef_exp().coefficients(10)

    def test_bessel_parameters(self):
        # J0(z) in the k=2 family: lower parameters (1, 1), scale -1/4
        f = ef_hypergeometric([], [1, 1], Fraction(-1, 4))
        assert f.coefficients(14) == ef_bessel_j0().coefficients(14)

    def test_coefficient_formula(self):
        # k=3 with one upper and... upper count r=1 needs s=... k = s-r, so
        # s=4, r=1 gives k=3
        up = [Fraction(1, 2)]
        low = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4)]
        f = ef_hypergeometric(up, low, 2)
        # direct Pochhammer evaluation of the defining sum
        def poch(a, n):
            out = Fraction(1)
            for i in range(n):
                out *= a + i
            return out

        for n in range(5):
            num = poch(up[0], n) * Fraction(2) ** n
            den = poch(low[0], n) * poch(low[1], n) * poch(low[2], n) * poch(low[3], n)
            c = num / den
            assert f.series_coefficient(3 * n) == c
            assert f.coefficient(3 * n) == c * math.factorial(3 * n)

    def test_support_modulus(self):
        f = ef_hypergeometric([], [1, 1, 1], 1)
        assert f.support_modulus == 3
        assert all(f.coefficient(n) == 0 for n in range(20) if n % 3)

    def test_validation(self):
        with pytest.raises(InputError):
            HypergeometricParams((Fraction(1),), (), Fraction(1)).validate()  # s = r
        with pytest.raises(InputError):
            HypergeometricParams((), (Fraction(-1),), Fraction(1)).validate()
        with pytest.raises(InputError):
            HypergeometricParams((), (Fraction(1),), Fraction(0)).validate()

    def test_annihilator_annihilates(self):
        for up, low, sc in (
            ([], [1], Fraction(-1, 4)),
            ([Fraction(1, 3)], [Fraction(1, 2), 1], 5),
            ([], [Fraction(2, 3)], Fraction(7, 2)),
        ):
            f = ef_hypergeometric(up, low, sc)
            taylor = [f.series_coefficient(n) for n in range(80)]
            img = op_apply(f.annihilator, taylor, 30)
            assert all(v == 0 for v in img.values())

    def test_coeff_bound_holds(self):
        f = ef_hypergeometric([Fraction(5, 2)], [Fraction(1, 3), 1], 3)
        C = f.coeff_bound
        assert C is not None
        for n in range(1, 60):
            assert abs(f.coefficient(n)) <= C**n


class TestClosure:
    def test_scale_rational(self):
        f = ef_scale(ef_exp(), Fraction(3, 2))
        # g(z) = exp(3z/2) so a_n = (3/2)^n
        for n in range(8):
            assert f.coefficient(n) == Fraction(3, 2) ** n
        assert f.coeff_bound is not None and f.coeff_bound >= Fraction(3, 2)

    def test_scale_irrational(self):
        # J0(z sqrt 2): support on even powers keeps coefficients rational
        s = alg_nth_root(2, 2)
        f = ef_scale(ef_bessel_j0(), s)
        j = ef_bessel_j0()
        for m in range(8):
            assert f.coefficient(2 * m) == j.coefficient(2 * m) * 2**m
            assert f.coefficient(2 * m + 1) == 0
        taylor = [f.series_coefficient(n) for n in range(60)]
        img = op_apply(f.annihilator, taylor, 25)
        assert all(v == 0 for v in img.values())

    def test_scale_irrational_needs_support_structure(self):
        # exp(z sqrt 2) has irrational coefficients, not representable here
        from elindep.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            ef_scale(ef_exp(), alg_nth_root(2, 2))

    def test_scale_zero_rejected(self):
        with pytest.raises(InputError):
            ef_scale(ef_exp(), 0)

    def test_derivative(self):
        g = ef_derivative(ef_sin_integral())
        # Si' = sin(z)/z = sum (-1)^m z^(2m) / (2m+1)!
        for m in range(5):
            assert g.coefficient(2 * m) == Fraction((-1) ** m * math.factorial(2 * m),
                                                    math.factorial(2 * m + 1))

    def test_mul_poly(self):
        # h = z * exp: ordinary coefficients shift, so a_m = m * a'_(m-1)
        h = ef_mul_poly(ef_exp(), Polynomial((0, 1)))
        e = ef_exp()
        for m in range(1, 10):
            assert h.coefficient(m) == m * e.coefficient(m - 1)
        assert h.coefficient(0) == 0

    def test_sum(self):
        s = ef_sum(ef_exp(), ef_bessel_j0())
        for n in range(12):
            assert s.coefficient(n) == ef_exp().coefficient(n) + ef_bessel_j0().coefficient(n)

    def test_sum_annihilator_kills_both(self):
        s = ef_sum(ef_exp(), ef_bessel_j0())
        taylor = [s.series_coefficient(n) for n in range(80)]
        img = op_apply(s.annihilator, taylor, 30)
        assert all(v == 0 for v in img.values())


class TestLagrangeCombo:
    def test_equal_values(self):
        import mpmath

        g = ef_lagrange_combo(ef_exp(), [1, 2])
        with mpmath.workdps(40):
            vals = []
            for pt in (1, 2):
                acc = mpmath.mpf(0)
                for n in range(60):
                    c = g.series_coefficient(n)
                    acc += mpmath.mpf(c.numerator) / c.denominator * mpmath.mpf(pt) ** n
                vals.append(acc)
            assert abs(vals[0] - vals[1]) < mpmath.mpf(10) ** -30
            assert abs(vals[0] - mpmath.e) < mpmath.mpf(10) ** -30

    def test_single_point_is_rescaling(self):
        g = ef_lagrange_combo(ef_exp(), [2])
        # g(z) = exp(z/2)
        for n in range(6):
            assert g.coefficient(n) == Fraction(1, 2) ** n

    def test_rejects_degenerate_points(self):
        with pytest.raises(InputError):
            ef_lagrange_combo(ef_exp(), [])
        with pytest.raises(InputError):
            ef_lagrange_combo(ef_exp(), [1, 1])
        with pytest.raises(InputError):
            ef_lagrange_combo(ef_exp(), [0, 1])


class TestGrowth:
    def test_builtin_growth_plausible(self):
        for f in (ef_exp(), ef_bessel_j0(), ef_sin_integral()):
            rep = growth_check(f, terms=60)
            assert rep.plausible_e_function

    def test_growth_flags_factorial_blowup(self):
        # f'' = f has solution cosh with a_n = 1 for even n; rescaling the
        # recurrence z f' - c f = 0 with c... instead take g = sum n! z^n/n!,
        # i.e. ordinary geometric series viewed as an E-function candidate:
        # annihilator (1-z)^... simplest: c_n = 1, a_n = n! grows too fast.
        op = DiffOperator.from_poly_coeffs([Polynomial((-1,)), Polynomial((1, -1))])
        g = EFunction(op, [1], name="geom", coeff_bound=None)
        rep = growth_check(g, terms=60)
        assert not rep.plausible_e_function


class TestRandom:
    def test_random_efunctions_consistent(self):
        rng = random.Random(11)
        for _ in range(5):
            f = random_efunction(rng, check_terms=50)
            taylor = [f.series_coefficient(n) for n in range(120)]
            img = op_apply(f.annihilator, taylor, 40)
            assert all(v == 0 for v in img.values())
