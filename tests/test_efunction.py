"""Entire-series containers: coefficient streams, constructors, closure ops."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from unittest import mock

from elindep.algebraic import alg_nth_root
from elindep.diffop import (
    DiffOperator,
    op_apply,
    op_from_text,
    op_to_text,
    recurrence_from_ode,
)
from elindep.efunction import (
    MAX_TERMS,
    EFunction,
    HypergeometricParams,
    _abs_root,
    _band_roots,
    _seed_length,
    ef_bessel_j0,
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
from elindep import efunction
from elindep.errors import InputError, PrecisionExceededError, UnsupportedOperationError
from elindep.numeric import eval_efunction
from elindep.polynomials import Polynomial

from support import (
    cauchy_check_determined,
    companion_block,
    consistent_seeds,
    isolated_seed_length,
    random_efunction,
    random_fraction,
    random_operator,
    reference_bands,
    reference_series,
)


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
        assert all(f.coefficient(n) == 0 for n in range(20) if n % 3)

    def test_validation(self):
        with pytest.raises(InputError):
            HypergeometricParams((Fraction(1),), (), Fraction(1))  # s = r
        with pytest.raises(InputError):
            HypergeometricParams((), (Fraction(-1),), Fraction(1))
        with pytest.raises(InputError):
            HypergeometricParams((), (Fraction(1),), Fraction(0))

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

    def test_seeds_reach_past_every_free_index(self):
        # b = -7/2 leaves c_9 free (9 = 2(1 - b)); 8 seeds stopped short of it
        f = ef_hypergeometric([], ["-7/2", "1"])
        want = Fraction(1)
        for n in range(8):
            assert f.series_coefficient(2 * n) == want
            want /= (Fraction(-7, 2) + n) * (1 + n)
        assert f.coefficient(9) == 0

    def test_seed_count_is_the_singular_seed_length(self):
        # the closed form must agree with the free indices of the leading
        # band, and with isolating all of its roots as closures once did
        rng = random.Random(5)
        for _ in range(30):
            k = rng.randrange(1, 4)
            upper = []
            while len(upper) < rng.randrange(0, 3):
                a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                if a.denominator > 1 or a > 0:
                    upper.append(a)
            lower = []
            while len(lower) < len(upper) + k:
                if rng.random() < 0.5:
                    b = 1 - Fraction(rng.randrange(0, 13), k)
                else:
                    b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                if b.denominator > 1 or b > 0:
                    lower.append(b)
            scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randrange(1, 4))
            f = ef_hypergeometric(upper, lower, scale)
            assert f.seed_count == _seed_length(f.annihilator)
            assert f.seed_count == isolated_seed_length(f.annihilator)
            assert f.seed_count == max(f.order, f.free_indices[-1] + 1)

    def test_coeff_bound_holds(self):
        f = ef_hypergeometric([Fraction(5, 2)], [Fraction(1, 3), 1], 3)
        C = f.coeff_bound
        assert C is not None
        for n in range(1, 60):
            assert abs(f.coefficient(n)) <= C**n


class TestHypergeometricParameters:
    """A function built by ef_hypergeometric holds its parameters; its
    annihilator, recurrence and seeds are built when first read."""

    BIG_B = Fraction(-(10**30 + 1), 2)

    @pytest.mark.parametrize("upper, lower, scale", [
        ([], ["-7/2", 1], 1),
        (["1/3"], ["1/2", "2/5"], 1),
        ([], [1, 1, 1], -2),
        (["5/2"], ["1/3", 1], 3),
    ])
    def test_lazy_fields_match_a_function_given_by_values(self, upper, lower, scale):
        f = ef_hypergeometric(upper, lower, scale)
        assert f.order == f.annihilator.order
        assert f.seeds == [f.series_coefficient(n) for n in range(f.seed_count)]
        g = EFunction(f.annihilator, f.coefficients(f.seed_count))
        assert g.rows == f.rows and g.seeds == f.seeds
        assert [g.series_coefficient(n) for n in range(60)] == [
            f.series_coefficient(n) for n in range(60)]

    def test_seed_check_guards_the_operator_against_the_term_ratio(self, monkeypatch):
        wrong = hypergeometric_annihilator(
            HypergeometricParams((), (Fraction(-5, 2), Fraction(1)), Fraction(1)))
        monkeypatch.setattr(efunction, "hypergeometric_annihilator", lambda params: wrong)
        f = ef_hypergeometric([], ["-7/2", 1])
        assert f.series_coefficient(2) == Fraction(-2, 7)
        with pytest.raises(InputError, match="violate the recurrence"):
            f.seeds

    def test_closure_bounds_are_unchanged(self):
        # a sum reads f's bound; a scaled function is its parameters again,
        # and reads its own
        for upper, lower, bound in (([], ["-7/2", 1], Fraction(637272064, 7)),
                                    (["1/3"], ["1/2", "2/5"], 16)):
            f = ef_hypergeometric(upper, lower)
            assert ef_sum(f, f).coeff_bound == 2 * bound
            scaled = ef_hypergeometric(upper, lower, 2**f.hypergeometric.k)
            assert ef_scale(f, 2).coeff_bound == scaled.coeff_bound

    @staticmethod
    def _scaled_by_operator(f, lam):
        """f(lam z) by the operator route: f's annihilator rescaled, and
        its seeds times lam^m."""
        coeffs = [f.annihilator.coefficient(b) for b in range(f.order + 1)]
        order = f.order
        op = DiffOperator.from_poly_coeffs(
            [c.compose_scale(lam) * lam ** (order - i) for i, c in enumerate(coeffs)])
        seeds = [f.coefficient(m) * lam**m for m in range(f.seed_count)]
        return EFunction(op.primitive_normalized(), seeds)

    @pytest.mark.parametrize("upper, lower, scale, lam", [
        ([], ["-7/2", 1], 1, 2),
        (["1/3"], ["1/2", "2/5"], 1, Fraction(-3, 2)),
        ([], [1, 1, 1], -2, Fraction(1, 3)),
        (["5/2"], ["1/3", 1], 3, -2),
    ])
    def test_scale_keeps_the_parameters(self, upper, lower, scale, lam):
        f = ef_hypergeometric(upper, lower, scale)
        g = ef_scale(f, lam)
        params = f.hypergeometric
        assert g.hypergeometric == HypergeometricParams(
            params.upper, params.lower, params.scale * Fraction(lam) ** params.k)
        assert g.name == f"{f.name}({lam}z)"
        assert g.coefficients(60) == self._scaled_by_operator(f, Fraction(lam)).coefficients(60)

    def test_scale_of_a_tall_parameter_builds_nothing(self):
        # by the operator route this took 1.4 s: 2001 seeds and the m!
        # round trip
        f = ef_hypergeometric([], ["-1999/2", 1])
        start = time.perf_counter()
        g = ef_scale(f, 2)
        assert time.perf_counter() - start < 0.1
        assert g.hypergeometric.scale == 4

    def test_a_31_digit_parameter_builds_and_fails_closures_at_once(self):
        start = time.perf_counter()
        f = ef_hypergeometric([], [self.BIG_B, 1])
        assert f.seed_count == 10**30 + 4 and f.order == 3
        assert ef_scale(f, 2).hypergeometric.scale == 4
        for closure in (lambda: ef_sum(f, ef_exp()),
                        lambda: ef_mul_poly(f, Polynomial((0, 1)))):
            with pytest.raises(PrecisionExceededError, match="seed coefficients"):
                closure()
        with pytest.raises(PrecisionExceededError, match="seed coefficients"):
            f.seeds
        assert time.perf_counter() - start < 1


class TestClosure:
    def test_scale_rational(self):
        f = ef_scale(ef_exp(), Fraction(3, 2))
        # g(z) = exp(3z/2) so a_n = (3/2)^n
        for n in range(8):
            assert f.coefficient(n) == Fraction(3, 2) ** n
        assert f.coeff_bound is not None and f.coeff_bound >= Fraction(3, 2)

    def test_scale_irrational_needs_support_structure(self):
        # exp(z sqrt 2) has irrational coefficients, not representable here
        from elindep.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            ef_scale(ef_exp(), alg_nth_root(2, 2))

    def test_scale_zero_rejected(self):
        with pytest.raises(InputError):
            ef_scale(ef_exp(), 0)

    def test_singular_seed_length(self):
        # z D^2 + c D - 1 has leading band (t + 1)(t + c): a root t = -c >= 0
        # leaves c_(t+1) undetermined, so the seeds must reach index -c + 1
        for c, want in ((1, 2), (0, 2), (-3, 5), (-10**7, 10**7 + 2), (10**7, 2)):
            op = DiffOperator.from_poly_coeffs([-1, c, [0, 1]])
            assert _seed_length(op) == want, c
        # z^2 D^3 - 6 z D^2 + 10 D - 1: band (t + 1)(t - 2)(t - 5), two roots
        op = DiffOperator.from_poly_coeffs([-1, 10, [0, -6], [0, 0, 1]])
        rec = recurrence_from_ode(op)
        assert rec.offset == 1
        band = Polynomial(rec.rows[0])
        assert band == Polynomial((1, 1)) * Polynomial((-2, 1)) * Polynomial((-5, 1))
        assert _seed_length(op) == 7

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


# op_to_text of the sums' operators; the coefficient-stream ansatz that
# preceded the LCLM found these same operators
PINNED_SUMS = {
    "exp+J0": "(z + 2*z^2)*∂^3 + (2 + z - 2*z^2)*∂^2 + (-3 - z + 2*z^2)*∂^1"
              " + (1 - z - 2*z^2)",
    "combo exp [1,2]": "(8 - 6*z + 2*z^2)*∂^2 + (-6 + 5*z - 3*z^2)*∂^1 + (3 + z^2)",
    "combo exp [1,2,3]":
        "(2160 - 3168*z + 2532*z^2 - 1296*z^3 + 414*z^4 - 72*z^5 + 6*z^6)*∂^3"
        " + (-792 + 744*z - 754*z^2 + 720*z^3 - 399*z^4 + 96*z^5 - 11*z^6)*∂^2"
        " + (1416 - 1660*z + 732*z^2 - 112*z^3 + 78*z^4 - 28*z^5 + 6*z^6)*∂^1"
        " + (580 - 360*z - 146*z^2 + 48*z^3 - 13*z^4 - z^6)",
    "combo J0 [1,2]":
        "(64*z^2 - 272*z^4 - 48*z^5 + 468*z^6 - 216*z^7 + 36*z^8)*∂^4"
        " + (256*z - 544*z^3 - 48*z^4 + 216*z^6 - 72*z^7)*∂^3"
        " + (128 + 96*z + 64*z^2 + 264*z^3 - 1564*z^4 + 72*z^5 + 765*z^6"
        " - 270*z^7 + 45*z^8)*∂^2"
        " + (96 - 256*z - 216*z^2 + 1244*z^3 - 756*z^4 - 405*z^5 + 162*z^6"
        " - 45*z^7)*∂^1"
        " + (112 - 264*z - 560*z^2 + 918*z^3 + 85*z^4 - 24*z^5 + 162*z^6"
        " - 54*z^7 + 9*z^8)",
    "combo Si [1,2]":
        "(3584*z^2 - 12288*z^3 - 2944*z^4 + 17568*z^5 + 376*z^6 + 288*z^7"
        " + 828*z^8 - 216*z^9 + 36*z^10)*∂^6"
        " + (28672*z - 86016*z^2 - 17664*z^3 + 87840*z^4 + 1504*z^5 + 864*z^6"
        " + 1656*z^7 - 216*z^8)*∂^5"
        " + (43008 - 73728*z + 2048*z^2 - 33792*z^3 + 8784*z^4 + 25512*z^5"
        " - 2122*z^6 + 1248*z^7 + 1179*z^8 - 270*z^9 + 45*z^10)*∂^4"
        " + (73728 + 43520*z - 102144*z^2 - 14496*z^3 + 89016*z^4 + 10012*z^5"
        " - 2052*z^6 + 828*z^7 - 108*z^8)*∂^3"
        " + (4096 - 1536*z + 9472*z^2 - 17952*z^3 - 2504*z^4 + 14436*z^5"
        " + 760*z^6 + 168*z^7 + 297*z^8 - 54*z^9 + 9*z^10)*∂^2",
}


def _random_summand(rng):
    """A built-in, hypergeometric, rationally scaled or polynomial multiple."""
    base = rng.choice([ef_exp, ef_bessel_j0, ef_sin_integral])
    kind = rng.randrange(4)
    if kind == 0:
        return base()
    if kind == 1:
        up = [Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(rng.randint(0, 1))]
        low = [Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(len(up) + rng.randint(1, 2))]
        return ef_hypergeometric(up, low, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
    if kind == 2:
        return ef_scale(base(), Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3)))
    return ef_mul_poly(base(), Polynomial([rng.randint(-3, 3) for _ in range(3)] + [1]))


class TestSumOperator:
    """ef_sum's operator is the least common left multiple of the two."""

    def test_annihilates_each_summand(self):
        rng = random.Random(20261018)
        for _ in range(14):
            f, g = _random_summand(rng), _random_summand(rng)
            s = ef_sum(f, g)
            assert 1 <= s.order <= f.order + g.order
            for h in (f, g):
                taylor = [h.series_coefficient(n) for n in range(100)]
                img = op_apply(s.annihilator, taylor, 100 - s.order)
                assert all(v == 0 for v in img.values()), (f, g)
            for n in range(100):
                assert s.coefficient(n) == f.coefficient(n) + g.coefficient(n)

    def test_same_operand_gives_its_own_operator(self):
        for f in (ef_exp(), ef_bessel_j0(), ef_sin_integral()):
            assert ef_sum(f, f).annihilator == f.annihilator
        # the hypergeometric operator carries a factor z, which L drops
        f = ef_hypergeometric([Fraction(1, 3)], [Fraction(1, 2), 1], 5)
        s = ef_sum(f, f)
        assert s.annihilator.shift_z(1) == f.annihilator
        assert all(s.coefficient(n) == 2 * f.coefficient(n) for n in range(30))

    def test_pinned_operators(self):
        built = {
            "exp+J0": lambda: ef_sum(ef_exp(), ef_bessel_j0()),
            "combo exp [1,2]": lambda: ef_lagrange_combo(ef_exp(), [1, 2]),
            "combo exp [1,2,3]": lambda: ef_lagrange_combo(ef_exp(), [1, 2, 3]),
            "combo J0 [1,2]": lambda: ef_lagrange_combo(ef_bessel_j0(), [1, 2]),
            "combo Si [1,2]": lambda: ef_lagrange_combo(ef_sin_integral(), [1, 2]),
        }
        for name, make in built.items():
            start = time.perf_counter()
            assert op_to_text(make().annihilator) == PINNED_SUMS[name], name
            # the coefficient-stream ansatz took about 70 s on the Si combination
            assert time.perf_counter() - start < 10, name


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


def growth_by_hand(f, terms):
    """max |a_n|^(1/n) over 1 <= n < terms, the estimate `growth_check`
    returns, from the coefficients as Fractions (`_abs_root`)."""
    return max((_abs_root(a, n) for n, a in enumerate(f.coefficients(terms)) if n and a),
               default=0.0)


def random_strided_efunction(rng):
    """A random function whose recurrence links only indices 2 apart (in
    every monomial z^a D^b, b - a has the parity of the order), with the
    seeds of one residue class mod 2 zero."""
    while True:
        order = rng.randint(1, 3)
        coeffs = [Polynomial([random_fraction(rng) if (b - a - order) % 2 == 0 else 0
                              for a in range(4)]) for b in range(order + 1)]
        coeffs[order] = coeffs[order] + Polynomial((rng.choice([1, -2, 3]),))
        c = rng.randint(0, 1) if order > 1 else 0
        seeds = [random_fraction(rng) if n % 2 == c else 0 for n in range(order)]
        seeds[c] = seeds[c] or Fraction(1)
        try:
            f = EFunction(DiffOperator.from_poly_coeffs(coeffs), seeds)
        except InputError:
            continue
        if f.stride == 2 and len(f.residue_classes) == 1:
            return f


class TestGrowth:
    def test_negative_coeff_bound_rejected(self):
        # |a_1| <= C holds for no C < 0; a bound in [0, 1) is rounded up to 1
        op = DiffOperator.from_poly_coeffs([-2, 1])
        for bound in (-5, Fraction(-1, 3)):
            with pytest.raises(InputError, match="coefficient bound must be nonnegative"):
                EFunction(op, [1], coeff_bound=bound)
        for bound in (0, Fraction(1, 2)):
            assert EFunction(op, [1], coeff_bound=bound).coeff_bound == 1

    def test_builtin_growth_plausible(self):
        # |a_n| <= 1 for exp, J0 and Si, and a_1 = 1 for exp and Si
        assert growth_check(ef_exp(), terms=60) == 1.0
        assert growth_check(ef_sin_integral(), terms=60) == 1.0
        # J0: |a_2m| = binom(2m, m) / 4^m, whose 2m-th root climbs towards 1
        assert 0.96 < growth_check(ef_bessel_j0(), terms=60) < 1
        for f in (ef_exp(), ef_bessel_j0(), ef_sin_integral()):
            assert growth_check(f, terms=60) == growth_by_hand(f, 60)
        # at least 8 terms are read
        assert growth_check(ef_bessel_j0(), terms=1) == growth_by_hand(ef_bessel_j0(), 8)

    def test_growth_flags_factorial_blowup(self):
        # (1 - z) f' = f: c_n = 1, so a_n = n! and the estimate is 59!^(1/59)
        op = DiffOperator.from_poly_coeffs([Polynomial((-1,)), Polynomial((1, -1))])
        g = EFunction(op, [1], name="geom", coeff_bound=None)
        assert growth_check(g, terms=60) == float(math.factorial(59)) ** (1.0 / 59)
        assert growth_check(g, terms=60) == pytest.approx(22.82, abs=0.01)

    def test_growth_past_the_float_range(self):
        # exp(10^6 z): |a_n| = 10^(6n) passes 1e308 from n = 52 on, so its
        # quotient overflows and its root does not
        op = DiffOperator.from_poly_coeffs([Polynomial((-10**6,)), Polynomial.one()])
        f = EFunction(op, [1], name="e6")
        assert growth_check(f) == growth_by_hand(f, 80) == pytest.approx(1e6, rel=1e-9)
        # a root beyond the float range reads as unbounded, also over a
        # negative denominator row ((-1) f' + f = 0)
        op = DiffOperator.from_poly_coeffs([Polynomial((-1,)), Polynomial.one()])
        assert growth_check(EFunction(op, [10**400], name="big")) == math.inf
        neg = DiffOperator.from_poly_coeffs([Polynomial((1,)), Polynomial((-1,))])
        assert growth_check(EFunction(neg, [-10**400], name="neg")) == math.inf
        # a zero function has no estimate to give
        assert growth_check(EFunction(op, [0], name="zero")) == 0.0

    def test_matches_the_fraction_reference(self):
        # the integer pairs of each class give the floats the coefficients
        # as Fractions give; a coefficient the recurrence leaves free below
        # 80 raises in both, at the same index
        rng = random.Random(41)
        functions = [random_efunction(rng, check_terms=8) for _ in range(400)]
        functions += [random_strided_efunction(rng) for _ in range(60)]
        raised = 0
        for f in functions:
            try:
                want = growth_by_hand(f, 80)
            except UnsupportedOperationError as exc:
                raised += 1
                with pytest.raises(UnsupportedOperationError, match=str(exc)):
                    growth_check(f)
                continue
            assert growth_check(f) == want, f.annihilator
        assert raised < 40



def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def planted_band(lc, roots, extra):
    """lc * prod (t - r) * extra(t), coefficients ascending."""
    band = [lc]
    for r in roots:
        band = _poly_mul(band, [-r, 1])
    return _poly_mul(band, list(extra))


def planted_operator(band, lower):
    """An operator whose leading band (shift 1) is (t + 1) band(t), plus
    a term c z^(a+b) D^b, of shift -a <= 0, for each (a, b, c) in `lower`.

    z^(b-1) D^b gives the band (t + 1) t ... (t + 2 - b), so the leading
    band's coefficients in that basis are the forward differences at
    s = t + 1 = 0 of P(s) = s band(s - 1), divided by b!."""
    full = _poly_mul([1, 1], band)
    deg = len(full) - 1
    values = [sum(c * (s - 1) ** i for i, c in enumerate(full)) for s in range(deg + 1)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [y - x for x, y in zip(values, values[1:])]
    assert diffs[0] == 0
    order = max([deg] + [b for _, b, _ in lower])
    coeffs = [[0] * (order + 4) for _ in range(order + 1)]
    for b in range(1, deg + 1):
        coeffs[b][b - 1] += Fraction(diffs[b], math.factorial(b))
    for a, b, c in lower:
        coeffs[b][a + b] += c
    return DiffOperator.from_poly_coeffs(coeffs)


def first_failing_row(op, seeds):
    """The row t the seed check must reject, by Fractions: the first row
    within the seeds that does not vanish, else the row of the first free
    index past them (checked up to index 60) when it does not; None when
    the seeds are consistent."""
    bands, jmax, _ = reference_bands(op)
    c = list(seeds)
    for m in range(jmax, 61):
        t = m - jmax
        rest = sum(p(Fraction(t)) * c[t + j] for j, p in bands.items() if j != jmax and t + j >= 0)
        lead = bands[jmax](Fraction(t))
        if m < len(seeds):
            if lead * c[m] + rest != 0:
                return t
        elif lead:
            c.append(-rest / lead)
        else:
            return t if rest else None
    return None


def as_initial(seeds):
    """Initial coefficients a_n = c_n n! of Taylor coefficients c_n."""
    return [c * math.factorial(n) for n, c in enumerate(seeds)]


def assert_free_indices_agree(f):
    """Free indices, the raised index and its message, against the Cauchy
    scan, for every 0 <= lo < hi <= 60."""
    offset = f.recurrence.offset
    scan = [m for m in range(offset, 61) if not sum(
        c * (m - offset) ** i for i, c in enumerate(f.rows[0]))]
    assert [m for m in f.free_indices if m <= 60] == scan
    for lo in range(60):
        for hi in range(lo + 1, 61):
            try:
                cauchy_check_determined(f, lo, hi)
                want = None
            except UnsupportedOperationError as err:
                want = str(err)
            try:
                f.check_determined(lo, hi)
                got = None
            except UnsupportedOperationError as err:
                got = str(err)
            assert got == want, (lo, hi)


FREE_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])
ROOTS = st.lists(st.integers(-5, 20), max_size=4)
# integer, non-integer and complex roots that plant nothing
EXTRAS = st.sampled_from([(1,), (-5, 2), (3, 0, 1), (7, 1), (-7, 3), (2, -3, 1)])
LOWER = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)), max_size=3)


class TestFreeIndices:
    """One rule, `_band_roots`, decides the coefficients a recurrence
    leaves free; it agrees with the two rules it replaced: a scan up to
    Cauchy's root bound, and isolating every root of the leading band."""

    @FREE_PROPERTY
    @given(lc=st.sampled_from([1, -1, 2, -3]), roots=ROOTS, extra=EXTRAS)
    def test_planted_roots(self, lc, roots, extra):
        band = planted_band(lc, roots, extra)
        if extra == (2, -3, 1):
            # (t - 1)(t - 2)
            roots = roots + [1, 2]
        with mock.patch.object(efunction, "isolate_roots",
                               wraps=efunction.isolate_roots) as spy:
            got = _band_roots(band)
        assert got == sorted({r for r in roots if r >= 0})
        # Descartes: one sign throughout leaves no positive root to isolate
        assert spy.called == (len({c > 0 for c in band if c}) == 2)

    @FREE_PROPERTY
    @given(band=st.tuples(st.sampled_from([1, -1, 2, -3]),
                          st.lists(st.integers(-5, 20), min_size=1, max_size=3), EXTRAS),
           lower=LOWER, extra_seeds=st.integers(-3, 2),
           consistent=st.sampled_from([True, True, False]),
           seed=st.integers(0, 2**32))
    def test_planted_operators(self, band, lower, extra_seeds, consistent, seed):
        rng = random.Random(seed)
        op = planted_operator(planted_band(*band), lower)
        assert _seed_length(op) == isolated_seed_length(op)
        count = max(op.order, _seed_length(op) + extra_seeds)
        if consistent:
            seeds = consistent_seeds(op, count, rng)
        else:
            seeds = [random_fraction(rng) for _ in range(count)]
        row = first_failing_row(op, seeds)
        if row is not None:
            with pytest.raises(InputError, match=f"violate the recurrence at row {row}$"):
                EFunction(op, as_initial(seeds), name="g")
            return
        assert_free_indices_agree(EFunction(op, as_initial(seeds), name="g"))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32), closure=st.sampled_from(
        ["scale", "mul_poly", "sum", "lagrange"]))
    def test_random_operators_and_closures(self, seed, closure):
        rng = random.Random(seed)
        op = random_operator(rng, max_order=2, max_degree=2)
        f = EFunction(op, as_initial(consistent_seeds(op, op.order, rng)), name="f")
        assert_free_indices_agree(f)
        # (t + 1)(t - r) leads, and -z f trails
        planted = planted_operator(planted_band(1, [rng.randrange(-5, 8)], (1,)), [(1, 0, -1)])
        g = EFunction(planted, as_initial(consistent_seeds(planted, _seed_length(planted), rng)),
                      name="g")
        assert_free_indices_agree(g)
        base = rng.choice([ef_exp(), ef_bessel_j0(), f, g])
        if closure == "scale":
            h = ef_scale(base, Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 4)))
        elif closure == "mul_poly":
            h = ef_mul_poly(base, Polynomial([0] * rng.randrange(0, 4) + [rng.choice([1, -2])]))
        elif closure == "sum":
            h = ef_sum(base, rng.choice([ef_exp(), ef_bessel_j0(), g]))
        else:
            h = ef_lagrange_combo(rng.choice([ef_exp(), ef_bessel_j0()]), [1, Fraction(-1, 2)])
        assert h.seed_count == isolated_seed_length(h.annihilator)
        assert_free_indices_agree(h)

    def test_first_free_row_of_inconsistent_seeds(self):
        # z f'' - (3 + z) f' - f: band (t + 1)(t - 3); rows 0-2 give
        # c_3 = -1/2 from these seeds, row 3 asks for c_3 = 0
        with pytest.raises(InputError, match="violate the recurrence at row 3$"):
            EFunction(op_from_text("(z)*D^2 + (-3-z)*D^1 + (-1)"), ["3", "-1"])
        f = EFunction(op_from_text("(z)*D^2 + (-3-z)*D^1 + (-1)"), ["0", "0"])
        assert f.free_indices == [4] and f.first_free_index == 4
        # given a_4 too, no index past the seeds is free
        g = EFunction(op_from_text("(z)*D^2 + (-3-z)*D^1 + (-1)"), ["0", "0", "0", "0", "1"])
        assert g.first_free_index is None

    def test_free_index_beyond_every_sum_is_not_checked(self):
        # band (t + 1)(t - 10^9): index 10^9 + 1 is free, past MAX_TERMS + 1,
        # so its row is never advanced to
        f = EFunction(op_from_text("(z)*D^2 + (-1000000000)*D^1 + (-1)"), ["1", "-1/1000000000"])
        assert f.free_indices == [10**9 + 1] > [MAX_TERMS + 1]
        assert f.first_free_index is None
        with pytest.raises(PrecisionExceededError, match="1000000002 seed coefficients"):
            ef_scale(f, 2)

    def test_scale_reads_the_free_indices_of_f(self):
        # band (t + 1)(2t - 5) changes sign, so f isolates it when built;
        # the scaled function is handed f's free indices (none here) and
        # reads its seed count off them, with no isolation of its own
        f = EFunction(op_from_text("(2*z)*D^2 + (-5)*D^1 + (-1)"), ["1", "-1/5"])
        with mock.patch.object(efunction, "isolate_roots",
                               wraps=efunction.isolate_roots) as spy:
            g = ef_scale(f, 2)
        assert spy.call_count == 0
        isolated = [g.recurrence.offset + t for t in _band_roots(g.rows[0])]
        assert g.free_indices == f.free_indices == isolated
        assert g.seed_count == isolated_seed_length(g.annihilator)

    def test_a_zero_class_meets_its_free_row(self, monkeypatch):
        # the row of free index 400001 reads c_400000, in a class whose
        # seeds are zero, and coefficient 5 of z f'' - 4 f' - z f is odd
        monkeypatch.setattr(efunction._RecurrenceSum, "advance", None)
        f = EFunction(op_from_text("(z)*D^2 + (-400000)*D^1 + (-1)"), ["0", "0"])
        assert f.first_free_index == 400001
        f = EFunction(op_from_text("(z)*D^2 + (-4)*D^1 + (-z)"), ["1", "0"])
        assert f.first_free_index == 5 and f.stride == 2

    def test_seed_check_advances_by_binary_splitting(self, monkeypatch):
        # band (t + 1)(t - 3000): coefficient 3001 is free, and row 3000
        # reads 0 = c_3000, which these seeds make nonzero; the check
        # reaches it by one product past the two seeds, not term by term
        op = op_from_text("(z)*D^2 + (-3000)*D^1 + (-1)")
        pushed = []
        push = efunction._RecurrenceSum._push
        monkeypatch.setattr(efunction._RecurrenceSum, "_push",
                            lambda self, u: pushed.append(u) or push(self, u))
        with pytest.raises(InputError, match="row 3000$"):
            EFunction(op, ["1", "-1/3000"])
        assert len(pushed) == 2


class TestRandom:
    def test_random_efunctions_consistent(self):
        rng = random.Random(11)
        for _ in range(5):
            f = random_efunction(rng, check_terms=50)
            taylor = [f.series_coefficient(n) for n in range(120)]
            img = op_apply(f.annihilator, taylor, 40)
            assert all(v == 0 for v in img.values())


# strided operators whose recurrence leaves index `free` undetermined,
# given the seeds 1, 0: index 4 lies in the class that is run, index 5 in
# the odd class, whose seeds are zero
STRIDED_FREE = [("(z)*D^2 + (-3)*D^1 + (-2*z-z^3)", 4), ("(z)*D^2 + (-4)*D^1 + (-z)", 5)]


class TestCoefficientStream:
    """The binary-splitting engine streams the coefficients that the
    term-by-term Fraction loop over the recurrence gives, one residue class
    at a time."""

    def test_matches_the_term_loop(self):
        rng = random.Random(13)
        functions = [random_efunction(rng) for _ in range(6)] + [
            ef_hypergeometric([], ["-7/2", "1"]),
            ef_hypergeometric(["1/3"], ["1/2", "2/5"]),
            ef_hypergeometric(["-5/2"], ["-1/3", "7/2", "1"], Fraction(-2, 3)),
            ef_bessel_j0(),
            ef_sin_integral(),
            EFunction(op_from_text("(z)*D^2 + (1)*D^1 + (-z)"), ["1", "0"], name="I0"),
            EFunction(op_from_text("(1)*D^2 + (-4)"), ["1", "0"], name="cosh2"),
            EFunction(op_from_text("(1)*D^2 + (9)"), ["0", "3"], name="sin3"),
        ]
        for text, free in STRIDED_FREE:
            # seeds up to the free index, and a_free = 7 past them
            f = EFunction(op_from_text(text), ["1", "0"], name="g")
            with pytest.raises(UnsupportedOperationError, match=f"coefficient {free} of g "):
                reference_series(f, free + 1)
            functions.append(EFunction(op_from_text(text), f.coefficients(free) + [7], name="g"))
        assert [f.stride for f in functions[9:]] == [2] * 7
        for f in functions:
            stream = [f.series_coefficient(n) for n in range(120)]
            assert stream == reference_series(f, 120), f.name

    @pytest.mark.parametrize("text, initial, free", [
        (text, ["1", "0"], free) for text, free in STRIDED_FREE
    ] + [("(z)*D^2 + (-3-z)*D^1 + (-1)", ["0", "0"], 4)])
    def test_a_read_past_the_free_index_raises_there(self, text, initial, free):
        # in order, or first at an index past the free one, in either class
        message = (f"series coefficient {free} of g is not determined by the "
                   "recurrence; supply it as an initial coefficient")
        for reads in (range(free + 41), [free + 1], [free + 2], [free + 40]):
            f = EFunction(op_from_text(text), initial, name="g")
            with pytest.raises(UnsupportedOperationError) as err:
                for n in reads:
                    f.series_coefficient(n)
            assert str(err.value) == message

    def test_a_long_stream_keeps_reduced_integers(self):
        # read one at a time, the state of an order-3 recurrence is divided
        # by its content: its denominator divides the lcm of the reduced
        # terms' denominators, not the product of every den value
        f = EFunction(op_from_text("(1+z)*D^2 + (3)*D^1 + (-2-z)"), ["1", "2"], name="g")
        taylor = [f.series_coefficient(n) for n in range(400)]
        assert taylor[:60] == reference_series(f, 60)
        (stream,) = f._streams[1].values()
        assert math.lcm(*(c.denominator for c in taylor)) % stream._den == 0

    def test_j0_runs_one_class_sum(self, monkeypatch):
        # J0's odd coefficients are zero: reading 80 coefficients builds the
        # even class's sum alone, at stride 2, and never steps an odd index
        built = []
        init = efunction._RecurrenceSum.__init__
        monkeypatch.setattr(efunction._RecurrenceSum, "__init__",
                            lambda self, *args: built.append(args[4:]) or init(self, *args))
        f = ef_bessel_j0()
        assert f.coefficients(80) == [
            0 if n % 2 else Fraction((-1) ** (n // 2) * math.comb(n, n // 2), 2**n)
            for n in range(80)
        ]
        assert built == [(0, 2)]

    def test_degenerate_row_with_consistent_seeds(self):
        # z f'' - (3 + z) f' + 3 f is solved by e^z and by its Taylor
        # polynomial of degree 3; the leading band vanishes at t = 3, so
        # coefficient 4 is free
        op = op_from_text("(z)*D^2 + (-3-z)*D^1 + (3)")
        f = EFunction(op, ["1", "1"], name="g")
        assert f.coefficients(4) == [1, 1, 1, 1]
        with pytest.raises(UnsupportedOperationError,
                           match="series coefficient 4 of g is not determined"):
            f.coefficient(4)
        f = EFunction(op, [1, 1, 1, 1, 7], name="g")
        assert [f.coefficient(n) for n in range(4, 8)] == [7, 7, 7, 7]
        assert [f.series_coefficient(n) for n in range(40)] == reference_series(f, 40)


def _horner(coeffs, t):
    return sum(c * t**i for i, c in enumerate(coeffs))


def reference_sums(terms, rows, offset, x, n):
    """S_0, ..., S_n of sum u_m x^m, u_m from the recurrence one Fraction
    at a time: den(t) u_m = sum_d row_d(t) u_{m-d}, t = m - offset."""
    u = list(terms[:n])
    while len(u) < n:
        m = len(u)
        t = m - offset
        total = sum(_horner(rows[d], t) * u[m - d] for d in range(1, len(rows)) if m >= d)
        u.append(Fraction(total, _horner(rows[0], t)))
    sums = [Fraction(0)]
    for m, v in enumerate(u):
        sums.append(sums[-1] + v * x**m)
    return sums


class TestRecurrenceSum:
    """The binary-splitting engine against a term-by-term Fraction loop, on
    random integer recurrences of order 1, 2 and 3 at a negative point.
    The lengths reach the leaves' edges (_BLOCK steps) and the merges."""

    X = Fraction(-5, 3)
    LENGTHS = [1, 15, 16, 17, 33, 63, 64, 65, 129, 300]

    @staticmethod
    def _recurrence(rng, order):
        # den has positive coefficients, so no root at t >= 0
        rows = [[rng.randint(1, 4) for _ in range(rng.randint(1, 3))]]
        rows += [[rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] for _ in range(order)]
        terms = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(order, order + 2))]
        return terms, rows, rng.randint(0, len(terms))

    @classmethod
    def _engine(cls, terms, rows, offset):
        return efunction._RecurrenceSum(
            [c * cls.X**m for m, c in enumerate(terms)],
            efunction._scaled_rows(rows, cls.X), offset, "u")

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_the_term_loop(self, order):
        rng = random.Random(order)
        for _ in range(4):
            terms, rows, offset = self._recurrence(rng, order)
            ref = reference_sums(terms, rows, offset, self.X, max(self.LENGTHS) + 1)
            for n in self.LENGTHS:
                sums = self._engine(terms, rows, offset)
                sums.advance(n)
                assert sums.value() == ref[n], (rows, offset, n)
            sums = self._engine(terms, rows, offset)
            for n in (17, 300):
                sums.advance(n)
                assert sums.value() == ref[n], (rows, offset, n)
            num, den = sums.next_term()
            assert Fraction(num, den) == ref[301] - ref[300]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_a_root_of_den_stops_at_its_index(self, order):
        rng = random.Random(10 + order)
        terms, rows, offset = self._recurrence(rng, order)
        # den = (t - 40)(t - 45)(t + 1): the least root stops the sum
        rows[0] = [1800, 1715, -84, 1]
        m = 40 + offset
        message = (f"series coefficient {m} of u is not determined by the "
                   "recurrence; supply it as an initial coefficient")
        ref = reference_sums(terms, rows, offset, self.X, m)
        for pieces in ([300], [17, 300], [m + 1], [m, m + 1]):
            sums = self._engine(terms, rows, offset)
            for n in pieces[:-1]:
                sums.advance(n)
                assert sums.value() == ref[n]
            with pytest.raises(UnsupportedOperationError) as err:
                sums.advance(pieces[-1])
            assert str(err.value) == message
        sums = self._engine(terms, rows, offset)
        sums.advance(m)
        assert sums.value() == ref[m]
        with pytest.raises(UnsupportedOperationError) as err:
            sums.next_term()
        assert str(err.value) == message
        with pytest.raises(UnsupportedOperationError) as err:
            self._engine(terms, rows, offset).term(m)
        assert str(err.value) == message

    def test_an_index_before_the_offset_stops_at_once(self):
        terms = [Fraction(1), Fraction(2)]
        for read in (lambda sums: sums.advance(300), lambda sums: sums.next_term()):
            sums = efunction._RecurrenceSum(terms, [[1], [1]], 5, "u")
            sums.advance(2)
            with pytest.raises(UnsupportedOperationError, match="series coefficient 2 of u "):
                read(sums)


class TestLeafBlock:
    """A leaf of the splitting tree, `_RecurrenceSum._block`, in fraction-free
    form, against the companion-matrix steps it replaced (`companion_block`):
    the same (A, b, den), integer for integer."""

    @staticmethod
    def _assert_block_matches(sums, lo, hi):
        assert sums._block(lo, hi) == companion_block(*sums._steps(lo, hi)), (lo, hi)

    @pytest.mark.parametrize("order", range(6))
    def test_random_rows(self, order):
        rng = random.Random(30 + order)
        for _ in range(12):
            # den has positive coefficients, so no root at t >= 0; a row may
            # be zero ([]), as the rows of a strided recurrence's bands are
            rows = [[rng.randint(1, 9) for _ in range(rng.randint(1, 4))]]
            rows += [[] if rng.random() < 0.25 else
                     [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                     for _ in range(order)]
            sums = efunction._RecurrenceSum([], rows, 0, "u")
            lengths = list(range(1, order + 2)) + [rng.randint(order + 2, 70), 64, 70]
            for length in lengths:
                lo = rng.randint(0, 100)
                self._assert_block_matches(sums, lo, lo + length)

    def test_the_leaves_of_order_2_and_4_sums(self, monkeypatch):
        # zexp and expmix at the bench's eval points, and the interpolated
        # combination of exp at 1 and 2 of the demo (order 4)
        leaves = []
        block = efunction._RecurrenceSum._block

        def spy(sums, lo, hi):
            ours = block(sums, lo, hi)
            leaves.append((len(sums._rows) - 1, ours, companion_block(*sums._steps(lo, hi))))
            return ours

        monkeypatch.setattr(efunction._RecurrenceSum, "_block", spy)
        zexp = EFunction(op_from_text("(1+z)*D^1 + (-2-z)"), [1, 2], coeff_bound=2)
        expmix = EFunction(op_from_text("(1)*D^2 + (1)*D^1 + (-2)"), [2, -1], coeff_bound=3)
        for f in (zexp, expmix):
            for whole, digits in [(0, 300), (2, 250), (5, 200), (19, 250)]:
                for a in (3, 4):
                    eval_efunction(f, whole + Fraction(a, 7), digits)
        combo = ef_lagrange_combo(ef_exp(), [1, 2])
        for x in (1, 2):
            eval_efunction(combo, x, 60)
        orders = [order for order, _, _ in leaves]
        assert orders.count(2) >= 40 and orders.count(4) >= 6
        for order, ours, theirs in leaves:
            assert ours == theirs, order
