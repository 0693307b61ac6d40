"""Entire-series containers: coefficient streams, constructors, closure ops."""

import math
import random
import time
from fractions import Fraction

import pytest

from elindep.algebraic import alg_nth_root
from elindep.diffop import (
    DiffOperator,
    op_apply,
    op_from_text,
    op_to_text,
    recurrence_from_ode,
)
from elindep.efunction import (
    EFunction,
    _singular_seed_length,
    HypergeometricParams,
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
from elindep.polynomials import Polynomial

from support import random_efunction, reference_series


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

    def test_seeds_reach_past_every_free_index(self):
        # b = -7/2 leaves c_9 free (9 = 2(1 - b)); 8 seeds stopped short of it
        f = ef_hypergeometric([], ["-7/2", "1"])
        want = Fraction(1)
        for n in range(8):
            assert f.series_coefficient(2 * n) == want
            want /= (Fraction(-7, 2) + n) * (1 + n)
        assert f.coefficient(9) == 0

    def test_seed_count_is_the_singular_seed_length(self):
        # the closed form must agree with isolating the leading band's roots
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
            assert f.seed_count == _singular_seed_length(f.annihilator)

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
        for upper, lower, bound in (([], ["-7/2", 1], Fraction(637272064, 7)),
                                    (["1/3"], ["1/2", "2/5"], 16)):
            f = ef_hypergeometric(upper, lower)
            assert ef_scale(f, 2).coeff_bound == 2 * bound

    def test_a_31_digit_parameter_builds_and_fails_closures_at_once(self):
        start = time.perf_counter()
        f = ef_hypergeometric([], [self.BIG_B, 1])
        assert f.seed_count == 10**30 + 4 and f.order == 3
        for closure in (lambda: ef_scale(f, 2),
                        lambda: ef_sum(f, ef_exp()),
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
            assert _singular_seed_length(op) == want, c
        # z^2 D^3 - 6 z D^2 + 10 D - 1: band (t + 1)(t - 2)(t - 5), two roots
        op = DiffOperator.from_poly_coeffs([-1, 10, [0, -6], [0, 0, 1]])
        band = recurrence_from_ode(op).bands()[1]
        assert band == Polynomial((1, 1)) * Polynomial((-2, 1)) * Polynomial((-5, 1))
        assert _singular_seed_length(op) == 7

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


    def test_growth_past_the_float_range(self):
        # exp(10^6 z): |a_n| = 10^(6n) passes 1e308 from n = 52 on
        op = DiffOperator.from_poly_coeffs([Polynomial((-10**6,)), Polynomial.one()])
        rep = growth_check(EFunction(op, [1], name="e6"))
        assert rep.coeff_growth_estimate == pytest.approx(1e6, rel=1e-9)
        # a root beyond the float range reads as unbounded
        op = DiffOperator.from_poly_coeffs([Polynomial((-1,)), Polynomial.one()])
        rep = growth_check(EFunction(op, [10**400], name="big"))
        assert rep.coeff_growth_estimate == math.inf
        assert not rep.plausible_e_function


class TestRandom:
    def test_random_efunctions_consistent(self):
        rng = random.Random(11)
        for _ in range(5):
            f = random_efunction(rng, check_terms=50)
            taylor = [f.series_coefficient(n) for n in range(120)]
            img = op_apply(f.annihilator, taylor, 40)
            assert all(v == 0 for v in img.values())


class TestCoefficientStream:
    """The binary-splitting engine streams the coefficients that the
    term-by-term Fraction loop over the recurrence gives."""

    def test_matches_the_term_loop(self):
        rng = random.Random(13)
        functions = [random_efunction(rng) for _ in range(6)] + [
            ef_hypergeometric([], ["-7/2", "1"]),
            ef_hypergeometric(["1/3"], ["1/2", "2/5"]),
            ef_hypergeometric(["-5/2"], ["-1/3", "7/2", "1"], Fraction(-2, 3)),
        ]
        for f in functions:
            stream = [f.series_coefficient(n) for n in range(120)]
            assert stream == reference_series(f, 120), f.name

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
