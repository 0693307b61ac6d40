"""Rigorous evaluation balls and the integer-relation falsifier."""

import random
from fractions import Fraction

import mpmath
import pytest

from elindep.balls import Ball
from elindep.criterion import certify_multi, certify_si_integrals, certify_single
from elindep.efunction import (
    HypergeometricParams,
    ef_bessel_j0,
    ef_exp,
    ef_lagrange_combo,
    ef_sin_integral,
)
from elindep.errors import InputError, PrecisionExceededError
from elindep.lattice import lll_reduce
from elindep.numeric import (
    MAX_TERMS,
    eval_efunction,
    eval_hypergeometric_value,
    falsify,
    find_integer_relation,
)
from elindep.rationals import sci_upper

from support import mp_direct_sum


def mpf_frac(x, n=55):
    # enough digits that the decimal conversion error sits far below the
    # radii compared against (evaluations run at <= 45 digits here)
    return Fraction(mpmath.nstr(x, n, strip_zeros=False))


class TestEvalEFunction:
    def test_exact_at_zero(self):
        b = eval_efunction(ef_exp(), 0, 30)
        assert b.re == 1 and b.rad == 0

    def test_exp_against_mpmath(self):
        for pt in (1, 2, Fraction(1, 2), -3):
            b = eval_efunction(ef_exp(), pt, 40)
            with mpmath.workdps(60):
                truth = mpf_frac(mpmath.exp(mpmath.mpf(pt.numerator if isinstance(pt, Fraction) else pt)
                                            / (pt.denominator if isinstance(pt, Fraction) else 1)))
            assert abs(b.re - truth) <= b.rad
            assert b.rad <= Fraction(1, 10**39)
            assert not b.heuristic_tail

    def test_bessel_against_mpmath(self):
        b = eval_efunction(ef_bessel_j0(), 2, 35)
        with mpmath.workdps(60):
            truth = mpf_frac(mpmath.besselj(0, 2))
        assert abs(b.re - truth) <= b.rad

    def test_sin_integral_against_mpmath(self):
        b = eval_efunction(ef_sin_integral(), 1, 35)
        with mpmath.workdps(60):
            truth = mpf_frac(mpmath.si(1))
        assert abs(b.re - truth) <= b.rad

    def test_direct_sum_oracle_containment(self):
        rng = random.Random(23)
        for f in (ef_exp(), ef_bessel_j0(), ef_sin_integral()):
            for _ in range(3):
                pt = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
                b = eval_efunction(f, pt, 30)
                truth = Fraction(mpmath.nstr(mp_direct_sum(f.coefficient, pt, 200),
                                             120, strip_zeros=False))
                assert abs(b.re - truth) <= b.rad + Fraction(1, 10**100)

    def test_radius_shrinks_with_digits(self):
        b30 = eval_efunction(ef_exp(), 1, 30)
        b90 = eval_efunction(ef_exp(), 1, 90)
        assert b90.rad < b30.rad
        assert abs(b30.re - b90.re) <= b30.rad + b90.rad

    def test_heuristic_path_flagged(self):
        from elindep.efunction import EFunction

        f = EFunction(ef_exp().annihilator, [1], name="nb", coeff_bound=None)
        b = eval_efunction(f, 1, 25)
        assert b.heuristic_tail
        with mpmath.workdps(40):
            truth = mpf_frac(mpmath.e)
        assert abs(b.re - truth) <= b.rad

    def test_over_budget_fails_before_summing(self):
        from elindep.efunction import EFunction

        unbounded = EFunction(ef_exp().annihilator, [1], name="nb", coeff_bound=None)
        for f in (ef_exp(), unbounded):
            with pytest.raises(PrecisionExceededError):
                eval_efunction(f, MAX_TERMS, 5)
            # far beyond float range: the budget test stays exact
            with pytest.raises(PrecisionExceededError):
                eval_efunction(f, 10**400, 5)
        params = HypergeometricParams((), (Fraction(1),), Fraction(1))
        with pytest.raises(PrecisionExceededError):
            eval_hypergeometric_value(params, 10**7, 5)

    def test_irrational_point_rejected(self):
        from elindep.algebraic import alg_nth_root
        from elindep.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            eval_efunction(ef_exp(), alg_nth_root(2, 2), 20)


class TestEvalHypergeometric:
    def test_exp_parameters(self):
        params = HypergeometricParams((), (Fraction(1),), Fraction(1))
        b = eval_hypergeometric_value(params, 1, 40)
        with mpmath.workdps(60):
            truth = mpf_frac(mpmath.e)
        assert abs(b.re - truth) <= b.rad

    def test_bessel_parameters(self):
        # F(x) with lower (1,1), scale -1/4 at x = 4 equals J0(2)
        params = HypergeometricParams((), (Fraction(1), Fraction(1)), Fraction(-1, 4))
        b = eval_hypergeometric_value(params, 4, 40)
        with mpmath.workdps(60):
            truth = mpf_frac(mpmath.besselj(0, 2))
        assert abs(b.re - truth) <= b.rad

    def test_general_parameters_against_mpmath(self):
        params = HypergeometricParams((Fraction(1, 2),), (Fraction(1, 3), Fraction(2)), Fraction(3, 2))
        b = eval_hypergeometric_value(params, Fraction(5, 7), 35)
        with mpmath.workdps(60):
            # this series has no implicit n!: cancel mpmath's with an upper 1
            truth = mpf_frac(mpmath.hyper([mpmath.mpf(1) / 2, 1],
                                          [mpmath.mpf(1) / 3, 2],
                                          mpmath.mpf(3) / 2 * mpmath.mpf(5) / 7))
        assert abs(b.re - truth) <= b.rad

    def test_negative_argument(self):
        params = HypergeometricParams((), (Fraction(1),), Fraction(1))
        b = eval_hypergeometric_value(params, -10, 40)
        with mpmath.workdps(60):
            truth = mpf_frac(mpmath.exp(-10))
        assert abs(b.re - truth) <= b.rad


class TestSciUpper:
    def test_below_float_range(self):
        assert sci_upper(Fraction(1, 10**400)) == "1.000e-400"
        assert sci_upper(Fraction(8957_1, 10**405)) == "8.958e-401"
        assert sci_upper(-Fraction(1, 10**320)) == "-1.000e-320"

    def test_beyond_decimal_string_limit(self):
        # numerator or denominator longer than 4300 decimal digits
        assert sci_upper(Fraction(2881_1, 10**5005)) == "2.882e-5001"
        assert sci_upper(Fraction(3 * 10**5000 + 1)) == "3.001e+5000"

    def test_rounds_up(self):
        assert sci_upper(Fraction(10**5 + 1, 10**10)) == "1.001e-5"
        assert sci_upper(Fraction(1, 3)) == "3.334e-1"
        assert sci_upper(Fraction(9999_9, 10**4)) == "1.000e+1"
        assert sci_upper(Fraction(1000)) == "1.000e+3"


class TestIntegerRelation:
    def exp_ball(self, digits):
        return eval_efunction(ef_exp(), 1, digits)

    def one_ball(self):
        return Ball.point(1)

    def test_planted_relation_found(self):
        # 1 - e + (e - 1) = 0; balls need radius below the search guard
        e = self.exp_ball(55)
        em1 = e - Ball.point(1)
        rep = find_integer_relation([Ball.point(1), e, em1], 100, 40)
        assert rep.found
        c = rep.coefficients
        assert c is not None
        # up to sign: (1, -1, 1)
        assert [abs(x) for x in c] == [1, 1, 1]
        assert c[1] == -c[0] and c[2] == c[0]

    def test_planted_relations_random(self):
        rng = random.Random(71)
        e = self.exp_ball(58)
        for _ in range(8):
            p = rng.randrange(-20, 21)
            q = rng.randrange(1, 20)
            # value v = p + q e: relation p * 1 + q * e - v = 0
            v = e.scaled(q) + Ball.point(p)
            rep = find_integer_relation([Ball.point(1), e, v], 200, 40)
            assert rep.found
            c = rep.coefficients
            # c0 + c1 e + c2 (p + q e) = 0 forces c = t(p, q, -1)
            assert c[2] != 0
            t = -c[2]
            assert c[0] == t * p and c[1] == t * q

    def test_no_relation_excluded(self):
        e = self.exp_ball(65)
        rep = find_integer_relation([Ball.point(1), e], 10**6, 50)
        assert not rep.found
        assert rep.excluded
        assert rep.min_lattice_norm is not None

    def test_fat_radius_rejected(self):
        fat = Ball(Fraction(1), Fraction(0), Fraction(1, 100))
        with pytest.raises(InputError):
            find_integer_relation([fat, Ball.point(1)], 10, 40)

    def test_low_precision_neither_found_nor_excluded(self):
        # two digits cannot exclude relations with million-size coefficients
        e = eval_efunction(ef_exp(), 1, 14)
        with pytest.raises(PrecisionExceededError):
            find_integer_relation([Ball.point(1), e], 10**12, 2)

    def test_complex_values(self):
        # i and 2i are related: 2*(i) - (2i) = 0
        i = Ball(Fraction(0), Fraction(1), Fraction(1, 10**55))
        two_i = Ball(Fraction(0), Fraction(2), Fraction(1, 10**55))
        rep = find_integer_relation([i, two_i], 50, 40)
        assert rep.found
        a, b = rep.coefficients
        assert a == -2 * b or b == -a // 2 or (abs(a), abs(b)) == (2, 1)


class TestLLL:
    def test_reduces_planted_short_vector(self):
        rng = random.Random(5)
        for _ in range(5):
            m = 4
            big = 10**8
            target = [rng.randrange(-3, 4) for _ in range(m)]
            if all(t == 0 for t in target):
                target[0] = 1
            # basis: identity + one huge column orthogonal to target
            rows = []
            for i in range(m):
                rows.append([Fraction(1 if j == i else 0) for j in range(m)]
                            + [Fraction(big * target[i])])
            reduced, min_norm = lll_reduce(rows)
            norms = [sum(x * x for x in r) for r in reduced]
            assert min(norms) <= sum(t * t for t in target) * 2
            assert min_norm > 0

    def test_rejects_dependent_rows(self):
        with pytest.raises(InputError):
            lll_reduce([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


class TestFalsify:
    def test_negative_control_certified(self):
        cert = certify_single(ef_exp(), [1, 2])
        rep = falsify(cert, digits=40, coeff_bound=1000)
        assert not rep.found
        assert rep.excluded
        assert not rep.contradiction

    def test_planted_dependence_found_without_contradiction(self):
        # the interpolated combination takes equal values at 1 and 2, and
        # its certificate is Inconclusive, so the relation is consistent
        g = ef_lagrange_combo(ef_exp(), [1, 2])
        cert = certify_multi([g, g], [1, 2])
        assert cert.verdict == "Inconclusive"
        rep = falsify(cert, digits=40, coeff_bound=1000)
        assert rep.found
        assert not rep.contradiction
        c = rep.coefficients
        # relation 0*1 + v - v = 0
        assert c[0] == 0 and c[1] == -c[2]

    def test_zero_point_skipped(self):
        cert = certify_single(ef_exp(), [0])
        rep = falsify(cert, digits=30, coeff_bound=100)
        assert rep.skipped
        assert any("0" in n for n in rep.notices)

    def test_si_integrals_clean(self):
        cert = certify_si_integrals([(1, 2), (3, 4)])
        rep = falsify(cert, digits=35, coeff_bound=100)
        assert not rep.found
        assert not rep.contradiction

    def test_hypergeometric_values(self):
        from elindep.criterion import certify_hypergeometric

        cert = certify_hypergeometric(
            [HypergeometricParams((), (Fraction(1),), Fraction(1)),
             HypergeometricParams((), (Fraction(1), Fraction(1)), Fraction(-1, 4))],
            [Fraction(1, 2), 1],
        )
        rep = falsify(cert, digits=40, coeff_bound=1000)
        assert not rep.found
        assert not rep.contradiction
