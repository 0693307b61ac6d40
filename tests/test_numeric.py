"""Rigorous evaluation balls and the integer-relation falsifier."""

import functools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elindep import efunction, numeric
from elindep.balls import Ball
from elindep.criterion import (
    certify_hypergeometric,
    certify_multi,
    certify_si_integrals,
    certify_single,
)
from elindep.diffop import op_from_text
from elindep.efunction import (
    EFunction,
    HypergeometricParams,
    ef_bessel_j0,
    ef_exp,
    ef_hypergeometric,
    ef_lagrange_combo,
    ef_scale,
    ef_sin_integral,
    ef_sum,
    growth_check,
)
from elindep.errors import InputError, PrecisionExceededError, UnsupportedOperationError
from elindep.lattice import lll_reduce
from elindep.numeric import (
    MAX_TERMS,
    _truncation,
    eval_efunction,
    eval_hypergeometric_value,
    falsify,
    find_integer_relation,
)
from elindep.rationals import parse_decimal, sci_rounded, sci_upper

from support import mp_direct_sum, reference_series


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

    def test_over_budget_fails_before_summing(self, monkeypatch):
        from elindep.efunction import EFunction

        unbounded = EFunction(ef_exp().annihilator, [1], name="nb", coeff_bound=None)
        for f in (ef_exp(), unbounded):
            with pytest.raises(PrecisionExceededError):
                eval_efunction(f, MAX_TERMS, 5)
            # far beyond float range: the budget test stays exact
            with pytest.raises(PrecisionExceededError):
                eval_efunction(f, 10**400, 5)

        # at 10^7, n1 = 2 K0 |x| = 4 * 10^7 > MAX_TERMS + 1: the rule stops
        # at its start, before it reads any term off the sum
        def summing(*args):
            raise AssertionError("summed")

        monkeypatch.setattr(efunction._RecurrenceSum, "advance", summing)
        monkeypatch.setattr(efunction._RecurrenceSum, "next_term", summing)
        params = HypergeometricParams((), (Fraction(1),), Fraction(1))
        with pytest.raises(PrecisionExceededError, match="series truncation beyond"):
            eval_hypergeometric_value(params, 10**7, 5)

    def test_irrational_point_rejected(self):
        from elindep.algebraic import alg_nth_root
        from elindep.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            eval_efunction(ef_exp(), alg_nth_root(2, 2), 20)


def reference_sum(f, x, terms):
    """The term-by-term Fraction sum that binary splitting replaces, over
    coefficients from the Fraction loop of the recurrence."""
    total = Fraction(0)
    for n, c in enumerate(reference_series(f, terms)):
        total += c * x**n
    return total


def reference_truncation(y, digits):
    """The stopping rule term by term: least N >= 1 with N + 1 > 2y and
    2 y^N / N! < 10^-digits, and that bound."""
    n, tail = 1, y
    while not (n + 1 > 2 * y and 2 * tail < Fraction(1, 10**digits)):
        n += 1
        tail = tail * y / n
    return n, 2 * tail


def reference_heuristic(f, x, digits):
    """The heuristic path term by term: double the truncation from its
    start until two partial sums agree to half of 10^-digits."""
    c_emp = max(2.0, growth_check(f).coeff_growth_estimate * 1.5)
    terms = max(32, int(Fraction(2 * c_emp) * abs(x)) + digits)
    prev = reference_sum(f, x, terms)
    while True:
        terms *= 2
        cur = reference_sum(f, x, terms)
        if abs(cur - prev) * 2 < Fraction(1, 10**digits):
            return cur
        prev = cur


def reference_hypergeometric(params, x, digits):
    """Sum and radius of a hypergeometric value term by term: stop at the
    least n >= n1 with 2 |t_n| < 10^-digits, past which every term ratio
    is at most 1/2 (n1 as in eval_hypergeometric_value: the least
    n >= N* with 2 K0 |x| <= n^k, found by counting up)."""
    n1 = 1 + max(2 * math.ceil(abs(b)) for b in params.lower)
    kconst = abs(params.scale * x) * 2 ** len(params.lower)
    for a in params.upper:
        kconst *= 1 + math.ceil(abs(a))
    while 2 * kconst > n1**params.k:
        n1 += 1
    term, total, n = Fraction(1), Fraction(0), 0
    while not (n >= n1 and 2 * abs(term) < Fraction(1, 10**digits)):
        total += term
        for a in params.upper:
            term *= a + n
        for b in params.lower:
            term /= b + n
        term *= params.scale * x
        n += 1
    return total, 2 * abs(term)


def ode(text, initial, coeff_bound):
    return EFunction(op_from_text(text), initial, name="g", coeff_bound=coeff_bound)


SPLIT_FUNCTIONS = {
    "exp": ef_exp,
    "J0": ef_bessel_j0,  # a negative shift band
    "Si": ef_sin_integral,
    "F[;1/2,1]": lambda: ef_hypergeometric([], [Fraction(1, 2), 1]),  # k = 2
    "F[1/3;1/2,2/5]": lambda: ef_hypergeometric(
        [Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 5)]),
    "exp(-2z)": lambda: ef_scale(ef_exp(), -2),
    "(1+z)e^z": lambda: ode("(1+z)*D^1 + (-2-z)", ["1", "2"], 2),
    "I0, no bound": lambda: ode("(z)*D^2 + (1)*D^1 + (-z)", ["1", "0"], None),
}
SPLIT_POINTS = (Fraction(-22, 7), Fraction(5, 3), Fraction(-1, 2), Fraction(3))


class TestBinarySplitting:
    """The split sums are the exact rationals a term-by-term sum gives."""

    @pytest.mark.parametrize("name", sorted(SPLIT_FUNCTIONS))
    def test_partial_sums_exact(self, name):
        f = SPLIT_FUNCTIONS[name]()
        seeds = f.seed_count
        counts = sorted({0, 1, seeds - 1, seeds, seeds + 1, 300})
        for x in SPLIT_POINTS:
            continued = f.sums(x)
            for terms in counts:
                fresh = f.sums(x)
                fresh.advance(terms)
                continued.advance(terms)  # as the heuristic path doubles
                want = reference_sum(f, x, terms)
                assert fresh.value() == want, (name, x, terms)
                assert continued.value() == want, (name, x, terms)

    @pytest.mark.parametrize("name", sorted(SPLIT_FUNCTIONS))
    def test_eval_ball_is_the_partial_sum(self, name):
        f = SPLIT_FUNCTIONS[name]()
        for x in (Fraction(-22, 7), Fraction(5, 3)):
            b = eval_efunction(f, x, 60)
            params = f.hypergeometric
            if params is not None:
                # summed in y = x^k against its own terms, not (C|x|)^n / n!
                assert (b.re, b.rad) == reference_hypergeometric(params, x**params.k, 60)
                assert b.im == 0 and not b.heuristic_tail
                continue
            if f.coeff_bound is None:
                assert b.heuristic_tail
                assert b.re == reference_heuristic(f, x, 60)
                continue
            terms, radius = reference_truncation(f.coeff_bound * abs(x), 60)
            assert b.re == reference_sum(f, x, terms)
            assert b.rad == radius and b.im == 0

    def test_truncation_matches_the_term_loop(self):
        # exp's bound is C = 1, so its majorant at y is y^n / n!
        for y in (Fraction(1), Fraction(5, 7), Fraction(44, 7), Fraction(137, 7),
                  Fraction(1, 10**5), Fraction(1000), Fraction(7, 2)):
            for digits in (1, 11, 60, 300):
                got = _truncation(*ef_exp().majorant(y), digits)
                assert got == reference_truncation(y, digits)

    def test_hypergeometric_value_is_the_term_loop(self):
        cases = [
            HypergeometricParams((Fraction(1, 3),), (Fraction(1, 2), Fraction(2, 5))),
            HypergeometricParams((), (Fraction(1), Fraction(1)), Fraction(-1, 4)),
            HypergeometricParams((Fraction(-5, 2),), (Fraction(-1, 3), Fraction(7, 2),
                                                      Fraction(1)), Fraction(-2, 3)),
            HypergeometricParams((), (Fraction(1, 7),), Fraction(1, 100)),
            # the lower parameters of the bench's falsify workload
            HypergeometricParams((), (Fraction(2, 3),)),
            HypergeometricParams((), (Fraction(1), Fraction(1, 3))),
            HypergeometricParams((), (Fraction(3, 2), Fraction(1))),
            # parameters past float range, and one whose float is the pole -3:
            # the exact comparisons start at n1
            HypergeometricParams((Fraction(10**400),), (Fraction(1), Fraction(1)),
                                 Fraction(1, 10**400)),
            HypergeometricParams((Fraction(-3 * 10**30 + 1, 10**30),), (Fraction(1), Fraction(1))),
        ]
        for params in cases:
            for x in (Fraction(-22, 7), Fraction(7, 3), Fraction(1, 3)):
                for digits in (1, 80):
                    b = eval_hypergeometric_value(params, x, digits)
                    assert (b.re, b.rad) == reference_hypergeometric(params, x, digits)
        # n1 is the least n >= N* = 3 with 2 K0 |x| = 2 * 2 * 20 <= n^k, where
        # doubling N* overshot to 96
        params, x = HypergeometricParams((), (Fraction(1),)), Fraction(20)
        assert params.ratio_bound()[0] == 3
        assert params.majorant(x, params.sums(x))[0] == 80
        for digits in (1, 80):
            b = eval_hypergeometric_value(params, x, digits)
            assert (b.re, b.rad) == reference_hypergeometric(params, x, digits)

    def test_degenerate_index_past_the_seeds(self):
        # z f'' - (3 + z) f' - f: the leading band (t + 1)(t - 3) vanishes
        # at t = 3, so coefficient 4 is free and must be supplied
        message = "series coefficient 4 of g is not determined"
        f = ode("(z)*D^2 + (-3-z)*D^1 + (-1)", ["3", "-1"], 2)
        with pytest.raises(UnsupportedOperationError, match=message):
            f.coefficient(4)
        f = ode("(z)*D^2 + (-3-z)*D^1 + (-1)", ["3", "-1"], 2)
        with pytest.raises(UnsupportedOperationError, match=message):
            eval_efunction(f, Fraction(-1, 2), 20)
        sums = f.sums(Fraction(1, 3))
        sums.advance(4)
        assert sums.value() == reference_sum(f, Fraction(1, 3), 4)
        with pytest.raises(UnsupportedOperationError, match=message):
            sums.advance(5)
        # a single band (z f' = 5 f): terms before 5 vanish, 5 is free
        f = ode("(z)*D^1 + (-5)", ["0"], 2)
        with pytest.raises(UnsupportedOperationError,
                           match="series coefficient 5 of g is not determined"):
            eval_efunction(f, Fraction(-1, 2), 20)


# (name, builder, stride, residue classes run): the recurrence links only
# indices `stride` apart, and a class whose seeds are all zero is not run
STRIDED_FUNCTIONS = {
    "cosh 2z": (lambda: ode("(1)*D^2 + (-4)", ["1", "0"], 2), 2, [0]),
    "exp(2z)": (lambda: ode("(1)*D^2 + (-4)", ["1", "2"], 2), 2, [0, 1]),
    "F[;1/2,1,1]": (lambda: ef_hypergeometric([], [Fraction(1, 2), 1, 1]), 3, [0]),
    "I0": (lambda: ode("(z)*D^2 + (1)*D^1 + (-z)", ["1", "0"], 1), 2, [0]),
    "I0, no bound": (lambda: ode("(z)*D^2 + (1)*D^1 + (-z)", ["1", "0"], None), 2, [0]),
}


class TestResidueClasses:
    """A strided recurrence is summed one residue class at a time, each
    class's tree ending at blocks of steps; every partial sum is still the
    exact rational of the term-by-term sum."""

    @pytest.mark.parametrize("name", sorted(STRIDED_FUNCTIONS))
    def test_partial_sums_exact_across_blocks(self, name):
        build, stride, classes = STRIDED_FUNCTIONS[name]
        f = build()
        assert f.stride == stride
        assert [c for c, _, _ in f.residue_classes] == classes
        counts = list(range(3 * efunction._BLOCK + 3)) + [300]
        for x in (Fraction(-22, 7), Fraction(5, 3)):
            continued = f.sums(x)
            for terms in counts:
                fresh = f.sums(x)
                fresh.advance(terms)
                continued.advance(terms)
                want = reference_sum(f, x, terms)
                assert fresh.value() == want, (name, x, terms)
                assert continued.value() == want, (name, x, terms)

    def test_heuristic_path_sums_the_classes_exactly(self):
        build, _, _ = STRIDED_FUNCTIONS["I0, no bound"]
        f = build()
        for x in (Fraction(-22, 7), Fraction(38, 7)):
            b = eval_efunction(f, x, 60)
            assert b.heuristic_tail
            assert b.re == reference_heuristic(f, x, 60)

    @pytest.mark.parametrize("text, free", [
        # leading band (t + 1)(t - 3), t = m - 1: index 4 is free, in the
        # class that is run
        ("(z)*D^2 + (-3)*D^1 + (-z)", 4),
        # leading band (t + 1)(t - 4): index 5 is free, in the odd class,
        # whose seeds are zero and which is not run
        ("(z)*D^2 + (-4)*D^1 + (-z)", 5),
    ])
    def test_undetermined_index_in_a_strided_recurrence(self, text, free):
        message = f"series coefficient {free} of g is not determined"
        f = ode(text, ["1", "0"], 2)
        assert f.stride == 2 and [c for c, _, _ in f.residue_classes] == [0]
        with pytest.raises(UnsupportedOperationError, match=message):
            eval_efunction(f, Fraction(1, 3), 20)
        x = Fraction(1, 3)
        sums = f.sums(x)
        sums.advance(free)
        assert sums.value() == reference_sum(f, x, free)
        with pytest.raises(UnsupportedOperationError, match=message):
            sums.advance(free + 1)
        with pytest.raises(UnsupportedOperationError, match=message):
            f.sums(x).advance(300)


class TestBoundedWork:
    """Sums cost a binary-splitting product, not one Fraction per term.
    Each limit is loose against the time this code takes and far below
    what a term-by-term sum takes."""

    def test_1f2_at_3000_digits(self):
        # 1F2(1/3; 1/2, 2/5)(7/3) as a hypergeometric value and as an
        # E-function; the E-function sum took 3.6 s term by term
        params = HypergeometricParams((Fraction(1, 3),), (Fraction(1, 2), Fraction(2, 5)))
        start = time.perf_counter()
        b = eval_hypergeometric_value(params, Fraction(7, 3), 3000)
        assert time.perf_counter() - start < 1
        assert b.rad < Fraction(1, 10**3000)
        f = ef_hypergeometric(params.upper, params.lower)
        start = time.perf_counter()
        b = eval_efunction(f, Fraction(7, 3), 3000)
        assert time.perf_counter() - start < 1
        assert b.rad < Fraction(1, 10**3000)

    def test_truncation_builds_no_fraction_per_step(self, monkeypatch):
        # the truncations here are about 54000 and 8000 terms; finding one
        # may build a handful of Fractions, and the 20th ends the search
        made = []
        new = Fraction.__new__

        class TooMany(Exception):
            pass

        class SplitReached(Exception):
            pass

        def counting(cls, *args, **kwargs):
            made.append(args)
            if len(made) >= 20:
                raise TooMany
            return new(cls, *args, **kwargs)

        def split(sums, hi):
            raise SplitReached

        f = ef_exp()
        params = HypergeometricParams((), (Fraction(1),))
        params.ratio_rows  # built once per series, from Fraction coefficients
        monkeypatch.setattr(efunction._ClassSums, "advance", split)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        with pytest.raises(SplitReached):
            eval_efunction(f, 20000, 11)
        # e^2000 as a hypergeometric value: the rule reads each exact term
        # off the sum of about 8000 terms, so the whole evaluation counts
        made.clear()
        b = eval_hypergeometric_value(params, 2000, 11)
        monkeypatch.undo()
        assert b.rad < Fraction(1, 10**11)


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


def mp_hypergeometric(params, y, dps):
    """mpmath's sum t_n y^n as an exact Fraction; the series has no
    implicit n!, so an upper 1 cancels mpmath's.  mpmath needs more digits
    than a parameter has: with fewer, a parameter of 10^400 stalls it."""
    with mpmath.workdps(dps):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        v = mpmath.hyper([mp(a) for a in params.upper] + [1],
                         [mp(b) for b in params.lower], mp(params.scale) * mp(y))
    return Fraction(*mpmath.libmp.to_rational(v._mpf_))


class TestHypergeometricEFunction:
    """A function built by ef_hypergeometric is summed in y = x^k against
    its own terms; closure results keep the (C|x|)^n / n! majorant."""

    CASES = [
        ((Fraction(1, 3),), (Fraction(1, 2), Fraction(2, 5)), 1),  # k = 1
        ((), (Fraction(1, 2), 1), 1),  # k = 2
        ((), (Fraction(-7, 2), 1), Fraction(-1, 4)),  # k = 2
        ((), (Fraction(1, 3), Fraction(2, 3), 1), 1),  # k = 3
        ((Fraction(-5, 2),), (Fraction(-1, 3), Fraction(7, 2), 1), Fraction(-2, 3)),
        # a parameter past float range: the exact comparisons start at n1
        ((10**400,), (1, 1), Fraction(1, 10**400)),
    ]

    @pytest.mark.parametrize("upper, lower, scale", CASES, ids=[
        "k1", "k2", "k2-scaled", "k3", "k2-upper", "k1-parameter-1e400"])
    def test_ball_contains_mpmath(self, upper, lower, scale):
        f = ef_hypergeometric(upper, lower, scale)
        params = f.hypergeometric
        assert params == HypergeometricParams(
            tuple(map(Fraction, upper)), tuple(map(Fraction, lower)), Fraction(scale))
        for x in (Fraction(-22, 7), Fraction(-1, 3), Fraction(5, 3)):
            b = eval_efunction(f, x, 80)
            assert b.rad < Fraction(1, 10**80) and b.im == 0 and not b.heuristic_tail
            truth = mp_hypergeometric(params, x**params.k, 500)
            assert abs(b.re - truth) <= b.rad + Fraction(1, 10**100), (f.name, x)

    def test_coefficient_bound_is_computed_only_when_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the coefficient bound was computed")

        monkeypatch.setattr(efunction, "_hypergeometric_coeff_bound", refuse)
        for upper, lower, scale in self.CASES[:3]:
            f = ef_hypergeometric(upper, lower, scale)
            eval_efunction(f, Fraction(-22, 7), 40)
            rep = falsify(certify_single(f, [Fraction(1, 2), Fraction(2, 3)]), 40, 1000)
            assert rep.excluded
        monkeypatch.undo()
        # read by a closure, it is the eager bound: 16, 64 and 2431/7
        for (upper, lower, scale), bound in zip(self.CASES[:3], (16, 64, Fraction(2431, 7))):
            f = ef_hypergeometric(upper, lower, scale)
            assert ef_scale(f, 2).coeff_bound == 2 * bound
            assert f.coeff_bound == bound

    def test_closure_results_keep_the_coefficient_majorant(self):
        hyp = ef_hypergeometric([], [Fraction(1, 2), 1])
        for f in (ef_scale(hyp, 2), ef_sum(hyp, ef_exp())):
            assert f.hypergeometric is None
            for x in (Fraction(-22, 7), Fraction(5, 3)):
                b = eval_efunction(f, x, 60)
                terms, radius = reference_truncation(f.coeff_bound * abs(x), 60)
                assert b.re == reference_sum(f, x, terms)
                assert b.rad == radius and b.im == 0


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


class TestSciRounded:
    def test_rounds_toward_zero(self):
        def lower(q):
            return sci_rounded(q, away=False)[1]

        assert lower(Fraction(10**5 + 1, 10**10)) == "1.000e-5"
        assert lower(Fraction(1, 3)) == "3.333e-1"
        assert lower(Fraction(9999_9, 10**4)) == "9.999e+0"
        assert lower(-Fraction(2, 3)) == "-6.666e-1"
        assert lower(Fraction(1000)) == "1.000e+3"
        assert lower(Fraction(8957_1, 10**405)) == "8.957e-401"

    def test_value_is_the_text(self):
        rng = random.Random(3)
        for _ in range(200):
            q = Fraction(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**30))
            down, down_text = sci_rounded(q, away=False)
            up, up_text = sci_rounded(q, away=True)
            assert abs(down) <= abs(q) <= abs(up)
            assert (parse_decimal(down_text), parse_decimal(up_text)) == (down, up)
            assert up_text == sci_upper(q)


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

    def test_relation_on_certified_values_is_a_contradiction(self):
        # a certificate for exp at 1 and 2 whose plan evaluates exp(1) twice:
        # the relation v - v = 0 lies inside the certified statement
        cert = certify_single(ef_exp(), [1, 2])
        assert cert.verdict == "CertifiedIndependent" and cert.conditional_on == []
        cert.eval_items = [cert.eval_items[0], cert.eval_items[0]]
        rep = falsify(cert, digits=40, coeff_bound=1000)
        assert rep.found and rep.contradiction

    def test_relation_on_conditional_certificate_is_a_notice(self):
        # the same relation, once the certificate rests on the caveat, may
        # only show that the caveat fails
        cert = certify_single(ef_exp(), [1, 2])
        cert.eval_items = [cert.eval_items[0], cert.eval_items[0]]
        cert.conditional_on = ["unless two of them are algebraic"]
        rep = falsify(cert, digits=40, coeff_bound=1000)
        assert rep.found and not rep.contradiction
        assert ("relation found; the certificate is conditional on: "
                "unless two of them are algebraic") in rep.notices

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


@functools.cache
def exp_value(point: Fraction) -> Ball:
    """exp(point) with a radius below the search guard for up to 110 digits."""
    return eval_efunction(ef_exp(), point, 125)


def worst_sq(m, cols, coeff_bound, lattice_digits, digits):
    """The largest squared norm of a true relation's vector at a rung, whose
    values have radii below 10^-(lattice_digits+10) (digits + 10 at full
    digits, the margin of a Ball)."""
    radius = Fraction(1, 10 ** (min(lattice_digits, digits) + 10))
    slack = m * coeff_bound * (Fraction(1, 2) + 10**lattice_digits * radius)
    return m * coeff_bound**2 + cols * slack**2


def embedding(values, lattice_digits):
    """identity | round(10^d v), the lattice of one rung, built directly."""
    scale = 10**lattice_digits
    parts = ("re", "im") if any(v.im for v in values) else ("re",)
    return [[int(i == k) for i in range(len(values))]
            + [math.floor(scale * getattr(v, part) + Fraction(1, 2)) for part in parts]
            for k, v in enumerate(values)]


def planted(values, coeffs):
    """The ball sum c_k v_k: a value with the relation (coeffs, -1)."""
    v = Ball(Fraction(0))
    for c, b in zip(coeffs, values):
        v = v + b.scaled(c)
    return v


def record_floors(monkeypatch):
    """Record every exact floor the relation search's reductions return."""
    floors = []

    def recording(rows):
        reduced, floor = lll_reduce(rows)
        floors.append(floor)
        return reduced, floor

    monkeypatch.setattr(numeric, "lll_reduce", recording)
    return floors


PLANTED = settings(max_examples=40, deadline=None, derandomize=True, database=None)
COEFF = st.integers(-10**5, 10**5)
POINT = st.builds(Fraction, st.integers(1, 24), st.integers(1, 9))


class TestRelationLadder:
    """The search on a ladder of lattice precisions finds every planted
    relation and excludes only with a floor above the rung's bound."""

    @PLANTED
    @given(COEFF, COEFF, COEFF, st.integers(40, 110), st.booleans())
    def test_planted_relations_found(self, p, q, r, digits, complex_mode):
        one, e3, e27 = Ball.point(1), exp_value(Fraction(1, 3)), exp_value(Fraction(2, 7))
        if complex_mode:
            # i e^(2/7) and i e^(3/4) are Z-independent of the real parts
            e3 = Ball(e3.re, e27.re, e3.rad + e27.rad)
            e15, e34 = exp_value(Fraction(1, 5)), exp_value(Fraction(3, 4))
            e27 = Ball(e15.re, e34.re, e15.rad + e34.rad)
        values = [one, e3, e27]
        values.append(planted(values, [p, q, r]))
        rep = find_integer_relation(values, 10**6, digits)
        assert rep.found and not rep.excluded
        c = rep.coefficients
        t = -c[3]
        assert t != 0 and c == [t * p, t * q, t * r, -t]

    def test_relation_only_the_full_digit_rung_sees(self, monkeypatch):
        base = [Ball.point(1)] + [exp_value(Fraction(*pq))
                                  for pq in ((1, 3), (2, 7), (3, 5), (5, 4), (4, 9))]
        coeffs = [-99325, -94179, -98117, 97737, 93439, -97993]
        values = base + [planted(base, coeffs)]
        rungs = numeric._rungs(len(values), 1, 10**6, 40)
        assert rungs == [18, 33, 40]
        # the two lower rungs alone neither find it nor exclude
        with pytest.raises(PrecisionExceededError):
            find_integer_relation(values, 10**6, 33)
        floors = record_floors(monkeypatch)
        rep = find_integer_relation(values, 10**6, 40)
        assert len(floors) == 3
        assert rep.found and rep.coefficients == [-c for c in coeffs] + [1]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(POINT, min_size=1, max_size=4, unique=True),
           st.integers(1, 110), st.sampled_from([10**3, 10**6]), st.booleans())
    def test_exclusion_floor_above_its_rung_bound(self, points, digits, bound, complex_mode):
        values = [Ball.point(1)] + [exp_value(x) for x in points]
        if complex_mode:
            values = [values[0]] + [Ball(v.re, w.re, v.rad + w.rad) for v, w in
                                    zip(values[1:], [exp_value(-x / 2) for x in points])]
        try:
            rep = find_integer_relation(values, bound, digits)
        except PrecisionExceededError:
            return
        if rep.found:  # a near-relation within a coarse resolution
            assert digits < 20
            return
        assert rep.excluded
        assert 1 <= rep.lattice_digits <= digits
        floor = parse_decimal(rep.min_lattice_norm)
        cols = 2 if complex_mode else 1
        assert floor > worst_sq(len(values), cols, bound, rep.lattice_digits, digits)
        # the printed floor bounds every vector of the rung's lattice,
        # rebuilt here as today's embedding at lattice_digits
        reduced, _ = lll_reduce(embedding(values, rep.lattice_digits))
        assert all(sum(x * x for x in row) >= floor for row in reduced)

    def test_printed_floor_rounds_down(self, monkeypatch):
        values = [Ball.point(1), exp_value(Fraction(1, 3)), exp_value(Fraction(2, 7))]
        floors = record_floors(monkeypatch)
        rep = find_integer_relation(values, 10**6, 60)
        assert rep.excluded and rep.lattice_digits < 60
        exact = floors[-1]
        printed = parse_decimal(rep.min_lattice_norm)
        assert printed <= exact and (printed, rep.min_lattice_norm) == sci_rounded(exact, False)
        assert printed > worst_sq(3, 1, 10**6, rep.lattice_digits, 60)

    def test_floor_beyond_the_decimal_limit(self):
        # complex values and a bound of 10^3000: the floor that excludes
        # has more than 4300 digits
        a, b = (eval_efunction(ef_exp(), x, 4312) for x in (Fraction(1, 3), Fraction(2, 7)))
        values = [Ball.point(1), Ball(a.re, b.re, a.rad + b.rad)]
        rep = find_integer_relation(values, 10**3000, 4300)
        assert rep.excluded and rep.lattice_digits < 4300
        mant, exp = rep.min_lattice_norm.split("e")
        floor = Fraction(mant) * Fraction(10) ** int(exp)
        assert int(exp) > 4300
        assert floor > worst_sq(2, 2, 10**3000, rep.lattice_digits, 4300)

    def test_heuristic_tail_climbs_to_full_digits(self, monkeypatch):
        e = exp_value(Fraction(1, 3))
        values = [Ball.point(1), Ball(e.re, e.im, e.rad, heuristic_tail=True)]
        floors = record_floors(monkeypatch)
        rep = find_integer_relation(values, 10**6, 60)
        assert not rep.found and not rep.excluded and rep.lattice_digits is None
        assert len(floors) == len(numeric._rungs(2, 1, 10**6, 60)) > 1


# (name, builder) of the functions whose values the relation search refines
REFINED_FUNCTIONS = {
    "exp": ef_exp,
    "J0": ef_bessel_j0,
    "Si": ef_sin_integral,
    "(1+z)e^z": lambda: ode("(1+z)*D^1 + (-2-z)", ["1", "2"], 2),
    "F[1/3;1/2,2/5]": lambda: ef_hypergeometric([Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 5)]),
    "F[;1/2,1]": lambda: ef_hypergeometric([], [Fraction(1, 2), 1]),
}


def eager_values(cert, digits):
    """The certificate's values summed in advance at digits + 12, as
    falsify summed them before it refined them (zero and irrational points
    skipped alike)."""
    values = [Ball.point(1)]
    for kind, *rest in cert.eval_items:
        if kind == "efunction":
            f, point = rest
            q = point.as_rational()
            if q:
                values.append(eval_efunction(f, q, digits + 12))
        elif kind == "hyp_value":
            params, point = rest
            q = point.as_rational()
            if q:
                values.append(eval_hypergeometric_value(params, q, digits + 12))
        else:
            lo, hi = (x.as_rational() for x in rest)
            si = ef_sin_integral()
            values.append(eval_efunction(si, hi, digits + 12) - eval_efunction(si, lo, digits + 12))
    return values


def outcome(search):
    """What a relation search reports, notices aside, or that it raised."""
    try:
        rep = search()
    except PrecisionExceededError:
        return "precision exceeded"
    return (rep.found, rep.coefficients, rep.residual_bound, rep.excluded,
            rep.min_lattice_norm, rep.lattice_digits)


def series_values(monkeypatch):
    """Record every series value numeric builds."""
    made = []

    class Recorded(numeric._SeriesValue):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(numeric, "_SeriesValue", Recorded)
    return made


class TestRefinedValues:
    """falsify hands the search values that are summed only as far as the
    rung that decides; the balls, and so the reports, are those of values
    summed in advance."""

    @pytest.mark.parametrize("name", sorted(REFINED_FUNCTIONS))
    def test_rising_digits_give_the_fresh_balls(self, name):
        f = REFINED_FUNCTIONS[name]()
        for x in (Fraction(-22, 7), Fraction(5, 3), Fraction(1, 9)):
            value = numeric._efunction_value(f, x, 1)
            for digits in (5, 20, 21, 47, 47, 90, 150):
                assert value.ball(digits) == eval_efunction(f, x, digits), (name, x, digits)
            # fewer digits give the ball already summed, which is finer
            assert value.ball(30) == eval_efunction(f, x, 150)
        params = HypergeometricParams((Fraction(-5, 2),), (Fraction(-1, 3), Fraction(7, 2), 1),
                                      Fraction(-2, 3))
        value = numeric._hypergeometric_value(params, Fraction(7, 3))
        for digits in (1, 12, 40, 41, 200):
            assert value.ball(digits) == eval_hypergeometric_value(params, Fraction(7, 3), digits)

    @pytest.mark.parametrize("kind", ["exp", "J0", "planted", "hyp", "si"])
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(points=st.lists(POINT, min_size=1, max_size=3, unique=True),
           digits=st.integers(4, 90), bound=st.sampled_from([10**3, 10**6]))
    def test_falsify_reports_as_values_summed_in_advance(self, kind, points, digits, bound):
        if kind == "exp":
            cert = certify_single(ef_exp(), points)
        elif kind == "J0":
            cert = certify_single(ef_bessel_j0(), points)
        elif kind == "planted":
            # exp(2x) = exp at 2x: the relation (0, -1, 1, 0)
            x, y = points[0], points[-1] + 3
            cert = certify_multi([ef_scale(ef_exp(), 2), ef_exp(), ef_exp()], [x, 2 * x, y])
        elif kind == "hyp":
            lowers = [(Fraction(1, 2),), (Fraction(1), Fraction(1, 3)), (Fraction(3, 2), Fraction(1))]
            cert = certify_hypergeometric(
                [HypergeometricParams((), lower) for lower in lowers[:len(points)]], points)
        else:
            cert = certify_si_integrals([(x, x + 1) for x in points])
        got = outcome(lambda: falsify(cert, digits, bound))
        assert got == outcome(lambda: find_integer_relation(eager_values(cert, digits), bound, digits))
        if kind == "planted":
            assert got[1] == [0, -1, 1, 0] or got[1] == [0, 1, -1, 0]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.lists(POINT, min_size=1, max_size=3, unique=True), st.integers(20, 90),
           st.one_of(st.none(), st.tuples(COEFF, COEFF)))
    def test_complex_values_among_refined_ones(self, points, digits, plant):
        # a fixed complex ball among series values, and a planted relation
        # through it
        z = Ball(exp_value(Fraction(1, 3)).re, exp_value(Fraction(2, 7)).re,
                 exp_value(Fraction(1, 3)).rad + exp_value(Fraction(2, 7)).rad)
        fixed = [Ball.point(1), z]
        if plant is not None:
            fixed.append(planted(fixed, plant))
        refined = [numeric._efunction_value(ef_exp(), x, digits + 12) for x in points]
        eager = [eval_efunction(ef_exp(), x, digits + 12) for x in points]
        got = outcome(lambda: find_integer_relation(fixed + refined, 10**6, digits))
        assert got == outcome(lambda: find_integer_relation(fixed + eager, 10**6, digits))
        if plant is not None and any(plant):
            assert got[0]

    def test_exclusion_sums_to_its_rung_only(self, monkeypatch):
        made = series_values(monkeypatch)
        points = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
        for cert in (certify_single(ef_exp(), points), certify_single(ef_bessel_j0(), points),
                     certify_hypergeometric([HypergeometricParams((), (Fraction(1, 2),))] * 3,
                                            points)):
            made.clear()
            rep = falsify(cert, 100, 10**6)
            assert rep.excluded and rep.lattice_digits < 100
            assert len(made) == 3
            lattice = rep.lattice_digits
            for value, item in zip(made[:3], cert.eval_items):
                if item[0] == "efunction":
                    fresh = numeric._efunction_value(item[1], item[2].as_rational(), 1)
                else:
                    fresh = numeric._hypergeometric_value(item[1], item[2].as_rational())
                fresh.ball(lattice + 12)
                assert value._sums.m == fresh._sums.m
                # the sum to full digits goes further
                fresh.ball(112)
                assert value._sums.m < fresh._sums.m

    def test_relation_sums_to_full_digits(self, monkeypatch):
        made = series_values(monkeypatch)
        cert = certify_multi([ef_scale(ef_exp(), 2), ef_exp(), ef_exp()],
                             [Fraction(1, 2), 1, Fraction(2, 3)])
        rep = falsify(cert, 60, 10**6)
        assert rep.found and rep.coefficients in ([0, -1, 1, 0], [0, 1, -1, 0])
        refined = [v.ball(1) for v in made]
        assert refined == eager_values(cert, 60)[1:]

    def test_undetermined_coefficient_is_still_skipped(self):
        # coefficient 4 is free, below the truncation at either point
        f = ode("(z)*D^2 + (-3-z)*D^1 + (-1)", ["3", "-1"], 2)
        cert = certify_single(f, [1, 2])
        rep = falsify(cert, 30, 10**6)
        assert rep.skipped
        assert rep.notices[0].startswith("skipped: series coefficient 4 of g is not determined")
