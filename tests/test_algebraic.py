"""Certified root isolation and exact arithmetic on algebraic numbers."""

import random
import time
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elindep import algebraic
from elindep.algebraic import (
    AlgebraicNumber,
    Precision,
    alg_div,
    alg_equals,
    alg_is_zero,
    alg_nth_root,
    alg_pow,
    is_root_of,
    isolate_roots,
    refine_root_box,
)
from elindep.balls import Ball
from elindep.errors import PrecisionExceededError
from elindep.polynomials import Polynomial, ratio_set_poly, squarefree_part

from support import canonical_root


def P(*coeffs):
    return Polynomial(coeffs)


def mp_roots(p, dps=40):
    """Roots of p as (re, im) Fraction pairs, accurate to ~30 digits."""
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(p.coeffs)], maxsteps=200)
        return [(Fraction(mpmath.nstr(z.real, 30, strip_zeros=False)),
                 Fraction(mpmath.nstr(z.imag, 30, strip_zeros=False)))
                for z in (mpmath.mpc(r) for r in roots)]


def near_box(box, x, y, tol=Fraction(1, 10**9)):
    # point within a slightly inflated disc (root known to ~1e-29)
    r = 2 * box.rad + tol
    return (x - box.re) ** 2 + (y - box.im) ** 2 <= r * r


F4 = P(2, -1, 0, 1, 1)  # the bench's quartics
F5 = P(-3, 1, 0, 0, 1)
# the polynomials whose roots are the bench's algebraic points
BENCH_POOL = [
    P(-2, 0, 1), P(-1, 1, 1), P(3, -1, 1),
    P(-1, -1, 0, 1), P(-2, 0, 0, 1), P(1, -3, 0, 1),
    P(-2, 0, 0, 0, 1), P(1, 1, 1, 1, 1), P(-1, 0, -1, 0, 1), F4, F5,
]
# roots sqrt(2) and sqrt(2 + 2^-140), about 2^-141.5 apart, and their negatives
CLOSE_QUARTIC = P(-2, 0, 1) * P(-(2**141 + 1), 0, 2**140)


class TestIsolation:
    def test_sqrt2(self):
        boxes = isolate_roots(P(-2, 0, 1), 40)
        assert len(boxes) == 2
        # one box per sign, radius certified small
        for b in boxes:
            assert b.rad <= Fraction(1, 2**40)
        res = sorted(boxes, key=lambda b: b.re)
        assert abs(res[0].re + Fraction(141421356, 10**8)) < Fraction(1, 10**7)
        assert abs(res[1].re - Fraction(141421356, 10**8)) < Fraction(1, 10**7)

    def test_fifth_roots_of_unity(self):
        p = P(-1, 0, 0, 0, 0, 1)
        boxes = isolate_roots(p, 50)
        assert len(boxes) == 5
        with mpmath.workdps(30):
            for k in range(5):
                z = mpmath.exp(2j * mpmath.pi * k / 5)
                hits = [b for b in boxes if near_box(b, Fraction(str(z.real)), Fraction(str(z.imag)))]
                assert len(hits) == 1
        # pairwise disjoint
        for i in range(5):
            for j in range(i + 1, 5):
                assert not boxes[i].overlaps(boxes[j])

    def test_matches_mpmath(self):
        rng = random.Random(31)
        from elindep.polynomials import squarefree_part
        from support import random_polynomial

        for _ in range(10):
            p = squarefree_part(random_polynomial(rng, max_degree=4))
            if p.degree < 1:
                continue
            boxes = isolate_roots(p, 40)
            roots = mp_roots(p)
            assert len(boxes) == len(roots)
            for x, y in roots:
                hits = [b for b in boxes if near_box(b, x, y)]
                assert len(hits) == 1

    def test_refinement_nests(self):
        p = P(-2, 0, 1)
        coarse = isolate_roots(p, 20)
        for b in coarse:
            finer = refine_root_box(p, b, 80)
            assert b.contains_interior(finer)
            assert finer.rad <= Fraction(1, 2**80)

    def test_close_roots_quartic(self):
        # proposal centres rounded to 2^-96, far coarser than the start
        # radius of about 2^-144, failed every rung up to 65536 bits
        ctx = Precision(max_bits=1024)  # so that a regression fails, not hangs
        start = time.perf_counter()
        boxes = isolate_roots(CLOSE_QUARTIC, 64, ctx)
        assert time.perf_counter() - start < 2
        assert len(boxes) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert not boxes[i].overlaps(boxes[j])
        finer = isolate_roots(CLOSE_QUARTIC, 300, ctx)
        for b in boxes:
            assert len([f for f in finer if b.contains_interior(f)]) == 1
        assert all(f.rad <= Fraction(1, 2**300) for f in finer)

    def test_degree_16_all_roots(self):
        # two roots contract only from about sep/32768, far below start
        # radii of sep/8 and sep/512
        p = P(6, -9, 6, -8, 0, 9, 9, 3, -4, -4, 7, -2, -9, -3, 8, 8, 1)
        start = time.perf_counter()
        boxes = isolate_roots(p, 64)
        assert time.perf_counter() - start < 10
        assert len(boxes) == 16
        for x, y in mp_roots(p):
            assert len([b for b in boxes if near_box(b, x, y)]) == 1


def exact_step(p, ball, bits):
    """The Krawczyk step in exact rational ball arithmetic: the reference
    the integer step must agree with."""
    dp = p.derivative()
    m = Ball(ball.re, ball.im)
    dpm = dp(m) + Ball.point(0)  # a Ball even when p' is constant
    if dpm.contains_zero():
        return None
    y = dpm.recip()
    k = m - y * p(m) + (1 - y * (dp(ball) + Ball.point(0))) * (ball - m)
    if not ball.contains_interior(k):
        return None
    rounded = k.rounded(bits)
    return rounded if ball.contains_interior(rounded) else k


def int_step(p, ball, bits):
    return algebraic._krawczyk_step(*algebraic._krawczyk_coeffs(p), ball, bits)


def roots60(p):
    """The roots of p as mpmath complex numbers at 60 digits."""
    with mpmath.workdps(60):
        coeffs = [int(c) for c in reversed(p.coeffs)]
        return [mpmath.mpc(r) for r in mpmath.polyroots(coeffs, maxsteps=500, extraprec=600)]


def roots_inside(ball, roots):
    """How many of the roots lie in the closed disc, to 50 digits."""
    with mpmath.workdps(60):
        re, im = mpmath.mpf(ball.re.numerator) / ball.re.denominator, \
            mpmath.mpf(ball.im.numerator) / ball.im.denominator
        rad = mpmath.mpf(ball.rad.numerator) / ball.rad.denominator + mpmath.mpf(10) ** -50
        return sum(abs(r - mpmath.mpc(re, im)) <= rad for r in roots)


def rational_near(x, digits):
    """A decimal fraction within 10^-digits of the mpmath real x."""
    with mpmath.workdps(60):
        return Fraction(int(mpmath.nint(x * 10**digits)), 10**digits)


STEP_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# squarefree primitive integer polynomials of degree 1 to 6
INT_POLY = (
    st.lists(st.integers(-12, 12), min_size=2, max_size=7)
    .map(lambda cs: squarefree_part(Polynomial(cs)).primitive_int() if any(cs) else Polynomial(()))
    .filter(lambda p: p.degree >= 1)
)


class TestKrawczykStep:
    """The integer step against exact rational arithmetic and mpmath."""

    @STEP_PROPERTY
    @given(INT_POLY, st.integers(0, 5), st.integers(4, 40), st.integers(-16, 16),
           st.integers(-16, 16), st.integers(0, 16), st.sampled_from([32, 64, 96]))
    def test_agrees_with_exact_step(self, p, which, scale, dx, dy, digits, bits):
        roots = roots60(p)
        z = roots[which % len(roots)]
        rad = Fraction(3, 2 ** (scale + 1))
        # a decimal centre up to 1.5 radii from the root: the step must
        # certify from some discs and fail on others
        centre = Ball(rational_near(z.real, digits), rational_near(z.imag, digits))
        ball = Ball(centre.re + rad * Fraction(dx, 16), centre.im + rad * Fraction(dy, 16), rad)
        got, ref = int_step(p, ball, bits), exact_step(p, ball, bits)
        assert (got is None) == (ref is None)
        if got is not None:
            assert ball.contains_interior(got)
            assert roots_inside(got, roots) == 1
            assert got.overlaps(ref)

    @STEP_PROPERTY
    @given(INT_POLY, st.integers(0, 5), st.integers(1, 5), st.integers(0, 20))
    def test_fails_on_two_roots(self, p, i, j, digits):
        roots = roots60(p)
        assume(len(roots) >= 2)
        a, b = roots[i % len(roots)], roots[(i + j) % len(roots)]
        assume(a != b)
        with mpmath.workdps(60):
            mid = (a + b) / 2
            half = Fraction(mpmath.nstr(abs(a - b) / 2, 20))
        ball = Ball(rational_near(mid.real, digits), rational_near(mid.imag, digits),
                    half * Fraction(11, 10) + Fraction(2, 10**digits))
        assert roots_inside(ball, roots) >= 2
        assert int_step(p, ball, 64) is None

    @STEP_PROPERTY
    @given(INT_POLY, st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 8))
    def test_fails_on_no_root(self, p, x, y, den):
        roots = roots60(p)
        with mpmath.workdps(60):
            centre = mpmath.mpc(mpmath.mpf(x) / den, mpmath.mpf(y) / den)
            gap = min(abs(r - centre) for r in roots)
        assume(gap > 10**-12)
        ball = Ball(Fraction(x, den), Fraction(y, den), Fraction(mpmath.nstr(gap, 15)) / 2)
        assert roots_inside(ball, roots) == 0
        assert int_step(p, ball, 64) is None

    def test_derivative_far_above_the_grid(self):
        # |p'| about 2^300 at roots near +-sqrt(2), far above 2^s for the
        # step's grid 2^-s (s about 100): a Y on that grid would round to 0
        big = 2**300
        wide = P(-(2 * big + 1), 0, big + 3)
        # the degree-16 ratio set of two bench quartics
        ratio = squarefree_part(ratio_set_poly(P(-2, 0, 0, 0, 1), F5)).primitive_int()
        assert ratio.degree == 16
        for p in (wide, ratio):
            roots = roots60(p)
            for d in isolate_roots(p, 64):
                assert roots_inside(d, roots) == 1
                for rad in (Fraction(1, 2**12), Fraction(1, 2**40)):
                    ball = Ball(d.re, d.im, rad)
                    got, ref = int_step(p, ball, 64), exact_step(p, ball, 64)
                    assert got is not None and ref is not None and got.overlaps(ref)
                    assert roots_inside(got, roots) == 1

    def test_tiny_derivative(self):
        # z^4 - 2(100z - 1)^2 has two roots about 1.4e-6 apart near 1/100,
        # where |p'| is about 0.03
        p = P(-2, 400, -20000, 0, 1)
        roots = roots60(p)
        close = sorted((r for r in roots if abs(r) < 1), key=lambda r: r.real)
        with mpmath.workdps(60):
            sep = abs(close[1] - close[0])
        assert 1.3e-6 < sep < 1.5e-6
        boxes = isolate_roots(p, 64)
        assert len(boxes) == 4 and all(roots_inside(b, roots) == 1 for b in boxes)
        for r in close:
            for den in (8, 64, 512):
                ball = Ball(rational_near(r.real, 12), Fraction(0), Fraction(mpmath.nstr(sep, 20)) / den)
                got, ref = int_step(p, ball, 64), exact_step(p, ball, 64)
                assert (got is None) == (ref is None)
                if den >= 64:
                    assert got is not None and roots_inside(got, roots) == 1
        both = Ball(Fraction(1, 100), Fraction(0), Fraction(1, 10**5))
        assert roots_inside(both, roots) == 2
        assert int_step(p, both, 64) is None

    def test_decimal_rectangle_centre(self):
        # the disc circumscribing a decimal rectangle has a centre off every
        # dyadic grid; the step floors it and still certifies
        for p, box in ((P(-2, 0, 1), ("1.41", "1.42", "0", "0")),
                       (P(1, 1, 1), ("-0.52", "-0.49", "0.86", "0.87"))):
            lo, hi, ilo, ihi = map(Fraction, box)
            half_re, half_im = (hi - lo) / 2, (ihi - ilo) / 2
            disc = Ball(lo + half_re, ilo + half_im,
                        algebraic._sqrt_upper(half_re**2 + half_im**2))
            assert disc.re.denominator % 5 == 0
            bits = algebraic._radius_bits(disc.rad) + 32
            got, ref = int_step(p, disc, bits), exact_step(p, disc, bits)
            assert got is not None and ref is not None and got.overlaps(ref)
            assert roots_inside(got, roots60(p)) == 1
            a = AlgebraicNumber.root_in_box(p, lo, hi, ilo, ihi)
            assert disc.contains_interior(a.box)

    def test_covering_disc_keeps_the_unrounded_disc(self):
        # alg_equals' disc covering two discs of radius <= 2^-bits is too
        # small for a disc on the 2^-bits grid: the step returns K itself
        p = P(-2, 0, 1)
        a = alg_nth_root(2, 2)
        b = AlgebraicNumber.root_in_box(p * P(-3, 0, 1), 1, Fraction(3, 2), 0, 0)
        for bits in (64, 128, 256):
            ab = refine_root_box(a.poly, a.box, bits)
            bb = refine_root_box(b.poly, b.box, bits)
            both = Ball(bb.re, bb.im, 2 * (ab.rad + bb.rad))
            got, ref = int_step(p, both, bits), exact_step(p, both, bits)
            assert got is not None and ref is not None and got.overlaps(ref)
            assert both.contains_interior(got) and got.rad < Fraction(1, 2**bits)
            assert roots_inside(got, roots60(p)) == 1
            assert alg_equals(a, b)

    def test_linear_polynomial(self):
        # p' is a constant: the step is Newton's exact step
        a = AlgebraicNumber.root_in_box(P(-1, 2), 0, 1, 0, 0)
        assert a.as_rational() == Fraction(1, 2)
        assert int_step(P(-1, 2), Ball(Fraction(1, 3), rad=Fraction(1, 4)), 64) is not None
        assert int_step(P(-1, 2), Ball(Fraction(1, 3), rad=Fraction(1, 7)), 64) is None


class TestAlgebraicNumber:
    def test_from_rational_round_trip(self):
        a = AlgebraicNumber.from_rational(Fraction(22, 7))
        assert a.as_rational() == Fraction(22, 7)
        assert a.degree_bound == 1

    def test_root_in_box(self):
        a = AlgebraicNumber.root_in_box(P(-2, 0, 1), 1, 2, 0, 0)
        assert a.as_rational() is None
        assert is_root_of(a, P(-2, 0, 1))
        with pytest.raises(ValueError, match="no root"):
            AlgebraicNumber.root_in_box(P(-2, 0, 1), 5, 6, 0, 0)
        with pytest.raises(ValueError, match="several roots"):
            AlgebraicNumber.root_in_box(P(-2, 0, 1), -2, 2, -1, 1)

    def test_root_just_outside_the_box_is_rejected(self):
        # s lies about 2^-101 above sqrt 2: no disc of radius 2^-64 decides
        # this rectangle, so refinement must go on until the disc misses it
        s = Fraction(isqrt(2**201) + 1, 2**100)
        assert s * s > 2 and (s - Fraction(1, 2**100)) ** 2 < 2
        with pytest.raises(ValueError, match="no root"):
            AlgebraicNumber.root_in_box(P(-2, 0, 1), s, 2, -1, 1)
        with pytest.raises(ValueError, match="no root"):
            AlgebraicNumber.root_in_box(P(-2, 0, 1), s, 2, 0, 0)
        a = AlgebraicNumber.root_in_box(P(-2, 0, 1), s - Fraction(1, 2**100), 2, -1, 1)
        assert alg_equals(a, alg_nth_root(2, 2))

    def test_rational_root_on_an_edge(self):
        # 3/4 is a root of the polynomial and an edge of every rectangle:
        # no disc around it lies inside, and the exact test decides
        p = P(-3, 4) * P(-5, 1)
        for box in ((Fraction(3, 4), 1, 0, 0), (0, Fraction(3, 4), -1, 1),
                    (Fraction(3, 4), Fraction(3, 4), 0, 0), (Fraction(3, 4), 1, 0, 1)):
            assert AlgebraicNumber.root_in_box(p, *box).as_rational() == Fraction(3, 4)
        with pytest.raises(ValueError, match="no root"):
            AlgebraicNumber.root_in_box(p, Fraction(3, 4), 1, Fraction(1, 2**80), 1)

    def test_complex_root_on_an_edge_is_undecided(self):
        # i lies inside the lower edge of [-1, 1] x [1, 2]: no disc around it
        # lies inside or outside, and no exact test applies off the corners
        with pytest.raises(PrecisionExceededError):
            AlgebraicNumber.root_in_box(P(1, 0, 1), -1, 1, 1, 2, Precision(max_bits=256))

    def test_complex_root_on_a_corner(self):
        # i is the corner of [0, 1] x [1, 2] and 1 + 2i of [1, 3] x [-1, 2];
        # exact evaluation at the corner decides, as for a point rectangle
        ctx = Precision(max_bits=256)
        for poly, box, root in ((P(1, 0, 1), (0, 1, 1, 2), (0, 1)),
                                (P(1, 0, 1), (0, 0, 1, 1), (0, 1)),
                                (P(5, -2, 1), (1, 3, -1, 2), (1, 2)),
                                (P(5, -2, 1), (1, 1, 2, 2), (1, 2))):
            b = AlgebraicNumber.root_in_box(poly, *box, ctx).box
            assert (b.re - root[0]) ** 2 + (b.im - root[1]) ** 2 <= b.rad**2
        with pytest.raises(ValueError, match="no root"):
            AlgebraicNumber.root_in_box(P(1, 0, 1), Fraction(1, 2**80), 1, 1, 2, ctx)

    def test_irrational_has_no_rational_value(self):
        s = alg_nth_root(2, 2)
        assert s.as_rational() is None

    def test_irrational_answer_is_kept(self, monkeypatch):
        calls = []
        real = algebraic.refine_root_box

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(algebraic, "refine_root_box", counting)
        s = AlgebraicNumber.root_in_box(P(-2, 0, 1), 1, 2, 0, 0)
        calls.clear()
        assert s.as_rational() is None
        assert s.as_rational() is None
        assert len(calls) == 1

    def test_rational_root_recognized(self):
        # 3/4 as the root of 4z - 3 embedded in a degree-2 squarefree poly
        a = AlgebraicNumber.root_in_box(P(-3, 4) * P(-5, 1), 0, 1, 0, 0)
        assert a.as_rational() == Fraction(3, 4)

    def test_rational_recognized_past_large_coefficients(self):
        # candidates come from the refined disc, not from divisors of the
        # 2^200-sized coefficients, so this stays fast
        start = time.perf_counter()
        p = P(-3, 2**200) * P(-2, 0, 1)
        q = Fraction(3, 2**200)
        assert AlgebraicNumber(p, Ball(q, rad=Fraction(1, 2**210))).as_rational() == q
        s = AlgebraicNumber(p, Ball(Fraction(7, 5), rad=Fraction(1, 10)))
        assert s.as_rational() is None
        assert time.perf_counter() - start < 1


class TestArithmetic:
    def test_alg_equals_cross_polynomial(self):
        # sqrt(2) as root of z^2-2 and of (z^2-2)(z-1)
        a = AlgebraicNumber.root_in_box(P(-2, 0, 1), 1, 2, 0, 0)
        b = AlgebraicNumber.root_in_box(P(-2, 0, 1) * P(-1, 1), Fraction(5, 4), 2, 0, 0)
        assert alg_equals(a, b)
        c = AlgebraicNumber.from_rational(1)
        assert not alg_equals(a, c)

    def test_div_sqrt8_by_sqrt2(self):
        q = alg_div(alg_nth_root(8, 2), alg_nth_root(2, 2))
        assert alg_equals(q, AlgebraicNumber.from_rational(2))

    def test_pow_gaussian(self):
        # (1+i)^4 = -4, with 1+i the canonical root of z^2 - 2z + 2
        a = canonical_root(P(2, -2, 1))
        assert alg_equals(alg_pow(a, 4), AlgebraicNumber.from_rational(-4))
        assert alg_equals(alg_pow(a, -4), AlgebraicNumber.from_rational(Fraction(-1, 4)))

    def test_pow_zero_exponent(self):
        a = alg_nth_root(5, 3)
        assert alg_pow(a, 0).as_rational() == 1

    def test_is_zero(self):
        assert alg_is_zero(AlgebraicNumber.from_rational(0))
        assert not alg_is_zero(alg_nth_root(2, 2))

    def test_is_root_of(self):
        s = alg_nth_root(2, 2)
        assert is_root_of(s, P(-4, 0, 0, 0, 1))  # z^4 = 4
        assert not is_root_of(s, P(-3, 0, 1))


def roots_of(p):
    return [AlgebraicNumber(p, b) for b in isolate_roots(p, 64)]


class TestOneRoot:
    """Decisions that prove only the root of the value they are about."""

    def test_rational_in_reducible_poly(self):
        a = AlgebraicNumber.root_in_box(P(-3, 4) * P(-5, 1), 0, 1, 0, 0)
        b = AlgebraicNumber.from_rational(Fraction(3, 4))
        assert alg_equals(a, b) and alg_equals(b, a)
        five = AlgebraicNumber.root_in_box(P(-3, 4) * P(-5, 1), 4, 6, 0, 0)
        assert not alg_equals(a, five) and not alg_equals(five, b)

    def test_sqrt2_in_reducible_poly(self):
        p = P(-2, 0, 1) * P(-3, 0, 1)
        a = AlgebraicNumber.root_in_box(p, 1, Fraction(3, 2), 0, 0)
        s = alg_nth_root(2, 2)
        assert alg_equals(a, s) and alg_equals(s, a)
        assert is_root_of(a, P(-2, 0, 1))
        assert not is_root_of(a, P(-3, 0, 1))
        t = AlgebraicNumber.root_in_box(p, Fraction(3, 2), 2, 0, 0)
        assert not alg_equals(a, t) and not alg_equals(t, s)
        # discs that overlap at first: refinement parts or certifies them
        wide_s = AlgebraicNumber(P(-2, 0, 1), Ball(Fraction(3, 2), rad=Fraction(1, 2)))
        wide_t = AlgebraicNumber(p, Ball(Fraction(8, 5), rad=Fraction(3, 20)))
        assert alg_equals(wide_s, a) and alg_equals(a, wide_s)
        assert not alg_equals(wide_s, wide_t) and not alg_equals(wide_t, wide_s)

    def test_roots_closer_than_the_first_rung(self):
        # sqrt(2) and sqrt(2 + 2^-140), about 2^-141.5 apart, are roots of p;
        # a split point between 200-bit approximations of them parts them
        p = CLOSE_QUARTIC
        a = alg_nth_root(2, 2)
        split = (Fraction(isqrt(2 << 400), 2**200)
                 + Fraction(isqrt((2**141 + 1) << 260), 2**200)) / 2
        b = AlgebraicNumber.root_in_box(p, split, 2, 0, 0)
        c = AlgebraicNumber.root_in_box(p, 1, split, 0, 0)
        assert alg_equals(a, c) and alg_equals(c, a)
        assert not alg_equals(a, b) and not alg_equals(b, a) and not alg_equals(b, c)
        # b/2 and sqrt(2)/2 are roots of one quartic, closer than 2^-64 too
        two = AlgebraicNumber.from_rational(2)
        q = alg_div(b, two)
        assert is_root_of(q, P(-(2**141 + 1), 0, 2**142))
        assert not is_root_of(q, P(-1, 0, 2))
        assert not alg_equals(q, alg_div(a, two))

    def test_quotient_with_a_close_conjugate(self):
        # sqrt(2)/1 and -sqrt(2)/(-1 - 2^-140) are roots of one ratio-set
        # quartic about 2^-140 apart: the enclosure must shrink well below
        # 2^-64 before one Krawczyk step can prove which root it holds
        ctx = Precision(max_bits=1024)
        a = alg_nth_root(2, 2)
        b = AlgebraicNumber(P(-1, 1) * P(2**140 + 1, 2**140), Ball(Fraction(1), rad=Fraction(1, 2)))
        q = alg_div(a, b, ctx)
        assert q.box.rad < Fraction(1, 2**141)
        assert is_root_of(q, P(-2, 0, 1), ctx)
        assert alg_equals(q, a, ctx) and alg_equals(a, q, ctx)

    def test_ratio_condition_isolates_no_resultant(self, monkeypatch):
        from elindep import algebraic
        from elindep.efunction import ef_bessel_j0, ef_exp
        from elindep.singularities import ratio_condition, singularity_superset

        points = roots_of(F4)[:2] + roots_of(F5)[:2]
        degrees = []
        real = algebraic.isolate_roots

        def recording(p, *args, **kwargs):
            degrees.append(p.degree)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(algebraic, "isolate_roots", recording)
        sets = [singularity_superset(ef_exp()), singularity_superset(ef_bessel_j0())]
        for s in sets:
            for i, a in enumerate(points):
                for b in points[i + 1:]:
                    assert ratio_condition(s, s, a, b)
        assert all(d <= 4 for d in degrees), degrees

    def test_root_in_box_agrees_with_isolation(self):
        # rectangles around each isolated root: centred, and with one edge
        # passing just inside or just outside the root
        for p in BENCH_POOL + [CLOSE_QUARTIC]:
            discs = isolate_roots(p, 256)
            gap = min(max(abs(a.re - b.re), abs(a.im - b.im))
                      for i, a in enumerate(discs) for b in discs[i + 1:])
            w = min(Fraction(1, 100), gap / 4)
            edge = min(Fraction(1, 2**40), w / 1024)
            for d in discs:
                root = AlgebraicNumber(p, d)
                x, y = d.re, d.im
                centred = AlgebraicNumber.root_in_box(p, x - w, x + w, y - w, y + w)
                near_edge = AlgebraicNumber.root_in_box(p, x - edge, x + w, y - w, y + edge)
                for a in (centred, near_edge):
                    assert alg_equals(a, root) and alg_equals(root, a)
                    assert not any(alg_equals(a, AlgebraicNumber(p, o)) for o in discs if o is not d)
                for box in ((x + edge, x + w, y - w, y + w), (x - w, x + w, y - w, y - edge)):
                    with pytest.raises(ValueError, match="no root"):
                        AlgebraicNumber.root_in_box(p, *box)

    def test_one_root_constructors_isolate_nothing(self, monkeypatch):
        (x, y), = [r for r in mp_roots(F4) if r[0] > 0 and r[1] > 0]
        r = Fraction(1, 100)
        calls = []
        real = algebraic.isolate_roots

        def recording(p, *args, **kwargs):
            calls.append(p)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(algebraic, "isolate_roots", recording)
        for q in (2, Fraction(9, 4), 27, Fraction(13, 17)):
            for k in range(2, 7):
                alg_nth_root(q, k)
        a = AlgebraicNumber.root_in_box(F4, x - r, x + r, y - r, y + r)
        assert calls == []
        assert alg_equals(a, canonical_root(F4))

    def test_negative_nth_roots_isolate_nothing(self, monkeypatch):
        # e^(i pi/k), by which a negative point's root is multiplied, is
        # proved on the spot, with no root of z^k + 1 isolated
        calls = []
        real = algebraic.isolate_roots

        def recording(p, *args, **kwargs):
            calls.append(p)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(algebraic, "isolate_roots", recording)
        for k in range(2, 9):
            a = alg_nth_root(Fraction(-5, 3), k)
            assert a.box.im > a.box.rad, k
        assert calls == []

    def test_unit_root_is_principal(self):
        # the certified disc holds one root of z^k + 1, and every other root
        # lies 2 sin(pi/k) or more from e^(i pi/k), so a disc this close to
        # e^(i pi/k) (mpmath, 60 digits) holds it; ordering every isolated
        # root confirms it where that is cheap
        for k in list(range(2, 41)) + [100]:
            unit = algebraic._unit_root(k, algebraic.DEFAULT_PRECISION)
            box = unit.box
            assert box.im > box.rad, k
            assert unit.poly == Polynomial((1,) + (0,) * (k - 1) + (1,))
            with mpmath.workdps(60):
                z = mpmath.exp(1j * mpmath.pi / k)
                x = Fraction(mpmath.nstr(z.real, 55, strip_zeros=False))
                y = Fraction(mpmath.nstr(z.imag, 55, strip_zeros=False))
            assert near_box(box, x, y), k
            if k <= 16:
                oracle = canonical_root(unit.poly)
                assert alg_equals(unit, oracle) and alg_equals(oracle, unit), k

    def test_div_contains_quotient(self):
        dps = 60
        with mpmath.workdps(dps):
            zs = mpmath.polyroots([1, 1, 0, -1, 2], maxsteps=200, extraprec=200)
            ws = mpmath.polyroots([1, 0, 0, 1, -3], maxsteps=200, extraprec=200)
        tol = Fraction(1, 10**50)
        for a in roots_of(F4):
            for b in roots_of(F5)[:2]:
                q = alg_div(a, b).box
                with mpmath.workdps(dps):
                    z = min(zs, key=lambda r: abs(r - mpmath.mpc(float(a.box.re), float(a.box.im))))
                    w = min(ws, key=lambda r: abs(r - mpmath.mpc(float(b.box.re), float(b.box.im))))
                    v = mpmath.mpc(z / w)
                    re = Fraction(mpmath.nstr(v.real, 55, strip_zeros=False))
                    im = Fraction(mpmath.nstr(v.imag, 55, strip_zeros=False))
                assert (re - q.re) ** 2 + (im - q.im) ** 2 <= (q.rad + tol) ** 2


class TestRoots:
    def test_nth_root_fixtures(self):
        assert alg_nth_root(Fraction(9, 4), 2).as_rational() == Fraction(3, 2)
        assert alg_nth_root(27, 3).as_rational() == 3
        # principal square root of -1 is i
        i = alg_nth_root(-1, 2)
        assert alg_equals(alg_pow(i, 2), AlgebraicNumber.from_rational(-1))
        assert i.box.im > 0
        cube = alg_nth_root(2, 3)
        assert alg_equals(alg_pow(cube, 3), AlgebraicNumber.from_rational(2))
        assert cube.box.re > 0 and abs(cube.box.im) <= cube.box.rad

    def test_nth_root_agrees_with_canonical_root(self):
        for q in (2, -2, Fraction(9, 4), Fraction(-9, 4), 27, -27, -8,
                  Fraction(13, 17), Fraction(-13, 17)):
            n, d = Fraction(q).numerator, Fraction(q).denominator
            for k in range(1, 13):
                a = alg_nth_root(q, k)
                b = canonical_root(Polynomial((-n,) + (0,) * (k - 1) + (d,)))
                assert alg_equals(a, b) and alg_equals(b, a), (q, k)
                assert a.as_rational() == b.as_rational(), (q, k)
                if q < 0 and k > 1:
                    assert a.box.im > a.box.rad  # e^(i pi/k) |q|^(1/k)
        assert alg_nth_root(Fraction(9, 4), 2).as_rational() == Fraction(3, 2)
        assert alg_nth_root(27, 3).as_rational() == 3
        assert alg_nth_root(Fraction(-27, 8), 3).as_rational() is None

    def test_integer_root_against_brute_force(self):
        # floor(n^(1/k)): every n below 3000 by a linear scan, and b^k - 1,
        # b^k, b^k + 1 for b^k up to past 10^40 (the floor is b - 1, b, b
        # for k >= 2)
        for k in range(1, 7):
            r = 0
            for n in range(3000):
                while (r + 1) ** k <= n:
                    r += 1
                assert algebraic._iroot(n, k) == r, (n, k)
            b = 2
            while b ** k <= 10**41:
                for n, want in ((b**k - 1, b - 1), (b**k, b), (b**k + 1, b + (k == 1))):
                    assert algebraic._iroot(n, k) == want, (n, k)
                b = b * 3 // 2 + 1
        rng = random.Random(3)
        for _ in range(300):
            k, n = rng.randrange(1, 7), rng.randrange(10**rng.randrange(1, 41))
            r = algebraic._iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)

    def test_canonical_root_principal(self):
        # for z^3 - 1 the canonical root is 1 itself
        r = canonical_root(P(-1, 0, 0, 1))
        assert r.as_rational() == 1


class TestPrecision:
    def test_ladder_is_increasing(self):
        ctx = Precision(start_bits=32, max_bits=256)
        steps = list(ctx.ladder())
        assert steps[0] == 32
        assert all(b < c for b, c in zip(steps, steps[1:]))
        assert steps[-1] <= 256

    def test_exhaustion_raises(self):
        ctx = Precision(start_bits=8, max_bits=8)
        with pytest.raises(PrecisionExceededError):
            raise ctx.exhausted("unit test")
