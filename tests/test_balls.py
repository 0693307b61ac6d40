"""Ball arithmetic: containment and exact queries on random rational balls."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elindep.balls import Ball
from elindep.errors import InputError
from elindep.polynomials import Polynomial

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

RATIONAL = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
RADIUS = st.builds(Fraction, st.integers(0, 30), st.integers(1, 9))
BALL = st.builds(Ball, RATIONAL, RATIONAL, RADIUS)
# (s, t) with s, t in [-1, 1] picks the point re + rad*s + i(im + rad*t*(1-|s|))
UNIT = st.builds(Fraction, st.integers(-8, 8), st.just(8))


def point_in(ball, s, t):
    # the offset has L1 norm <= 1, hence lies in the unit disc
    return ball.re + ball.rad * s, ball.im + ball.rad * t * (1 - abs(s))


def holds(ball, x, y):
    return (x - ball.re) ** 2 + (y - ball.im) ** 2 <= ball.rad**2


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


class TestContainment:
    @PROPERTY
    @given(BALL, BALL, UNIT, UNIT, UNIT, UNIT)
    def test_arithmetic(self, a, b, s, t, u, v):
        x, y = point_in(a, s, t), point_in(b, u, v)
        assert holds(a + b, x[0] + y[0], x[1] + y[1])
        assert holds(a - b, x[0] - y[0], x[1] - y[1])
        assert holds(a * b, *cmul(x, y))
        assert holds(a.scaled(Fraction(-7, 3)), x[0] * Fraction(-7, 3), x[1] * Fraction(-7, 3))
        if not b.contains_zero():
            n = y[0] ** 2 + y[1] ** 2
            inv = (y[0] / n, -y[1] / n)
            assert holds(b.recip(), *inv)
            assert holds(a / b, *cmul(x, inv))

    @PROPERTY
    @given(BALL, st.lists(st.integers(-20, 20), min_size=1, max_size=6), st.integers(1, 20), UNIT, UNIT)
    def test_horner(self, a, coeffs, lead, s, t):
        p = Polynomial(coeffs + [lead])
        x = point_in(a, s, t)
        acc = (Fraction(0), Fraction(0))
        for c in reversed(p.coeffs):
            acc = cmul(acc, x)
            acc = (acc[0] + c, acc[1])
        assert holds(p(a), *acc)

    @PROPERTY
    @given(BALL, st.integers(0, 12), UNIT, UNIT)
    def test_rounded(self, a, bits, s, t):
        r = a.rounded(bits)
        assert holds(r, *point_in(a, s, t))
        # the whole disc, not just sampled points: |shift| + rad <= new rad
        gap = r.rad - a.rad
        assert gap >= 0 and (r.re - a.re) ** 2 + (r.im - a.im) ** 2 <= gap**2
        for q in (r.re, r.im, r.rad):
            assert (q * 2**bits).denominator == 1


class TestQueries:
    @PROPERTY
    @given(BALL, RATIONAL, RADIUS, st.booleans())
    def test_axis_shift_facts(self, a, d, rb, along_re):
        # b's centre sits at distance |d| from a's, so every fact is exact
        b = Ball(a.re + d, a.im, rb) if along_re else Ball(a.re, a.im + d, rb)
        assert a.overlaps(b) == (abs(d) <= a.rad + rb)
        assert b.overlaps(a) == a.overlaps(b)
        assert a.contains_interior(b) == (abs(d) + rb < a.rad)
        # tangent discs: one shared point, inside the closed disc only
        if abs(d) < a.rad:
            inner = Ball(a.re + d, a.im, a.rad - abs(d))
            assert a.overlaps(inner) and not a.contains_interior(inner)
        if abs(d) > a.rad:
            outer = Ball(a.re, a.im + d, abs(d) - a.rad)
            assert a.overlaps(outer)
            assert not a.overlaps(Ball(outer.re, outer.im, outer.rad / 2))

    @PROPERTY
    @given(BALL, BALL, UNIT, UNIT)
    def test_sampled_points(self, a, b, s, t):
        x = point_in(b, s, t)
        if holds(a, *x):
            assert a.overlaps(b)
        if a.contains_interior(b):
            assert (x[0] - a.re) ** 2 + (x[1] - a.im) ** 2 < a.rad**2

    @PROPERTY
    @given(BALL)
    def test_zero_and_modulus(self, a):
        assert a.contains_zero() == (a.re**2 + a.im**2 <= a.rad**2)
        assert a.contains_zero() == a.overlaps(Ball.point(0))


class TestBall:
    def test_arithmetic(self):
        a = Ball(Fraction(1), Fraction(0), Fraction(1, 100))
        b = Ball(Fraction(2), Fraction(1), Fraction(1, 100))
        s = a + b
        assert s.re == 3 and s.im == 1 and s.rad == Fraction(1, 50)
        d = a - b
        assert d.re == -1 and d.im == -1
        sc = a.scaled(3)
        assert sc.re == 3 and sc.rad == Fraction(3, 100)

    def test_zero_and_magnitude(self):
        assert Ball(Fraction(0), Fraction(0), Fraction(1, 10)).contains_zero()
        assert not Ball(Fraction(1), Fraction(0), Fraction(1, 10)).contains_zero()

    def test_json_uses_scientific_radius(self):
        b = Ball(Fraction(1, 3), Fraction(0), Fraction(1, 10**40))
        obj = b.to_json(digits=20)
        assert obj["radius"].endswith("e-40") or "e-" in obj["radius"]


def reference_decimal(q: Fraction, digits: int) -> str:
    """Fixed point with `digits` fractional digits, to nearest, a half away
    from 0, by Fraction arithmetic."""
    sign = "-" if q < 0 else ""
    scaled = abs(q) * 10**digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled - units) >= 1:
        units += 1
    if units >= 10**4300:
        raise InputError("too many digits")
    text = str(units).rjust(digits + 1, "0")
    whole, frac = text[: len(text) - digits], text[len(text) - digits:]
    return sign + whole if digits == 0 else f"{sign}{whole}.{frac}"


def reference_sci_upper(q: Fraction) -> str:
    """q to four significant digits, rounded away from 0, by Fraction
    comparisons."""
    if q == 0:
        return "0"
    mag, e = abs(q), 0
    while Fraction(10) ** e > mag:
        e -= 1
    while Fraction(10) ** (e + 1) <= mag:
        e += 1
    mant = mag * 1000 / Fraction(10) ** e
    m = -(-mant.numerator // mant.denominator)
    if m >= 10000:
        m, e = m // 10, e + 1
    return f"{'-' if q < 0 else ''}{m // 1000}.{m % 1000:03d}e{e:+d}"


def reference_to_json(ball: Ball, digits: int) -> dict:
    """The printed ball: the midpoint to `digits`, the radius widened by
    the rounding of the printed midpoint, in Fractions."""
    re = reference_decimal(ball.re, digits)
    im = reference_decimal(ball.im, digits)
    rad = ball.rad + abs(Fraction(re) - ball.re) + abs(Fraction(im) - ball.im)
    return {"re": re, "im": im, "radius": reference_sci_upper(rad),
            "heuristic_tail": ball.heuristic_tail}


def _random_rational(rng: random.Random, den_bits: int) -> Fraction:
    num = rng.getrandbits(max(1, den_bits + rng.randint(-40, 40)))
    return Fraction(rng.choice((-1, 1)) * num, rng.getrandbits(den_bits) | 1)


class TestPrinting:
    """`Ball.to_json` rounds in integers over the unreduced denominators;
    it prints what the Fraction formula prints."""

    @pytest.mark.parametrize("digits", [0, 1, 300])
    def test_matches_the_fraction_formula(self, digits):
        rng = random.Random(digits)
        for i in range(60):
            # denominators of 3 to 3000 digits (10^3000 has 9966 bits)
            bits = rng.choice([10, 200, 10000, 11000])
            re = _random_rational(rng, bits)
            im = Fraction(0) if i % 3 == 0 else _random_rational(rng, bits)
            rad = Fraction(0) if i % 4 == 0 else _random_rational(rng, bits // 2 + 1) ** 2
            ball = Ball(re, im, rad, heuristic_tail=i % 5 == 0)
            assert ball.to_json(digits) == reference_to_json(ball, digits)

    def test_halves_and_exact_midpoints(self):
        for digits in (0, 1, 300):
            for q in (Fraction(5, 10 ** (digits + 1)), Fraction(-5, 10 ** (digits + 1)),
                      Fraction(3, 2), Fraction(-7, 2), Fraction(0), Fraction(1, 10**digits)):
                for ball in (Ball(q), Ball(q, -q), Ball(q, q, Fraction(1, 7))):
                    assert ball.to_json(digits) == reference_to_json(ball, digits)

    def test_past_4300_digits_is_an_input_error(self):
        widest = Ball(Fraction(10**4300 - 1), Fraction(-(10**4299)))
        assert widest.to_json(0) == reference_to_json(widest, 0)
        for ball, digits in ((Ball(Fraction(10**4300)), 0), (Ball(Fraction(10**4299)), 1),
                             (Ball(Fraction(1), Fraction(-(10**4300) + Fraction(1, 3))), 0),
                             (Ball(Fraction(2 * 10**4300 - 1, 20)), 1)):
            with pytest.raises(InputError, match="more than 4300 digits"):
                ball.to_json(digits)
