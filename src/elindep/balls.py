"""Complex balls with an exact rational midpoint and a rational radius.

A ball stands for the closed disc {z : |z - mid| <= rad}.  Sums,
differences and rational multiples are exact: the midpoints combine
exactly and the radii add.  Products and reciprocals keep an exact
midpoint and bound the radius from above through a dyadic upper bound on
|midpoint| (an upward-rounded integer square root), so every operation is
outward-closed: if x is in A and y is in B then x op y is in A op B.  All
comparisons are decided exactly on squared distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt

from .errors import InputError
from .rationals import decimal_rounded, sci_upper

_ZERO = Fraction(0)


def _sqrt_upper(s: Fraction, bits: int = 64) -> Fraction:
    """A dyadic upper bound for sqrt(s) (s >= 0) with about `bits` bits."""
    if not s:
        return _ZERO
    # choose k so that s * 4^k has about 2 * bits bits
    k = bits - (s.numerator.bit_length() - s.denominator.bit_length()) // 2
    if k >= 0:
        scaled = -((-s.numerator << 2 * k) // s.denominator)
        return Fraction(isqrt(scaled) + 1, 1 << k)
    scaled = -((-s.numerator) // (s.denominator << -2 * k))
    return Fraction((isqrt(scaled) + 1) << -k)


@dataclass(frozen=True)
class Ball:
    """The disc of radius `rad` around re + i*im, all exact rationals.

    `heuristic_tail` marks a radius that rests on an unproven series tail;
    it is carried through arithmetic and reported, never used in decisions.
    """

    re: Fraction
    im: Fraction = _ZERO
    rad: Fraction = _ZERO
    heuristic_tail: bool = False

    def __post_init__(self):
        if self.rad < 0:
            raise InputError("radius must be nonnegative")

    @classmethod
    def point(cls, q) -> "Ball":
        """The exact real number q."""
        return cls(Fraction(q))

    # -- arithmetic: + - and scaling are exact -------------------------------

    def __add__(self, other) -> "Ball":
        if not isinstance(other, Ball):
            return Ball(self.re + other, self.im, self.rad, self.heuristic_tail)
        return Ball(
            self.re + other.re,
            self.im + other.im,
            self.rad + other.rad,
            self.heuristic_tail or other.heuristic_tail,
        )

    __radd__ = __add__

    def __neg__(self) -> "Ball":
        return Ball(-self.re, -self.im, self.rad, self.heuristic_tail)

    def __sub__(self, other) -> "Ball":
        return self + (-other)

    def __rsub__(self, other) -> "Ball":
        return (-self) + other

    def scaled(self, c) -> "Ball":
        c = Fraction(c)
        return Ball(self.re * c, self.im * c, self.rad * abs(c), self.heuristic_tail)

    def __mul__(self, other) -> "Ball":
        if not isinstance(other, Ball):
            return self.scaled(other)
        # |xy - ab| <= |a| s + |b| r + r s for |x - a| <= r, |y - b| <= s
        r, s = self.rad, other.rad
        rad = r * s
        if s:
            rad += s * self._abs_upper()
        if r:
            rad += r * other._abs_upper()
        return Ball(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            rad,
            self.heuristic_tail or other.heuristic_tail,
        )

    __rmul__ = __mul__

    def recip(self) -> "Ball":
        """1/z over the ball; the ball must exclude 0.

        For |z - a| <= r < |a|: |1/z - 1/a| = |z - a| / (|a| |z|)
        <= r / (|a|^2 - r |a|).
        """
        n = self.re * self.re + self.im * self.im
        if n <= self.rad * self.rad:
            raise ZeroDivisionError("ball contains zero")
        rad = self.rad
        if rad:
            bits = 64
            while (d := n - rad * _sqrt_upper(n, bits)) <= 0:
                bits *= 2
            rad = rad / d
        return Ball(self.re / n, -self.im / n, rad, self.heuristic_tail)

    def __truediv__(self, other) -> "Ball":
        return self * other.recip()

    def rounded(self, bits: int) -> "Ball":
        """A ball containing this one with midpoint and radius on the
        2^-bits grid.

        Keeps number sizes bounded across long contraction loops: the
        midpoint moves to the nearest grid point and the radius grows by
        the (L1-bounded) shift, then rounds up.
        """
        scale = 1 << bits
        re = Fraction(round(self.re * scale), scale)
        im = Fraction(round(self.im * scale), scale)
        rad = self.rad + abs(re - self.re) + abs(im - self.im)
        return Ball(re, im, Fraction(ceil(rad * scale), scale), self.heuristic_tail)

    # -- exact queries ---------------------------------------------------------

    def _dist_sq(self, other: "Ball") -> Fraction:
        dre, dim = self.re - other.re, self.im - other.im
        return dre * dre + dim * dim

    def _abs_upper(self) -> Fraction:
        """Dyadic upper bound for |midpoint|."""
        return _sqrt_upper(self.re * self.re + self.im * self.im)

    def overlaps(self, other: "Ball") -> bool:
        """True when the two discs share a point."""
        r = self.rad + other.rad
        return self._dist_sq(other) <= r * r

    def contains_interior(self, other: "Ball") -> bool:
        """True when `other` lies in the open disc of this ball."""
        gap = self.rad - other.rad
        return gap > 0 and self._dist_sq(other) < gap * gap

    def contains_zero(self) -> bool:
        return self.re * self.re + self.im * self.im <= self.rad * self.rad

    def to_json(self, digits: int = 30) -> dict:
        re, re_err = decimal_rounded(self.re, digits)
        im, im_err = decimal_rounded(self.im, digits)
        # widen by the rounding of the printed midpoint, so the printed ball
        # still contains every point of this one: rad + re_err / (d_re 10^digits)
        # + im_err / (d_im 10^digits), over one denominator left unreduced
        d_re, d_im = self.re.denominator, self.im.denominator
        rad_n, rad_d = self.rad.numerator, self.rad.denominator
        num = (rad_n * 10**digits * d_re + re_err * rad_d) * d_im + im_err * rad_d * d_re
        return {
            "re": re,
            "im": im,
            "radius": sci_upper(num, rad_d * d_re * d_im * 10**digits),
            "heuristic_tail": self.heuristic_tail,
        }
