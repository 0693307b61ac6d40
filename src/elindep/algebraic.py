"""Certified algebraic numbers: isolation, refinement, and exact decisions.

An algebraic number is a squarefree integer polynomial together with a
certified isolating disc (a `Ball`).  Every certificate rests on one
Krawczyk test, run in integers on a binary grid with outward rounding
(`_krawczyk_step`):

  * Take any m in the disc B (its centre floored to the grid) and any
    nonzero Y (a Gaussian-integer mantissa near 1/p'(m) with its own
    binary exponent).  For z in B, z - Y p(z) = m - Y p(m) + (1 - Y a)
    (z - m), where a is the mean of p' over the segment [m, z], which lies
    in the convex B.  A ball Horner of p' over B, rounded outward, bounds
    every such |1 - Y a| by M, and |z - m| <= rho = rad(B) + 2 grid units.
    So z -> z - Y p(z) maps B into the disc K about m - Y p(m) of radius
    M rho, both rounded outward.  K strictly inside B proves that B holds
    exactly one root of p, and that it lies in K: Brouwer's theorem gives
    a root, and the radius of K, at least M rad(B) yet below rad(B),
    forces M < 1, which makes z -> z - Y p(z) a contraction on B
    (uniqueness).  p(m) and p'(m) are exact, and the containment is
    decided exactly against the caller's disc.

Decisions about one known value prove only that value's root:

  * One root from an enclosure (`alg_div`, `alg_pow`, inverses): the value
    is a root of p and lies in a guaranteed enclosure.  One successful
    Krawczyk step on the enclosure, radius doubled, proves the disc holds
    one root of p only, so that root is the value.
  * Membership (`is_root_of`): with g = gcd(p_x, q) and h = p_x / g, the
    squarefree p_x = g h makes x a root of exactly one of g and h.  The
    other one's value on x's shrinking disc (Horner over balls) must drop
    0, which decides the question with no root of g or h isolated.
  * Equality (`alg_equals`): once a is known to be a root of p_b, a and b
    differ if their discs part, and are equal if one Krawczyk step for p_b
    succeeds on a disc covering both.

Constructors prove only the root they keep:

  * Principal k-th roots (`alg_nth_root`): |q|^(1/k) is enclosed exactly by
    an integer k-th root, times e^(i pi/k) (`_unit_root`) when q < 0, and
    goes through the enclosure step above.
  * Points given by a rectangle (`AlgebraicNumber.root_in_box`): one
    Krawczyk step on the disc circumscribing the rectangle proves that disc
    holds one root only; its disc is refined until it lies inside the
    rectangle or misses it (a real-centred disc holds a real root, so only
    its real extent counts).

Full isolation of every root serves only the fallbacks of `root_in_box`
and `refine_root_box`, and `efunction._band_roots`, which needs every
nonnegative integer root of a leading recurrence band whose coefficients
change sign.  There a numeric proposer (mpmath.polyroots) suggests discs,
as the float (cos pi/k, sin pi/k) does in `_unit_root`; neither enters the
soundness argument: the Krawczyk test certifies each disc, and pairwise
disjointness plus disc count == degree proves every root was captured.
The module keeps no state.

All decision loops escalate working precision from Precision.start_bits by
doubling up to Precision.max_bits and then raise PrecisionExceededError, so
no equality or membership answer is ever a guess.
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, isqrt, pi, sin
from typing import Callable, Iterable

from .balls import Ball, _sqrt_upper
from .errors import InputError, PrecisionExceededError
from .polynomials import (
    Polynomial,
    is_squarefree,
    poly_gcd,
    power_set_poly,
    ratio_set_poly,
    squarefree_part,
)


class Precision:
    """Explicit working-precision context for certified decisions."""

    __slots__ = ("start_bits", "max_bits")

    def __init__(self, start_bits: int = 64, max_bits: int = 1 << 16):
        if start_bits < 8 or max_bits < start_bits:
            raise InputError(
                f"precision bounds need 8 <= start bits <= max bits, got "
                f"{start_bits} and {max_bits}"
            )
        self.start_bits = start_bits
        self.max_bits = max_bits

    def ladder(self) -> Iterable[int]:
        bits = self.start_bits
        while bits <= self.max_bits:
            yield bits
            bits *= 2

    def exhausted(self, what: str) -> PrecisionExceededError:
        return PrecisionExceededError(
            f"{what} undecided at the {self.max_bits}-bit precision cap"
        )


DEFAULT_PRECISION = Precision()


def _mpf_to_fraction(x) -> Fraction:
    # read the mpf's own bits: mpmath.mpf(x) would round to the context's
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


# bits by which the Krawczyk step's grid is finer than both its target grid
# and the radius of the disc it tests
_GUARD_BITS = 32


def _krawczyk_coeffs(p: Polynomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primitive integer coefficients of p and of their derivative,
    constant term first: the form the Krawczyk step takes."""
    return p.prim, tuple(i * c for i, c in enumerate(p.prim) if i)


def _gauss_horner(cs: tuple[int, ...], xr: int, xi: int, s: int) -> tuple[int, int]:
    """p(x) 2^(s deg p) exactly, as (re, im), for x = (xr + i xi) 2^-s and
    p with integer coefficients cs."""
    re, im, shift = cs[-1], 0, 0
    for c in reversed(cs[:-1]):
        shift += s
        re, im = re * xr - im * xi + (c << shift), re * xi + im * xr
    return re, im


def _ball_horner(cs: tuple[int, ...], xr: int, xi: int, xrad: int, s: int) -> tuple[int, int, int]:
    """A disc (re, im, rad) in units of 2^-s holding p(z) for every z in
    the disc of radius xrad about xr + i xi (same units).

    Each product floors its midpoint, an error below sqrt(2) units, so its
    radius is rounded up and grows by 2 units.
    """
    xabs = isqrt(xr * xr + xi * xi) + 1
    re, im, rad = cs[-1] << s, 0, 0
    for c in reversed(cs[:-1]):
        # |uv - ax| <= |a| xrad + |x| rad + rad xrad for u, v within rad, xrad
        aabs = isqrt(re * re + im * im) + 1
        rad = -(-(aabs * xrad + rad * (xabs + xrad)) >> s) + 2
        re, im = ((re * xr - im * xi) >> s) + (c << s), (re * xi + im * xr) >> s
    return re, im, rad


def _grid_inside(ball: Ball, re: int, im: int, rad: int, s: int) -> bool:
    """Whether the disc of radius rad about re + i im, in units of 2^-s,
    lies in the open disc `ball`; decided exactly in integers."""
    a, al = ball.re.numerator, ball.re.denominator
    b, be = ball.im.numerator, ball.im.denominator
    r, ga = ball.rad.numerator, ball.rad.denominator
    gap = (r << s) - rad * ga
    if gap <= 0:
        return False
    # (dx/al)^2 + (dy/be)^2 < (gap/ga)^2, all over 2^s, times (al be ga)^2
    dx = ((a << s) - re * al) * be
    dy = ((b << s) - im * be) * al
    return (dx * dx + dy * dy) * ga * ga < (gap * al * be) ** 2


def _grid_ball(re: int, im: int, rad: int, s: int) -> Ball:
    unit = 1 << s
    return Ball(Fraction(re, unit), Fraction(im, unit), Fraction(rad, unit))


def _krawczyk_step(
    p: tuple[int, ...], dp: tuple[int, ...], ball: Ball, bits: int
) -> Ball | None:
    """One Krawczyk contraction test of p on the disc `ball`, in integers.

    p and dp are the integer coefficients of p and p' (`_krawczyk_coeffs`).
    Returns a disc inside `ball` that holds the one root of p in `ball`
    (its midpoint on the 2^-bits grid when that stays inside), or None if
    the test fails.

    Everything runs on the grid 2^-s, s = max(bits, b) + _GUARD_BITS for
    the radius 2^-b <= rad(B), with every rounding outward:

      * m is the centre of B floored to the grid, so B - m lies in the
        disc (0, rho) with rho = rad(B) + 2 units, and so does z - m for
        every z in the disc (m, rho), which holds B and is convex.
      * p(m) and p'(m) are exact (Horner over Gaussian integers).  Y ~
        1/p'(m) is a Gaussian-integer mantissa of about s bits with its
        own binary exponent; any nonzero Y serves.
      * p'(z) for z in the disc (m, rho) lies in a disc (P, r) from a ball
        Horner on the grid, so max |1 - Y p'| <= |1 - Y P| + |Y| r =: M.
      * K = disc(m - Y p(m), M rho + 2 units), m - Y p(m) floored.

    Mean-value inclusion: for z in B, N(z) = z - Y p(z) equals
    N(m) + (1 - Y a)(z - m), with a the mean of p' over the segment
    [m, z], which lies in the disc (P, r) because the segment lies in the
    convex disc (m, rho).  So N maps B into K.  If K lies in the open disc
    B, Brouwer's theorem gives a fixed point of N in B, a root of p (Y is
    nonzero), and it lies in K.  The radius of K is at least M rho >
    M rad(B), and it is below rad(B), so M < 1: two roots z1, z2 of p in B
    would give z1 - z2 = N(z1) - N(z2) = (1 - Y a)(z1 - z2) with
    |1 - Y a| <= M < 1, so the root is unique.  The containment is decided
    exactly against the caller's disc.
    """
    if not ball.rad:
        return None
    s = max(bits, _radius_bits(ball.rad)) + _GUARD_BITS
    mr = (ball.re.numerator << s) // ball.re.denominator
    mi = (ball.im.numerator << s) // ball.im.denominator
    rho = -(-(ball.rad.numerator << s) // ball.rad.denominator) + 2
    n = len(p) - 1
    # p'(m) = (dr + i di) 2^-(s(n-1)); Y = (yr + i yi) 2^-(k - s(n-1))
    dr, di = _gauss_horner(dp, mr, mi, s)
    norm = dr * dr + di * di
    if not norm:
        return None
    k = s + (norm.bit_length() + 1) // 2
    yr, yi = (dr << k) // norm, (-di << k) // norm
    # p(m) = (pr + i pi) 2^-(sn), so Y p(m) = (yr + i yi)(pr + i pi) 2^-k units
    pr, pi = _gauss_horner(p, mr, mi, s)
    kr = mr - ((yr * pr - yi * pi) >> k)
    ki = mi - ((yr * pi + yi * pr) >> k)
    # 1 - Y P = (2^u - (yr + i yi)(br + i bi)) 2^-u with u = k - s(n-2),
    # and |Y| r = |yr + i yi| brad 2^-u; a negative u is lifted to 0
    br, bi, brad = _ball_horner(dp, mr, mi, rho, s)
    u = k - s * (n - 2)
    lift = max(0, -u)
    u += lift
    er = (1 << u) - ((yr * br - yi * bi) << lift)
    ei = -((yr * bi + yi * br) << lift)
    yabs = isqrt(yr * yr + yi * yi) + 1
    spread = (isqrt(er * er + ei * ei) + 1 + (yabs * brad << lift)) * rho
    krad = -(-spread >> u) + 2
    if not _grid_inside(ball, kr, ki, krad, s):
        return None
    # round to the 2^-bits grid: the midpoint moves by at most its L1 shift
    shift = s - bits
    half = 1 << (shift - 1)
    qr, qi = (kr + half) >> shift, (ki + half) >> shift
    moved = abs(kr - (qr << shift)) + abs(ki - (qi << shift))
    qrad = -(-(krad + moved) >> shift)
    if _grid_inside(ball, qr, qi, qrad, bits):
        return _grid_ball(qr, qi, qrad, bits)
    return _grid_ball(kr, ki, krad, s)


def _refine_certified(
    p: tuple[int, ...],
    dp: tuple[int, ...],
    ball: Ball,
    target_radius: Fraction,
) -> Ball | None:
    """Shrink a certified disc below target_radius by at most 256 repeated
    contractions; every disc lies inside the one before."""
    # midpoint granularity a little finer than the target radius
    mid_bits = max(96, _radius_bits(target_radius) + 32)
    for _ in range(256):
        if ball.rad <= target_radius:
            return ball
        ball = _krawczyk_step(p, dp, ball, mid_bits)
        if ball is None:
            return None
    return ball if ball.rad <= target_radius else None


def _radius_bits(radius: Fraction) -> int:
    """A b >= 0 with 2^-b <= radius, at most one more than the least such b."""
    if radius <= 0:
        return 0
    num, den = radius.numerator, radius.denominator
    return max(0, den.bit_length() - num.bit_length() + 1)


def _propose_roots(p: tuple[int, ...], bits: int):
    """Untrusted root approximations at about `bits` bits of precision.
    mpmath is imported here, on first use, so that a process that isolates
    no root never loads it."""
    import mpmath

    dps = max(30, int(bits * 0.302) + 10 + 2 * (len(p) - 1))
    # coefficients and roots must both live at the working precision
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c) for c in reversed(p)]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=dps * 4)
        except (mpmath.libmp.NoConvergence, ZeroDivisionError):
            return None
        return [mpmath.mpc(r) for r in roots]


def isolate_roots(
    p: Polynomial,
    precision_bits: int = 64,
    ctx: Precision = DEFAULT_PRECISION,
) -> list[Ball]:
    """Certified isolating discs for all complex roots of a squarefree p.

    Each returned disc contains exactly one root, discs are pairwise
    disjoint, there is one per root, and every radius is at most
    2^-precision_bits.  Each call isolates afresh; `refine_root_box`
    shrinks a disc already held inside itself.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if not is_squarefree(p):
        raise ValueError("isolate_roots requires a squarefree polynomial")
    if p.degree <= 0:
        return []
    if p.degree == 1:
        return [Ball.point(-p[0] / p[1])]
    target = Fraction(1, 1 << precision_bits)
    pc, dpc = _krawczyk_coeffs(p)
    for bits in ctx.ladder():
        balls = _isolate_at(pc, dpc, target, bits)
        if balls is not None:
            return balls
    raise ctx.exhausted(f"root isolation for degree {p.degree}")


def _isolate_at(p, dp, target, bits):
    """Isolating discs of radius <= target from proposals at one rung, or None.

    Krawczyk starts at a radius tied to the proposals' separation and, while
    it fails, retries at radii 64 times smaller down to 2^-(bits/2), which
    lies between the proposals' error and their separation.
    """
    proposals = _propose_roots(p, bits)
    n = len(p) - 1
    if proposals is None or len(proposals) != n:
        return None
    sep = min(abs(a - b) for i, a in enumerate(proposals) for b in proposals[i + 1:])
    if sep <= 0:
        return None
    r0 = max(Fraction(1, 1 << min(bits, 256)), min(_mpf_to_fraction(sep) / 8, Fraction(1, 4)))
    floor = Fraction(1, 1 << (bits // 2))
    # centres must be finer than the start radius, which may lie far below
    # the target when two roots are close
    mid_bits = max(_radius_bits(target), _radius_bits(r0)) + 32
    balls = []
    for z in proposals:
        centre = Ball(_mpf_to_fraction(z.real), _mpf_to_fraction(z.imag)).rounded(mid_bits)
        r = r0
        while (cert := _krawczyk_step(p, dp, Ball(centre.re, centre.im, r), mid_bits)) is None:
            r /= 64
            if r <= floor:
                return None
        tight = _refine_certified(p, dp, cert, target)
        if tight is None:
            return None
        balls.append(tight)
    for i in range(n):
        for j in range(i + 1, n):
            if balls[i].overlaps(balls[j]):
                return None
    return balls


def _reisolate_inside(p, dp, ball, target, ctx):
    """The fallback of `refine_root_box` when contraction fails: every root
    isolated afresh, rung by rung, and the one fresh disc inside `ball`
    (certified to hold exactly one root) kept, so the result still nests."""
    for bits in ctx.ladder():
        fresh = _isolate_at(p, dp, target, bits)
        if fresh is None:
            continue
        hits = [b for b in fresh if ball.contains_interior(b)]
        if len(hits) == 1:
            return hits[0]
    return None


def refine_root_box(
    p: Polynomial,
    box: Ball,
    precision_bits: int,
    ctx: Precision = DEFAULT_PRECISION,
) -> Ball:
    """Refine a certified isolating disc of p below 2^-precision_bits."""
    target = Fraction(1, 1 << precision_bits)
    if box.rad <= target:
        return box
    pc, dpc = _krawczyk_coeffs(p)
    tight = _refine_certified(pc, dpc, box, target)
    if tight is None:
        tight = _reisolate_inside(pc, dpc, box, target, ctx)
    if tight is None:
        raise ctx.exhausted("box refinement")
    return tight


class AlgebraicNumber:
    """A root of a squarefree integer polynomial, pinned by a certified
    isolating disc `box`."""

    __slots__ = ("poly", "box", "_rational", "_irrational")

    def __init__(self, poly: Polynomial, box: Ball, _rational: Fraction | None = None):
        self.poly = poly
        self.box = box
        self._rational = _rational
        self._irrational = False  # set once as_rational has proven it

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        q = Fraction(q)
        poly = Polynomial((-q.numerator, q.denominator))
        return cls(poly, Ball.point(q), q)

    @classmethod
    def root_in_box(
        cls,
        poly: Polynomial,
        re_lo,
        re_hi,
        im_lo,
        im_hi,
        ctx: Precision = DEFAULT_PRECISION,
    ) -> "AlgebraicNumber":
        """The unique root of poly in the closed rectangle [re_lo, re_hi] x
        [im_lo, im_hi].

        A certified disc decides whether its one root lies in the rectangle
        once it lies inside the rectangle or misses it.  A disc with a real
        centre is its own mirror image, so its root is real: only its real
        extent is compared.  A root at a real edge point or at a corner of
        the rectangle is found by exact evaluation.  Discs are refined rung
        by rung until each is decided.

        One Krawczyk step on the disc circumscribing the rectangle proves
        that disc holds one root only, so that root alone is decided.  Only
        when the step fails does every root get isolated, once; each rung
        then refines the discs it holds (`refine_root_box`).
        Raises ValueError if the rectangle holds no root, or once it is
        proven to hold two; raises PrecisionExceededError if a root is still
        undecided at the cap (a non-real root on an edge, off the corners).
        """
        re_lo, re_hi, im_lo, im_hi = map(Fraction, (re_lo, re_hi, im_lo, im_hi))
        if re_lo > re_hi or im_lo > im_hi:
            raise ValueError("rectangle bounds out of order")
        poly = squarefree_part(poly).primitive_int()
        if poly.degree <= 0:
            raise ValueError("polynomial has no roots")

        def root_at(x: Fraction, y: Fraction, b: Ball) -> bool:
            """Whether the corner x + iy lies in b and is a root."""
            if (b.re - x) ** 2 + (b.im - y) ** 2 > b.rad * b.rad:
                return False
            v = poly(Ball(x, y))
            return v.re == 0 and v.im == 0

        def holds(b: Ball) -> bool | None:
            """Whether the one root in b lies in the rectangle; None if b
            still straddles its boundary."""
            if b.im == 0:
                lo, hi = b.re - b.rad, b.re + b.rad
                if not im_lo <= 0 <= im_hi or hi < re_lo or re_hi < lo:
                    return False
                if re_lo <= lo and hi <= re_hi:
                    return True
                if any(lo <= e <= hi and poly(e) == 0 for e in (re_lo, re_hi)):
                    return True
                return None
            # the point of the rectangle nearest the disc's centre
            x = min(max(b.re, re_lo), re_hi)
            y = min(max(b.im, im_lo), im_hi)
            if (b.re - x) ** 2 + (b.im - y) ** 2 > b.rad * b.rad:
                return False
            if (re_lo <= b.re - b.rad and b.re + b.rad <= re_hi
                    and im_lo <= b.im - b.rad and b.im + b.rad <= im_hi):
                return True
            if any(root_at(x, y, b) for x in (re_lo, re_hi) for y in (im_lo, im_hi)):
                return True
            return None

        pc, dpc = _krawczyk_coeffs(poly)
        half_re, half_im = (re_hi - re_lo) / 2, (im_hi - im_lo) / 2
        disc = Ball(re_lo + half_re, im_lo + half_im,
                    _sqrt_upper(half_re * half_re + half_im * half_im))
        one = _krawczyk_step(pc, dpc, disc, _radius_bits(disc.rad) + 32)
        discs = None if one is None else [one]
        for bits in ctx.ladder():
            if discs is None:
                discs = isolate_roots(poly, bits, ctx)
            else:
                discs = [refine_root_box(poly, b, bits, ctx) for b in discs]
            verdicts = [holds(b) for b in discs]
            held = [b for b, v in zip(discs, verdicts) if v]
            if len(held) >= 2:
                raise ValueError(
                    f"box contains several roots of the polynomial (at least {len(held)})"
                )
            if None not in verdicts:
                if not held:
                    raise ValueError("box contains no root of the polynomial")
                return cls(poly, held[0])
        raise ctx.exhausted("root-in-box selection")

    @classmethod
    def _from_enclosure(
        cls,
        poly: Polynomial,
        shrink: Callable[[int], Ball],
        ctx: Precision = DEFAULT_PRECISION,
    ) -> "AlgebraicNumber":
        """The root of poly that a shrinking guaranteed enclosure pins down.

        shrink(bits) must return a ball certain to contain the value, a root
        of poly; as bits grow the enclosure must shrink to the point.  A
        Krawczyk step that succeeds on the enclosure, widened so the root
        need not sit at its centre, proves it holds one root only: the value.
        """
        poly = poly.primitive_int()
        if poly.degree == 1:
            return cls.from_rational(-Fraction(poly[0], poly[1]))
        pc, dpc = _krawczyk_coeffs(poly)
        for bits in ctx.ladder():
            e = shrink(bits)
            wide = Ball(e.re, e.im, 2 * e.rad)
            cert = _krawczyk_step(pc, dpc, wide, _radius_bits(wide.rad) + 32)
            if cert is not None:
                return cls(poly, cert)
        raise ctx.exhausted("root selection from enclosure")

    # -- views ---------------------------------------------------------------

    def refined(self, precision_bits: int, ctx: Precision = DEFAULT_PRECISION) -> "AlgebraicNumber":
        if self._rational is not None:
            return self
        box = refine_root_box(self.poly, self.box, precision_bits, ctx)
        return AlgebraicNumber(self.poly, box, self._rational)

    @property
    def degree_bound(self) -> int:
        return self.poly.degree

    def as_rational(self, ctx: Precision = DEFAULT_PRECISION) -> Fraction | None:
        """Exact rational value if this number is rational, else None.

        A rational root n/d of the primitive integer polynomial has d
        dividing its leading coefficient L, and two such fractions lie at
        least 1/L^2 apart.  So once the disc's radius is below 1/(2 L^2)
        the only candidate is the fraction nearest the midpoint with
        denominator at most L, and the number is rational exactly when that
        candidate is a root of the polynomial inside the isolating disc.
        Either answer is kept.
        """
        if self._rational is None and not self._irrational:
            lead = self.poly.prim[-1]
            box = refine_root_box(self.poly, self.box, 2 * lead.bit_length() + 2, ctx)
            cand = box.re.limit_denominator(lead)
            if self.poly(cand) == 0 and box.overlaps(Ball.point(cand)):
                self._rational = cand
            else:
                self._irrational = True
        return self._rational

    def __repr__(self) -> str:
        if self._rational is not None:
            return f"AlgebraicNumber({self._rational})"
        return (
            f"AlgebraicNumber(deg<={self.poly.degree},"
            f" ~{float(self.box.re):.6g}{float(self.box.im):+.6g}i)"
        )


def alg_equals(
    a: AlgebraicNumber,
    b: AlgebraicNumber,
    ctx: Precision = DEFAULT_PRECISION,
) -> bool:
    """Exact equality of two algebraic numbers."""
    if a is b:
        return True
    if a._rational is not None and b._rational is not None:
        return a._rational == b._rational
    if not a.box.overlaps(b.box) or not is_root_of(a, b.poly, ctx):
        return False
    if b.poly.degree == 1:
        return True
    # a and b are both roots of b.poly: equal once one disc holding both
    # holds only one root of it, different once their discs part
    pc, dpc = _krawczyk_coeffs(b.poly)
    for bits in ctx.ladder():
        ab = refine_root_box(a.poly, a.box, bits, ctx)
        bb = refine_root_box(b.poly, b.box, bits, ctx)
        if not ab.overlaps(bb):
            return False
        # the discs overlap, so this one covers both
        both = Ball(bb.re, bb.im, 2 * (ab.rad + bb.rad))
        if _krawczyk_step(pc, dpc, both, bits) is not None:
            return True
    raise ctx.exhausted("equality")


def is_root_of(
    x: AlgebraicNumber,
    q: Polynomial,
    ctx: Precision = DEFAULT_PRECISION,
) -> bool:
    """Decide whether x is a root of q (q nonzero, not necessarily squarefree).

    A rational x is settled by evaluating q exactly.  Otherwise x is a root
    of q when it is a root of g = gcd(x.poly, q); since x.poly is squarefree,
    so are g and x.poly/g, whatever the multiplicities in q.
    """
    if q.is_zero:
        raise ValueError("membership in the zero polynomial")
    if x._rational is not None:
        return q(x._rational) == 0
    g = poly_gcd(x.poly, q)
    if g.degree <= 0:
        return False
    h = x.poly.exact_div(g)
    if h.degree <= 0:
        return True
    # x.poly = g h is squarefree, so x is a root of exactly one of g, h and
    # the other one's value on x's shrinking disc drops 0
    g, h = g.primitive_int(), h.primitive_int()
    for bits in ctx.ladder():
        xb = refine_root_box(x.poly, x.box, bits, ctx)
        if not g(xb).contains_zero():
            return False
        if not h(xb).contains_zero():
            return True
    raise ctx.exhausted("root membership")


def alg_is_zero(a: AlgebraicNumber, ctx: Precision = DEFAULT_PRECISION) -> bool:
    if a._rational is not None:
        return a._rational == 0
    if a.poly[0] != 0:
        return False
    return is_root_of(a, Polynomial.x(), ctx)


def _nonzero_poly_part(a: AlgebraicNumber, ctx: Precision) -> tuple[Polynomial, Ball]:
    """Defining data of a known-nonzero a with any z factor stripped."""
    k, q = a.poly.deflate_z()
    if k == 0:
        return a.poly, a.box
    box = a.box
    for bits in ctx.ladder():
        if not box.contains_zero():
            return q, box
        box = refine_root_box(a.poly, box, bits, ctx)
    raise ctx.exhausted("zero separation")


def alg_div(
    a: AlgebraicNumber,
    b: AlgebraicNumber,
    ctx: Precision = DEFAULT_PRECISION,
) -> AlgebraicNumber:
    """Exact quotient a/b of algebraic numbers (b nonzero)."""
    if alg_is_zero(b, ctx):
        raise ZeroDivisionError("division by the zero algebraic number")
    ar, br = a.as_rational(ctx), b.as_rational(ctx)
    if ar is not None and br is not None:
        return AlgebraicNumber.from_rational(ar / br)
    bpoly, bbox = _nonzero_poly_part(b, ctx)
    rpoly = ratio_set_poly(a.poly, bpoly)

    def shrink(bits: int) -> Ball:
        na = refine_root_box(a.poly, a.box, bits, ctx)
        # refinement nests inside bbox, which already excludes zero
        nb = refine_root_box(b.poly, bbox, bits, ctx)
        return na / nb

    return AlgebraicNumber._from_enclosure(rpoly, shrink, ctx)


def alg_pow(
    a: AlgebraicNumber,
    n: int,
    ctx: Precision = DEFAULT_PRECISION,
) -> AlgebraicNumber:
    """Exact integer power a^n (a nonzero when n < 0)."""
    if n == 0:
        return AlgebraicNumber.from_rational(1)
    if n < 0:
        return alg_pow(_alg_invert(a, ctx), -n, ctx)
    ar = a.as_rational(ctx)
    if ar is not None:
        return AlgebraicNumber.from_rational(ar**n)
    rpoly = power_set_poly(a.poly, n)

    def shrink(bits: int) -> Ball:
        base = refine_root_box(a.poly, a.box, bits, ctx)
        acc = Ball.point(1)
        for _ in range(n):
            acc = acc * base
        return acc

    return AlgebraicNumber._from_enclosure(rpoly, shrink, ctx)


def _alg_invert(a: AlgebraicNumber, ctx: Precision) -> AlgebraicNumber:
    if alg_is_zero(a, ctx):
        raise ZeroDivisionError("inverse of zero")
    ar = a.as_rational(ctx)
    if ar is not None:
        return AlgebraicNumber.from_rational(1 / ar)
    poly, box = _nonzero_poly_part(a, ctx)
    rpoly = poly.reversed_coeffs()

    def shrink(bits: int) -> Ball:
        nb = refine_root_box(a.poly, box, bits, ctx)
        return nb.recip()

    return AlgebraicNumber._from_enclosure(rpoly, shrink, ctx)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, by Newton's method on integers."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _unit_root(k: int, ctx: Precision) -> AlgebraicNumber:
    """e^(i pi/k), the principal root of z^k + 1, for k >= 2.

    The float (cos pi/k, sin pi/k) only places a small disc, and one
    Krawczyk step proves the disc holds exactly one root of z^k + 1.  Any
    other root is e^(i pi s/k) with s odd in [3, 2k), and for
    j = ceil(k/s) <= ceil(k/3) the value js/k lies in [1, 2), so its j-th
    power has imaginary part <= 0.  So the disc's powers z, ...,
    z^ceil(k/3), rounded outward, all lying above the real axis prove the
    root is e^(i pi/k).
    """
    poly = Polynomial((1,) + (0,) * (k - 1) + (1,))
    pc, dpc = _krawczyk_coeffs(poly)
    bits = 16 + k.bit_length()
    guess = Ball(Fraction(cos(pi / k)), Fraction(sin(pi / k)), Fraction(1, 1 << bits))
    box = _krawczyk_step(pc, dpc, guess, bits + 32)
    powers = [box]
    while box is not None and len(powers) < -(-k // 3):
        powers.append((powers[-1] * box).rounded(bits + 32))
    if box is None or any(w.im <= w.rad for w in powers):
        raise ctx.exhausted(f"the principal root of z^{k} + 1")
    return AlgebraicNumber(poly, box)


def alg_nth_root(q, k: int, ctx: Precision = DEFAULT_PRECISION) -> AlgebraicNumber:
    """Principal k-th root of a rational q, as a root of d z^k - n for
    q = n/d: |q|^(1/k) for q > 0 and |q|^(1/k) e^(i pi/k) for q < 0, the
    root of largest real part (the upper one of a tie).

    |q|^(1/k) = (|n| d^(k-1))^(1/k) / d is enclosed exactly by an integer
    k-th root, and for q < 0 multiplied by the certified disc of
    e^(i pi/k) from `_unit_root`; one Krawczyk step on that enclosure
    proves the root, so no polynomial has all its roots isolated.
    """
    q = Fraction(q)
    if k < 1:
        raise ValueError("root order must be positive")
    if q == 0:
        return AlgebraicNumber.from_rational(0)
    if k == 1:
        return AlgebraicNumber.from_rational(q)
    n, d = q.numerator, q.denominator
    radicand = abs(n) * d ** (k - 1)
    unit = _unit_root(k, ctx) if n < 0 else None

    def shrink(bits: int) -> Ball:
        # lo <= |q|^(1/k) d 2^bits < lo + 1
        lo = _iroot(radicand << (k * bits), k)
        den = d << (bits + 1)
        modulus = Ball(Fraction(2 * lo + 1, den), rad=Fraction(1, den))
        return modulus if unit is None else modulus * unit.refined(bits, ctx).box

    poly = Polynomial((-n,) + (0,) * (k - 1) + (d,))
    return AlgebraicNumber._from_enclosure(poly, shrink, ctx)
