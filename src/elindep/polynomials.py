"""Univariate polynomials over exact rationals, in one normal form.

A polynomial is stored as scale * prim: `prim` is a tuple of ints, constant
term first, with content 1 and a positive leading coefficient; `scale` is a
nonzero Fraction that carries the sign; zero is 0 * ().  The form is unique,
so equality and hashing compare the two fields and the normal forms
(`int_coeffs`, `primitive_int`, `content`, `monic`) are field reads.  A
product of primitive polynomials is primitive (Gauss's lemma), so `*` needs no
gcd; every other result goes through one integer normalizer, `_from_ints`, and
`divmod` and `poly_gcd` share one integer pseudo-division kernel.  `coeffs` is
the Fraction view for printing and parsing.  No floats enter or leave.

The polynomials of ratio sets {a/b} and power sets {a^n} come from integer
power sums of scaled roots, turned back into coefficients by Newton's
identities (Bostan, Flajolet, Salvy and Schost, "Fast computation of special
resultants", J. Symb. Comput. 41, 2006).  `ratio_poly` keeps the ratios'
multiplicities; `ratio_set_poly` is its squarefree part.  `squarefree_part` and
`is_squarefree` first try a squarefree screen modulo the prime 2^61 - 1 and
fall back to the rational gcd only when it does not decide.
`resultant_bivariate` is no longer used by the library; it is kept for the
tests' oracles and for the bench tracer, which wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import floordiv
from typing import Callable, Iterable, Sequence

# The prime of the squarefree screen, a Mersenne prime above every degree met.
_SCREEN_PRIME = (1 << 61) - 1

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Polynomial:
    """Dense univariate polynomial over Q, stored as scale * prim."""

    __slots__ = ("scale", "prim")

    def __new__(cls, coeffs: Iterable[Fraction | int] = ()):
        cs = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise TypeError("polynomial coefficients must be exact rationals")
        den = lcm(*(c.denominator for c in cs))
        return cls._from_ints([c.numerator * (den // c.denominator) for c in cs], Fraction(1, den))

    @classmethod
    def _from_ints(cls, ints: list[int], scale: Fraction) -> "Polynomial":
        """The normalizer: scale * ints (a list it consumes) with trailing zeros
        dropped and the content and sign of ints moved into the scale."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            return cls._of(_ZERO, ())
        g = int_gcd(*ints)
        if ints[-1] < 0:
            g = -g
        if g == 1:
            return cls._of(scale, tuple(ints))
        return cls._of(scale * g, tuple(c // g for c in ints))

    @classmethod
    def _of(cls, scale: Fraction, prim: tuple[int, ...]) -> "Polynomial":
        """scale * prim for fields already in normal form."""
        p = object.__new__(cls)
        p.scale, p.prim = scale, prim
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of(_ZERO, ())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._of(_ONE, (1,))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls._of(_ONE, (0, 1))

    @classmethod
    def x_power(cls, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative exponent")
        return cls._of(_ONE, (0,) * k + (1,))

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first; () for 0."""
        s = self.scale
        return tuple(s * c for c in self.prim)

    @property
    def degree(self) -> int:
        return len(self.prim) - 1

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def lc(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.scale * self.prim[-1] if self.prim else _ZERO

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.prim):
            return self.scale * self.prim[i]
        return _ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.prim == other.prim and self.scale == other.scale
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.scale, self.prim))

    def __bool__(self) -> bool:
        return bool(self.prim)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # over the common denominator of the two scales
        sa, sb = self.scale, other.scale
        den = lcm(sa.denominator, sb.denominator)
        ka = sa.numerator * (den // sa.denominator)
        kb = sb.numerator * (den // sb.denominator)
        a, b = self.prim, other.prim
        if len(a) < len(b):
            a, b, ka, kb = b, a, kb, ka
        out = [ka * c for c in a]
        for i, c in enumerate(b):
            out[i] += kb * c
        return Polynomial._from_ints(out, Fraction(1, den))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(-self.scale, self.prim)

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other or not self.prim:
                return Polynomial.zero()
            return Polynomial._of(self.scale * other, self.prim)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.prim or not other.prim:
            return Polynomial.zero()
        a, b = self.prim, other.prim
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # primitive with a positive leading coefficient, by Gauss's lemma
        return Polynomial._of(self.scale * other.scale, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division over Q: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # m prim = q' other.prim + r', so self = (scale/m) (q' other.prim + r')
        q, r, m = _pseudo_divmod(self.prim, other.prim)
        scale = self.scale / m
        return Polynomial._from_ints(q, scale / other.scale), Polynomial._from_ints(r, scale)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial._from_ints([i * c for i, c in enumerate(self.prim) if i], self.scale)

    def __call__(self, x):
        """Horner evaluation; x may be any type closed under + and *.  It runs
        on the coefficients themselves: a Ball's radius depends on them."""
        cs = self.prim if self.scale == 1 else self.coeffs
        if not cs:
            return _ZERO
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc

    def compose_scale(self, c) -> "Polynomial":
        """Return p(c*z) for an exact rational c."""
        if not self.prim:
            return self
        # p(n z / d) = (scale / d^m) sum prim_i n^i d^(m-i) z^i
        n, d, m = c.numerator, c.denominator, self.degree
        ints = [a * n**i * d ** (m - i) for i, a in enumerate(self.prim)]
        return Polynomial._from_ints(ints, self.scale / d**m)

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by z^k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero:
            return self
        return Polynomial._of(self.scale, (0,) * k + self.prim)

    def reversed_coeffs(self) -> "Polynomial":
        """Coefficient reversal: roots map to reciprocals when p(0) != 0."""
        return Polynomial._from_ints(list(reversed(self.prim)), self.scale)

    def deflate_z(self) -> tuple[int, "Polynomial"]:
        """Write p = z^k * q with q(0) != 0; returns (k, q). Zero poly gives (0, 0)."""
        if self.is_zero:
            return 0, self
        k = 0
        while self.prim[k] == 0:
            k += 1
        return k, Polynomial._of(self.scale, self.prim[k:])

    # -- normal forms --------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content; 0 for the zero polynomial."""
        return abs(self.scale)

    def primitive_int(self) -> "Polynomial":
        """Integer coefficients, content 1, positive leading coefficient."""
        if self.scale == 1 or not self.prim:
            return self
        return Polynomial._of(_ONE, self.prim)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return Polynomial._of(Fraction(1, self.prim[-1]), self.prim)

    def int_coeffs(self) -> list[int]:
        """Coefficients of `primitive_int` as ints; [] for the zero polynomial."""
        return list(self.prim)


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer coefficient lists, b nonzero and trimmed:
    (q, r, m) with m a = q b + r, m = lc(b)^k, k = max(0, len a - len b + 1),
    and r untrimmed, shorter than b (r = a when k = 0).  Step i multiplies the
    remainder by lc(b) and cancels its top coefficient c_i; the i later steps
    scale c_i too, so q has c_i lc(b)^i at z^i."""
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    tops = []
    for i in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        # the top coefficient cancels: c lead - c lead
        if lead != 1:
            rem = [x * lead for x in rem]
        if c:
            for j in range(db):
                rem[i + j] -= c * b[j]
        tops.append(c)
    q = []
    m = 1
    for c in reversed(tops):
        q.append(c * m)
        m *= lead
    return q, rem, m


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd over Q via a primitive pseudo-remainder sequence.

    The sequence runs on the primitive integer vectors of p and q;
    dividing every pseudo-remainder by its content keeps the integers
    from growing with the number of steps.
    """
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    # when a is the shorter, the first step only swaps the two
    a, b = p.prim, q.prim
    while b:
        a, b = b, Polynomial._from_ints(_pseudo_divmod(a, b)[1], _ONE).prim
    return Polynomial._of(_ONE, a).monic()


def _screened_squarefree(p: Polynomial) -> bool:
    """True when the mod-P screen proves p (degree >= 1) squarefree over Q;
    False means undecided.

    With r the primitive integer form of p and r-bar its image mod P: if
    r = g^2 h over Q with deg g >= 1, Gauss's lemma makes g a primitive
    integer factor of r and of r', lc(g) divides lc(r), so g-bar keeps its
    degree and divides r-bar and r-bar'.  A constant gcd over F_P with
    deg r-bar = deg r therefore rules every repeated factor out.
    """
    prime = _SCREEN_PRIME
    a = [c % prime for c in p.prim]
    if a[-1] == 0:
        return False
    # the derivative keeps its degree too: deg r < P
    b = [i * c % prime for i, c in enumerate(a) if i]
    while len(b) > 1:
        inv = pow(b[-1], -1, prime)
        db = len(b) - 1
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + db] * inv % prime
            if c:
                for j, bc in enumerate(b):
                    a[i + j] = (a[i + j] - c * bc) % prime
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def squarefree_part(p: Polynomial) -> Polynomial:
    """Monic radical of p: same roots, all simple.

    The mod-P screen settles most squarefree inputs (the radical is then
    p.monic()); the rest go through the rational gcd with p'.
    """
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return Polynomial.one()
    if _screened_squarefree(p):
        return p.monic()
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g).monic()


def is_squarefree(p: Polynomial) -> bool:
    """Whether p has no repeated root; the mod-P screen, then the rational gcd."""
    return (
        p.degree <= 0
        or _screened_squarefree(p)
        or poly_gcd(p, p.derivative()).degree == 0
    )


def _bareiss_det(rows: list[list], zero, exact_div: Callable):
    """Fraction-free Bareiss determinant over an exact integral domain."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    m = [row[:] for row in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k] != zero), None)
        if piv is None:
            return zero
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = t if prev is None else exact_div(t, prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def _sylvester_rows(p: Sequence, q: Sequence, zero) -> list[list]:
    """Sylvester matrix rows for sequences of descending coefficients."""
    m = len(p) - 1
    n = len(q) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([zero] * i + list(p) + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + list(q) + [zero] * (size - n - 1 - i))
    return rows


def resultant(p: Polynomial, q: Polynomial) -> Fraction:
    """Resultant of p and q over Q (Sylvester determinant)."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    if p.degree == 0 and q.degree == 0:
        return Fraction(1)
    # res(s A, t B) = s^deg B t^deg A res(A, B), the last over the integers
    det = _bareiss_det(_sylvester_rows(p.prim[::-1], q.prim[::-1], 0), 0, floordiv)
    return p.scale**q.degree * q.scale**p.degree * det


def resultant_bivariate(p: Sequence[Polynomial], q: Sequence[Polynomial]) -> Polynomial:
    """Resultant in the outer variable of two polynomials whose coefficients
    are themselves Polynomials (in the surviving variable).

    `p` and `q` list coefficients ascending in the eliminated variable.
    """
    pc = list(p)
    while pc and pc[-1].is_zero:
        pc.pop()
    qc = list(q)
    while qc and qc[-1].is_zero:
        qc.pop()
    if not pc or not qc:
        return Polynomial.zero()
    dp, dq = len(pc) - 1, len(qc) - 1
    if dp == 0 and dq == 0:
        return Polynomial.one()
    if dp == 0:
        return pc[0] ** dq
    if dq == 0:
        return qc[0] ** dp
    rows = _sylvester_rows(list(reversed(pc)), list(reversed(qc)), Polynomial.zero())
    return _bareiss_det(rows, Polynomial.zero(), lambda a, b: a.exact_div(b))


def _scaled_power_sums(coeffs: Sequence[int], count: int) -> list[int]:
    """Power sums s_0..s_count of u = L*alpha over the roots alpha of the
    integer polynomial with ascending `coeffs` and leading coefficient L.

    The u are the roots of the monic integer polynomial z^m + sum_k c_k z^(m-k)
    with c_k = a_(m-k) L^(k-1), so Newton's recurrence
    s_k = -(k c_k + sum_(0<i<k) c_i s_(k-i)), with c_k = 0 past m, stays in
    integers.
    """
    m = len(coeffs) - 1
    lead = coeffs[m]
    c = [0] * (m + 1)
    power = 1
    for k in range(1, m + 1):
        c[k] = coeffs[m - k] * power
        power *= lead
    s = [m]
    for k in range(1, count + 1):
        acc = k * c[k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            acc += c[i] * s[k - i]
        s.append(-acc)
    return s


def _from_power_sums(sums: Sequence[int], scale: int) -> Polynomial:
    """prod (scale*z - lambda) over the N = len(sums) - 1 algebraic integers
    lambda whose power sums are sums[1..N]; its roots are the lambda/scale.

    Newton's identities k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) S_i give the
    elementary symmetric functions e_k of the lambda.  They are rational
    and algebraic integers, hence integers, so every division is exact.
    The coefficient of z^(N-k) is (-1)^k e_k scale^(N-k).
    """
    n = len(sums) - 1
    e = [1]
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * sums[i]
            acc += term if i % 2 else -term
        e.append(acc // k)
    coeffs = []
    power = 1
    for j in range(n + 1):
        coeffs.append(e[n - j] * power if (n - j) % 2 == 0 else -e[n - j] * power)
        power *= scale
    return Polynomial._from_ints(coeffs, _ONE)


def ratio_poly(p: Polynomial, q: Polynomial) -> Polynomial:
    """Polynomial whose roots are the m n quotients a/b, p(a) = 0, q(b) = 0,
    each as often as it arises (m = deg p, n = deg q); 1 when m n = 0.

    Requires q(0) != 0 so every quotient is defined.  With L = lc(p) and the
    roots v = q(0)/b of q reversed scaled as in `_scaled_power_sums`, the
    products L a * q(0)/b = A a/b, A = L q(0), have the power sums
    s_k(u) s_k(v), which `_from_power_sums` turns into the polynomial.
    It is not squarefree in general: a/a = 1 is an m-fold root of
    ratio_poly(p, p).
    """
    if p.is_zero or q.is_zero:
        raise ValueError("ratio set of the zero polynomial")
    if q[0] == 0:
        raise ValueError("q must not vanish at zero")
    if p.degree == 0 or q.degree == 0:
        return Polynomial.one()
    a = p.prim
    b = q.prim[::-1]
    count = p.degree * q.degree
    sums = [x * y for x, y in zip(_scaled_power_sums(a, count), _scaled_power_sums(b, count))]
    return _from_power_sums(sums, a[-1] * b[-1])


def ratio_set_poly(p: Polynomial, q: Polynomial) -> Polynomial:
    """Squarefree polynomial whose roots are exactly {a/b : p(a)=0, q(b)=0}:
    the squarefree part of `ratio_poly`, for callers that isolate or
    certify its roots one at a time (a Krawczyk step needs simple roots).

    Requires q(0) != 0 so every quotient is defined.
    """
    return squarefree_part(ratio_poly(p, q))


def power_set_poly(p: Polynomial, n: int) -> Polynomial:
    """Squarefree polynomial whose roots are exactly {a^n : p(a)=0}, n >= 1.

    The n-th powers of u = L a have the power sums s_(kn)(u), so
    `_from_power_sums` with scale L^n gives a polynomial with the m powers
    a^n as roots (with multiplicity), whose squarefree part is returned.
    """
    if p.is_zero:
        raise ValueError("power set of the zero polynomial")
    if n < 1:
        raise ValueError("power must be positive")
    if p.degree == 0:
        return Polynomial.one()
    a = p.prim
    sums = _scaled_power_sums(a, p.degree * n)[::n]
    return squarefree_part(_from_power_sums(sums, a[-1] ** n))
