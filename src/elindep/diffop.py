"""Linear differential operators with polynomial coefficients.

Operators are finite sums  sum_b  p_b(z) * D^b  where D = d/dz and each p_b
is a polynomial over Q. The module provides the noncommutative
composition algebra (D z = z D + 1), application to truncated power series,
and the coefficient-transform that sends an annihilator of
f = sum a_n z^n / n!  to an annihilator of  g = sum a_n z^n.

The transform rests on two identities, with W = z^2 D + z:

    g-of-derivative:  sum_n a_{n+b} z^n  =  z^-b (g - r_b),
                      r_b = a_0 + a_1 z + ... + a_{b-1} z^{b-1}
    g-of-z-shift:     multiplying f by z corresponds to applying W to g

so p(z) D^b f maps to p(W) applied to z^-b (g - r_b). With B the order,
z^B W = T z^B for T = z^2 D + (1 - B) z, so after multiplying by z^B the
term becomes p(T) applied to z^(B-b) (g - r_b). As W = z D z and
(z D z)^k = z^k D^k z^k, a monomial z^k of p gives, in closed form,

    T^k z^(B-b) = z^(k+B) D^k z^(k-b)
                = sum_i C(k,i) ff(k-b,i) z^(2k+B-b-i) D^(k-i)

(Leibniz, ff the falling factorial; no power of z is below k+B-b >= 0),
and T^k z^(B-b) r_b = sum_(n+k<b) a_n ff(n+k-b, k) z^(n+k+B-b). Summing
over the terms of the annihilator yields M g = r with polynomial M and r;
dividing out the power of z they share (at most z^B) and, when r is
nonzero, left-composing with D^(deg r + 1) gives a homogeneous annihilator
of g. Only the `transform` task needs the whole operator: the nonzero roots
of its leading coefficient do not depend on the initial values and are
read off the original operator's top-degree coefficients
(`singularities.singularity_superset`).
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError, InsufficientTruncationError, InternalCheckError
from .polynomials import Polynomial, poly_gcd
from .rationals import format_rational, parse_decimal


MAX_Z_POWER = 256
"""Largest power of z an operator read from text or JSON may carry; also the
largest derivative order in the text form."""


def _monomials(p: Polynomial):
    """(power, coefficient) for the nonzero coefficients of p."""
    return ((m, p.scale * c) for m, c in enumerate(p.prim) if c)


def _content(polys: Iterable[Polynomial]) -> Fraction:
    """Positive rational content of a family of polynomials; 0 if all are zero."""
    scales = [p.scale for p in polys]
    return Fraction(
        math.gcd(*(s.numerator for s in scales)), math.lcm(*(s.denominator for s in scales))
    )


class DiffOperator:
    """sum over b of coeff[b](z) * D^b with polynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Polynomial]):
        clean: dict[int, Polynomial] = {}
        for b, p in terms.items():
            if b < 0:
                raise ValueError("negative derivative order")
            if not p.is_zero:
                clean[b] = p
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def from_poly_coeffs(cls, coeffs: Sequence) -> "DiffOperator":
        """Build sum coeffs[b] * D^b.

        Each entry may be a Polynomial, a coefficient list, or a scalar.
        """
        terms = {}
        for b, c in enumerate(coeffs):
            if isinstance(c, Polynomial):
                terms[b] = c
            elif isinstance(c, (list, tuple)):
                terms[b] = Polynomial(c)
            else:
                terms[b] = Polynomial.constant(c)
        return cls(terms)

    @classmethod
    def zero(cls) -> "DiffOperator":
        return cls({})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        return max(self.terms) if self.terms else -1

    def coefficient(self, b: int) -> Polynomial:
        return self.terms.get(b, Polynomial.zero())

    def leading_coefficient(self) -> Polynomial:
        if self.is_zero:
            raise ValueError("zero operator has no leading coefficient")
        return self.terms[self.order]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(self.terms.items()))

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.terms)
        for b, p in other.terms.items():
            out[b] = self.coefficient(b) + p
        return DiffOperator(out)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({b: -p for b, p in self.terms.items()})

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def scale(self, c) -> "DiffOperator":
        c = Fraction(c)
        if c == 0:
            return DiffOperator.zero()
        return DiffOperator({b: p * c for b, p in self.terms.items()})

    def shift_z(self, k: int) -> "DiffOperator":
        """Left-multiply by z^k (as a function), k >= 0."""
        return DiffOperator({b: p.shifted(k) for b, p in self.terms.items()})

    def primitive_normalized(self) -> "DiffOperator":
        """Divide by the positive rational content; sign is preserved."""
        content = _content(self.terms.values())
        if content in (0, 1):
            return self
        return self.scale(1 / content)

    def __repr__(self) -> str:
        return f"DiffOperator({op_to_text(self)})"


def _leibniz(i: int, c: int):
    """(k, C(i,k) ff(c,k)) for the nonzero terms of
    D^i z^c = sum_k C(i,k) ff(c,k) z^(c-k) D^(i-k), ff the falling factorial;
    c may be negative."""
    ff = 1
    for k in range(i + 1):
        yield k, math.comb(i, k) * ff
        ff *= c - k
        if ff == 0:
            return


def _row_poly(row: dict[int, Fraction]) -> Polynomial:
    """sum of row[m] z^m."""
    return Polynomial(row.get(m, 0) for m in range(max(row, default=-1) + 1))


def op_compose(left: DiffOperator, right: DiffOperator) -> DiffOperator:
    """Operator product left∘right, by the rule of `_leibniz`."""
    acc: dict[int, dict[int, Fraction]] = {}
    for i, la in left.terms.items():
        for a, ca in _monomials(la):
            for j, lb in right.terms.items():
                for c, cb in _monomials(lb):
                    base = ca * cb
                    for k, w in _leibniz(i, c):
                        row = acc.setdefault(i - k + j, {})
                        row[a + c - k] = row.get(a + c - k, 0) + base * w
    return DiffOperator({order: _row_poly(row) for order, row in acc.items()})


def _right_remainders(op: DiffOperator, count: int) -> list[tuple[list[Polynomial], Polynomial]]:
    """D^k mod op (right remainder) as (numerators, denominator), k < count.

    With l the leading coefficient and r >= 1 the order, D^k mod op is
    sum_i a_i(z) / l^e D^i (i < r, e = max(0, k - r + 1)), and
    D (a / l^e) = (a' l - e a l') / l^(e+1) + (a / l^e) D, with D^r replaced
    by -sum_i p_i / l D^i.
    """
    r = op.order
    lead = op.leading_coefficient()
    dlead = lead.derivative()
    zero = Polynomial.zero()
    vecs = [[Polynomial.one() if i == k else zero for i in range(r)] for k in range(min(r, count))]
    while len(vecs) < count:
        a, e = vecs[-1], len(vecs) - r
        vecs.append([
            a[i].derivative() * lead - a[i] * dlead * e
            + (a[i - 1] * lead if i else zero) - a[-1] * op.coefficient(i)
            for i in range(r)
        ])
    return [(v, lead ** max(0, k - r + 1)) for k, v in enumerate(vecs)]


def _primitive_row(row: list[Polynomial]) -> list[Polynomial]:
    """row divided by the monic gcd of its entries and its rational content."""
    g = Polynomial.zero()
    for p in row:
        g = poly_gcd(g, p)
    row = [p.exact_div(g) for p in row]
    content = _content(row)
    return [p * (1 / content) for p in row]


def op_lclm(left: DiffOperator, right: DiffOperator) -> DiffOperator:
    """Least common left multiple: the lowest-order L = Q_l left = Q_r right,
    for operators of order at least 1.

    L = sum c_k D^k is a left multiple of an operator exactly when
    sum c_k (D^k mod it) = 0, so c is the first kernel vector of the
    stacked remainders of both operands, found by fraction-free
    elimination over Q[z] (Salvy-Zimmermann, GFUN, ACM TOMS 20, 1994).
    The coefficients are coprime polynomials with rational content 1 and
    the top one has a positive leading coefficient, which fixes L.
    """
    count = left.order + right.order + 1
    size = count - 1
    zero = Polynomial.zero()
    echelon: list[tuple[int, list[Polynomial]]] = []
    pairs = zip(_right_remainders(left, count), _right_remainders(right, count))
    for k, ((num_l, den_l), (num_r, den_r)) in enumerate(pairs):
        # w (D^k mod left), w (D^k mod right), then w in slot k, where
        # w = den_l den_r clears both denominators
        row = ([p * den_r for p in num_l] + [p * den_l for p in num_r]
               + [den_l * den_r if i == k else zero for i in range(count)])
        for piv, other in echelon:
            factor = row[piv]
            if not factor.is_zero:
                row = [other[piv] * x - factor * y for x, y in zip(row, other)]
        row = _primitive_row(row)
        piv = next((i for i in range(size) if not row[i].is_zero), None)
        if piv is None:
            op = DiffOperator(dict(enumerate(row[size:])))
            return op.scale(-1) if op.leading_coefficient().lc < 0 else op
        echelon.append((piv, row))
    raise InternalCheckError("no common left multiple up to the summed order")


def op_apply(op: DiffOperator, series: Sequence, keep: int) -> dict[int, Fraction]:
    """Apply op to the ordinary power series sum series[t] z^t.

    Returns the coefficients of the image for all exponents 0 .. keep-1.
    Raises InsufficientTruncationError when the input prefix is too short
    to determine them all.
    """
    series = [Fraction(s) for s in series]
    out = {s: Fraction(0) for s in range(keep)}
    for b, p in op.terms.items():
        for a, c in _monomials(p):
            # z^a D^b maps z^t to ff(t,b) z^(t-b+a)
            for t in range(b, len(series) + 1):
                e = t - b + a
                if e >= keep:
                    break
                if t >= len(series):
                    raise InsufficientTruncationError(
                        f"need series coefficient at index {t}"
                    )
                out[e] += c * math.perm(t, b) * series[t]
    return out


def psi_transform(op: DiffOperator, initial_values: Sequence) -> DiffOperator:
    """Homogeneous annihilator of g = sum a_n z^n from one of sum a_n z^n/n!.

    initial_values are a_0 .. a_(order-1), i.e. f(0), f'(0), ... The
    result is M, or D^(deg r + 1) M when the remainder r of M g = r is
    nonzero, divided by its positive rational content. M is never zero: with
    d the largest degree of op's coefficients, its order-d coefficient is
    sum over deg p_b = d of lc(p_b) z^(2d+B-b), distinct powers of z.
    """
    if op.is_zero:
        raise InputError("cannot transform the zero operator")
    order = op.order
    if len(initial_values) < order:
        raise InputError(
            f"operator of order {order} needs {order} initial coefficients, "
            f"got {len(initial_values)}"
        )
    a = [Fraction(v) for v in initial_values[:order]]

    rows: dict[int, dict[int, Fraction]] = {}
    rem_row: dict[int, Fraction] = {}
    for b, p_b in op.terms.items():
        for k, c in _monomials(p_b):
            # c z^k D^b goes to c T^k z^(B-b) = c z^(k+B) D^k z^(k-b), on g
            # and on the seed polynomial r_b
            for i, w in _leibniz(k, k - b):
                row = rows.setdefault(k - i, {})
                e = 2 * k + order - b - i
                row[e] = row.get(e, 0) + c * w
            # D^k z^(n+k-b) = 0 for 0 <= n + k - b < k, so only n < b - k is left
            for n in range(b - k):
                e = n + k + order - b
                ff = math.prod(range(n + k - b, n - b, -1))  # ff(n+k-b, k)
                rem_row[e] = rem_row.get(e, 0) + c * a[n] * ff
    acc = DiffOperator({o: _row_poly(row) for o, row in rows.items()})
    rem = _row_poly(rem_row)

    # z^order was multiplied in; divide out whatever power of z M and r share
    shared = min(
        [order] + [p.deflate_z()[0] for p in [*acc.terms.values(), rem] if not p.is_zero]
    )
    acc = DiffOperator({b: Polynomial(p.coeffs[shared:]) for b, p in acc.terms.items()})
    remainder = Polynomial(rem.coeffs[shared:])
    if not remainder.is_zero:
        acc = _left_d_power(remainder.degree + 1, acc)
    return acc.primitive_normalized()


def _left_d_power(m: int, op: DiffOperator) -> DiffOperator:
    """D^m op times the common denominator of op's coefficients, by
    D^m p D^o = sum_j C(m,j) p^(j) D^(o+m-j) on whole integer coefficient
    lists."""
    den = math.lcm(*(p.scale.denominator for p in op.terms.values()))
    size = max(len(p.prim) for p in op.terms.values())
    rows: dict[int, list[int]] = {}
    for o, p in op.terms.items():
        s = p.scale.numerator * (den // p.scale.denominator)
        ints = [c * s for c in p.prim]
        for j in range(m + 1):
            if not ints:
                break
            w = math.comb(m, j)
            row = rows.setdefault(o + m - j, [0] * size)
            row[: len(ints)] = [x + w * c for x, c in zip(row, ints)]
            ints = [k * c for k, c in enumerate(ints)][1:]
    return DiffOperator({order: Polynomial(row) for order, row in rows.items()})


@dataclass(frozen=True)
class Recurrence:
    """den(t) c_m = row_1(t) c_{m-1} + ... + row_r(t) c_{m-r}, t = m - offset >= 0,
    on the coefficients of a z^t series (c at a negative index 0): rows are
    integer coefficient lists, ascending ([] for zero), with gcd 1."""

    rows: list[list[int]]
    offset: int


def recurrence_from_ode(op: DiffOperator) -> Recurrence:
    """Coefficient recurrence of the solution series of an ordinary operator.

    For f = sum c_t z^t:  z^a D^b maps the z^s coefficient to
    ff(s+b-a, b) c_{s+b-a}, so grouping by j = b - a gives the bands
    P_j(t) = sum_b p_{b,b-j} ff(t+j, b), with sum_j P_j(t) c_{t+j} = 0.
    Each band is built in one pass over the orders b, by
    ff(t+j, b) = ff(t+j, b-1) (t+j-b+1), in integers over the lcm of the
    coefficients' denominators.  Then den = P_jmax, row_d = -P_{jmax-d},
    r = jmax - jmin and offset jmax, every entry divided by the gcd of all.
    """
    if op.is_zero:
        raise InputError("zero operator has no recurrence")
    lcm = math.lcm(*(p.scale.denominator for p in op.terms.values()))
    # (b, integer coefficient of z^(b-j) D^b) for each band j, b ascending
    terms: dict[int, list[tuple[int, int]]] = {}
    for b, p in op.terms.items():
        k = p.scale.numerator * (lcm // p.scale.denominator)
        for a, c in enumerate(p.prim):
            if c:
                terms.setdefault(b - a, []).append((b, k * c))
    bands: dict[int, list[int]] = {}
    for j, pairs in terms.items():
        band, ff = [0] * (pairs[-1][0] + 1), [1]
        for b, c in pairs:
            for i in range(len(ff) - 1, b):  # ff(t+j, i+1) = ff(t+j, i) (t+j-i)
                ff = [(j - i) * x + y for x, y in zip(ff + [0], [0] + ff)]
            for i, x in enumerate(ff):
                band[i] += c * x
        while band and not band[-1]:
            band.pop()
        if band:
            bands[j] = band
    if not bands:
        raise InternalCheckError("operator induced an identically zero recurrence")
    jmax, jmin = max(bands), min(bands)
    g = math.gcd(*(x for band in bands.values() for x in band))
    rows = [[x // g for x in bands[jmax]]]
    rows += [[-x // g for x in bands.get(j, [])] for j in range(jmax - 1, jmin - 1, -1)]
    return Recurrence(rows, jmax)


# -- serialization ------------------------------------------------------------


def _exponent(value, what: str = "power of z") -> int:
    """A power of z or a derivative order read from input, checked to lie in
    0 .. MAX_Z_POWER (int() of a numeral past 4300 digits raises too)."""
    try:
        n = int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {value!r:.40}") from exc
    if not 0 <= n <= MAX_Z_POWER:
        raise InputError(f"{what} must lie in 0..{MAX_Z_POWER}, got {n}")
    return n


def _poly_to_json(p: Polynomial) -> dict:
    zmin, rest = p.deflate_z()
    return {"zmin": zmin, "coeffs": [format_rational(c) for c in rest.coeffs]}


def _poly_from_json(obj: dict, path: str) -> Polynomial:
    try:
        zmin = obj["zmin"]
        coeffs = [parse_decimal(c) for c in obj["coeffs"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad polynomial object: {exc}") from exc
    if type(zmin) is not int:  # not a bool, float or string
        raise InputError(f"{path}.zmin: expected an integer, got {zmin!r:.40}")
    p = Polynomial([0] * _exponent(zmin, f"{path}.zmin") + coeffs)
    _exponent(max(p.degree, 0))
    return p


def op_to_json(op: DiffOperator) -> dict:
    return {
        "terms": [
            {"dorder": b, "poly": _poly_to_json(p)} for b, p in op.terms.items()
        ]
    }


def op_from_json(obj: dict, path: str = "operator") -> DiffOperator:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise InputError(f"{path}: operator object needs a 'terms' list")
    terms: dict[int, Polynomial] = {}
    if not isinstance(obj["terms"], list):
        raise InputError(f"{path}.terms: must be a list")
    for i, entry in enumerate(obj["terms"]):
        where = f"{path}.terms[{i}]"
        if not isinstance(entry, dict) or "dorder" not in entry or "poly" not in entry:
            raise InputError(f"{where}: each term needs 'dorder' and 'poly'")
        b = entry["dorder"]
        if type(b) is not int or b < 0:  # a bool is not an integer here
            raise InputError(f"{where}.dorder: must be a nonnegative integer")
        p = _poly_from_json(entry["poly"], f"{where}.poly")
        if b in terms:
            raise InputError(f"{where}.dorder: duplicate derivative order {b}")
        terms[b] = p
    return DiffOperator(terms)


def _poly_text(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for m, c in _monomials(p):
        if m == 0:
            body = format_rational(abs(c))
        else:
            zpart = "z" if m == 1 else f"z^{m}"
            if abs(c) == 1:
                body = zpart
            else:
                body = f"{format_rational(abs(c))}*{zpart}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    if text.startswith("+ "):
        text = text[2:]
    elif text.startswith("- "):
        text = "-" + text[2:]
    return text


def op_to_text(op: DiffOperator) -> str:
    """Readable one-line form, e.g. (1 - z)*∂^1 + (-1)."""
    if op.is_zero:
        return "0"
    parts = []
    for b in sorted(op.terms, reverse=True):
        poly = _poly_text(op.terms[b])
        if b == 0:
            parts.append(f"({poly})")
        else:
            parts.append(f"({poly})*∂^{b}")
    return " + ".join(parts)


_TERM_RE = _re.compile(r"^\((?P<poly>[^()]*)\)(?:\*(?:∂|D)\^(?P<ord>\d+))?$")
_MONO_RE = _re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?\*?(?P<z>z(?:\^(?P<exp>-?\d+))?)?$"
)


def _split_signed_monomials(text: str) -> list[str]:
    """Split at +/- signs that are not exponent signs (not preceded by ^)."""
    chunks = []
    start = 0
    for i in range(1, len(text)):
        if text[i] in "+-" and text[i - 1] != "^":
            chunks.append(text[start:i])
            start = i
    chunks.append(text[start:])
    return chunks


def _parse_poly_text(text: str) -> Polynomial:
    text = text.strip().replace(" ", "")
    if not text:
        raise InputError("empty polynomial")
    result = Polynomial.zero()
    if text == "0":
        return result
    for chunk in _split_signed_monomials(text):
        sign = Fraction(1)
        if chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = Fraction(-1)
            chunk = chunk[1:]
        m = _MONO_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("z") is None):
            raise InputError(f"cannot parse monomial '{chunk}'")
        coef = parse_decimal(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("z") is None:
            power = 0
        elif m.group("exp") is None:
            power = 1
        else:
            power = _exponent(m.group("exp"))
        result = result + Polynomial.x_power(power) * (sign * coef)
    return result


def op_from_text(text: str) -> DiffOperator:
    """Parse the op_to_text format back into an operator."""
    text = text.strip()
    if text == "0":
        return DiffOperator.zero()
    terms: dict[int, Polynomial] = {}
    depth = 0
    start = 0
    pieces = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            pieces.append(text[start:i])
            start = i + 3
            i += 2
        i += 1
    pieces.append(text[start:])
    for piece in pieces:
        m = _TERM_RE.match(piece.strip())
        if not m:
            raise InputError(f"cannot parse operator term '{piece.strip()}'")
        b = _exponent(m.group("ord"), "derivative order") if m.group("ord") else 0
        terms[b] = terms.get(b, Polynomial.zero()) + _parse_poly_text(m.group("poly"))
    return DiffOperator(terms)
