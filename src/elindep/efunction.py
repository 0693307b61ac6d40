"""Entire series f = sum a_n z^n / n! presented by an annihilating operator.

An EFunction bundles a linear differential operator with polynomial
coefficients, enough initial series coefficients to pin the solution, and
growth metadata:

  * coeff_bound C: a proven bound |a_n| <= C^n for all n >= 1 (None when
    only heuristic growth information is available),
  * values_transcendental: f(x) is transcendental for every nonzero
    algebraic x (set only for functions where this is classical).

Coefficients are generated from the recurrence induced by the annihilator.
It leaves c_m free exactly at m = offset + t, t a nonnegative integer
root of its leading band (the indicial polynomial at 0); `_band_roots`
finds those roots for sums, closures and `falsify` alike.  Supplied
coefficients are checked against every recurrence row they determine, in
integers, row by row, the row of the first free index past them included.

A function built by `ef_hypergeometric` is its parameters
(`EFunction.hypergeometric`).  Its Taylor coefficients are the terms t_n
of its series, c_{kn} = t_n, read off the term ratio's running sum, so no
n! is formed and divided out again; its order and seed count have closed
forms; and its annihilator, recurrence, seeds and seed check are built
only when something reads them (a closure, or the `transform` task).
Evaluation sums the parameters' own series and certification reads the
closed-form singular polynomial, so neither builds the operator, and a
parameter of any size costs nothing to build.

Each series carries one integer recurrence, built once here, and one
engine, `_RecurrenceSum`, runs it by binary splitting (Chudnovsky &
Chudnovsky 1988; van der Hoeven, "Fast evaluation of holonomic
functions", TCS 210, 1999).  Past its first terms a sequence u_n obeys

    den(t) u_m = row_1(t) u_{m-1} + ... + row_r(t) u_{m-r},   t = m - offset,

with integer polynomials den and row_d.  An EFunction's annihilator gives
sum_j P_j(t) c_{t+j} = 0 on its Taylor coefficients c_n, and
`diffop.recurrence_from_ode` builds den = P_jmax and row_d = -P_{jmax-d},
r = jmax - jmin, offset jmax, in integers one band at a time, divided by
the gcd of all their entries.  A hypergeometric series has r = 1 and its
term ratio t_{n+1}/t_n as row_1 / den (`HypergeometricParams.ratio_rows`).
The sum of u_n x^n at x = p/q runs the same recurrence with row_d times
p^d q^(r-d), and the coefficients are the terms of the sum at x = 1, read
off the leaves' fraction-free steps as integer pairs
(`_RecurrenceSum.read`): `growth_check` takes its floats from the pairs,
and a coefficient read becomes one Fraction.

The engine's state at index m is (u_{m-r}, ..., u_{m-1}, S_m),
S_m = u_0 + ... + u_{m-1}, as integers over one common denominator.  The
product of the steps over [lo, hi) is formed by recursive halving, so
integers grow in balanced products, not one term at a time, and the only
gcd is taken when the partial sum becomes a Fraction; a term-by-term sum
takes one on numbers of the same size at every term.  The halving stops
at blocks of _BLOCK steps, run one after another on each row's values
over the whole block, which one Horner pass over the block's t values
gives.  A block runs in fraction-free form (Haible & Papanikolaou, "Fast
multiprecision evaluation of series of rational numbers", ANTS 1998;
Mezzarobba, "NumGfun", ISSAC 2010): a term carries the product of the
den values before it, so it obeys an integer recurrence and no state is
rescaled at a step, and each column of the block's matrix is that scalar
recurrence run from a unit vector.  At order 1 (every residue class of
exp, J0, Si, I0 and cosh, and every hypergeometric series) a step is
three products of plain integers, a <- p a, b <- a + q b, den <- q den;
order 2 (zexp, expmix) is written out as one tuple update per column,
and every other order shares one loop.

Many E-functions (J0, Si, cosh, I0, the hypergeometric series in z^k)
have recurrences whose nonzero rows row_d all have d divisible by a
stride g >= 2 (`EFunction.stride`, the gcd of those d).  Then c_m is tied
only to c_{m-g}, c_{m-2g}, ..., and the indices split into g residue
classes c + g j that never meet.  Sums at x (`_ClassSums`), coefficient
streams and the first free row's check all run an EFunction's recurrence
one class at a time, on sums built by `EFunction._class_sum`: class c runs
the order r/g recurrence of v_j = c_{c+gj} on f's own rows of every g-th
band, [den, row_g, row_2g, ...], at t = c + g j - offset
(`EFunction.residue_classes`).  A class whose seeds are all zero stays
zero and is never run, and the classes' sums meet in one division at the
end.  J0's sum is thus one scalar recurrence over every other index
instead of a 2x2 matrix recurrence over all of them; stride 1 is the
one-class case of the same code.  The least free index past the seeds
that a sum or a coefficient read reaches is found before any class moves
(`EFunction.check_determined`), so it is the one a single sum reports.

Each series type gives `numeric` its running partial sums at x, `sums`,
and a majorant M of its terms at x that at least halves past a start,
`majorant`: (C|x|)^n / n! for an EFunction with proven bound C, and the
terms |t_n x^n| themselves, read off the running sum, for a
hypergeometric series.  `numeric._truncation` picks N and the radius.
A function built by `ef_hypergeometric` is summed by `numeric` as the
hypergeometric series in z^k, against its terms.

Closure operations build their operator exactly, so it is proven to
annihilate the result: a rational scale rescales the operator (or, for a
function given by its parameters, the series' scale), p f is
killed by L composed with division by p (denominators cleared), and a sum
takes the least common left multiple of both operators
(`diffop.op_lclm`), a left multiple of each.  No operator is guessed from
a coefficient prefix.  Derivatives and irrational scale factors are not
offered.  A closure whose operator needs more than MAX_TERMS + 1 seeds,
the cap on every series sum, raises PrecisionExceededError before it
builds any.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebraic import AlgebraicNumber, Precision, DEFAULT_PRECISION, _iroot, isolate_roots
from .diffop import DiffOperator, Recurrence, op_compose, op_lclm, recurrence_from_ode
from .errors import InputError, PrecisionExceededError, UnsupportedOperationError
from .polynomials import Polynomial, squarefree_part


def _horner(coeffs: list[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _horner_all(coeffs: list[int], ts: range) -> list[int]:
    """The polynomial's values at every t in ts, one Horner step over all
    of them per coefficient."""
    if not coeffs:
        return [0] * len(ts)
    acc = [coeffs[-1]] * len(ts)
    for c in reversed(coeffs[:-1]):
        acc = [v * t + c for v, t in zip(acc, ts)]
    return acc


def _dot(xs, ys) -> int:
    return sum(map(operator.mul, xs, ys))


def _scaled_rows(rows: list[list[int]], x: Fraction) -> list[list[int]]:
    """Recurrence rows of the terms u_n x^n from those of u_n, x = p/q:
    row_d times p^d q^(r-d)."""
    p, q = x.numerator, x.denominator
    r = len(rows) - 1
    factors = [p**d * q ** (r - d) for d in range(r + 1)]
    return [[c * f for c in row] for f, row in zip(factors, rows)]


def _undetermined(m: int, name: str) -> UnsupportedOperationError:
    return UnsupportedOperationError(
        f"series coefficient {m} of {name} is not determined "
        "by the recurrence; supply it as an initial coefficient"
    )


# the cap on the length of every series sum, and on a seed list
MAX_TERMS = 500_000


def _check_seed_count(count: int):
    if count > MAX_TERMS + 1:
        raise PrecisionExceededError(
            f"the series needs {count} seed coefficients, more than {MAX_TERMS + 1}"
        )


def _band_roots(band: Sequence[int], ctx: Precision = DEFAULT_PRECISION) -> list[int]:
    """The nonnegative integer roots t of a recurrence's leading band, an
    integer polynomial (coefficients ascending), in ascending order: the
    recurrence leaves its coefficient offset + t free.

    0 is one when the constant term vanishes.  Coefficients that never
    change sign leave no positive root (Descartes' rule of signs), as in
    every built-in function.  Otherwise each root lies in one certified
    disc of radius at most 1/4, so it is the integer nearest the disc's
    centre, and an exact evaluation settles it.
    """
    roots = {0} if band[0] == 0 else set()
    if len({c > 0 for c in band if c}) == 2:
        for disc in isolate_roots(squarefree_part(Polynomial(band)), 2, ctx):
            t = round(disc.re)
            if t > 0 and _horner(band, t) == 0:
                roots.add(t)
    return sorted(roots)


# steps a leaf of the splitting tree runs one after another.  In-process
# bench rounds with fraction-free leaves (Python 3.11, shared 2-core Xeon,
# median of 21, sizes alternating), blocks of 32, 64 and 128 steps, two
# runs each: eval at seed 1 42.0, 40.2, 40.3 and 67.1, 67.3, 64.9 ms, at
# seed 9 52.1, 46.6, 46.5 and 56.7, 53.1, 53.9 ms; falsify at seed 1 98.0,
# 97.0, 79.7 and 74.9, 76.4, 75.3 ms, at seed 9 106.8, 102.7, 98.4 and
# 67.3, 67.1, 67.8 ms.  No size wins on both workloads in both runs, and
# 32 loses on eval.  A leaf step costs less than a merge since each row is
# evaluated over the whole block at once, so longer leaves pay.
_BLOCK = 64

# p = u/v with |u|, v below this is 1/v or more from every integer and its
# float is off by less than 2^-20/v, so float lgamma(p + n) - lgamma(p) is
# within 1e-4 of log |(p)_n| for n up to 10^6, near poles too
_FLOAT_SAFE = 2**32


class _RecurrenceSum:
    """Exact partial sums S_j = u_0 + ... + u_{j-1} of a recurrent sequence,
    u_j a series' term at index m = first + stride j.

    The first terms are given (`terms`, Fractions); past them

        den(t) u_j = row_1(t) u_{j-1} + ... + row_r(t) u_{j-r},
        t = m - offset,

    with `rows` = [den, row_1, ..., row_r] integer coefficient lists
    (ascending).  The state at j is (u_{j-r}, ..., u_{j-1}, S_j) held as
    integers over one common denominator, terms before j = 0 being 0.
    advance() moves it on by one binary-splitting product, so successive
    calls continue the sum and never restart it.  read() moves it on term
    by term and hands the terms over as integer pairs; term() keeps them
    as Fractions.  A den root at t raises naming the index m.
    """

    def __init__(self, terms: list[Fraction], rows: list[list[int]],
                 offset: int, name: str, first: int = 0, stride: int = 1):
        self._terms = terms
        self._rows = rows
        self._offset = offset
        self._first = first
        self._stride = stride
        self.name = name
        self.m = 0
        self._v = [0] * (len(rows) - 1)
        self._s = 0
        self._den = 1
        self._known: list[Fraction] = []

    def advance(self, hi: int):
        """Move the state to j = hi (no-op when hi <= m, the j reached)."""
        while self.m < min(hi, len(self._terms)):
            self._push(self._terms[self.m])
        if self.m >= hi:
            return
        a, b, q = self._product(self.m, hi)
        v = self._v
        self._v = [_dot(row, v) for row in a]
        self._s = _dot(b, v) + q * self._s
        self._den *= q
        self.m = hi

    def value(self) -> Fraction:
        """S_m: the one division of the sum."""
        return Fraction(self._s, self._den)

    def next_term(self) -> tuple[int, int]:
        """u_j at the j reached, as (numerator, denominator), past the
        given terms, leaving the state where it is."""
        last, q = self._step(self.m)
        return _dot(last, self._v), q * self._den

    def read(self, hi: int) -> list[tuple[int, int]]:
        """The terms j in [m, hi) as (numerator, denominator) pairs, not
        reduced, with the state moved on to hi.

        Given terms are read as they are.  Past them the terms are those
        of the fraction-free run of `_block`, started from the state
        itself: with D its denominator, q_j the den value of step j and W
        before the block the state's u, u_j = W_j / (D q_0 ... q_j).  The
        rows' values over the whole range come first (`_steps`), so a den
        root raises before the state moves."""
        lo = max(self.m, len(self._terms))
        pairs = [(u.numerator, u.denominator) for u in self._terms[self.m:hi]]
        if lo >= hi:
            self.advance(hi)
            return pairs
        rows, dens = self._steps(lo, hi)
        self.advance(lo)
        den, s = self._den, self._s
        if len(rows) == 1:
            (w,) = self._v
            for p, q in zip(rows[0], dens):
                w *= p
                den *= q
                s = q * s + w
                pairs.append((w, den))
            self._v = [w]
        else:
            # window[d - 1] = W_{j-d} and scale[d - 1] = q_{j-d+1} ... q_{j-1}
            r = len(rows)
            window, scale = self._v[::-1], [1] * r
            for q, *ps in zip(dens, *rows):
                w = _dot(map(operator.mul, ps, scale), window)
                window = ([w] + window)[:r]
                scale = ([1] + [x * q for x in scale])[:r]
                den *= q
                s = q * s + w
                pairs.append((w, den))
            self._v = [w * x for w, x in zip(window, scale)][::-1]
        self._s, self._den, self.m = s, den, hi
        return pairs

    def term(self, n: int) -> Fraction:
        """u_n, for a sum that is only read through this method: the terms
        read so far are kept as Fractions, and the missing ones read on.
        The state is then divided by the gcd of its integers, so that they
        stay the size of reduced terms (read one at a time, a fraction-free
        state of order 2 or more grows by the product of all den values).
        That gcd starts from D / b, D the state's denominator and b the
        last term's reduced one, which divides D: when u has entries, its
        last one over D is that term, so D / b is their gcd, a small
        number."""
        known = self._known
        if len(known) <= n:
            known += [Fraction(num, den) for num, den in self.read(n + 1)]
            g = math.gcd(self._den // known[-1].denominator, self._s, *self._v)
            self._v = [v // g for v in self._v]
            self._s //= g
            self._den //= g
        return known[n]

    def _push(self, u: Fraction):
        den = math.lcm(self._den, u.denominator)
        k = den // self._den
        w = u.numerator * (den // u.denominator)
        self._v = ([x * k for x in self._v] + [w])[1:]
        self._s = self._s * k + w
        self._den = den
        self.m += 1

    def _step(self, j: int) -> tuple[list[int], int]:
        """The step of j as (last, q): u_j = last.(u_{j-r}, ..., u_{j-1}) / q,
        so row_d sits in column r - d."""
        m = self._first + self._stride * j
        t = m - self._offset
        q = _horner(self._rows[0], t) if t >= 0 else 0
        if q == 0:
            raise _undetermined(m, self.name)
        return [_horner(row, t) for row in reversed(self._rows[1:])], q

    def _steps(self, lo: int, hi: int) -> tuple[list[list[int]], list[int]]:
        """The steps of [lo, hi), as _step gives them one at a time, as
        lists over the block ([row_1, ..., row_r], den): each polynomial's
        values at t = m - offset for j in [lo, hi).  Raises at the least
        index m whose den value is 0 (or t < 0)."""
        g = self._stride
        m = self._first + g * lo
        t = m - self._offset
        if t < 0:
            raise _undetermined(m, self.name)
        ts = range(t, t + g * (hi - lo), g)
        dens = _horner_all(self._rows[0], ts)
        if 0 in dens:
            raise _undetermined(m + g * dens.index(0), self.name)
        return [_horner_all(row, ts) for row in self._rows[1:]], dens

    def _product(self, lo: int, hi: int):
        """The steps of [lo, hi) as (A, b, q): the state (u, S) maps to
        (A u, b.u + q S) / q.  Recursive halving down to blocks of _BLOCK
        steps."""
        if hi - lo <= _BLOCK:
            return self._block(lo, hi)
        mid = (lo + hi) // 2
        a1, b1, q1 = self._product(lo, mid)
        a2, b2, q2 = self._product(mid, hi)
        cols = list(zip(*a1))
        a = [[_dot(row, col) for col in cols] for row in a2]
        b = [_dot(b2, col) + q2 * y for col, y in zip(cols, b1)]
        return a, b, q2 * q1

    def _block(self, lo: int, hi: int):
        """The steps of [lo, hi) one after another, on the rows' values
        over the whole block, as (A, b, den) of `_product`.  With q_j the
        den value of step j (1 before the block), W_j = q_0 ... q_j u_j
        obeys

            W_j = sum_d row_d(t_j) q_{j-d+1} ... q_{j-1} W_{j-d},

        W before the block being the state itself, and
        sigma_j = q_j sigma_{j-1} + W_j.  Each column of A runs this
        scalar recurrence from a unit vector: at block length L, row i is
        W_{L-r+i} q_{L-r+i+1} ... q_{L-1}, b is sigma and den is
        q_0 ... q_{L-1}, the integers a product of companion matrices gives.
        Order 1 is a <- p a, b <- a + q b, den <- q den; order 2 is written
        out; other orders, 0 included, share one loop."""
        rows, dens = self._steps(lo, hi)
        r = len(rows)
        if r == 1:
            a, b, den = 1, 0, 1
            for p, q in zip(rows[0], dens):
                a *= p
                b = a + q * b
                den *= q
            return [[a]], [b], den
        if r == 2:
            # (W_{j-1}, W_{j-2}) and sigma of the columns from u_{-2} = 1
            # (x) and from u_{-1} = 1 (y); last is q_{j-1}
            x1, x2, y1, y2 = 0, 1, 1, 0
            sx = sy = 0
            den = last = 1
            for p1, p2, q in zip(rows[0], rows[1], dens):
                p2 *= last
                x1, x2 = p1 * x1 + p2 * x2, x1
                y1, y2 = p1 * y1 + p2 * y2, y1
                sx = q * sx + x1
                sy = q * sy + y1
                den *= q
                last = q
            return [[x2 * last, y2 * last], [x1, y1]], [sx, sy], den
        # scale[d - 1] = q_{j-d+1} ... q_{j-1}, and steps holds each step's
        # row_d(t_j) times it, for d = 1, ..., r
        scale = [1] * r
        steps = []
        for ps, q in zip(zip(*rows), dens):
            steps.append(list(map(operator.mul, ps, scale)))
            scale = [1] + [s * q for s in scale[:-1]]
        # window[d - 1] = W_{j-d} of each column, and b its sigma
        windows, b = [], []
        for c in range(r):
            window = [int(d == r - c) for d in range(1, r + 1)]
            sigma = 0
            for coeffs, q in zip(steps, dens):
                w = _dot(coeffs, window)
                window = [w] + window[:-1]
                sigma = q * sigma + w
            windows.append(window)
            b.append(sigma)
        a = [[w[r - 1 - i] * scale[r - 1 - i] for w in windows] for i in range(r)]
        return a, b, math.prod(dens)


class _ClassSums:
    """Exact partial sums of sum c_m x^m for an EFunction f, one
    `_RecurrenceSum` per residue class c mod f's stride g that is not
    zero (`EFunction.residue_classes`), each over the terms c_{c+gj} x^{c+gj}.

    advance(n) counts original indices m, as a single sum over every m
    would, and raises at the least index that sum would stop at, also in
    a class that is not run.  state() is the sum over the product of the
    classes' denominators, and value() its one division.
    """

    def __init__(self, f: EFunction, sums: list[tuple[int, _RecurrenceSum]]):
        self._f = f
        self._sums = sums
        self.m = 0

    def advance(self, hi: int):
        """Move every class to the indices below hi (no-op when hi <= m)."""
        if hi <= self.m:
            return
        self._f.check_determined(self.m, hi)
        g = self._f.stride
        for c, sums in self._sums:
            # the j with c + g j < hi
            sums.advance(-((c - hi) // g))
        self.m = hi

    def state(self) -> tuple[int, int]:
        """The partial sum as (numerator, denominator), not reduced."""
        num, den = 0, 1
        for _, sums in self._sums:
            num, den = num * sums._den + sums._s * den, den * sums._den
        return num, den

    def value(self) -> Fraction:
        return Fraction(*self.state())


class EFunction:
    """Solution of an ODE with polynomial coefficients, given by series data.

    initial_coeffs are a_0, a_1, ... (at least as many as the operator
    order; more when the recurrence has free indices), checked here
    against every recurrence row they determine, the row of the first free
    index past them included.  `rows` is the integer recurrence
    [den, row_1, ..., row_r] of the Taylor coefficients c_n = a_n / n!,
    with offset `recurrence.offset` (module docstring).  `ctx` bounds
    the root isolation that finds the free indices (`_band_roots`); a
    closure that knows them already (`ef_scale`) hands them over instead.

    A function built by `ef_hypergeometric`, f(z) = sum t_n z^(kn), is its
    parameters, `hypergeometric`; it is given no annihilator and no initial
    coefficients.  Its Taylor coefficients are the terms t_n, and its
    annihilator, recurrence, seeds and seed check are built from the
    parameters on first read.  Closure results are new functions and leave
    `hypergeometric` None.
    """

    def __init__(
        self,
        annihilator: DiffOperator | None,
        initial_coeffs: Sequence = (),
        name: str = "f",
        coeff_bound=None,
        values_transcendental: bool = False,
        psi_singularity_poly: Polynomial | None = None,
        hypergeometric: HypergeometricParams | None = None,
        ctx: Precision = DEFAULT_PRECISION,
        *,
        _free_indices: list[int] | None = None,
    ):
        if coeff_bound is not None and Fraction(coeff_bound) < 0:  # |a_1| <= C < 0 never holds
            raise InputError(f"coefficient bound must be nonnegative, got {coeff_bound}")
        self.name = name
        self._ctx = ctx
        self._coeff_bound = coeff_bound
        self.values_transcendental = values_transcendental
        self.psi_singularity_poly = psi_singularity_poly
        self.hypergeometric = hypergeometric
        if hypergeometric is not None:
            return
        if annihilator is None or annihilator.is_zero:
            raise InputError("annihilator must be nonzero")
        if annihilator.order < 1:
            raise InputError("annihilator must involve at least one derivative")
        self.annihilator = annihilator
        # ordinary series coefficients c_n = a_n / n!
        seeds = [Fraction(a) / math.factorial(n) for n, a in enumerate(initial_coeffs)]
        if len(seeds) < annihilator.order:
            raise InputError(
                f"order {annihilator.order} operator needs at least "
                f"{annihilator.order} initial coefficients, got {len(seeds)}"
            )
        self._check_seed_consistency(seeds)
        self.seeds = seeds
        self.seed_count = len(seeds)
        if _free_indices is not None:
            self.free_indices = _free_indices
        self._check_first_free_row()

    @functools.cached_property
    def annihilator(self) -> DiffOperator:
        return hypergeometric_annihilator(self.hypergeometric)

    @functools.cached_property
    def recurrence(self) -> Recurrence:
        return recurrence_from_ode(self.annihilator)

    @property
    def rows(self) -> list[list[int]]:
        """[den, row_1, ..., row_r]: the recurrence's integer rows."""
        return self.recurrence.rows

    @functools.cached_property
    def seed_count(self) -> int:
        """How many seeds pin the series: the initial coefficients given,
        or, from parameters, max(order, the last free index + 1).  The
        recurrence's leading band t prod_j (t + k(b_j - 1)) leaves c_t free
        at t = 0 and at every nonnegative integer k(1 - b_j)."""
        params = self.hypergeometric
        free = [params.k * (1 - b) for b in params.lower]
        last_free = max([0] + [int(t) for t in free if t.denominator == 1 and t >= 0])
        return max(self.order, last_free + 1)

    @functools.cached_property
    def seeds(self) -> list[Fraction]:
        """The Taylor coefficients c_0, ..., c_{seed_count - 1}.  From
        parameters they are the terms, checked against the annihilator's
        recurrence when first read, as given seeds are when built."""
        _check_seed_count(self.seed_count)
        seeds = [self.series_coefficient(n) for n in range(self.seed_count)]
        self._check_seed_consistency(seeds)
        return seeds

    @functools.cached_property
    def coeff_bound(self) -> Fraction | None:
        """C >= 1 with |a_n| <= C^n for n >= 1, or None.  A function given
        by its parameters computes its own on first read: only closures and
        the (C|x|)^n / n! majorant read it."""
        bound = self._coeff_bound
        if self.hypergeometric is not None:
            bound = _hypergeometric_coeff_bound(self.hypergeometric, self.coefficient)
        return None if bound is None else max(Fraction(1), Fraction(bound))

    # -- coefficient stream ---------------------------------------------------

    def _check_seed_consistency(self, seeds: list[Fraction]):
        """Every recurrence row fully determined by the seeds must vanish.
        A row is checked in integers, over the common denominator of the
        r + 1 seeds it reads; one denominator for all the seeds grows with
        their count (at 4002 seeds its check took 6 times as long)."""
        lead, *rows = self.rows
        offset = self.recurrence.offset
        for m in range(max(offset, 0), len(seeds)):
            t = m - offset
            # u[d] is the seed m - d over the row's denominator
            window = seeds[max(m - len(rows), 0) : m + 1][::-1]
            den = math.lcm(*(c.denominator for c in window))
            u = [c.numerator * (den // c.denominator) for c in window]
            total = _horner(lead, t) * u[0] - sum(
                _horner(row, t) * v for row, v in zip(rows, u[1:])
            )
            if total != 0:
                raise InputError(
                    f"initial coefficients violate the recurrence at row {t}"
                )

    def _check_first_free_row(self):
        """The first free index m past the seeds has a row as well,
        0 = row_1(t) c_{m-1} + ... + row_r(t) c_{m-r} at t = m - offset,
        on coefficients the seeds determine.  The row reads only m's
        residue class mod the stride, which stays zero when its seeds are;
        otherwise its class sum at x = 1, advanced to m, holds them."""
        m = self.first_free_index
        for c, rows, offset in self.residue_classes:
            if m is not None and c == m % self.stride:
                sums = self._class_sum(1, c, rows, offset)
                sums.advance(m // self.stride)
                t = m - offset
                if _dot([_horner(row, t) for row in reversed(rows[1:])], sums._v):
                    raise InputError(f"initial coefficients violate the recurrence at row {t}")

    def _unit_sums(self) -> tuple[int, dict[int, _RecurrenceSum]]:
        """(g, sums): sums[c] is the sum at x = 1 of class c mod g, whose
        terms are the Taylor coefficients c_{c+gj}, for f's classes mod its
        stride that are not zero; from parameters, the term ratio's sum,
        its terms t_n = c_{kn}, as the one class 0 mod k."""
        params = self.hypergeometric
        if params is not None:
            return params.k, {0: params.sums(Fraction(1))}
        return self.stride, {cls[0]: self._class_sum(1, *cls) for cls in self.residue_classes}

    @functools.cached_property
    def _streams(self) -> tuple[int, dict[int, _RecurrenceSum]]:
        """The unit sums that `series_coefficient` reads term by term,
        extended past the seeds on demand."""
        return self._unit_sums()

    def coefficient(self, n: int) -> Fraction:
        """a_n, the n-th coefficient of the z^n/n! expansion."""
        c = self.series_coefficient(n)
        # off multiples of k a hypergeometric series is 0: no n! to form
        return c * math.factorial(n) if c else c

    def series_coefficient(self, n: int) -> Fraction:
        """c_n = a_n / n!, the plain Taylor coefficient; from parameters,
        c_{kn} = t_n and zero off multiples of k.  A zero class reads 0
        without a sum; the least free index up to n raises, in any class."""
        if n < 0:
            return Fraction(0)
        if self.hypergeometric is None:
            self.check_determined(0, n + 1)
        g, streams = self._streams
        j, c = divmod(n, g)
        stream = streams.get(c)
        return stream.term(j) if stream else Fraction(0)

    def coefficients(self, count: int) -> list[Fraction]:
        return [self.coefficient(n) for n in range(count)]

    # -- residue classes ------------------------------------------------------

    @functools.cached_property
    def stride(self) -> int:
        """g, the gcd of the d with row_d nonzero: the recurrence links
        only indices g apart (1 when it links none)."""
        return math.gcd(*(d for d, row in enumerate(self.rows[1:], 1) if row)) or 1

    @functools.cached_property
    def residue_classes(self) -> list[tuple[int, list[list[int]], int]]:
        """(c, rows, offset) for each residue class c mod the stride g
        with a nonzero seed; a class whose seeds are all zero stays zero.

        v_j = c_{c+gj} obeys den(t) v_j = sum_e row_{ge}(t) v_{j-e} at
        t = c + g j - offset, an order r/g recurrence on f's own rows of
        every g-th band, rows = [den, row_g, row_2g, ...], at f's offset.
        """
        g = self.stride
        rows = self.rows[::g]
        offset = self.recurrence.offset
        return [(c, rows, offset) for c in range(g) if any(self.seeds[c::g])]

    @functools.cached_property
    def free_indices(self) -> list[int]:
        """The indices m = offset + t the recurrence leaves free, t a
        nonnegative integer root of its leading band, in ascending order."""
        offset = self.recurrence.offset
        return [offset + t for t in _band_roots(self.rows[0], self._ctx)]

    @property
    def first_free_index(self) -> int | None:
        """The least free index past the seeds that a sum can reach (at
        most MAX_TERMS + 1), or None."""
        return next((m for m in self.free_indices if self.seed_count <= m <= MAX_TERMS + 1), None)

    def check_determined(self, lo: int, hi: int):
        """Raise at the least index m in [lo, hi) past the seeds that the
        recurrence leaves free.  Seeds reach at least the offset, so every
        such m has t = m - offset >= 0."""
        for m in self.free_indices:
            if max(lo, self.seed_count) <= m < hi:
                raise _undetermined(m, self.name)

    # -- sums at a point ------------------------------------------------------

    def _class_sum(self, x: Fraction | int, c: int, rows: list[list[int]],
                   offset: int) -> _RecurrenceSum:
        """The sum of the terms c_{c+gj} x^(c+gj) of class c mod the stride
        g (`residue_classes`): its seeds, and its rows scaled by x^g; at
        x = 1 the seeds and rows themselves."""
        g = self.stride
        seeds = self.seeds[c::g]
        if x != 1:
            seeds = [s * x ** (c + g * j) for j, s in enumerate(seeds)]
            rows = _scaled_rows(rows, x**g)
        return _RecurrenceSum(seeds, rows, offset, self.name, c, g)

    def sums(self, x: Fraction) -> _ClassSums:
        """Partial sums of sum c_n x^n: one sum per residue class mod the
        stride that is not zero."""
        classes = self.residue_classes
        return _ClassSums(self, [(cls[0], self._class_sum(x, *cls)) for cls in classes])

    def majorant(self, x: Fraction):
        """(start, log10 M, M) for M(n) = (C|x|)^n / n!, C the proven
        bound: |c_n x^n| <= M(n) for n >= 1, and M(n+1) / M(n) = C|x| / (n+1)
        <= 1/2 from start = max(1, floor(2 C|x|)) on."""
        y = self.coeff_bound * abs(x)
        yn, yd = y.numerator, y.denominator
        log_y = math.log10(yn) - math.log10(yd)
        return (
            max(1, 2 * yn // yd),
            lambda n: n * log_y - math.lgamma(n + 1) / math.log(10),
            lambda n: (yn**n, yd**n * math.factorial(n)),
        )

    @property
    def order(self) -> int:
        params = self.hypergeometric
        if params is not None:
            # the theta form's theta prod_j (theta + k(b_j - 1)) leads
            return len(params.lower) + 1
        return self.annihilator.order

    def __repr__(self) -> str:
        return f"EFunction({self.name}, order={self.order})"


# -- builtin functions ---------------------------------------------------------


def ef_exp() -> EFunction:
    return EFunction(
        DiffOperator.from_poly_coeffs([-1, 1]),
        [1],
        name="exp",
        coeff_bound=1,
        values_transcendental=True,  # Lindemann-Weierstrass
        psi_singularity_poly=Polynomial((-1, 1)),
    )


def ef_bessel_j0() -> EFunction:
    op = DiffOperator.from_poly_coeffs(
        [Polynomial((0, 1)), Polynomial.one(), Polynomial((0, 1))]
    )
    return EFunction(
        op,
        [1, 0],
        name="J0",
        coeff_bound=1,
        values_transcendental=True,  # Siegel
        psi_singularity_poly=Polynomial((1, 0, 1)),
    )


def ef_sin_integral() -> EFunction:
    op = DiffOperator.from_poly_coeffs([0, [0, 1], 2, [0, 1]])
    return EFunction(
        op,
        [0, 1, 0],
        name="Si",
        coeff_bound=1,
        values_transcendental=True,
        psi_singularity_poly=Polynomial((1, 0, 1)),
    )


@dataclass(frozen=True)
class HypergeometricParams:
    """Series sum_n [prod (a_i)_n / prod (b_j)_n] (scale^n) z^(kn), k = s - r."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        """Every instance is checked once, here: InputError unless s > r,
        no parameter is a nonpositive integer and the scale is nonzero."""
        if len(self.lower) <= len(self.upper):
            raise InputError("need more lower than upper parameters")
        for b in self.lower:
            if b.denominator == 1 and b <= 0:
                raise InputError(f"lower parameter {b} is a nonpositive integer")
        for a in self.upper:
            if a.denominator == 1 and a <= 0:
                raise InputError(
                    f"upper parameter {a} is a nonpositive integer (series terminates)"
                )
        if self.scale == 0:
            raise InputError("scale must be nonzero")

    @property
    def k(self) -> int:
        return len(self.lower) - len(self.upper)

    @functools.cached_property
    def ratio_rows(self) -> list[list[int]]:
        """[den, num], integer polynomials in n with t_{n+1} / t_n =
        num(n) / den(n) = scale prod (a_i + n) / prod (b_j + n), t_n the
        n-th term of the series at z^k = 1."""
        num = Polynomial((self.scale.numerator,))
        den = Polynomial((self.scale.denominator,))
        for a in self.upper:
            num, den = num * Polynomial((a.numerator, a.denominator)), den * a.denominator
        for b in self.lower:
            num, den = num * b.denominator, den * Polynomial((b.numerator, b.denominator))
        # both have integer coefficients, so their scales are integers
        return [[p.scale.numerator * c for c in p.prim] for p in (den, num)]

    def ratio_bound(self) -> tuple[int, Fraction]:
        """(N*, K0) with |t_{n+1} / t_n| <= K0 / n^k for every n >= N*.

        For n >= N* = 1 + 2 max ceil|b_j| every |b_j + n| >= n/2, and
        |a_i + n| <= (1 + ceil|a_i|) n, so K0 = |scale| 2^s prod (1 + ceil|a_i|)
        with s lower parameters serves.
        """
        nstar = 1 + max((2 * math.ceil(abs(b)) for b in self.lower), default=0)
        const = abs(self.scale) * 2 ** len(self.lower)
        for a in self.upper:
            const *= 1 + math.ceil(abs(a))
        return nstar, const

    def sums(self, x: Fraction) -> _RecurrenceSum:
        """Partial sums of sum t_n x^n: the term ratio's rows scaled by x."""
        return _RecurrenceSum([Fraction(1)], _scaled_rows(self.ratio_rows, x), 1, "the series")

    def majorant(self, x: Fraction, sums: _RecurrenceSum):
        """(start, log10 M, M) for M(n) = |t_n x^n|, the terms `sums` adds
        up.  Each term ratio is at most K0 |x| / n^k from N* on
        (ratio_bound), so M halves past start = n1, the least n >= N* with
        2 K0 |x| <= n^k.  M(n) is `sums`' next term once advanced to n, so
        no product is formed twice; n must not lie behind the index `sums`
        has reached.  log10 M comes from log |(p)_n| = lgamma(p + n) -
        lgamma(p), or is -inf when a parameter is too tall for floats
        (_FLOAT_SAFE), so the exact comparisons start at n1."""
        k = self.k
        nstar, const = self.ratio_bound()
        kconst = const * abs(x)
        # n^k >= 2 K0 |x| holds for integer n^k exactly when it reaches the
        # ceiling c, and the least such n is c's k-th root rounded up
        ceil = -(-2 * kconst.numerator // kconst.denominator)
        root = _iroot(ceil, k)
        n1 = max(nstar, root if root**k >= ceil else root + 1)

        def term(n: int) -> tuple[int, int]:
            sums.advance(n)
            num, den = sums.next_term()
            return abs(num), abs(den)

        params = [(a, 1) for a in self.upper] + [(b, -1) for b in self.lower]
        if any(max(abs(p.numerator), p.denominator) >= _FLOAT_SAFE for p, _ in params):
            return n1, lambda n: -math.inf, term
        sx = self.scale * x
        log_sx = math.log10(abs(sx.numerator)) - math.log10(sx.denominator)
        shifts = [(float(p), math.lgamma(p), sign) for p, sign in params]

        def log_term(n: int) -> float:
            logs = sum(sign * (math.lgamma(p + n) - lg) for p, lg, sign in shifts)
            return n * log_sx + logs / math.log(10)

        return n1, log_term, term

    @property
    def singular_poly(self) -> Polynomial:
        """scale k^k z^k - 1, whose roots are the finite singularities of
        the z-form series with the factorials removed."""
        k = self.k
        return Polynomial((-1,) + (0,) * (k - 1) + (self.scale * Fraction(k) ** k,))


def _theta_poly_operator(roots: Sequence[Fraction], extra_theta: bool) -> DiffOperator:
    """prod (theta + root) as an operator, optionally times theta, theta = z D."""
    theta = DiffOperator.from_poly_coeffs([0, [0, 1]])
    acc = DiffOperator.from_poly_coeffs([1])
    for r in roots:
        factor = DiffOperator.from_poly_coeffs([r, [0, 1]])
        acc = op_compose(acc, factor)
    if extra_theta:
        acc = op_compose(theta, acc)
    return acc


def hypergeometric_annihilator(params: HypergeometricParams) -> DiffOperator:
    """Annihilator of the z-form series, built from the theta form:

        theta prod_j (theta + k(b_j - 1))
            - scale k^k z^k (theta + k) prod_i (theta + k a_i)
    """
    k = params.k
    left = _theta_poly_operator([k * (b - 1) for b in params.lower], extra_theta=True)
    right = _theta_poly_operator(
        [Fraction(k)] + [k * a for a in params.upper], extra_theta=False
    )
    right = right.shift_z(k).scale(params.scale * Fraction(k) ** k)
    return (left - right).primitive_normalized()


def _hypergeometric_coeff_bound(params: HypergeometricParams, prefix) -> Fraction:
    """A proven C with |a_n| <= C^n for n >= 1.

    For n >= N* the term ratio is at most K0 / n^k
    (`HypergeometricParams.ratio_bound`), and
    prod_{i=1..k}(kn + i) <= k^k (2n)^k, so the step ratio
    |a_{k(n+1)}/a_{kn}| is at most the constant T = K0 2^k k^k. Taking
    C >= T and C >= |a_m| for every m <= k N* covers all indices.
    """
    k = params.k
    nstar, const = params.ratio_bound()
    bound = max(Fraction(1), const * 2**k * Fraction(k) ** k)
    for m in range(1, k * nstar + 1):
        bound = max(bound, abs(prefix(m)))
    return bound


def ef_hypergeometric(
    upper: Sequence, lower: Sequence, scale=Fraction(1), name: str | None = None
) -> EFunction:
    """sum_n [prod (a_i)_n / prod (b_j)_n] scale^n z^(kn) as an EFunction
    given by its parameters: its annihilator and seeds are built only when
    read (`EFunction`)."""
    params = HypergeometricParams(
        tuple(Fraction(a) for a in upper),
        tuple(Fraction(b) for b in lower),
        Fraction(scale),
    )
    return _hypergeometric_function(params, name)


def _hypergeometric_function(params: HypergeometricParams, name: str | None = None) -> EFunction:
    """The function of `ef_hypergeometric`, from parameters already checked."""
    if name is None:
        up = ",".join(str(a) for a in params.upper)
        lo = ",".join(str(b) for b in params.lower)
        name = f"F[{up};{lo}]"
        if params.scale != 1:
            name += f"@{params.scale}"
    return EFunction(
        None,
        name=name,
        psi_singularity_poly=params.singular_poly.primitive_int(),
        hypergeometric=params,
    )


# -- closure operations --------------------------------------------------------


def _poly_coeff_list(op: DiffOperator) -> list[Polynomial]:
    return [op.coefficient(b) for b in range(op.order + 1)]


def _seed_length(op: DiffOperator) -> int:
    """How many seeds pin a solution of op: max(order, last free index + 1),
    the free indices being those of `EFunction.free_indices`."""
    rec = recurrence_from_ode(op)
    roots = _band_roots(rec.rows[0])
    return max(op.order, rec.offset + roots[-1] + 1 if roots else 0)


def ef_scale(f: EFunction, factor, ctx: Precision = DEFAULT_PRECISION) -> EFunction:
    """g(z) = f(factor * z), factor a rational or a rational AlgebraicNumber.

    The factor rescales the annihilator directly.  An irrational factor
    raises UnsupportedOperationError: the coefficients would leave Q.  A
    function given by its parameters stays so, its scale times factor^k,
    and nothing is built.

    g's free indices are f's: c_m lam^m obeys f's recurrence with row_d
    times lam^d, so the rescaled operator has f's offset and, up to a
    constant factor, f's leading band.  g is handed them, and its leading
    band is not isolated again.
    """
    if isinstance(factor, AlgebraicNumber):
        factor = factor.as_rational(ctx)
        if factor is None:
            raise UnsupportedOperationError("irrational scale factors are not supported")
    lam = Fraction(factor)
    if lam == 0:
        raise InputError("scale factor must be nonzero")
    name = f"{f.name}({lam}z)" if lam != 1 else f.name
    params = f.hypergeometric
    if params is not None:
        scale = params.scale * lam**params.k
        return _hypergeometric_function(HypergeometricParams(params.upper, params.lower, scale), name)
    coeffs = _poly_coeff_list(f.annihilator)
    order = len(coeffs) - 1
    new = [coeffs[i].compose_scale(lam) * lam ** (order - i) for i in range(order + 1)]
    op = DiffOperator.from_poly_coeffs(new).primitive_normalized()
    free = f.free_indices
    seed_len = max(order, free[-1] + 1 if free else 0)
    _check_seed_count(seed_len)
    seeds = [f.coefficient(m) * lam**m for m in range(seed_len)]
    bound = None
    if f.coeff_bound is not None:
        bound = f.coeff_bound * max(Fraction(1), abs(lam))
    return EFunction(
        op,
        seeds,
        name=name,
        coeff_bound=bound,
        values_transcendental=f.values_transcendental,
        psi_singularity_poly=None,
        ctx=ctx,
        _free_indices=free,
    )


def ef_mul_poly(f: EFunction, p: Polynomial) -> EFunction:
    """h = p(z) f(z)."""
    if p.is_zero:
        raise InputError("multiplier polynomial must be nonzero")
    coeffs = _poly_coeff_list(f.annihilator)
    order = len(coeffs) - 1
    # inverse-power numerators: (1/p)^(m) = u_m / p^(m+1)
    u = [Polynomial.one()]
    for m_i in range(order):
        u.append(u[-1].derivative() * p - u[-1] * p.derivative() * (m_i + 1))
    acc = [Polynomial.zero()] * (order + 1)
    for i in range(order + 1):
        if coeffs[i].is_zero:
            continue
        for j in range(i + 1):
            term = coeffs[i] * math.comb(i, j) * u[i - j] * p ** (order + j - i)
            acc[j] = acc[j] + term
    op = DiffOperator.from_poly_coeffs(acc).primitive_normalized()
    seed_len = _seed_length(op)
    _check_seed_count(seed_len)
    # a_n = n! sum_j p_j c_{n-j}, in Taylor coefficients c of f
    seeds = [math.factorial(n) * sum(p[j] * f.series_coefficient(n - j)
                                     for j in range(min(n, p.degree) + 1) if p[j])
             for n in range(seed_len)]
    bound = None
    if f.coeff_bound is not None:
        absum = p.content() * sum(map(abs, p.prim))
        bound = max(Fraction(1), absum) * (2 ** p.degree) * f.coeff_bound
    return EFunction(
        op,
        seeds,
        name=f"({f.name}*poly)",
        coeff_bound=bound,
    )


def ef_sum(f: EFunction, g: EFunction) -> EFunction:
    """f + g, annihilated by the least common left multiple of their
    operators, which right-divides by each and so kills both."""
    op = op_lclm(f.annihilator, g.annihilator)
    seed_len = _seed_length(op)
    _check_seed_count(seed_len)
    seeds = [f.coefficient(m) + g.coefficient(m) for m in range(seed_len)]
    bound = None
    if f.coeff_bound is not None and g.coeff_bound is not None:
        bound = 2 * max(f.coeff_bound, g.coeff_bound)
    return EFunction(
        op,
        seeds,
        name=f"({f.name}+{g.name})",
        coeff_bound=bound,
    )


def ef_lagrange_combo(f: EFunction, points: Sequence) -> EFunction:
    """g(z) = sum_i L_i(z) f(z / alpha_i) with L_i the interpolation basis
    on the points, so g(alpha_i) = f(1) for every i.

    Useful for manufacturing functions whose values at the points satisfy an
    obvious linear relation while sharing the singular geometry of f.
    """
    alphas = [Fraction(a) for a in points]
    if len(alphas) < 1:
        raise InputError("need at least one point")
    if len(set(alphas)) != len(alphas):
        raise InputError("points must be distinct")
    if any(a == 0 for a in alphas):
        raise InputError("points must be nonzero")
    total: EFunction | None = None
    for i, a in enumerate(alphas):
        li = Polynomial.one()
        for j, b in enumerate(alphas):
            if j != i:
                li = li * Polynomial((-b, 1)) * Fraction(1, a - b)
        piece = ef_mul_poly(ef_scale(f, Fraction(1, a)), li)
        total = piece if total is None else ef_sum(total, piece)
    total.name = f"combo({f.name})"
    return total


# -- growth diagnostics --------------------------------------------------------


def _abs_root(a: Fraction, n: int) -> float:
    """|a|^(1/n) as a float, through logarithms once |a| passes the float
    range (math.inf when the root does too)."""
    try:
        return float(abs(a)) ** (1.0 / n)
    except OverflowError:
        log = (math.log(abs(a.numerator)) - math.log(a.denominator)) / n
        try:
            return math.exp(log)
        except OverflowError:
            return math.inf


def growth_check(f: EFunction, terms: int = 80) -> float:
    """max |a_n|^(1/n) over the nonzero a_n with 1 <= n < terms (at least
    8 terms), 0.0 when there is none.

    Each class of Taylor coefficients c_n = num / den is read once, as
    integer pairs (`_RecurrenceSum.read`), and |a_n| = |num| n! / |den| is
    one int / int division, correctly rounded as float(Fraction) is; only
    a quotient past the float range becomes a Fraction, for `_abs_root`.

    Heuristic only: it suggests, and never proves, a bound on the
    coefficients' growth.
    """
    count = max(8, terms)
    if f.hypergeometric is None:
        f.check_determined(0, count)
    g, streams = f._unit_sums()
    factorials = list(itertools.accumulate(range(1, count), operator.mul, initial=1))
    best = 0.0
    for c, sums in streams.items():
        for n, (num, den) in zip(range(c, count, g), sums.read(-((c - count) // g))):
            if n and num:
                a = abs(num) * factorials[n]
                try:
                    root = (a / abs(den)) ** (1.0 / n)
                except OverflowError:
                    root = _abs_root(Fraction(a, den), n)
                best = max(best, root)
    return best
