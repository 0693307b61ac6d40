"""Entire series f = sum a_n z^n / n! presented by an annihilating operator.

An EFunction bundles a linear differential operator with polynomial
coefficients, enough initial series coefficients to pin the solution, and
growth metadata:

  * coeff_bound C: a proven bound |a_n| <= C^n for all n >= 1 (None when
    only heuristic growth information is available),
  * values_transcendental: f(x) is transcendental for every nonzero
    algebraic x (set only for functions where this is classical).

Coefficients are generated from the recurrence induced by the annihilator;
indices where the recurrence degenerates must be covered by the supplied
initial coefficients, and supplied coefficients are checked against every
recurrence row they determine, in integers, row by row.

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
sum_j P_j(t) c_{t+j} = 0 on its Taylor coefficients c_n; with the band
denominators cleared once, den = P_jmax and row_d = -P_{jmax-d},
r = jmax - jmin, offset jmax.  A hypergeometric series has r = 1 and its
term ratio t_{n+1}/t_n as row_1 / den (`HypergeometricParams.ratio_rows`).
The sum of u_n x^n at x = p/q runs the same recurrence with row_d times
p^d q^(r-d), and the coefficients are the terms of the sum at x = 1, one
Fraction each.

The engine's state at index m is (u_{m-r}, ..., u_{m-1}, S_m),
S_m = u_0 + ... + u_{m-1}, as integers over one common denominator.  The
product of the steps over [lo, hi) is formed by recursive halving, so
integers grow in balanced products, not one term at a time, and the only
gcd is taken when the partial sum becomes a Fraction; a term-by-term sum
takes one on numbers of the same size at every term.  The halving stops
at blocks of _BLOCK steps, run one after another on each row's values
over the whole block, which one Horner pass over the block's t values
gives.  At order 1 (every residue class of exp, J0, Si, I0 and cosh, and
every hypergeometric series) a step is three products of plain integers,
a <- p a, b <- a + q b, den <- q den.  At higher order a step is a
companion matrix, so it shifts the rows of the block's matrix up and
appends one new row, and no step builds a matrix of its own.

Many E-functions (J0, Si, cosh, I0, the hypergeometric series in z^k)
have recurrences whose nonzero rows row_d all have d divisible by a
stride g >= 2 (`EFunction.stride`, the gcd of those d).  Then c_m is tied
only to c_{m-g}, c_{m-2g}, ..., and the indices split into g residue
classes c + g j that never meet.  An EFunction's sum is summed one class
at a time (`_ClassSums`): each class runs the order r/g recurrence of
v_j = c_{c+gj}, whose rows row_{ge}(c - offset + g j) are integer
polynomials in j (`EFunction.residue_classes`), a class whose seeds are
all zero stays zero and is not run at all, and the classes' sums meet in
one division at the end.  J0's sum is thus one scalar recurrence over
every other index instead of a 2x2 matrix recurrence over all of them;
a recurrence of stride 1 is the one-class case of the same code.
The index past the seeds at which a sum stops, because the recurrence
leaves that coefficient free, is found before any class moves, so it is
the same least index a single sum over every m reports.

Each series type gives `numeric` its running partial sums at x, `sums`,
and a majorant M of its terms at x that at least halves past a start,
`majorant`: (C|x|)^n / n! for an EFunction with proven bound C, and the
terms |t_n x^n| themselves, read off the running sum, for a
hypergeometric series.  `numeric._truncation` picks N and the radius.
A function built by `ef_hypergeometric` is summed by `numeric` as the
hypergeometric series in z^k, against its terms.

Closure operations build their operator exactly, so it is proven to
annihilate the result: a rational scale rescales the operator, p f is
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
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebraic import AlgebraicNumber, Precision, DEFAULT_PRECISION, isolate_roots
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


def _compose_linear(coeffs: list[int], a: int, b: int) -> list[int]:
    """Coefficients (ascending) of P(a + b s) for P given by `coeffs`."""
    acc: list[int] = []
    for c in reversed(coeffs):
        acc = [a * x + b * y for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += c
    return acc


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


# steps a leaf of the splitting tree runs one after another.  Bench rounds
# in process (Python 3.11, shared 2-core Xeon, median of 21), blocks of 8,
# 16, 32 and 64 steps: eval at seed 1 59.8, 57.5, 54.5 and 52.7 ms, at
# seed 9 58.1, 51.6, 49.5 and 48.0 ms; falsify at seed 1 72.7, 70.2, 68.9
# and 69.9 ms, at seed 9 80.2, 76.1, 74.1 and 71.0 ms.  exp at 136/7 to
# 4000 digits took 13.4, 13.8, 13.2 and 12.6 ms, and 128 steps timed as 64.
# A leaf step costs less than a merge since each row is evaluated over the
# whole block at once, so longer leaves pay.
_BLOCK = 64

# p = u/v with |u|, v below this is 1/v or more from every integer and its
# float is off by less than 2^-20/v, so float lgamma(p + n) - lgamma(p) is
# within 1e-4 of log |(p)_n| for n up to 10^6, near poles too
_FLOAT_SAFE = 2**32


def _ceil_root(t: int, k: int) -> int:
    """The least n >= 0 with n^k >= t, for k >= 1."""
    if t <= 1:
        return max(t, 0)
    # integer Newton steps fall to floor(t^(1/k)) from any start above it
    r = 1 << -(-t.bit_length() // k)
    while True:
        s = ((k - 1) * r + t // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k >= t else r + 1


class _RecurrenceSum:
    """Exact partial sums S_m = u_0 + ... + u_{m-1} of a recurrent sequence.

    The first terms are given (`terms`, Fractions); past them

        den(t) u_m = row_1(t) u_{m-1} + ... + row_r(t) u_{m-r},
        t = m - offset,

    with `rows` = [den, row_1, ..., row_r] integer coefficient lists
    (ascending).  The state at index m is (u_{m-r}, ..., u_{m-1}, S_m)
    held as integers over one common denominator, terms before index 0
    being 0.  advance() moves it on by one binary-splitting product, so
    successive calls continue the sum and never restart it.  term() reads
    the terms themselves, appending each new one to `terms`.
    """

    def __init__(self, terms: list[Fraction], rows: list[list[int]],
                 offset: int, name: str):
        self._terms = terms
        self._rows = rows
        self._offset = offset
        self.name = name
        self.m = 0
        self._v = [0] * (len(rows) - 1)
        self._s = 0
        self._den = 1

    def advance(self, hi: int):
        """Move the state to index hi (no-op when hi <= m)."""
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
        """u_m as (numerator, denominator), m past the given terms."""
        last, q = self._step(self.m)
        return _dot(last, self._v), q * self._den

    def term(self, n: int) -> Fraction:
        """u_n, for a sum that is only read through this method: each
        missing term is read off the state and appended to the given
        terms, which the state then takes in as it does the seeds."""
        terms = self._terms
        while len(terms) <= n:
            self.advance(len(terms))
            num, den = self.next_term()
            terms.append(Fraction(num, den))
        return terms[n]

    def _push(self, u: Fraction):
        den = math.lcm(self._den, u.denominator)
        k = den // self._den
        w = u.numerator * (den // u.denominator)
        self._v = ([x * k for x in self._v] + [w])[1:]
        self._s = self._s * k + w
        self._den = den
        self.m += 1

    def _step(self, m: int) -> tuple[list[int], int]:
        """Index m's step as (last, q): u_m = last.(u_{m-r}, ..., u_{m-1}) / q,
        so row_d sits in column r - d."""
        t = m - self._offset
        q = _horner(self._rows[0], t) if t >= 0 else 0
        if q == 0:
            raise _undetermined(m, self.name)
        return [_horner(row, t) for row in reversed(self._rows[1:])], q

    def _steps(self, lo: int, hi: int) -> tuple[list[list[int]], list[int]]:
        """The steps of [lo, hi), as _step gives them one at a time, as
        lists over the block ([row_1, ..., row_r], den): each polynomial's
        values at t = m - offset for m in [lo, hi).  Raises at the least m
        whose den value is 0 (or t < 0)."""
        t = lo - self._offset
        if t < 0:
            raise _undetermined(lo, self.name)
        ts = range(t, t + hi - lo)
        dens = _horner_all(self._rows[0], ts)
        if 0 in dens:
            raise _undetermined(lo + dens.index(0), self.name)
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
        over the whole block.  At order 1 a step is a <- p a, b <- a + q b,
        den <- q den, on plain integers.  Otherwise it is a companion
        matrix: it shifts the rows of A up, scaled by its q, and appends
        the new row last.A, which is also what it adds to q b."""
        rows, dens = self._steps(lo, hi)
        if len(rows) == 1:
            a, b, den = 1, 0, 1
            for p, q in zip(rows[0], dens):
                a *= p
                b = a + q * b
                den *= q
            return [[a]], [b], den
        r = len(rows)
        a = [[int(i == j) for j in range(r)] for i in range(r)]
        b = [0] * r
        den = 1
        # last = (row_r, ..., row_1) at each step, for (u_{m-r}, ..., u_{m-1})
        lasts = list(zip(*reversed(rows))) or [()] * len(dens)
        for last, q in zip(lasts, dens):
            new = [_dot(last, col) for col in zip(*a)]
            if r:
                a = [[q * x for x in row] for row in a[1:]] + [new]
            b = [x + q * y for x, y in zip(new, b)]
            den *= q
        return a, b, den


class _ClassSums:
    """Exact partial sums of sum c_m x^m for an EFunction f, one
    `_RecurrenceSum` per residue class c mod f's stride g that is not
    zero (`EFunction.residue_classes`), each over the terms c_{c+gj} x^{c+gj}.

    advance(n) counts original indices m, as a single sum over every m
    would, and raises at the least index that sum would stop at, also in
    a class that is not run.  value() is the one division of all classes.
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

    def value(self) -> Fraction:
        num, den = 0, 1
        for _, sums in self._sums:
            num, den = num * sums._den + sums._s * den, den * sums._den
        return Fraction(num, den)


class EFunction:
    """Solution of an ODE with polynomial coefficients, given by series data.

    initial_coeffs are a_0, a_1, ... (at least as many as the operator
    order; more when the recurrence has degenerate indices), checked here
    against every recurrence row they determine.  `rows` is the integer
    recurrence [den, row_1, ..., row_r] of the Taylor coefficients
    c_n = a_n / n!, with offset `recurrence.max_shift` (module docstring).

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
    ):
        self.name = name
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

    @functools.cached_property
    def annihilator(self) -> DiffOperator:
        return hypergeometric_annihilator(self.hypergeometric)

    @functools.cached_property
    def recurrence(self) -> Recurrence:
        return recurrence_from_ode(self.annihilator)

    @functools.cached_property
    def rows(self) -> list[list[int]]:
        """[den, row_1, ..., row_r]: the recurrence's bands P_j with their
        denominators cleared once, den = P_jmax and row_d = -P_{jmax-d}."""
        bands = self.recurrence.bands()
        jmax = self.recurrence.max_shift
        den = math.lcm(*(band.scale.denominator for band in bands.values()))

        def row(j: int, sign: int) -> list[int]:
            band = bands.get(j)
            if band is None:
                return []
            k = sign * band.scale.numerator * (den // band.scale.denominator)
            return [k * c for c in band.prim]

        return [row(jmax, 1)] + [
            row(jmax - d, -1) for d in range(1, jmax - self.recurrence.min_shift + 1)
        ]

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
        offset = self.recurrence.max_shift
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

    @functools.cached_property
    def _stream(self) -> _RecurrenceSum:
        """The terms of the sum at x = 1, extended past the seeds on
        demand; from parameters, the terms t_n of the term ratio's sum."""
        if self.hypergeometric is not None:
            return self.hypergeometric.sums(Fraction(1))
        return _RecurrenceSum(list(self.seeds), self.rows, self.recurrence.max_shift, self.name)

    def coefficient(self, n: int) -> Fraction:
        """a_n, the n-th coefficient of the z^n/n! expansion."""
        c = self.series_coefficient(n)
        # off multiples of k a hypergeometric series is 0: no n! to form
        return c * math.factorial(n) if c else c

    def series_coefficient(self, n: int) -> Fraction:
        """c_n = a_n / n!, the plain Taylor coefficient; from parameters,
        c_{kn} = t_n and zero off multiples of k."""
        if n < 0:
            return Fraction(0)
        params = self.hypergeometric
        if params is None:
            return self._stream.term(n)
        q, r = divmod(n, params.k)
        return self._stream.term(q) if r == 0 else Fraction(0)

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
        t = c - max_shift + g j, an order r/g recurrence.  Its rows are
        those polynomials in s = j - offset, offset the least j with
        t >= 0, so s >= 0 exactly where t >= 0.
        """
        g = self.stride
        jmax = self.recurrence.max_shift
        classes = []
        for c in range(g):
            if not any(self.seeds[c::g]):
                continue
            offset = -((c - jmax) // g)
            base = c - jmax + g * offset
            classes.append((c, [_compose_linear(row, base, g) for row in self.rows[::g]], offset))
        return classes

    @functools.cached_property
    def _root_bound(self) -> int:
        """No integer t >= this is a root of den (Cauchy's bound)."""
        den = self.rows[0]
        if len(den) == 1:
            return 0
        return 2 + max(abs(c) for c in den[:-1]) // abs(den[-1])

    def check_determined(self, lo: int, hi: int):
        """Raise at the least index m in [lo, hi) past the seeds that the
        recurrence leaves free: t = m - max_shift < 0, or den(t) = 0."""
        offset = self.recurrence.max_shift
        for m in range(max(lo, self.seed_count), min(hi, offset + self._root_bound)):
            t = m - offset
            if t < 0 or _horner(self.rows[0], t) == 0:
                raise _undetermined(m, self.name)

    # -- sums at a point ------------------------------------------------------

    def sums(self, x: Fraction) -> _ClassSums:
        """Partial sums of sum c_n x^n: one sum per residue class mod the
        stride g that is not zero, its rows scaled by x^g."""
        g = self.stride
        seeds = [c * x**n for n, c in enumerate(self.seeds)]
        xg = x**g
        return _ClassSums(self, [
            (c, _RecurrenceSum(seeds[c::g], _scaled_rows(rows, xg), offset, self.name))
            for c, rows, offset in self.residue_classes
        ])

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
        # n^k >= 2 K0 |x| holds for integer n^k exactly when it reaches the ceiling
        n1 = max(nstar, _ceil_root(-(-2 * kconst.numerator // kconst.denominator), k))

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

    def validate(self):
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
    params.validate()
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
    params.validate()
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


def _singular_seed_length(op: DiffOperator, ctx: Precision = DEFAULT_PRECISION) -> int:
    """Seeds must reach past every index the recurrence cannot produce.

    Those are the nonnegative integer roots t of the leading band.  Each
    root lies in one certified disc of radius below 1/2, so it is the
    integer nearest the disc's centre, and an exact test settles it.
    """
    rec = recurrence_from_ode(op)
    lead = rec.bands()[rec.max_shift]
    worst = -1
    if lead.degree > 0:
        for disc in isolate_roots(squarefree_part(lead), 2, ctx):
            t = round(disc.re)
            if t >= 0 and lead(Fraction(t)) == 0:
                worst = max(worst, t)
    return max(op.order, worst + rec.max_shift + 1)


def ef_scale(f: EFunction, factor, ctx: Precision = DEFAULT_PRECISION) -> EFunction:
    """g(z) = f(factor * z), factor a rational or a rational AlgebraicNumber.

    The factor rescales the annihilator directly.  An irrational factor
    raises UnsupportedOperationError: the coefficients would leave Q.
    """
    if isinstance(factor, AlgebraicNumber):
        factor = factor.as_rational(ctx)
        if factor is None:
            raise UnsupportedOperationError("irrational scale factors are not supported")
    lam = Fraction(factor)
    if lam == 0:
        raise InputError("scale factor must be nonzero")
    coeffs = _poly_coeff_list(f.annihilator)
    order = len(coeffs) - 1
    new = [coeffs[i].compose_scale(lam) * lam ** (order - i) for i in range(order + 1)]
    op = DiffOperator.from_poly_coeffs(new).primitive_normalized()
    seed_len = _singular_seed_length(op, ctx)
    _check_seed_count(seed_len)
    seeds = [f.coefficient(m) * lam**m for m in range(seed_len)]
    bound = None
    if f.coeff_bound is not None:
        bound = f.coeff_bound * max(Fraction(1), abs(lam))
    return EFunction(
        op,
        seeds,
        name=f"{f.name}({lam}z)" if lam != 1 else f.name,
        coeff_bound=bound,
        values_transcendental=f.values_transcendental,
        psi_singularity_poly=None,
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

    def new_coeff(n: int) -> Fraction:
        total = Fraction(0)
        for j in range(min(n, p.degree) + 1):
            c = p[j]
            if c != 0:
                total += c * Fraction(math.factorial(n), math.factorial(n - j)) * f.coefficient(n - j)
        return total

    seed_len = _singular_seed_length(op)
    _check_seed_count(seed_len)
    seeds = [new_coeff(m) for m in range(seed_len)]
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
    seed_len = _singular_seed_length(op)
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


@dataclass(frozen=True)
class GrowthReport:
    """Numeric growth summary of the coefficient sequence."""

    coeff_growth_estimate: float
    looks_exponential: bool

    @property
    def plausible_e_function(self) -> bool:
        return self.looks_exponential


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


def growth_check(f: EFunction, terms: int = 80) -> GrowthReport:
    """Estimate |a_n|^(1/n) from a prefix.

    Heuristic only: a convergent estimate suggests (never proves) that the
    series satisfies the E-function growth requirements.
    """
    terms = max(8, terms)
    coeffs = f.coefficients(terms)
    best = 0.0
    half = terms // 2
    head_max = 0.0
    tail_max = 0.0
    for n in range(1, terms):
        a = coeffs[n]
        if a != 0:
            root = _abs_root(a, n)
            best = max(best, root)
            if n >= half:
                tail_max = max(tail_max, root)
            else:
                head_max = max(head_max, root)
    # super-exponential growth shows up as the tail estimate still climbing
    # past anything seen in the first half
    looks_exponential = tail_max <= max(4.0, 1.25 * head_max) and best < float("inf")
    return GrowthReport(
        coeff_growth_estimate=best,
        looks_exponential=looks_exponential,
    )
