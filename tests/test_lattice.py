"""Integral LLL against the textbook Fraction algorithm, plus input checks."""

import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elindep.errors import InputError
from elindep.lattice import lll_reduce

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _gso(basis):
    n = len(basis)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar, norms = [], []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                raise InputError("basis rows are linearly dependent")
            mu[i][j] = _dot(basis[i], bstar[j]) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(_dot(v, v))
    return mu, norms


def reference_lll(rows):
    """Textbook LLL, delta 3/4: exact Fraction Gram-Schmidt redone after each swap."""
    basis = [[int(x) for x in row] for row in rows]
    n = len(basis)
    mu, norms = _gso(basis)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            m = mu[k][j]
            q = (2 * m.numerator + m.denominator) // (2 * m.denominator)
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                for jj in range(j):
                    mu[k][jj] -= q * mu[j][jj]
                mu[k][j] -= q
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = _gso(basis)
            k = max(k - 1, 1)
    return basis, min(norms)


def _rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def embedding(values, digits):
    """The falsifier's lattice: identity plus 10^digits-scaled value columns."""
    complex_mode = any(mpmath.im(v) != 0 for v in values)
    rows = []
    with mpmath.workdps(digits + 20):
        scale = mpmath.mpf(10) ** digits
        for i, v in enumerate(values):
            row = [int(i == j) for j in range(len(values))]
            row.append(int(mpmath.nint(scale * mpmath.re(v))))
            if complex_mode:
                row.append(int(mpmath.nint(scale * mpmath.im(v))))
            rows.append(row)
    return rows


def exp_values(count, digits):
    with mpmath.workdps(digits + 20):
        return [mpmath.exp(k) for k in range(1, count + 1)]


@st.composite
def random_lattices(draw):
    n = draw(st.integers(2, 6))
    dim = draw(st.integers(n, n + 2))
    entry = st.integers(-50, 50)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=n, max_size=n))
    return rows


POINT = st.tuples(st.integers(1, 60), st.integers(1, 9))  # p/q


@st.composite
def falsify_lattices(draw):
    digits = draw(st.integers(40, 110))
    complex_mode = draw(st.booleans())
    count = draw(st.integers(2, 4))
    values = [mpmath.mpf(1)]
    with mpmath.workdps(digits + 20):
        for _ in range(count):
            p, q = draw(POINT)
            x = mpmath.mpf(p) / q
            if complex_mode:
                p, q = draw(POINT)
                x = mpmath.mpc(x, mpmath.mpf(p) / q)
            f = draw(st.sampled_from([mpmath.exp, lambda z: mpmath.besselj(0, z)]))
            values.append(f(x))
    return embedding(values, digits)


class TestAgainstReference:
    @PROPERTY
    @given(random_lattices())
    def test_random_lattices(self, rows):
        if _rank(rows) < len(rows):
            with pytest.raises(InputError, match="linearly dependent"):
                lll_reduce(rows)
            return
        assert lll_reduce(rows) == reference_lll(rows)

    # the reference takes about 0.5 s per lattice here
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(falsify_lattices())
    def test_falsify_embeddings(self, rows):
        assert lll_reduce(rows) == reference_lll(rows)

    def test_lovasz_boundary_keeps_order(self):
        # size reduction gives b1 = (-1, 1, 1), ||b1*||^2 = 2 = (3/4 - 1/4) ||b0||^2
        rows = [[2, 0, 0], [1, 1, 1]]
        assert lll_reduce(rows) == reference_lll(rows) == ([[2, 0, 0], [-1, 1, 1]], 2)

    @PROPERTY
    @given(random_lattices())
    def test_floor_below_every_row(self, rows):
        if _rank(rows) < len(rows):
            return
        reduced, min_norm = lll_reduce(rows)
        assert min_norm > 0
        for row in reduced:
            assert min_norm <= sum(x * x for x in row)


class TestInput:
    def test_integral_fractions_accepted(self):
        reduced, min_norm = lll_reduce([[Fraction(4), Fraction(0)], [Fraction(0), 1]])
        assert reduced == [[0, 1], [4, 0]]
        assert min_norm == 1

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, Fraction(-7, 3)])
    def test_non_integral_entry_rejected(self, entry):
        with pytest.raises(InputError, match="lattice entries must be integers"):
            lll_reduce([[entry, 0], [0, 1]])

    def test_dependent_rows_rejected(self):
        with pytest.raises(InputError, match="linearly dependent"):
            lll_reduce([[1, 2, 3], [4, 5, 6], [5, 7, 9]])

    def test_empty_basis_rejected(self):
        with pytest.raises(InputError):
            lll_reduce([])


class TestSpeed:
    @pytest.mark.parametrize("count, digits, budget", [(9, 60, 0.5), (20, 200, 10.0)])
    def test_exp_embedding(self, count, digits, budget):
        # the falsifier's lattice for exp at 1..count: the constant 1 and the values
        rows = embedding([mpmath.mpf(1)] + exp_values(count, digits), digits)
        start = time.perf_counter()
        reduced, min_norm = lll_reduce(rows)
        assert time.perf_counter() - start < budget
        assert min_norm > 0
        assert len(reduced) == count + 1
