"""Exact integral LLL reduction (de Weger 1987; Cohen, GTM 138, Alg. 2.6.7).

The Gram-Schmidt data is kept as integers: d[i] = prod_{j<i} ||b_j*||^2,
the Gram determinant of the first i rows (d[0] = 1), and lam[i][j] =
d[j+1] mu_ij.  Size reduction and swaps update them in O(n) integer
operations each (every division is exact); nothing is recomputed.

The decisions are the textbook ones with Lovasz parameter 3/4: row k is
size-reduced for j = k-1 down to 0 with mu_kj rounded to nearest (ties
toward +infinity), and ||b_k*||^2 >= (3/4 - mu^2) ||b_{k-1}*||^2, times
4 d[k] d[k-1] > 0, reads 4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2.
So the reduced basis is exactly that of Fraction LLL, and so is the
returned min_i ||b_i*||^2 = min d[i+1]/d[i] (a Fraction): the proven floor
on every nonzero lattice vector's squared norm that exclusion rests on.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def _integer(x) -> int:
    n = int(x)
    if n != x:
        raise InputError("lattice entries must be integers")
    return n


def lll_reduce(rows):
    """Reduce integer basis rows; returns (reduced_rows, min ||b_i*||^2).

    The second value is a proven lower bound on the squared norm of every
    nonzero vector of the lattice spanned by the rows.
    """
    b = [[_integer(x) for x in row] for row in rows]
    n = len(b)
    if n == 0:
        raise InputError("empty basis")
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for m in range(j):
                u = (d[m + 1] * u - lam[i][m] * lam[j][m]) // d[m]
            lam[i][j] = u
        d[i + 1] = lam[i][i]
        if d[i + 1] == 0:
            raise InputError("basis rows are linearly dependent")
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for m in range(j):
                    lam[k][m] -= q * lam[j][m]
                lam[k][j] -= q * d[j + 1]
        t = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * t * t:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        for m in range(k - 1):
            lam[k - 1][m], lam[k][m] = lam[k][m], lam[k - 1][m]
        dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            u = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * u) // d[k]
            lam[i][k - 1] = (dk * u + t * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b, min(Fraction(d[i + 1], d[i]) for i in range(n))
