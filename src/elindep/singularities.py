"""Finite singularity sets of the factorial-removed series, as root sets.

The series g = sum a_n z^n attached to an E-function has positive radius of
convergence and continues along paths avoiding finitely many points. Those
points are always roots of the leading coefficient of an annihilator of g.
For an E-function given by its operator L, that coefficient's nonzero roots
are read off L's top-degree coefficients, whatever its initial values
(André: the finite singularities of the transformed operator lie at the
roots of L's characteristic polynomial at infinity), which gives a
computable superset without transforming L; for the curated function
families the exact set is known in closed form.

A RootSet stores a primitive squarefree integer polynomial not divisible
by z (the origin is always a regular point of g) and remembers whether it
is exact ("closed_form") or only an upper bound ("superset").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import (
    DEFAULT_PRECISION,
    AlgebraicNumber,
    Precision,
    alg_div,
    alg_is_zero,
    is_root_of,
)
from .diffop import DiffOperator
from .efunction import EFunction
from .errors import InputError
from .polynomials import Polynomial, poly_gcd, ratio_poly, squarefree_part

CLOSED_FORM = "closed_form"
SUPERSET = "superset"


@dataclass(frozen=True)
class RootSet:
    """Roots of a squarefree primitive integer polynomial, z stripped."""

    poly: Polynomial
    provenance: str = CLOSED_FORM

    def __post_init__(self):
        if self.provenance not in (CLOSED_FORM, SUPERSET):
            raise InputError(f"unknown provenance '{self.provenance}'")

    @classmethod
    def from_poly(cls, p: Polynomial, provenance: str = CLOSED_FORM) -> "RootSet":
        """Normalize an arbitrary polynomial: squarefree, primitive, z removed."""
        if p.is_zero:
            raise InputError("root set of the zero polynomial is not finite")
        _, stripped = squarefree_part(p).deflate_z()
        return cls(stripped.primitive_int(), provenance=provenance)

    @property
    def is_empty(self) -> bool:
        return self.poly.degree <= 0

    @property
    def is_exact(self) -> bool:
        return self.provenance == CLOSED_FORM

    def to_json(self) -> dict:
        return {
            "poly": self.poly.int_coeffs(),
            # the origin is never in a root set; the key keeps the report's shape
            "includes_zero": False,
            "provenance": self.provenance,
        }


def rootsets_disjoint(a: RootSet, b: RootSet) -> bool:
    """Exact disjointness of the two root sets."""
    return poly_gcd(a.poly, b.poly).degree <= 0


def _singular_poly(op: DiffOperator) -> Polynomial:
    """sum of lc(p_b) z^(B-b) over the b with deg p_b = d, for
    op = sum_b p_b(z) D^b of order B and d = max deg p_b.

    Its nonzero roots are those of the leading coefficient of
    psi_transform(op, seeds), for any seeds. The transform sends each
    monomial c z^k D^b of op to c z^(k+B) D^k z^(k-b) =
    c sum_i C(k,i) ff(k-b,i) z^(2k+B-b-i) D^(k-i) applied to g, whose
    top-order term, i = 0, is c z^(2k+B-b) D^k. So the transformed
    operator M has order d and leading coefficient
    sum_(deg p_b = d) lc(p_b) z^(2d+B-b), whose powers of z are distinct,
    so no term cancels. The seeds enter only the remainder r of M g = r;
    what follows moves no nonzero root: dividing out the power of z that M
    and r share, left-composing with D^(deg r + 1), which keeps the leading
    coefficient, and dividing by the content.
    """
    order = op.order
    top = max(p.degree for p in op.terms.values())
    coeffs = [0] * (order + 1)
    for b, p in op.terms.items():
        if p.degree == top:
            coeffs[order - b] = p.lc
    return Polynomial(coeffs)


def singularity_superset(f: EFunction) -> RootSet:
    """Singular support of the factorial-removed series of f.

    Closed-form when the function carries it; otherwise the roots of the
    leading coefficient of the transformed annihilator, read off the
    annihilator's top-degree coefficients (`_singular_poly`). They contain
    every true singularity but may also contain apparent ones.
    """
    if f.psi_singularity_poly is not None:
        return RootSet.from_poly(f.psi_singularity_poly, provenance=CLOSED_FORM)
    return RootSet.from_poly(_singular_poly(f.annihilator), provenance=SUPERSET)


def hypergeometric_singularities(params) -> RootSet:
    """Exact set for the z-form series: roots of scale * (k z)^k - 1."""
    return RootSet.from_poly(params.singular_poly, provenance=CLOSED_FORM)


def _coerce_point(alpha) -> AlgebraicNumber:
    if isinstance(alpha, AlgebraicNumber):
        return alpha
    return AlgebraicNumber.from_rational(Fraction(alpha))


def ratio_condition(
    set_i: RootSet,
    set_j: RootSet,
    alpha_i,
    alpha_j,
    ctx: Precision = DEFAULT_PRECISION,
) -> bool:
    """True when the scaled sets {r/alpha_i : r in set_i} and
    {s/alpha_j : s in set_j} are disjoint.

    A collision r/alpha_i = s/alpha_j means alpha_i/alpha_j = r/s, so it is
    decided exactly by testing alpha_i/alpha_j against the polynomial whose
    roots are the pairwise ratios; no irrational root set is ever formed.
    That polynomial is `ratio_poly`, with the ratios' multiplicities kept:
    `is_root_of` evaluates a rational quotient exactly and takes the gcd of
    an irrational one's squarefree polynomial with it, and neither needs
    simple roots, so the squarefree part is never computed.
    """
    ai = _coerce_point(alpha_i)
    aj = _coerce_point(alpha_j)
    if alg_is_zero(ai, ctx) or alg_is_zero(aj, ctx):
        raise InputError("ratio condition needs nonzero points")
    if set_i.is_empty or set_j.is_empty:
        return True
    ratios = ratio_poly(set_i.poly, set_j.poly)
    quotient = alg_div(ai, aj, ctx)
    return not is_root_of(quotient, ratios, ctx)
