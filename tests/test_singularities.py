"""Root-set computation for the factorial-removed series and ratio tests."""

import random
from fractions import Fraction

import pytest

from elindep.algebraic import (
    AlgebraicNumber,
    alg_div,
    alg_nth_root,
    canonical_root,
    is_root_of,
    isolate_roots,
)
from elindep.efunction import (
    EFunction,
    HypergeometricParams,
    ef_bessel_j0,
    ef_exp,
    ef_hypergeometric,
    ef_scale,
    ef_sin_integral,
)
from elindep.errors import InputError
from elindep.polynomials import Polynomial, ratio_poly, ratio_set_poly, squarefree_part
from elindep.singularities import (
    SUPERSET,
    RootSet,
    hypergeometric_singularities,
    ratio_condition,
    rootsets_disjoint,
    singularity_superset,
)


def P(*coeffs):
    return Polynomial(coeffs)


class TestRootSet:
    def test_normalization(self):
        # z^2 (z-1)^2 (2z-4) -> squarefree, primitive, z stripped
        p = P(0, 0, 1) * P(1, -1) ** 2 * P(-4, 2)
        rs = RootSet.from_poly(p)
        assert rs.poly == P(2, -3, 1) or rs.poly == P(-2, 3, -1)

    def test_empty(self):
        rs = RootSet.from_poly(P(5))
        assert rs.is_empty
        with pytest.raises(InputError):
            RootSet.from_poly(Polynomial.zero())

    def test_json_round_trip(self):
        rs = RootSet.from_poly(P(0, -2, 1), provenance=SUPERSET)
        obj = rs.to_json()
        assert obj == {"poly": [-2, 1], "includes_zero": False, "provenance": SUPERSET}
        assert RootSet.from_poly(Polynomial(obj["poly"]), obj["provenance"]) == rs


class TestDisjointness:
    def test_shared_root_detected(self):
        a = RootSet.from_poly(P(-1, 1) * P(-2, 1))  # {1, 2}
        b = RootSet.from_poly(P(-2, 1) * P(-5, 1))  # {2, 5}
        assert not rootsets_disjoint(a, b)

    def test_disjoint(self):
        a = RootSet.from_poly(P(-1, 1))
        b = RootSet.from_poly(P(-2, 1))
        assert rootsets_disjoint(a, b)

    def test_irrational_shared_root(self):
        a = RootSet.from_poly(P(-2, 0, 1))  # +-sqrt2
        b = RootSet.from_poly(P(-2, 0, 1) * P(-7, 1))
        assert not rootsets_disjoint(a, b)


class TestClosedForms:
    def test_exp(self):
        rs = singularity_superset(ef_exp())
        assert rs.is_exact
        assert rs.poly.monic() == P(-1, 1)  # the single point 1

    def test_bessel(self):
        rs = singularity_superset(ef_bessel_j0())
        assert rs.is_exact
        # transformed series is 1/sqrt(1+z^2): singular at +-i
        assert rs.poly.primitive_int() in (P(1, 0, 1), P(-1, 0, -1))

    def test_sin_integral(self):
        rs = singularity_superset(ef_sin_integral())
        assert rs.is_exact
        # transformed series is arctan(z): branch points at +-i
        assert rs.poly.primitive_int() in (P(1, 0, 1), P(-1, 0, -1))

    def test_scaled_exp(self):
        f = ef_scale(ef_exp(), Fraction(3, 2))
        rs = singularity_superset(f)
        # exp(3z/2): singular point of the transformed series at 2/3
        assert rs.poly.monic() == P(Fraction(-2, 3), 1)


class TestSuperset:
    def test_rebuilt_exp_gives_superset_containing_true_point(self):
        # same ODE as exp but declared without the closed form
        f = EFunction(ef_exp().annihilator, [1], name="e2", coeff_bound=1)
        rs = singularity_superset(f)
        assert rs.provenance == SUPERSET
        # true singular point 1 must divide the superset polynomial
        from elindep.polynomials import poly_gcd

        assert poly_gcd(rs.poly, P(-1, 1)).degree == 1

    def test_superset_cached(self):
        f = EFunction(ef_exp().annihilator, [1], name="e3", coeff_bound=1)
        assert singularity_superset(f) is singularity_superset(f)


class TestHypergeometricLocus:
    def test_k1(self):
        params = HypergeometricParams((), (Fraction(1),), Fraction(1))
        rs = hypergeometric_singularities(params)
        assert rs.poly.monic() == P(-1, 1)

    def test_k2_bessel(self):
        params = HypergeometricParams((), (Fraction(1), Fraction(1)), Fraction(-1, 4))
        rs = hypergeometric_singularities(params)
        # -1/4 * (2z)^2 - 1 = -(z^2+1): singular points +-i
        assert rs.poly.primitive_int() in (P(1, 0, 1), P(-1, 0, -1))

    def test_matches_efunction_route(self):
        # the closed form carried by the constructed function agrees
        for up, low, sc in (
            ([], [1], 1),
            ([], [1, 1], Fraction(-1, 4)),
            ([Fraction(1, 2)], [Fraction(1, 3), 1, 1], 2),
        ):
            f = ef_hypergeometric(up, low, sc)
            params = HypergeometricParams(
                tuple(Fraction(a) for a in up),
                tuple(Fraction(b) for b in low),
                Fraction(sc),
            )
            a = singularity_superset(f)
            b = hypergeometric_singularities(params)
            assert a.poly.monic() == b.poly.monic()

    def test_scale_moves_roots(self):
        params = HypergeometricParams((), (Fraction(1),), Fraction(5))
        rs = hypergeometric_singularities(params)
        # 5z - 1
        assert rs.poly.monic() == P(Fraction(-1, 5), 1)


class TestRatioCondition:
    def test_same_function_same_point_collides(self):
        rs = RootSet.from_poly(P(-1, 1))
        assert not ratio_condition(rs, rs, 1, 1)

    def test_exp_at_distinct_rationals(self):
        rs = RootSet.from_poly(P(-1, 1))
        assert ratio_condition(rs, rs, 1, 2)
        assert ratio_condition(rs, rs, Fraction(2, 3), Fraction(-2, 3))

    def test_symmetry(self):
        rng = random.Random(13)
        for _ in range(20):
            pa = P(rng.randrange(-5, 0), 1) * P(rng.randrange(1, 6), 1)
            pb = P(rng.randrange(-5, 0), 1)
            a, b = RootSet.from_poly(pa), RootSet.from_poly(pb)
            x = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            y = -Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            assert ratio_condition(a, b, x, y) == ratio_condition(b, a, y, x)

    def test_collision_witness(self):
        # sets {1} and {2} at points 1 and 2: 1/1 == 2/2 collides
        a = RootSet.from_poly(P(-1, 1))
        b = RootSet.from_poly(P(-2, 1))
        assert not ratio_condition(a, b, 1, 2)
        assert ratio_condition(a, b, 1, 3)

    def test_irrational_point(self):
        rs = RootSet.from_poly(P(-1, 1))
        s = alg_nth_root(2, 2)
        # 1/1 vs 1/sqrt2 differ
        assert ratio_condition(rs, rs, AlgebraicNumber.from_rational(1), s)
        # sqrt2 vs sqrt2 collide
        assert not ratio_condition(rs, rs, s, s)

    def test_irrational_collision_cross(self):
        # sets {1} and {sqrt 2 roots}: at points 1 and sqrt2, the scaled
        # sets share 1 = sqrt2/sqrt2
        a = RootSet.from_poly(P(-1, 1))
        b = RootSet.from_poly(P(-2, 0, 1))
        s = alg_nth_root(2, 2)
        assert not ratio_condition(a, b, 1, s)

    def test_zero_point_rejected(self):
        rs = RootSet.from_poly(P(-1, 1))
        with pytest.raises(InputError):
            ratio_condition(rs, rs, 0, 1)

    def test_empty_set_always_disjoint(self):
        empty = RootSet.from_poly(P(1))
        rs = RootSet.from_poly(P(-1, 1))
        assert ratio_condition(empty, rs, 5, 5)
        assert ratio_condition(empty, empty, 1, 1)

    def test_root_of_unity_points(self):
        # k=2 hypergeometric sets at points i and -i: quotient -1 hits the
        # ratio -1 of the symmetric set {i/2, -i/2}
        rs = RootSet.from_poly(P(1, 0, 4))
        i_pt = canonical_root(P(1, 0, 1))
        minus_i = alg_nth_root(-1, 2)  # principal sqrt of -1 is i as well
        assert not ratio_condition(rs, rs, i_pt, i_pt)


def squarefree_ratio_condition(set_i, set_j, ai, aj):
    """The verdict by the squarefree ratio polynomial, the form
    `ratio_condition` took before it kept the ratios' multiplicities."""
    if set_i.is_empty or set_j.is_empty:
        return True
    ai, aj = (
        x if isinstance(x, AlgebraicNumber) else AlgebraicNumber.from_rational(x)
        for x in (ai, aj)
    )
    return not is_root_of(alg_div(ai, aj), ratio_set_poly(set_i.poly, set_j.poly))


def random_factor(rng):
    """A squarefree integer polynomial of degree 1 or 2 with p(0) != 0."""
    while True:
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 6)]
        coeffs += [rng.randint(-6, 6) for _ in range(rng.randint(0, 1))]
        coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 4))
        f = RootSet.from_poly(P(*coeffs)).poly
        if f.degree == len(coeffs) - 1:
            return f


def scaled_root(factor, t, index):
    """t times a root of factor: rational points exactly, the others as an
    isolating disc of factor(z/t)."""
    if factor.degree == 1:
        return AlgebraicNumber.from_rational(-t * factor[0] / factor[1])
    poly = factor.compose_scale(1 / t).primitive_int()
    balls = isolate_roots(poly)
    return AlgebraicNumber(poly, balls[index % len(balls)])


class TestRatioConditionAgainstSquarefree:
    """`ratio_condition` on the ratio polynomial with multiplicities gives
    the verdict of the squarefree one, for sets that are equal, share a
    factor or are empty, at points built to collide and at other points."""

    def test_random_sets_and_points(self):
        rng = random.Random(2026)
        collisions = disjoint = 0
        for trial in range(40):
            fi = [random_factor(rng) for _ in range(rng.randint(1, 2))]
            shape = trial % 4
            if shape == 0:  # the same set twice
                fj = list(fi)
            elif shape == 1:  # a shared factor
                fj = [fi[0], random_factor(rng)]
            elif shape == 2:  # unrelated sets
                fj = [random_factor(rng)]
            else:  # an empty set on one side
                fj = []
            prod_i = Polynomial.one()
            for f in fi:
                prod_i = prod_i * f
            prod_j = Polynomial.constant(rng.randint(1, 5))
            for f in fj:
                prod_j = prod_j * f
            set_i, set_j = RootSet.from_poly(prod_i), RootSet.from_poly(prod_j)
            if not set_j.is_empty:
                full = ratio_poly(set_i.poly, set_j.poly)
                assert squarefree_part(full) == ratio_set_poly(set_i.poly, set_j.poly)

            t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))
            ri, si = rng.choice(fi), rng.randrange(2)
            if fj:
                rj, sj = rng.choice(fj), rng.randrange(2)
                # t r / (t s) = r / s: a collision by construction
                ai, aj = scaled_root(ri, t, si), scaled_root(rj, t, sj)
                assert not ratio_condition(set_i, set_j, ai, aj)
                assert not squarefree_ratio_condition(set_i, set_j, ai, aj)
                collisions += 1
                u = t + Fraction(rng.randint(1, 5), rng.randint(2, 3))
                pairs = [(scaled_root(ri, t, si), scaled_root(rj, u, sj))]
            else:
                pairs = [(scaled_root(ri, t, si), t)]
            pairs.append((t, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
            pairs.append((scaled_root(ri, t, si), scaled_root(ri, -t, si)))
            for ai, aj in pairs:
                verdict = ratio_condition(set_i, set_j, ai, aj)
                assert verdict == squarefree_ratio_condition(set_i, set_j, ai, aj)
                disjoint += verdict
        assert collisions == 30 and disjoint > 20

    def test_constant_sets(self):
        one, rs = RootSet.from_poly(P(7)), RootSet.from_poly(P(-2, 0, 1))
        s = alg_nth_root(2, 2)
        for a, b in ((one, rs), (rs, one), (one, one)):
            assert ratio_condition(a, b, s, 1)
            assert squarefree_ratio_condition(a, b, s, 1)
