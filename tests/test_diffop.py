"""Differential operator algebra and the factorial-removing transform.

The transform oracle used throughout: if f = sum a_n z^n / n! satisfies the
operator, the transformed operator must annihilate g = sum a_n z^n. We check
that literally on series prefixes with op_apply.
"""

import random
from fractions import Fraction

import pytest

from elindep.diffop import (
    DiffOperator,
    MAX_Z_POWER,
    Recurrence,
    _apply_t,
    op_apply,
    op_compose,
    op_from_json,
    op_from_text,
    op_lclm,
    op_to_json,
    op_to_text,
    psi_transform,
    psi_transform_with_remainder,
    recurrence_from_ode,
)
from elindep.errors import InputError, InsufficientTruncationError
from elindep.polynomials import Polynomial, poly_gcd

from support import random_efunction, random_operator, random_polynomial


def exp_op():
    # f' - f = 0
    return DiffOperator.from_poly_coeffs([-1, 1])


def j0_op():
    # z f'' + f' + z f = 0
    return DiffOperator.from_poly_coeffs([[0, 1], [1], [0, 1]])


def si_op():
    # annihilates f with f = sum (-1)^n z^(2n) (2n)! / ((2n+1)! n!^2 ...) --
    # here simply the operator carried by the built-in integral-kernel
    # function; taken from the library to avoid duplicating it.
    from elindep.efunction import ef_sin_integral

    return ef_sin_integral().annihilator


def geometric(n):
    return [Fraction(1)] * n


class TestPolynomialCoefficients:
    def test_shift_and_derivative(self):
        """z^B W h = T z^B h with W = z^2 D + z and T = z^2 D + (1 - B) z."""
        rng = random.Random(3)
        z = Polynomial.x()
        for _ in range(20):
            h = random_polynomial(rng, 5)
            big_b = rng.randint(0, 4)
            w_h = z * z * h.derivative() + z * h
            assert _apply_t(h.shifted(big_b), big_b) == w_h.shifted(big_b)

    def test_rejects_poles(self):
        with pytest.raises(ValueError):
            exp_op().shift_z(-1)
        assert j0_op().shift_z(1).coefficient(2) == Polynomial((0, 0, 1))


class TestOperatorAlgebra:
    def test_order_and_leading(self):
        op = j0_op()
        assert op.order == 2
        assert op.leading_coefficient() == Polynomial((0, 1))

    def test_compose_matches_sequential_apply(self):
        """(L1 L2) f == L1 (L2 f) coefficientwise, on random operators."""
        rng = random.Random(17)
        series = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(40)]
        for _ in range(12):
            l1 = random_operator(rng, max_order=2, max_degree=2)
            l2 = random_operator(rng, max_order=2, max_degree=2)
            comp = op_compose(l1, l2)
            direct = op_apply(comp, series, 12)
            mid = op_apply(l2, series, 30)
            mid_series = [mid[e] for e in range(30)]
            via = op_apply(l1, mid_series, 12)
            for e in range(12):
                assert direct.get(e, 0) == via.get(e, 0)

    def test_compose_order_adds(self):
        op = op_compose(exp_op(), j0_op())
        assert op.order == 3

    def test_scale_and_primitive(self):
        op = exp_op().scale(Fraction(6, 4))
        norm = op.primitive_normalized()
        assert norm == DiffOperator.from_poly_coeffs([-2, 2]).primitive_normalized()


def _normal_form(op):
    """op over its polynomial content, rational content 1, top lc positive."""
    g = Polynomial.zero()
    for p in op.terms.values():
        g = poly_gcd(g, p)
    op = DiffOperator({b: p.exact_div(g) for b, p in op.terms.items()}).primitive_normalized()
    return op.scale(-1) if op.leading_coefficient().lc < 0 else op


class TestLclm:
    def test_left_multiple_is_its_own_lclm(self):
        # LCLM(A, C A) = C A, so the order is ord A + ord C, not their sum
        rng = random.Random(41)
        for _ in range(25):
            a = random_operator(rng, 3, 2)
            c = random_operator(rng, 2, 2)
            ca = op_compose(c, a)
            assert op_lclm(a, ca) == _normal_form(ca)
            assert op_lclm(ca, a) == _normal_form(ca)

    def test_annihilates_both_solutions(self):
        rng = random.Random(42)
        for _ in range(15):
            f, g = random_efunction(rng, 3, 2), random_efunction(rng, 3, 2)
            lclm = op_lclm(f.annihilator, g.annihilator)
            assert lclm == op_lclm(g.annihilator, f.annihilator) == _normal_form(lclm)
            assert max(f.order, g.order) <= lclm.order <= f.order + g.order
            for h in (f, g):
                taylor = [h.series_coefficient(n) for n in range(60)]
                assert not any(op_apply(lclm, taylor, 60 - lclm.order).values())

    def test_exp_and_shifted_exp(self):
        # e^z and e^(2z): L = D^2 - 3D + 2 = (D - 2)(D - 1)
        a = DiffOperator.from_poly_coeffs([-1, 1])
        b = DiffOperator.from_poly_coeffs([-2, 1])
        assert op_lclm(a, b) == DiffOperator.from_poly_coeffs([2, -3, 1])


class TestApply:
    def test_exp_annihilated(self):
        # exp series in ordinary form: f = sum z^n/n!; (D-1)f = 0
        coeffs = [Fraction(1)]
        for n in range(1, 30):
            coeffs.append(coeffs[-1] / n)
        img = op_apply(exp_op(), coeffs, 25)
        assert all(v == 0 for v in img.values())

    def test_insufficient_prefix(self):
        with pytest.raises(InsufficientTruncationError):
            op_apply(exp_op(), [1, 1, 1], 10)


class TestTransform:
    def test_exp_closed_form(self):
        got = psi_transform(exp_op(), [1])
        assert op_to_text(got) == "(1 - z)*∂^1 + (-1)"

    def test_exp_remainder_form(self):
        pair = psi_transform_with_remainder(exp_op(), [1])
        g = geometric(40)
        img = op_apply(pair.operator, g, 20)
        rem = {e: c for e, c in enumerate(pair.remainder.coeffs)}
        for e in range(20):
            assert img.get(e, 0) == rem.get(e, 0)

    def test_transform_annihilates_builtins(self):
        from elindep.efunction import ef_bessel_j0, ef_exp, ef_sin_integral

        for f in (ef_exp(), ef_bessel_j0(), ef_sin_integral()):
            op = psi_transform(f.annihilator, f.coefficients(f.order))
            series = f.coefficients(160)
            img = op_apply(op, series, 60)
            assert all(v == 0 for v in img.values()), f.name

    def test_transform_random_consistency(self):
        rng = random.Random(5)
        from support import random_efunction

        for _ in range(6):
            f = random_efunction(rng, check_terms=60)
            op = psi_transform(f.annihilator, f.coefficients(f.annihilator.order))
            series = f.coefficients(140)
            for keep in (40, 60):
                try:
                    img = op_apply(op, series, keep)
                    break
                except InsufficientTruncationError:
                    continue
            assert all(v == 0 for v in img.values())

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            psi_transform(DiffOperator.zero(), [])
        with pytest.raises(InputError):
            psi_transform(exp_op(), [])  # needs one initial value
        with pytest.raises(InputError):
            op_from_text("(z^-1)*D^1 + (1)")
        pole = {"dorder": 1, "poly": {"zmin": -1, "coeffs": ["1"]}}
        with pytest.raises(InputError):
            op_from_json({"terms": [pole]})

    # reference psi_transform outputs, computed independently through
    # Laurent-polynomial intermediates: (op_to_text, [(dorder, zmin, coeffs)])
    PINNED = {
        "exp": ("(1 - z)*∂^1 + (-1)", [(0, 0, ["-1"]), (1, 0, ["1", "-1"])]),
        "J0": ("(1 + z^2)*∂^1 + (z)", [(0, 1, ["1"]), (1, 0, ["1", "0", "1"])]),
        "Si": ("(1 + z^2)*∂^2 + (2*z)*∂^1", [(1, 1, ["2"]), (2, 0, ["1", "0", "1"])]),
        "F[;1,1]": (
            "(z^3 - 4*z^5)*∂^3 + (3*z^2 - 32*z^4)*∂^2 + (z - 56*z^3)*∂^1 + (-16*z^2)",
            [(0, 2, ["-16"]), (1, 1, ["1", "0", "-56"]), (2, 2, ["3", "0", "-32"]),
             (3, 3, ["1", "0", "-4"])],
        ),
        "F[1/3;1/2,2/5]": (
            "(30*z^3 - 30*z^4)*∂^3 + (57*z^2 - 160*z^3)*∂^2 + (6*z - 150*z^2)*∂^1 + (-10*z)",
            [(0, 1, ["-10"]), (1, 1, ["6", "-150"]), (2, 2, ["57", "-160"]),
             (3, 3, ["30", "-30"])],
        ),
        "exp(3z)": ("(1 - 3*z)*∂^1 + (-3)", [(0, 0, ["-3"]), (1, 0, ["1", "-3"])]),
        "I0": ("(1 - z^2)*∂^1 + (-z)", [(0, 1, ["-1"]), (1, 0, ["1", "0", "-1"])]),
    }

    def test_pinned_outputs(self):
        from elindep.efunction import (
            EFunction,
            ef_bessel_j0,
            ef_exp,
            ef_hypergeometric,
            ef_scale,
            ef_sin_integral,
        )

        functions = {
            "exp": ef_exp(),
            "J0": ef_bessel_j0(),
            "Si": ef_sin_integral(),
            "F[;1,1]": ef_hypergeometric([], [1, 1]),
            "F[1/3;1/2,2/5]": ef_hypergeometric(
                [Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 5)]
            ),
            "exp(3z)": ef_scale(ef_exp(), 3),
            "I0": EFunction(op_from_text("(z)*D^2 + (1)*D^1 + (-z)"), [1, 0]),
        }
        for name, f in functions.items():
            op = psi_transform(f.annihilator, f.coefficients(f.order))
            text, terms = self.PINNED[name]
            assert op_to_text(op) == text, name
            assert op_to_json(op) == {
                "terms": [
                    {"dorder": b, "poly": {"zmin": zmin, "coeffs": coeffs}}
                    for b, zmin, coeffs in terms
                ]
            }, name


class TestRecurrence:
    def test_exp_recurrence(self):
        rec = recurrence_from_ode(exp_op())
        # (t+1) c_{t+1} - c_t = 0
        bands = rec.bands()
        assert set(bands) == {0, 1}
        assert bands[1] == Polynomial((1, 1))
        assert bands[0] == Polynomial((-1,))

    def test_j0_recurrence_reproduces_series(self):
        rec = recurrence_from_ode(j0_op())
        bands = rec.bands()
        lo, hi = rec.min_shift, rec.max_shift
        c = {0: Fraction(1)}
        for t in range(0, 40):
            # solve for c_{t+hi} from lower terms
            lead = bands[hi](Fraction(t))
            if lead == 0:
                continue
            acc = Fraction(0)
            for j in range(lo, hi):
                if j in bands:
                    acc += bands[j](Fraction(t)) * c.get(t + j, Fraction(0))
            c[t + hi] = -acc / lead
        from elindep.efunction import ef_bessel_j0

        import math

        # library coefficients carry the n! normalization
        want = ef_bessel_j0().coefficients(30)
        got = [c.get(n, Fraction(0)) * math.factorial(n) for n in range(30)]
        assert got == list(want)


class TestSerialization:
    def test_json_round_trip(self):
        rng = random.Random(77)
        for _ in range(10):
            op = random_operator(rng, max_order=3, max_degree=3)
            assert op_from_json(op_to_json(op)) == op

    def test_text_round_trip(self):
        for op in (exp_op(), j0_op(), si_op()):
            assert op_from_text(op_to_text(op)) == op

    def test_text_accepts_plain_d(self):
        assert op_from_text("(1 - z)*D^1 + (-1)") == op_from_text("(1 - z)*∂^1 + (-1)")

    def test_power_bound(self):
        top = f"(z^{MAX_Z_POWER})*D^1 + (1)"
        assert op_from_text(top).leading_coefficient().degree == MAX_Z_POWER
        for text in (f"(1)*D^1 + (-z^{MAX_Z_POWER + 1})", "(1)*D^1 + (-z^100000000)",
                     "(1)*D^1 + (z^" + "9" * 5000 + ")"):
            with pytest.raises(InputError):
                op_from_text(text)
        for zmin, coeffs in ((MAX_Z_POWER + 1, ["1"]), (MAX_Z_POWER, ["1", "1"]),
                             ("many", ["1"])):
            term = {"dorder": 1, "poly": {"zmin": zmin, "coeffs": coeffs}}
            with pytest.raises(InputError):
                op_from_json({"terms": [term]})

    def test_text_rejects_garbage(self):
        with pytest.raises(InputError):
            op_from_text("(1 - z)*∂^1 + nonsense +")
