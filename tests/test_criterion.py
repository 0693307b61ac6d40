"""Certificates for linear independence of E-function values.

Frozen verdicts for the worked examples plus structural properties:
permutation invariance, monotonicity under dropping a pair, the
single-function/multi-point equivalence, and the caveat discharge rules.
"""

import random
import re
from fractions import Fraction

import pytest

from elindep import criterion
from elindep.algebraic import AlgebraicNumber, alg_nth_root
from elindep.criterion import (
    CAVEAT,
    CERTIFIED,
    FAILED,
    INCONCLUSIVE,
    SATISFIED,
    SKIPPED,
    certify_hypergeometric,
    certify_main,
    certify_multi,
    certify_si_integrals,
    certify_single,
)
from elindep.efunction import (
    EFunction,
    HypergeometricParams,
    ef_bessel_j0,
    ef_exp,
    ef_lagrange_combo,
    ef_sin_integral,
)
from elindep.errors import InputError, InternalCheckError
from elindep.polynomials import Polynomial


def HP(upper, lower, scale=1):
    return HypergeometricParams(
        tuple(Fraction(a) for a in upper),
        tuple(Fraction(b) for b in lower),
        Fraction(scale),
    )


class TestMain:
    def test_exp_at_one(self):
        cert = certify_main([ef_exp()], 1)
        assert cert.verdict == CERTIFIED
        assert cert.caveat == CAVEAT
        assert cert.caveat_discharged
        assert cert.conditional_on == []
        assert all(h.outcome == SATISFIED for h in cert.hypotheses)

    def test_exp_and_bessel_at_one(self):
        cert = certify_main([ef_exp(), ef_bessel_j0()], 1)
        assert cert.verdict == CERTIFIED
        anchors = {h.anchor for h in cert.hypotheses}
        assert "nonzero-point" in anchors
        assert "disjoint-singularity-sets" in anchors

    def test_three_builtins(self):
        cert = certify_main([ef_exp(), ef_bessel_j0(), ef_sin_integral()], 2)
        # exp set {1} vs J0 {i,-i} vs Si {i,-i}: the last pair collides
        assert cert.verdict == INCONCLUSIVE
        failed = [h for h in cert.hypotheses if h.outcome == FAILED]
        assert len(failed) == 1
        assert failed[0].anchor == "disjoint-singularity-sets"

    def test_zero_point(self):
        cert = certify_main([ef_exp()], 0)
        assert cert.verdict == INCONCLUSIVE
        assert any(h.anchor == "nonzero-point" and h.outcome == FAILED
                   for h in cert.hypotheses)
        assert any("values at 0 are algebraic" in n for n in cert.notes)
        # inconclusive certificates carry no conditional claim
        assert cert.conditional_on == []
        assert not cert.caveat_discharged

    def test_same_function_twice_collides(self):
        cert = certify_main([ef_exp(), ef_exp()], 1)
        assert cert.verdict == INCONCLUSIVE

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            certify_main([], 1)

    def test_one_point_document(self):
        doc = certify_main([ef_bessel_j0(), ef_sin_integral()], 2).to_json()
        assert doc["hypotheses"] == [
            {
                "description": "evaluation point is nonzero",
                "anchor": "nonzero-point",
                "outcome": "satisfied",
                "witness": {"point": "2"},
            },
            {
                "description": "singularity sets of J0 and Si are disjoint",
                "anchor": "disjoint-singularity-sets",
                "outcome": "failed",
                "witness": {
                    "pair": [0, 1],
                    "set_i": "roots([1,0,1]) (closed_form)",
                    "set_j": "roots([1,0,1]) (closed_form)",
                },
            },
        ]
        assert doc["inputs"] == {"functions": ["J0", "Si"], "points": ["2"]}
        assert doc["notes"] == []
        zero = certify_main([ef_exp()], 0).to_json()
        assert zero["hypotheses"] == [
            {
                "description": "evaluation point is nonzero",
                "anchor": "nonzero-point",
                "outcome": "failed",
                "witness": {"point": "0"},
            }
        ]
        assert zero["notes"] == ["values at 0 are algebraic"]

    def test_equal_points_give_the_one_point_form(self):
        funcs = [ef_exp(), ef_bessel_j0(), ef_sin_integral()]
        shared = certify_main(funcs, Fraction(3, 2)).to_json()
        equal = [Fraction(3, 2), Fraction(6, 4), Fraction(3, 2)]
        assert certify_multi(funcs, equal).to_json() == shared
        root2 = alg_nth_root(2, 2)
        assert (
            certify_multi(funcs[:2], [root2, alg_nth_root(2, 2)]).to_json()
            == certify_main(funcs[:2], root2).to_json()
        )

    def test_shared_point_needs_no_ratio_sets(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ratio test at a shared point")

        monkeypatch.setattr(criterion, "ratio_condition", refuse)
        assert certify_main([ef_exp(), ef_bessel_j0()], 1).verdict == CERTIFIED
        assert certify_multi([ef_exp(), ef_bessel_j0()], [3, 3]).verdict == CERTIFIED


class TestMulti:
    def test_exp_three_points(self):
        cert = certify_single(ef_exp(), [1, 2, Fraction(1, 2)])
        assert cert.verdict == CERTIFIED
        assert cert.caveat_discharged

    def test_bessel_even_symmetry_blocks(self):
        # J0(2) = J0(-2) exactly, and the ratio test sees the collision
        cert = certify_single(ef_bessel_j0(), [2, -2])
        assert cert.verdict == INCONCLUSIVE
        failed = [h for h in cert.hypotheses if h.outcome == FAILED]
        assert failed and failed[0].anchor == "ratio-condition"

    def test_bessel_distinct_moduli(self):
        cert = certify_single(ef_bessel_j0(), [2, 3])
        assert cert.verdict == CERTIFIED

    def test_mixed_functions_points(self):
        cert = certify_multi([ef_exp(), ef_bessel_j0()], [3, 3])
        assert cert.verdict == CERTIFIED

    def test_zero_point_skips_pairs(self):
        cert = certify_multi([ef_exp(), ef_exp()], [0, 1])
        assert cert.verdict == INCONCLUSIVE
        outcomes = {h.anchor: h.outcome for h in cert.hypotheses}
        assert any(h.outcome == FAILED and h.anchor == "nonzero-point"
                   for h in cert.hypotheses)
        assert any(h.outcome == SKIPPED and h.anchor == "ratio-condition"
                   for h in cert.hypotheses)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            certify_multi([ef_exp()], [1, 2])

    def test_permutation_invariance(self):
        rng = random.Random(3)
        funcs = [ef_exp(), ef_bessel_j0(), ef_exp()]
        pts = [1, 2, 3]
        base = certify_multi(funcs, pts)
        for _ in range(4):
            order = list(range(3))
            rng.shuffle(order)
            cert = certify_multi([funcs[i] for i in order], [pts[i] for i in order])
            assert cert.verdict == base.verdict

    def test_monotone_under_removal(self):
        funcs = [ef_exp(), ef_bessel_j0(), ef_sin_integral()]
        pts = [Fraction(1, 2), 5, 7]
        full = certify_multi(funcs, pts)
        if full.verdict == CERTIFIED:
            for drop in range(3):
                sub = certify_multi(
                    [f for i, f in enumerate(funcs) if i != drop],
                    [p for i, p in enumerate(pts) if i != drop],
                )
                assert sub.verdict == CERTIFIED

    def test_single_equals_multi(self):
        rng = random.Random(41)
        for _ in range(6):
            pts = list({Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                        for _ in range(3)})
            if not pts:
                continue
            a = certify_single(ef_exp(), pts)
            b = certify_multi([ef_exp()] * len(pts), pts)
            assert a.verdict == b.verdict


class TestSupersetCaution:
    def test_apparent_singularity_never_certifies(self):
        g = ef_lagrange_combo(ef_exp(), [1, 2])
        cert = certify_multi([g, g], [1, 2])
        assert cert.verdict == INCONCLUSIVE
        assert any("superset" in n for n in cert.notes)

    def test_superset_disjoint_still_certifies(self):
        # rebuilt exp (superset provenance) against J0 far away
        e2 = EFunction(ef_exp().annihilator, [1], name="e2", coeff_bound=1,
                       values_transcendental=True)
        cert = certify_main([e2, ef_bessel_j0()], 1)
        assert cert.verdict == CERTIFIED


class TestHypergeometric:
    def test_mixed_powers_generic(self):
        cert = certify_hypergeometric(
            [HP([], [1]), HP([], [1, 1])],
            [Fraction(1, 2), 1],
        )
        assert cert.verdict == CERTIFIED
        assert not cert.caveat_discharged
        assert cert.conditional_on == [CAVEAT]
        anchors = {h.anchor for h in cert.hypotheses}
        assert "power-ratio-condition" in anchors

    def test_mixed_powers_boundary_value(self):
        # alpha_1^2 / alpha_2 exactly hits the excluded value 4
        cert = certify_hypergeometric(
            [HP([], [1]), HP([], [1, 1])],
            [2, 1],
        )
        assert cert.verdict == INCONCLUSIVE
        failed = [h for h in cert.hypotheses if h.outcome == FAILED]
        assert failed and failed[0].anchor == "power-ratio-condition"

    def test_equal_powers_distinct_points(self):
        cert = certify_hypergeometric(
            [HP([], [1, 1]), HP([], [1, 1])],
            [1, 3],
        )
        assert cert.verdict == CERTIFIED
        anchors = {h.anchor for h in cert.hypotheses}
        assert anchors == {"nonzero-point", "equal-power-distinct-points"}

    def test_equal_powers_equal_points(self):
        cert = certify_hypergeometric(
            [HP([], [1, 1]), HP([], [1, 1])],
            [3, 3],
        )
        assert cert.verdict == INCONCLUSIVE

    def test_scale_shifts_collision(self):
        # same k, scales 1 and 2: points p and p/2 give equal scaled points
        a = HP([], [1])
        b = HP([], [1], 2)
        cert = certify_hypergeometric([a, b], [1, Fraction(1, 2)])
        assert cert.verdict == INCONCLUSIVE
        cert2 = certify_hypergeometric([a, b], [1, 1])
        assert cert2.verdict == CERTIFIED

    def test_zero_point_inconclusive(self):
        cert = certify_hypergeometric([HP([], [1]), HP([], [1, 1])], [0, 1])
        assert cert.verdict == INCONCLUSIVE
        assert any("already in the list" in n for n in cert.notes)

    def test_equal_k_all_distinct_certifies(self):
        rng = random.Random(9)
        for _ in range(5):
            pts = []
            while len(pts) < 3:
                q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                if q != 0 and q not in pts:
                    pts.append(q)
            cert = certify_hypergeometric([HP([], [1, 1])] * 3, pts)
            assert cert.verdict == CERTIFIED

    def test_irrational_point(self):
        from elindep.algebraic import alg_nth_root

        s = alg_nth_root(2, 2)
        cert = certify_hypergeometric(
            [HP([], [1, 1]), HP([], [1, 1])],
            [s, 1],
        )
        assert cert.verdict == CERTIFIED

    @pytest.mark.parametrize(
        "params, points, message",
        [
            # equal powers, scaled points coincide: the pair fails
            (
                [HP([], [1, 1]), HP([], [1, 1])],
                [3, 3],
                "equal-power distinctness and the singularity-ratio route disagree",
            ),
            # coprime powers 1 and 2 at the collision value 2^2/1 = 4
            (
                [HP([], [1]), HP([], [1, 1])],
                [2, 1],
                "coprime-power condition and the singularity-ratio route disagree",
            ),
            # a passing pair
            (
                [HP([], [1, 1]), HP([], [1, 1])],
                [1, 3],
                "arithmetic test passed but the singularity-ratio route found "
                "a collision",
            ),
        ],
    )
    def test_cross_check_catches_a_wrong_route(
        self, monkeypatch, params, points, message
    ):
        real = criterion.ratio_condition
        monkeypatch.setattr(
            criterion, "ratio_condition", lambda *args: not real(*args)
        )
        with pytest.raises(InternalCheckError, match=re.escape(f"pair (0,1): {message}")):
            certify_hypergeometric(params, points)

    @staticmethod
    def _power_document(point_1, actual):
        functions = ["F[;1]@1", "F[;1,1]@1"]
        return {
            "verdict": CERTIFIED,
            "statement": (
                f"1, F[;1]@1(1/2), F[;1,1]@1({point_1}) are linearly "
                "independent over the algebraic numbers"
            ),
            "hypotheses": [
                {
                    "description": "point 0 is nonzero",
                    "anchor": "nonzero-point",
                    "outcome": SATISFIED,
                    "witness": {"index": 0, "point": "1/2"},
                },
                {
                    "description": "point 1 is nonzero",
                    "anchor": "nonzero-point",
                    "outcome": SATISFIED,
                    "witness": {"index": 1, "point": point_1},
                },
                {
                    "description": "a_0^2/a_1^1 differs from the collision value",
                    "anchor": "power-ratio-condition",
                    "outcome": SATISFIED,
                    "witness": {
                        "pair": [0, 1],
                        "powers": [1, 2],
                        "actual": actual,
                        "forbidden": "4",
                    },
                },
            ],
            "caveat": CAVEAT,
            "caveat_discharged": False,
            "conditional_on": [CAVEAT],
            "inputs": {
                "functions": functions,
                "powers": [1, 2],
                "points": ["1/2", point_1],
            },
            "notes": [],
        }

    def test_rational_points_document(self):
        cert = certify_hypergeometric([HP([], [1]), HP([], [1, 1])], [Fraction(1, 2), 1])
        assert cert.to_json() == self._power_document("1", "1/4")

    def test_algebraic_point_document(self):
        # the point a {poly, box} spec entry builds
        root2 = AlgebraicNumber.root_in_box(
            Polynomial((-2, 0, 1)), Fraction(1), Fraction(2), Fraction(-1), Fraction(1)
        )
        cert = certify_hypergeometric(
            [HP([], [1]), HP([], [1, 1])], [Fraction(1, 2), root2]
        )
        assert cert.to_json() == self._power_document(
            "root([-2,0,1]) near (1.41421,0)", "algebraic"
        )


class TestSiIntegrals:
    def test_two_disjoint_intervals(self):
        cert = certify_si_integrals([(1, 2), (3, 4)])
        assert cert.verdict == CERTIFIED
        assert cert.caveat_discharged
        assert cert.conditional_on == []
        assert cert.relation_scope == "linear"
        assert any("unconditional" in n.lower() for n in cert.notes)

    def test_symmetric_interval_fails(self):
        # integral over [1, -1]: endpoint squares collide
        cert = certify_si_integrals([(1, -1)])
        assert cert.verdict == INCONCLUSIVE
        failed = [h for h in cert.hypotheses if h.outcome == FAILED]
        assert failed and failed[0].anchor == "distinct-endpoint-squares"

    def test_zero_endpoint_allowed(self):
        cert = certify_si_integrals([(0, 1)])
        assert cert.verdict == CERTIFIED

    def test_shared_endpoint_across_pairs(self):
        cert = certify_si_integrals([(0, 1), (1, 2)])
        assert cert.verdict == INCONCLUSIVE

    def test_statement_wording(self):
        one = certify_si_integrals([(2, 5)])
        assert "transcendental" in one.statement
        many = certify_si_integrals([(1, 2), (3, 4)])
        assert "linearly independent over the algebraic numbers" in many.statement


class TestCertificateShape:
    def test_json_key_order(self):
        cert = certify_main([ef_exp()], 1)
        assert list(cert.to_json()) == [
            "verdict", "statement", "hypotheses", "caveat",
            "caveat_discharged", "conditional_on", "inputs", "notes",
        ]

    def test_caveat_verbatim_everywhere(self):
        certs = [
            certify_main([ef_exp()], 1),
            certify_single(ef_bessel_j0(), [2, -2]),
            certify_hypergeometric([HP([], [1])], [1]),
            certify_si_integrals([(1, 2)]),
        ]
        for cert in certs:
            assert cert.caveat == "unless two of them are algebraic"

    def test_verdict_follows_hypotheses(self):
        certs = [
            certify_main([ef_exp()], 1),
            certify_main([ef_exp()], 0),
            certify_single(ef_bessel_j0(), [2, -2]),
            certify_hypergeometric([HP([], [1]), HP([], [1, 1])], [2, 1]),
            certify_si_integrals([(1, -1)]),
        ]
        for cert in certs:
            want = CERTIFIED if cert.all_satisfied() else INCONCLUSIVE
            assert cert.verdict == want

    def test_text_rendering(self):
        cert = certify_main([ef_exp(), ef_bessel_j0()], 1)
        text = cert.to_text()
        assert text.startswith("verdict: CertifiedIndependent")
        assert "[satisfied]" in text

    def test_eval_items_present(self):
        cert = certify_single(ef_exp(), [1, 2])
        kinds = [item[0] for item in cert.eval_items]
        assert kinds == ["efunction", "efunction"]
        hyp = certify_hypergeometric([HP([], [1])], [2])
        assert [i[0] for i in hyp.eval_items] == ["hyp_value"]
        si = certify_si_integrals([(1, 2)])
        assert [i[0] for i in si.eval_items] == ["si_integral"]
