"""End-to-end acceptance checks, one per guaranteed behavior.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and enforces a wall-clock budget. Tolerances are
pinned in the assertions; exact checks use exact arithmetic.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from elindep.algebraic import alg_nth_root, isolate_roots
from elindep.cli import demo_suite
from elindep.criterion import (
    CERTIFIED,
    INCONCLUSIVE,
    SATISFIED,
    certify_hypergeometric,
    certify_multi,
    certify_si_integrals,
    certify_single,
)
from elindep.diffop import op_apply, psi_transform
from elindep.efunction import (
    EFunction,
    HypergeometricParams,
    ef_bessel_j0,
    ef_exp,
    ef_hypergeometric,
    ef_lagrange_combo,
    ef_sin_integral,
)
from elindep.errors import InsufficientTruncationError
from elindep.numeric import eval_efunction, falsify
from elindep.polynomials import Polynomial, poly_gcd, ratio_set_poly, squarefree_part
from elindep.singularities import (
    SUPERSET,
    hypergeometric_singularities,
    ratio_condition,
    singularity_superset,
)

from support import mp_direct_sum, random_efunction, random_polynomial


def P(*coeffs):
    return Polynomial(coeffs)


class budget:
    """Assert the body runs within the criterion's time budget and report."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None and elapsed <= self.seconds:
            print(f"ACCEPTANCE {self.number} PASS: {self.label} ({elapsed:.2f}s)")
            return False
        if exc_type is None:
            print(f"ACCEPTANCE {self.number} FAIL: {self.label} "
                  f"(took {elapsed:.2f}s, budget {self.seconds}s)")
            raise AssertionError(
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s > {self.seconds}s"
            )
        print(f"ACCEPTANCE {self.number} FAIL: {self.label} ({exc_type.__name__})")
        return False


def test_01_singularity_fixtures():
    with budget(1, "singularity sets of the built-in functions", 5):
        exp_set = singularity_superset(ef_exp())
        assert exp_set.is_exact
        assert exp_set.poly.monic() == P(-1, 1)  # exactly {1}

        z2p1 = P(1, 0, 1)
        for f in (ef_bessel_j0(), ef_sin_integral()):
            rs = singularity_superset(f)
            assert rs.is_exact
            assert rs.poly.monic() == z2p1.monic()  # exactly {i, -i}

        # superset route (no closed form attached): divisible by z^2 + 1
        j0_raw = EFunction(ef_bessel_j0().annihilator, [1, 0], name="j0raw")
        sup = singularity_superset(j0_raw)
        assert sup.provenance == SUPERSET
        assert poly_gcd(sup.poly, z2p1).degree == 2


def test_02_transform_consistency():
    with budget(2, "transformed operators annihilate the series", 60):
        cases = [ef_exp(), ef_bessel_j0(), ef_sin_integral()]
        cases.append(ef_hypergeometric([], [1], 1))
        cases.append(ef_hypergeometric([], [1, 1], Fraction(-1, 4)))
        cases.append(ef_hypergeometric([], [1, 1, 1], 2))
        rng = random.Random(2026)
        while len(cases) < 26:
            cases.append(random_efunction(rng, check_terms=40))

        for f in cases:
            op = psi_transform(f.annihilator, f.coefficients(f.annihilator.order))
            for prefix in (140, 220, 400):
                series = f.coefficients(prefix)
                try:
                    img = op_apply(op, series, 80)
                    break
                except InsufficientTruncationError:
                    continue
            else:
                raise AssertionError(f"prefix never long enough for {f.name}")
            assert all(v == 0 for v in img.values()), f.name


def test_03_hypergeometric_locus():
    with budget(3, "singular locus of the power families", 1):
        for k in range(1, 5):
            params = HypergeometricParams((), (Fraction(1),) * k, Fraction(1))
            rs = hypergeometric_singularities(params)
            want = Polynomial((-1,) + (0,) * (k - 1) + (k**k,))  # (kz)^k - 1
            assert rs.poly.monic() == want.monic()
        k1 = hypergeometric_singularities(
            HypergeometricParams((), (Fraction(1),), Fraction(1))
        )
        assert k1.poly.monic() == singularity_superset(ef_exp()).poly.monic()


def test_04_independence_recovery():
    with budget(4, "certified verdicts at rational points", 5):
        cert = certify_single(ef_exp(), [1, 2, Fraction(1, 2), -3])
        assert cert.verdict == CERTIFIED

        even = certify_single(ef_bessel_j0(), [2, -2])
        assert even.verdict == INCONCLUSIVE

        ok = certify_single(ef_bessel_j0(), [2, 3])
        assert ok.verdict == CERTIFIED


def test_05_power_condition_cross_check():
    with budget(5, "power condition vs direct arithmetic vs ratio sets", 30):
        rng = random.Random(424242)

        def draw_point():
            while True:
                num = rng.randrange(-20, 21)
                if num:
                    return Fraction(num, rng.randrange(1, 21))

        checked = 0
        while checked < 50:
            ki = rng.randrange(1, 5)
            kj = rng.randrange(1, 5)
            if ki == kj:
                continue  # equal powers use the distinct-point test instead
            ai, aj = draw_point(), draw_point()

            # route 1: the certifier's hypothesis outcome
            pi = HypergeometricParams((), (Fraction(1),) * ki, Fraction(1))
            pj = HypergeometricParams((), (Fraction(1),) * kj, Fraction(1))
            cert = certify_hypergeometric([pi, pj], [ai, aj])
            hyp = [h for h in cert.hypotheses if h.anchor == "power-ratio-condition"]
            assert len(hyp) == 1
            verdict_cert = hyp[0].outcome == SATISFIED

            # route 2: brute-force exact rationals
            verdict_brute = (ai**kj / aj**ki) != Fraction(kj, ki) ** (ki * kj)

            # route 3: singularity ratios at k-th roots of the points
            bi = alg_nth_root(ai, ki)
            bj = alg_nth_root(aj, kj)
            verdict_ratio = ratio_condition(
                hypergeometric_singularities(pi),
                hypergeometric_singularities(pj),
                bi,
                bj,
            )

            assert verdict_cert == verdict_brute == verdict_ratio, (
                ki, kj, ai, aj, verdict_cert, verdict_brute, verdict_ratio,
            )
            checked += 1


def test_06_falsifier_positive_control():
    with budget(6, "planted relation is found and not certified", 60):
        g = ef_lagrange_combo(ef_exp(), [1, 2])
        cert = certify_multi([g, g], [1, 2])
        assert cert.verdict == INCONCLUSIVE

        rep = falsify(cert, digits=40, coeff_bound=1000)
        assert rep.found
        c = rep.coefficients
        # relation c0*1 + c1*g(1) + c2*g(2) = 0 must be t*(0, 1, -1)
        assert c[0] == 0 and c[1] == -c[2] and c[1] != 0
        assert not rep.contradiction


def test_07_falsifier_negative_control():
    with budget(7, "no relation against any certified demo entry", 300):
        contradictions = 0
        certified = 0
        for name, cert, _ in demo_suite(digits=60, coeff_bound=10**6):
            if cert.verdict != CERTIFIED:
                continue
            certified += 1
            rep = falsify(cert, digits=60, coeff_bound=10**6)
            assert not rep.found, name
            assert rep.excluded and not rep.skipped, name
            if rep.contradiction:
                contradictions += 1
        assert certified >= 5
        assert contradictions == 0


def test_08_ratio_set_oracle():
    with budget(8, "ratio polynomial contains every numeric root ratio", 60):
        rng = random.Random(808)
        done = 0
        while done < 100:
            p = random_polynomial(rng, max_degree=4)
            q = random_polynomial(rng, max_degree=4)
            if p.degree < 1 or q.degree < 1 or q.coeffs[0] == 0:
                continue
            out = ratio_set_poly(p, q)
            assert squarefree_part(out).degree == out.degree
            assert out.degree <= p.degree * q.degree

            with mpmath.workdps(40):
                rp = mpmath.polyroots(
                    [float(c) for c in reversed(p.coeffs)], maxsteps=160,
                    extraprec=80)
                rq = mpmath.polyroots(
                    [float(c) for c in reversed(q.coeffs)], maxsteps=160,
                    extraprec=80)
                ratios = [mpmath.mpc(a) / mpmath.mpc(b) for a in rp for b in rq]
            if out.degree == 0:
                assert not ratios
                done += 1
                continue
            boxes = isolate_roots(squarefree_part(out), 40)
            tol = Fraction(1, 10**9)
            for r in ratios:
                x = Fraction(mpmath.nstr(r.real, 25, strip_zeros=False))
                y = Fraction(mpmath.nstr(r.imag, 25, strip_zeros=False))
                hit = any(
                    (x - b.re) ** 2 + (y - b.im) ** 2
                    <= (2 * b.rad + tol) ** 2
                    for b in boxes
                )
                assert hit, (p, q, r)
            done += 1


def test_09_evaluation_containment():
    with budget(9, "evaluation balls nest and contain the direct sums", 30):
        for f in (ef_exp(), ef_bessel_j0(), ef_sin_integral()):
            for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
                truth = Fraction(
                    mpmath.nstr(mp_direct_sum(f.coefficient, x, 400), 140,
                                strip_zeros=False)
                )
                balls = [eval_efunction(f, x, d) for d in (30, 60, 120)]
                for b in balls:
                    assert b.im == 0
                    assert abs(b.re - truth) <= b.rad + Fraction(1, 10**130)
                for lo, hi in zip(balls, balls[1:]):
                    assert abs(hi.re - lo.re) + hi.rad <= lo.rad
                assert balls[0].rad <= Fraction(1, 10**30)
                assert balls[1].rad <= Fraction(1, 10**60)
                assert balls[2].rad <= Fraction(1, 10**120)


def test_10_si_integral_fixtures():
    with budget(10, "kernel-integral certificates", 5):
        two = certify_si_integrals([(1, 2), (3, 4)])
        assert two.verdict == CERTIFIED
        assert two.caveat_discharged

        sym = certify_si_integrals([(1, -1)])
        assert sym.verdict == INCONCLUSIVE

        zero = certify_si_integrals([(0, 1)])
        assert zero.verdict == CERTIFIED
        assert "transcendental" in zero.statement
