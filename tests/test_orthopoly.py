"""Orthonormal polynomial families: values, Gram matrices, ODE residuals."""

import math

import numpy as np
import pytest

from stechkin import (
    OrthogonalFamily,
    evaluate,
    evaluate_all,
    evaluate_with_derivatives,
    gram_matrix,
    ode_residual,
)

HERMITE = OrthogonalFamily.hermite()
LAG0 = OrthogonalFamily.laguerre(0.0)
LAG_HALF = OrthogonalFamily.laguerre(0.5)
LEGENDRE = OrthogonalFamily.jacobi(0.0, 0.0)
JAC = OrthogonalFamily.jacobi(0.5, -0.3)

ALL_FAMILIES = [HERMITE, LAG0, LAG_HALF, LEGENDRE, JAC]


class TestPinnedValues:
    def test_legendre_f0(self):
        assert evaluate(LEGENDRE, 0, 0.3) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_hermite_f0_f1(self):
        assert evaluate(HERMITE, 0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)
        assert evaluate(HERMITE, 1, 1.0) == pytest.approx(
            math.sqrt(2) * math.pi ** -0.25, rel=1e-14)

    def test_laguerre_classical_sign(self):
        # degree-1 polynomial is 1 - t under the exponential weight
        assert evaluate(LAG0, 1, 2.0) == pytest.approx(-1.0, rel=1e-14)
        assert evaluate(LAG0, 1, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_hermite_against_reference_expansion(self):
        # numpy's raw Hermite values normalized by sqrt(2^n n! sqrt(pi))
        from numpy.polynomial import hermite as H
        for n in (0, 1, 2, 5, 10, 20):
            c = np.zeros(n + 1)
            c[n] = 1.0
            for t in (-1.3, 0.0, 0.4, 2.2):
                ref = H.hermval(t, c) / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
                assert evaluate(HERMITE, n, t) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_legendre_against_reference_expansion(self):
        from numpy.polynomial import legendre as L
        for n in (0, 1, 3, 7, 15):
            c = np.zeros(n + 1)
            c[n] = 1.0
            for t in (-0.9, -0.2, 0.0, 0.5, 0.99):
                ref = math.sqrt((2 * n + 1) / 2.0) * L.legval(t, c)
                assert evaluate(LEGENDRE, n, t) == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_outside_interval_raises(self):
        with pytest.raises(ValueError):
            evaluate(LEGENDRE, 3, 1.5)
        with pytest.raises(ValueError):
            evaluate(LAG0, 3, -0.1)


class TestGram:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind}-{f.alpha}-{f.beta}")
    def test_orthonormal_to_1e8(self, family):
        g = gram_matrix(family, 20)
        assert float(np.max(np.abs(g - np.eye(21)))) <= 1e-8

    def test_batch_evaluation_matches_scalar(self):
        ts = np.array([-0.5, 0.0, 0.7])
        vals = evaluate_all(LEGENDRE, 6, ts)
        for j, t in enumerate(ts):
            for n in range(7):
                assert vals[n, j] == pytest.approx(evaluate(LEGENDRE, n, float(t)))


class TestChebyshev:
    """alpha + beta = -1: the recurrence's b_1 is 0/0 and takes its limit."""

    CHEB = OrthogonalFamily.jacobi(-0.5, -0.5)

    def test_first_kind_closed_form(self):
        t = np.cos(np.linspace(0.05, 3.1, 9))
        vals = evaluate_all(self.CHEB, 200, t)
        assert np.max(np.abs(vals[0] - math.pi ** -0.5)) <= 1e-15
        n = np.arange(1, 201)[:, None]
        ref = math.sqrt(2 / math.pi) * np.cos(n * np.arccos(t))
        assert np.max(np.abs(vals[1:] - ref)) <= 2e-13

    @pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (-0.4, -0.6)])
    def test_orthonormal_to_1e10(self, alpha, beta):
        g = gram_matrix(OrthogonalFamily.jacobi(alpha, beta), 20)
        assert float(np.max(np.abs(g - np.eye(21)))) <= 1e-10


class TestScalarPoint:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind}-{f.alpha}-{f.beta}")
    def test_scalar_bit_equal_to_one_point_array(self, family):
        lo, hi = family.interval()
        for t in (-1.0, -0.7, 0.0, 0.3, 1.0, 2.5, 7.5):
            if lo <= t <= hi:
                assert np.array_equal(evaluate_all(family, 2000, t),
                                      evaluate_all(family, 2000, [t])[:, 0])


class TestOde:
    def test_eigenvalues_match_displays(self):
        assert [HERMITE.eigenvalue(n) for n in range(4)] == [0.0, -2.0, -4.0, -6.0]
        assert [LAG0.eigenvalue(n) for n in range(4)] == [0.0, -1.0, -2.0, -3.0]
        assert LEGENDRE.eigenvalue(2) == -6.0  # -n(n+alpha+beta+1)
        assert JAC.eigenvalue(3) == pytest.approx(-3 * (3 + 0.5 - 0.3 + 1))

    def test_degree_zero_residual_exact(self):
        for fam in ALL_FAMILIES:
            t = 0.4 if fam.kind != "laguerre" else 1.3
            assert ode_residual(fam, 0, t) == 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind}-{f.alpha}-{f.beta}")
    def test_residual_small_for_low_degrees(self, family):
        lo, hi = family.interval()
        lo = max(lo, -0.95) if family.kind == "jacobi" else (0.05 if family.kind == "laguerre" else -4.0)
        hi = min(hi, 0.95) if family.kind == "jacobi" else (8.0 if family.kind == "laguerre" else 4.0)
        pts = np.linspace(lo, hi, 5)
        for n in range(1, 11):
            scale = (abs(family.eigenvalue(n)) + 1.0) * max(
                1.0, max(abs(evaluate(family, n, float(t))) for t in pts))
            for t in pts:
                assert ode_residual(family, n, float(t)) <= 1e-6 * scale

    def test_derivatives_match_central_differences(self):
        h = 1e-5
        for fam, t in ((HERMITE, 0.7), (LEGENDRE, 0.3), (LAG0, 2.1), (JAC, -0.2)):
            for n in (1, 4, 9):
                f, fp, fpp = evaluate_with_derivatives(fam, n, t)
                fd_p = (evaluate(fam, n, t + h) - evaluate(fam, n, t - h)) / (2 * h)
                fd_pp = (evaluate(fam, n, t + h) - 2 * evaluate(fam, n, t)
                         + evaluate(fam, n, t - h)) / h ** 2
                assert fp == pytest.approx(fd_p, rel=1e-7, abs=1e-7)
                assert fpp == pytest.approx(fd_pp, rel=1e-4, abs=1e-3)

    def test_interior_point_required(self):
        with pytest.raises(ValueError):
            ode_residual(LEGENDRE, 2, 1.0)
