"""Finite-dimensional KKT oracle against the parametric formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stechkin import (
    DiagonalInstance,
    FunctionalVector,
    Symbol,
    best_approx,
    brute_force_best_approx,
    deviation,
    extremal_vector,
    n_value,
    verify_theorems,
)

POW1, POW2 = Symbol.power(1), Symbol.power(2)
N2 = math.sqrt(305) / 34
M2 = math.sqrt(545) / 34

ONE = DiagonalInstance(locations=(1.0,), weights=(1.0,), phi=POW1, psi=POW2)
TWO = DiagonalInstance(locations=(1.0, 2.0), weights=(1.0, 1.0), phi=POW1, psi=POW2)


def random_instance(rng, max_atoms=12):
    n = int(rng.integers(2, max_atoms + 1))
    locs = rng.uniform(-5, 5, size=n)
    while len(set(locs.tolist())) != n:
        locs = rng.uniform(-5, 5, size=n)
    w = rng.uniform(0.05, 2.0, size=n)
    a, b = sorted(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0], size=2, replace=False))
    return DiagonalInstance(locations=tuple(locs), weights=tuple(w),
                            phi=Symbol.power(float(a)), psi=Symbol.power(float(b)))


class TestDeviation:
    def test_single_atom_half(self):
        g = FunctionalVector.from_values([0.5])
        assert deviation(ONE, g) == pytest.approx(0.5)

    def test_perfect_interpolation(self):
        g = FunctionalVector.from_values(TWO.target_vector)
        assert deviation(TWO, g) == 0.0

    def test_extremal_vector_deviation_matches_constants(self):
        g = extremal_vector(TWO, 1.0)
        assert g.values[0] == pytest.approx(0.5)
        assert g.values[1] == pytest.approx(2.0 / 17.0)
        assert deviation(TWO, g) == pytest.approx(M2, rel=1e-14)
        assert g.norm == pytest.approx(N2, rel=1e-14)

    def test_psi_kernel_atom_forces_infinite(self):
        inst = DiagonalInstance(locations=(0.0, 1.0), weights=(1.0, 1.0),
                                phi=Symbol.power(0), psi=POW2)
        g = FunctionalVector.from_values([0.0, 0.5])
        assert math.isinf(deviation(inst, g))


class TestBruteForce:
    def test_single_atom_matches_parametric(self):
        res = brute_force_best_approx(ONE, 0.5)
        assert res.lagrange_multiplier == pytest.approx(1.0, rel=1e-10)
        assert res.E == pytest.approx(0.5, rel=1e-12)
        assert res.g.values[0] == pytest.approx(0.5)

    def test_generous_budget_interpolates(self):
        res = brute_force_best_approx(TWO, 10.0)
        assert res.E == 0.0
        assert res.lagrange_multiplier == 0.0
        np.testing.assert_allclose(res.g.values, TWO.target_vector)

    def test_two_atom_is_the_acceptance_oracle(self):
        res = brute_force_best_approx(TWO, N2)
        assert res.lagrange_multiplier == pytest.approx(1.0, rel=1e-10)
        assert res.E == pytest.approx(M2, rel=1e-12)

    def test_infeasible_budget(self):
        inst = DiagonalInstance(locations=(0.0, 1.0), weights=(4.0, 1.0),
                                phi=Symbol.power(0), psi=POW2)
        res = brute_force_best_approx(inst, 1.0)  # pinned mass 4 > 1
        assert math.isinf(res.E)

    def test_audit_never_improves(self):
        res = brute_force_best_approx(TWO, N2)
        assert res.audit_max_improvement <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), b1=st.floats(0.1, 0.9), b2=st.floats(1.0, 3.0))
    def test_monotone_in_budget(self, seed, b1, b2):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_atoms=6)
        scale = float(np.linalg.norm(inst.target_vector))
        e1 = brute_force_best_approx(inst, b1 * scale, audit=False).E
        e2 = brute_force_best_approx(inst, b2 * scale, audit=False).E
        assert e2 <= e1 + 1e-12


    def test_bisection_stop_is_relative(self):
        # the multiplier is 4e-24 here, far below an absolute 1e-16 stopping width
        inst = DiagonalInstance(locations=(1e6,), weights=(1.0,), phi=POW1, psi=POW2)
        tau = 4e-24
        c = best_approx(inst.measure(), POW1, POW2, tau)
        res = brute_force_best_approx(inst, c.N, audit=False)
        assert res.lagrange_multiplier == pytest.approx(tau, rel=1e-12)
        assert res.E == pytest.approx(c.E, rel=1e-12)
        assert verify_theorems(inst, tau).parametric <= 1e-12


class TestVerifyTheorems:
    def test_single_atom_residuals_zero(self):
        res = verify_theorems(ONE, 1.0)
        assert res.max_residual() <= 1e-14

    def test_two_atom_residuals(self):
        res = verify_theorems(TWO, 1.0)
        assert res.max_residual() <= 1e-12

    def test_random_batch(self):
        rng = np.random.default_rng(123)
        for _ in range(12):
            inst = random_instance(rng)
            tau = float(rng.uniform(0.05, 20))
            res = verify_theorems(inst, tau)
            assert res.max_residual() <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), tau=st.floats(0.05, 20))
    def test_gtau_is_feasible_and_tight(self, seed, tau):
        """||g_tau|| <= N and U(g_tau) <= tau*M within float slack."""
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        g = extremal_vector(inst, tau)
        c = best_approx(inst.measure(), inst.phi, inst.psi, tau)
        assert g.norm <= c.N * (1 + 1e-12)
        assert deviation(inst, g) <= c.E * (1 + 1e-12) + 1e-300

    def test_oracle_matches_coefficients_at_matched_budget(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        tau = 0.7
        n_target = n_value(inst.measure(), inst.phi, inst.psi, tau)
        res = brute_force_best_approx(inst, n_target, audit=False)
        g = extremal_vector(inst, tau)
        assert float(np.max(np.abs(res.g.values - g.values))) <= 1e-10

    @pytest.mark.parametrize("case", ["three-atom", "large-atom"])
    def test_residuals_invariant_under_phi_scaling(self, case):
        """phi -> 1e5 phi scales N, E and every coefficient alike: no residual may move."""
        if case == "three-atom":
            locs, weights, tau = (-1.3, 0.4, 2.2), (0.7, 1.1, 0.3), 0.6
        else:  # the atom whose absolute coefficient residual once reached 1e-8
            locs, weights, tau = (1e6,), (1.0,), 4e-24
        big = Symbol.custom(lambda t: 1e5 * POW1(t), growth_order=1.0)
        fields = ("parametric", "deviation_at_gtau", "norm_of_gtau", "extremal_equality",
                  "coefficient_max")
        plain = verify_theorems(DiagonalInstance(locs, weights, phi=POW1, psi=POW2), tau)
        scaled = verify_theorems(DiagonalInstance(locs, weights, phi=big, psi=POW2), tau)
        for name in fields:
            assert abs(getattr(scaled, name) - getattr(plain, name)) <= 1e-12, name

    def test_complex_symbol_instance(self):
        """Complex-valued phi: moduli drive the constants, conjugation the vectors."""
        phi = Symbol.custom(lambda t: (1.0 + 2.0j) * t, growth_order=1.0)
        inst = DiagonalInstance(locations=(1.0, 2.0), weights=(1.0, 1.0),
                                phi=phi, psi=POW2)
        tau = 0.9
        res = verify_theorems(inst, tau)
        assert res.max_residual() <= 1e-12
        g = extremal_vector(inst, tau)
        assert g.values[0] == pytest.approx((1.0 - 2.0j) / (1.0 + tau))
