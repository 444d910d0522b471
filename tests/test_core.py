"""Parametric constants, extremal elements, combined constants, behavior suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stechkin import (
    SpectralMeasure,
    Symbol,
    TargetOutOfRangeError,
    additive_bound,
    best_approx,
    extremal_element,
    hlp_constant,
    hormander_coefficient,
    lemma_suite,
    m_value,
    n_value,
    solve_tau,
)

POW1, POW2 = Symbol.power(1), Symbol.power(2)
ONE_ATOM = SpectralMeasure.discrete([(1.0, 1.0)])
TWO_ATOM = SpectralMeasure.discrete([(1.0, 1.0), (2.0, 1.0)])

# frozen two-atom values: N = sqrt(1/4 + 4/289), M = sqrt(1/4 + 64/289)
N2 = math.sqrt(305) / 34
M2 = math.sqrt(545) / 34
F2 = 25.0 / 34.0  # 1/2 + 4/17

atoms_strategy = st.lists(
    st.tuples(st.floats(-5, 5), st.floats(0.05, 2)), min_size=1, max_size=8,
    unique_by=lambda a: a[0],
)


class TestNM:
    def test_single_atom_n(self):
        assert n_value(ONE_ATOM, POW1, POW2, 1.0) == pytest.approx(0.5)

    def test_two_atom_n(self):
        assert n_value(TWO_ATOM, POW1, POW2, 1.0) == pytest.approx(N2, rel=1e-14)

    def test_zero_phi(self):
        assert n_value(ONE_ATOM, Symbol.zero(), POW2, 1.0) == 0.0

    def test_single_atom_m(self):
        assert m_value(ONE_ATOM, POW1, POW2, 1.0) == pytest.approx(0.5)

    def test_two_atom_m(self):
        assert m_value(TWO_ATOM, POW1, POW2, 1.0) == pytest.approx(M2, rel=1e-14)

    def test_zero_psi_m(self):
        assert m_value(TWO_ATOM, POW1, Symbol.zero(), 1.0) == 0.0

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            n_value(ONE_ATOM, POW1, POW2, 0.0)


class TestBestApprox:
    def test_single_atom(self):
        c = best_approx(ONE_ATOM, POW1, POW2, 1.0)
        assert (c.N, c.M, c.E) == pytest.approx((0.5, 0.5, 0.5))

    def test_single_atom_tau3(self):
        c = best_approx(ONE_ATOM, POW1, POW2, 3.0)
        assert c.N == pytest.approx(0.25)
        assert c.M == pytest.approx(0.25)
        assert c.E == pytest.approx(0.75)

    def test_two_atom(self):
        c = best_approx(TWO_ATOM, POW1, POW2, 1.0)
        assert c.N == pytest.approx(N2, rel=1e-14)
        assert c.E == pytest.approx(M2, rel=1e-14)

    def test_e_is_tau_m_exactly(self):
        c = best_approx(TWO_ATOM, POW1, POW2, 0.7)
        assert c.E == 0.7 * c.M

    @settings(max_examples=40, deadline=None)
    @given(atoms=atoms_strategy, t1=st.floats(0.01, 10), ratio=st.floats(1.1, 20))
    def test_monotonicity_in_tau(self, atoms, t1, ratio):
        m = SpectralMeasure.discrete(atoms)
        t2 = t1 * ratio
        assert n_value(m, POW1, POW2, t2) <= n_value(m, POW1, POW2, t1) + 1e-14
        e1 = t1 * m_value(m, POW1, POW2, t1)
        e2 = t2 * m_value(m, POW1, POW2, t2)
        assert e1 <= e2 + 1e-14

    @settings(max_examples=30, deadline=None)
    @given(atoms=atoms_strategy, tau=st.floats(0.01, 50), c=st.floats(0.1, 9))
    def test_scale_covariance(self, atoms, tau, c):
        m1 = SpectralMeasure.discrete(atoms)
        m2 = SpectralMeasure.discrete([(t, c * w) for t, w in atoms])
        c1 = best_approx(m1, POW1, POW2, tau)
        c2 = best_approx(m2, POW1, POW2, tau)
        s = math.sqrt(c)
        assert c2.N == pytest.approx(s * c1.N, rel=1e-12, abs=1e-15)
        assert c2.E == pytest.approx(s * c1.E, rel=1e-12, abs=1e-15)


class TestSolveTau:
    def test_equal_powers_single_atom(self):
        c = solve_tau(ONE_ATOM, POW1, Symbol.power(1), 0.5)
        assert c.tau == pytest.approx(1.0, rel=1e-9)
        # E = tau * M with M(tau) = 1/(1+tau) at the single unit atom
        assert c.E == pytest.approx(0.5, rel=1e-9)

    def test_invert_single_atom(self):
        c = solve_tau(ONE_ATOM, POW1, POW2, 0.25)
        assert c.tau == pytest.approx(3.0, rel=1e-9)
        assert c.E == pytest.approx(0.75, rel=1e-9)

    def test_two_atom_roundtrip(self):
        c = solve_tau(TWO_ATOM, POW1, POW2, N2)
        assert c.tau == pytest.approx(1.0, rel=1e-8)
        assert c.E == pytest.approx(M2, rel=1e-8)

    def test_target_above_phi_norm(self):
        with pytest.raises(TargetOutOfRangeError) as err:
            solve_tau(TWO_ATOM, POW1, POW2, 10.0)
        assert err.value.limit == "small-tau"

    def test_target_needs_tau_below_1e_minus_8(self):
        # N(tau) = 1e6/(1 + 1e24 tau) = 1e5 at tau = 9e-24
        c = solve_tau(SpectralMeasure.discrete([(1e6, 1.0)]), POW1, POW2, 1e5)
        assert c.tau == pytest.approx(9e-24, rel=1e-9)
        assert c.N == pytest.approx(1e5, rel=1e-10)

    def test_target_needs_tau_above_1e12(self):
        # N(tau) = 5e-4/(1 + 6.25e-14 tau) = 2.5e-4 at tau = 1.6e13
        c = solve_tau(SpectralMeasure.discrete([(5e-4, 1.0)]), POW1, POW2, 2.5e-4)
        assert c.tau == pytest.approx(1.6e13, rel=1e-9)
        assert c.N == pytest.approx(2.5e-4, rel=1e-10)

    def test_floor_from_psi_kernel(self):
        # psi vanishes at t = 0 where phi-mass sits: N can never drop below it
        m = SpectralMeasure.discrete([(0.0, 1.0), (1.0, 1.0)])
        phi = Symbol.power(0)
        with pytest.raises(TargetOutOfRangeError) as err:
            solve_tau(m, phi, POW2, 0.9)
        assert err.value.limit == "large-tau"
        assert err.value.bound == pytest.approx(1.0)


class TestExtremalElement:
    def test_single_atom(self):
        x = extremal_element(ONE_ATOM, POW1, POW2, 1.0)
        assert x.coefficient(1.0) == pytest.approx(0.5)
        assert x.norm_x == pytest.approx(0.5)
        assert x.norm_psi_x == pytest.approx(0.5)
        assert x.functional_value == pytest.approx(0.5)
        assert x.residual <= 1e-15

    def test_zero_phi(self):
        x = extremal_element(ONE_ATOM, Symbol.zero(), POW2, 1.0)
        assert x.functional_value == 0.0
        assert x.residual == 0.0

    def test_two_atom_certificate(self):
        x = extremal_element(TWO_ATOM, POW1, POW2, 1.0)
        assert x.functional_value == pytest.approx(F2, rel=1e-14)
        assert x.residual <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(atoms=atoms_strategy, tau=st.floats(0.01, 50))
    def test_equality_certificate_random(self, atoms, tau):
        m = SpectralMeasure.discrete(atoms)
        x = extremal_element(m, POW1, POW2, tau)
        assert x.residual <= 1e-10 * max(x.functional_value, 1e-300)


class TestBounds:
    def test_additive_bound_arithmetic(self):
        c = best_approx(ONE_ATOM, POW1, POW2, 1.0)
        assert additive_bound(c, 1.0, 1.0) == pytest.approx(1.0)
        assert additive_bound(c, 0.0, 0.0) == 0.0

    def test_additive_bound_equality_at_extremal(self):
        x = extremal_element(TWO_ATOM, POW1, POW2, 1.0)
        b = additive_bound(x.constants, x.norm_x, x.norm_psi_x)
        assert b == pytest.approx(x.functional_value, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        atoms=atoms_strategy,
        tau=st.floats(0.05, 20),
        seed=st.integers(0, 2 ** 31),
    )
    def test_inequalities_on_random_elements(self, atoms, tau, seed):
        """Both sharp bounds hold for arbitrary coordinate vectors x."""
        m = SpectralMeasure.discrete(atoms)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal(len(atoms)) + 1j * rng.standard_normal(len(atoms))
        locs = np.asarray([t for t, _ in atoms])
        w = np.asarray([wt for _, wt in atoms])
        f = np.sqrt(w)
        phi_j = locs  # pow:1
        psi_j = locs ** 2  # pow:2
        fval = abs(np.sum(phi_j * xs * f))
        norm_x = float(np.linalg.norm(xs))
        norm_psi_x = float(np.linalg.norm(psi_j * xs))
        c = best_approx(m, POW1, POW2, tau)
        assert fval <= additive_bound(c, norm_x, norm_psi_x) * (1 + 1e-12) + 1e-12
        h = hormander_coefficient(m, POW1, POW2, tau)
        assert fval <= h * math.sqrt(norm_x ** 2 + tau * norm_psi_x ** 2) * (1 + 1e-12) + 1e-12


class TestHormander:
    def test_single_atom(self):
        assert hormander_coefficient(ONE_ATOM, POW1, POW2, 1.0) == pytest.approx(
            math.sqrt(0.5), rel=1e-14)

    def test_zero_phi(self):
        assert hormander_coefficient(ONE_ATOM, Symbol.zero(), POW2, 1.0) == 0.0

    def test_two_atom(self):
        assert hormander_coefficient(TWO_ATOM, POW1, POW2, 1.0) == pytest.approx(
            math.sqrt(F2), rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(atoms=atoms_strategy, tau=st.floats(0.01, 50))
    def test_identity_with_n_m(self, atoms, tau):
        m = SpectralMeasure.discrete(atoms)
        h = hormander_coefficient(m, POW1, POW2, tau)
        c = best_approx(m, POW1, POW2, tau)
        assert h * h == pytest.approx(c.N ** 2 + tau * c.M ** 2, rel=1e-10, abs=1e-300)

    @settings(max_examples=30, deadline=None)
    @given(atoms=atoms_strategy, tau=st.floats(0.05, 20))
    def test_equality_at_extremal_element(self, atoms, tau):
        m = SpectralMeasure.discrete(atoms)
        x = extremal_element(m, POW1, POW2, tau)
        h = hormander_coefficient(m, POW1, POW2, tau)
        rhs = h * math.sqrt(x.norm_x ** 2 + tau * x.norm_psi_x ** 2)
        assert x.functional_value == pytest.approx(rhs, rel=1e-10, abs=1e-300)


class TestHlp:
    def test_power_pair(self):
        assert hlp_constant(POW1, POW2, 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_bounded_phi_zero_psi(self):
        assert hlp_constant(Symbol.power(0), Symbol.zero(), 5.0) == pytest.approx(1.0)

    def test_zero_phi(self):
        assert hlp_constant(Symbol.zero(), POW2, 1.0) == 0.0

    def test_unbounded_ratio_is_infinite(self):
        assert math.isinf(hlp_constant(Symbol.power(2), Symbol.power(1), 1.0))

    def test_tau_scaling_closed_form(self):
        # sup t^2/(1+tau t^4) = 1/(2 sqrt(tau))
        for tau in (0.1, 1.0, 7.0):
            assert hlp_constant(POW1, POW2, tau) == pytest.approx(
                math.sqrt(1.0 / (2.0 * math.sqrt(tau))), rel=1e-12)

    def test_bounded_domain_endpoint_supremum(self):
        # on [0, 1/2] the ratio is increasing, so the sup sits at the endpoint
        v = hlp_constant(POW1, POW2, 1.0, domain=(0.0, 0.5))
        assert v == pytest.approx(math.sqrt(0.25 / 1.0625), rel=1e-12)


class TestLemmaSuite:
    def test_single_atom_clean(self):
        rep = lemma_suite(ONE_ATOM, POW1, POW2, [0.01, 0.1, 1.0, 10.0, 100.0])
        assert rep.monotonicity_violations == 0
        assert rep.limit_tau0 == pytest.approx(1.0, rel=0.05)
        assert rep.continuity_max_jump <= 1e-9

    def test_zero_phi(self):
        rep = lemma_suite(ONE_ATOM, Symbol.zero(), POW2, [0.1, 1.0, 10.0])
        assert rep.monotonicity_violations == 0
        assert rep.limit_tau0 == 0.0
        assert rep.tauM_limit0 == 0.0

    def test_unit_lattice_divergent_branch(self):
        m = SpectralMeasure.lattice("Z", uniform=1.0)
        grid = np.geomspace(1e-3, 1e3, 25)
        rep = lemma_suite(m, POW1, POW2, grid)
        assert rep.monotonicity_violations == 0
        assert math.isinf(rep.limit_tau0)
        # tau*M decreases toward 0 with tau on this instance
        m_hi = 1e-2 * m_value(m, POW1, POW2, 1e-2, rel_tol=1e-6)
        m_lo = 1e-4 * m_value(m, POW1, POW2, 1e-4, rel_tol=1e-6)
        assert m_lo < m_hi
        assert rep.small_tau_envelope == pytest.approx(math.sqrt(1e-3) / 2, rel=1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lemma_suite(ONE_ATOM, POW1, POW2, [1.0, 2.0])
        with pytest.raises(ValueError):
            lemma_suite(ONE_ATOM, POW1, POW2, [2.0, 1.0, 3.0])


class TestScalingLaws:
    """Exact laws for power symbols: tau-scaling on Lebesgue, location rescaling on atoms."""

    # (a, b) with s = (2a+1)/(2b) in (0, 1): N^2 and M^2 both finite on R
    PAIRS = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0.5, 2), (1.5, 3)]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_lebesgue_beta_closed_forms(self, a, b):
        # N^2 = tau^-s Gamma(s) Gamma(2-s) / b and E^2 = tau^(1-s) Gamma(1+s) Gamma(1-s) / b,
        # from u = tau |t|^(2b) in the Beta integral
        s = (2 * a + 1) / (2 * b)
        for tau in np.geomspace(1e-12, 1e12, 13).tolist():
            c = best_approx(SpectralMeasure.density(), Symbol.power(a), Symbol.power(b), tau)
            n = math.sqrt(tau ** -s * math.gamma(s) * math.gamma(2 - s) / b)
            e = math.sqrt(tau ** (1 - s) * math.gamma(1 + s) * math.gamma(1 - s) / b)
            assert c.N == pytest.approx(n, rel=1e-10, abs=0.0)
            assert c.E == pytest.approx(e, rel=1e-10, abs=0.0)

    RNG = np.random.default_rng(11)
    ATOMS = list(zip(RNG.uniform(-3.0, 3.0, 12).tolist(), RNG.uniform(0.1, 2.0, 12).tolist()))
    LATTICE = dict(zip(range(-5, 7), RNG.uniform(0.1, 2.0, 12).tolist()))

    @pytest.mark.parametrize("k", [-3, -1, 1, 4])
    @pytest.mark.parametrize("a, b", [(0, 1), (1, 2), (2.5, 3), (1, 4)])
    def test_location_rescaling(self, k, a, b):
        # |phi(ct)|^2 = c^(2a) |phi(t)|^2 and tau |psi(ct)|^2 = tau c^(2b) |psi(t)|^2, so
        # N(tau; c mu) = c^a N(tau c^(2b); mu) and M(tau; c mu) = c^(a+b) M(tau c^(2b); mu)
        c = 2.0 ** k
        phi, psi = Symbol.power(a), Symbol.power(b)
        pairs = [(SpectralMeasure.discrete([(c * t, w) for t, w in self.ATOMS]),
                  SpectralMeasure.discrete(self.ATOMS))]
        if k > 0:  # c times a lattice is a lattice only for integer c
            pairs.append((SpectralMeasure.lattice("Z", weights={int(c) * n: w for n, w in
                                                                 self.LATTICE.items()}),
                          SpectralMeasure.lattice("Z", weights=self.LATTICE)))
        for scaled, mu in pairs:
            for tau in (1e-6, 0.3, 1.0, 1e4):
                t2 = tau * c ** (2 * b)
                assert n_value(scaled, phi, psi, tau) == pytest.approx(
                    c ** a * n_value(mu, phi, psi, t2), rel=1e-14, abs=0.0)
                assert m_value(scaled, phi, psi, tau) == pytest.approx(
                    c ** (a + b) * m_value(mu, phi, psi, t2), rel=1e-14, abs=0.0)
