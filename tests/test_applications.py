"""Line, circle and polynomial-expansion settings plus the closed-form constants."""

import math

import numpy as np
import pytest

from stechkin import (
    AdmissibilityError,
    OrthogonalFamily,
    SpectralMeasure,
    Symbol,
    TaikovParams,
    best_approx,
    circle_constants,
    circle_extremal_functional,
    evaluate,
    evaluate_all,
    induced_measure,
    line_constants,
    line_extremal_functional,
    opoly_constants,
    opoly_extremal_functional,
    taikov_constants,
    taikov_exponent,
    taikov_law_constant,
)

POW1, POW2 = Symbol.power(1), Symbol.power(2)


class TestTaikovConstants:
    def test_k1_r2(self):
        c = taikov_constants(TaikovParams(1, 2, 1.0))
        # sin(3*pi/4) = sqrt(2)/2
        assert c.a == pytest.approx(math.sqrt(0.5 / (8 * math.sin(3 * math.pi / 4))), rel=1e-15)
        assert c.a == pytest.approx(0.29730177875068026, rel=1e-12)
        assert c.b == pytest.approx(0.51494178597677942, rel=1e-12)
        assert c.N == c.a and c.E == c.b

    def test_k2_r3(self):
        # sin(5*pi/6) = 1/2, so a = sqrt(1/18)
        c = taikov_constants(TaikovParams(2, 3, 1.0))
        assert c.a == pytest.approx(math.sqrt(1.0 / 18.0), rel=1e-14)
        assert c.a == pytest.approx(0.235702, abs=1e-6)

    def test_h_scaling(self):
        c1 = taikov_constants(TaikovParams(1, 2, 1.0))
        c4 = taikov_constants(TaikovParams(1, 2, 4.0))
        assert c4.N == pytest.approx(c1.a / 8.0, rel=1e-14)   # h^(-3/2)
        assert c4.E == pytest.approx(2.0 * c1.b, rel=1e-14)   # h^(1/2)

    def test_classical_pointvalue_case(self):
        # k -> 0 limit sanity: with (k, r) = (0, 1) the optimized multiplicative
        # bound has constant exactly 1; the params class forbids k = 0, so check
        # the closed forms directly.
        s = math.sin(math.pi / 2)
        a = math.sqrt(0.5 / 2.0 / s)
        b = math.sqrt(0.5 / 2.0 / s)
        assert 2.0 * math.sqrt(a * b) == pytest.approx(1.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaikovParams(2, 2, 1.0)
        with pytest.raises(ValueError):
            TaikovParams(1, 2, 0.0)


class TestLine:
    def test_pinned_value(self):
        pc = line_constants(POW1, POW2, 1.0)
        assert pc.N_pt ** 2 == pytest.approx(math.pi * math.sqrt(2) / 8, rel=1e-10)
        assert pc.N_pt == pytest.approx(0.745225, abs=1e-6)

    def test_zero_phi(self):
        pc = line_constants(Symbol.zero(), POW2, 1.0)
        assert pc.N_pt == 0.0 and pc.E_pt == 0.0

    def test_matches_parametric_on_lebesgue(self):
        pc = line_constants(POW1, POW2, 0.7)
        c = best_approx(SpectralMeasure.density(), POW1, POW2, 0.7)
        assert pc.N_pt == pytest.approx(c.N, rel=1e-9)
        assert pc.E_pt == pytest.approx(c.E, rel=1e-9)

    def test_taikov_law_across_tau(self):
        g = taikov_exponent(1, 2)
        want = taikov_law_constant(1, 2)
        for tau in (0.1, 1.0, 10.0):
            pc = line_constants(POW1, POW2, tau)
            assert pc.E_pt * pc.N_pt ** g == pytest.approx(want, rel=1e-8)

    def test_inadmissible_pair_rejected(self):
        with pytest.raises(AdmissibilityError):
            line_constants(Symbol.power(2), POW1, 1.0)

    def test_l2_hypothesis_rejected(self):
        # ratio^2 ~ 1/t: bounded but not integrable
        with pytest.raises(AdmissibilityError):
            line_constants(Symbol.power(1.5), Symbol.power(2.0), 1.0)


class TestLineExtremalFunctional:
    def test_odd_symmetry(self):
        v = line_extremal_functional(POW1, POW2, 1.0, lambda s: 1.0 if abs(s) <= 1 else 0.0,
                                     support=(-1.0, 1.0))
        assert abs(v) <= 1e-9

    def test_zero_profile(self):
        assert line_extremal_functional(POW1, POW2, 1.0, lambda s: 0.0) == 0.0

    def test_gaussian_profile_against_trapezoid_oracle(self):
        # frozen: 2^22-point trapezoid of s^2 e^{-s^2}/(1+s^6) on [-30, 30]
        v = line_extremal_functional(Symbol.power(2), Symbol.power(3), 1.0,
                                     lambda s: math.exp(-s * s))
        assert complex(v).real == pytest.approx(0.399922783802208, rel=2e-8)
        assert abs(complex(v).imag) <= 1e-12

    def test_sampled_profile_matches_closed_form(self):
        grid = np.linspace(-12.0, 12.0, 20001)
        sampled = (grid, np.exp(-grid ** 2))
        # quadrature tolerance matched to the linear-interpolation error
        v_s = line_extremal_functional(Symbol.power(2), Symbol.power(3), 1.0, sampled,
                                       rel_tol=1e-7)
        assert complex(v_s).real == pytest.approx(0.399922783802208, rel=1e-6)


class TestCircle:
    def test_pinned_series_value(self):
        pc = circle_constants(POW1, POW2, 1.0)
        assert pc.N_pt ** 2 == pytest.approx(0.531046991776717, abs=1e-8)

    def test_zero_phi(self):
        pc = circle_constants(Symbol.zero(), POW2, 1.0)
        assert pc.N_pt == 0.0 and pc.E_pt == 0.0

    def test_even_symmetry_doubles_half_line(self):
        pc = circle_constants(POW1, POW2, 1.0)
        half = sum(n * n / (1.0 + n ** 4) ** 2 for n in range(1, 200001))
        assert pc.N_pt ** 2 == pytest.approx(2 * half, rel=1e-7)

    def test_matches_parametric_on_unit_lattice(self):
        lattice = SpectralMeasure.lattice("Z", uniform=1.0)
        pc = circle_constants(POW1, POW2, 2.5)
        c = best_approx(lattice, POW1, POW2, 2.5, rel_tol=1e-8)
        assert pc.N_pt == pytest.approx(c.N, rel=1e-8)
        assert pc.E_pt == pytest.approx(c.E, rel=1e-8)

    def test_summability_hypothesis_rejected(self):
        with pytest.raises(AdmissibilityError):
            circle_constants(Symbol.power(1.5), Symbol.power(2.0), 1.0)


class TestCircleExtremalFunctional:
    def test_odd_cancellation(self):
        v = circle_extremal_functional(POW1, POW2, 1.0, lambda n: 1.0 / (1 + n * n))
        assert abs(v) <= 1e-12

    def test_zero_coefficients(self):
        assert circle_extremal_functional(POW1, POW2, 1.0, lambda n: 0.0) == 0.0

    def test_support_at_zero_with_vanishing_phi(self):
        v = circle_extremal_functional(POW1, POW2, 1.0,
                                       lambda n: 1.0 if n == 0 else 0.0)
        assert abs(v) == 0.0

    def test_one_sided_profile(self):
        # only n = 2 contributes: phi(2) x(2) / (1 + tau * 16)
        v = circle_extremal_functional(POW1, POW2, 0.5,
                                       lambda n: 1.0 if n == 2 else 0.0)
        assert complex(v).real == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_mapping_coefficients_exact(self):
        v = circle_extremal_functional(POW1, POW2, 0.5, {2: 1.0, -1: 2.0})
        want = 2.0 / 9.0 + (-1.0) * 2.0 / 1.5
        assert complex(v).real == pytest.approx(want, rel=1e-14)


LEGENDRE = OrthogonalFamily.jacobi(0.0, 0.0)
HERMITE = OrthogonalFamily.hermite()


class TestOpolyConstants:
    def test_single_surviving_term(self):
        phi = Symbol.from_table({0: 1.0})
        pc = opoly_constants(LEGENDRE, phi, POW2, 1.0, 0.3)
        assert pc.N_pt == pytest.approx(abs(evaluate(LEGENDRE, 0, 0.3)), rel=1e-12)
        assert pc.E_pt == 0.0

    def test_zero_phi(self):
        pc = opoly_constants(LEGENDRE, Symbol.zero(), POW2, 1.0, 0.3)
        assert pc.N_pt == 0.0 and pc.E_pt == 0.0

    def test_legendre_origin_against_reference_sum(self):
        # frozen by a 2e5-term sum over numpy Legendre values at t = 0
        pc = opoly_constants(LEGENDRE, POW1, POW2, 1.0, 0.0)
        assert pc.N_pt == pytest.approx(0.09391931117209237, rel=1e-10)
        assert pc.E_pt == pytest.approx(0.49029285153704805, rel=2e-3)
        assert abs(pc.E_pt - 0.49029285153704805) <= 2 * pc.tail_bound + 1e-12
        assert pc.truncation is not None and pc.tail_bound >= 0.0

    def test_odd_degrees_drop_out_at_origin(self):
        pc = opoly_constants(LEGENDRE, POW1, POW2, 1.0, 0.0)
        mu = induced_measure(LEGENDRE, 0.0, pc.truncation)
        odd_mass = sum(w for t, w in mu.atoms if int(t) % 2 == 1)
        assert odd_mass == 0.0

    def test_matches_parametric_on_induced_measure(self):
        pc = opoly_constants(HERMITE, POW1, POW2, 1.3, 0.5)
        mu = induced_measure(HERMITE, 0.5, pc.truncation)
        c = best_approx(mu, POW1, POW2, 1.3)
        assert pc.N_pt == pytest.approx(c.N, rel=1e-12)
        assert pc.E_pt == pytest.approx(c.E, rel=1e-12)

    def test_nonsummable_pair_rejected(self):
        with pytest.raises(AdmissibilityError):
            opoly_constants(LEGENDRE, Symbol.power(1.5), Symbol.power(2.0), 1.0, 0.3)

    @pytest.mark.parametrize("table, cutoff", [({1: 1.0, 2: 0.5}, 64), ({1: 1.0, 100: 0.5}, 100)])
    def test_table_phi_has_no_tail(self, table, cutoff):
        # a table symbol is zero past its largest index, so the first cutoff
        # that reaches that index gives the whole sum
        pc = opoly_constants(LEGENDRE, Symbol.from_table(table), POW2, 1.0, 0.3)
        F = evaluate_all(LEGENDRE, max(table), 0.3)
        n2 = math.fsum(v * v * F[n] ** 2 / (1.0 + n ** 4) ** 2 for n, v in table.items())
        assert pc.truncation == cutoff and pc.tail_bound == 0.0
        assert pc.N_pt ** 2 == pytest.approx(n2, rel=1e-13)


class TestOpolyExtremalFunctional:
    def test_zero_coefficients(self):
        assert opoly_extremal_functional(HERMITE, POW1, POW2, 1.0, 0.5, {}) == 0.0
        assert opoly_extremal_functional(HERMITE, POW1, POW2, 1.0, 0.5,
                                         lambda n: 0.0) == 0.0

    def test_support_at_zero_with_vanishing_phi(self):
        assert opoly_extremal_functional(HERMITE, POW1, POW2, 1.0, 0.5, {0: 3.0}) == 0.0

    def test_against_500_term_oracle(self):
        # brute-force truncation oracle: terms n x_n F_n(1/2) / (1 + n^4)
        xs = lambda n: 1.0 / (1.0 + n * n)
        brute = math.fsum(
            n * xs(n) * evaluate(HERMITE, n, 0.5) / (1.0 + float(n) ** 4)
            for n in range(501)
        )
        v = opoly_extremal_functional(HERMITE, POW1, POW2, 1.0, 0.5, xs)
        assert v == pytest.approx(brute, rel=1e-10)
        assert v == pytest.approx(0.1247261982179687, rel=1e-10)

    def test_finite_mapping_is_exact(self):
        coeffs = {1: 0.5, 4: -0.25}
        want = math.fsum(
            n * c * evaluate(LEGENDRE, n, 0.2) / (1.0 + float(n) ** 4)
            for n, c in coeffs.items()
        )
        got = opoly_extremal_functional(LEGENDRE, POW1, POW2, 1.0, 0.2, coeffs)
        assert got == pytest.approx(want, rel=1e-14)


FAMILIES = [
    (OrthogonalFamily.hermite(), 0.3),
    (OrthogonalFamily.laguerre(0.0), 3.1),
    (OrthogonalFamily.laguerre(0.5), 0.37),
    (OrthogonalFamily.jacobi(0.0, 0.0), 0.3),
    (OrthogonalFamily.jacobi(0.5, -0.3), -0.6),
]
BENCH_PAIRS = [(1, 2), (2, 3), (1, 3), (0, 2), (2, 4), (0, 2.5)]


def per_degree_sums(family, phi, psi, tau, t, cutoff):
    """The expansion sums N^2 and M^2 with one symbol call per degree."""
    F = evaluate_all(family, cutoff, t)
    phi_n = np.asarray([complex(phi(float(n))) for n in range(cutoff + 1)])
    psi_n = np.asarray([complex(psi(float(n))) for n in range(cutoff + 1)])
    den = (1.0 + tau * np.abs(psi_n) ** 2) ** 2
    n2 = math.fsum((np.abs(phi_n) ** 2 * F ** 2 / den).tolist())
    m2 = math.fsum((np.abs(phi_n * psi_n) ** 2 * F ** 2 / den).tolist())
    return n2, m2


class TestOpolyOneRoute:
    """N^2 and M^2 of the expansion are _integral sums on the induced measure."""

    @pytest.mark.parametrize("family, t", FAMILIES, ids=lambda v: getattr(v, "kind", v))
    def test_equals_best_approx_on_induced_measure(self, family, t):
        for tau in (0.05, 1.3):
            pc = opoly_constants(family, POW1, POW2, tau, t, max_n=2048)
            c = best_approx(induced_measure(family, t, pc.truncation), POW1, POW2, tau)
            assert pc.N_pt == c.N
            assert pc.E_pt == c.E

    @pytest.mark.parametrize("family, t", FAMILIES, ids=lambda v: getattr(v, "kind", v))
    def test_matches_per_degree_formula(self, family, t):
        for k, r in BENCH_PAIRS:
            phi, psi = Symbol.power(k), Symbol.power(r)
            for tau in (0.01, 1.0, 100.0):
                pc = opoly_constants(family, phi, psi, tau, t, max_n=1024)
                n2, m2 = per_degree_sums(family, phi, psi, tau, t, pc.truncation)
                assert abs(pc.N_pt - math.sqrt(n2)) <= 1e-15 * math.sqrt(n2)
                assert abs(pc.E_pt - tau * math.sqrt(m2)) <= 1e-15 * tau * math.sqrt(m2)

    def test_symbols_are_called_per_cutoff_not_per_degree(self):
        calls = []

        def fn(t):
            calls.append(np.size(t))
            return np.asarray(t, dtype=float) ** 2

        psi = Symbol.custom(fn, growth_order=2.0)
        pc = opoly_constants(HERMITE, POW1, psi, 1.0, 0.3)
        cutoffs = int(math.log2(pc.truncation / 64)) + 1 if pc.truncation > 64 else 1
        assert len(calls) <= 4 * cutoffs < pc.truncation
        calls.clear()
        opoly_extremal_functional(HERMITE, POW1, psi, 1.0, 0.3, lambda n: 1.0 / (1.0 + n * n))
        assert 0 < len(calls) <= 4 * cutoffs

    def test_extremal_functional_shares_the_truncation_loop(self, monkeypatch):
        from stechkin import applications

        seen = []
        loop = applications._cutoffs

        def recording(*args):
            for step in loop(*args):
                seen.append(step[0])
                yield step

        monkeypatch.setattr(applications, "_cutoffs", recording)
        pc = opoly_constants(HERMITE, POW1, POW2, 1.0, 0.5)
        assert seen[0] == 64 and seen[-1] == pc.truncation
        seen.clear()
        opoly_extremal_functional(HERMITE, POW1, POW2, 1.0, 0.5, lambda n: 1.0 / (1.0 + n * n))
        assert seen and seen[0] == 64


class TestOpolyEndpoints:
    """At a closed end of the interval F_n(t)^2 grows, and the exponent check counts it."""

    @pytest.mark.parametrize("family, t, growth", [
        (OrthogonalFamily.jacobi(0.5, -0.3), 1.0, 2.0),
        (OrthogonalFamily.jacobi(0.5, -0.3), -1.0, 0.4),
        (OrthogonalFamily.laguerre(0.5), 0.0, 0.5),
        (OrthogonalFamily.laguerre(0.0), 0.0, 0.0),
        (OrthogonalFamily.jacobi(0.5, -0.3), 0.3, 0.0),
    ])
    def test_endpoint_growth_matches_the_recurrence(self, family, t, growth):
        from stechkin.applications import _endpoint_growth

        assert _endpoint_growth(family, t) == pytest.approx(growth, abs=1e-15)
        if t in (-1.0, 0.0, 1.0):
            F = evaluate_all(family, 8000, t)
            ratio = (F[8000] ** 2 / 8000 ** growth) / (F[2000] ** 2 / 2000 ** growth)
            assert ratio == pytest.approx(1.0, abs=2e-3)

    def test_divergent_jacobi_endpoint_rejected(self):
        with pytest.raises(AdmissibilityError):
            opoly_constants(OrthogonalFamily.jacobi(0.5, -0.3), POW1, POW2, 1.0, 1.0)

    def test_divergent_laguerre_origin_rejected(self):
        # 2 + 3.5 - 7 = -1.5 inside, -1.5 + alpha = -1 at t = 0
        psi = Symbol.power(1.75)
        lag = OrthogonalFamily.laguerre(0.5)
        opoly_constants(lag, POW1, psi, 1.0, 0.3, max_n=256)
        with pytest.raises(AdmissibilityError):
            opoly_constants(lag, POW1, psi, 1.0, 0.0)

    def test_convergent_endpoint_keeps_the_estimate(self):
        pc = opoly_constants(OrthogonalFamily.jacobi(0.5, -0.3), POW1, POW2, 1.0, -1.0)
        assert math.isfinite(pc.tail_bound) and pc.N_pt > 0.0 and pc.E_pt > 0.0
