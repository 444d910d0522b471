"""Quadrature, lattice summation, root finding and supremum search."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stechkin import (
    NonConvergenceError,
    Symbol,
    TargetOutOfRangeError,
    integrate,
    line_constants,
    line_extremal_functional,
    solve_monotone,
    sum_lattice,
    sup_search,
)
from stechkin import numerics
from stechkin.spectral import weight

INF = math.inf


class TestIntegrate:
    def test_gaussian_whole_line(self):
        r = integrate(lambda t: math.exp(-t * t), (-INF, INF))
        assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert r.abs_error_estimate >= 0.0

    def test_exponential_half_line(self):
        r = integrate(lambda t: math.exp(-t), (0.0, INF))
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_rational_closed_form(self):
        # int over R of t^2/(1+t^4)^2 dt = pi*sqrt(2)/8
        r = integrate(lambda t: t * t / (1 + t ** 4) ** 2, (-INF, INF))
        assert r.value == pytest.approx(math.pi * math.sqrt(2) / 8, rel=1e-11)

    def test_finite_interval_polynomial(self):
        r = integrate(lambda t: 3 * t * t, (0.0, 2.0))
        assert r.value == pytest.approx(8.0, rel=1e-13)

    def test_left_infinite(self):
        r = integrate(lambda t: math.exp(t), (-INF, 0.0))
        assert r.value == pytest.approx(1.0, rel=1e-11)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, (0, 1), rel_tol=2.0)

    def test_budget_failure_is_loud(self):
        # noise cannot be integrated to 1e-10; the failure must surface
        rng = np.random.default_rng(0)
        with pytest.raises(NonConvergenceError):
            integrate(lambda t: float(rng.standard_normal()), (0, 1), max_panels=64)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-2, 2, allow_nan=False),
        b=st.floats(-2, 2, allow_nan=False),
        c=st.floats(-2, 2, allow_nan=False),
    )
    def test_linearity_on_smooth_class(self, a, b, c):
        f = lambda t: a * math.exp(-t * t)
        g = lambda t: (b + c * t * t) * math.exp(-t * t / 2)
        rf = integrate(f, (-INF, INF)).value
        rg = integrate(g, (-INF, INF)).value
        rfg = integrate(lambda t: f(t) + g(t), (-INF, INF)).value
        scale = abs(rf) + abs(rg) + 1e-9
        assert abs(rfg - (rf + rg)) <= 1e-9 * scale

    def test_complex_integrand(self):
        r = integrate(lambda t: (1 + 1j) * math.exp(-t * t), (-INF, INF))
        assert r.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-11)
        assert r.value.imag == pytest.approx(math.sqrt(math.pi), rel=1e-11)

    def test_nan_integrand_stops_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="non-finite"):
            integrate(lambda x: math.nan, (-INF, INF))
        assert time.perf_counter() - t0 < 1.0


def _per_node_integrate(f, domain, rel_tol=1e-10, abs_tol=1e-14):
    """Reference: the per-node loop ``integrate`` ran before panels were batched."""
    u_lo, u_hi, t_of_u, jac = numerics._map_to_u(domain)

    def g(u):
        return f(t_of_u(u)) * jac(u)

    def panel(lo, hi):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v15 = l1 = v7 = 0.0
        for ui, wi in zip(numerics._GL_U, numerics._GL_W):
            fx = g(c + h * ui)
            v15 = v15 + wi * fx
            l1 += wi * abs(fx)
        for ui, wi in zip(numerics._GL7_U, numerics._GL7_W):
            v7 = v7 + wi * g(c + h * ui)
        return (abs(h * (v15 - v7)), lo, hi, h * v15, h * l1)

    edges = np.linspace(u_lo, u_hi, 9)
    panels = [panel(a, b) for a, b in zip(edges[:-1], edges[1:])]
    while True:
        total = sum(p[3] for p in panels)
        err = math.fsum(p[0] for p in panels)
        l1 = math.fsum(p[4] for p in panels)
        if err <= rel_tol * max(abs(total), 1e-3 * l1) + abs_tol:
            return total, err, len(panels)
        worst = max(range(len(panels)), key=lambda i: (panels[i][0], -panels[i][1]))
        _, lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels += [panel(lo, mid), panel(mid, hi)]


class TestIntegrateBatches:
    """Panels are evaluated as array calls, with a per-node fallback."""

    @pytest.mark.parametrize("f, domain", [
        (lambda t: math.exp(-t * t), (-INF, INF)),
        (lambda t: float(t * t / (1 + t ** 4) ** 2), (-INF, INF)),
        (lambda t: math.exp(-t), (0.0, INF)),
        (lambda t: math.sqrt(abs(t)) * math.exp(t), (-INF, 1.0)),
        (lambda t: 3 * float(t) ** 2, (0.0, 2.0)),
        (lambda t: complex(math.cos(t), t) * math.exp(-t * t), (-INF, INF)),
    ], ids=["gauss", "rational", "half-line", "left-half-line", "finite", "complex"])
    def test_scalar_only_integrand_keeps_its_bits(self, f, domain):
        r = integrate(f, domain)
        assert (r.value, r.abs_error_estimate, r.panels_used) == _per_node_integrate(f, domain)

    def test_scalar_only_integrand_falls_back(self):
        seen = []

        def f(t):
            seen.append(type(t))
            return math.exp(-t * t)  # raises TypeError on an array

        r = integrate(f, (-INF, INF))
        assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        # one array attempt, then today's per-node loop on numpy scalars
        assert seen[0] is np.ndarray
        assert set(seen[1:]) == {np.float64}
        assert len(seen) == 1 + 22 * (r.panels_used + (r.panels_used - 8))

    def test_complex_scalar_integrand(self):
        # integral of exp(-s^2)/(1+s^2) ds = pi e erfc(1); the imaginary part is odd
        g = line_extremal_functional(
            Symbol.power(0), Symbol.power(1), 1.0,
            lambda s: complex(math.exp(-s * s), s * math.exp(-s * s)),
        )
        assert g.real == pytest.approx(math.pi * math.e * math.erfc(1.0), rel=1e-9)
        assert abs(g.imag) <= 1e-12

    def test_wrong_shape_falls_back(self):
        # an array argument gives a scalar: the batch is redone node by node
        r = integrate(lambda t: float(np.mean(np.exp(-np.square(t)))), (-INF, INF))
        assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_one_call_per_batch_on_lebesgue(self):
        calls = []
        w = weight(Symbol.power(1), Symbol.power(2), 1.0, 0, 2)

        def f(t):
            calls.append(t.shape)
            return w(t)

        r = integrate(f, (-INF, INF))
        assert len(calls) == 1 + (r.panels_used - 8)
        assert calls[0] == (8 * 22,) and set(calls[1:]) == {(2 * 22,)}

    def test_array_path_matches_scalar_path(self, monkeypatch):
        pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0.5, 2), (0.5, 1.5), (1.5, 3),
                 (0, 1.5), (0.25, 1.5), (1, 2.5), (2, 4)]
        taus = (1e-3, 0.1, 1.0, 10.0, 1e3)

        def run():
            return [line_constants(Symbol.power(a), Symbol.power(b), tau)
                    for a, b in pairs for tau in taus]

        fast = run()
        monkeypatch.setattr(numerics, "_array_call", lambda fn, x: None)
        slow = run()
        for f, s in zip(fast, slow):
            assert f.N_pt == pytest.approx(s.N_pt, rel=1e-14, abs=0.0)
            assert f.E_pt == pytest.approx(s.E_pt, rel=1e-14, abs=0.0)


class TestSumLattice:
    def test_zero_series(self):
        r = sum_lattice(lambda n: 0.0, "Z")
        assert r.value == 0.0
        assert r.tail_bound == 0.0
        assert r.terms_used >= 1

    def test_geometric(self):
        r = sum_lattice(lambda n: 0.5 ** n, "Z+")
        assert r.value == pytest.approx(2.0, rel=1e-12)

    def test_rational_two_sided(self):
        # frozen by direct summation to n = 1e6 with integral tail bound
        r = sum_lattice(lambda n: n * n / (1.0 + n ** 4) ** 2, "Z")
        assert r.value == pytest.approx(0.531046991776717, rel=1e-9)
        assert r.tail_bound <= 1e-9 * r.value

    def test_tail_bound_brackets_truth(self):
        exact = math.pi ** 2 / 6 - 1.0  # sum over n >= 2 of 1/n^2, via zeta(2)
        r = sum_lattice(lambda n: 0.0 if n < 2 else 1.0 / n ** 2, "Z+", rel_tol=1e-9)
        assert abs(r.value - exact) <= r.tail_bound + 1e-12 * exact

    def test_two_sided_equals_folded(self):
        term = lambda n: 1.0 / (1.0 + float(n) ** 4)
        full = sum_lattice(term, "Z")
        half = sum_lattice(lambda n: term(n) + term(-n) if n > 0 else 0.0, "Z+")
        assert full.value - term(0) == pytest.approx(half.value, rel=2e-10)

    def test_finite_support_terminates(self):
        r = sum_lattice(lambda n: 1.0 if abs(n) <= 3 else 0.0, "Z")
        assert r.value == pytest.approx(7.0)
        assert r.tail_bound == 0.0

    def test_no_decay_raises(self):
        with pytest.raises(NonConvergenceError):
            sum_lattice(lambda n: 1.0, "Z+", max_terms=3000)

    @pytest.mark.parametrize("index_set", ["Z", "Z+"])
    def test_scalar_calls_only_at_zero_and_each_edge(self, index_set):
        # an array-aware term is called per block; on scalars only at n = 0
        # and once at the edge of each block that shows decay
        scalars = []

        def term(n):
            if np.ndim(n) == 0:
                scalars.append(n)
            return 1.0 / (1.0 + np.abs(n)) ** 2

        r = sum_lattice(term, index_set, rel_tol=1e-8)
        sides = 2 if index_set == "Z" else 1
        assert scalars[0] == 0 and len(scalars) > 1
        edges = [abs(n) for n in scalars[1:]]
        assert len(edges) == sides * len(set(edges))
        assert max(edges) == r.terms_used - 1  # the last block's edge

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(2.2, 6.0), c=st.floats(0.1, 5.0))
    def test_two_sided_split_identity(self, p, c):
        term = lambda n: c / (1.0 + abs(float(n)) ** p)
        full = sum_lattice(term, "Z", rel_tol=1e-8)
        folded = sum_lattice(lambda n: term(n) + term(-n) if n >= 1 else term(0), "Z+",
                             rel_tol=1e-8)
        assert full.value == pytest.approx(folded.value, rel=2e-8)


class TestSolveMonotone:
    def test_algebraic_inverse(self):
        assert solve_monotone(lambda t: 1 / (1 + t), 0.5) == pytest.approx(1.0, rel=1e-9)

    def test_square_inverse(self):
        assert solve_monotone(lambda t: 1 / (1 + t) ** 2, 0.25) == pytest.approx(1.0, rel=1e-9)

    def test_two_atom_target(self):
        # N(tau) of the two-atom setting; forward value frozen at tau = 1
        def n_of_tau(tau):
            return math.sqrt(1.0 / (1 + tau) ** 2 + 4.0 / (1 + 16 * tau) ** 2)

        target = math.sqrt(305) / 34
        assert solve_monotone(n_of_tau, target) == pytest.approx(1.0, rel=1e-8)

    def test_out_of_range_high(self):
        with pytest.raises(TargetOutOfRangeError) as err:
            solve_monotone(lambda t: 1 / (1 + t), 2.0)
        assert err.value.limit == "small-tau"

    def test_out_of_range_low(self):
        with pytest.raises(TargetOutOfRangeError) as err:
            solve_monotone(lambda t: 1.0 + 1 / (1 + t), 0.5)
        assert err.value.limit == "large-tau"

    # at 1e200 the bisection midpoint sqrt(lo*hi) would underflow (overflow at 1e-200)
    @pytest.mark.parametrize("scale", [1e24, 1e200])
    def test_bracket_widens_below_1e_minus_8(self, scale):
        fn = lambda t: 1.0 / (1.0 + scale * t)
        assert solve_monotone(fn, 0.1) == pytest.approx(9.0 / scale, rel=1e-10)

    @pytest.mark.parametrize("scale", [1e-30, 1e-200])
    def test_bracket_widens_above_cap(self, scale):
        fn = lambda t: 1.0 / (1.0 + scale * t)
        assert solve_monotone(fn, 0.1) == pytest.approx(9.0 / scale, rel=1e-10)

    def test_bracket_untouched_where_it_held(self):
        probes = []

        def fn(t):
            probes.append(t)
            return 1.0 / (1.0 + t)

        solve_monotone(fn, 0.5)
        assert probes[:2] == [1e-8, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(tau_true=st.floats(1e-5, 1e5), scale=st.floats(0.1, 10))
    def test_roundtrip_random(self, tau_true, scale):
        fn = lambda t: scale / (1.0 + t)
        target = fn(tau_true)
        got = solve_monotone(fn, target)
        assert fn(got) == pytest.approx(target, rel=1e-10)


class TestSupSearch:
    def test_rational_peak(self):
        r = sup_search(lambda t: t * t / (1 + t ** 4), growth=-2.0)
        assert r.value == pytest.approx(0.5, abs=1e-12)
        assert abs(abs(r.location) - 1.0) < 1e-5

    def test_constant_zero(self):
        r = sup_search(lambda t: 0.0, growth=-1.0)
        assert r.value == 0.0

    def test_monotone_decay_from_center(self):
        r = sup_search(lambda t: 1 / (1 + t * t), growth=-2.0)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert abs(r.location) < 1e-6

    def test_growth_metadata_reports_infinite(self):
        r = sup_search(lambda t: t * t, growth=2.0)
        assert math.isinf(r.value)
        assert r.at_infinity

    def test_sup_at_infinity_detected(self):
        r = sup_search(lambda t: t * t / (1.0 + t * t), growth=0.0)
        assert r.value == pytest.approx(1.0, abs=1e-6)
        assert r.at_infinity

    def test_never_below_dense_grid(self):
        fn = lambda t: (t - 0.3) ** 2 / (1 + t ** 4)
        r = sup_search(fn, growth=-2.0)
        us = np.linspace(-0.999999, 0.999999, 20011)
        ts = us / (1 - us * us)
        dense = max(fn(float(t)) for t in ts)
        assert r.value >= dense - 1e-12
