"""Symbols, measures, spectral integrals and admissibility checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stechkin import (
    ConfigError,
    SpectralMeasure,
    Symbol,
    check_admissibility,
    norm_phi_f,
    parse_symbol,
    spectral_integral,
)
from stechkin.core import hlp_constant
from stechkin.spectral import _integral, weight

INF = math.inf


class TestSymbol:
    def test_power_integer_keeps_sign(self):
        p = Symbol.power(1)
        assert p(-2.0) == -2.0
        assert Symbol.power(3)(-2.0) == -8.0

    def test_power_fractional_uses_modulus(self):
        p = Symbol.power(1.5)
        assert p(-4.0) == pytest.approx(8.0)

    def test_power_zero_is_one_everywhere(self):
        p = Symbol.power(0)
        assert p(0.0) == 1.0
        assert p(-7.0) == 1.0

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ConfigError):
            Symbol.power(-1.0)

    def test_zero_symbol(self):
        z = Symbol.zero()
        assert z(3.0) == 0.0
        assert z.is_zero

    def test_array_evaluation_is_float(self):
        p = Symbol.power(4)
        out = p(np.arange(1, 100000, 40000))
        assert out.dtype == np.float64
        assert out[-1] == pytest.approx(80001.0 ** 4, rel=1e-12)

    def test_table_lookup(self):
        s = Symbol.from_table({0: 1.0, 2: -0.5})
        assert s(0.0) == 1.0
        assert s(2.0) == -0.5
        assert s(1.0) == 0.0
        with pytest.raises(ValueError):
            s(0.5)

    def test_parse_descriptors(self):
        assert parse_symbol("pow:2.5").alpha == 2.5
        assert parse_symbol("zero").is_zero
        with pytest.raises(ConfigError):
            parse_symbol("nope:1")

    def test_parse_table_file(self, tmp_path):
        p = tmp_path / "sym.json"
        p.write_text(json.dumps({"0": 1.0, "2": [0.0, 1.0], "_growth": 0.0}))
        s = parse_symbol(f"table:{p}")
        assert s(0.0) == 1.0
        assert s(2.0) == 1j
        assert s(5.0) == 0.0
        assert s.growth_order == 0.0
        with pytest.raises(ConfigError):
            parse_symbol("table:/nonexistent.json")


class TestMeasures:
    def test_discrete_validation(self):
        with pytest.raises(ConfigError):
            SpectralMeasure.discrete([(1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ConfigError):
            SpectralMeasure.discrete([(1.0, -1.0)])

    def test_total_mass(self):
        assert SpectralMeasure.discrete([(1, 1), (2, 0.5)]).total_mass() == 1.5
        assert math.isinf(SpectralMeasure.lattice("Z", uniform=1.0).total_mass())
        assert SpectralMeasure.lattice("Z", weights={0: 1.0, 3: 2.0}).total_mass() == 3.0
        assert math.isinf(SpectralMeasure.density().total_mass())
        assert SpectralMeasure.density([(0, 2)], 1.0).total_mass() == pytest.approx(2.0)

    def test_json_roundtrip(self):
        for m in (
            SpectralMeasure.discrete([(1.0, 1.0), (2.0, 1.0)]),
            SpectralMeasure.lattice("Z", uniform=1.0),
            SpectralMeasure.lattice("Z+", weights={0: 1.0, 5: 0.25}),
            SpectralMeasure.density(),
        ):
            again = SpectralMeasure.from_json(json.loads(json.dumps(m.to_json())))
            assert again.variant == m.variant
            assert again.to_json() == m.to_json()

    def test_lattice_rejects_both_weight_forms(self):
        with pytest.raises(ConfigError):
            SpectralMeasure.lattice("Z", weights={0: 1.0}, uniform=1.0)


class TestSpectralIntegral:
    def test_single_atom(self):
        m = SpectralMeasure.discrete([(1.0, 1.0)])
        assert spectral_integral(m, lambda t: t * t) == 1.0

    def test_two_atoms(self):
        m = SpectralMeasure.discrete([(1.0, 1.0), (2.0, 1.0)])
        assert spectral_integral(m, lambda t: t * t) == 5.0

    def test_density_rational(self):
        m = SpectralMeasure.density()
        v = spectral_integral(m, lambda t: t * t / (1 + t ** 4) ** 2, growth=-6.0)
        assert v == pytest.approx(math.pi * math.sqrt(2) / 8, rel=1e-10)

    def test_divergence_flagged_infinite(self):
        m = SpectralMeasure.lattice("Z", uniform=1.0)
        assert math.isinf(norm_phi_f(m, Symbol.power(1)))

    def test_norm_phi_f_finite(self):
        m = SpectralMeasure.discrete([(1.0, 1.0), (2.0, 1.0)])
        assert norm_phi_f(m, Symbol.power(1)) == pytest.approx(math.sqrt(5.0))
        assert norm_phi_f(m, Symbol.zero()) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(st.floats(-5, 5), st.floats(0, 2)), min_size=1, max_size=8,
            unique_by=lambda a: a[0],
        ),
        c=st.floats(0.1, 3.0),
    )
    def test_monotone_in_weight(self, atoms, c):
        m = SpectralMeasure.discrete(atoms)
        w1 = lambda t: 1.0 / (1.0 + t * t)
        w2 = lambda t: (1.0 + c) / (1.0 + t * t)
        assert spectral_integral(m, w1) <= spectral_integral(m, w2) + 1e-15

    @settings(max_examples=40, deadline=None)
    @given(
        atoms1=st.lists(st.tuples(st.floats(0.1, 5), st.floats(0, 2)), min_size=1,
                        max_size=5, unique_by=lambda a: a[0]),
        atoms2=st.lists(st.tuples(st.floats(-5, -0.1), st.floats(0, 2)), min_size=1,
                        max_size=5, unique_by=lambda a: a[0]),
    )
    def test_additive_in_measure(self, atoms1, atoms2):
        w = lambda t: 1.0 + t * t
        m1 = SpectralMeasure.discrete(atoms1)
        m2 = SpectralMeasure.discrete(atoms2)
        m12 = SpectralMeasure.discrete(list(atoms1) + list(atoms2))
        lhs = spectral_integral(m12, w)
        rhs = spectral_integral(m1, w) + spectral_integral(m2, w)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestAdmissibility:
    def test_power_pair_admissible(self):
        rep = check_admissibility(Symbol.power(1), Symbol.power(2), SpectralMeasure.density())
        assert rep.condition_holds is True
        assert rep.l2_condition_holds is True
        # sup_t |t|/(1+t^4)^(1/2) = (1/2)^(1/2) at |t| = 1
        assert rep.ess_sup_estimate == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_power_pair_inadmissible(self):
        rep = check_admissibility(Symbol.power(2), Symbol.power(1), SpectralMeasure.density())
        assert rep.condition_holds is False
        assert math.isinf(rep.ess_sup_estimate)

    def test_zero_numerator(self):
        rep = check_admissibility(Symbol.zero(), Symbol.power(2),
                                  SpectralMeasure.discrete([(1, 1)]))
        assert rep.condition_holds is True
        assert rep.ess_sup_estimate == 0.0

    def test_power_rule_matches_analytic(self):
        # alpha_phi <= alpha_psi is the boundedness rule for power pairs
        for a in (0.5, 1.0, 2.0, 3.0):
            for b in (0.5, 1.0, 2.0, 3.0):
                rep = check_admissibility(Symbol.power(a), Symbol.power(b),
                                          SpectralMeasure.density())
                assert rep.condition_holds is (a <= b)

    def test_custom_without_growth_is_undecidable(self):
        phi = Symbol.custom(lambda t: math.sin(t) * t)
        rep = check_admissibility(phi, Symbol.power(2), SpectralMeasure.density())
        assert rep.condition_holds is None
        assert "undecidable" in rep.notes

    @pytest.mark.parametrize("phi, psi", [
        (Symbol.power(1), Symbol.power(2)),
        (Symbol.custom(lambda t: t, growth_order=1.0),
         Symbol.custom(lambda t: t * t, growth_order=2.0)),
        (Symbol.from_table({1: 1.0, 2: 0.5}), Symbol.from_table({1: 2.0, 2: 3.0})),
    ], ids=["power", "custom-with-growth", "table"])
    def test_sup_estimate_is_hlp_constant_at_tau_one(self, phi, psi):
        rep = check_admissibility(phi, psi, SpectralMeasure.lattice("Z", uniform=1.0))
        assert rep.condition_holds is True
        assert rep.ess_sup_estimate == hlp_constant(phi, psi, 1.0)

    def test_zero_phi_decided_without_psi_metadata(self):
        rep = check_admissibility(Symbol.zero(), Symbol.custom(np.sin), SpectralMeasure.density())
        assert rep.condition_holds is True
        assert rep.ess_sup_estimate == 0.0

    def test_l2_fails_for_slow_decay(self):
        # ratio^2 ~ t^-1 is not integrable
        rep = check_admissibility(Symbol.power(1.5), Symbol.power(2.0),
                                  SpectralMeasure.density())
        assert rep.condition_holds is True
        assert rep.l2_condition_holds is False

    def test_discrete_measure_l2_not_applicable(self):
        rep = check_admissibility(Symbol.power(1), Symbol.power(2),
                                  SpectralMeasure.discrete([(1, 1)]))
        assert rep.l2_condition_holds is None

    @pytest.mark.parametrize("measure", [
        SpectralMeasure.density(),
        SpectralMeasure.density(support=((0.0, math.inf),)),
        SpectralMeasure.lattice("Z", uniform=1.0),
    ], ids=["line", "half-line", "unit-lattice"])
    def test_l2_from_growth_metadata(self, measure):
        phi = Symbol.custom(lambda t: t, growth_order=1.0)
        psi = Symbol.custom(lambda t: t * t, growth_order=2.0)
        assert check_admissibility(phi, psi, measure).l2_condition_holds is True
        # sin t claims growth 2 but stays bounded: t^2/(1 + sin^2 t) is not summable
        bounded = Symbol.custom(np.sin, growth_order=2.0)
        assert check_admissibility(phi, bounded, measure).l2_condition_holds is False


def per_atom_sum(measure, w, weights=None):
    """Reference: one weight call per atom, in atom order, or per point of the
    ``weights`` mapping a finite lattice was built from, in sorted index order."""
    points = measure.atoms if weights is None else [
        (float(n), c) for n, c in sorted(weights.items())]
    return math.fsum(float(np.real(w(t))) * c for t, c in points)


class TestFiniteSupportRoute:
    """Discrete atoms and finite lattices: one array call of the weight, then fsum."""

    RNG = np.random.default_rng(7)
    ATOMS = SpectralMeasure.discrete(
        [(float(n), float(c)) for n, c in enumerate(RNG.uniform(0.1, 2.0, 3_001))])
    LATTICE_WEIGHTS = {n: float(c) for n, c in zip(range(-300, 301), RNG.uniform(0.0, 1.0, 601))}
    LATTICE = SpectralMeasure.lattice("Z", weights=LATTICE_WEIGHTS)

    @pytest.mark.parametrize("measure, weights", [(ATOMS, None), (LATTICE, LATTICE_WEIGHTS)],
                             ids=["discrete", "lattice"])
    @pytest.mark.parametrize("a, b", [(a, b) for a in range(4) for b in range(4)])
    def test_integer_powers_bit_equal_to_per_atom_loop(self, measure, weights, a, b):
        for tau in (1e-3, 1.0, 7.3):
            for p, q in ((0, 2), (1, 2), (0, 1)):
                w = weight(Symbol.power(a), Symbol.power(b), tau, p, q)
                res = _integral(measure, w)
                assert res.value == per_atom_sum(measure, w, weights)
                assert res.tail_bound == 0.0

    @pytest.mark.parametrize("measure, weights", [(ATOMS, None), (LATTICE, LATTICE_WEIGHTS)],
                             ids=["discrete", "lattice"])
    @pytest.mark.parametrize("a, b", [(2.5, 4), (1, 5), (0.5, 2.5), (4, 5)])
    def test_other_powers_within_1e_15(self, measure, weights, a, b):
        # numpy's power differs from libm's pow in the last bit at some points
        for tau in (1e-3, 1.0, 7.3):
            for p, q in ((0, 2), (1, 2), (0, 1)):
                w = weight(Symbol.power(a), Symbol.power(b), tau, p, q)
                want = per_atom_sum(measure, w, weights)
                assert abs(_integral(measure, w).value - want) <= 1e-15 * want

    # enough atoms for the array call: smaller measures always take the per-atom loop
    TEN = SpectralMeasure.discrete([(0.5 * k - 2.2, 1.0 + 0.1 * k) for k in range(10)])

    def test_scalar_only_custom_symbol(self):
        calls = []

        def fn(t):
            calls.append(t)
            return math.exp(-abs(t))  # raises on arrays of more than one point

        w = weight(Symbol.custom(fn, growth_order=0.0), Symbol.power(1), 2.0, 0, 2)
        got = _integral(self.TEN, w).value
        assert got == per_atom_sum(self.TEN, w)
        assert all(isinstance(t, float) for t in calls[-10:])

    def test_complex_custom_symbol(self):
        sizes = []

        def fn(t):
            sizes.append(np.size(t))
            return t * (1.0 + 2.0j)

        w = weight(Symbol.custom(fn, growth_order=1.0), Symbol.power(2), 1.0, 1, 2)
        got = _integral(self.TEN, w).value
        assert sizes == [10]
        assert got == pytest.approx(per_atom_sum(self.TEN, w), rel=1e-15)
        assert got == pytest.approx(math.fsum(
            5.0 * t * t * t ** 4 / (1.0 + t ** 4) ** 2 * c for t, c in self.TEN.atoms), rel=1e-15)

    def test_table_symbol_on_finite_lattice(self):
        phi = Symbol.from_table({-1: 2.0, 0: 1.0, 3: 1.0 - 1.0j})
        weights = {-1: 0.5, 0: 1.0, 2: 4.0, 3: 2.0, 4: 1.0, 5: 1.0, 6: 1.0, 7: 1.0}
        m = SpectralMeasure.lattice("Z", weights=weights)
        w = weight(phi, Symbol.power(1), 1.0, 0, 2)
        assert _integral(m, w).value == per_atom_sum(m, w, weights)
        assert _integral(m, w).value == pytest.approx(0.5 + 1.0 + 2.0 * 2.0 / 100.0, rel=1e-15)

    def test_weight_non_finite_on_the_array_falls_back(self):
        def w(t):
            return np.full(np.shape(t), np.nan) if isinstance(t, np.ndarray) else t * t

        assert _integral(self.TEN, w).value == math.fsum(t * t * c for t, c in self.TEN.atoms)

    def test_empty_measures(self):
        assert _integral(SpectralMeasure.discrete([]), np.ones_like).value == 0.0
        assert _integral(SpectralMeasure.lattice("Z", weights={}), np.ones_like).value == 0.0
