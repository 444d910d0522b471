"""CLI: output schema, determinism, exit codes."""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from stechkin import core
from stechkin.cli import (
    EXIT_ADMISSIBILITY,
    EXIT_CONFIG,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VERIFICATION,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def single_atom(tmp_path):
    p = tmp_path / "single_atom.json"
    p.write_text(json.dumps({"type": "discrete", "atoms": [{"t": 1.0, "w": 1.0}]}))
    return str(p)


@pytest.fixture
def two_atom(tmp_path):
    p = tmp_path / "two_atom.json"
    p.write_text(json.dumps({"type": "discrete",
                             "atoms": [{"t": 1.0, "w": 1.0}, {"t": 2.0, "w": 1.0}]}))
    return str(p)


class TestConstants:
    def test_single_atom(self, capsys, single_atom):
        code, out, _ = run_cli(capsys, "constants", "--measure", single_atom,
                               "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["N"] == 0.5 and data["M"] == 0.5 and data["E"] == 0.5
        assert "rel_tol" in data  # no bare numbers

    def test_seventeen_digit_floats(self, capsys, two_atom):
        code, out, _ = run_cli(capsys, "constants", "--measure", two_atom,
                               "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK
        assert "0.51365438813449" in out
        assert json.loads(out)["N"] == pytest.approx(math.sqrt(305) / 34, rel=1e-15)

    def test_csv_sweep_rows(self, capsys, single_atom):
        code, out, _ = run_cli(capsys, "constants", "--measure", single_atom,
                               "--phi", "pow:1", "--psi", "pow:2",
                               "--tau-grid", "0.1:10:5", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "tau,N,M,E,rel_tol"
        assert len(lines) == 6

    def test_builtin_lattice(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--measure", "unit-lattice",
                               "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK
        assert json.loads(out)["N"] ** 2 == pytest.approx(0.531046991776717, abs=1e-7)

    def test_table_symbols_on_uniform_lattice(self, capsys, tmp_path):
        # table symbols are zero off their tables: only n = 1 and n = 2 count
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"1": 1.0, "2": 0.5}))
        b.write_text(json.dumps({"1": 2.0, "2": 3.0}))
        code, out, _ = run_cli(capsys, "constants", "--measure", "unit-lattice",
                               "--phi", f"table:{a}", "--psi", f"table:{b}", "--tau", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["N"] ** 2 == pytest.approx(1 / 25 + 0.25 / 100, rel=1e-14)
        assert data["M"] ** 2 == pytest.approx(4 / 25 + 0.25 * 9 / 100, rel=1e-14)

    def test_env_var_overrides_default_tolerance(self, capsys, single_atom, monkeypatch):
        monkeypatch.setenv("STECHKIN_REL_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "constants", "--measure", single_atom,
                               "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK
        assert json.loads(out)["rel_tol"] == 1e-6

    def test_env_var_rejected_when_invalid(self, capsys, single_atom, monkeypatch):
        monkeypatch.setenv("STECHKIN_REL_TOL", "7")
        code, _, _ = run_cli(capsys, "constants", "--measure", single_atom,
                             "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_CONFIG


class TestSolveTau:
    def test_roundtrip(self, capsys, single_atom):
        code, out, _ = run_cli(capsys, "solve-tau", "--measure", single_atom,
                               "--phi", "pow:1", "--psi", "pow:2", "--n-target", "0.25")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["tau"] == pytest.approx(3.0, rel=1e-8)
        assert data["E"] == pytest.approx(0.75, rel=1e-8)

    def test_out_of_range_exit_code(self, capsys, single_atom):
        code, _, err = run_cli(capsys, "solve-tau", "--measure", single_atom,
                               "--phi", "pow:1", "--psi", "pow:2", "--n-target", "5.0")
        assert code == EXIT_ADMISSIBILITY
        assert "limit" in err


class TestTaikov:
    def test_closed_forms(self, capsys):
        code, out, _ = run_cli(capsys, "taikov", "--k", "1", "--r", "2", "--h", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["a"] == pytest.approx(0.297302, abs=1e-6)
        assert data["b"] == pytest.approx(0.514942, abs=1e-6)
        assert data["N"] == data["a"] and data["E"] == data["b"]


class TestLineCircleOpolyHlp:
    def test_line(self, capsys):
        code, out, _ = run_cli(capsys, "line", "--phi", "pow:1", "--psi", "pow:2",
                               "--tau", "1")
        assert code == EXIT_OK
        assert json.loads(out)["N"] == pytest.approx(0.745225, abs=1e-6)

    def test_line_inadmissible_exit(self, capsys):
        code, _, err = run_cli(capsys, "line", "--phi", "pow:2", "--psi", "pow:1",
                               "--tau", "1")
        assert code == EXIT_ADMISSIBILITY

    def test_circle(self, capsys):
        code, out, _ = run_cli(capsys, "circle", "--phi", "pow:1", "--psi", "pow:2",
                               "--tau", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["N"] ** 2 == pytest.approx(0.531047, abs=1e-5)
        assert data["tail_bound"] >= 0.0

    def test_opoly(self, capsys):
        code, out, _ = run_cli(capsys, "opoly", "--family", "jacobi", "--alpha", "0",
                               "--beta", "0", "--t", "0.0", "--phi", "pow:1",
                               "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["N"] == pytest.approx(0.09391931117209237, rel=1e-9)
        assert data["truncation"] >= 64

    def test_opoly_chebyshev(self, capsys):
        # alpha + beta = -1: the recurrence's b_1 is 0/0; F_n(cos th) = (2/pi)^(1/2) cos(n th)
        code, out, err = run_cli(capsys, "opoly", "--family", "jacobi", "--alpha", "-0.5",
                                 "--beta", "-0.5", "--t", "0.3", "--phi", "pow:1",
                                 "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK and "Traceback" not in err
        th = math.acos(0.3)
        n2 = math.fsum(2 / math.pi * n ** 2 * math.cos(n * th) ** 2 / (1 + n ** 4) ** 2
                       for n in range(1, 2000))
        assert json.loads(out)["N"] == pytest.approx(math.sqrt(n2), rel=1e-12)

    def test_circle_table_symbols(self, capsys, tmp_path):
        # the circle is a lattice setting: the tables' constants are those of the unit lattice
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"1": 1.0, "2": 0.5}))
        b.write_text(json.dumps({"1": 2.0, "2": 3.0}))
        tables = ("--phi", f"table:{a}", "--psi", f"table:{b}", "--tau", "1")
        code, out, _ = run_cli(capsys, "circle", *tables)
        assert code == EXIT_OK
        circle = json.loads(out)
        _, out, _ = run_cli(capsys, "constants", "--measure", "unit-lattice", *tables)
        lattice = json.loads(out)
        assert (circle["N"], circle["E"]) == (lattice["N"], lattice["E"])
        assert circle["N"] == 0.20615528128088303 and circle["E"] == 0.42720018726587655

    def test_hlp_table_symbols(self, capsys, tmp_path):
        # a table phi is zero off its keys: the sup is the largest ratio on them, 1/(1+2^2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"1": 1.0, "2": 0.5}))
        b.write_text(json.dumps({"1": 2.0, "2": 3.0}))
        code, out, _ = run_cli(capsys, "hlp", "--phi", f"table:{a}", "--psi", f"table:{b}",
                               "--tau", "1")
        assert code == EXIT_OK
        assert json.loads(out)["constant"] == math.sqrt(0.2)

    def test_hlp(self, capsys):
        code, out, _ = run_cli(capsys, "hlp", "--phi", "pow:1", "--psi", "pow:2",
                               "--tau", "1")
        assert code == EXIT_OK
        assert json.loads(out)["constant"] == pytest.approx(math.sqrt(0.5), rel=1e-10)

    def test_hlp_infinite(self, capsys):
        code, out, _ = run_cli(capsys, "hlp", "--phi", "pow:2", "--psi", "pow:1",
                               "--tau", "1")
        assert code == EXIT_OK
        assert json.loads(out)["constant"] == "inf"


class TestExtremal:
    def test_dump_with_residuals(self, capsys, two_atom):
        code, out, _ = run_cli(capsys, "extremal", "--measure", two_atom,
                               "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["functional_value"] == pytest.approx(25 / 34, rel=1e-12)
        assert data["residuals"]["additive_equality"] <= 1e-12
        assert data["norm_x"] == pytest.approx(data["N"])
        assert {"N", "M", "E", "tau", "norm_x", "norm_psi_x",
                "functional_value", "residuals"} <= set(data)


    def test_builds_the_element_once(self, capsys, two_atom, monkeypatch):
        calls = []
        integral = core.spectral_integral

        def counted(*args, **kwargs):
            calls.append(args)
            return integral(*args, **kwargs)

        monkeypatch.setattr(core, "spectral_integral", counted)
        code, _, _ = run_cli(capsys, "extremal", "--measure", two_atom,
                             "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_OK
        assert len(calls) == 3  # N^2, M^2 and the functional value


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--seed", "7",
                               "--count", "15")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["passed"] is True
        assert data["max_residual"] <= 1e-10

    def test_determinism_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "extremal", "--seed", "3",
                             "--count", "8")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "extremal", "--seed", "3",
                             "--count", "8")
        assert out1 == out2

    def test_opoly_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "opoly", "--seed", "1",
                               "--count", "10")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True


class TestExitCodes:
    def test_bad_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_CONFIG

    def test_bad_symbol_descriptor(self, capsys, single_atom):
        code, _, err = run_cli(capsys, "constants", "--measure", single_atom,
                               "--phi", "pow:x", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_CONFIG

    def test_missing_measure_file(self, capsys):
        code, _, _ = run_cli(capsys, "constants", "--measure", "/nonexistent.json",
                             "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_CONFIG

    def test_bad_tau_grid(self, capsys, single_atom):
        code, _, _ = run_cli(capsys, "constants", "--measure", single_atom,
                             "--phi", "pow:1", "--psi", "pow:2", "--tau-grid", "oops")
        assert code == EXIT_CONFIG


class TestInputBoundary:
    """Malformed or non-finite input exits 2 (configuration) or 3 (tau), never prints NaN."""

    @pytest.mark.parametrize("measure", [
        {"type": "discrete", "atoms": [{"t": math.nan, "w": 1.0}, {"t": 2.0, "w": 1.0}]},
        {"type": "discrete", "atoms": [{"t": 1.0, "w": math.inf}, {"t": 2.0, "w": 1.0}]},
        {"type": "lattice", "set": "Z", "weights": {"0": 1.0, "1": math.nan}},
        {"type": "lattice", "set": "Z", "uniform": math.inf},
        {"type": "density", "support": [[0.0, 1.0]], "density": math.nan},
        {"type": "lattice", "set": "Z", "weights": {"1.5": 1.0}},
        {"type": "lattice", "set": "Z", "weights": {"1": "heavy"}},
        [1, 2],
    ], ids=["nan-atom-t", "inf-atom-w", "nan-lattice-weight", "inf-uniform-weight",
            "nan-constant-density", "fractional-lattice-key", "non-numeric-weight",
            "json-array"])
    def test_bad_measure_file(self, capsys, tmp_path, measure):
        p = tmp_path / "measure.json"
        p.write_text(json.dumps(measure))
        code, out, err = run_cli(capsys, "constants", "--measure", str(p),
                                 "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_CONFIG
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("constants", "--measure", "unit-lattice", "--tau", "inf"),
        ("line", "--tau", "nan"),
        ("line", "--tau", "inf"),
        ("circle", "--tau", "nan"),
    ], ids=["constants-inf", "line-nan", "line-inf", "circle-nan"])
    def test_non_finite_tau(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--phi", "pow:1", "--psi", "pow:2")
        assert code == EXIT_ADMISSIBILITY
        assert out == ""

    @pytest.mark.parametrize("atoms, argv", [
        ([(1e150, 1.0), (2.0, 1.0)], ("constants", "--tau", "1")),
        ([(1e200, 1.0), (2.0, 1.0)], ("constants", "--tau", "1")),
        ([(1.0, 1.0)], ("constants", "--tau", "1e200")),
        ([(1.0, 1.0)], ("solve-tau", "--n-target", "1e-200")),
    ], ids=["atom-1e150", "atom-1e200", "tau-1e200", "n-target-1e-200"])
    def test_overflow_exits_nonconvergence(self, capsys, tmp_path, atoms, argv):
        p = tmp_path / "measure.json"
        p.write_text(json.dumps({"type": "discrete",
                                 "atoms": [{"t": t, "w": w} for t, w in atoms]}))
        code, out, err = run_cli(capsys, argv[0], "--measure", str(p),
                                 "--phi", "pow:1", "--psi", "pow:2", *argv[1:])
        assert code == EXIT_NONCONVERGENCE
        assert out == "" and "overflow" in err

    def test_lattice_index_beyond_float_range(self, capsys, tmp_path):
        p = tmp_path / "measure.json"
        p.write_text(json.dumps({"type": "lattice", "set": "Z", "weights": {"1" + "0" * 400: 1.0}}))
        code, out, err = run_cli(capsys, "constants", "--measure", str(p),
                                 "--phi", "pow:1", "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_CONFIG
        assert out == "" and "too large" in err

    def test_unresolvable_quadrature_exits_fast(self, capsys):
        # the M^2 integrand decays like |t|^-1.5: refinement toward the end of the
        # mapped interval reaches u = 1, where the map divides by zero
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "line", "--phi", "pow:0.25", "--psi", "pow:1",
                                 "--tau", "1e-3")
        assert time.perf_counter() - t0 < 5.0
        assert code == EXIT_NONCONVERGENCE
        assert out == "" and "Traceback" not in err


class TestExpansionEndpoints:
    def test_divergent_endpoint_series_exits_admissibility(self, capsys):
        code, out, err = run_cli(capsys, "opoly", "--family", "jacobi", "--alpha", "0.5",
                                 "--beta", "-0.3", "--t", "1", "--phi", "pow:1",
                                 "--psi", "pow:2", "--tau", "1")
        assert code == EXIT_ADMISSIBILITY
        assert out == "" and "Traceback" not in err


class TestNonConvergenceMessage:
    def test_known_growth_is_not_blamed_on_metadata(self, capsys):
        code, out, err = run_cli(capsys, "line", "--phi", "pow:0.25", "--psi", "pow:1",
                                 "--tau", "1e-3")
        assert code == EXIT_NONCONVERGENCE
        assert "metadata" not in err
        assert "growth exponent -1.5 < -1" in err

    def test_missing_metadata_is_named(self):
        from stechkin.errors import NonConvergenceError
        from stechkin.spectral import SpectralMeasure, _integral

        with pytest.raises(NonConvergenceError, match="no growth metadata"):
            _integral(SpectralMeasure.density(), lambda t: math.nan * t)


# the range's ends and awkward floats, and exponents spread evenly over it
MAGNITUDE = st.one_of(st.floats(1e-300, 1e300), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
LOCATION = st.builds(lambda m, neg: -m if neg else m, MAGNITUDE, st.booleans())
WEIGHT = st.floats(0.0, 1e300)
INDEX = st.one_of(st.integers(-50, 50), st.integers(-10 ** 300, 10 ** 300))
MEASURE = st.one_of(
    st.builds(lambda atoms: {"type": "discrete", "atoms": [{"t": t, "w": w} for t, w in atoms]},
              st.lists(st.tuples(LOCATION, WEIGHT), min_size=1, max_size=12,
                       unique_by=lambda a: a[0])),
    st.builds(lambda index_set, weights: {"type": "lattice", "set": index_set, "weights": {
                  str(abs(n) if index_set == "Z+" else n): w for n, w in weights.items()}},
              st.sampled_from(["Z", "Z+"]), st.dictionaries(INDEX, WEIGHT, min_size=1, max_size=12)),
)


class TestFuzzedMeasureFiles:
    """Random finitely supported measure files: a documented exit code, never NaN on success."""

    @pytest.mark.parametrize("command", ["constants", "solve-tau", "extremal"])
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(measure=MEASURE, a=st.integers(0, 4), b=st.integers(0, 4), value=MAGNITUDE)
    def test_main_exits_cleanly(self, tmp_path_factory, command, measure, a, b, value):
        path = tmp_path_factory.getbasetemp() / "fuzzed_measure.json"
        path.write_text(json.dumps(measure))
        argv = [command, "--measure", str(path), "--phi", f"pow:{a}", "--psi", f"pow:{b}",
                "--n-target" if command == "solve-tau" else "--tau", repr(value)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ADMISSIBILITY, EXIT_NONCONVERGENCE,
                        EXIT_VERIFICATION)
        assert code != EXIT_OK or "nan" not in out.getvalue()
