"""CLI stdout bytes and exit codes pinned on a fixed set of invocations.

``tests/golden/<name>.out`` holds the exact stdout of each case in
:data:`CASES` and ``tests/golden/exit_codes.json`` its exit code.  After an
intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden_cli.py

and record which files changed and why.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from stechkin.cli import main

GOLDEN = Path(__file__).parent / "golden"
TWO_ATOM = str(GOLDEN / "two_atom.json")
NINE_ATOM = str(GOLDEN / "nine_atom.json")  # enough atoms for the one-array-call sum
FINITE_LATTICE = str(GOLDEN / "finite_lattice.json")  # Z+ weights, keys out of order
POWS = ("--phi", "pow:1", "--psi", "pow:2")
SWEEP = ("--tau-grid", "0.1:10:5")
CSV = ("--format", "csv")

CASES = {
    "constants-lebesgue": ("constants", "--measure", "lebesgue", *POWS, "--tau", "1"),
    "constants-lebesgue-csv": ("constants", "--measure", "lebesgue", *POWS, "--tau", "1", *CSV),
    "constants-lebesgue-sweep": ("constants", "--measure", "lebesgue", *POWS, *SWEEP),
    "constants-lebesgue-sweep-csv": ("constants", "--measure", "lebesgue", *POWS, *SWEEP, *CSV),
    "constants-lattice": ("constants", "--measure", "unit-lattice", *POWS, "--tau", "1"),
    "constants-lattice-csv": ("constants", "--measure", "unit-lattice", *POWS, "--tau", "1", *CSV),
    "constants-lattice-sweep": ("constants", "--measure", "unit-lattice", *POWS, *SWEEP),
    "constants-lattice-sweep-csv": ("constants", "--measure", "unit-lattice", *POWS, *SWEEP, *CSV),
    # slow n^-2 decay: 135,042 terms, through the largest (262,144-term) blocks
    "constants-lattice-long-sweep-csv": ("constants", "--measure", "unit-lattice",
                                         "--phi", "pow:0", "--psi", "pow:1",
                                         "--tau-grid", "1e-4:1e2:4", *CSV),
    "line": ("line", *POWS, "--tau", "1"),
    "line-csv": ("line", *POWS, "--tau", "1", *CSV),
    "line-sweep": ("line", *POWS, *SWEEP),
    "line-sweep-csv": ("line", *POWS, *SWEEP, *CSV),
    "line-rel-tol-1e-13": ("line", *POWS, "--tau", "1", "--rel-tol", "1e-13"),
    "line-inadmissible": ("line", "--phi", "pow:2", "--psi", "pow:1", "--tau", "1"),
    "circle": ("circle", *POWS, "--tau", "1"),
    "circle-csv": ("circle", *POWS, "--tau", "1", *CSV),
    "circle-sweep": ("circle", *POWS, *SWEEP),
    "circle-sweep-csv": ("circle", *POWS, *SWEEP, *CSV),
    "circle-long": ("circle", "--phi", "pow:0", "--psi", "pow:1", "--tau", "1e-4"),
    "solve-tau-two-atom": ("solve-tau", "--measure", TWO_ATOM, *POWS, "--n-target", "0.5"),
    "solve-tau-lebesgue": ("solve-tau", "--measure", "lebesgue", *POWS, "--n-target", "0.5"),
    "extremal-two-atom": ("extremal", "--measure", TWO_ATOM, *POWS, "--tau", "1"),
    "constants-nine-atom": ("constants", "--measure", NINE_ATOM, *POWS, "--tau", "1"),
    "constants-finite-lattice": ("constants", "--measure", FINITE_LATTICE, *POWS, "--tau", "1"),
    "solve-tau-finite-lattice": ("solve-tau", "--measure", FINITE_LATTICE, *POWS,
                                 "--n-target", "0.5"),
    "extremal-finite-lattice": ("extremal", "--measure", FINITE_LATTICE, *POWS, "--tau", "1"),
    "extremal-lebesgue": ("extremal", "--measure", "lebesgue", *POWS, "--tau", "1"),
    "opoly": ("opoly", "--family", "jacobi", "--alpha", "0", "--beta", "0", "--t", "0.0",
              *POWS, "--tau", "1"),
    # capped expansions: each runs to the 10,000-degree cap
    "opoly-hermite": ("opoly", "--family", "hermite", "--t", "0.3", *POWS, "--tau", "1"),
    "opoly-laguerre": ("opoly", "--family", "laguerre", "--alpha", "0.5", "--t", "0.3",
                       *POWS, "--tau", "1"),
    "opoly-jacobi": ("opoly", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3",
                     "--t", "0.3", *POWS, "--tau", "1"),
    "hlp": ("hlp", *POWS, "--tau", "1"),
    # a bounded domain takes the supremum search, not the closed form
    "hlp-bounded-domain": ("hlp", *POWS, "--tau", "1", "--domain-lo", "0", "--domain-hi", "0.5"),
    "verify-lemmas": ("verify", "--suite", "lemmas"),
    "verify-opoly": ("verify", "--suite", "opoly"),
}


def run_case(name):
    """Run one case in-process; return (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(CASES[name]))
    return code, out.getvalue().encode()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, exit_codes, monkeypatch):
    monkeypatch.delenv("STECHKIN_REL_TOL", raising=False)
    code, out = run_case(name)
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    os.environ.pop("STECHKIN_REL_TOL", None)
    codes = {}
    for case in sorted(CASES):
        codes[case], stdout = run_case(case)
        (GOLDEN / f"{case}.out").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
