"""Seeded operation lists of the four workloads.

A run repeats *rounds* until its time is up.  Every round of a workload
has the same make-up: the same commands and symbol pairs in the same
order, and the remaining inputs (tau, the evaluation point, grid ends and
lengths, atom counts) at the points of one fixed low-discrepancy design
that spreads them evenly over their ranges.  So every round, and every
run, does almost exactly the same work.  The seed moves every design
point by a small jitter (``JITTER`` of its range) and draws the atom
positions and weights, from ``numpy.random.default_rng([seed, round])``:
one seed always gives the same operations in the same order, and no two
rounds or seeds repeat an input, so a cache keyed on inputs gains nothing.

Operations that fail because of a known fault use fixed inputs, carry a
``fault`` name and sit in every round, so the share of failed operations
is the same in every run.

An operation is a plain dict (a *spec*).  This module does not import
stechkin: the benchmark's parent process rebuilds the same specs to
compute its references.
"""

from __future__ import annotations

import math

import numpy as np

from reference import atom_sums, lebesgue_ne

WORKLOADS = ("density-solve", "lattice-sweep", "opoly-expansion", "discrete-atoms")

# power pairs |t|^k, |t|^r with 2k + 1 < 2r, k in {0, 1, 2}, r <= 5
PAIRS = [(k, r) for k in (0, 1, 2) for r in range(1, 6) if 2 * k + 1 < 2 * r]

# tau range of the seeded density solves; see README "Kept faults" for why it stops at 1e5
DENSITY_LOG_TAU = (-4.0, 5.0)

OPOLY_FAMILIES = {
    "hermite": ("hermite", 0.0, 0.0, (-3.0, 3.0)),
    "laguerre0": ("laguerre", 0.0, 0.0, (2.0, 8.0)),
    "laguerre0.5": ("laguerre", 0.5, 0.0, (2.0, 8.0)),
    "jacobi0,0": ("jacobi", 0.0, 0.0, (-0.95, 0.95)),
    "jacobi0.5,-0.3": ("jacobi", 0.5, -0.3, (-0.95, 0.95)),
}
# pairs that hit the 10,000-degree cap, and pairs that converge after 256-8192 terms
OPOLY_CAPPED = [(1, 2), (2, 3)]
OPOLY_EARLY = [(1, 3), (0, 2), (2, 4), (0, 2.5)]

LEMMA_GRID = np.geomspace(1e-4, 1e4, 50).tolist()

JITTER = 0.001
_WARMUP_ROUND = 10 ** 6  # rng stream of the warm-up operations


def _design(rng, n_ops: int, dims: int) -> np.ndarray:
    """(n_ops, dims) points in [0, 1): the round's fixed design plus a seeded jitter.

    The design is the first n_ops points of the R_d sequence (Roberts 2018:
    frac(1/2 + g * a) with a_i = 1/phi_d^(i+1), phi_d the positive root of
    x^(d+1) = x + 1); each point moves by at most JITTER.
    """
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = phi ** -np.arange(1.0, dims + 1.0)
    base = np.mod(0.5 + np.outer(np.arange(1, n_ops + 1), alpha), 1.0)
    return base * (1.0 - JITTER) + JITTER * rng.random((n_ops, dims))


# ----------------------------------------------------------------------
# density-solve


def density_spec(support: str, k: int, r: int, tau: float, fault: str | None = None) -> dict:
    n_target, _ = lebesgue_ne(k, r, tau, half_line=support == "R+")
    return {"support": support, "k": k, "r": r, "target": n_target, "fault": fault}


def _density_round(rng) -> list:
    combos = [(s, k, r) for s in ("R", "R+") for k, r in PAIRS]
    lo, hi = DENSITY_LOG_TAU
    x = _design(rng, len(combos), 1)[:, 0]
    ops = [density_spec(s, k, r, 10.0 ** (lo + (hi - lo) * u)) for (s, k, r), u in zip(combos, x)]
    ops += [density_spec("R", 1, 2, 1e6, "density-large-tau"),
            density_spec("R", 1, 2, 1e8, "density-large-tau")]
    return ops


# ----------------------------------------------------------------------
# lattice-sweep


def lattice_spec(cmd: str, k: int, r: int, a: float, b: float, steps: int) -> dict:
    argv = [cmd] + (["--measure", "unit-lattice"] if cmd == "constants" else [])
    argv += ["--phi", f"pow:{k}", "--psi", f"pow:{r}",
             "--tau-grid", f"{a:.17g}:{b:.17g}:{steps}", "--format", "csv"]
    return {"cmd": cmd, "k": k, "r": r, "a": a, "b": b, "steps": steps, "argv": argv,
            "fault": None}


def _lattice_round(rng) -> list:
    combos = [(cmd, k, r) for cmd in ("constants", "circle") for k, r in PAIRS]
    x = _design(rng, len(combos), 3)
    ops = []
    for (cmd, k, r), (u_steps, u_a, u_b) in zip(combos, x):
        ops.append(lattice_spec(cmd, k, r, 10.0 ** (-4.0 + 3.0 * u_a), 10.0 ** (1.0 + 3.0 * u_b),
                                4 + int(13 * u_steps)))
    return ops


# ----------------------------------------------------------------------
# opoly-expansion


def opoly_spec(family: str, k: float, r: float, tau: float, t: float,
               fault: str | None = None) -> dict:
    kind, alpha, beta, _ = OPOLY_FAMILIES[family]
    return {"family": kind, "alpha": alpha, "beta": beta, "k": k, "r": r, "tau": tau, "t": t,
            "fault": fault}


def _opoly_round(rng) -> list:
    combos = []
    for name, (kind, _, _, _) in OPOLY_FAMILIES.items():
        # capped pairs only where the envelope tail bound holds on the whole seeded
        # range of t; see README "Kept faults" for the Laguerre families
        pairs = OPOLY_EARLY if kind == "laguerre" else OPOLY_CAPPED + OPOLY_EARLY[:2]
        combos += [(name, k, r) for k, r in pairs]
    x = _design(rng, len(combos), 2)
    ops = []
    for (name, k, r), (u_tau, u_t) in zip(combos, x):
        lo, hi = OPOLY_FAMILIES[name][3]
        ops.append(opoly_spec(name, k, r, 10.0 ** (-2.0 + 4.0 * u_tau), lo + (hi - lo) * u_t))
    ops.append(opoly_spec("laguerre0", 1, 2.5, 1.0, 0.3, "opoly-tail-bound"))
    return ops


# ----------------------------------------------------------------------
# discrete-atoms


def atoms_spec(atoms, k: int, r: int, tau: float, fault: str | None = None) -> dict:
    n2, _, _ = atom_sums(atoms, k, r, tau)
    return {"atoms": [list(a) for a in atoms], "k": k, "r": r, "tau": tau,
            "target": 0.5 * math.sqrt(n2), "fault": fault}


def _atoms_round(rng) -> list:
    n_ops = 19
    x = _design(rng, n_ops, 2)
    ops = []
    for i, (u_n, u_tau) in enumerate(x):
        n = int(round(2.0 * 32.0 ** u_n))
        # |t| >= 0.5 keeps the solve for N(tau)/2 below solve_monotone's tau cap of 1e12
        # (see README, "Kept faults")
        locs = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 5.0, size=n)
        while len(set(locs.tolist())) < n:
            locs = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 5.0, size=n)
        weights = rng.uniform(0.05, 2.0, size=n)
        k, r = PAIRS[i % len(PAIRS)]
        ops.append(atoms_spec(list(zip(locs.tolist(), weights.tolist())), k, r,
                              10.0 ** (-2.0 + 4.0 * u_tau)))
    # N(tau) = 1e6/(1 + 4) = 2e5 on the atom (1e6, 1), so solve_tau asks for N = 1e5,
    # which needs tau ~ 9e-24
    ops.insert(n_ops // 2, atoms_spec([(1e6, 1.0)], 1, 2, 4e-24, "atoms-small-tau-bracket"))
    return ops


# ----------------------------------------------------------------------


def round_ops(workload: str, seed: int, index: int) -> list:
    """The operations of round ``index`` of ``workload`` under ``seed``."""
    rng = np.random.default_rng([seed, index])
    if workload == "density-solve":
        return _density_round(rng)
    if workload == "lattice-sweep":
        return _lattice_round(rng)
    if workload == "opoly-expansion":
        return _opoly_round(rng)
    if workload == "discrete-atoms":
        return _atoms_round(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str) -> list:
    """Untimed warm-up, the same whatever the seed: it pays each family's Gram
    gate and fills the recurrence cache for every cutoff up to the 10,000 cap."""
    if workload == "opoly-expansion":
        return [opoly_spec(name, 1, 2, 1.0, 0.5 * (lo + hi) + 0.1)
                for name, (_, _, _, (lo, hi)) in OPOLY_FAMILIES.items()]
    return round_ops(workload, 0, _WARMUP_ROUND)[:4]


def first_op(workload: str) -> dict:
    """The fixed first operation, timed in fresh interpreters as set-up."""
    if workload == "density-solve":
        return density_spec("R", 1, 2, 1.0)
    if workload == "lattice-sweep":
        return lattice_spec("constants", 1, 2, 1e-2, 1e2, 8)
    if workload == "opoly-expansion":
        return opoly_spec("jacobi0.5,-0.3", 1, 2, 1.0, 0.3)
    if workload == "discrete-atoms":
        locs = np.linspace(-4.0, 4.5, 16).tolist()
        return atoms_spec([(t, 1.0 + 0.05 * i) for i, t in enumerate(locs)], 1, 2, 1.0)
    raise ValueError(f"unknown workload {workload!r}")
