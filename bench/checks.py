"""Checks of every operation's output against :mod:`reference`.

Each ``check_<workload>`` takes the list of (spec, output) pairs of a run
and returns, per pair, ``None`` when the output passes or a one-line
reason when it does not; an output the check cannot read fails too.
Tolerances are the ones the program states for its own outputs, with the
slack each comment gives.
"""

from __future__ import annotations

import math

from reference import atom_sums, expansion_sums, lattice_ne, lattice_ne_coth, lebesgue_ne

RTOL = 1e-10  # DEFAULT_RTOL of stechkin.core: every constant of these calls claims it
ROOT_RTOL = 1e-9  # solve_tau's root tolerance on density measures, max(1e-12, 10 * RTOL)
ROUND_RTOL = 1e-11  # atom sums: the program and numpy differ only by rounding
TAIL_HORIZON = 16  # the tail check carries the reference to 16x the reported truncation


def _miss(name, got, ref, tol):
    """Reason string when |got - ref| > tol (or either is not finite)."""
    if not (math.isfinite(got) and math.isfinite(ref)) or abs(got - ref) > tol:
        return f"{name} = {got!r}, reference {ref!r} (tolerance {tol:.3g})"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _per_op(check):
    """Apply a one-operation check to every pair; an output it cannot read fails."""
    def run(pairs, *args):
        out = []
        for spec, res in pairs:
            try:
                out.append(check(spec, res, *args))
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                out.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return out
    return run


@_per_op
def check_density(spec, res):
    n_ref, e_ref = lebesgue_ne(spec["k"], spec["r"], res["tau"], spec["support"] == "R+")
    return _first(
        _miss("N", res["N"], n_ref, RTOL * n_ref),
        _miss("E", res["E"], e_ref, RTOL * e_ref),
        _miss("N - target", res["N"], spec["target"], ROOT_RTOL * spec["target"]),
    )


def _parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


@_per_op
def check_lattice(spec, res):
    if res["code"] != 0:
        return f"exit code {res['code']}: {res['stderr'].strip()}"
    header, rows = _parse_csv(res["stdout"])
    want = ["tau", "N", "M", "E", "rel_tol"] if spec["cmd"] == "constants" else \
        ["tau", "N", "E", "tail_bound"]
    if header != want or len(rows) != spec["steps"]:
        return f"CSV header {header} with {len(rows)} rows, expected {want} with {spec['steps']}"
    a, b, steps = spec["a"], spec["b"], spec["steps"]
    for i, row in enumerate(rows):
        tau = row["tau"]
        reason = _miss(f"tau[{i}]", tau, a * (b / a) ** (i / (steps - 1)), 1e-13 * tau)
        if i and row["N"] > rows[i - 1]["N"]:
            reason = reason or f"N increases along the grid at row {i}"
        n_ref, e_ref = lattice_ne(spec["k"], spec["r"], tau)
        # constants states a relative tolerance; circle states an absolute tail bound
        # next to its own rel_tol of 1e-9
        if spec["cmd"] == "constants":
            tol_n, tol_e = row["rel_tol"] * n_ref, row["rel_tol"] * e_ref
        else:
            tol_n, tol_e = row["tail_bound"] + 1e-9 * n_ref, row["tail_bound"] + 1e-9 * e_ref
        reason = _first(reason, _miss(f"N({tau:.6g})", row["N"], n_ref, tol_n),
                        _miss(f"E({tau:.6g})", row["E"], e_ref, tol_e))
        if (spec["k"], spec["r"]) == (0, 1):
            # the coth form loses about four digits to cancellation in M at large tau
            n_c, e_c = lattice_ne_coth(tau)
            reason = _first(reason, _miss(f"N({tau:.6g}) vs coth", row["N"], n_c, tol_n + 1e-9 * n_c),
                            _miss(f"E({tau:.6g}) vs coth", row["E"], e_c, tol_e + 1e-9 * e_c))
        if reason:
            return reason
    return None


def _readable_opoly(res) -> bool:
    return isinstance(res.get("truncation"), int) and res["truncation"] >= 0 and all(
        isinstance(res.get(key), float) and math.isfinite(res[key])
        for key in ("N", "E", "tail_bound"))


def check_opoly(pairs):
    """Check 1: sums to the reported truncation; check 2: tail honesty at 16x."""
    out = [None if _readable_opoly(res) else f"unreadable output: {res!r}" for _, res in pairs]
    batch = [(j, spec, res) for j, (spec, res) in enumerate(pairs) if out[j] is None]
    cases = [(spec["family"], spec["alpha"], spec["beta"], spec["t"], spec["k"], spec["r"],
              spec["tau"]) for _, spec, res in batch]
    cutoffs = [[res["truncation"], TAIL_HORIZON * res["truncation"]] for _, _, res in batch]
    sums = expansion_sums(cases, cutoffs) if batch else []
    for (j, spec, res), ((n2, m2), (n2_long, m2_long)) in zip(batch, sums):
        n_ref, e_ref = math.sqrt(n2), spec["tau"] * math.sqrt(m2)
        # every term is positive, so the longer reference sum is a certain lower bound
        shortfall = (math.sqrt(n2_long) - res["N"]) + (spec["tau"] * math.sqrt(m2_long) - res["E"])
        slack = 1e-12 * (res["N"] + res["E"])
        out[j] = _first(
            _miss("N at truncation", res["N"], n_ref, RTOL * n_ref),
            _miss("E at truncation", res["E"], e_ref, RTOL * e_ref),
            None if shortfall <= res["tail_bound"] + slack else
            f"tail: reference to degree {TAIL_HORIZON * res['truncation']} exceeds N + E by "
            f"{shortfall:.4g} > tail_bound {res['tail_bound']:.4g}",
        )
    return out


@_per_op
def check_atoms(spec, res, lemma_grid):
    atoms, k, r, tau = spec["atoms"], spec["k"], spec["r"], spec["tau"]
    n2, m2, h2 = atom_sums(atoms, k, r, tau)
    s = res["solve"]
    n2_star = atom_sums(atoms, k, r, s["tau"])[0]
    lem = res["lemma"]
    n_lo = math.sqrt(atom_sums(atoms, k, r, lemma_grid[0])[0])
    n_hi = math.sqrt(atom_sums(atoms, k, r, lemma_grid[-1])[0])
    h = res["h"]
    return _first(
        _miss("N^2", res["N"] ** 2, n2, ROUND_RTOL * n2),
        _miss("M^2", res["M"] ** 2, m2, ROUND_RTOL * m2),
        _miss("E", res["E"], tau * math.sqrt(m2), ROUND_RTOL * tau * math.sqrt(m2)),
        _miss("||x||^2", res["norm_x"] ** 2, n2, ROUND_RTOL * n2),
        _miss("||psi x||^2", res["norm_psi_x"] ** 2, m2, ROUND_RTOL * m2),
        _miss("F(x)", res["functional_value"], h2, ROUND_RTOL * h2),
        _miss("equality defect", res["residual"], 0.0, RTOL * h2),
        _miss("h^2", h * h, h2, ROUND_RTOL * h2),
        _miss("h^2 - (N^2 + tau M^2)", h * h, n2 + tau * m2, ROUND_RTOL * h2),
        _miss("N(tau*) - target", math.sqrt(n2_star), spec["target"], RTOL * spec["target"]),
        _miss("solve N", s["N"] ** 2, n2_star, ROUND_RTOL * n2_star),
        _miss("oracle residual", res["oracle_max_residual"], 0.0, 1e-8),
        None if lem["violations"] == 0 else f"{lem['violations']} monotonicity violations",
        _miss("continuity defect", lem["continuity"], 0.0, 1e-6),
        _miss("N(tau_min)", lem["limit_tau0"], n_lo, ROUND_RTOL * n_lo),
        _miss("N(tau_max)", lem["limit_tau_inf"], n_hi, ROUND_RTOL * n_hi),
    )
