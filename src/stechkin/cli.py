"""Batch command-line interface.

Subcommands load measures and symbols from files or flags, run the library
operations, and emit machine-readable reports.  Every scalar in the JSON
output is printed with 17 significant digits next to its tolerance or tail
bound, keys are sorted, and a fixed seed makes verification runs
byte-identical across invocations.

Exit codes: 0 success, 2 bad configuration, 3 admissibility/range failure,
4 numerical non-convergence, 5 verification residual exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import core, numerics, oracle
from .applications import (
    TaikovParams,
    circle_constants,
    line_constants,
    opoly_constants,
    taikov_constants,
    taikov_exponent,
    taikov_law_constant,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    NonConvergenceError,
    StechkinError,
    TargetOutOfRangeError,
    VerificationError,
)
from .orthopoly import OrthogonalFamily, gram_matrix, ode_residual
from .spectral import SpectralMeasure, Symbol, parse_symbol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_NONCONVERGENCE = 4
EXIT_VERIFICATION = 5

ENV_RTOL = "STECHKIN_REL_TOL"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(float(x), ".17g")
    if isinstance(x, complex):
        return '{"im":%s,"re":%s}' % (_fmt(x.imag), _fmt(x.real))
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in sorted(x.items()))
        return "{" + inner + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in x) + "]"
    raise TypeError(f"cannot serialize {type(x)!r}")


def emit_json(payload: dict, stream=None) -> None:
    print(_fmt(payload), file=stream or sys.stdout)


def emit_csv(rows, header, stream=None) -> None:
    out = stream or sys.stdout
    print(",".join(header), file=out)
    for row in rows:
        print(",".join(format(float(v), ".17g") if isinstance(v, (int, float, np.floating))
                       else str(v) for v in row), file=out)


def _default_rtol(args) -> float:
    if getattr(args, "rel_tol", None) is not None:
        v = args.rel_tol
    else:
        v = float(os.environ.get(ENV_RTOL, numerics.DEFAULT_QUAD_RTOL))
    if not (0.0 < v < 1.0):
        raise ConfigError("rel_tol must lie in (0, 1)")
    return v


def _load_measure(path: str) -> SpectralMeasure:
    builtin = {
        "lebesgue": SpectralMeasure.density(),
        "unit-lattice": SpectralMeasure.lattice("Z", uniform=1.0),
    }
    if path in builtin:
        return builtin[path]
    return SpectralMeasure.load(path)


def _tau_grid(spec: str):
    try:
        a, b, steps = spec.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError as exc:
        raise ConfigError(f"bad tau grid {spec!r}; expected a:b:steps") from exc
    if not (0 < a < b and steps >= 2):
        raise ConfigError("tau grid needs 0 < a < b and steps >= 2")
    return np.geomspace(a, b, steps)


def _family(args) -> OrthogonalFamily:
    kind = args.family
    if kind == "hermite":
        return OrthogonalFamily.hermite()
    if kind == "laguerre":
        return OrthogonalFamily.laguerre(args.alpha)
    if kind == "jacobi":
        return OrthogonalFamily.jacobi(args.alpha, args.beta)
    raise ConfigError(f"unknown family {kind!r}")


def _emit_sweep(args, header, row) -> int:
    """One ``row(tau)`` per --tau-grid point, as CSV rows or JSON {"sweep": [...]}."""
    rows = [row(float(tau)) for tau in _tau_grid(args.tau_grid)]
    if args.format == "csv":
        emit_csv(rows, header)
    else:
        emit_json({"sweep": [dict(zip(header, r)) for r in rows]})
    return EXIT_OK


_SETTING_HEADER = ("tau", "N", "E", "tail_bound")


def _setting_row(pc):
    return pc.tau, pc.N_pt, pc.E_pt, pc.tail_bound


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_constants(args) -> int:
    rtol = _default_rtol(args)
    measure = _load_measure(args.measure)
    phi, psi = parse_symbol(args.phi), parse_symbol(args.psi)
    header = ("tau", "N", "M", "E", "rel_tol")
    def row(tau):
        c = core.best_approx(measure, phi, psi, tau, rel_tol=rtol)
        return c.tau, c.N, c.M, c.E, rtol
    if args.tau_grid:
        return _emit_sweep(args, header, row)
    if args.format == "csv":
        emit_csv([row(args.tau)], header)
    else:
        emit_json(dict(zip(header, row(args.tau))))
    return EXIT_OK


def cmd_solve_tau(args) -> int:
    rtol = _default_rtol(args)
    measure = _load_measure(args.measure)
    phi, psi = parse_symbol(args.phi), parse_symbol(args.psi)
    c = core.solve_tau(measure, phi, psi, args.n_target, rel_tol=rtol)
    emit_json({"tau": c.tau, "N": c.N, "M": c.M, "E": c.E,
               "N_target": args.n_target, "rel_tol": rtol})
    return EXIT_OK


def cmd_taikov(args) -> int:
    c = taikov_constants(TaikovParams(k=args.k, r=args.r, h=args.h))
    emit_json({"a": c.a, "b": c.b, "N": c.N, "E": c.E, "k": args.k, "r": args.r,
               "h": args.h, "exponent": taikov_exponent(args.k, args.r),
               "law_constant_plain_integrals": taikov_law_constant(args.k, args.r),
               "rel_tol": 0.0})
    return EXIT_OK


def cmd_line(args) -> int:
    rtol = _default_rtol(args)
    phi, psi = parse_symbol(args.phi), parse_symbol(args.psi)
    if args.tau_grid:
        return _emit_sweep(args, _SETTING_HEADER,
                           lambda tau: _setting_row(line_constants(phi, psi, tau, rel_tol=rtol)))
    pc = line_constants(phi, psi, args.tau, rel_tol=rtol)
    emit_json({"tau": pc.tau, "N": pc.N_pt, "E": pc.E_pt, "tail_bound": pc.tail_bound,
               "rel_tol": rtol})
    return EXIT_OK


def cmd_circle(args) -> int:
    rtol = _default_rtol(args)
    phi, psi = parse_symbol(args.phi), parse_symbol(args.psi)
    if args.tau_grid:
        return _emit_sweep(args, _SETTING_HEADER, lambda tau: _setting_row(
            circle_constants(phi, psi, tau, rel_tol=max(rtol, 1e-9))))
    pc = circle_constants(phi, psi, args.tau, rel_tol=max(rtol, 1e-9))
    emit_json({"tau": pc.tau, "N": pc.N_pt, "E": pc.E_pt, "tail_bound": pc.tail_bound,
               "terms": pc.truncation, "rel_tol": max(rtol, 1e-9)})
    return EXIT_OK


def cmd_opoly(args) -> int:
    rtol = _default_rtol(args)
    fam = _family(args)
    phi, psi = parse_symbol(args.phi), parse_symbol(args.psi)
    pc = opoly_constants(fam, phi, psi, args.tau, args.t, max_n=args.max_n,
                         rel_tol=max(rtol, 1e-10))
    emit_json({"family": args.family, "alpha": args.alpha, "beta": args.beta,
               "t": pc.t, "tau": pc.tau, "N": pc.N_pt, "E": pc.E_pt,
               "truncation": pc.truncation, "tail_bound": pc.tail_bound})
    return EXIT_OK


def cmd_extremal(args) -> int:
    rtol = _default_rtol(args)
    measure = _load_measure(args.measure)
    phi, psi = parse_symbol(args.phi), parse_symbol(args.psi)
    x = core.extremal_element(measure, phi, psi, args.tau, rel_tol=rtol)
    h = core.hormander_from_element(x, measure)
    payload = {
        "tau": x.tau,
        "N": x.constants.N, "M": x.constants.M, "E": x.constants.E,
        "norm_x": x.norm_x, "norm_psi_x": x.norm_psi_x,
        "functional_value": x.functional_value,
        "residuals": {
            "additive_equality": x.residual,
            "combined_identity": abs(h * h - (x.constants.N ** 2 + x.tau * x.constants.M ** 2)),
        },
        "hormander_coefficient": h,
        "rel_tol": rtol,
    }
    if measure.variant == "discrete":
        payload["coefficients"] = [
            {"t": t, "re": float(np.real(x.coefficient(t))), "im": float(np.imag(x.coefficient(t)))}
            for t, _ in measure.atoms
        ]
    emit_json(payload)
    return EXIT_OK


def cmd_hlp(args) -> int:
    phi, psi = parse_symbol(args.phi), parse_symbol(args.psi)
    lo = -math.inf if args.domain_lo is None else args.domain_lo
    hi = math.inf if args.domain_hi is None else args.domain_hi
    c = core.hlp_constant(phi, psi, args.tau, (lo, hi))
    emit_json({"tau": args.tau, "constant": c, "rel_tol": 0.0 if math.isinf(c) else 1e-12})
    return EXIT_OK


# ----------------------------------------------------------------------
# verification suites


def _random_instance(rng, max_atoms=12, loc_range=(-5.0, 5.0), weight_range=(0.0, 2.0),
                     alphas=(1.0, 2.0, 3.0, 4.0)):
    n = int(rng.integers(2, max_atoms + 1))
    while True:
        locs = rng.uniform(*loc_range, size=n)
        if len(set(locs.tolist())) == n:
            break
    w = rng.uniform(weight_range[0] + 0.05, weight_range[1], size=n)
    a_phi, a_psi = sorted(rng.choice(alphas, size=2, replace=False))
    return oracle.DiagonalInstance(
        locations=tuple(locs.tolist()), weights=tuple(w.tolist()),
        phi=Symbol.power(float(a_phi)), psi=Symbol.power(float(a_psi)),
    )


def verify_oracle_suite(seed: int, count: int, tol: float = 1e-8):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        inst = _random_instance(rng)
        tau = float(rng.uniform(0.05, 20.0))
        res = oracle.verify_theorems(inst, tau)
        worst = max(worst, res.max_residual())
    return {"suite": "oracle", "count": count, "seed": seed,
            "max_residual": worst, "threshold": tol, "passed": worst <= tol}


def verify_extremal_suite(seed: int, count: int, tol: float = 1e-10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        inst = _random_instance(rng)
        tau = float(rng.uniform(0.05, 20.0))
        measure = inst.measure()
        x = core.extremal_element(measure, inst.phi, inst.psi, tau)
        h = core.hormander_from_element(x, measure)
        scale = max(x.functional_value, 1e-300)
        r1 = x.residual / scale
        combined = math.sqrt(x.norm_x ** 2 + tau * x.norm_psi_x ** 2)
        r2 = abs(x.functional_value - h * combined) / scale
        r3 = abs(h * h - (x.constants.N ** 2 + tau * x.constants.M ** 2)) / max(h * h, 1e-300)
        worst = max(worst, r1, r2, r3)
    return {"suite": "extremal", "count": count, "seed": seed,
            "max_residual": worst, "threshold": tol, "passed": worst <= tol}


def verify_lemmas_suite(seed: int, count: int):
    rng = np.random.default_rng(seed)
    grid = np.geomspace(1e-4, 1e4, 50)
    violations = 0
    worst_jump = 0.0
    limit_defect = 0.0
    decay_defect = 0.0
    for _ in range(count):
        inst = _random_instance(rng, loc_range=(0.78, 1.0))
        # symmetrize signs so both half-lines are exercised
        signs = rng.choice([-1.0, 1.0], size=len(inst.locations))
        locs = tuple(float(s * t) for s, t in zip(signs, inst.locations))
        inst = oracle.DiagonalInstance(locations=locs, weights=inst.weights,
                                       phi=inst.phi, psi=inst.psi)
        measure = inst.measure()
        rep = core.lemma_suite(measure, inst.phi, inst.psi, grid)
        violations += rep.monotonicity_violations
        worst_jump = max(worst_jump, rep.continuity_max_jump)
        nf = core.norm_phi_f(measure, inst.phi)
        limit_defect = max(limit_defect, abs(rep.limit_tau0 - nf) / nf)
        decay_defect = max(decay_defect, rep.limit_tau_inf / rep.limit_tau0)
    lattice = SpectralMeasure.lattice("Z", uniform=1.0)
    rep = core.lemma_suite(lattice, Symbol.power(1), Symbol.power(2), grid)
    env = core.small_tau_envelope(Symbol.power(1), Symbol.power(2), 1e-6)
    passed = (violations == 0 and worst_jump <= 1e-6 and limit_defect <= 1e-4
              and decay_defect <= 1e-3 and rep.monotonicity_violations == 0
              and math.isinf(rep.limit_tau0) and env <= 1e-3)
    return {"suite": "lemmas", "count": count, "seed": seed,
            "monotonicity_violations": violations + rep.monotonicity_violations,
            "max_continuity_defect": max(worst_jump, rep.continuity_max_jump),
            "max_small_tau_limit_defect": limit_defect,
            "max_decay_ratio": decay_defect,
            "lattice_tauM_small": rep.tauM_limit0,
            "lattice_small_tau_envelope": env,
            "passed": passed}


def verify_opoly_suite(seed: int, count: int, tol: float = 1e-8):
    rng = np.random.default_rng(seed)
    families = [OrthogonalFamily.hermite(), OrthogonalFamily.laguerre(0.0),
                OrthogonalFamily.laguerre(0.5), OrthogonalFamily.jacobi(0.0, 0.0),
                OrthogonalFamily.jacobi(0.5, -0.3)]
    worst_gram = 0.0
    worst_ode = 0.0
    for fam in families:
        g = gram_matrix(fam, 20)
        worst_gram = max(worst_gram, float(np.max(np.abs(g - np.eye(21)))))
    for _ in range(count):
        fam = families[int(rng.integers(0, len(families)))]
        n = int(rng.integers(1, 11))
        lo, hi = fam.interval()
        lo = max(lo, -1.0 + 0.05) if fam.kind == "jacobi" else max(lo, 0.05)
        hi = min(hi, 1.0 - 0.05) if fam.kind == "jacobi" else min(hi, 8.0)
        t = float(rng.uniform(lo, hi))
        scale = (abs(fam.eigenvalue(n)) + 1.0)
        worst_ode = max(worst_ode, ode_residual(fam, n, t) / scale)
    passed = worst_gram <= tol and worst_ode <= 1e-6
    return {"suite": "opoly", "count": count, "seed": seed,
            "max_gram_defect": worst_gram, "max_ode_residual": worst_ode,
            "threshold": tol, "passed": passed}


def cmd_verify(args) -> int:
    suites = {
        "oracle": lambda: verify_oracle_suite(args.seed, args.count),
        "extremal": lambda: verify_extremal_suite(args.seed, args.count),
        "lemmas": lambda: verify_lemmas_suite(args.seed, max(args.count, 1)),
        "opoly": lambda: verify_opoly_suite(args.seed, args.count),
    }
    if args.suite not in suites:
        raise ConfigError(f"unknown suite {args.suite!r}")
    report = suites[args.suite]()
    emit_json(report)
    if not report["passed"]:
        raise VerificationError(f"suite {args.suite} exceeded its residual threshold")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stechkin",
        description="Sharp constants in additive operator inequalities and "
                    "best approximation of spectral functionals.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q, measure=False, tau=True, sweep=False):
        if measure:
            q.add_argument("--measure", required=True,
                           help="measure JSON path, or builtin: lebesgue | unit-lattice")
        q.add_argument("--phi", required=True, help="symbol descriptor (pow:<a> | zero | table:<path>)")
        q.add_argument("--psi", required=True, help="symbol descriptor")
        if tau:
            q.add_argument("--tau", type=float, default=1.0)
        if sweep:
            q.add_argument("--tau-grid", default=None, metavar="A:B:STEPS",
                           help="geometric tau sweep; with --format csv emits one row per tau")
        q.add_argument("--rel-tol", type=float, default=None)
        q.add_argument("--format", choices=("json", "csv"), default="json")

    q = sub.add_parser("constants", help="parametric constants on a measure")
    add_common(q, measure=True, sweep=True)
    q.set_defaults(fn=cmd_constants)

    q = sub.add_parser("solve-tau", help="invert N(tau) = N_target")
    add_common(q, measure=True, tau=False)
    q.add_argument("--n-target", type=float, required=True)
    q.set_defaults(fn=cmd_solve_tau)

    q = sub.add_parser("taikov", help="closed-form derivative-inequality constants")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--h", type=float, default=1.0)
    q.set_defaults(fn=cmd_taikov)

    q = sub.add_parser("line", help="pointwise constants on the real line")
    add_common(q, sweep=True)
    q.set_defaults(fn=cmd_line)

    q = sub.add_parser("circle", help="pointwise constants on the circle")
    add_common(q, sweep=True)
    q.set_defaults(fn=cmd_circle)

    q = sub.add_parser("opoly", help="pointwise expansion constants")
    add_common(q)
    q.add_argument("--family", choices=("hermite", "laguerre", "jacobi"), required=True)
    q.add_argument("--alpha", type=float, default=0.0)
    q.add_argument("--beta", type=float, default=0.0)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--max-n", type=int, default=10000)
    q.set_defaults(fn=cmd_opoly)

    q = sub.add_parser("extremal", help="extremal element with equality residuals")
    add_common(q, measure=True)
    q.set_defaults(fn=cmd_extremal)

    q = sub.add_parser("hlp", help="supremum operator-norm constant")
    add_common(q)
    q.add_argument("--domain-lo", type=float, default=None)
    q.add_argument("--domain-hi", type=float, default=None)
    q.set_defaults(fn=cmd_hlp)

    q = sub.add_parser("verify", help="randomized verification suites")
    q.add_argument("--suite", choices=("lemmas", "oracle", "extremal", "opoly"), required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--count", type=int, default=20)
    q.set_defaults(fn=cmd_verify)

    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AdmissibilityError, TargetOutOfRangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except StechkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
