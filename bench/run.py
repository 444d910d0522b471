#!/usr/bin/env python3
"""Benchmark of the stechkin library and CLI.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke
    python3 bench/run.py --steady 10 [--workload NAME] [--seconds S]

A run times the workload's fixed first operation in fresh interpreters
(set-up), then starts one single-threaded workload process (``worker.py``)
that runs a closed loop over seeded rounds of operations for ``--seconds``
seconds.  Afterwards this process checks every operation's output against
``reference.py``, which does not import stechkin, and prints the metrics.
Times are scaled to a reference speed of the host, measured by a
calibration loop the workload process runs between operations (README,
"Host speed"), and each operation counts at its median across the rounds.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--smoke`` runs one traced round of every workload and fails unless the
only failed operations are the known faults.  ``--steady N`` runs every
workload N times with seeds 1..N and prints each metric's median and
quartiles (and writes them under ``bench/out/``).  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 7
DEFAULT_SECONDS = 20
# Timings are scaled to a host speed at which worker.calibrate() takes CAL_REF_MS,
# its time on the reference host (2 vCPUs of a 2.1 GHz Xeon) in a calm phase; each
# operation is scaled by the median of the calibration samples taken within
# CAL_WINDOW_S seconds of its start.  See README "Host speed".
CAL_REF_MS = 1.5
CAL_WINDOW_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ok_ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}

# Layers each workload must call (calls > 0) and must bypass (calls = 0) in the
# traced run.  A wrapper that missed a binding would read 0 where it should not.
PATTERN = {
    "density-solve": {
        "exercised": ["numerics.integrate", "numerics.solve_monotone", "core.solve_tau",
                      "spectral.spectral_integral"],
        "bypassed": ["numerics.sum_lattice", "orthopoly.evaluate_all", "cli.main",
                     "oracle.verify_theorems", "applications.opoly_constants"],
    },
    "lattice-sweep": {
        "exercised": ["cli.main", "numerics.sum_lattice", "numerics.integrate",
                      "core.best_approx", "applications.circle_constants"],
        "bypassed": ["orthopoly.evaluate_all", "oracle.verify_theorems",
                     "applications.opoly_constants"],
    },
    "opoly-expansion": {
        "exercised": ["orthopoly.evaluate_all", "applications.opoly_constants"],
        "bypassed": ["numerics.integrate", "numerics.sum_lattice", "cli.main",
                     "oracle.verify_theorems", "spectral.spectral_integral"],
    },
    "discrete-atoms": {
        "exercised": ["spectral.spectral_integral", "core.lemma_suite", "core.solve_tau",
                      "core.hormander_coefficient", "core.extremal_element",
                      "oracle.verify_theorems", "oracle.brute_force_best_approx"],
        "bypassed": ["numerics.integrate", "numerics.sum_lattice", "orthopoly.evaluate_all",
                     "cli.main", "applications.opoly_constants"],
    },
}


class BenchError(RuntimeError):
    """The benchmark could not run (no program to run, or a process failed)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args: list, timeout: float) -> list:
    """Run worker.py; return the JSON objects it printed, one per line."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {timeout:.0f} s: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def _check(workload: str, seed: int, records: list) -> list:
    """Failure reason (or None) for every record; known faults keep their reason too."""
    specs = {}
    reasons = [None] * len(records)
    pairs, where = [], []
    for j, rec in enumerate(records):
        if rec["round"] not in specs:
            specs[rec["round"]] = wl.round_ops(workload, seed, rec["round"])
        rec["spec"] = specs[rec["round"]][rec["index"]]
        if rec["error"] is not None:
            reasons[j] = rec["error"]
        else:
            pairs.append((rec["spec"], rec["out"]))
            where.append(j)
    if workload == "density-solve":
        found = checks.check_density(pairs)
    elif workload == "lattice-sweep":
        found = checks.check_lattice(pairs)
    elif workload == "opoly-expansion":
        found = checks.check_opoly(pairs)
    else:
        found = checks.check_atoms(pairs, wl.LEMMA_GRID)
    for j, reason in zip(where, found):
        reasons[j] = reason
    return reasons


def _pattern_problems(workload: str, layers: dict, bindings: dict) -> list:
    problems = []
    for layer in PATTERN[workload]["exercised"]:
        if not layers[f"{layer}.calls"] > 0:
            problems.append(f"{layer} has no calls (bindings replaced: {bindings.get(layer)})")
    for layer in PATTERN[workload]["bypassed"]:
        if layers[f"{layer}.calls"] != 0:
            problems.append(f"{layer} was expected to be bypassed but has calls")
    return problems


def _scale(records: list, calibration: list) -> None:
    """Set each record's ``scaled_ms``: its wall time at the reference host speed."""
    ts = [t for t, _ in calibration]
    cal = [ms for _, ms in calibration]
    for rec in records:
        lo = bisect.bisect_left(ts, rec["t"] - CAL_WINDOW_S)
        hi = bisect.bisect_right(ts, rec["t"] + CAL_WINDOW_S)
        # the worker samples before any operation that starts 50 ms or more after
        # the last sample, so every operation has one within the window
        rec["scaled_ms"] = rec["ms"] * CAL_REF_MS / statistics.median(cal[lo:hi])


def _typical_round(records: list, key: str = "scaled_ms") -> list:
    """Each operation of a round at the median of its times across the rounds.

    Every round runs the same operations, so the medians drop the rounds that a
    pause of the machine hit.
    """
    by_op = {}
    for rec in records:
        by_op.setdefault(rec["index"], []).append(rec[key])
    return [statistics.median(v) for _, v in sorted(by_op.items())]


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             rounds: int | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "stechkin" / "__init__.py").is_file():
        raise BenchError(f"no stechkin package under {SRC}")
    setups = [] if trace else [
        _worker([workload, "--setup"], timeout=10)[-1] for _ in range(SETUP_REPEATS)]
    args = [workload, "--seed", seed, "--seconds", seconds, "--trace", int(trace)]
    if rounds is not None:
        args += ["--rounds", rounds]
    # the timeouts keep a hung run within 180 s: 7 x 10 s of set-up, 60 s + 2x the loop
    *records, res = _worker(args, timeout=60 + 2 * seconds)
    reasons = _check(workload, seed, records)
    _scale(records, res["calibration"])

    unexpected = [(rec, why) for rec, why in zip(records, reasons)
                  if why is not None and not rec["spec"]["fault"]]
    for rec, why in unexpected[:10]:
        print(f"UNEXPECTED FAILURE round {rec['round']} op {rec['index']}: {why}", file=sys.stderr)
    failed = sum(1 for why in reasons if why is not None)
    faults = sorted({rec["spec"]["fault"] for rec, why in zip(records, reasons)
                     if why is not None and rec["spec"]["fault"]})
    correct = not unexpected
    plain = [(rec, why) for rec, why in zip(records, reasons) if not rec["traced"]]
    typical = _typical_round([rec for rec, _ in plain])
    unscaled = _typical_round([rec for rec, _ in plain], key="ms")
    cal_ms = statistics.median(ms for _, ms in res["calibration"])

    if trace:
        traced = _typical_round([rec for rec in records if rec["traced"]])
        metrics = dict(res["layers"])
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(typical)
        problems = _pattern_problems(workload, res["layers"], res["bindings"])
        for p in problems:
            print(f"LAYER PATTERN: {p}", file=sys.stderr)
        correct = correct and not problems
        units = {name: "ms/op" if name.endswith("self_ms") else "ratio"
                 if name.endswith(("_ratio", "_per_truncation")) else "count/op"
                 for name in metrics}
    else:
        ok_per_round = sum(1 for _, why in plain if why is None) / res["rounds"]
        metrics = {
            "setup_s": statistics.median(
                s["setup_s"] * CAL_REF_MS / s["calibration_ms"] for s in setups),
            "ok_ops_per_s": 1e3 * ok_per_round / sum(typical),
            "op_p50_ms": statistics.median(typical),
            "op_p90_ms": statistics.quantiles(typical, n=10)[-1],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_rounds": res["rounds"],
        "_faults": faults,
        "_host": {"calibration_ms": cal_ms, "unscaled_p50_ms": statistics.median(unscaled),
                  "unscaled_round_ms": sum(unscaled),
                  "unscaled_setup_s": statistics.median(s["setup_s"] for s in setups)
                  if setups else None},
    }


def _print_result(workload: str, result: dict) -> None:
    print(f"workload {workload}: {result['_rounds']} rounds, {result['attempted']} operations "
          f"attempted, {result['failed']} failed (known faults: {', '.join(result['_faults']) or 'none'})")
    for name, m in result["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    host = result["_host"]
    print(f"  host speed: calibrate() median {host['calibration_ms']:.4g} ms against "
          f"{CAL_REF_MS} ms; unscaled: op_p50 {host['unscaled_p50_ms']:.4g} ms, typical round "
          f"{host['unscaled_round_ms']:.5g} ms"
          + (f", setup {host['unscaled_setup_s']:.4g} s" if host["unscaled_setup_s"] else ""))
    public = {k: v for k, v in result.items() if not k.startswith("_")}
    print(json.dumps(public))


def smoke() -> int:
    """One traced round per workload: only the known faults may fail."""
    bad = 0
    for workload in wl.WORKLOADS:
        result = run_once(workload, seed=1, seconds=0, trace=True, rounds=1)
        print(f"{workload}: {result['attempted']} operations, {result['failed']} failed, "
              f"known faults seen: {', '.join(result['_faults']) or 'none'}, "
              f"correct={result['correct']}")
        bad += not result["correct"]
    print("smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def steady(n: int, names: list, seconds: float) -> int:
    """Run each workload n times (seeds 1..n); print median and quartiles per metric."""
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in names:
        runs = []
        for seed in range(1, n + 1):
            result = run_once(workload, seed, seconds, trace=False)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in END_TO_END_UNITS:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
                             "values": values}
            print(f"  {name:<14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"(q3-q1)/median {(q3 - q1) / med:.4f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"  failed share per run: {shares}; all correct: {all(r['correct'] for r in runs)}")
        (out_dir / f"steady-{workload}.json").write_text(
            json.dumps({"seconds": seconds, "runs": n, "metrics": summary,
                        "failed_shares": shares}, indent=1))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--steady", type=int, metavar="N")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.steady:
            return steady(args.steady, [args.workload] if args.workload else list(wl.WORKLOADS),
                          args.seconds)
        if not args.workload:
            ap.error("--workload is required")
        _print_result(args.workload, run_once(args.workload, args.seed, args.seconds,
                                              bool(args.trace)))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
