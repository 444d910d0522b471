"""The workload process: runs one workload's operations through stechkin.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP
threads pinned to 1; a single caller runs a closed loop.  Two modes:

``--setup``      time ``import stechkin`` plus the workload's fixed first
                 operation in this fresh interpreter, then the host's speed
                 (``calibrate``); print ``{"setup_s": ..., "calibration_ms": ...}``;
otherwise        run the untimed warm-up operations, then whole rounds of
                 seeded operations until ``--seconds`` have passed and
                 ``MIN_OPS`` operations ran (at least one round, at most
                 ``--rounds``); print one JSON line per operation with its
                 start, wall time and output, then one summary line that
                 holds the calibration samples taken between operations.
                 With ``--trace`` every round runs twice, plain and then
                 under the timing wrappers of ``tracing.py``, and the
                 summary adds the per-layer counters.

Outputs are checked by the parent process, which does not import stechkin.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


# a run goes on past --seconds until it has this many operations, so that at
# least ten samples lie beyond its 90th percentile
MIN_OPS = 100

# a calibration sample is taken before an operation once this many seconds have
# passed since the last one
CALIBRATE_EVERY_S = 0.05
SETUP_CALIBRATIONS = 7


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _step(p, q):
    return _Point(p.a + q.b, math.sqrt(abs(p.b - q.a)))


def calibrate() -> float:
    """Wall time in ms of a fixed piece of pure-Python work that does not touch stechkin.

    Float arithmetic in a loop, then objects, calls, a dict and a sort: the kind
    of interpreter work the library's operations do.  The host's speed drifts by
    up to 1.8x in phases of seconds to minutes; this time follows the drift, and
    ``run.py`` scales every operation's time by the samples taken around it.
    The garbage collector is off meanwhile, so the time does not depend on the
    size of the workload's heap.
    """
    gc.disable()
    t0 = time.perf_counter()
    s = 0.0
    for i in range(10000):
        s += (i * 0.5) ** 0.5 % 3.0
    table = {}
    points = [_Point(float(i), float(i % 7)) for i in range(600)]
    acc = points[0]
    for j, p in enumerate(points):
        acc = _step(acc, p)
        table[j % 97] = table.get(j % 97, 0.0) + acc.b
    points.sort(key=lambda p: p.b)
    ms = 1e3 * (time.perf_counter() - t0)
    gc.enable()
    return ms


def _family(sk, spec):
    if spec["family"] == "hermite":
        return sk.OrthogonalFamily.hermite()
    if spec["family"] == "laguerre":
        return sk.OrthogonalFamily.laguerre(spec["alpha"])
    return sk.OrthogonalFamily.jacobi(spec["alpha"], spec["beta"])


def run_op(sk, workload: str, spec: dict, lemma_grid) -> dict:
    """Run one operation through stechkin's public API and return its outputs."""
    if workload == "lattice-sweep":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sk.cli.main(list(spec["argv"]))
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    phi, psi = sk.Symbol.power(spec["k"]), sk.Symbol.power(spec["r"])
    if workload == "density-solve":
        support = ((-float("inf"), float("inf")),) if spec["support"] == "R" else ((0.0, float("inf")),)
        c = sk.solve_tau(sk.SpectralMeasure.density(support), phi, psi, spec["target"])
        return {"tau": c.tau, "N": c.N, "M": c.M, "E": c.E}

    if workload == "opoly-expansion":
        pc = sk.opoly_constants(_family(sk, spec), phi, psi, spec["tau"], spec["t"])
        return {"N": pc.N_pt, "E": pc.E_pt, "truncation": pc.truncation,
                "tail_bound": pc.tail_bound}

    if workload == "discrete-atoms":
        atoms = [tuple(a) for a in spec["atoms"]]
        tau = spec["tau"]
        measure = sk.SpectralMeasure.discrete(atoms)
        c = sk.best_approx(measure, phi, psi, tau)
        x = sk.extremal_element(measure, phi, psi, tau)
        h = sk.hormander_coefficient(measure, phi, psi, tau)
        s = sk.solve_tau(measure, phi, psi, spec["target"])
        inst = sk.DiagonalInstance(locations=tuple(t for t, _ in atoms),
                                   weights=tuple(w for _, w in atoms), phi=phi, psi=psi)
        v = sk.verify_theorems(inst, tau)
        rep = sk.lemma_suite(measure, phi, psi, lemma_grid)
        return {"N": c.N, "M": c.M, "E": c.E,
                "norm_x": x.norm_x, "norm_psi_x": x.norm_psi_x,
                "functional_value": x.functional_value, "residual": x.residual,
                "h": h, "solve": {"tau": s.tau, "N": s.N, "M": s.M, "E": s.E},
                "oracle_max_residual": v.max_residual(),
                "lemma": {"violations": rep.monotonicity_violations,
                          "continuity": rep.continuity_max_jump,
                          "limit_tau0": rep.limit_tau0, "limit_tau_inf": rep.limit_tau_inf}}
    raise ValueError(f"unknown workload {workload!r}")


def timed(sk, workload, spec, lemma_grid) -> dict:
    """One closed-loop call: wall time in ms, output or the exception it raised."""
    t0 = time.perf_counter()
    try:
        out, error = run_op(sk, workload, spec, lemma_grid), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return {"ms": 1e3 * (time.perf_counter() - t0), "out": out, "error": error}


def _peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM belongs to the address space made at exec; ru_maxrss would also carry
    the parent's peak across fork and exec, since Linux keeps it in the signal struct.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=None, help="stop after this many rounds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args()

    import stechkin as sk
    import workloads as wl

    if args.workload == "lattice-sweep":
        import stechkin.cli  # noqa: F401  (bound as sk.cli; only this workload uses the CLI)

    if args.setup:
        timed(sk, args.workload, wl.first_op(args.workload), wl.LEMMA_GRID)
        setup_s = time.perf_counter() - _T0
        cal = sorted(calibrate() for _ in range(SETUP_CALIBRATIONS))
        print(json.dumps({"setup_s": setup_s, "calibration_ms": cal[len(cal) // 2]}))
        return 0

    for spec in [wl.first_op(args.workload)] + wl.warmup_ops(args.workload):
        timed(sk, args.workload, spec, wl.LEMMA_GRID)
        calibrate()

    import tracing

    tracer = tracing.Tracer()
    patches = tracing.bindings(tracer) if args.trace else []
    n_ops = n_traced = rounds = 0
    calibration = []  # (seconds since start, ms)
    start = time.perf_counter()
    last_cal = start - CALIBRATE_EVERY_S  # the first operation has a sample before it
    while rounds == 0 or (args.rounds is None or rounds < args.rounds) and (
            time.perf_counter() - start < args.seconds or n_ops < MIN_OPS):
        ops = wl.round_ops(args.workload, args.seed, rounds)
        # a traced run repeats each round under the wrappers right after its plain
        # run, so both see the same state of the machine
        for traced in (False, True) if args.trace else (False,):
            tracing.apply(patches, traced)
            for i, spec in enumerate(ops):
                if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                    calibration.append((time.perf_counter() - start, calibrate()))
                    last_cal = time.perf_counter()
                t = time.perf_counter() - start
                record = dict(timed(sk, args.workload, spec, wl.LEMMA_GRID),
                              t=t, round=rounds, index=i, traced=traced)
                # one line per operation, so the records do not pile up in this
                # process's memory
                sys.stdout.write(json.dumps(record) + "\n")
            n_ops += len(ops)
            n_traced += len(ops) if traced else 0
        tracing.apply(patches, False)
        rounds += 1

    summary = {"rounds": rounds, "peak_rss_mb": _peak_rss_mb(), "calibration": calibration}
    if args.trace:
        summary["bindings"] = Counter(wrapper.layer for _, _, _, wrapper in patches)
        summary["layers"] = tracer.per_op(n_traced)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
