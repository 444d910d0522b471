"""Tests of the benchmark's own reference computations, workload lists and timing scale.

Run with ``python3 -m pytest bench`` from the repository root.  Every
reference is pinned to a value known apart from it: a closed form, scipy,
mpmath or a sum written out by hand.
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite, eval_jacobi, gammaln

import reference as ref
import run
import tracing
import workloads as wl


def test_lebesgue_closed_form_k1_r2():
    n2, m2 = ref.lebesgue_nm2(1, 2, 1.0)
    assert n2 == pytest.approx(math.pi / (4 * math.sqrt(2)), rel=1e-14)
    assert m2 == pytest.approx(3 * math.pi / (4 * math.sqrt(2)), rel=1e-14)
    assert ref.lebesgue_nm2(1, 2, 1.0, half_line=True) == pytest.approx((n2 / 2, m2 / 2), rel=1e-15)


def test_lebesgue_tau_scaling():
    # N^2 ~ tau^-a and M^2 ~ tau^(-a-1), a = (2k+1)/(2r)
    k, r, a = 2, 5, 0.5
    n1, m1 = ref.lebesgue_nm2(k, r, 1.0)
    n2, m2 = ref.lebesgue_nm2(k, r, 1e4)
    assert n2 == pytest.approx(n1 * 1e4 ** -a, rel=1e-13)
    assert m2 == pytest.approx(m1 * 1e4 ** (-a - 1), rel=1e-13)


@pytest.mark.parametrize("tau", [1e-4, 3e-2, 1.0, 7.5, 1e4])
def test_lattice_sum_matches_coth_closed_form(tau):
    n, e = ref.lattice_ne(0, 1, tau)
    n_c, e_c = ref.lattice_ne_coth(tau)
    assert n == pytest.approx(n_c, rel=1e-12)
    assert e == pytest.approx(e_c, rel=1e-9)


@pytest.mark.parametrize("k,r,tau", [(1, 2, 0.3), (0, 3, 20.0), (2, 3, 1e-3)])
def test_lattice_sum_matches_mpmath(k, r, tau):
    for p in (2 * k, 2 * k + 2 * r):
        direct = 2 * mpmath.nsum(lambda n: n ** p / (1 + tau * n ** (2 * r)) ** 2, [1, mpmath.inf])
        direct += 1 if p == 0 else 0
        assert ref.lattice_sum(p, r, tau) == pytest.approx(float(direct), rel=1e-12)


def test_atom_sums_by_hand():
    atoms = [(1.0, 1.0), (-2.0, 0.5)]
    n2, m2, h2 = ref.atom_sums(atoms, 1, 2, 1.0)
    assert n2 == pytest.approx(1 / 4 + 0.5 * 4 / 17 ** 2, rel=1e-15)
    assert m2 == pytest.approx(1 / 4 + 0.5 * 64 / 17 ** 2, rel=1e-15)
    assert h2 == pytest.approx(1 / 2 + 0.5 * 4 / 17, rel=1e-15)


def test_legendre_at_zero():
    f = ref.orthonormal_values("jacobi", 0.0, 0.0, 0.0, 60)
    for m in range(31):
        p2m = (-1) ** m * math.factorial(2 * m) / (4 ** m * math.factorial(m) ** 2)
        assert f[2 * m] == pytest.approx(p2m * math.sqrt((4 * m + 1) / 2), rel=1e-12, abs=1e-15)
        if 2 * m + 1 <= 60:
            assert abs(f[2 * m + 1]) < 1e-14


@pytest.mark.parametrize("t", [-1.7, 0.0, 0.37, 2.5])
def test_hermite_low_degree(t):
    f = ref.orthonormal_values("hermite", 0.0, 0.0, t, 12)
    for n in range(13):
        want = eval_hermite(n, t) / math.sqrt(2 ** n * math.factorial(n) * math.sqrt(math.pi))
        assert f[n] == pytest.approx(want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("t", [0.0, 0.3, 4.2])
def test_laguerre_low_degree(alpha, t):
    f = ref.orthonormal_values("laguerre", alpha, 0.0, t, 12)
    for n in range(13):
        norm = math.exp(0.5 * (gammaln(n + alpha + 1) - gammaln(n + 1)))
        assert f[n] == pytest.approx(eval_genlaguerre(n, alpha, t) / norm, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, -0.3)])
def test_jacobi_low_degree(alpha, beta):
    t = 0.41
    f = ref.orthonormal_values("jacobi", alpha, beta, t, 12)
    for n in range(13):
        h = 2 ** (alpha + beta + 1) / (2 * n + alpha + beta + 1) * math.exp(
            gammaln(n + alpha + 1) + gammaln(n + beta + 1) - gammaln(n + alpha + beta + 1)
            - gammaln(n + 1))
        assert f[n] == pytest.approx(eval_jacobi(n, alpha, beta, t) / math.sqrt(h), rel=1e-12)


def test_expansion_sums_match_direct_sum_across_chunks():
    cases = [("hermite", 0.0, 0.0, 0.7, 1, 2, 0.5), ("laguerre", 0.5, 0.0, 3.0, 0, 2.5, 2.0),
             ("jacobi", 0.5, -0.3, -0.2, 1, 3, 1e-2)]
    cutoffs = [[10, 5000], [700], [4100, 4096]]
    got = ref.expansion_sums(cases, cutoffs, chunk=1024)
    for case, cuts, sums in zip(cases, cutoffs, got):
        kind, a, b, t, k, r, tau = case
        f2 = ref.orthonormal_values(kind, a, b, t, max(cuts)) ** 2
        n = np.arange(f2.size, dtype=float)
        tn = n ** (2 * k) * f2 / (1 + tau * n ** (2 * r)) ** 2
        for c, (n2, m2) in zip(cuts, sums):
            assert n2 == pytest.approx(math.fsum(tn[: c + 1]), rel=1e-13)
            assert m2 == pytest.approx(math.fsum((tn * n ** (2 * r))[: c + 1]), rel=1e-13)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_rounds_are_seeded_and_keep_their_make_up(workload):
    a = wl.round_ops(workload, 7, 3)
    assert a == wl.round_ops(workload, 7, 3)
    b = wl.round_ops(workload, 8, 3)
    assert a != b
    assert len(a) == len(b)
    # known-fault operations have fixed inputs: the same in every round of every seed
    assert [op for op in a if op["fault"]] == [op for op in b if op["fault"]]
    assert any(op["fault"] for op in a) == (workload != "lattice-sweep")


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names() + ["trace.overhead_ratio"]


def test_scale_uses_the_calibration_samples_near_each_operation():
    calibration = [(0.0, 1.5), (0.5, 3.0), (3.0, 1.5)]
    records = [{"t": 0.2, "ms": 10.0}, {"t": 2.9, "ms": 10.0}]
    run._scale(records, calibration)
    # the first operation sees the samples at 0.0 and 0.5 s, the second only the one at 3.0 s
    assert records[0]["scaled_ms"] == pytest.approx(10.0 * run.CAL_REF_MS / 2.25)
    assert records[1]["scaled_ms"] == pytest.approx(10.0 * run.CAL_REF_MS / 1.5)


def test_typical_round_takes_each_operation_at_its_median():
    records = [{"index": i, "scaled_ms": ms}
               for i, ms in [(1, 5.0), (0, 1.0), (1, 7.0), (0, 9.0), (0, 2.0), (1, 6.0)]]
    assert run._typical_round(records) == [2.0, 6.0]
