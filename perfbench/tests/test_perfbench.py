"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phiprod
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
SMALL_SECONDS = 1.0  # a few units of every workload, built in well under a second


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    build = workloads.WORKLOADS[name]
    first = [op.key for op in build(7, SMALL_SECONDS).ops]
    again = [op.key for op in build(7, SMALL_SECONDS).ops]
    other = [op.key for op in build(8, SMALL_SECONDS).ops]
    assert first == again
    assert first != other
    assert len(set(first)) == len(first)  # no two ops share a query


def test_self_time_subtracts_direct_children():
    #   0 root  [0, 10]
    #   1 a     [1, 4]   child of root
    #   2 a.x   [2, 3]   child of a
    #   3 b     [5, 6]   child of root
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(spans.self_times(start, end, parent), [6.0, 2.0, 1.0, 1.0])


def test_recorder_nests_spans_under_the_open_one():
    rec = spans.SpanRecorder()
    rec.span("outer", lambda: rec.span("inner", lambda: None))
    a = rec.arrays()
    assert [rec.names[i] for i in a["name"]] == ["outer", "inner"]
    assert a["parent"].tolist() == [-1, 0]
    own = spans.self_times(a["start"], a["end"], a["parent"])
    assert own[0] == pytest.approx((a["end"] - a["start"])[0] - (a["end"] - a["start"])[1])


def test_qmc_passes_from_ndtri_sizes():
    # a 4-dim call: 3 conditioned dimensions x 12 shifts per pass, doubling
    dim, shifts = 3, 12
    sizes = [1024] * (dim * shifts) + [2048] * (dim * shifts) + [4096] * (dim * shifts)
    got = spans.qmc_passes(sizes, dim, max_samples=shifts * 8192)
    assert got == {"passes": 3, "points": (1024 + 2048 + 4096) * shifts,
                   "final_points": 4096 * shifts, "capped": 0}
    capped = spans.qmc_passes(sizes, dim, max_samples=shifts * 4096)
    assert capped["capped"] == 1
    assert spans.qmc_passes([], dim, 1 << 20)["passes"] == 0


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert spans.quantile([2.5] * 7, 0.9) == pytest.approx(2.5)
    assert spans.quantile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == pytest.approx(3.0)
    # two clusters meeting at the median: the estimate sits between them
    # instead of jumping to either
    both = [1.0] * 50 + [3.0] * 50
    assert 1.5 < spans.quantile(both, 0.5) < 2.5
    assert spans.quantile(range(100), 0.2) < spans.quantile(range(100), 0.8)


def test_tail_keeps_ten_samples_beyond_up_to_p95():
    value, pct, n = spans.tail([float(v) for v in range(1, 22)])
    assert (pct, n) == (pytest.approx(100.0 * 11 / 21), 21)
    assert 10.0 < value < 12.0
    assert spans.tail([float(v) for v in range(5000)])[1] == pytest.approx(95.0)
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tracer_wraps_every_lookup_name_and_restores_it():
    from phiprod import identities, mvn_cdf, probit_bernoulli
    original = mvn_cdf.cdf
    rec = spans.SpanRecorder()
    with spans.Tracer(rec):
        assert identities._mvn_cdf is mvn_cdf.cdf is probit_bernoulli._mvn_cdf
        assert mvn_cdf.cdf is not original
        assert mvn_cdf._scalar_cdf is phiprod.gauss_scalar.cdf
    assert identities._mvn_cdf is original and mvn_cdf.cdf is original
    assert mvn_cdf.ndtri is __import__("scipy.special").special.ndtri


def test_traced_call_returns_the_plain_result_and_counts_its_passes():
    g = np.random.default_rng(3).standard_normal((4, 4))
    params = phiprod.VectorMixParams(mu=[0.3, -0.2, 0.5, 0.1],
                                     sigma=phiprod.PdMatrix.from_entries(4, g.T @ g + np.eye(4)),
                                     m=np.zeros(4), v=np.ones(4))
    plain = phiprod.cdf_product_vector(params, 1e-6, 5)
    rec = spans.SpanRecorder()
    with spans.Tracer(rec):
        traced = rec.span("op", lambda: phiprod.cdf_product_vector(params, 1e-6, 5))
    assert repr(traced) == repr(plain)
    m = spans.layer_metrics(rec)
    assert m["identities.cdf_product_vector.calls"] == 1
    assert m["mvn_cdf.cdf.calls"] == m["mvn_cdf.cdf.qmc_calls"] == 1
    assert m["pd_matrix.from_entries.calls"] == 1
    ndtri = sum(size for _, size in rec.observed["mvn_cdf.kernel.ndtri"])
    assert m["mvn_cdf.qmc.points"] == ndtri // 3
    assert m["mvn_cdf.qmc.passes"] >= 1
    assert 0.0 < m["mvn_cdf.qmc.useful_frac"] <= 1.0


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    from phiprod import verify
    assert spans.SUITES == verify.SUITE_NAMES


def test_refuses_to_run_without_phiprod_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "support-n8",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""


def test_counts_repeat_exactly_between_traced_runs():
    counts = []
    for _ in range(2):
        workload = workloads.build_moments(5, 12 * workloads.MOMENTS_CALL_S)
        run.clear_caches()
        rec = spans.SpanRecorder()
        with spans.Tracer(rec):
            results, _, _ = run.run_pass(workload.ops, rec)
        metrics = spans.layer_metrics(rec)
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith((".calls", ".elements", ".passes", ".points"))})
        assert not any(isinstance(r, run.OpError) for r in results)
    assert counts[0] == counts[1]
    assert counts[0]["identities.cdf_product_scalar.calls"] == 6
