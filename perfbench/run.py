"""phiprod benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: it imports ``phiprod`` from that
checkout's ``src/`` and refuses (exit code 2, no result) when there is none.

``--trace 0`` times the workload with nothing wrapped and reports the
end-to-end metrics. ``--trace 1`` runs the same calls twice, first plain and
then with every phiprod module wrapped by ``spans.Tracer``, and reports the
per-layer metrics, the tracing overhead and the scipy comparator. In both
modes every output is checked; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it records the machine and the details behind the
metrics. A traced run also writes its spans under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One client thread: BLAS gets no worker threads of its own (the matrices are
# at most 16 x 16), so the load never has more threads than nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402  (numpy is imported after the setting above)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

# (name, unit, better) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ok_frac", "1", "higher"),
    ("acc_met_frac", "1", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class OpError:
    """What a call that raised leaves in the results: its traceback."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"OpError({self.text!r})"


def import_phiprod() -> None:
    """Import phiprod from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "phiprod" / "__init__.py").is_file():
        print(f"perfbench: no phiprod sources under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import phiprod
    if Path(phiprod.__file__).resolve().parent != (SRC / "phiprod").resolve():
        print(f"perfbench: imported phiprod from {phiprod.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def machine() -> dict:
    import numpy
    import scipy
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "process_threads": _process_threads(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    return info


def _blas_threads() -> int | None:
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _process_threads() -> int | None:
    try:
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def setup_probe_times(args) -> list[float]:
    """Wall time of fresh processes from start until their inputs are built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return times


def run_pass(ops, recorder=None) -> tuple[list, list[float], float]:
    """Make every call in order; returns (results, seconds per call, wall s)."""
    results = []
    latency = []
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.call() if recorder is None else recorder.span(op.label, op.call)
        except Exception:  # a failing call is counted and the run goes on
            result = OpError(traceback.format_exc())
        latency.append(time.perf_counter() - t0)
        results.append(result)
    return results, latency, time.perf_counter() - t_start


def digests(results) -> list[str]:
    return [hashlib.sha256(repr(r).encode()).hexdigest() for r in results]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_caches() -> None:
    """Start every pass as cold as a fresh process."""
    importlib.import_module("phiprod.oracles").gauss_hermite_nodes.cache_clear()


def checked(workload, results) -> tuple[int, int, dict]:
    """(attempted, failed, details) over the checks the calls stand for."""
    failed, details = workload.check(results)
    sizes = [workload.size(r) for r in results]
    return sum(sizes), sum(min(f, s) for f, s in zip(failed, sizes)), details


def qmc_met(results) -> tuple[int, int]:
    qmc = [r for r in results if workloads.is_estimate(r) and r.method == workloads.QMC_METHOD]
    return sum(r.err_estimate <= workloads.ACCURACY for r in qmc), len(qmc)


def end_to_end(args) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    clear_caches()
    results, latency, wall = run_pass(workload.ops)
    rss = peak_rss_mb()
    attempted, failed, details = checked(workload, results)
    # after the timed loop, so that the probes' own load cannot slow it
    setup = setup_probe_times(args)
    # a verify call runs a whole suite: each of its checks gets an equal share
    per_op_ms = [1e3 * t / workload.size(r) for r, t in zip(results, latency)
                 for _ in range(workload.size(r))]
    tail_ms, tail_pct, n = spans.tail(per_op_ms)
    met, qmc = qmc_met(results)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": attempted / wall,
        "op_p50_ms": spans.quantile(per_op_ms, 0.5),
        "op_tail_ms": tail_ms,
        "ok_frac": 1.0 - failed / attempted,
        # no QMC estimate returned: vacuously every one met its accuracy
        "acc_met_frac": met / qmc if qmc else 1.0,
        "peak_rss_mb": rss,
    }
    details.update({"setup_s_samples": setup, "op_tail_percentile": tail_pct,
                    "op_samples": n, "qmc_estimates": qmc, "qmc_met": met,
                    "calls": len(results), "wall_s": wall,
                    "digest": hashlib.sha256("".join(digests(results)).encode()).hexdigest(),
                    "errors": [r.text for r in results if isinstance(r, OpError)][:3]})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def comparator(workload, results, latency) -> dict:
    """scipy's MVN CDF at matched accuracy on a fixed sample of QMC calls."""
    import phiprod
    budget = inspect.signature(phiprod.MvnQuery).parameters["max_samples"].default
    queries = workload.comparator_queries(results) if workload.comparator_queries else []
    scipy_ms, ours_ms, gaps = [], [], []
    for i, (upper, mean, cov) in queries:
        t0 = time.perf_counter()
        value = workloads.scipy_mvn_cdf(upper, mean, cov, workloads.ACCURACY, maxpts=budget)
        scipy_ms.append(1e3 * (time.perf_counter() - t0))
        ours_ms.append(1e3 * latency[i])
        gaps.append(abs(value - results[i].value))
    return {"comparator.calls": len(gaps),
            "comparator.scipy_ms_p50": spans.quantile(scipy_ms, 0.5),
            "comparator.phiprod_ms_p50": spans.quantile(ours_ms, 0.5),
            "comparator.max_abs_gap": max(gaps, default=0.0)}


def traced(args) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    clear_caches()
    plain, plain_latency, plain_wall = run_pass(workload.ops)
    clear_caches()
    recorder = spans.SpanRecorder()
    with spans.Tracer(recorder):
        results, _, wall = run_pass(workload.ops, recorder)
    attempted, failed, details = checked(workload, results)
    # determinism guard: a traced call must return exactly what the plain one did
    mismatched = [i for i, (a, b) in enumerate(zip(digests(plain), digests(results)))
                  if a != b]
    failed = min(attempted, failed + sum(workload.size(results[i]) for i in mismatched))
    metrics = spans.layer_metrics(recorder)
    metrics["trace.ops_per_s_ratio"] = plain_wall / wall
    metrics.update(comparator(workload, plain, plain_latency))
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
    recorder.save(span_file)
    details.update({"digest_mismatches": len(mismatched), "spans": len(recorder.start),
                    "span_file": str(span_file.relative_to(ROOT)),
                    "untraced_wall_s": plain_wall, "traced_wall_s": wall})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in spans.PER_LAYER}}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_phiprod()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        print("ready", flush=True)
        return 0
    result, details = (traced if args.trace else end_to_end)(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "machine": machine(), "details": details},
                     default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
