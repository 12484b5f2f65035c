"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps the public functions of each phiprod module at every name
they are looked up by, from the benchmark's own code: nothing under ``src/``
changes. ``identities`` and ``probit_bernoulli`` call ``mvn_cdf.cdf`` through
their own ``_mvn_cdf`` binding and ``mvn_cdf`` calls ``gauss_scalar.cdf`` as
``_scalar_cdf``, so wrapping only ``phiprod.mvn_cdf.cdf`` would miss them.
The scipy kernels ``ndtr`` and ``ndtri`` are wrapped only at the names
``phiprod.mvn_cdf`` binds, so ``oracles`` (which binds its own ``ndtr``)
does not count as kernel work.

A span has a name, a start, an end and a parent. Spans stay in memory in
flat arrays and are written once, when the run ends. One thread records
them through a stack, so the children of a span never overlap, and its self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np
from scipy.special import betainc

from workloads import QMC_METHOD

LAYERS = ("gauss_scalar", "pd_matrix", "mvn_cdf", "identities", "probit_bernoulli",
          "oracles", "verify")
# public methods, wrapped on the class so every caller goes through them
METHODS = {
    ("pd_matrix", "PdMatrix"): ("from_entries", "det", "solve"),
    ("probit_bernoulli", "ProbitBernoulli"): ("pmf", "log_pmf", "sample", "normalization",
                                              "mean", "marginalize"),
}
KERNELS = ("ndtr", "ndtri")
SUITES = ("scalar", "matrix", "identity-scalar", "identity-vector", "bernoulli")

# (name, unit, better) of the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("mvn_cdf.cdf.calls", "count", "lower"),
    ("mvn_cdf.cdf.qmc_calls", "count", "lower"),
    ("mvn_cdf.cdf.self_s", "s", "lower"),
    ("mvn_cdf.qmc.p50_ms", "ms", "lower"),
    ("mvn_cdf.qmc.tail_ms", "ms", "lower"),
    ("mvn_cdf.qmc.unmet", "count", "lower"),
    ("mvn_cdf.qmc.err_ratio_p50", "1", "lower"),
    ("mvn_cdf.kernel.elements", "count", "lower"),
    ("mvn_cdf.kernel.s", "s", "lower"),
    ("mvn_cdf.qmc.passes", "count", "lower"),
    ("mvn_cdf.qmc.points", "count", "lower"),
    ("mvn_cdf.qmc.capped", "count", "lower"),
    ("mvn_cdf.qmc.useful_frac", "1", "higher"),
    ("mvn_cdf.bivariate_cdf.calls", "count", "lower"),
    ("mvn_cdf.bivariate_cdf.self_s", "s", "lower"),
    ("gauss_scalar.owen_t.calls", "count", "lower"),
    ("gauss_scalar.owen_t.self_s", "s", "lower"),
    ("gauss_scalar.cdf.calls", "count", "lower"),
    ("gauss_scalar.cdf.self_s", "s", "lower"),
    ("pd_matrix.from_entries.calls", "count", "lower"),
    ("pd_matrix.from_entries.self_s", "s", "lower"),
    ("identities.cdf_product_scalar.calls", "count", "lower"),
    ("identities.cdf_product_scalar.self_s", "s", "lower"),
    ("identities.cdf_product_vector.calls", "count", "lower"),
    ("identities.cdf_product_vector.self_s", "s", "lower"),
    ("probit_bernoulli.pmf.self_s", "s", "lower"),
    ("probit_bernoulli.marginalize.self_s", "s", "lower"),
    ("probit_bernoulli.sample.s_per_1e6", "s", "lower"),
    ("oracles.cdf_product_vector_mc.s_per_1e6", "s", "lower"),
    ("oracles.cdf_product_scalar_quad.self_s", "s", "lower"),
    ("oracles.adaptive_quad_1d.calls", "count", "lower"),
    ("oracles.adaptive_quad_1d.self_s", "s", "lower"),
    ("oracles.gauss_hermite_nodes.s", "s", "lower"),
) + tuple((f"verify.{suite}.s", "s", "lower") for suite in SUITES) + (
    ("trace.ops_per_s_ratio", "1", "higher"),
    ("comparator.calls", "count", "higher"),
    ("comparator.scipy_ms_p50", "ms", "lower"),
    ("comparator.phiprod_ms_p50", "ms", "lower"),
    ("comparator.max_abs_gap", "1", "lower"),
)


class SpanRecorder:
    """Spans in flat arrays: name id, start, end (perf_counter s) and parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        # per-span payloads recorded by observers, keyed by span name
        self.observed: dict[str, list[tuple[int, Any]]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, call: Callable[[], Any]) -> Any:
        idx = self.begin(self.name_id(name))
        try:
            return call()
        finally:
            self.finish(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int_).copy(),
                "start": np.frombuffer(self.start, dtype=float).copy(),
                "end": np.frombuffer(self.end, dtype=float).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int_).copy()}

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def qmc_passes(sizes: list[int], dim: int, max_samples: int) -> dict[str, int]:
    """Lattice passes of one QMC call, from the sizes of its ndtri calls.

    A pass calls ndtri once per shift and per conditioned dimension
    (``dim`` of them) on arrays of the lattice size, and the doubling loop
    changes that size between passes. So a pass is a maximal run of equal
    consecutive sizes, and a run's elements over ``dim`` are its points
    times shifts. The call hit the cap when doubling its last pass would
    exceed the query's ``max_samples``.
    """
    if dim < 1 or not sizes:
        return {"passes": 0, "points": 0, "final_points": 0, "capped": 0}
    runs = [sum(group) for _, group in itertools.groupby(sizes)]
    final = runs[-1] // dim
    return {"passes": len(runs), "points": sum(runs) // dim, "final_points": final,
            "capped": int(2 * final > max_samples)}


def _bind(fn, args, kwargs) -> inspect.BoundArguments:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def _observe_cdf(fn):
    def observe(args, kwargs, result):
        query = args[0] if args else kwargs["query"]
        return (int(np.isfinite(query.upper).sum()), query.accuracy, query.max_samples,
                result.method, result.err_estimate)
    return observe


def _observe_size(fn):
    return lambda args, kwargs, result: int(np.size(args[0]))


def _observe_arg(name: str):
    def make(fn):
        return lambda args, kwargs, result: int(_bind(fn, args, kwargs).arguments[name])
    return make


# span name -> observer factory; the observer's payload is kept per span
OBSERVERS = {
    "mvn_cdf.cdf": _observe_cdf,
    "mvn_cdf.kernel.ndtr": _observe_size,
    "mvn_cdf.kernel.ndtri": _observe_size,
    "probit_bernoulli.sample": _observe_arg("count"),
    "oracles.cdf_product_vector_mc": _observe_arg("draws"),
}


def _phiprod_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "phiprod" or name.startswith("phiprod."))]


class Tracer:
    """Installs span-recording wrappers into phiprod; ``with`` restores them."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrapper(self, name: str, fn):
        rec = self.rec
        nid = rec.name_id(name)
        observe = OBSERVERS[name](fn) if name in OBSERVERS else None
        sink = rec.observed.setdefault(name, []) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.finish(idx)
            if observe is not None:
                sink.append((idx, observe(args, kwargs, result)))
            return result
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        layers = {layer: importlib.import_module(f"phiprod.{layer}") for layer in LAYERS}
        for layer, mod in layers.items():
            for attr in getattr(mod, "__all__", ()):
                fn = mod.__dict__[attr]
                if inspect.isclass(fn) or not callable(fn):
                    continue
                wrapped = self._wrapper(f"{layer}.{attr}", fn)
                for site in _phiprod_modules():
                    for key, value in list(site.__dict__.items()):
                        if value is fn:
                            self._patch(site, key, wrapped)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(layers[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(f"{layer}.{meth}", raw.__func__))
                else:
                    wrapped = self._wrapper(f"{layer}.{meth}", raw)
                self._patch(cls, meth, wrapped)
        mvn = layers["mvn_cdf"]
        for kernel in KERNELS:
            self._patch(mvn, kernel, self._wrapper(f"mvn_cdf.kernel.{kernel}",
                                                   mvn.__dict__[kernel]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# Host preemptions stretch about 1% of the 0.2 ms calls of pairwise-probit
# (0.6-1.1% of them took over 1.5x the median on 2 vCPUs), so a p99 sits on
# the edge of that share and moves with the host's load; p95 measures phiprod.
TAIL_CAP = 0.95


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    the order statistics (Harrell & Davis, Biometrika 69, 1982).

    A QMC call's cost comes in doubling levels, so a plain order statistic
    jumps between levels when timing noise reorders calls near its rank;
    the weighted mean moves smoothly instead.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        return 0.0
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, capped at
    p95: beyond it, 0.2 ms calls measure 1-5 ms host preemptions, not phiprod.

    Returns (value, percentile, sample count); with ten samples or fewer
    the maximum is returned at 100.
    """
    n = len(values)
    if n <= 10:
        return float(max(values, default=0.0)), 100.0, n
    q = min(TAIL_CAP, (n - 10) / n)
    return quantile(values, q), 100.0 * q, n


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Every per-layer metric of a traced pass, from its spans and payloads."""
    a = rec.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    by_name = {name: np.flatnonzero(a["name"] == i) for i, name in enumerate(rec.names)}
    empty = np.zeros(0, dtype=int)

    def calls(name):
        return int(by_name.get(name, empty).size)

    def self_s(name):
        return float(own[by_name.get(name, empty)].sum())

    def total_s(name):
        return float(dur[by_name.get(name, empty)].sum())

    m: dict[str, float] = {}
    m["mvn_cdf.cdf.calls"] = calls("mvn_cdf.cdf")
    m["mvn_cdf.cdf.self_s"] = self_s("mvn_cdf.cdf")

    cdf_calls = dict(rec.observed.get("mvn_cdf.cdf", []))
    qmc = {idx: info for idx, info in cdf_calls.items() if info[3] == QMC_METHOD}
    m["mvn_cdf.cdf.qmc_calls"] = len(qmc)
    qmc_ms = [1e3 * dur[idx] for idx in qmc]
    m["mvn_cdf.qmc.p50_ms"] = quantile(qmc_ms, 0.5)
    m["mvn_cdf.qmc.tail_ms"] = tail(qmc_ms)[0]
    m["mvn_cdf.qmc.unmet"] = sum(err > acc for _, acc, _, _, err in qmc.values())
    ratios = [err / acc for _, acc, _, _, err in qmc.values()]
    m["mvn_cdf.qmc.err_ratio_p50"] = quantile(ratios, 0.5)

    kernels = [f"mvn_cdf.kernel.{k}" for k in KERNELS]
    m["mvn_cdf.kernel.elements"] = sum(size for k in kernels
                                       for _, size in rec.observed.get(k, []))
    m["mvn_cdf.kernel.s"] = sum(total_s(k) for k in kernels)

    sizes: dict[int, list[int]] = {idx: [] for idx in qmc}
    parent = a["parent"]
    for idx, size in rec.observed.get("mvn_cdf.kernel.ndtri", []):
        up = parent[idx]
        while up >= 0 and up not in cdf_calls:
            up = parent[up]
        if up in sizes:
            sizes[up].append(size)
    passes = [qmc_passes(sizes[idx], info[0] - 1, info[2]) for idx, info in qmc.items()]
    points = sum(p["points"] for p in passes)
    m["mvn_cdf.qmc.passes"] = sum(p["passes"] for p in passes)
    m["mvn_cdf.qmc.points"] = points
    m["mvn_cdf.qmc.capped"] = sum(p["capped"] for p in passes)
    m["mvn_cdf.qmc.useful_frac"] = (sum(p["final_points"] for p in passes) / points
                                    if points else 0.0)

    for name in ("mvn_cdf.bivariate_cdf", "gauss_scalar.owen_t", "gauss_scalar.cdf",
                 "pd_matrix.from_entries", "identities.cdf_product_scalar",
                 "identities.cdf_product_vector", "oracles.adaptive_quad_1d"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("probit_bernoulli.pmf", "probit_bernoulli.marginalize",
                 "oracles.cdf_product_scalar_quad"):
        m[f"{name}.self_s"] = self_s(name)

    for name in ("probit_bernoulli.sample", "oracles.cdf_product_vector_mc"):
        draws = sum(n for _, n in rec.observed.get(name, []))
        m[f"{name}.s_per_1e6"] = total_s(name) / draws * 1e6 if draws else 0.0
    m["oracles.gauss_hermite_nodes.s"] = total_s("oracles.gauss_hermite_nodes")
    for suite in SUITES:
        m[f"verify.{suite}.s"] = total_s(f"verify.{suite}")
    return m
