"""The benchmark's four workloads: input generation, the call each op makes,
and the correctness check applied to what the calls return.

Every workload is a closed loop: one client makes call ``k + 1`` when call
``k`` returns. The work in a run is fixed by ``seconds`` through a nominal
per-workload rate measured at the seed code, so that a run does the same work
on every commit and the counts of a traced run repeat exactly. ``--seed``
decides what each call asks; each build function says which parts it draws.

Nothing here imports ``phiprod`` at module level, so that ``run.py`` can
first make sure it imports the package of its own checkout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

ACCURACY = 1e-6
QMC_METHOD = "qmc_genz"

# support-n8 and moments-mixed draw their inputs once from these fixed
# streams, the way phiprod.verify draws them, and call with phiprod's default
# QMC seed, as a caller who passes none. One N = 8 model costs 8-22 s, one
# N = 6 vector call 5 ms-1.2 s, and the QMC seed alone moves a call across a
# doubling level (2x its cost); inputs drawn from the run seed made the
# quartile spread of throughput 14% in 20 s runs. The run seed orders calls.
SUPPORT_POOL_SEED = 20170416
MOMENTS_POOL_SEED = 20170417
# verify-all runs the suites at one fixed seed and trial count: their cost
# swings 4x with the verify seed, because bernoulli draws N up to 8.
VERIFY_SEED = 0
VERIFY_TRIALS = 20

SUPPORT_N = 8
MOMENTS_MAX_N = 6
PAIRWISE_D = 16
# seed-code cost of one unit of work, which sizes a run from --seconds
SUPPORT_MODEL_S = 19.0      # one N = 8 model, 256 calls
MOMENTS_CALL_S = 0.02       # one moments call
PAIRWISE_POINT_S = 0.1      # one parameter point, 480 calls
VERIFY_ROUND_S = 9.5        # one round of the five suites

# scipy's error target for the vector references, tighter than ACCURACY
REFERENCE_ABSEPS = ACCURACY / 2


@dataclass
class Op:
    """One timed call; ``key`` is what it asks, ``meta`` what its check needs,
    ``label`` the name of its span in a traced run."""

    call: Callable[[], Any]
    key: tuple
    meta: dict = field(default_factory=dict)
    label: str = "op"


@dataclass
class Workload:
    ops: list[Op]
    # check(results) -> (failed checks per call, details)
    check: Callable[[list], tuple[list[int], dict]]
    # checks per call: 1 except verify-all, where a call runs a whole suite
    size: Callable[[Any], int] = lambda result: 1
    # comparator_queries(results) -> [(op index, (upper, mean, cov))] on a
    # fixed sample of the calls that went through QMC
    comparator_queries: Callable[[list], list] | None = None


def n_units(seconds: float, unit_s: float) -> int:
    return max(1, round(seconds / unit_s))


def _random_pd(rng: np.random.Generator, n: int):
    from phiprod import PdMatrix
    g = rng.standard_normal((n, n))
    return PdMatrix.from_entries(n, g.T @ g + 0.1 * np.eye(n))


def is_estimate(result) -> bool:
    from phiprod import MvnEstimate
    return isinstance(result, MvnEstimate)


COMPARATOR_SAMPLE = 6


def _qmc_sample(results: list) -> list[int]:
    """The first COMPARATOR_SAMPLE calls, in run order, that went through QMC."""
    picked = [i for i, r in enumerate(results) if is_estimate(r) and r.method == QMC_METHOD]
    return picked[:COMPARATOR_SAMPLE]


# --- support-n8 -------------------------------------------------------------

def build_support(seed: int, seconds: float) -> Workload:
    """pmf of all 2^8 sign vectors of each model, at accuracy 1e-6."""
    from phiprod import ProbitBernoulli, SignVector

    pool = np.random.default_rng(SUPPORT_POOL_SEED)
    rng = np.random.default_rng([seed, 1])
    signs = list(itertools.product((-1, 1), repeat=SUPPORT_N))
    ops = []
    for model in range(n_units(seconds, SUPPORT_MODEL_S)):
        dist = ProbitBernoulli(pool.uniform(-1.5, 1.5, size=SUPPORT_N),
                               _random_pd(pool, SUPPORT_N))
        for k in rng.permutation(len(signs)):
            y = SignVector(signs[k])
            ops.append(Op(call=lambda dist=dist, y=y: dist.pmf(y, ACCURACY),
                          key=(model, y.signs),
                          meta={"model": model, "dist": dist, "y": y}))

    def check(results):
        bad = [not (is_estimate(r) and 0.0 <= r.value <= 1.0) for r in results]
        totals: dict[int, float] = {}
        for op, r, b in zip(ops, results, bad):
            if not b:
                totals[op.meta["model"]] = totals.get(op.meta["model"], 0.0) + r.value
        budget = 2**SUPPORT_N * ACCURACY
        bad_models = {m for m, t in totals.items() if abs(t - 1.0) > budget}
        failed = [int(b or op.meta["model"] in bad_models) for op, b in zip(ops, bad)]
        return failed, {"model_sums": [totals.get(m) for m in sorted(totals)],
                        "sum_budget": budget}

    def comparator_queries(results):
        return [(i, orthant_query(ops[i].meta["dist"], ops[i].meta["y"]))
                for i in _qmc_sample(results)]

    return Workload(ops, check, comparator_queries=comparator_queries)


def orthant_query(dist, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(upper, mean, cov) of pmf(y) = F_N(D_y mu | 0, I + D_y Sigma D_y)."""
    ys = np.asarray(y.signs, dtype=float)
    cov = np.eye(dist.dim) + dist.sigma.entries * np.outer(ys, ys)
    return ys * dist.mu, np.zeros(dist.dim), cov


# --- moments-mixed ----------------------------------------------------------

def build_moments(seed: int, seconds: float) -> Workload:
    """Half cdf_product_scalar, half cdf_product_vector, N uniform in 1..6."""
    import phiprod
    from phiprod import ScalarMixParams, VectorMixParams

    pool = np.random.default_rng(MOMENTS_POOL_SEED)
    count = n_units(seconds, MOMENTS_CALL_S)
    # every (kind, N) stratum gets an equal share, so the mix is fixed
    strata = [(kind, n) for n in range(1, MOMENTS_MAX_N + 1) for kind in ("scalar", "vector")]
    drawn = []
    for i in range(count):
        kind, n = strata[i % len(strata)]
        if kind == "scalar":
            params = ScalarMixParams(mu=float(pool.uniform(-2.0, 2.0)),
                                     sigma2=float(pool.uniform(0.3, 2.0)) ** 2,
                                     m=pool.uniform(-2.0, 2.0, size=n),
                                     v=pool.uniform(0.3, 2.0, size=n))
        else:
            params = VectorMixParams(mu=pool.uniform(-2.0, 2.0, size=n),
                                     sigma=_random_pd(pool, n),
                                     m=pool.uniform(-2.0, 2.0, size=n),
                                     v=pool.uniform(0.3, 2.0, size=n))
        drawn.append((kind, params))
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in rng.permutation(count):
        kind, params = drawn[i]
        # looked up at call time, so that a traced pass goes through the wrapper
        fn = f"cdf_product_{kind}"
        ops.append(Op(call=lambda fn=fn, p=params: getattr(phiprod, fn)(p, ACCURACY),
                      key=(int(i),), meta={"kind": kind, "params": params}))

    def check(results):
        failed = []
        worst = 0.0
        for op, r in zip(ops, results):
            if not is_estimate(r):
                failed.append(1)
                continue
            ref, ref_err = moments_reference(op.meta["kind"], op.meta["params"])
            ratio = abs(r.value - ref) / (ACCURACY + r.err_estimate + ref_err)
            worst = max(worst, ratio)
            failed.append(int(not ratio <= 1.0))
        return failed, {"worst_gap_over_tolerance": worst}

    def comparator_queries(results):
        return [(i, moments_query(ops[i].meta["kind"], ops[i].meta["params"]))
                for i in _qmc_sample(results)]

    return Workload(ops, check, comparator_queries=comparator_queries)


def moments_query(kind: str, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(upper, mean, cov) of the MVN CDF a moments call reduces to."""
    if kind == "scalar":
        return np.full(p.n, p.mu), np.asarray(p.m), np.diag(p.v * p.v) + p.sigma2
    return np.asarray(p.mu), np.asarray(p.m), p.sigma.entries + np.diag(p.v * p.v)


def moments_reference(kind: str, p) -> tuple[float, float]:
    """An independent value for one moments call, and its own error bound."""
    from phiprod import oracles
    if kind == "scalar":
        return oracles.cdf_product_scalar_quad(p, order=200), 0.0
    upper, mean, cov = moments_query(kind, p)
    if p.n == 1:
        from scipy.special import ndtr
        return float(ndtr((upper[0] - mean[0]) / math.sqrt(cov[0, 0]))), 0.0
    return scipy_mvn_cdf(upper, mean, cov, REFERENCE_ABSEPS), REFERENCE_ABSEPS


def scipy_mvn_cdf(upper, mean, cov, abseps: float, maxpts: int | None = None) -> float:
    from scipy.stats import multivariate_normal
    extra = {} if maxpts is None else {"maxpts": maxpts}
    dist = multivariate_normal(mean=mean, cov=cov, abseps=abseps, releps=0.0,
                               seed=12345, **extra)
    return float(dist.cdf(upper))


# --- pairwise-probit --------------------------------------------------------

def build_pairwise(seed: int, seconds: float) -> Workload:
    """marginalize([i, j]) then pmf of one sign pair, on a D = 16 model."""
    from phiprod import PdMatrix, ProbitBernoulli, SignVector

    rng = np.random.default_rng([seed, 3])
    d = PAIRWISE_D
    mu = rng.uniform(-1.0, 1.0, size=d)
    g = rng.standard_normal((d, d)) / math.sqrt(d)
    pairs = list(itertools.combinations(range(d), 2))
    signs = [SignVector(s) for s in itertools.product((1, -1), repeat=2)]
    ops = []
    # a random walk over parameter points with one sweep of every pair at
    # each, as an optimiser makes successive composite-likelihood calls
    for point in range(n_units(seconds, PAIRWISE_POINT_S)):
        mu = mu + 0.02 * rng.standard_normal(d)
        g = g + 0.02 * rng.standard_normal((d, d))
        dist = ProbitBernoulli(mu, PdMatrix.from_entries(d, g.T @ g + 0.5 * np.eye(d)))
        for i, j in pairs:
            for y in signs:
                ops.append(Op(call=lambda dist=dist, i=i, j=j, y=y:
                              dist.marginalize([i, j]).pmf(y),
                              key=(point, i, j, y.signs, float(mu[i]), float(mu[j])),
                              meta={"dist": dist, "pair": (i, j), "y": y.signs}))

    def check(results):
        # the four calls of one (point, pair) are consecutive
        failed = []
        worst_sum = worst_mean = 0.0
        means: dict[int, np.ndarray] = {}
        for start in range(0, len(ops), len(signs)):
            group = results[start:start + len(signs)]
            if not all(is_estimate(r) for r in group):
                failed.extend(int(not is_estimate(r)) for r in group)
                continue
            vals = {op.meta["y"]: r.value for op, r in zip(ops[start:], group)}
            dist = ops[start].meta["dist"]
            if id(dist) not in means:
                means[id(dist)] = dist.mean()
            half = 0.5 * (1.0 + means[id(dist)][ops[start].meta["pair"][0]])
            sum_gap = abs(sum(vals.values()) - 1.0)
            mean_gap = abs(vals[(1, 1)] + vals[(1, -1)] - half)
            worst_sum = max(worst_sum, sum_gap)
            worst_mean = max(worst_mean, mean_gap)
            bad = not (sum_gap <= 1e-10 and mean_gap <= 1e-10)
            failed.extend([int(bad)] * len(group))
        return failed, {"worst_sum_gap": worst_sum, "worst_mean_gap": worst_mean}

    return Workload(ops, check)


# --- verify-all -------------------------------------------------------------

def build_verify(seed: int, seconds: float) -> Workload:
    """verify.run_suites, one suite per call, at a fixed seed and trial count.

    The run seed only orders the suites; round r runs at verify seed
    VERIFY_SEED + r, so a run longer than one round repeats no check.
    """
    from phiprod import verify

    rng = np.random.default_rng([seed, 4])
    ops = []
    for r in range(n_units(seconds, VERIFY_ROUND_S)):
        for k in rng.permutation(len(verify.SUITE_NAMES)):
            suite = verify.SUITE_NAMES[k]
            ops.append(Op(call=lambda suite=suite, vs=VERIFY_SEED + r:
                          verify.run_suites([suite], trials=VERIFY_TRIALS, seed=vs),
                          key=(suite, VERIFY_SEED + r), label=f"verify.{suite}"))

    def check(results):
        failed = [sum(not c.passed for c in r) if isinstance(r, list) else 1 for r in results]
        return failed, {"failed_checks": [f"{c.suite}/{c.name}: {c.detail}"
                                          for r in results if isinstance(r, list)
                                          for c in r if not c.passed]}

    return Workload(ops, check,
                    size=lambda result: len(result) if isinstance(result, list) else 1)


WORKLOADS: dict[str, Callable[[int, float], Workload]] = {
    "support-n8": build_support,
    "moments-mixed": build_moments,
    "pairwise-probit": build_pairwise,
    "verify-all": build_verify,
}
