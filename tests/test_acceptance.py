"""Acceptance suite.

One test per release criterion, each printing a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Every tolerance is fixed here; nothing is calibrated at run time.
"""

import math
import subprocess
import sys
import time

import numpy as np

from conftest import random_pd
from phiprod import oracles
from phiprod.gauss_scalar import cdf as scalar_cdf
from phiprod.gauss_scalar import owen_t
from phiprod.identities import ScalarMixParams, VectorMixParams, cdf_product_vector, \
    scalar_mix_query
from phiprod.mvn_cdf import MvnQuery, bivariate_cdf, cdf as mvn_cdf
from phiprod.pd_matrix import (
    PdMatrix,
    assemble_precision,
    full_cov_determinant,
    partitioned_inverse_check,
    precision_blocks_from_variances,
)
from phiprod.probit_bernoulli import ProbitBernoulli, SignVector

SEED = 20240817


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def _half_correlation_distribution() -> ProbitBernoulli:
    # latent covariance whose noise-augmented correlation is y1*y2/2, the
    # proper-PD realization of the degenerate variances-to-zero fixture
    return ProbitBernoulli(np.zeros(2), PdMatrix.from_entries(
        2, [[1.5, 1.25], [1.25, 1.5]]))


def test_criterion_01_half_correlation_pmf():
    start = time.perf_counter()
    d = _half_correlation_distribution()
    worst = 0.0
    for signs, expected in [((1, 1), 1 / 3), ((-1, -1), 1 / 3),
                            ((1, -1), 1 / 6), ((-1, 1), 1 / 6)]:
        got = d.pmf(SignVector(signs), accuracy=1e-6).value
        worst = max(worst, abs(got - expected))
    # the same numbers through the limiting correlation matrix passed
    # straight to the MVN CDF (the latent covariance there is degenerate)
    for flip, expected in [(1.0, 1 / 3), (-1.0, 1 / 6)]:
        q = MvnQuery(upper=[0.0, 0.0], mean=[0.0, 0.0],
                     cov=PdMatrix.from_entries(2, [[1.0, 0.5 * flip],
                                                   [0.5 * flip, 1.0]]))
        worst = max(worst, abs(mvn_cdf(q).value - expected))
    elapsed = time.perf_counter() - start
    _report(1, f"sign pmf quadruple within 1e-6 (worst {worst:.2e}), "
               f"{elapsed:.2f}s < 1s", worst <= 1e-6 and elapsed < 1.0)


def test_criterion_02_scalar_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    failures = 0
    for i in range(100):
        n = int(rng.integers(1, 6))
        params = ScalarMixParams(
            mu=float(rng.uniform(-2, 2)),
            sigma2=float(rng.uniform(0.3, 2.0)) ** 2,
            m=rng.uniform(-2, 2, size=n),
            v=rng.uniform(0.3, 2.0, size=n),
        )
        # the MVN reduction itself, not the one-factor route that
        # cdf_product_scalar takes at N >= 3 (that route is checked against
        # this one by verify's identity-scalar/one_factor_vs_mvn_reduction)
        est = mvn_cdf(scalar_mix_query(params, 1e-5), seed=SEED + i)
        ref = oracles.cdf_product_scalar_quad(params, order=200)
        gap = abs(est.value - ref)
        worst = max(worst, gap)
        if gap > 1e-5 + est.err_estimate:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(2, f"100/100 scalar-identity draws within 1e-5 + err "
               f"(worst gap {worst:.2e}), {elapsed:.1f}s < 60s",
            failures == 0 and elapsed < 60.0)


def test_criterion_03_vector_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    excursions = 0
    for i in range(50):
        n = int(rng.integers(1, 5))
        params = VectorMixParams(
            mu=rng.uniform(-2, 2, size=n),
            sigma=random_pd(rng, n),
            m=rng.uniform(-2, 2, size=n),
            v=rng.uniform(0.3, 2.0, size=n),
        )
        est = cdf_product_vector(params, accuracy=1e-5, seed=SEED + i)
        mc, se = oracles.cdf_product_vector_mc(params, draws=1_000_000,
                                               seed=SEED + 500 + i)
        combined = math.sqrt(se * se + (est.err_estimate / 3.0) ** 2)
        if abs(est.value - mc) > 3.0 * combined:
            excursions += 1
    elapsed = time.perf_counter() - start
    _report(3, f"{50 - excursions}/50 vector-identity draws within 3 combined SE "
               f"(1 excursion allowed), {elapsed:.1f}s < 300s",
            excursions <= 1 and elapsed < 300.0)


def test_criterion_04_determinant_identity():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
        v = rng.uniform(0.3, 2.0, size=n)
        det = full_cov_determinant(sigma2, v)
        closed = sigma2 * float(np.prod(v * v))
        worst = max(worst, abs(det - closed) / closed)
    _report(4, f"bordered determinant matches sigma2*prod(v^2) to 1e-10 relative "
               f"(worst {worst:.2e})", worst <= 1e-10)


def test_criterion_05_partitioned_inverse():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
        v = rng.uniform(0.3, 2.0, size=n)
        blocks = precision_blocks_from_variances(sigma2, v)
        cov = partitioned_inverse_check(blocks)
        resid = float(np.linalg.norm(
            cov.entries @ assemble_precision(blocks) - np.eye(n + 1)))
        worst = max(worst, resid)
    _report(5, f"covariance times precision is identity to 1e-10 Frobenius "
               f"(worst {worst:.2e})", worst <= 1e-10)


def test_criterion_06_pmf_normalization():
    rng = np.random.default_rng(SEED + 4)
    worst_ratio = 0.0
    ok = True
    for i in range(20):
        n = int(rng.integers(1, 9))
        d = ProbitBernoulli(rng.uniform(-1.5, 1.5, size=n), random_pd(rng, n))
        dev = abs(d.normalization(accuracy=1e-6, seed=SEED + i) - 1.0)
        budget = 2**n * 1e-6
        worst_ratio = max(worst_ratio, dev / budget)
        ok = ok and dev <= budget
    _report(6, f"20/20 normalizations within 2^N * 1e-6 "
               f"(worst at {worst_ratio:.2f} of budget)", ok)


def test_criterion_07_generative_equivalence():
    d = _half_correlation_distribution()
    draws = d.sample(1_000_000, seed=SEED)
    freq = float(np.mean(np.all(draws == 1, axis=1)))
    _report(7, f"empirical frequency of (+1,+1) = {freq:.6f} within 1/3 +- 0.002",
            abs(freq - 1 / 3) <= 0.002)


def test_criterion_08_bivariate_exactness():
    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        worst = max(worst, abs(bivariate_cdf(0.0, 0.0, rho) - expected))
    _report(8, f"Phi2(0,0,rho) matches 1/4 + arcsin(rho)/(2pi) to 1e-10 "
               f"(worst {worst:.2e})", worst <= 1e-10)


def test_criterion_09_owen_t_grid():
    worst_grid = 0.0
    for h in np.linspace(-3.0, 3.0, 50):
        for a in np.linspace(-3.0, 3.0, 50):
            ref = oracles.adaptive_quad_1d(
                oracles.owen_t_integrand(float(h)), 0.0, float(a), 1e-13)
            worst_grid = max(worst_grid, abs(owen_t(float(h), float(a)) - ref))
    worst_unit = 0.0
    for h in (0.0, 0.5, -0.5, 2.0, -2.0):
        expected = 0.5 * scalar_cdf(h) * (1.0 - scalar_cdf(h))
        worst_unit = max(worst_unit, abs(owen_t(h, 1.0) - expected))
    _report(9, f"T on 2500-point grid within 1e-10 of quadrature "
               f"(worst {worst_grid:.2e}); T(h,1) identity worst {worst_unit:.2e}",
            worst_grid <= 1e-10 and worst_unit <= 1e-10)


def test_criterion_10_determinism_and_full_verify():
    rng = np.random.default_rng(SEED + 5)
    cov = random_pd(rng, 4)
    q = MvnQuery(upper=rng.uniform(-1, 2, 4), mean=np.zeros(4), cov=cov)
    same_cdf = mvn_cdf(q, seed=11) == mvn_cdf(q, seed=11)

    d = _half_correlation_distribution()
    same_sample = np.array_equal(d.sample(2000, seed=11), d.sample(2000, seed=11))

    same_mc = (oracles.mvn_mc(q, draws=50_000, seed=11)
               == oracles.mvn_mc(q, draws=50_000, seed=11))
    params = VectorMixParams(mu=[0.1, -0.2], sigma=random_pd(rng, 2),
                             m=[0.0, 0.1], v=[1.0, 0.7])
    same_vec = (oracles.cdf_product_vector_mc(params, draws=50_000, seed=11)
                == oracles.cdf_product_vector_mc(params, draws=50_000, seed=11))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "phiprod.cli", "verify", "--suite", "all"],
        capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    _report(10, f"seeded reruns bit-identical; verify --suite all exit "
                f"{proc.returncode} in {elapsed:.0f}s < 600s",
            same_cdf and same_sample and same_mc and same_vec
            and proc.returncode == 0 and elapsed < 600.0)
