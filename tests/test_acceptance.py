"""Acceptance suite.

One test per release criterion, each printing a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

Criteria 02-06 and 09 are thin assertions over one ``phiprod verify
--suite all --json`` run, made once for the module at the release seed;
criterion 10 asserts on that same run. The draws and tolerances of those
checks live in ``phiprod.verify`` alone: this module pins only the seed,
accuracy and trial count of the run. Criteria 01, 07, 08, the T(h, 1)
identity of 09 and the determinism checks of 10 have no verify
counterpart and fix their tolerances here. Nothing is calibrated at run
time.
"""

import json
import math
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np
import pytest

from phiprod import oracles
from phiprod.gauss_scalar import cdf as scalar_cdf
from phiprod.gauss_scalar import owen_t
from phiprod.identities import VectorMixParams
from phiprod.mvn_cdf import MvnQuery, bivariate_cdf, cdf as mvn_cdf
from phiprod.pd_matrix import PdMatrix
from phiprod.probit_bernoulli import ProbitBernoulli, SignVector
from phiprod.verify import _random_pd

SEED = 20240817
# the accuracy of criterion 06's 2^N * 1e-6 budget; the identity checks
# of criteria 02 and 03 are held to it too
VERIFY_ACCURACY = 1e-6
VERIFY_TRIALS = 100


class VerifyRun(NamedTuple):
    returncode: int
    passed: bool
    elapsed_s: float
    checks: dict  # (suite, name) -> the check's JSON record


@pytest.fixture(scope="module")
def verify_run() -> VerifyRun:
    """The one ``verify --suite all`` run that criteria 02-06, 09 and 10 read."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "phiprod.cli", "verify", "--suite", "all",
         "--seed", str(SEED), "--accuracy", str(VERIFY_ACCURACY),
         "--trials", str(VERIFY_TRIALS), "--json"],
        capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if not proc.stdout:
        pytest.fail(f"verify wrote no report (exit {proc.returncode}):\n{proc.stderr}")
    report = json.loads(proc.stdout)
    return VerifyRun(proc.returncode, report["pass"], elapsed,
                     {(c["suite"], c["name"]): c for c in report["checks"]})


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


def _verify_criterion(num: int, run: VerifyRun, suite: str, name: str,
                      max_elapsed_s: float = math.inf) -> None:
    check = run.checks[(suite, name)]
    timing = "" if max_elapsed_s == math.inf else \
        f", {check['elapsed_s']:.1f}s < {max_elapsed_s:.0f}s"
    _report(num, f"{suite}/{name}: {check['detail']}{timing}",
            check["pass"] and check["elapsed_s"] < max_elapsed_s)


def test_criterion_02_scalar_identity_suite(verify_run):
    _verify_criterion(2, verify_run, "identity-scalar", "closed_form_vs_gauss_hermite",
                      max_elapsed_s=60.0)


def test_criterion_03_vector_identity_suite(verify_run):
    _verify_criterion(3, verify_run, "identity-vector", "closed_form_vs_monte_carlo",
                      max_elapsed_s=300.0)


def test_criterion_04_determinant_identity(verify_run):
    _verify_criterion(4, verify_run, "matrix", "bordered_determinant_identity")


def test_criterion_05_partitioned_inverse(verify_run):
    _verify_criterion(5, verify_run, "matrix", "partitioned_inverse_identity")


def test_criterion_06_pmf_normalization(verify_run):
    _verify_criterion(6, verify_run, "bernoulli", "pmf_normalization")


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


def test_criterion_09_owen_t_grid(verify_run):
    # verify checks T on a 50x50 grid against quadrature to 1e-10; the
    # T(h, 1) identity is checked only here
    check = verify_run.checks[("scalar", "owen_t_vs_quadrature")]
    worst_unit = 0.0
    for h in (0.0, 0.5, -0.5, 2.0, -2.0):
        expected = 0.5 * scalar_cdf(h) * (1.0 - scalar_cdf(h))
        worst_unit = max(worst_unit, abs(owen_t(h, 1.0) - expected))
    _report(9, f"scalar/owen_t_vs_quadrature: {check['detail']}; "
               f"T(h,1) identity worst {worst_unit:.2e}",
            check["pass"] and worst_unit <= 1e-10)


def test_criterion_10_determinism_and_full_verify(verify_run):
    rng = np.random.default_rng(SEED + 5)
    cov = _random_pd(rng, 4)
    q = MvnQuery(upper=rng.uniform(-1, 2, 4), mean=np.zeros(4), cov=cov)
    same_cdf = mvn_cdf(q, seed=11) == mvn_cdf(q, seed=11)

    d = _half_correlation_distribution()
    same_sample = np.array_equal(d.sample(2000, seed=11), d.sample(2000, seed=11))

    same_mc = (oracles.mvn_mc(q, draws=50_000, seed=11)
               == oracles.mvn_mc(q, draws=50_000, seed=11))
    params = VectorMixParams(mu=[0.1, -0.2], sigma=_random_pd(rng, 2),
                             m=[0.0, 0.1], v=[1.0, 0.7])
    same_vec = (oracles.cdf_product_vector_mc(params, draws=50_000, seed=11)
                == oracles.cdf_product_vector_mc(params, draws=50_000, seed=11))

    run = verify_run
    _report(10, f"seeded reruns bit-identical; verify --suite all exit "
                f"{run.returncode}, {sum(c['pass'] for c in run.checks.values())}/"
                f"{len(run.checks)} checks passed in {run.elapsed_s:.0f}s < 600s",
            same_cdf and same_sample and same_mc and same_vec
            and run.returncode == 0 and run.passed and run.elapsed_s < 600.0)
