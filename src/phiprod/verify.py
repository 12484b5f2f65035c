"""Randomized property-check suites behind the ``verify`` CLI command.

Each suite re-derives the library's guarantees from independent routes
(quadrature, Monte Carlo, enumeration, algebraic structure) on freshly
drawn random instances. Every check is deterministic for a fixed seed.
The ``perturb`` argument injects a bias into the quantity under test so
the failure path of the harness itself can be exercised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles, pd_matrix
from .gauss_scalar import cdf, inv_cdf, owen_t, phi
from .identities import ScalarMixParams, VectorMixParams, cdf_product_scalar, \
    cdf_product_vector, scalar_mix_query, shared_noise_cov
from .mvn_cdf import MvnQuery, _check_accuracy, _rng, cdf as mvn_cdf_eval
from .pd_matrix import PdMatrix
from .probit_bernoulli import ProbitBernoulli, SignVector

__all__ = ["CheckResult", "SUITE_NAMES", "run_suites"]

SUITE_NAMES = ("scalar", "matrix", "identity-scalar", "identity-vector", "bernoulli")


@dataclass
class CheckResult:
    """One check's outcome; ``elapsed_s`` is the suite's wall time since its
    previous check, so a loop shared by several checks is charged to the
    first. It stays out of ``repr`` and equality, which must not vary with
    timing."""
    suite: str
    name: str
    passed: bool
    detail: str
    elapsed_s: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self):
        self.passed = bool(self.passed)  # numpy bools are not JSON-serializable


def _scaled(count: int, trials: int) -> int:
    return max(1, round(count * trials / 100))


def _random_pd(rng: np.random.Generator, n: int) -> PdMatrix:
    """Random SPD matrix G^T G + 0.1 I with G standard normal, n x n.

    The tests draw their matrices here too, so a seeded draw is the same
    matrix in a test and in a check."""
    g = rng.standard_normal((n, n))
    return PdMatrix.from_entries(n, g.T @ g + 0.1 * np.eye(n))


def _suite_scalar(trials: int, seed: int, accuracy: float, perturb: float):
    del trials, accuracy  # fixed grids; unaffected by the trial budget

    xs = np.linspace(-8.0, 8.0, 10_000)
    worst = max(abs(cdf(x) + cdf(-x) - 1.0) for x in xs)
    yield CheckResult("scalar", "cdf_reflection", worst <= 1e-14,
                      f"max |Phi(x)+Phi(-x)-1| = {worst:.3g}")

    step = 1e-5
    worst = max(abs((cdf(x + step) - cdf(x - step)) / (2 * step) - phi(x))
                for x in np.linspace(-6.0, 6.0, 241))
    yield CheckResult("scalar", "cdf_derivative_matches_phi", worst <= 1e-8,
                      f"max |dPhi/dx - phi| = {worst:.3g}")

    worst = max(abs(phi(x) - phi(-x)) for x in np.linspace(0.0, 40.0, 201))
    nonneg = all(phi(x) >= 0.0 for x in np.linspace(-40.0, 40.0, 201))
    yield CheckResult("scalar", "phi_even_and_nonnegative",
                      worst <= 1e-16 and nonneg,
                      f"max |phi(x)-phi(-x)| = {worst:.3g}")

    ps = np.concatenate([np.logspace(-15, -1, 30), np.linspace(0.1, 0.9, 17),
                         1.0 - np.logspace(-15, -1, 30)])
    worst = max(abs(cdf(inv_cdf(p)) - p) for p in ps)
    yield CheckResult("scalar", "inv_cdf_roundtrip", worst <= 1e-12,
                      f"max |Phi(Phi^-1(p))-p| = {worst:.3g}")

    hs = np.linspace(-3.0, 3.0, 50)
    worst = 0.0
    worst_even = 0.0
    worst_anti = 0.0
    for h in hs:
        for a in hs:
            ref = oracles.adaptive_quad_1d(oracles.owen_t_integrand(h), 0.0, a, 1e-13)
            worst = max(worst, abs(owen_t(h, a) + perturb - ref))
            worst_even = max(worst_even, abs(owen_t(h, a) - owen_t(-h, a)))
            worst_anti = max(worst_anti, abs(owen_t(h, a) + owen_t(h, -a)))
    yield CheckResult("scalar", "owen_t_vs_quadrature", worst <= 1e-10,
                      f"max |T - quad| = {worst:.3g} on 50x50 grid")
    yield CheckResult("scalar", "owen_t_even_in_h", worst_even <= 1e-14,
                      f"max asymmetry = {worst_even:.3g}")
    yield CheckResult("scalar", "owen_t_antisymmetric_in_a", worst_anti <= 1e-14,
                      f"max residual = {worst_anti:.3g}")


def _suite_matrix(trials: int, seed: int, accuracy: float, perturb: float):
    del accuracy
    rng = _rng(seed, 1)

    worst = 0.0
    for _ in range(_scaled(200, trials)):
        n = int(rng.integers(1, 9))
        m = _random_pd(rng, n)
        err = np.linalg.norm(m.chol @ m.chol.T - m.entries) / np.linalg.norm(m.entries)
        worst = max(worst, err)
    yield CheckResult("matrix", "cholesky_reconstruction", worst <= 1e-10,
                      f"max rel Frobenius error = {worst:.3g}")

    worst = 0.0
    for _ in range(_scaled(100, trials)):
        n = int(rng.integers(1, 7))
        sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
        v = rng.uniform(0.3, 2.0, size=n)
        det = pd_matrix.full_cov_determinant(sigma2, v) + perturb
        closed = sigma2 * float(np.prod(v * v))
        worst = max(worst, abs(det - closed) / closed)
    yield CheckResult("matrix", "bordered_determinant_identity",
                      worst <= pd_matrix._DET_RTOL,
                      f"max rel disagreement = {worst:.3g}")

    worst = 0.0
    for _ in range(_scaled(100, trials)):
        n = int(rng.integers(1, 7))
        sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
        v = rng.uniform(0.3, 2.0, size=n)
        blocks = pd_matrix.precision_blocks_from_variances(sigma2, v)
        cov = pd_matrix.partitioned_inverse_check(blocks).entries + perturb
        resid = np.linalg.norm(
            cov @ pd_matrix.assemble_precision(blocks) - np.eye(n + 1))
        worst = max(worst, resid)
    yield CheckResult("matrix", "partitioned_inverse_identity",
                      worst <= pd_matrix._RESID_FROB_TOL,
                      f"max Frobenius residual = {worst:.3g}")

    worst = 0.0
    for _ in range(_scaled(50, trials)):
        n = int(rng.integers(1, 9))
        m = _random_pd(rng, n)
        rhs = rng.standard_normal(n)
        x = pd_matrix.cholesky_solve(m, rhs)
        resid = np.max(np.abs(m.entries @ x - rhs)) / max(np.max(np.abs(rhs)), 1e-30)
        worst = max(worst, resid)
    yield CheckResult("matrix", "cholesky_solve_residual", worst <= 1e-9,
                      f"max rel residual = {worst:.3g}")


def _draw_scalar_params(rng: np.random.Generator, max_n: int = 5) -> ScalarMixParams:
    n = int(rng.integers(1, max_n + 1))
    return ScalarMixParams(
        mu=float(rng.uniform(-2.0, 2.0)),
        sigma2=float(rng.uniform(0.3, 2.0)) ** 2,
        m=rng.uniform(-2.0, 2.0, size=n),
        v=rng.uniform(0.3, 2.0, size=n),
    )


def _suite_identity_scalar(trials: int, seed: int, accuracy: float, perturb: float):
    rng = _rng(seed, 2)

    # the MVN reduction itself is checked against adaptive quadrature, and
    # the one-factor route that cdf_product_scalar takes is checked against
    # it; a rerun at a 100x looser tol certifies the reference
    failures = []
    worst_gap = 0.0
    worst_cert = 0.0
    route_failures = 0
    worst_route = 0.0
    for i in range(trials):
        params = _draw_scalar_params(rng)
        est = mvn_cdf_eval(scalar_mix_query(params, accuracy), seed=seed + i)
        ref = oracles.cdf_product_scalar_adaptive(params, tol=1e-13)[0]
        cert = abs(ref - oracles.cdf_product_scalar_adaptive(params, tol=1e-11)[0])
        gap = abs(est.value + perturb - ref)
        worst_gap = max(worst_gap, gap)
        worst_cert = max(worst_cert, cert)
        if gap > accuracy + est.err_estimate:
            failures.append(i)
        fast = cdf_product_scalar(params, accuracy=accuracy, seed=seed + i)
        route = abs(fast.value + perturb - est.value)
        worst_route = max(worst_route, route)
        if route > accuracy + fast.err_estimate + est.err_estimate:
            route_failures += 1
    yield CheckResult(
        "identity-scalar", "closed_form_vs_quadrature", not failures,
        f"{trials - len(failures)}/{trials} draws within tolerance, "
        f"max gap = {worst_gap:.3g}")
    yield CheckResult(
        "identity-scalar", "one_factor_vs_mvn_reduction", route_failures == 0,
        f"{trials - route_failures}/{trials} draws within accuracy + both errors, "
        f"max gap = {worst_route:.3g}")
    yield CheckResult(
        "identity-scalar", "quadrature_tolerance_certificate",
        worst_cert + perturb <= 1e-11,
        f"max |tol 1e-13 - tol 1e-11| = {worst_cert:.3g}")

    exact = True
    for _ in range(20):
        n = int(rng.integers(1, 6))
        sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
        v = rng.uniform(0.3, 2.0, size=n)
        built = shared_noise_cov(sigma2, v).entries
        expected = np.diag(v * v) + sigma2 * np.ones((n, n))
        exact = exact and bool(np.array_equal(built, expected))
    yield CheckResult("identity-scalar", "covariance_structure_exact", exact,
                      "diag(v^2) + sigma2 * ones, entrywise")

    worst = 0.0
    for i in range(3):
        n = int(rng.integers(2, 5))
        v = rng.uniform(0.3, 2.0, size=n)
        v[int(rng.integers(0, n))] = 100.0
        params = ScalarMixParams(mu=float(rng.uniform(-2, 2)),
                                 sigma2=float(rng.uniform(0.3, 2.0)) ** 2,
                                 m=rng.uniform(-2, 2, size=n), v=v)
        est = mvn_cdf_eval(scalar_mix_query(params, accuracy), seed=seed + 1000 + i)
        ref = oracles.cdf_product_scalar_adaptive(params)[0]
        worst = max(worst, abs(est.value - ref))
    yield CheckResult("identity-scalar", "wide_factor_consistency",
                      worst <= accuracy + 1e-6,
                      f"max gap with one v_r = 100: {worst:.3g}")


def _suite_identity_vector(trials: int, seed: int, accuracy: float, perturb: float):
    rng = _rng(seed, 3)
    draws = max(trials // 2, 1)

    excursions = 0
    worst_ratio = 0.0
    for i in range(draws):
        n = int(rng.integers(1, 5))
        params = VectorMixParams(
            mu=rng.uniform(-2.0, 2.0, size=n),
            sigma=_random_pd(rng, n),
            m=rng.uniform(-2.0, 2.0, size=n),
            v=rng.uniform(0.3, 2.0, size=n),
        )
        est = cdf_product_vector(params, accuracy=accuracy, seed=seed + i)
        mc, se = oracles.cdf_product_vector_mc(params, draws=1_000_000, seed=seed + i)
        threshold = oracles.mc_threshold(se, est.err_estimate)
        ratio = abs(est.value + perturb - mc) / max(threshold, 1e-300)
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            excursions += 1
    allowed = max(draws // 50, 0)
    yield CheckResult(
        "identity-vector", "closed_form_vs_monte_carlo", excursions <= allowed,
        f"{excursions} excursion(s) beyond 3 combined SE in {draws} draws "
        f"(allowed {allowed}), worst ratio = {worst_ratio:.3g}")

    worst = 0.0
    for i in range(10):
        mu = float(rng.uniform(-2, 2))
        s2 = float(rng.uniform(0.3, 2.0)) ** 2
        m = float(rng.uniform(-2, 2))
        v = float(rng.uniform(0.3, 2.0))
        a = cdf_product_scalar(ScalarMixParams(mu, s2, [m], [v]), accuracy=accuracy)
        b = cdf_product_vector(
            VectorMixParams([mu], PdMatrix.from_entries(1, [[s2]]), [m], [v]),
            accuracy=accuracy)
        worst = max(worst, abs(a.value - b.value))
    yield CheckResult("identity-vector", "n1_reduces_to_scalar_form",
                      worst <= 1e-12, f"max route gap = {worst:.3g}")

    worst = 0.0
    for i in range(10):
        n = int(rng.integers(1, 5))
        mu = rng.uniform(-2.0, 2.0, size=n)
        params = VectorMixParams(
            mu=mu,
            sigma=PdMatrix.from_entries(n, np.diag(rng.uniform(0.3, 2.0, size=n) ** 2)),
            m=mu.copy(),
            v=rng.uniform(0.3, 2.0, size=n),
        )
        est = cdf_product_vector(params, accuracy=accuracy, seed=seed + i)
        worst = max(worst, abs(est.value - 0.5 ** n))
    yield CheckResult("identity-vector", "diagonal_median_product",
                      worst <= accuracy + 1e-9,
                      f"max |value - 2^-N| = {worst:.3g}")


# Seed offset of a second, independent QMC randomization of a probability.
# At one seed, two queries with the same upper - mean and covariance give
# the same value bit for bit, so a comparison between them could not fail.
_REFERENCE_SEED_OFFSET = 1 << 20


def _sign_pattern_counts(draws: np.ndarray) -> list[int]:
    """How many rows of a (count, n) array of -1/+1 hold each sign pattern,
    in ProbitBernoulli.support() order.

    A row's index in that order reads -1 as bit 0 and +1 as bit 1, first
    coordinate most significant. The codes array is freed on return, before
    the next sample: left alive at the top of the heap, it keeps the
    allocator from handing the sampler's freed pages back, and the peak RSS
    of the bernoulli suite grows.
    """
    codes = np.zeros(draws.shape[0], dtype=np.uint8)
    for column in draws.T:
        codes <<= 1
        codes |= column > 0
    return np.bincount(codes, minlength=1 << draws.shape[1]).tolist()


def _suite_bernoulli(trials: int, seed: int, accuracy: float, perturb: float):
    rng = _rng(seed, 4)

    worst = 0.0
    passed = True
    for i in range(_scaled(20, trials)):
        n = int(rng.integers(1, 9))
        d = ProbitBernoulli(rng.uniform(-1.5, 1.5, size=n), _random_pd(rng, n))
        dev = abs(d.normalization(accuracy=accuracy, seed=seed + i) + perturb - 1.0)
        worst = max(worst, dev / (2**n * accuracy))
        passed = passed and dev <= 2**n * accuracy
    yield CheckResult("bernoulli", "pmf_normalization", passed,
                      f"worst deviation = {worst:.3g} of the 2^N budget")

    # pmf(-y; -mu) through ProbitBernoulli against pmf(y; mu) from the query
    # built by hand, under an independent QMC randomization
    worst = 0.0
    for i in range(_scaled(50, trials)):
        n = int(rng.integers(1, 7))
        mu = rng.uniform(-1.5, 1.5, size=n)
        sig = _random_pd(rng, n)
        y = SignVector(tuple(rng.choice([-1, 1], size=n).tolist()))
        ys = np.asarray(y.signs, dtype=float)
        by_hand = MvnQuery(upper=ys * mu, mean=np.zeros(n), accuracy=accuracy,
                           cov=PdMatrix.from_entries(
                               n, np.eye(n) + sig.entries * np.outer(ys, ys)))
        a = mvn_cdf_eval(by_hand, seed=seed + _REFERENCE_SEED_OFFSET + i)
        b = ProbitBernoulli(-mu, sig).pmf(y.flipped(), accuracy=accuracy, seed=seed + i)
        worst = max(worst, abs(b.value + perturb - a.value))
    yield CheckResult("bernoulli", "sign_flip_symmetry",
                      worst <= 2 * accuracy,
                      f"max |pmf(y;mu) - pmf(-y;-mu)| = {worst:.3g}")

    worst = 0.0
    for i in range(_scaled(20, trials)):
        n = int(rng.integers(2, 6))
        d = ProbitBernoulli(rng.uniform(-1.5, 1.5, size=n), _random_pd(rng, n))
        k = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=k, replace=False).tolist())
        marg = d.marginalize(keep)
        y = SignVector(tuple(rng.choice([-1, 1], size=k).tolist()))
        direct = marg.pmf(y, accuracy=accuracy, seed=seed + i).value
        total = 0.0
        for full in d.support():
            if tuple(full.signs[j] for j in keep) == y.signs:
                total += d.pmf(full, accuracy=accuracy, seed=seed + i).value
        worst = max(worst, abs(direct - total) / ((2 ** (n - k) + 1) * accuracy))
    yield CheckResult("bernoulli", "marginal_consistency",
                      worst <= 1.0,
                      f"worst deviation = {worst:.3g} of the error budget")

    passed = True
    detail = ""
    for i in range(_scaled(10, trials)):
        n = int(rng.integers(1, 4))
        d = ProbitBernoulli(rng.uniform(-1.0, 1.0, size=n), _random_pd(rng, n))
        draws = d.sample(1_000_000, seed=seed + i)
        for y, count in zip(d.support(), _sign_pattern_counts(draws)):
            p = d.pmf(y, accuracy=accuracy, seed=seed + i).value
            freq = count / draws.shape[0]
            band = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / 1_000_000) + accuracy
            if abs(freq - p) > band:
                passed = False
                detail = f"set {i}, y={y.signs}: |{freq:.6f} - {p:.6f}| > {band:.2g}"
    yield CheckResult("bernoulli", "sampler_matches_pmf", passed,
                      detail or "all support points within 4 binomial SE")

    worst = 0.0
    for i in range(10):
        n = int(rng.integers(1, 5))
        mu = rng.uniform(-1.5, 1.5, size=n)
        sig = _random_pd(rng, n)
        ys = rng.choice([-1, 1], size=n).astype(float)
        cov = PdMatrix.from_entries(n, np.eye(n) + sig.entries * np.outer(ys, ys))
        shifted = mvn_cdf_eval(MvnQuery(upper=np.zeros(n), mean=-ys * mu, cov=cov,
                                        accuracy=accuracy), seed=seed + i)
        centered = mvn_cdf_eval(MvnQuery(upper=ys * mu, mean=np.zeros(n), cov=cov,
                                         accuracy=accuracy),
                                seed=seed + _REFERENCE_SEED_OFFSET + i)
        worst = max(worst, abs(shifted.value + perturb - centered.value))
    yield CheckResult("bernoulli", "shifted_vs_centered_query",
                      worst <= 2 * accuracy,
                      f"max route gap = {worst:.3g}")

    worst = 0.0
    for i in range(10):
        n = int(rng.integers(1, 5))
        d = ProbitBernoulli(rng.uniform(-1.5, 1.5, size=n), _random_pd(rng, n))
        enum = np.zeros(n)
        for y in d.support():
            enum += y.as_array() * d.pmf(y, accuracy=accuracy, seed=seed + i).value
        worst = max(worst, float(np.max(np.abs(d.mean() - enum))) / (2**n * accuracy))
    yield CheckResult("bernoulli", "mean_closed_form_vs_enumeration",
                      worst <= 1.0,
                      f"worst deviation = {worst:.3g} of the error budget")


_SUITES = {
    "scalar": _suite_scalar,
    "matrix": _suite_matrix,
    "identity-scalar": _suite_identity_scalar,
    "identity-vector": _suite_identity_vector,
    "bernoulli": _suite_bernoulli,
}


def run_suites(names, trials: int = 100, seed: int = 0, accuracy: float = 1e-5,
               perturb: float = 0.0) -> list[CheckResult]:
    """Run the named suites ('all' expands to every suite) and collect results."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    _check_accuracy(accuracy)
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITE_NAMES)
        elif name in _SUITES:
            expanded.append(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    results: list[CheckResult] = []
    for name in expanded:
        start = time.perf_counter()
        for result in _SUITES[name](trials, seed, accuracy, perturb):
            now = time.perf_counter()
            result.elapsed_s = now - start
            start = now
            results.append(result)
    return results
