"""N-dimensional Gaussian CDF.

F_N(x | m, V) = P(Z <= x componentwise), Z ~ N(m, V), evaluated through
three paths:

* N = 1: the scalar CDF (exact).
* N = 2: Owen's T decomposition of the bivariate CDF (exact to ~1e-13).
* N >= 3: the Genz sequential-conditioning transform to the unit cube
  (Genz 1992) integrated with a randomly shifted, tent-periodized rank-1
  lattice rule. One embedded lattice serves every doubling level of a call
  (Cools, Kuo & Nuyens 2006): a Korobov vector (1, a, a^2, ...) with the
  fixed multiplier a = 81007, reduced modulo the largest level n_max that
  the sample budget allows. Level n takes the indices k * (n_max / n), so
  its points are the even-indexed points of level 2n. The 12 random shifts
  are drawn once per call and kept for every level, and a running sum per
  shift means that doubling evaluates only the n new odd-multiple points.
  The 12 per-shift means yield the estimate and an error bar of three
  standard errors.

Components with an upper limit of +inf are marginalized away exactly
before any transform. Results are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .gauss_scalar import cdf as _scalar_cdf
from .gauss_scalar import owen_t
from .pd_matrix import PdMatrix, _cholesky_lower

__all__ = ["MvnQuery", "MvnEstimate", "cdf", "bivariate_cdf"]

_N_SHIFTS = 12
_MIN_LATTICE = 1 << 10
_DEFAULT_MAX_SAMPLES = (1 << 17) * _N_SHIFTS
_RHO_LIMIT = 1.0 - 1e-12
# odd(round(0.618 * 2^17)): the golden-section Korobov multiplier at the
# default cap, odd so that it is coprime with every power-of-two level
_KOROBOV_MULTIPLIER = 81007


@dataclass(frozen=True)
class MvnEstimate:
    """A CDF value with its estimated absolute error and evaluation path.

    ``err_estimate`` is three standard errors over the lattice shifts for
    the QMC path and 0 for the exact paths. ``method`` is one of
    ``univariate``, ``bivariate_owen`` or ``qmc_genz`` here, and
    ``one_factor_trapezoid`` for the scalar-mixing product at N >= 3 (see
    :mod:`phiprod.identities`), whose ``err_estimate`` is the gap between
    its last two step sizes plus the mass outside its window. ``n_points``
    is the per-shift lattice size behind the value (0 on the exact paths;
    the nodes evaluated on ``one_factor_trapezoid``), and ``converged``
    says whether ``err_estimate <= accuracy`` (always True on the exact
    paths).
    """

    value: float
    err_estimate: float
    method: str
    n_points: int = 0
    converged: bool = True


@dataclass(frozen=True, eq=False)
class MvnQuery:
    """An MVN CDF evaluation request.

    upper may contain +inf entries (marginalized exactly); accuracy is the
    target absolute error for the QMC path and must lie in (0, 0.1];
    max_samples bounds the total number of lattice points the QMC path
    evaluates across the 12 shifts (each point is evaluated once; one
    1024-point level per shift is evaluated whatever the budget).
    """

    upper: np.ndarray
    mean: np.ndarray
    cov: PdMatrix
    accuracy: float = 1e-6
    max_samples: int = _DEFAULT_MAX_SAMPLES

    def __post_init__(self):
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        n = self.cov.dim
        if upper.shape != (n,) or mean.shape != (n,):
            raise ValueError(
                f"upper/mean must have shape ({n},) matching cov, got "
                f"{upper.shape} and {mean.shape}"
            )
        if np.any(np.isnan(upper)) or np.any(upper == -math.inf):
            raise ValueError("upper entries must be finite or +inf")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean entries must be finite")
        if not 0.0 < self.accuracy <= 0.1:
            raise ValueError(f"accuracy must be in (0, 0.1], got {self.accuracy!r}")
        if self.max_samples < _N_SHIFTS:
            raise ValueError("max_samples is too small for 12 shifts")
        upper.flags.writeable = False
        mean.flags.writeable = False
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.cov.dim


def bivariate_cdf(h: float, k: float, rho: float) -> float:
    """Standard bivariate normal CDF P(Z1 <= h, Z2 <= k) at correlation rho.

    Owen's construction: for h, k both nonzero,

        Phi2 = [Phi(h) + Phi(k)]/2 - T(h, (k/h - rho)/sqrt(1-rho^2))
                                   - T(k, (h/k - rho)/sqrt(1-rho^2)) - delta

    with delta = 1/2 when h k < 0, and the limiting form
    Phi2(0, k, rho) = Phi(k)/2 + T(k, rho/sqrt(1-rho^2)) on the axes
    (h = k = 0 reduces to 1/4 + arcsin(rho)/(2 pi) through T(0, .)).
    """
    if not (math.isfinite(h) and math.isfinite(k) and math.isfinite(rho)):
        raise ValueError(f"bivariate_cdf expects finite arguments, got {(h, k, rho)!r}")
    if abs(rho) >= _RHO_LIMIT:
        raise ValueError(
            f"|rho| = {abs(rho)!r} too close to 1; use the degenerate reduction"
        )
    root = math.sqrt((1.0 - rho) * (1.0 + rho))
    if h == 0.0:
        value = 0.5 * _scalar_cdf(k) + owen_t(k, rho / root)
    elif k == 0.0:
        value = 0.5 * _scalar_cdf(h) + owen_t(h, rho / root)
    else:
        ah = (k / h - rho) / root
        ak = (h / k - rho) / root
        value = 0.5 * (_scalar_cdf(h) + _scalar_cdf(k)) - owen_t(h, ah) - owen_t(k, ak)
        if h * k < 0.0:
            value -= 0.5
    return min(max(value, 0.0), 1.0)


def _korobov_vector(n_max: int, dim: int) -> np.ndarray:
    # (1, a, a^2, ...) reduced mod n_max, so that k * z[j] with k < n_max
    # stays far inside int64 for any feasible lattice size
    a = _KOROBOV_MULTIPLIER % n_max
    z = np.empty(dim, dtype=np.int64)
    acc = 1
    for j in range(dim):
        z[j] = acc
        acc = (acc * a) % n_max
    return z


def _lattice_points(indices: np.ndarray, z: np.ndarray, n_max: int) -> np.ndarray:
    """Unshifted points frac(k z / n_max) of the lattice, shape (dim, len(indices))."""
    return (np.outer(z, indices) % n_max) / n_max


def _genz_shift_sums(chol: np.ndarray, b: np.ndarray, e_first: float,
                     points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Sum of the Genz integrand over ``points`` under each shift."""
    n = b.shape[0]
    sums = np.empty(shifts.shape[0])
    y = np.empty_like(points)
    for s, shift in enumerate(shifts):
        prod = np.full(points.shape[1], e_first)
        prev_e = prod
        for i in range(1, n):
            u = points[i - 1] + shift[i - 1]
            u -= np.floor(u)
            u = 1.0 - np.abs(2.0 * u - 1.0)  # tent periodization
            y[i - 1] = ndtri(np.clip(u * prev_e, 1e-300, 1.0 - 1e-16))
            cond = (b[i] - chol[i, :i] @ y[:i]) / chol[i, i]
            prev_e = ndtr(cond)
            prod = prod * prev_e
        sums[s] = prod.sum()
    return sums


def _shift_estimate(means: np.ndarray) -> tuple[float, float]:
    """(estimate, 3 * standard error) from the per-shift means."""
    return float(means.mean()), 3.0 * float(means.std(ddof=1)) / math.sqrt(means.size)


def _embedded_lattice_estimate(chol: np.ndarray, b: np.ndarray, z: np.ndarray,
                               shifts: np.ndarray, n_max: int,
                               accuracy: float) -> tuple[float, float, int]:
    """Double the level from _MIN_LATTICE up to n_max until the error bar
    meets ``accuracy``, evaluating each lattice point once.

    Returns (estimate, 3 * standard error, final per-shift level).
    """
    e_first = float(ndtr(b[0] / chol[0, 0]))
    n_points = _MIN_LATTICE
    indices = np.arange(n_points, dtype=np.int64) * (n_max // n_points)
    sums = np.zeros(shifts.shape[0])
    while True:
        sums += _genz_shift_sums(chol, b, e_first, _lattice_points(indices, z, n_max),
                                 shifts)
        value, err = _shift_estimate(sums / n_points)
        if err <= accuracy or n_points == n_max:
            return value, err, n_points
        n_points *= 2
        step = n_max // n_points
        indices = np.arange(step, n_max, 2 * step, dtype=np.int64)


def _qmc_cdf(b: np.ndarray, cov: np.ndarray, accuracy: float, max_samples: int,
             seed: int) -> MvnEstimate:
    # sort by ascending truncation mass Phi(b_i / sd_i): the most
    # constraining variable is conditioned on first (variance reduction)
    order = np.argsort(ndtr(b / np.sqrt(np.diagonal(cov))), kind="stable")
    b = b[order]
    cov = cov[np.ix_(order, order)]
    chol = _cholesky_lower(cov)
    if b.shape[0] == 1:
        return MvnEstimate(float(ndtr(b[0] / chol[0, 0])), 0.0, "qmc_genz")
    per_shift_cap = max(max_samples // _N_SHIFTS, _MIN_LATTICE)
    n_max = _MIN_LATTICE << ((per_shift_cap // _MIN_LATTICE).bit_length() - 1)
    dim = b.shape[0] - 1
    shifts = np.random.default_rng(seed % (1 << 63)).random((_N_SHIFTS, dim))
    value, err, n_points = _embedded_lattice_estimate(
        chol, b, _korobov_vector(n_max, dim), shifts, n_max, accuracy)
    return MvnEstimate(min(max(value, 0.0), 1.0), err, "qmc_genz",
                       n_points=n_points, converged=err <= accuracy)


def cdf(query: MvnQuery, seed: int = 0, method: str = "auto") -> MvnEstimate:
    """Evaluate P(Z <= upper), Z ~ N(mean, cov).

    ``method="auto"`` routes N=1 and N=2 through the exact paths and
    N >= 3 through randomized-lattice QMC; ``method="qmc"`` forces the QMC
    path regardless of dimension (used by cross-validation suites). The
    result is deterministic given (query, seed).
    """
    if method not in ("auto", "qmc"):
        raise ValueError(f"method must be 'auto' or 'qmc', got {method!r}")
    active = np.flatnonzero(np.isfinite(query.upper))
    if active.size == 0:
        return MvnEstimate(1.0, 0.0, "univariate")
    b = (query.upper - query.mean)[active]
    cov = query.cov.entries[np.ix_(active, active)]
    n = active.size
    if method == "auto" and n == 1:
        return MvnEstimate(_scalar_cdf(b[0] / math.sqrt(cov[0, 0])), 0.0, "univariate")
    if method == "auto" and n == 2:
        s1 = math.sqrt(cov[0, 0])
        s2 = math.sqrt(cov[1, 1])
        rho = cov[0, 1] / (s1 * s2)
        value = bivariate_cdf(b[0] / s1, b[1] / s2, rho)
        return MvnEstimate(value, 0.0, "bivariate_owen")
    return _qmc_cdf(b, cov, query.accuracy, query.max_samples, seed)
