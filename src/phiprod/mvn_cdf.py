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
  standard errors. The variables are conditioned in the order of Genz &
  Bretz (2009, sec. 4.1.3; after Gibson, Glasbey & Elston 1994), chosen
  while the Cholesky factor is built: at step i the next variable is the
  remaining one with the smallest conditional probability Phi(t_j), where
  t_j is its limit standardized given that each variable already chosen
  sits at its truncated mean E[Z | Z < t] = -phi(t)/Phi(t). Putting the
  most constraining variable first lowers the variance of the integrand,
  and so the lattice size needed to reach the accuracy.

  The integrand is exponentially tilted by Botev's minimax tilt (JRSS B 79,
  2017): each conditioned variable is drawn from its truncated normal
  shifted by mu_i, which is the plain integrand on the limits b - L mu
  times the weight exp(-|mu|^2 / 2 - mu . y), y the draws. mu solves the
  saddle-point equations of psi(x, mu) by Newton steps, and exp(psi*) is an
  upper bound on the probability (within about 10% of it on sign
  orthants). The estimate is unbiased for any mu, so mu = 0 (the plain
  integrand) is used when the solve fails or the tilted sums are not
  finite, and when accuracy < 1e-5 * exp(psi*): there the probability is
  large next to the accuracy and the plain integrand needs fewer points.
  Tilting keeps the relative error of small (tail) probabilities bounded,
  where the plain integrand's error bar is itself unreliable.

Components with an upper limit of +inf are marginalized away exactly
before any transform. Results are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .gauss_scalar import cdf as _scalar_cdf
from .gauss_scalar import owen_t
from .pd_matrix import PdMatrix, _frozen_vector, _pivot_root, _pivot_threshold

__all__ = ["MvnQuery", "MvnEstimate", "cdf", "bivariate_cdf"]

_N_SHIFTS = 12
_MIN_LATTICE = 1 << 10
_DEFAULT_MAX_SAMPLES = (1 << 17) * _N_SHIFTS
_RHO_LIMIT = 1.0 - 1e-12
# odd(round(0.618 * 2^17)): the golden-section Korobov multiplier at the
# default cap, odd so that it is coprime with every power-of-two level
_KOROBOV_MULTIPLIER = 81007
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TILT_NEWTON_STEPS = 30
_TILT_TOLERANCE = 1e-9
# tilt when accuracy >= _TILT_CROSSOVER * exp(psi*); chosen on a held-out set
# of orthant and vector-mixing queries (see CHANGES.md)
_TILT_CROSSOVER = 1e-5


def _check_accuracy(accuracy: float) -> None:
    """The accuracy contract of every public entry point: 0 < accuracy <= 0.1."""
    if not 0.0 < accuracy <= 0.1:
        raise ValueError(f"accuracy must be in (0, 0.1], got {accuracy!r}")


def _as_count(name: str, value) -> int:
    """An integer argument (a count or an index) as an int; ValueError otherwise,
    and for bools, which would read True as 1 and a mask as the indices 0 and 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, not a bool, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """default_rng of ``seed`` mod 2^63, on sub-stream ``stream`` if given."""
    return np.random.default_rng([seed % (1 << 63), *stream])


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
    paths). ``order`` lists the query's own variable indices in the order
    the QMC path conditioned them, components with an upper limit of +inf
    already removed; it is empty on every other path. ``tilted`` says
    whether the QMC path used the minimax-tilted integrand.
    """

    value: float
    err_estimate: float
    method: str
    n_points: int = 0
    converged: bool = True
    order: tuple[int, ...] = ()
    tilted: bool = False


@dataclass(frozen=True, eq=False)
class MvnQuery:
    """An MVN CDF evaluation request.

    upper may contain +inf entries (marginalized exactly); accuracy is the
    target absolute error for the QMC path and must lie in (0, 0.1];
    max_samples, an integer, bounds the total number of lattice points the
    QMC path evaluates across the 12 shifts (each point is evaluated once;
    one 1024-point level per shift is evaluated whatever the budget).

    Construction is where these are checked, once: upper and mean become
    read-only float copies of shape (cov.dim,), upper entries must be
    finite or +inf, mean entries finite, accuracy in (0, 0.1] and
    max_samples an integer of at least 12. The covariance is checked by
    :class:`PdMatrix`. :func:`cdf` relies on all of it and checks nothing
    again.
    """

    upper: np.ndarray
    mean: np.ndarray
    cov: PdMatrix
    accuracy: float = 1e-6
    max_samples: int = _DEFAULT_MAX_SAMPLES

    def __post_init__(self):
        upper = _frozen_vector("upper", self.upper, allow_inf=True)
        mean = _frozen_vector("mean", self.mean)
        n = self.cov.dim
        if upper.shape != (n,) or mean.shape != (n,):
            raise ValueError(
                f"upper/mean must have shape ({n},) matching cov, got "
                f"{upper.shape} and {mean.shape}"
            )
        _check_accuracy(self.accuracy)
        max_samples = _as_count("max_samples", self.max_samples)
        if max_samples < _N_SHIFTS:
            raise ValueError("max_samples is too small for 12 shifts")
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "max_samples", max_samples)

    @property
    def dim(self) -> int:
        return self.cov.dim


def bivariate_cdf(h: float, k: float, rho: float) -> float:
    """Standard bivariate normal CDF P(Z1 <= h, Z2 <= k) at correlation rho.

    Owen's construction: for h, k both nonzero,

        Phi2 = [Phi(h) + Phi(k)]/2 - T(h, (k/h - rho)/sqrt(1-rho^2))
                                   - T(k, (h/k - rho)/sqrt(1-rho^2)) - delta

    with delta = 1/2 when h and k have opposite signs, and the limiting form
    Phi2(0, k, rho) = Phi(k)/2 + T(k, rho/sqrt(1-rho^2)) on the axes
    (h = k = 0 reduces to 1/4 + arcsin(rho)/(2 pi) through T(0, .)). Where
    k/h or h/k overflows, the T term takes its limit T(h, +-inf) =
    +-Phi(-|h|)/2.
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
        value = (0.5 * (_scalar_cdf(h) + _scalar_cdf(k))
                 - _owen_t_extended(h, ah) - _owen_t_extended(k, ak))
        # opposite signs; h * k < 0 would miss them when the product underflows
        if (h < 0.0) != (k < 0.0):
            value -= 0.5
    return min(max(value, 0.0), 1.0)


def _owen_t_extended(h: float, a: float) -> float:
    """T(h, a) with the limit T(h, +-inf) = +-Phi(-|h|)/2, which
    :func:`bivariate_cdf` reaches when k/h or h/k overflows (a limit next to
    a subnormal one)."""
    if math.isinf(a):
        return math.copysign(0.5 * _scalar_cdf(-abs(h)), a)
    return owen_t(h, a)


def _exact_estimate(h: float, k: float | None = None, rho: float = 0.0) -> MvnEstimate:
    """The exact N <= 2 paths on standardized limits: Phi(h) when k is None,
    else Phi2(h, k; rho). :func:`cdf` and ``ProbitBernoulli.pmf`` both end
    here."""
    if k is None:
        return MvnEstimate(_scalar_cdf(h), 0.0, "univariate")
    return MvnEstimate(bivariate_cdf(h, k, rho), 0.0, "bivariate_owen")


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
                     points: np.ndarray, shifts: np.ndarray,
                     tilt: np.ndarray) -> np.ndarray:
    """Sum of the tilted Genz integrand over ``points`` under each shift.

    The integrand is the plain one on the limits b - L tilt times the weight
    exp(-|tilt|^2 / 2 - tilt . y), y the ndtri draws; ``e_first`` is the
    first factor Phi(b_0 / L_00 - tilt_0). A zero tilt gives the plain sums.
    """
    n = b.shape[0]
    b = b - chol @ tilt
    log_scale = -0.5 * (tilt @ tilt)
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
        sums[s] = (prod * np.exp(log_scale - tilt[:-1] @ y)).sum()
    return sums


def _shift_estimate(means: np.ndarray) -> tuple[float, float]:
    """(estimate, 3 * standard error) from the per-shift means."""
    return float(means.mean()), 3.0 * float(means.std(ddof=1)) / math.sqrt(means.size)


def _embedded_lattice_estimate(chol: np.ndarray, b: np.ndarray, tilt: np.ndarray,
                               z: np.ndarray, shifts: np.ndarray, n_max: int,
                               accuracy: float) -> tuple[float, float, int]:
    """Double the level from _MIN_LATTICE up to n_max until the error bar
    meets ``accuracy``, evaluating each lattice point once.

    Returns (estimate, 3 * standard error, final per-shift level), at once if
    the error bar is not finite.
    """
    e_first = float(ndtr(b[0] / chol[0, 0] - tilt[0]))
    n_points = _MIN_LATTICE
    indices = np.arange(n_points, dtype=np.int64) * (n_max // n_points)
    sums = np.zeros(shifts.shape[0])
    while True:
        sums += _genz_shift_sums(chol, b, e_first, _lattice_points(indices, z, n_max),
                                 shifts, tilt)
        value, err = _shift_estimate(sums / n_points)
        if err <= accuracy or n_points == n_max or not math.isfinite(err):
            return value, err, n_points
        n_points *= 2
        step = n_max // n_points
        indices = np.arange(step, n_max, 2 * step, dtype=np.int64)


def _prioritized_cholesky(b: np.ndarray, cov: np.ndarray
                          ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Genz-Bretz variable order fused with the lower Cholesky factorization.

    Returns (order, b[order], chol) with chol the Cholesky factor of
    cov[order][:, order]. At step i every remaining j has the conditional
    variance var_j = c_jj - L_j,:i . L_j,:i and the standardized limit
    t_j = (b_j - L_j,:i . y_:i) / sqrt(var_j); the j with the smallest t_j
    (the smallest Phi(t_j)) takes position i, column i of L is finished, and
    y_i = E[Z | Z < t_i] enters the limits of the rest. A conditional
    variance that is not above the pd_matrix pivot threshold raises
    NotPositiveDefiniteError with pivot_index i, as the Cholesky of the
    reordered matrix would with that variable at position i.
    """
    n = b.shape[0]
    threshold = _pivot_threshold(cov)
    entries = cov.tolist()
    order = list(range(n))
    rows = [[0.0] * n for _ in range(n)]  # rows of L, by position
    var = np.diagonal(cov).tolist()      # c_jj - L_j,:i . L_j,:i
    num = b.tolist()                     # b_j - L_j,:i . y_:i
    for i in range(n):
        pick, sd, t = i, 0.0, math.inf
        for j in range(i, n):
            sd_j = _pivot_root(i, var[j], threshold)
            t_j = num[j] / sd_j
            if t_j < t:
                pick, sd, t = j, sd_j, t_j
        for seq in (order, rows, var, num):
            seq[i], seq[pick] = seq[pick], seq[i]
        row_i = rows[i]
        row_i[i] = sd
        if i + 1 == n:
            break
        # truncated mean -phi(t)/Phi(t), in log space so a deep tail cannot
        # underflow to 0/0
        y = -math.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_ndtr(t))
        col = entries[order[i]]
        for j in range(i + 1, n):
            row_j = rows[j]
            acc = col[order[j]]
            for k in range(i):
                acc -= row_j[k] * row_i[k]
            l_ji = acc / sd
            row_j[i] = l_ji
            var[j] -= l_ji * l_ji
            num[j] -= l_ji * y
    return order, b[order], np.array(rows)


def _minimax_tilt(chol: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Botev's (2017) minimax exponential tilt of the Genz integrand.

    In the normalized form (unit-diagonal factor with strict lower part M,
    limits b / diag(L)) the saddle point of
    psi(x, mu) = sum_k log Phi(c_k - mu_k) + sum_k (mu_k^2 / 2 - x_k mu_k),
    c = b / diag(L) - M x, solves g_mu = mu - x - w = 0 and
    g_x = -mu - M^T w = 0 with w = phi/Phi(c - mu); x_n = mu_n = 0. Plain
    Newton steps on the analytic Jacobian (the Hessian of psi, with
    dw/dt = -w (t + w)) find it from x = mu = 0.

    Returns (tilt, psi*) with tilt = (mu, 0) and exp(psi*) an upper bound on
    the probability, or (0, +inf) when Newton fails to converge or leaves the
    finite numbers: the estimator is unbiased for any tilt, so the solve
    only moves variance.
    """
    n = b.shape[0]
    k = n - 1
    diag = np.diagonal(chol)
    strict = chol[:, :k] / diag[:, None]
    unit = np.arange(k)
    strict[unit, unit] = 0.0
    limits = b / diag
    point = np.zeros(2 * k)
    x, mu = point[:k], point[k:]
    grad = np.empty(2 * k)
    jac = np.zeros((2 * k, 2 * k))
    for _ in range(_TILT_NEWTON_STEPS):
        t = limits - strict @ x
        t[:k] -= mu
        log_cdf = log_ndtr(t)
        w = np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_cdf)
        grad[:k] = -mu - strict.T @ w
        grad[k:] = mu - x - w[:k]
        size = np.abs(grad).max()
        if size <= _TILT_TOLERANCE:
            return np.append(mu, 0.0), float(log_cdf.sum() + mu @ (0.5 * mu - x))
        if not math.isfinite(size):
            break
        q = w * (t + w)  # dw/dmu; dw/dx = diag(q) M
        qm = q[:, None] * strict
        jac[:k, :k] = -(strict.T @ qm)
        jac[k:, :k] = -qm[:k]
        jac[k + unit, unit] = -1.0  # M has a zero diagonal
        jac[:k, k:] = jac[k:, :k].T
        jac[k + unit, k + unit] = 1.0 - q[:k]
        try:
            point -= np.linalg.solve(jac, grad)
        except np.linalg.LinAlgError:
            break
    return np.zeros(n), math.inf


def _qmc_cdf(b: np.ndarray, cov: np.ndarray, labels: np.ndarray, accuracy: float,
             max_samples: int, seed: int) -> MvnEstimate:
    # condition the most constraining variable first, given the expected
    # values of those already chosen (variance reduction); ``labels`` maps
    # positions in b back to the query's variable indices
    order, b, chol = _prioritized_cholesky(b, cov)
    order = tuple(labels[order].tolist())
    if b.shape[0] == 1:
        return MvnEstimate(float(ndtr(b[0] / chol[0, 0])), 0.0, "qmc_genz", order=order)
    per_shift_cap = max(max_samples // _N_SHIFTS, _MIN_LATTICE)
    n_max = _MIN_LATTICE << ((per_shift_cap // _MIN_LATTICE).bit_length() - 1)
    dim = b.shape[0] - 1
    shifts = _rng(seed).random((_N_SHIFTS, dim))
    # tilt only where the bound exp(psi*) on the probability is small next to
    # the accuracy asked for; for larger probabilities the plain integrand
    # needs fewer points
    tilt, psi = _minimax_tilt(chol, b)
    tilted = psi <= math.log(accuracy / _TILT_CROSSOVER)
    lattice = (_korobov_vector(n_max, dim), shifts, n_max, accuracy)
    if tilted:
        # deep in a tail the weights can overflow where the factors underflow
        # (inf * 0 = nan); the plain integrand, as after a failed solve, cannot
        with np.errstate(over="ignore", invalid="ignore"):
            value, err, n_points = _embedded_lattice_estimate(chol, b, tilt, *lattice)
        tilted = math.isfinite(err)
    if not tilted:
        value, err, n_points = _embedded_lattice_estimate(chol, b, np.zeros_like(b), *lattice)
    return MvnEstimate(min(max(value, 0.0), 1.0), err, "qmc_genz",
                       n_points=n_points, converged=err <= accuracy, order=order,
                       tilted=tilted)


def cdf(query: MvnQuery, seed: int = 0, method: str = "auto") -> MvnEstimate:
    """Evaluate P(Z <= upper), Z ~ N(mean, cov).

    ``method="auto"`` routes N=1 and N=2 through the exact paths and
    N >= 3 through randomized-lattice QMC; ``method="qmc"`` forces the QMC
    path regardless of dimension; only the tests use it, to check the
    lattice against the exact N <= 2 paths. The result is deterministic
    given (query, seed).

    Only ``method`` is checked here: the query checked its own fields when
    it was built. The exact paths read the limits, the mean and the few
    covariance entries they need as Python floats, in the order of
    operations of the array form, so they return the same bits; only the
    QMC path slices arrays.
    """
    if method not in ("auto", "qmc"):
        raise ValueError(f"method must be 'auto' or 'qmc', got {method!r}")
    upper = query.upper.tolist()
    # the query holds finite and +inf limits only
    active = [i for i, u in enumerate(upper) if u != math.inf]
    n = len(active)
    if n == 0:
        return MvnEstimate(1.0, 0.0, "univariate")
    if method == "auto" and n <= 2:
        mean = query.mean.tolist()
        cov = query.cov.entries
        i, j = active[0], active[-1]
        s1 = math.sqrt(cov.item(i, i))
        h = (upper[i] - mean[i]) / s1
        if n == 1:
            return _exact_estimate(h)
        s2 = math.sqrt(cov.item(j, j))
        return _exact_estimate(h, (upper[j] - mean[j]) / s2, cov.item(i, j) / (s1 * s2))
    labels = np.array(active)
    b = query.upper - query.mean
    cov = query.cov.entries
    if n < query.dim:
        b = b[labels]
        cov = cov[np.ix_(labels, labels)]
    return _qmc_cdf(b, cov, labels, query.accuracy, query.max_samples, seed)
