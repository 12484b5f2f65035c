"""Closed forms for Gaussian expectations of products of normal CDFs.

Two classical-style reductions are provided, each collapsing an integral
of a product of probit factors against a Gaussian density into a single
multivariate normal CDF evaluation:

* scalar mixing variable:

      E_x[ prod_r Phi((x - m_r)/v_r) ],  x ~ N(mu, sigma2)
        = F_N(mu * 1 | m, diag(v^2) + sigma2 * 1 1^T)

* vector mixing variable:

      E_x[ prod_r Phi((x_r - m_r)/v_r) ],  x ~ N(mu, Sigma)
        = F_N(mu | m, diag(v^2) + Sigma)

The N = 1 case of either is the familiar Phi((mu - m)/sqrt(v^2 + sigma2))
moment used throughout Gaussian-process classification. The vector form,
and the scalar form at N <= 2, are evaluated through :mod:`phiprod.mvn_cdf`
and carry its error estimate; :func:`scalar_mix_query` states the scalar
reduction as an MVN query.

At N >= 3 the scalar form's covariance is one-factor, so its MVN CDF is
exactly a 1-D integral over the mixing variable (Curnow & Dunnett 1962):

      E_w[ prod_r Phi((mu - m_r + s w)/v_r) ],  w ~ N(0, 1),  s = sqrt(sigma2)

which :func:`cdf_product_scalar` evaluates by a nested trapezoid rule on
[-9, 9]. The rule converges exponentially on this smooth, Gaussian-damped
integrand (Trefethen & Weideman, SIAM Review 56, 2014), so the gap between
two successive step sizes, plus the mass 2 Phi(-9) outside the window, is
an honest error bound for the finer one. The first step is no wider than the
narrowest factor's transition, v_r / s, so that a steep factor cannot slip
between the nodes; when that takes more than ``_TRAPEZOID_MAX_NODES`` nodes
the call goes through the MVN reduction instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .mvn_cdf import MvnEstimate, MvnQuery
from .mvn_cdf import cdf as _mvn_cdf
from .pd_matrix import PdMatrix

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# the trapezoid window [-W, W] in the mixing variable; the integrand is at
# most phi(w), so the mass it leaves out is at most 2 Phi(-W) ~ 2.3e-19
_W_LIMIT = 9.0
_W_TAIL_MASS = 2.0 * float(ndtr(-_W_LIMIT))
# nodes one trapezoid call may evaluate; the start grid and its first
# refinement alone exceed it once min_r v_r / s < 2^-10
_TRAPEZOID_MAX_NODES = 1 << 16

__all__ = [
    "ScalarMixParams",
    "VectorMixParams",
    "shared_noise_cov",
    "scalar_mix_query",
    "cdf_product_scalar",
    "cdf_product_vector",
]


def _check_m_v(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = np.atleast_1d(np.asarray(m, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if m.ndim != 1 or v.shape != m.shape or m.size < 1:
        raise ValueError("m and v must be 1-d vectors of equal positive length")
    if not np.all(np.isfinite(m)):
        raise ValueError("m entries must be finite")
    if not np.all(np.isfinite(v)) or not np.all(v > 0.0):
        raise ValueError("v entries must be positive and finite")
    m.flags.writeable = False
    v.flags.writeable = False
    return m, v


@dataclass(frozen=True, eq=False)
class ScalarMixParams:
    """(mu, sigma2, m, v) for the scalar-mixing CDF product expectation."""

    mu: float
    sigma2: float
    m: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not math.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        m, v = _check_m_v(self.m, self.v)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.m.size


@dataclass(frozen=True, eq=False)
class VectorMixParams:
    """(mu, Sigma, m, v) for the vector-mixing CDF product expectation."""

    mu: np.ndarray
    sigma: PdMatrix
    m: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        m, v = _check_m_v(self.m, self.v)
        if mu.shape != m.shape or self.sigma.dim != m.size:
            raise ValueError("mu, m, v and sigma dimensions must agree")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu entries must be finite")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.m.size


def shared_noise_cov(sigma2: float, v) -> PdMatrix:
    """Covariance diag(v^2) + sigma2 * 1 1^T of offsets sharing one noise term.

    Every off-diagonal entry is sigma2 and the diagonal is v_r^2 + sigma2;
    the rank-1-plus-diagonal structure is PD for any positive inputs.
    """
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)) or not np.all(v > 0.0):
        raise ValueError("v must be a non-empty vector of positive finite reals")
    n = v.size
    entries = np.full((n, n), sigma2)
    np.fill_diagonal(entries, v * v + sigma2)
    return PdMatrix.from_entries(n, entries)


def scalar_mix_query(params: ScalarMixParams, accuracy: float = 1e-6) -> MvnQuery:
    """The MVN query F_N(mu * 1 | m, diag(v^2) + sigma2 * 1 1^T) that the
    scalar-mixing expectation reduces to."""
    return MvnQuery(
        upper=np.full(params.n, params.mu),
        mean=params.m,
        cov=shared_noise_cov(params.sigma2, params.v),
        accuracy=accuracy,
    )


def _one_factor_trapezoid(params: ScalarMixParams,
                          accuracy: float) -> MvnEstimate | None:
    """E_w prod_r Phi((mu - m_r + s w)/v_r) by a nested trapezoid rule in w,
    or None when the node budget cannot meet ``accuracy``."""
    s = math.sqrt(params.sigma2)
    shift = (params.mu - params.m)[:, None]
    scale = params.v[:, None]

    def integrand(w: np.ndarray) -> np.ndarray:
        return (np.exp(-0.5 * w * w) * _INV_SQRT_2PI
                * np.prod(ndtr((shift + s * w) / scale), axis=0))

    # the largest power of two <= min(1/2, min_r v_r / s)
    h = math.ldexp(1.0, math.frexp(min(0.5, float(params.v.min()) / s))[1] - 1)
    intervals = round(2.0 * _W_LIMIT / h)
    nodes = intervals + 1
    if nodes + intervals > _TRAPEZOID_MAX_NODES:
        return None
    w = np.linspace(-_W_LIMIT, _W_LIMIT, nodes)
    f = integrand(w)
    total = h * (f.sum() - 0.5 * (f[0] + f[-1]))
    while nodes + intervals <= _TRAPEZOID_MAX_NODES:
        mid = -_W_LIMIT + h * (np.arange(intervals) + 0.5)
        refined = 0.5 * total + 0.5 * h * integrand(mid).sum()
        nodes += intervals
        err = float(abs(refined - total)) + _W_TAIL_MASS
        if err <= accuracy:
            return MvnEstimate(min(max(float(refined), 0.0), 1.0), err,
                               "one_factor_trapezoid", n_points=nodes, converged=True)
        total = refined
        h *= 0.5
        intervals *= 2
    return None


def cdf_product_scalar(params: ScalarMixParams, accuracy: float = 1e-6,
                       seed: int = 0) -> MvnEstimate:
    """Closed form for E[prod_r Phi((x - m_r)/v_r)], x ~ N(mu, sigma2).

    N <= 2 evaluates F_N(mu * 1 | m, diag(v^2) + sigma2 * 1 1^T) on the
    exact MVN paths. N >= 3 integrates the one-factor form by the nested
    trapezoid rule (method ``one_factor_trapezoid``, ``n_points`` = nodes
    evaluated) and falls back to the QMC MVN reduction, with ``seed``, only
    when a factor is too steep for the node budget.
    """
    if not 0.0 < accuracy <= 0.1:
        raise ValueError(f"accuracy must be in (0, 0.1], got {accuracy!r}")
    if params.n >= 3:
        est = _one_factor_trapezoid(params, accuracy)
        if est is not None:
            return est
    return _mvn_cdf(scalar_mix_query(params, accuracy), seed=seed)


def cdf_product_vector(params: VectorMixParams, accuracy: float = 1e-6,
                       seed: int = 0) -> MvnEstimate:
    """Closed form for E[prod_r Phi((x_r - m_r)/v_r)], x ~ N(mu, Sigma).

    Evaluates F_N(mu | m, diag(v^2) + Sigma).
    """
    cov = PdMatrix.from_entries(
        params.n, params.sigma.entries + np.diag(params.v * params.v)
    )
    query = MvnQuery(upper=params.mu, mean=params.m, cov=cov, accuracy=accuracy)
    return _mvn_cdf(query, seed=seed)
