"""Independent numerical ground truth for the closed forms.

Every identity in this package is checked against a second route that
shares no code with the path under test:

* Adaptive Gauss-Kronrod (G7-K15) quadrature for Owen's T, the bivariate
  CDF and the scalar-mixing CDF product integral. Its nodes and weights are
  the tabulated constants of QUADPACK's dqk15, because Kronrod nodes have
  no simple recurrence; the tests certify them against numpy's
  Gauss-Legendre rule and polynomial exactness. One work-list loop,
  ``_pieces``, adapts the rule for all three. ``scipy.integrate`` is not
  imported here: the rule is a few lines, and the import alone would add
  about 18 MB to ``verify``.
* Plain Monte Carlo for the vector-mixing integral and for raw MVN
  rectangle probabilities, through one chunked loop, ``_mc_mean``, to which
  each supplies its values per draw. A sample with no variance reports a
  standard error of 1 / draws: 3 SE is then the rule-of-three bound
  (Hanley & Lippman-Hand, JAMA 249, 1983), not a bar of zero.
* Gauss-Hermite quadrature of the scalar-mixing integral at a fixed order.
  No check of this package uses it (at order 200 it is off by up to
  4.2e-7 on verify's identity-scalar draws); it is kept, with its ``order``
  argument, because the moments-mixed workload of ``perfbench`` reads it
  as a reference.

All stochastic oracles are deterministic given their seed.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.special import ndtr, roots_hermite

from .identities import ScalarMixParams, VectorMixParams
from .mvn_cdf import MvnQuery, _as_count, _rng

__all__ = [
    "QuadratureDepthError",
    "gauss_hermite_nodes",
    "cdf_product_scalar_quad",
    "cdf_product_scalar_adaptive",
    "cdf_product_vector_mc",
    "mvn_mc",
    "adaptive_quad_1d",
    "owen_t_integrand",
    "bivariate_cdf_quad",
    "mc_threshold",
]

# draws per Monte Carlo chunk; a chunk's arrays stay cache-sized
_MC_CHUNK = 1 << 16
_SQRT_PI = math.sqrt(math.pi)
_INV_2PI = 1.0 / (2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_MIN_QUAD_TOL = 1e-13
_MAX_QUAD_DEPTH = 50
# offsets from h of the upper pieces of the bivariate oracle's range
_BIVARIATE_BREAKS = (-8.0, -2.0, 0.0)
# the scalar oracle's window in w ~ N(0, 1), and the breakpoints around each
# factor's rise, in units of its width v_r / s
_SCALAR_HALF_WIDTH = 9.0
_SCALAR_BREAKS = np.array([-8.0, -2.0, 0.0, 2.0, 8.0])


class QuadratureDepthError(RuntimeError):
    """Adaptive refinement hit the depth limit; carries the partial estimate."""

    def __init__(self, partial: float):
        self.partial = partial
        super().__init__(f"adaptive quadrature exceeded max depth (partial={partial!r})")


@functools.lru_cache(maxsize=8)
def gauss_hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral f(t) exp(-t^2) dt ~ sum w_i f(t_i).

    A cached, read-only copy of ``scipy.special.roots_hermite``; nodes are
    in ascending order. numpy's ``hermgauss`` is not used: its weights are
    nan at order 400.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order!r}")
    x, w = roots_hermite(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def cdf_product_scalar_quad(params: ScalarMixParams, order: int = 200) -> float:
    """Gauss-Hermite value of E[prod_r Phi((x - m_r)/v_r)], x ~ N(mu, sigma2).

    Substituting x = mu + sigma * sqrt(2) * t reduces the integral to the
    exp(-t^2) weight. A fixed order has no error bound: at order 200 it is
    off by 3.5e-5 when one factor is narrow (v_r / s = 0.1). The checks use
    :func:`cdf_product_scalar_adaptive`; this one stays only because the
    benchmark's moments-mixed workload reads it.
    """
    if not 20 <= order <= 400:
        raise ValueError(f"order must lie in [20, 400], got {order!r}")
    t, w = gauss_hermite_nodes(order)
    sigma = math.sqrt(params.sigma2)
    xs = params.mu + sigma * math.sqrt(2.0) * t
    factors = ndtr((xs[:, None] - params.m[None, :]) / params.v[None, :])
    return float(w @ np.prod(factors, axis=1)) / _SQRT_PI


def mc_threshold(std_error: float, err_estimate: float) -> float:
    """3 sqrt(std_error^2 + (err_estimate / 3)^2): the largest gap at which an
    estimate with a 3-SE bar ``err_estimate`` agrees with a Monte Carlo value."""
    return 3.0 * math.sqrt(std_error * std_error + (err_estimate / 3.0) ** 2)


def _mc_mean(values: Callable[[np.ndarray], np.ndarray], dim: int, draws,
             seed: int) -> tuple[float, float]:
    """The one Monte Carlo loop: (mean, standard error) of ``values(z)``, one
    value per row z of standard normals in ``dim`` columns, over ``draws``
    rows (an integer of at least 1e4) from ``_rng(seed)`` in chunks of
    ``_MC_CHUNK``, so memory stays bounded and the chunking does not move the
    result. A sample with no variance (every draw 0, or every draw 1) reports
    1 / draws, so that 3 SE is the rule-of-three bound 3 / draws."""
    draws = _as_count("draws", draws)
    if draws < 10_000:
        raise ValueError(f"draws must be >= 1e4, got {draws!r}")
    rng = _rng(seed)
    total = total_sq = 0.0
    remaining = draws
    while remaining > 0:
        block = min(remaining, _MC_CHUNK)
        t = values(rng.standard_normal((block, dim)))
        total += float(t.sum())
        total_sq += float((t * t).sum())
        remaining -= block
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0) * draws / (draws - 1)
    return mean, 1.0 / draws if var == 0.0 else math.sqrt(var / draws)


def cdf_product_vector_mc(params: VectorMixParams, draws: int = 1_000_000,
                          seed: int = 0) -> tuple[float, float]:
    """Monte Carlo value of E[prod_r Phi((x_r - m_r)/v_r)], x ~ N(mu, Sigma).

    Returns (estimate, standard error) from :func:`_mc_mean`.
    """
    # row r of scaled @ z.T + offset is (x_r - m_r) / v_r for x = mu + L z
    scaled = params.sigma.chol / params.v[:, None]
    offset = ((params.mu - params.m) / params.v)[:, None]

    def products(z: np.ndarray) -> np.ndarray:
        factors = scaled @ z.T
        factors += offset
        # multiply.reduce runs down axis 0 row by row, as a loop over rows would
        return ndtr(factors, out=factors).prod(axis=0)

    return _mc_mean(products, params.n, draws, seed)


def mvn_mc(query: MvnQuery, draws: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Crude Monte Carlo for P(Z <= upper), Z ~ N(mean, cov).

    Returns (estimate, standard error) of the indicator from :func:`_mc_mean`.
    """
    chol_t = query.cov.chol.T

    def inside(z: np.ndarray) -> np.ndarray:
        return np.all(query.mean + z @ chol_t <= query.upper, axis=1)

    return _mc_mean(inside, query.dim, draws, seed)


# dqk15 of QUADPACK (Piessens et al., 1983): the positive abscissae of the
# 15-point Kronrod rule on [-1, 1], largest first, and their weights; the
# last weight belongs to the centre. The odd-indexed abscissae and the
# centre are the 7-point Gauss nodes, with the Gauss weights below.
_KRONROD_X = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_KRONROD_W = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _kronrod_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(K15, |K15 - G7|) on [a, b] from 15 evaluations of ``f``."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    kronrod = _KRONROD_W[7] * fc
    gauss = _GAUSS_W[3] * fc
    for j, x in enumerate(_KRONROD_X):
        pair = f(centre - half * x) + f(centre + half * x)
        kronrod += _KRONROD_W[j] * pair
        if j % 2:
            gauss += _GAUSS_W[j // 2] * pair
    return half * kronrod, abs(half * (kronrod - gauss))


def adaptive_quad_1d(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-12) -> float:
    """Adaptive Gauss-Kronrod (G7-K15) quadrature of ``f`` on [a, b].

    A panel returns its 15-point Kronrod value once |K15 - G7| is at most
    its share of the absolute tolerance ``tol``; otherwise it is bisected
    and each half gets half the share. The plain difference, not QUADPACK's
    (200 |K15 - G7|)^1.5 rescaling, is the acceptance test, so every
    accepted panel's error bound is conservative.

    Signed like the usual integral (swapping a and b negates the result,
    up to rounding). Raises :class:`QuadratureDepthError` with the partial
    estimate attached if refinement exceeds the depth limit.
    """
    return _pieces(f, (a, b), tol)


def owen_t_integrand(h: float) -> Callable[[float], float]:
    """The defining Owen's T integrand x -> exp(-h^2(1+x^2)/2)/((1+x^2) 2 pi)."""
    def f(x: float) -> float:
        s = 1.0 + x * x
        return _INV_2PI * math.exp(-0.5 * h * h * s) / s
    return f


def _pieces(f: Callable[[float], float], breaks, tol: float) -> float:
    """Adaptive G7-K15 quadrature over the nonempty pieces of ``breaks``.

    The ends must be finite; decreasing ``breaks`` give the negated
    integral. Each piece gets a share of ``tol`` (at least 1e-13) in
    proportion to its length. Panels are popped from a work list leftmost
    first. A failing panel at the depth limit adds its value anyway, and
    once all have run the sum is raised as :class:`QuadratureDepthError`.
    """
    if not (math.isfinite(breaks[0]) and math.isfinite(breaks[-1])):
        raise ValueError("integration limits must be finite")
    if tol < _MIN_QUAD_TOL:
        raise ValueError(f"tol must be >= {_MIN_QUAD_TOL:g}, got {tol!r}")
    span = breaks[-1] - breaks[0]
    # (a, b, share of tol, depth left); the next panel is last
    work = [(lo, hi, tol * (hi - lo) / span, _MAX_QUAD_DEPTH)
            for lo, hi in zip(breaks[:-1], breaks[1:]) if lo != hi][::-1]
    total = 0.0
    failed = False
    while work:
        a, b, share, depth = work.pop()
        value, err = _kronrod_panel(f, a, b)
        if err <= share or depth <= 0:
            total += value
            failed = failed or err > share
        else:
            mid = 0.5 * (a + b)
            work += [(mid, b, 0.5 * share, depth - 1), (a, mid, 0.5 * share, depth - 1)]
    if failed:
        raise QuadratureDepthError(total)
    return total


def cdf_product_scalar_adaptive(params: ScalarMixParams,
                                tol: float = 1e-13) -> tuple[float, float]:
    """E[prod_r Phi((x - m_r)/v_r)], x ~ N(mu, sigma2), by adaptive quadrature.

    Integrates E_w prod_r Phi((mu - m_r + s w)/v_r), w ~ N(0, 1) and
    s = sqrt(sigma2), over w in [-9, 9]. Factor r rises across
    w_r = (m_r - mu)/s over a width v_r/s, and the range is split at
    w_r + {0, +-2, +-8} v_r/s, clipped to the window, so that no panel steps
    over a narrow rise. ``tol`` is the absolute tolerance, at least 1e-13.
    Returns (value, certificate): the certificate is ``tol`` plus the mass
    2 Phi(-9) outside the window. Raises :class:`QuadratureDepthError` as
    :func:`adaptive_quad_1d` does.
    """
    s = math.sqrt(params.sigma2)
    offset = params.mu - params.m

    def f(w: float) -> float:
        return _INV_SQRT_2PI * math.exp(-0.5 * w * w) * float(
            np.prod(ndtr((offset + s * w) / params.v)))

    edge = _SCALAR_HALF_WIDTH
    rises = ((params.m - params.mu) / s)[:, None] + (params.v / s)[:, None] * _SCALAR_BREAKS
    breaks = np.unique(np.clip(np.append(rises, (-edge, edge)), -edge, edge))
    return _pieces(f, breaks.tolist(), tol), tol + 2.0 * float(ndtr(-edge))


def bivariate_cdf_quad(h: float, k: float, rho: float, tol: float = 1e-13) -> float:
    """Bivariate normal CDF by conditioning + adaptive quadrature.

    Integrates phi(x) Phi((k - rho x)/sqrt(1-rho^2)) for x in [min(h, 0) - 40,
    t], t = min(h, 40) (phi is 0 in floating point past 39); shares no code
    with the Owen's T construction it is used to check. The range is split at
    t - 8 and t - 2 before adapting: a single first panel can place every
    node where mass that is narrow near h has already died off, and then
    pass |K15 - G7| on almost nothing.
    """
    root = math.sqrt((1.0 - rho) * (1.0 + rho))

    def f(x: float) -> float:
        return _INV_SQRT_2PI * math.exp(-0.5 * x * x) * float(ndtr((k - rho * x) / root))

    top = min(h, 40.0)
    return _pieces(f, [min(h, 0.0) - 40.0] + [top + b for b in _BIVARIATE_BREAKS], tol)
