"""Independent numerical ground truth for the closed forms.

Every identity in this package is checked against a second route that
shares no code with the path under test:

* Gauss-Hermite quadrature for the scalar-mixing CDF product integral,
  with nodes and weights built at first use by Newton iteration on the
  Hermite recurrence (no tabulated constants).
* Plain Monte Carlo for the vector-mixing integral and for raw MVN
  rectangle probabilities, with honest standard errors.
* Adaptive Gauss-Kronrod (G7-K15) quadrature for Owen's T and the
  bivariate CDF. Its nodes and weights are the tabulated constants of
  QUADPACK's dqk15, because Kronrod nodes have no simple recurrence; the
  tests certify them against numpy's Gauss-Legendre rule and polynomial
  exactness. ``scipy.integrate`` is not imported here: the rule is a few
  lines, and the import alone would add about 18 MB to ``verify``.

All stochastic oracles are deterministic given their seed.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .identities import ScalarMixParams, VectorMixParams
from .mvn_cdf import MvnQuery

__all__ = [
    "QuadratureDepthError",
    "gauss_hermite_nodes",
    "cdf_product_scalar_quad",
    "cdf_product_vector_mc",
    "mvn_mc",
    "adaptive_quad_1d",
    "owen_t_integrand",
    "bivariate_cdf_quad",
]

# draws per Monte Carlo chunk; a chunk's arrays stay cache-sized
_MC_CHUNK = 1 << 16
_SQRT_PI = math.sqrt(math.pi)
_INV_2PI = 1.0 / (2.0 * math.pi)
_MIN_QUAD_TOL = 1e-13
_MAX_QUAD_DEPTH = 50
# offsets from h of the pieces of the bivariate oracle's range
_BIVARIATE_BREAKS = (-40.0, -8.0, -2.0, 0.0)


class QuadratureDepthError(RuntimeError):
    """Adaptive refinement hit the depth limit; carries the partial estimate."""

    def __init__(self, partial: float):
        self.partial = partial
        super().__init__(f"adaptive quadrature exceeded max depth (partial={partial!r})")


def _hermite_scaled(order: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Hermite value and derivative, damped by exp(-z^2/2).

    The damping keeps every intermediate O(1) for any order (the bare
    polynomials overflow near the extreme roots for order >~ 190), and it
    cancels in the Newton ratio value/derivative.
    """
    p1 = math.pi ** -0.25 * np.exp(-0.5 * z * z)
    p2 = np.zeros_like(p1)
    for j in range(1, order + 1):
        p1, p2 = z * math.sqrt(2.0 / j) * p1 - math.sqrt((j - 1.0) / j) * p2, p1
    return p1, math.sqrt(2.0 * order) * p2


@functools.lru_cache(maxsize=8)
def gauss_hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral f(t) exp(-t^2) dt ~ sum w_i f(t_i).

    The positive roots are bracketed by a sign scan of the damped Hermite
    recurrence on a grid finer than the minimal root spacing pi/sqrt(2n+1)
    and polished by bracket-safeguarded Newton iteration; the negative
    half follows by symmetry. Nodes are returned in ascending order.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order!r}")
    if order == 1:
        return np.zeros(1), np.asarray([_SQRT_PI])
    n_pos = order // 2
    zmax = math.sqrt(2.0 * order + 1.0)
    step = math.pi / (3.0 * zmax)
    grid = np.arange(step / 7.0, zmax + step, step)
    values = _hermite_scaled(order, grid)[0]
    flips = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    if flips.size != n_pos:
        raise RuntimeError(
            f"bracketing found {flips.size} positive roots, expected {n_pos}")
    lo = grid[flips]
    hi = grid[flips + 1]
    lo_sign = np.sign(values[flips])
    z = 0.5 * (lo + hi)
    for _ in range(100):
        val, deriv = _hermite_scaled(order, z)
        shrink = np.sign(val) == lo_sign
        lo = np.where(shrink, z, lo)
        hi = np.where(shrink, hi, z)
        z_new = z - val / deriv
        outside = ~np.isfinite(z_new) | (z_new <= lo) | (z_new >= hi)
        z_new = np.where(outside, 0.5 * (lo + hi), z_new)
        if np.all(np.abs(z_new - z) <= 1e-15 * np.maximum(1.0, np.abs(z))):
            z = z_new
            break
        z = z_new
    deriv = _hermite_scaled(order, z)[1]
    # w = 2 / H'(z)^2 with the damping restored; the square of the damped
    # ratio avoids overflow and underflows cleanly for the far-tail nodes
    t = math.sqrt(2.0) * np.exp(-0.5 * z * z) / deriv
    w_pos = t * t
    if order % 2 == 1:
        center_w = 2.0 / _hermite_scaled(order, np.zeros(1))[1] ** 2
        x = np.concatenate([-z[::-1], [0.0], z])
        w = np.concatenate([w_pos[::-1], center_w, w_pos])
    else:
        x = np.concatenate([-z[::-1], z])
        w = np.concatenate([w_pos[::-1], w_pos])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def cdf_product_scalar_quad(params: ScalarMixParams, order: int = 200) -> float:
    """Gauss-Hermite value of E[prod_r Phi((x - m_r)/v_r)], x ~ N(mu, sigma2).

    Substituting x = mu + sigma * sqrt(2) * t reduces the integral to the
    exp(-t^2) weight; the result is deterministic and converges as the
    order grows (certify with an order-doubling comparison).
    """
    if not 20 <= order <= 400:
        raise ValueError(f"order must lie in [20, 400], got {order!r}")
    t, w = gauss_hermite_nodes(order)
    sigma = math.sqrt(params.sigma2)
    xs = params.mu + sigma * math.sqrt(2.0) * t
    factors = ndtr((xs[:, None] - params.m[None, :]) / params.v[None, :])
    return float(w @ np.prod(factors, axis=1)) / _SQRT_PI


def cdf_product_vector_mc(params: VectorMixParams, draws: int = 1_000_000,
                          seed: int = 0) -> tuple[float, float]:
    """Monte Carlo value of E[prod_r Phi((x_r - m_r)/v_r)], x ~ N(mu, Sigma).

    Returns (estimate, standard error). Draws are processed in fixed-size
    chunks so memory stays bounded and the result is independent of chunk
    partitioning for a given seed.
    """
    if draws < 10_000:
        raise ValueError(f"draws must be >= 1e4, got {draws!r}")
    rng = np.random.default_rng(seed % (1 << 63))
    # row r of scaled @ z.T + offset is (x_r - m_r) / v_r for x = mu + L z
    scaled = params.sigma.chol / params.v[:, None]
    offset = ((params.mu - params.m) / params.v)[:, None]
    total = 0.0
    total_sq = 0.0
    remaining = draws
    while remaining > 0:
        block = min(remaining, _MC_CHUNK)
        factors = scaled @ rng.standard_normal((block, params.n)).T
        factors += offset
        ndtr(factors, out=factors)
        t = factors[0]
        for row in factors[1:]:
            t *= row
        total += float(t.sum())
        total_sq += float((t * t).sum())
        remaining -= block
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0) * draws / (draws - 1)
    return mean, math.sqrt(var / draws)


def mvn_mc(query: MvnQuery, draws: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Crude Monte Carlo for P(Z <= upper), Z ~ N(mean, cov).

    Returns (estimate, standard error) from the indicator fraction.
    """
    if draws < 10_000:
        raise ValueError(f"draws must be >= 1e4, got {draws!r}")
    rng = np.random.default_rng(seed % (1 << 63))
    chol_t = query.cov.chol.T
    hits = 0
    remaining = draws
    while remaining > 0:
        block = min(remaining, _MC_CHUNK)
        z = query.mean + rng.standard_normal((block, query.dim)) @ chol_t
        hits += int(np.all(z <= query.upper, axis=1).sum())
        remaining -= block
    p = hits / draws
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / (draws - 1))


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


def _adaptive(f: Callable[[float], float], a: float, b: float, tol: float,
              depth: int) -> float:
    value, err = _kronrod_panel(f, a, b)
    if err <= tol:
        return value
    if depth <= 0:
        raise QuadratureDepthError(value)
    mid = 0.5 * (a + b)
    half_tol = 0.5 * tol
    # accumulate sibling contributions into the partial estimate so a
    # depth failure still reports the whole-interval value
    try:
        left_val = _adaptive(f, a, mid, half_tol, depth - 1)
    except QuadratureDepthError as exc:
        try:
            right_val = _adaptive(f, mid, b, half_tol, depth - 1)
        except QuadratureDepthError as exc_right:
            raise QuadratureDepthError(exc.partial + exc_right.partial) from None
        raise QuadratureDepthError(exc.partial + right_val) from None
    try:
        return left_val + _adaptive(f, mid, b, half_tol, depth - 1)
    except QuadratureDepthError as exc:
        raise QuadratureDepthError(left_val + exc.partial) from None


def adaptive_quad_1d(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-12) -> float:
    """Adaptive Gauss-Kronrod (G7-K15) quadrature of ``f`` on [a, b].

    A panel returns its 15-point Kronrod value once |K15 - G7| is at most
    its share of the absolute tolerance ``tol``; otherwise it is bisected
    and each half gets half the share. The plain difference, not QUADPACK's
    (200 |K15 - G7|)^1.5 rescaling, is the acceptance test, so every
    accepted panel's error bound is conservative. ``scipy.integrate.quad``
    is not used because importing it would add about 18 MB and 0.2 s to
    every ``verify`` run.

    Signed like the usual integral (swapping a and b negates the result).
    Raises :class:`QuadratureDepthError` with the partial estimate attached
    if refinement exceeds the depth limit.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if tol < _MIN_QUAD_TOL:
        raise ValueError(f"tol must be >= {_MIN_QUAD_TOL:g}, got {tol!r}")
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_quad_1d(f, b, a, tol)
    return _adaptive(f, a, b, tol, _MAX_QUAD_DEPTH)


def owen_t_integrand(h: float) -> Callable[[float], float]:
    """The defining Owen's T integrand x -> exp(-h^2(1+x^2)/2)/((1+x^2) 2 pi)."""
    def f(x: float) -> float:
        s = 1.0 + x * x
        return _INV_2PI * math.exp(-0.5 * h * h * s) / s
    return f


def bivariate_cdf_quad(h: float, k: float, rho: float, tol: float = 1e-13) -> float:
    """Bivariate normal CDF by conditioning + adaptive quadrature.

    Integrates phi(x) Phi((k - rho x)/sqrt(1-rho^2)) for x in [h - 40, h];
    shares no code with the Owen's T construction it is used to check. The
    range is split at h - 8 and h - 2 before adapting, and each piece gets a
    share of ``tol`` in proportion to its length: a single first panel on
    [h - 40, h] can place every node where mass that is narrow near h has
    already died off, and then pass |K15 - G7| on almost nothing. The
    shares go below the floor of :func:`adaptive_quad_1d`, so the pieces
    call the adaptive rule directly.
    """
    if not math.isfinite(h):
        raise ValueError("integration limits must be finite")
    if tol < _MIN_QUAD_TOL:
        raise ValueError(f"tol must be >= {_MIN_QUAD_TOL:g}, got {tol!r}")
    root = math.sqrt((1.0 - rho) * (1.0 + rho))
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)

    def f(x: float) -> float:
        return inv_sqrt_2pi * math.exp(-0.5 * x * x) * float(ndtr((k - rho * x) / root))

    span = _BIVARIATE_BREAKS[-1] - _BIVARIATE_BREAKS[0]
    total = 0.0
    failed = False
    for lo, hi in zip(_BIVARIATE_BREAKS, _BIVARIATE_BREAKS[1:]):
        # like sibling panels in _adaptive, a piece that hits the depth
        # limit adds its partial sum and the other pieces still run
        try:
            total += _adaptive(f, h + lo, h + hi, tol * (hi - lo) / span, _MAX_QUAD_DEPTH)
        except QuadratureDepthError as exc:
            total += exc.partial
            failed = True
    if failed:
        raise QuadratureDepthError(total)
    return total
