"""Scalar Gaussian primitives.

Standard normal density, CDF, quantile, and Owen's T-function. Everything
here is a pure function of float arguments and is safe for unrestricted
concurrent use; callers that want vectorized evaluation map over arrays
themselves. The quantile and Owen's T are thin validating wrappers over
``scipy.special.ndtri`` and ``scipy.special.owens_t``.

Owen's T is taken in its standard parameterization

    T(h, a) = (1/2pi) * integral_0^a exp(-h^2 (1+x^2)/2) / (1+x^2) dx,

which is the convention used by scipy and the classical tables.
"""

from __future__ import annotations

import math

from scipy.special import ndtri, owens_t

__all__ = ["phi", "cdf", "inv_cdf", "owen_t"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def phi(x: float) -> float:
    """Standard normal density at ``x``."""
    if not math.isfinite(x):
        raise ValueError(f"phi expects a finite argument, got {x!r}")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def cdf(x: float) -> float:
    """Standard normal CDF, computed from the complementary error function.

    ``+inf`` and ``-inf`` return the exact limits 1 and 0; NaN is rejected.
    The absolute error is at the level of libm's erfc, well below 1e-14.
    """
    if math.isnan(x):
        raise ValueError("cdf expects a non-NaN argument")
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    return 0.5 * math.erfc(-x * _INV_SQRT2)


def inv_cdf(p: float) -> float:
    """Standard normal quantile (``scipy.special.ndtri``).

    Round-trip error |cdf(inv_cdf(p)) - p| stays below 1e-12 across
    p in [1e-15, 1 - 1e-15].
    """
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise ValueError(f"inv_cdf expects p in (0, 1), got {p!r}")
    return float(ndtri(p))


def owen_t(h: float, a: float) -> float:
    """Owen's T-function T(h, a) (``scipy.special.owens_t``).

    Even in ``h`` and odd in ``a``, exactly; T(h, 0) = 0.
    """
    if not (math.isfinite(h) and math.isfinite(a)):
        raise ValueError(f"owen_t expects finite arguments, got {(h, a)!r}")
    return float(owens_t(h, a))
