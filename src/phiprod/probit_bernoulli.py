"""Multivariate Bernoulli distribution on {-1, +1}^N with a probit link.

A latent vector f ~ N(mu, Sigma) drives N conditionally independent
Bernoulli trials with success probability Phi(f_r), recorded as signs
y_r in {-1, +1}. Marginally the sign vector has

    pmf(y) = F_N(D_y mu | 0, I + D_y Sigma D_y),   D_y = diag(y),

an orthant probability of the noise-augmented latent Gaussian. The family
is closed under marginalization of coordinates, and sampling reduces to
y = sign(f + eps) with eps ~ N(0, I) drawn alongside f.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gauss_scalar import cdf as _scalar_cdf
from .mvn_cdf import MvnEstimate, MvnQuery, _as_count, _check_accuracy, _exact_estimate, _rng
from .mvn_cdf import cdf as _mvn_cdf
from .pd_matrix import PdMatrix, _frozen_vector

__all__ = ["SignVector", "ProbitBernoulli"]

_MAX_ENUM_DIM = 15
# rows of latent draws that sample() maps and signs at a time: bounds its
# temporaries to a few chunks on top of the (count, dim) draws themselves
_SAMPLE_CHUNK = 1 << 14


@dataclass(frozen=True)
class SignVector:
    """A point of the support: a tuple of entries that are exactly -1 or +1."""

    signs: tuple[int, ...]

    def __post_init__(self):
        cleaned = []
        for s in self.signs:
            if s != -1 and s != 1:
                # a numpy scalar is named by its value, as a parsed float is
                value = s.item() if isinstance(s, np.generic) else s
                raise ValueError(f"sign entries must be -1 or +1, got {value!r}")
            cleaned.append(int(s))
        object.__setattr__(self, "signs", tuple(cleaned))
        if len(self.signs) == 0:
            raise ValueError("sign vector must be non-empty")

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.signs, dtype=float)

    def flipped(self) -> "SignVector":
        return SignVector(tuple(-s for s in self.signs))


class ProbitBernoulli:
    """Sign-vector distribution induced by probit trials on a latent Gaussian."""

    def __init__(self, mu, sigma: PdMatrix):
        self._mu = _frozen_vector("mu", mu, sigma.dim)
        self._sigma = sigma

    @classmethod
    def _derived(cls, mu: np.ndarray, sigma: PdMatrix) -> "ProbitBernoulli":
        """Wrap parts the library derived from a checked model, unchecked.

        ``mu`` must be a fresh float array, which the result takes over, of
        shape (sigma.dim,) and with finite entries: entries of a checked
        ``mu``, as :meth:`marginalize` takes them, are. The public
        constructor checks exactly these properties, so it could not fail on
        them.
        """
        m = cls.__new__(cls)
        mu.setflags(write=False)
        m._mu = mu
        m._sigma = sigma
        return m

    @property
    def dim(self) -> int:
        return self._mu.shape[0]

    @property
    def mu(self) -> np.ndarray:
        return self._mu

    @property
    def sigma(self) -> PdMatrix:
        return self._sigma

    def _check_length(self, y: SignVector) -> None:
        if len(y) != self.dim:
            raise ValueError(f"sign vector has length {len(y)}, expected {self.dim}")

    def _query(self, y: SignVector, accuracy: float) -> MvnQuery:
        n = self.dim
        self._check_length(y)
        ys = y.as_array()
        # I + D_y Sigma D_y is symmetric, finite and PD by construction
        entries = self._sigma.entries * (ys[:, None] * ys)
        diagonal = entries.reshape(-1)[::n + 1]
        diagonal += 1.0
        return MvnQuery(upper=ys * self._mu, mean=np.zeros(n),
                        cov=PdMatrix._derived(entries), accuracy=accuracy)

    def pmf(self, y: SignVector, accuracy: float = 1e-6, seed: int = 0) -> MvnEstimate:
        """P(Y = y) as an MVN CDF evaluation, with its error estimate.

        At dim >= 3 this evaluates the query of :meth:`_query`. At dim <= 2
        it builds no query: it reads its own limits y_r mu_r, variances
        1 + Sigma_rr and covariance y_1 y_2 Sigma_12 as Python floats and
        hands them to ``mvn_cdf._exact_estimate``, which standardizes them
        as the query's own evaluation would, so the result has the same
        bits. The same checks run, in the same order: the length of ``y``,
        then the accuracy.
        """
        if self.dim > 2:
            return _mvn_cdf(self._query(y, accuracy), seed=seed)
        self._check_length(y)
        _check_accuracy(accuracy)
        mu, sigma = self._mu, self._sigma.entries
        y1 = y.signs[0]
        if self.dim == 1:
            return _exact_estimate(y1 * mu.item(0), sigma.item(0, 0) + 1.0)
        y2 = y.signs[1]
        return _exact_estimate(y1 * mu.item(0), sigma.item(0, 0) + 1.0,
                               y2 * mu.item(1), sigma.item(1, 1) + 1.0,
                               y1 * y2 * sigma.item(0, 1))

    def log_pmf(self, y: SignVector, accuracy: float = 1e-6, seed: int = 0) -> float:
        """log P(Y = y); -inf when the pmf estimate underflows to zero."""
        value = self.pmf(y, accuracy=accuracy, seed=seed).value
        if value <= 0.0:
            return -math.inf
        return math.log(value)

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        """Draw ``count`` sign vectors; returns a (count, dim) array of -1/+1.

        Each row is sign(f + eps) with f ~ N(mu, Sigma) and eps ~ N(0, I),
        which realizes the probit trials exactly. Deterministic given seed.
        """
        count = _as_count("count", count)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        rng = _rng(seed)
        # all latent normals first, then all noise, as one draw each would
        # take them: standard_normal fills its output in sequence, so the
        # noise drawn chunk by chunk is the same stream
        latent = rng.standard_normal((count, self.dim))
        chol_t = self._sigma.chol.T
        signs = np.empty((count, self.dim), dtype=np.int8)
        for start in range(0, count, _SAMPLE_CHUNK):
            rows = slice(start, start + _SAMPLE_CHUNK)
            f = latent[rows] @ chol_t
            f += self._mu
            f += rng.standard_normal(f.shape)
            signs[rows] = np.where(f >= 0.0, 1, -1)
        return signs

    def support(self):
        """All 2^dim sign vectors in a fixed deterministic order."""
        for signs in itertools.product((-1, 1), repeat=self.dim):
            yield SignVector(signs)

    def normalization(self, accuracy: float = 1e-6, seed: int = 0) -> float:
        """Sum of pmf over the whole support; should be 1 within 2^dim * accuracy."""
        if self.dim > _MAX_ENUM_DIM:
            raise ValueError(
                f"support enumeration limited to dim <= {_MAX_ENUM_DIM}, got {self.dim}"
            )
        return sum(self.pmf(y, accuracy=accuracy, seed=seed).value for y in self.support())

    def mean(self) -> np.ndarray:
        """E[Y], exactly 2 Phi(mu_r / sqrt(1 + Sigma_rr)) - 1 per component."""
        diag = np.diagonal(self._sigma.entries)
        return np.asarray(
            [2.0 * _scalar_cdf(m / math.sqrt(1.0 + s)) - 1.0
             for m, s in zip(self._mu, diag)]
        )

    def marginalize(self, keep) -> "ProbitBernoulli":
        """Distribution of the coordinates in ``keep`` (0-based indices).

        Marginalizing the latent Gaussian marginalizes the sign vector, so
        this just restricts (mu, Sigma). ``keep`` is checked here: each
        index must be an integer (``operator.index``; bools, masks and
        floats are rejected), in range and not repeated. The parts are not
        checked again. Entries of the checked ``mu`` are finite, and there
        is one per index. A principal submatrix of a valid Sigma, taken in
        sorted order, is symmetric, finite and PD by construction; its
        Cholesky factor is computed, with the full pivot check, when first
        read (by :meth:`sample`), never by :meth:`pmf`.
        """
        requested = [_as_count("keep index", i) for i in keep]
        idx = sorted(set(requested))
        if len(idx) == 0:
            raise ValueError("keep must be a non-empty index set")
        if len(idx) != len(requested):
            raise ValueError("keep must not contain duplicate indices")
        if idx[0] < 0 or idx[-1] >= self.dim:
            raise ValueError(f"keep indices must lie in [0, {self.dim})")
        cols = np.array(idx)
        sub = PdMatrix._derived(self._sigma.entries.take(cols, 0).take(cols, 1))
        return ProbitBernoulli._derived(self._mu.take(cols), sub)

    def __repr__(self) -> str:
        return f"ProbitBernoulli(dim={self.dim})"
