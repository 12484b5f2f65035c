"""Dense symmetric positive-definite matrix kernel.

Construction with explicit pivot diagnostics, Cholesky-backed solves and
determinants, and the block inverse of a bordered precision matrix (one
scalar row/column attached to a diagonal block). Matrices here are small
and dense (dim <= ~20); near-PD inputs are rejected rather than repaired
so that downstream identity checks never run on silently altered data.

The lower Cholesky factor comes from LAPACK ``potrf``, followed by a
scale-aware pivot check: every pivot (the squared diagonal entry of the
factor) must exceed dim * 1e-12 * max diagonal entry. A matrix that
``potrf`` rejects, or whose factor fails the check, raises
:class:`NotPositiveDefiniteError` at the first failing pivot.

The public constructors factor and check at construction, so non-PD input
is rejected at once. Only the library itself may skip that, through the
private :meth:`PdMatrix._derived`, for a matrix it derives from an already
checked one in a way that keeps every pivot above the threshold; its factor
is computed, by the same potrf and pivot check, when it is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

__all__ = [
    "PdMatrix",
    "PrecisionBlocks",
    "NotPositiveDefiniteError",
    "InternalConsistencyError",
    "cholesky_solve",
    "precision_blocks_from_variances",
    "assemble_precision",
    "partitioned_inverse_check",
    "assemble_bordered_cov",
    "full_cov_determinant",
]

# pivot acceptance: pivot > dim * _PIVOT_RTOL * max diagonal entry
_PIVOT_RTOL = 1e-12
_ASYM_RTOL = 1e-8
_RESID_FROB_TOL = 1e-10
_DET_RTOL = 1e-10


class NotPositiveDefiniteError(ValueError):
    """A Cholesky pivot fell below the scale-aware acceptance threshold."""

    def __init__(self, pivot_index: int, pivot: float, threshold: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        self.threshold = threshold
        super().__init__(
            f"not positive definite: pivot {pivot:.6g} at index {pivot_index} "
            f"is not above threshold {threshold:.6g}"
        )


class InternalConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


def _pivot_threshold(entries: np.ndarray) -> float:
    """The pivot acceptance threshold dim * _PIVOT_RTOL * max diagonal entry."""
    return entries.shape[0] * _PIVOT_RTOL * float(entries.diagonal().max())


def _pivot_root(index: int, pivot: float, threshold: float) -> float:
    """sqrt(pivot), or NotPositiveDefiniteError when pivot is not above threshold."""
    if not pivot > threshold:
        raise NotPositiveDefiniteError(index, pivot, threshold)
    return math.sqrt(pivot)


def _cholesky_lower(entries: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor by LAPACK potrf, with the scale-aware pivot check.

    When potrf succeeds and min(diag L)^2 is above the threshold, so is every
    diag(L)^2, and the factor is returned at once. Otherwise a pivot potrf
    accepted is flagged when diag(L)^2 is not above the threshold. A flagged
    pivot is recomputed as a_jj - L_j,:j . L_j,:j from the rows potrf
    finished before it, and that one number both decides and is reported,
    since diag(L)^2 can round to the other side of the threshold. The pivot
    potrf stopped at, if any, fails outright: potrf found it <= 0, and the
    recomputation differs from that only by rounding of order dim * eps *
    a_jj, far below the threshold.
    """
    threshold = _pivot_threshold(entries)
    chol, info = dpotrf(entries, lower=1)
    if info == 0:
        # potrf can report success on a nan pivot; numpy's min propagates
        # the nan, which sends the factor on to the check below
        smallest = float(chol.diagonal().min())
        if smallest * smallest > threshold:
            return chol
    accepted = entries.shape[0] if info == 0 else info - 1
    diag = chol.diagonal()[:accepted]
    suspects = np.flatnonzero(~(diag * diag > threshold)).tolist()
    if info != 0:
        suspects.append(accepted)
    for j in suspects:
        pivot = float(entries[j, j] - chol[j, :j] @ chol[j, :j])
        if j == accepted or not pivot > threshold:
            raise NotPositiveDefiniteError(j, pivot, threshold)
    return chol


def _frozen_vector(name: str, values, dim: int | None = None, *,
                   positive: bool = False, allow_inf: bool = False) -> np.ndarray:
    """``values`` as a read-only float copy, which leaves the caller's array
    theirs; ValueError unless its shape is (dim,) (any, when dim is None and
    the caller checks it) and each entry is finite, or +inf with
    ``allow_inf``, and above 0 with ``positive``. The entries are tested as
    Python floats, cheaper than a numpy reduction at the small N of the
    exact paths."""
    vec = np.array(values, dtype=float, ndmin=1)
    if dim is not None and vec.shape != (dim,):
        raise ValueError(f"{name} has shape {vec.shape}, expected ({dim},)")
    entries = (vec if vec.ndim == 1 else vec.ravel()).tolist()
    # nan and -inf are the entries that are not above -inf
    finite = (-math.inf).__lt__ if allow_inf else math.isfinite
    if not all(map(finite, entries)) or positive and not all(map((0.0).__lt__, entries)):
        rule = ("positive and finite" if positive
                else "finite or +inf" if allow_inf else "finite")
        raise ValueError(f"{name} entries must be {rule}")
    vec.setflags(write=False)
    return vec


class PdMatrix:
    """Immutable SPD matrix with its lower Cholesky factor.

    Use :meth:`from_entries` for general input; the constructor itself
    expects an already-symmetric float array and only runs the Cholesky
    validation (LAPACK potrf and the scale-aware pivot check). Both factor
    eagerly. A matrix from :meth:`_derived` computes its factor when
    :attr:`chol`, :meth:`det` or :meth:`solve` first needs it, by the same
    validation, and keeps it.
    """

    __slots__ = ("_entries", "_chol")

    def __init__(self, entries: np.ndarray):
        entries = np.array(entries, dtype=float)
        self._chol = _cholesky_lower(entries)
        entries.flags.writeable = False
        self._chol.flags.writeable = False
        self._entries = entries

    @classmethod
    def _derived(cls, entries: np.ndarray) -> "PdMatrix":
        """Wrap a matrix the library derived from a checked PdMatrix, unfactored.

        ``entries`` must be a fresh symmetric float array, which the result
        takes over, and one of these, with Sigma the entries of a PdMatrix:

        - I + D Sigma D with D diagonal of +/-1. D Sigma D has the pivots of
          Sigma, and adding I raises each pivot (a Schur complement, the
          minimum of x^T A x over x with x_j = 1 and x_k = 0 past j) by at
          least x_j^2 = 1, while the threshold rises by only dim * 1e-12.
        - A principal submatrix of Sigma with its indices in sorted order.
          Its pivot k conditions a variable on a subset of the predecessors
          it has in Sigma, so it is no smaller than Sigma's pivot there, and
          its threshold k * 1e-12 * max diagonal entry is no larger.

        So the pivot check cannot fail on it, and the eager factor would
        only be computed for readers that may never come (the pmf path
        reads the entries alone). The first read of the factor still runs
        the full check.
        """
        m = cls.__new__(cls)
        entries.flags.writeable = False
        m._entries = entries
        m._chol = None
        return m

    @classmethod
    def from_entries(cls, dim: int, entries) -> "PdMatrix":
        """Validate, symmetrize ((M + M^T)/2) and factor a dim x dim array."""
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        scale = float(np.abs(arr).max())
        asym = float(np.abs(arr - arr.T).max())
        if scale > 0.0 and asym > _ASYM_RTOL * scale:
            raise ValueError(
                f"matrix is asymmetric beyond tolerance: max |M - M^T| = {asym:.3g} "
                f"vs {_ASYM_RTOL:.0e} * max |M| = {_ASYM_RTOL * scale:.3g}"
            )
        return cls(0.5 * (arr + arr.T))

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the symmetric entries."""
        return self._entries

    @property
    def chol(self) -> np.ndarray:
        """Read-only view of the lower Cholesky factor."""
        if self._chol is None:
            self._chol = _cholesky_lower(self._entries)
            self._chol.flags.writeable = False
        return self._chol

    def det(self) -> float:
        d = np.diagonal(self.chol)
        return float(np.prod(d) ** 2)

    def solve(self, rhs) -> np.ndarray:
        return cholesky_solve(self, rhs)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "entries": self._entries.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PdMatrix":
        try:
            dim = obj["dim"]
            entries = obj["entries"]
        except (TypeError, KeyError) as exc:
            raise ValueError("matrix JSON must have 'dim' and 'entries' keys") from exc
        if not isinstance(dim, int):
            raise ValueError(f"matrix 'dim' must be an integer, got {dim!r}")
        return cls.from_entries(dim, entries)

    def __repr__(self) -> str:
        return f"PdMatrix(dim={self.dim})"


def cholesky_solve(m: PdMatrix, rhs) -> np.ndarray:
    """Solve M x = rhs through the cached Cholesky factor."""
    b = np.asarray(rhs, dtype=float)
    if b.shape != (m.dim,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({m.dim},)")
    y = solve_triangular(m.chol, b, lower=True)
    return solve_triangular(m.chol.T, y, lower=False)


@dataclass(frozen=True, eq=False)
class PrecisionBlocks:
    """Blocks of a bordered precision matrix [[a, b], [b^T, diag(d_diag)]].

    ``a`` is the scalar corner, ``b`` the coupling row, and ``d_diag`` the
    diagonal of the remaining block. The scalar Schur complement
    a - sum(b^2 / d_diag) must be positive for the matrix to be PD.
    """

    a: float
    b: np.ndarray
    d_diag: np.ndarray

    def __post_init__(self):
        b = _frozen_vector("b", self.b)
        d = _frozen_vector("d_diag", self.d_diag, positive=True)
        if b.ndim != 1 or d.shape != b.shape:
            raise ValueError("b and d_diag must be 1-d with matching length")
        if not math.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a!r}")
        if not self.a - float(b @ (b / d)) > 0.0:
            raise ValueError("scalar Schur complement a - sum(b^2/d) must be positive")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d_diag", d)

    @property
    def n(self) -> int:
        return self.b.shape[0]


def _checked_variances(sigma2: float, v) -> np.ndarray:
    """``v`` as a read-only float vector, once sigma2 and each v_r are positive
    and finite."""
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")
    v = _frozen_vector("v", v, positive=True)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"v must be a non-empty vector, got shape {v.shape}")
    return v


def precision_blocks_from_variances(sigma2: float, v) -> PrecisionBlocks:
    """Precision blocks of the joint scalar-plus-offsets Gaussian model.

    A latent scalar w ~ N(0, sigma2) shared by offsets z_r with independent
    variances v_r^2 has joint precision with corner sum(1/v^2) + 1/sigma2,
    coupling row 1/v^2 and diagonal block 1/v^2.
    """
    v = _checked_variances(sigma2, v)
    inv_v2 = 1.0 / (v * v)
    return PrecisionBlocks(a=float(np.sum(inv_v2)) + 1.0 / sigma2, b=inv_v2, d_diag=inv_v2)


def assemble_precision(blocks: PrecisionBlocks) -> np.ndarray:
    """Dense (n+1) x (n+1) precision matrix from its blocks."""
    n = blocks.n
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = blocks.a
    out[0, 1:] = blocks.b
    out[1:, 0] = blocks.b
    out[1:, 1:] = np.diag(blocks.d_diag)
    return out


def partitioned_inverse_check(blocks: PrecisionBlocks) -> PdMatrix:
    """Invert a bordered precision matrix by the partitioned-inverse formula.

    With s = a - b D^-1 b^T the covariance blocks are 1/s (corner),
    -(1/s) b D^-1 (border) and D^-1 + (1/s) D^-1 b^T b D^-1 (body). The
    result is multiplied back against the assembled precision and must
    reproduce the identity to within Frobenius norm 1e-10, otherwise an
    :class:`InternalConsistencyError` is raised.
    """
    n = blocks.n
    bd = blocks.b / blocks.d_diag
    s = blocks.a - float(blocks.b @ bd)
    cov = np.zeros((n + 1, n + 1))
    cov[0, 0] = 1.0 / s
    cov[0, 1:] = -bd / s
    cov[1:, 0] = -bd / s
    cov[1:, 1:] = np.diag(1.0 / blocks.d_diag) + np.outer(bd, bd) / s
    resid = float(np.linalg.norm(cov @ assemble_precision(blocks) - np.eye(n + 1)))
    if resid > _RESID_FROB_TOL:
        raise InternalConsistencyError(
            f"partitioned inverse residual {resid:.3g} exceeds {_RESID_FROB_TOL:.0e}"
        )
    return PdMatrix.from_entries(n + 1, cov)


def assemble_bordered_cov(sigma2: float, v) -> np.ndarray:
    """Covariance matching :func:`precision_blocks_from_variances`.

    Corner sigma2, border -sigma2, and body diag(v^2) + sigma2 (dense).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = v.size
    out = np.full((n + 1, n + 1), sigma2)
    out[0, 1:] = -sigma2
    out[1:, 0] = -sigma2
    out[1:, 1:] += np.diag(v * v)
    return out


def full_cov_determinant(sigma2: float, v) -> float:
    """Determinant of the bordered covariance, computed two ways.

    Returns the Cholesky value prod(diag(L))^2 after asserting it agrees
    with the closed form sigma2 * prod(v^2) to 1e-10 relative; disagreement
    raises :class:`InternalConsistencyError`.
    """
    precision_blocks_from_variances(sigma2, v)  # input validation
    v = np.atleast_1d(np.asarray(v, dtype=float))
    full = PdMatrix.from_entries(v.size + 1, assemble_bordered_cov(sigma2, v))
    det_chol = full.det()
    det_closed = sigma2 * float(np.prod(v * v))
    if abs(det_chol - det_closed) > _DET_RTOL * abs(det_closed):
        raise InternalConsistencyError(
            f"determinant mismatch: Cholesky {det_chol!r} vs closed form {det_closed!r}"
        )
    return det_chol
