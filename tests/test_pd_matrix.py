import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from phiprod.pd_matrix import (
    InternalConsistencyError,
    NotPositiveDefiniteError,
    PdMatrix,
    PrecisionBlocks,
    assemble_bordered_cov,
    assemble_precision,
    cholesky_solve,
    full_cov_determinant,
    partitioned_inverse_check,
    precision_blocks_from_variances,
    _frozen_vector,
)
from phiprod.verify import _random_pd


class TestConstruction:
    def test_identity_factors_to_identity(self):
        m = PdMatrix.from_entries(2, np.eye(2))
        assert np.array_equal(m.chol, np.eye(2))

    def test_hand_cholesky(self):
        m = PdMatrix.from_entries(2, [[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
        assert np.allclose(m.chol, expected, atol=1e-15)
        assert np.allclose(m.chol @ m.chol.T, m.entries, atol=1e-15)

    def test_zero_diagonal_rejected_with_pivot_index(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            PdMatrix.from_entries(2, [[0.0, 0.5], [0.5, 0.0]])
        assert info.value.pivot_index == 0

    def test_indefinite_rejected_at_failing_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            PdMatrix.from_entries(2, [[1.0, 2.0], [2.0, 1.0]])
        assert info.value.pivot_index == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            PdMatrix.from_entries(2, [[1.0, 0.5], [0.3, 1.0]])

    def test_small_asymmetry_symmetrized(self):
        m = PdMatrix.from_entries(2, [[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PdMatrix.from_entries(2, [[1.0, math.nan], [math.nan, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PdMatrix.from_entries(3, np.eye(2))

    def test_entries_are_read_only(self):
        m = PdMatrix.from_entries(2, np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_reconstruction_on_random_draws(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = _random_pd(rng, n)
            err = np.linalg.norm(m.chol @ m.chol.T - m.entries)
            assert err <= 1e-10 * np.linalg.norm(m.entries)


def _reference_cholesky(entries: np.ndarray):
    """The unblocked recurrence, pivot by pivot, with the same acceptance rule.

    Returns (chol, failure or None, pivots computed), where failure is
    (pivot_index, pivot, threshold) of the first pivot not above the
    threshold dim * 1e-12 * max diagonal entry, and chol holds the rows
    finished before it.
    """
    n = entries.shape[0]
    threshold = n * 1e-12 * float(np.max(np.diagonal(entries)))
    chol = np.zeros_like(entries)
    pivots = []
    for j in range(n):
        pivot = float(entries[j, j] - chol[j, :j] @ chol[j, :j])
        pivots.append(pivot)
        if not pivot > threshold:
            return chol, (j, pivot, threshold), pivots
        root = math.sqrt(pivot)
        chol[j, j] = root
        chol[j + 1:, j] = (entries[j + 1:, j] - chol[j + 1:, :j] @ chol[j, :j]) / root
    return chol, None, pivots


def _pivot_rounding_bound(chol: np.ndarray, j: int, pivot: float) -> float:
    """First-order bound on the rounding error of pivot j in Cholesky.

    A computed factor is exact for A + E with |E| <= gamma_(n+1) |L| |L^T|
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3), and
    the pivot a_jj - a^T A_:j,:j^-1 a then moves by at most v^T |E| v, with
    v = (|A_:j,:j^-1 a|, 1). Row j of L is completed by sqrt(|pivot|).
    """
    n = chol.shape[0]
    w = solve_triangular(chol[:j, :j].T, chol[j, :j], lower=False)
    v = np.append(np.abs(w), 1.0)
    lower = np.abs(chol[:j + 1, :j + 1])
    lower[j, j] = math.sqrt(abs(pivot))
    lv = lower.T @ v
    u = np.finfo(float).eps / 2
    return (n + 1) * u / (1 - (n + 1) * u) * float(lv @ lv)


def _symmetric_matrix(n: int, kind: str, seed: int, log_scale: float) -> np.ndarray:
    """10^log_scale Q diag(eig) Q^T of size n: PD, with its smallest eigenvalue
    within three decades of the pivot threshold, or with negative eigenvalues."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
    if kind == "near_singular":
        eig[0] = n * 1e-12 * eig.max() * 10.0 ** rng.uniform(-3.0, 3.0)
    elif kind == "indefinite":
        eig[:int(rng.integers(1, n + 1))] *= -1.0
    a = (q * eig) @ q.T
    return 10.0 ** log_scale * (0.5 * (a + a.T))


@st.composite
def _symmetric_matrices(draw):
    """:func:`_symmetric_matrix` of size 1-16."""
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("pd", "near_singular", "indefinite")))
    seed = draw(st.integers(0, 2**32 - 1))
    return _symmetric_matrix(n, kind, seed, draw(st.floats(-3.0, 3.0)))


class TestFactorizationContract:
    @given(_symmetric_matrices())
    # reference pivot 2.33283e-12 over the threshold 2.33264e-12, and the
    # factorization's 2.33241e-12 under it: 8.0e-14 is the rounding bound
    @example(_symmetric_matrix(16, "near_singular", 2273351640, -1.3204861780084145))
    @settings(max_examples=300, deadline=None)
    def test_matches_unblocked_reference(self, entries):
        n = entries.shape[0]
        ref_chol, ref_fail, pivots = _reference_cholesky(entries)
        threshold = n * 1e-12 * float(np.max(np.diagonal(entries)))
        scale = np.max(np.abs(entries))
        # rounding may put a pivot within twice its bound of the threshold on
        # either side of it; either outcome is then right, each with its proof
        bounds = [_pivot_rounding_bound(ref_chol, j, p) for j, p in enumerate(pivots)]
        near = [j for j, p in enumerate(pivots) if abs(p - threshold) <= 2.0 * bounds[j]]
        if near:
            j = near[0]
            try:
                m = PdMatrix.from_entries(n, entries)
            except NotPositiveDefiniteError as exc:
                assert exc.pivot_index == j
                assert exc.threshold == threshold
                assert abs(exc.pivot - pivots[j]) <= 2.0 * bounds[j]
            else:
                assert np.max(np.abs(m.chol @ m.chol.T - entries)) <= 1e-12 * scale
            return
        if ref_fail is None:
            m = PdMatrix.from_entries(n, entries)
            assert np.max(np.abs(m.chol @ m.chol.T - entries)) <= 1e-12 * scale
            return
        with pytest.raises(NotPositiveDefiniteError) as info:
            PdMatrix.from_entries(n, entries)
        index, pivot, threshold = ref_fail
        assert info.value.pivot_index == index
        assert info.value.threshold == threshold
        # each factorization is within the bound of the exact pivot; small
        # accepted pivots before j amplify it past 1e-14 * max |a_ii|
        bound = _pivot_rounding_bound(ref_chol, index, pivot)
        assert abs(info.value.pivot - pivot) <= 2.0 * bound

    @pytest.mark.parametrize("scale", [1.0, 3.0, 7.0])
    @pytest.mark.parametrize("ulps", [-3, -2, -1, 0, 1, 2, 3])
    def test_pivot_a_few_ulps_from_the_threshold(self, scale, ulps):
        # pivot 1 is exactly t, while potrf's diag(L)^2 = sqrt(t)^2 can round
        # to the other side of the threshold; t alone must decide
        threshold = 3 * 1e-12 * scale
        t = threshold
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.inf if ulps > 0 else -math.inf)
        entries = np.diag([scale, t, scale])
        if ulps > 0:
            assert np.array_equal(PdMatrix(entries).chol, np.sqrt(entries))
            return
        with pytest.raises(NotPositiveDefiniteError) as info:
            PdMatrix(entries)
        assert info.value.pivot_index == 1
        assert info.value.pivot == t
        assert info.value.threshold == threshold

    def test_small_pivot_after_a_successful_potrf(self):
        # potrf factors the whole matrix, but pivot 2 is about 1e-14, below
        # the threshold 3e-12: the fast accept must not take it, and
        # the pivot is recomputed from the rows potrf finished before it
        lower = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.3, 0.2, 1e-7]])
        entries = lower @ lower.T
        chol, info = dpotrf(entries, lower=1)
        assert info == 0
        threshold = 3 * 1e-12 * float(np.max(np.diagonal(entries)))
        with pytest.raises(NotPositiveDefiniteError) as caught:
            PdMatrix(entries)
        assert caught.value.pivot_index == 2
        assert caught.value.pivot == float(entries[2, 2] - chol[2, :2] @ chol[2, :2])
        assert caught.value.pivot <= threshold
        assert caught.value.threshold == threshold

    def test_nan_pivot_after_a_successful_potrf(self):
        # potrf reports success on a nan pivot; the constructor, which skips
        # from_entries' finiteness check, must still reject it
        entries = np.array([[1.0, math.nan], [math.nan, 1.0]])
        assert dpotrf(entries, lower=1)[1] == 0
        with pytest.raises(NotPositiveDefiniteError) as caught:
            PdMatrix(entries)
        assert caught.value.pivot_index == 1


class TestFrozenVector:
    @pytest.mark.parametrize("values, rule, message", [
        ([0.0, math.nan], {}, "x entries must be finite"),
        ([0.0, math.inf], {}, "x entries must be finite"),
        ([0.0, -math.inf], {"allow_inf": True}, r"x entries must be finite or \+inf"),
        ([1.0, 0.0], {"positive": True}, "x entries must be positive and finite"),
        ([1.0, math.inf], {"positive": True}, "x entries must be positive and finite"),
        ([[1.0], [1.0]], {"dim": 2}, r"x has shape \(2, 1\), expected \(2,\)"),
    ])
    def test_rejects(self, values, rule, message):
        with pytest.raises(ValueError, match=message):
            _frozen_vector("x", values, **rule)

    def test_read_only_float_copy(self):
        theirs = np.array([1, 2])
        held = _frozen_vector("x", theirs, 2, positive=True)
        assert held.dtype == float and not held.flags.writeable
        assert theirs.flags.writeable and held is not theirs
        assert _frozen_vector("x", [0.5, math.inf], allow_inf=True).tolist() == [0.5, math.inf]
        # with no dim the shape is left to the caller, and every entry is checked
        assert _frozen_vector("x", [[1.0], [2.0]]).shape == (2, 1)
        with pytest.raises(ValueError):
            _frozen_vector("x", [[1.0], [math.nan]])


class TestPrecisionBlocks:
    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            PrecisionBlocks(a=2.0, b=np.ones(2), d_diag=np.asarray([1.0, 0.0]))

    def test_rejects_nonpositive_schur_complement(self):
        with pytest.raises(ValueError, match="Schur"):
            PrecisionBlocks(a=1.0, b=np.ones(2), d_diag=np.ones(2))

    def test_from_variances(self):
        blocks = precision_blocks_from_variances(2.0, [1.0, 3.0])
        assert blocks.a == pytest.approx(1.0 + 1.0 / 9.0 + 0.5, rel=1e-15)
        assert np.allclose(blocks.b, [1.0, 1.0 / 9.0])
        assert np.allclose(blocks.d_diag, [1.0, 1.0 / 9.0])

    @pytest.mark.parametrize("sigma2,v", [(0.0, [1.0]), (-1.0, [1.0]), (1.0, [0.0])])
    def test_from_variances_domain(self, sigma2, v):
        with pytest.raises(ValueError):
            precision_blocks_from_variances(sigma2, v)


class TestPartitionedInverse:
    def test_two_by_two_example(self):
        # precision [[2, 1], [1, 1]] inverts to [[1, -1], [-1, 2]] by hand
        blocks = precision_blocks_from_variances(1.0, [1.0])
        cov = partitioned_inverse_check(blocks)
        assert np.allclose(cov.entries, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)

    def test_structure_for_two_variances(self):
        cov = partitioned_inverse_check(precision_blocks_from_variances(2.0, [1.0, 3.0]))
        assert cov.entries[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(cov.entries[0, 1:], [-2.0, -2.0], atol=1e-12)
        assert cov.entries[1, 1] == pytest.approx(3.0, rel=1e-12)
        assert cov.entries[2, 2] == pytest.approx(11.0, rel=1e-12)
        assert cov.entries[1, 2] == pytest.approx(2.0, rel=1e-12)

    def test_product_with_precision_is_identity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
            v = rng.uniform(0.3, 2.0, size=n)
            blocks = precision_blocks_from_variances(sigma2, v)
            cov = partitioned_inverse_check(blocks)
            resid = np.linalg.norm(cov.entries @ assemble_precision(blocks) - np.eye(n + 1))
            assert resid <= 1e-10


class TestDeterminant:
    def test_unit_example(self):
        # det [[1, -1], [-1, 2]] = 1
        assert full_cov_determinant(1.0, [1.0]) == pytest.approx(1.0, rel=1e-12)

    def test_two_variance_example(self):
        assert full_cov_determinant(2.0, [1.0, 3.0]) == pytest.approx(18.0, rel=1e-12)

    def test_three_variance_example(self):
        assert full_cov_determinant(0.5, [2.0, 2.0, 2.0]) == pytest.approx(32.0, rel=1e-12)

    def test_closed_form_on_random_draws(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
            v = rng.uniform(0.3, 2.0, size=n)
            det = full_cov_determinant(sigma2, v)
            closed = sigma2 * float(np.prod(v * v))
            assert abs(det - closed) <= 1e-10 * closed

    def test_bordered_assembly_matches_partitioned_inverse(self, rng):
        sigma2 = 0.7
        v = np.asarray([0.9, 1.4, 0.5])
        direct = assemble_bordered_cov(sigma2, v)
        via_blocks = partitioned_inverse_check(precision_blocks_from_variances(sigma2, v))
        assert np.allclose(direct, via_blocks.entries, atol=1e-12)


class TestCholeskySolve:
    def test_identity(self):
        m = PdMatrix.from_entries(3, np.eye(3))
        rhs = np.asarray([1.0, -2.0, 0.5])
        assert np.array_equal(cholesky_solve(m, rhs), rhs)

    def test_diagonal(self):
        m = PdMatrix.from_entries(2, [[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(cholesky_solve(m, [4.0, 6.0]), [2.0, 3.0])

    def test_residual_on_random_system(self, rng):
        m = _random_pd(rng, 5)
        rhs = rng.standard_normal(5)
        x = cholesky_solve(m, rhs)
        resid = np.max(np.abs(m.entries @ x - rhs))
        assert resid <= 1e-9 * np.max(np.abs(rhs))

    def test_dimension_mismatch(self):
        m = PdMatrix.from_entries(2, np.eye(2))
        with pytest.raises(ValueError):
            cholesky_solve(m, np.ones(3))


class TestJsonRoundTrip:
    def test_round_trip(self):
        m = PdMatrix.from_entries(2, [[2.0, 0.3], [0.3, 1.0]])
        again = PdMatrix.from_json_dict(m.to_json_dict())
        assert np.array_equal(again.entries, m.entries)

    @pytest.mark.parametrize("obj", [{}, {"dim": 2}, {"dim": "2", "entries": [[1]]}, 7])
    def test_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            PdMatrix.from_json_dict(obj)


def test_internal_consistency_error_is_raisable():
    # the guarded identities cannot be made to fail through the public API;
    # the exception type itself is part of the contract
    assert issubclass(InternalConsistencyError, RuntimeError)
