import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal, qmc

from phiprod import mvn_cdf, oracles
from phiprod.gauss_scalar import cdf as scalar_cdf
from phiprod.gauss_scalar import owen_t
from phiprod.mvn_cdf import MvnEstimate, MvnQuery, bivariate_cdf, cdf
from phiprod.pd_matrix import NotPositiveDefiniteError, PdMatrix, PrecisionBlocks, \
    _cholesky_lower
from phiprod.identities import (ScalarMixParams, VectorMixParams, cdf_product_scalar,
                                cdf_product_vector)
from phiprod.probit_bernoulli import ProbitBernoulli, SignVector
from phiprod.verify import _random_pd, run_suites
from qmc_sets import bar_ratios, heldout_queries


HONESTY_REFERENCE = Path(__file__).parent / "data" / "honesty_reference.json"


def honesty_queries():
    """The 200 (seed, upper, mean, cov) draws of the error-bar honesty test:
    half probit orthants F(D_y mu | 0, I + D_y Sigma D_y), half
    vector-mixing queries F(mu | m, diag(v^2) + Sigma), N in 3..8."""
    rng = np.random.default_rng(20260418)
    for i in range(200):
        n = int(rng.integers(3, 9))
        sig = _random_pd(rng, n)
        if i % 2:
            ys = rng.choice([-1.0, 1.0], size=n)
            upper = ys * rng.uniform(-1.5, 1.5, n)
            mean = np.zeros(n)
            cov = np.eye(n) + sig.entries * np.outer(ys, ys)
        else:
            upper = rng.uniform(-1.5, 1.5, n)
            mean = rng.uniform(-1.5, 1.5, n)
            cov = np.diag(rng.uniform(0.3, 2.0, n) ** 2) + sig.entries
        yield i, upper, mean, cov


def _query(upper, mean, entries, **kw):
    n = len(upper)
    return MvnQuery(upper=np.asarray(upper, dtype=float),
                    mean=np.asarray(mean, dtype=float),
                    cov=PdMatrix.from_entries(n, entries), **kw)


def _plain_genz_sums(chol, b, e_first, u):
    """The untilted Genz kernel on uniforms ``u`` of shape (n - 1,
    randomizations, points), one randomization at a time: the reference that
    the tilted kernel must reproduce bit for bit at a zero tilt."""
    n = b.shape[0]
    sums = np.empty(u.shape[1])
    for r in range(u.shape[1]):
        points = u[:, r]
        prod = np.full(points.shape[1], e_first)
        prev_e = prod
        y = np.empty_like(points)
        for i in range(1, n):
            y[i - 1] = ndtri(np.clip(points[i - 1] * prev_e, 1e-300, 1.0 - 1e-16))
            cond = (b[i] - chol[i, :i] @ y[:i]) / chol[i, i]
            prev_e = ndtr(cond)
            prod = prod * prev_e
        sums[r] = prod.sum()
    return sums


def _natural_order_net(net, log2_points):
    """The whole net of :func:`mvn_cdf._scrambled_net` as integers of shape
    (dim, 12, 2^log2_points) in natural order, point w c + k built at once
    as base point k XOR the generators of the set bits of c, where the base
    width w is _MIN_LATTICE."""
    base, generators = net
    levels = log2_points - (mvn_cdf._MIN_LATTICE.bit_length() - 1)
    blocks = np.arange(1 << levels)
    bits = (blocks[:, None] >> np.arange(levels)) & 1
    offsets = np.bitwise_xor.reduce(
        np.where(bits == 1, generators[..., None, :], np.uint32(0)), axis=-1)
    return (base[..., None, :] ^ offsets[..., None]).reshape(base.shape[:2] + (-1,))


def _random_orthant(rng, n, scale=1.5):
    """A probit orthant F(D_y mu | 0, I + D_y Sigma D_y), |mu_i| <= scale."""
    ys = rng.choice([-1.0, 1.0], size=n)
    upper = ys * rng.uniform(-scale, scale, n)
    cov = np.eye(n) + _random_pd(rng, n).entries * np.outer(ys, ys)
    return upper, cov


class TestExactPaths:
    def test_univariate_median(self):
        est = cdf(_query([1.3], [1.3], [[2.0]]))
        assert est.value == 0.5
        assert est.method == "univariate"
        assert est.err_estimate == 0.0

    def test_univariate_scales(self):
        est = cdf(_query([2.0], [0.0], [[4.0]]))
        assert est.value == pytest.approx(scalar_cdf(1.0), abs=1e-15)

    def test_orthant_at_half_correlation(self):
        # correlation +1/2 gives exactly 1/3, -1/2 gives 1/6
        est = cdf(_query([0.0, 0.0], [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]))
        assert est.method == "bivariate_owen"
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        est = cdf(_query([0.0, 0.0], [0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]]))
        assert est.value == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_three_dim_independent(self):
        est = cdf(_query([0.0] * 3, [0.0] * 3, np.eye(3)))
        assert est.method == "qmc_genz"
        assert est.value == pytest.approx(0.125, abs=1e-9)

    def test_infinite_upper_marginalizes(self):
        est = cdf(_query([0.7, math.inf], [0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]]))
        assert est.method == "univariate"
        assert est.value == pytest.approx(scalar_cdf(0.7), abs=1e-15)

    def test_all_infinite_upper_is_one(self):
        est = cdf(_query([math.inf, math.inf], [0.0, 0.0], np.eye(2)))
        assert est.value == 1.0

    def test_float_route_matches_the_array_form(self, rng):
        # the N <= 2 paths run on Python floats; the array form they replace
        # (slice, then the same operations on numpy scalars) is the reference
        for _ in range(200):
            n = int(rng.integers(1, 5))
            sigma = _random_pd(rng, n).entries * 10.0 ** rng.uniform(-3.0, 3.0)
            upper = rng.uniform(-3.0, 3.0, n)
            upper[rng.permutation(n)[:n - int(rng.integers(1, min(n, 2) + 1))]] = math.inf
            mean = rng.uniform(-1.0, 1.0, n)
            active = np.flatnonzero(np.isfinite(upper))
            b = (upper - mean)[active]
            cov = sigma[np.ix_(active, active)]
            if active.size == 1:
                expected = scalar_cdf(b[0] / math.sqrt(cov[0, 0]))
            else:
                s1, s2 = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
                expected = bivariate_cdf(b[0] / s1, b[1] / s2, cov[0, 1] / (s1 * s2))
            est = cdf(MvnQuery(upper, mean, PdMatrix.from_entries(n, sigma)))
            assert type(est.value) is float
            assert est.value == expected


@st.composite
def _mixed_infinite_limits(draw):
    """(n, mask of +inf limits, seed): a proper subset of the n limits is +inf."""
    n = draw(st.integers(2, 8))
    bits = draw(st.integers(0, (1 << n) - 2))
    return n, np.array([(bits >> j) & 1 for j in range(n)], dtype=bool), draw(
        st.integers(0, 2**32 - 1))


class TestInfiniteLimits:
    @given(_mixed_infinite_limits(), st.sampled_from([1e-4, 1e-3, 1e-2]))
    @settings(max_examples=40, deadline=None)
    def test_equal_to_the_reduced_query(self, case, accuracy):
        n, infinite, seed = case
        rng = np.random.default_rng(seed)
        cov = _random_pd(rng, n)
        upper = rng.uniform(-1.5, 1.5, n)
        mean = rng.uniform(-1.0, 1.0, n)
        upper[infinite] = math.inf
        active = np.flatnonzero(~infinite)
        est = cdf(MvnQuery(upper=upper, mean=mean, cov=cov, accuracy=accuracy),
                  seed=seed)
        reduced = cdf(MvnQuery(
            upper=upper[active], mean=mean[active],
            cov=PdMatrix.from_entries(active.size, cov.entries[np.ix_(active, active)]),
            accuracy=accuracy), seed=seed)
        fields = ("value", "err_estimate", "n_points", "method", "converged", "tilted")
        assert [getattr(est, f) for f in fields] == [getattr(reduced, f) for f in fields]
        assert est.order == tuple(active[list(reduced.order)].tolist())
        everything = cdf(MvnQuery(upper=np.full(n, math.inf), mean=mean, cov=cov,
                                  accuracy=accuracy), seed=seed)
        assert (everything.value, everything.err_estimate, everything.method) == (
            1.0, 0.0, "univariate")


class TestBivariate:
    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_origin_matches_arcsine(self, rho):
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert bivariate_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-10)

    def test_independent_origin(self):
        assert bivariate_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_matches_conditioning_quadrature(self):
        for h in np.linspace(-2.5, 2.5, 7):
            for k in np.linspace(-2.5, 2.5, 7):
                for rho in (-0.85, -0.4, 0.0, 0.3, 0.75):
                    ref = oracles.bivariate_cdf_quad(float(h), float(k), float(rho))
                    got = bivariate_cdf(float(h), float(k), float(rho))
                    assert abs(got - ref) <= 1e-10

    def test_complement_identity(self):
        # Phi2(h, k, rho) + Phi2(h, -k, -rho) = Phi(h)
        for h in np.linspace(-2.0, 2.0, 9):
            for k in np.linspace(-2.0, 2.0, 9):
                for rho in (-0.8, -0.3, 0.4, 0.9):
                    total = (bivariate_cdf(float(h), float(k), float(rho))
                             + bivariate_cdf(float(h), float(-k), float(-rho)))
                    assert abs(total - scalar_cdf(float(h))) <= 1e-9

    @pytest.mark.parametrize("rho", [1.0 - 1e-13, -(1.0 - 1e-13), 1.0, -1.5])
    def test_degenerate_correlation_rejected(self, rho):
        with pytest.raises(ValueError):
            bivariate_cdf(0.3, -0.2, rho)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bivariate_cdf(math.inf, 0.0, 0.5)

    @pytest.mark.parametrize("entry", ["bivariate_cdf", "cdf", "pmf"])
    def test_overflowing_ratio_takes_its_limit(self, entry):
        # k/h overflows next to a subnormal h; T(h, inf) = Phi(-|h|)/2 leaves
        # the axis value Phi2(0, k; rho) = Phi(k)/2 + T(k, rho/sqrt(1-rho^2))
        sigma = PdMatrix.from_entries(2, [[1.0, 0.3], [0.3, 1.0]])
        if entry == "bivariate_cdf":
            (h, k, rho), value = (1e-320, 0.5, 0.3), bivariate_cdf(1e-320, 0.5, 0.3)
        elif entry == "cdf":
            h, k, rho = 1e-310, 0.5, 0.3
            value = cdf(MvnQuery([1e-310, 0.5], [0.0, 0.0], sigma)).value
        else:
            h, k, rho = 1e-310 / math.sqrt(2.0), 0.5 / math.sqrt(2.0), 0.15
            value = ProbitBernoulli([1e-310, 0.5], sigma).pmf(SignVector((1, 1))).value
        axis = 0.5 * scalar_cdf(k) + owen_t(k, rho / math.sqrt((1.0 - rho) * (1.0 + rho)))
        assert abs(value - axis) <= 1e-15
        assert abs(value - oracles.bivariate_cdf_quad(h, k, rho)) <= 1e-12

    def test_one_owens_t_call_gives_the_bits_of_two(self, rng):
        # the two-term branch takes both T terms from one scipy call; the
        # reference is the same formula with one owen_t call per term
        def two_calls(h, k, rho):
            root = math.sqrt((1.0 - rho) * (1.0 + rho))
            value = (0.5 * (scalar_cdf(h) + scalar_cdf(k))
                     - owen_t(h, (k / h - rho) / root) - owen_t(k, (h / k - rho) / root))
            if (h < 0.0) != (k < 0.0):
                value -= 0.5
            return min(max(value, 0.0), 1.0)

        h, k = rng.uniform(-6.0, 6.0, (2, 2000)).tolist()
        rho = rng.uniform(-0.99, 0.99, 2000).tolist()
        for args in zip(h, k, rho):
            assert bivariate_cdf(*args) == two_calls(*args)

    def test_numpy_arguments_raise_no_warning(self):
        # k / h overflows next to a subnormal h; a numpy scalar division
        # would warn there, so the arguments are taken as Python floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = bivariate_cdf(np.float64(-5e-324), np.float64(0.5), np.float64(0.3))
        assert value == bivariate_cdf(-5e-324, 0.5, 0.3) == 0.3883551543258027

    @pytest.mark.parametrize("tiny", [5e-324, -5e-324, 1e-310, -1e-310, 1e-200, -1e-200])
    def test_limits_next_to_zero_give_the_axis_value(self, tiny):
        # a ratio that overflows takes the limit T(h, +-inf); a product h k
        # that underflows to zero must still count opposite signs
        for k in (-6.0, -1e-200, -0.4, 0.2, 1e-200, 3.0):
            for rho in (-0.95, -0.3, 0.0, 0.6, 0.99):
                root = math.sqrt((1.0 - rho) * (1.0 + rho))
                axis = 0.5 * scalar_cdf(k) + owen_t(k, rho / root)
                ref = oracles.bivariate_cdf_quad(tiny, k, rho)
                for value in (bivariate_cdf(tiny, k, rho), bivariate_cdf(k, tiny, rho)):
                    assert abs(value - axis) <= 1e-15
                    assert abs(value - ref) <= 1e-12


class TestQmcPath:
    def test_agrees_with_monte_carlo_n4(self, rng):
        cov = _random_pd(rng, 4)
        q = MvnQuery(upper=rng.uniform(-1.0, 2.0, 4), mean=rng.uniform(-1.0, 1.0, 4),
                     cov=cov, accuracy=1e-6)
        est = cdf(q, seed=3)
        mc, se = oracles.mvn_mc(q, draws=10_000_000, seed=17)
        assert abs(est.value - mc) <= oracles.mc_threshold(se, est.err_estimate)

    def test_forced_qmc_matches_bivariate_grid(self):
        for h in np.linspace(-1.8, 1.8, 10):
            for k in np.linspace(-1.8, 1.8, 10):
                for rho in np.linspace(-0.8, 0.8, 9):
                    q = _query([h, k], [0.0, 0.0],
                               [[1.0, rho], [rho, 1.0]], accuracy=5e-4)
                    est = mvn_cdf._qmc_cdf(q.upper - q.mean, q.cov.entries, np.arange(2),
                                           q.accuracy, q.max_samples, 11)
                    exact = bivariate_cdf(float(h), float(k), float(rho))
                    assert est.method == "qmc_genz"
                    assert abs(est.value - exact) <= max(3.0 * est.err_estimate, 1e-7)

    def test_monotone_in_upper(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            cov = _random_pd(rng, n)
            upper = rng.uniform(-1.5, 1.5, n)
            mean = rng.uniform(-1.0, 1.0, n)
            lo = cdf(MvnQuery(upper=upper, mean=mean, cov=cov, accuracy=1e-5), seed=5)
            bumped = upper.copy()
            bumped[int(rng.integers(0, n))] += 0.5
            hi = cdf(MvnQuery(upper=bumped, mean=mean, cov=cov, accuracy=1e-5), seed=5)
            assert hi.value >= lo.value - (lo.err_estimate + hi.err_estimate)

    def test_marginalization_consistency(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            cov = _random_pd(rng, n)
            upper = rng.uniform(-1.5, 1.5, n)
            mean = rng.uniform(-1.0, 1.0, n)
            padded = upper.copy()
            padded[-1] = math.inf
            full = cdf(MvnQuery(upper=padded, mean=mean, cov=cov, accuracy=1e-5), seed=9)
            sub = cdf(MvnQuery(
                upper=upper[:-1], mean=mean[:-1],
                cov=PdMatrix.from_entries(n - 1, cov.entries[:n - 1, :n - 1]),
                accuracy=1e-5), seed=9)
            slack = full.err_estimate + sub.err_estimate + 1e-12
            assert abs(full.value - sub.value) <= slack

    def test_deterministic_given_seed(self, rng):
        cov = _random_pd(rng, 4)
        q = MvnQuery(upper=rng.uniform(-1, 2, 4), mean=np.zeros(4), cov=cov)
        assert cdf(q, seed=123) == cdf(q, seed=123)

    def test_budget_exhaustion_flags_error_not_raises(self, rng):
        cov = _random_pd(rng, 5)
        q = MvnQuery(upper=rng.uniform(-1, 1, 5), mean=np.zeros(5), cov=cov,
                     accuracy=1e-9, max_samples=12 * 4096)
        est = cdf(q, seed=0)
        assert isinstance(est, MvnEstimate)
        assert est.err_estimate > 0.0


class TestEmbeddedLattice:
    @pytest.mark.parametrize("accuracy, max_samples", [
        (1e-6, mvn_cdf._DEFAULT_MAX_SAMPLES),
        (1e-9, 12 * 4096),
        # exactly one 512-point first level per net, spent to the point
        (1e-9, 12 * 512),
    ])
    def test_no_point_is_evaluated_twice(self, monkeypatch, rng, accuracy,
                                         max_samples):
        n = 5
        q = MvnQuery(upper=rng.uniform(-1, 1, n), mean=np.zeros(n),
                     cov=_random_pd(rng, n), accuracy=accuracy,
                     max_samples=max_samples)
        seen = []
        real = mvn_cdf.ndtri

        def counting(x):
            seen.append(np.size(x))
            return real(x)

        monkeypatch.setattr(mvn_cdf, "ndtri", counting)
        est = cdf(q, seed=0)
        assert est.n_points >= mvn_cdf._MIN_LATTICE
        assert sum(seen) == (n - 1) * 12 * est.n_points
        assert sum(seen) <= (n - 1) * max_samples

    def test_levels_embed_in_a_single_pass(self, rng):
        # the doubling loop, a block at a time in Gray-code order, against one
        # kernel call on the whole net in natural order
        n, log2_points = 5, 12
        chol = np.linalg.cholesky(_random_pd(rng, n).entries)
        b = rng.uniform(-1, 1, n)
        tilt, _ = mvn_cdf._minimax_tilt(chol, b)
        assert np.abs(tilt).max() > 0.0
        net = mvn_cdf._scrambled_net(n - 1, log2_points, rng)
        value, err, n_points = mvn_cdf._net_estimate(chol, b, tilt, net, accuracy=1e-12)
        assert n_points == 1 << log2_points
        points = _natural_order_net(net, log2_points)
        # each randomization is still a net: one point in every interval of
        # width 2^-log2_points, in every dimension
        cells = np.sort(points >> (32 - log2_points), axis=-1)
        assert (cells == np.arange(1 << log2_points)).all()
        e_first = float(mvn_cdf.ndtr(b[0] / chol[0, 0] - tilt[0]))
        sums = mvn_cdf._genz_sums(chol, b, e_first, points * 2.0 ** -32, tilt)
        ref_value, ref_err = mvn_cdf._mean_and_error(sums / n_points)
        assert abs(value - ref_value) <= 1e-15
        assert abs(err - ref_err) <= 1e-15

    def test_converged_flag(self, rng):
        easy = cdf(_query([0.3, -0.2, 0.5], [0.0] * 3, np.eye(3) + 0.3))
        assert easy.method == "qmc_genz"
        assert easy.converged is True
        assert easy.err_estimate <= 1e-6
        cov = _random_pd(rng, 5)
        q = MvnQuery(upper=rng.uniform(-1, 1, 5), mean=np.zeros(5), cov=cov,
                     accuracy=1e-9, max_samples=12 * 4096)
        starved = cdf(q, seed=0)
        assert starved.n_points == 4096
        assert starved.converged is False
        assert starved.err_estimate > 1e-9

    def test_exact_paths_report_no_lattice(self):
        est = cdf(_query([0.0, 0.0], [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]))
        assert (est.n_points, est.converged) == (0, True)


class TestSobolNet:
    @pytest.mark.parametrize("dim, m", [(1, 17), (2, 17), (7, 17), (40, 14), (1024, 10)])
    def test_unscrambled_net_is_scipys(self, dim, m):
        # scipy walks the net in Gray-code order: its point i is the
        # natural-order point i ^ (i >> 1); 2^17 points use every direction
        # integer of a capped call
        columns = mvn_cdf._sobol_columns(dim)
        i = np.arange(1 << m)
        gray = i ^ (i >> 1)
        points = np.zeros((1 << m, dim), dtype=np.uint32)
        for j in range(m):
            points ^= np.where((gray[:, None] >> j) & 1 == 1, columns[:, j], np.uint32(0))
        expected = qmc.Sobol(dim, scramble=False, bits=32).random(1 << m)
        assert np.array_equal(points * 2.0 ** -32, expected)

    def test_the_table_ends_at_1024_dimensions(self):
        rng = np.random.default_rng(0)
        base, generators = mvn_cdf._scrambled_net(1024, 11, rng)
        assert base.shape == (1024, 12, 512) and generators.shape == (1024, 12, 2)
        with pytest.raises(ValueError, match="ends at 1024 dimensions"):
            mvn_cdf._scrambled_net(1025, 11, rng)

    def test_a_qmc_call_leaves_scipy_stats_unloaded(self):
        # scipy.stats adds about 0.7 s and 40 MB to a fresh import
        code = ("import sys, numpy as np, phiprod; from phiprod.mvn_cdf import cdf; "
                "q = phiprod.MvnQuery(np.zeros(8), np.zeros(8), "
                "phiprod.PdMatrix.from_entries(8, np.eye(8) + 0.5)); "
                "print(cdf(q).method, 'scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.split() == ["qmc_genz", "False"]

    def test_a_call_at_the_cap_holds_little_memory(self, rng):
        # the kernel takes 256 points per net (_KERNEL_POINTS) at a time, so
        # a call that runs to the default cap of 2^17 points stays small; the
        # first call of a process loads the Sobol' table
        n = 8
        cdf(_query([0.0] * 3, [0.0] * 3, np.eye(3)))
        q = MvnQuery(rng.uniform(-1, 1, n), np.zeros(n), _random_pd(rng, n), accuracy=1e-12)
        tracemalloc.start()
        try:
            est = cdf(q, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_points == 1 << 17
        assert peak < 4 * 2 ** 20


class TestVariableOrder:
    def test_permuting_the_variables_permutes_the_order(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            upper = rng.uniform(-1.5, 1.5, n)
            if n > 3:
                upper[int(rng.integers(0, n))] = math.inf
            mean = rng.uniform(-1.0, 1.0, n)
            cov = _random_pd(rng, n)
            perm = rng.permutation(n)
            est = cdf(MvnQuery(upper=upper, mean=mean, cov=cov, accuracy=1e-5), seed=4)
            permuted = cdf(MvnQuery(
                upper=upper[perm], mean=mean[perm], accuracy=1e-5,
                cov=PdMatrix.from_entries(n, cov.entries[np.ix_(perm, perm)])), seed=4)
            assert sorted(est.order) == np.flatnonzero(np.isfinite(upper)).tolist()
            assert [int(perm[k]) for k in permuted.order] == list(est.order)
            assert abs(permuted.value - est.value) <= 1e-15
            assert abs(permuted.err_estimate - est.err_estimate) <= 1e-15
            assert permuted.n_points == est.n_points

    def test_conditional_order_differs_from_marginal_order(self):
        # Marginal masses Phi(0) < Phi(0.1) < Phi(0.5) give the order (0, 1, 2).
        # Given Z_0 at its truncated mean E[Z | Z < 0] = -0.798, variable 1
        # (correlation 0.9 with 0) has limit (0.1 + 0.9 * 0.798) / sqrt(0.19)
        # = 1.88, above the 0.5 of the independent variable 2, so Genz-Bretz
        # conditions on 2 before 1.
        cov = [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]]
        est = cdf(_query([0.0, 0.1, 0.5], [0.0] * 3, cov))
        assert est.method == "qmc_genz"
        assert est.order == (0, 2, 1)
        exact = scalar_cdf(0.5) * bivariate_cdf(0.0, 0.1, 0.9)
        assert abs(est.value - exact) <= 1e-6 + est.err_estimate

    def test_exact_paths_report_no_order(self):
        assert cdf(_query([0.3], [0.0], [[1.0]])).order == ()
        assert cdf(_query([0.3, math.inf, 0.1], [0.0] * 3, np.eye(3))).order == ()

    def test_near_singular_pivot_raises_as_the_reordered_cholesky_does(self):
        # variable 2 repeats variable 0 up to a variance of 1e-13; 0 is
        # conditioned on first (smallest limit), and then 2 has a conditional
        # variance below the threshold 3 * 1e-12 * max diag at step 1
        cov = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0 + 1e-13]])
        with pytest.raises(NotPositiveDefiniteError) as fused:
            mvn_cdf._prioritized_cholesky(np.array([-1.0, 0.0, 2.0]), cov)
        with pytest.raises(NotPositiveDefiniteError) as plain:
            _cholesky_lower(cov[np.ix_([0, 2, 1], [0, 2, 1])])
        assert fused.value.pivot_index == plain.value.pivot_index == 1
        assert fused.value.threshold == plain.value.threshold == 3e-12 * (1.0 + 1e-13)
        assert fused.value.pivot == pytest.approx(plain.value.pivot, abs=1e-15)
        assert fused.value.pivot <= fused.value.threshold

    def test_error_bars_stay_honest(self):
        # 200 calls at accuracy 1e-4 against scipy's Genz code at abseps 1e-8,
        # stored in tests/data by make_honesty_reference.py; honest 3-SE bars
        # give a mean |value - ref| / err_estimate near 0.27. The stored
        # reference must stay tighter than the tilted error bars it judges
        # (some are 1e-8). A live call at abseps 1e-6 is not (it is off the
        # stored values by up to 1.5e-6); it guards them against staleness.
        stored = json.loads(HONESTY_REFERENCE.read_text())
        assert len(stored) == 200
        queries = []
        for (i, upper, mean, cov), ref in zip(honesty_queries(), stored):
            live = multivariate_normal(mean=mean, cov=cov, abseps=1e-6, releps=0.0,
                                       seed=i).cdf(upper)
            assert abs(live - ref) <= 2e-6
            queries.append((MvnQuery(upper=upper, mean=mean, cov=PdMatrix.from_entries(
                upper.size, cov), accuracy=1e-4), ref))
        ratios, _ = bar_ratios(queries)
        assert np.mean(ratios) <= 0.45
        assert sum(r > 1.0 for r in ratios) <= 10

    def test_error_bars_are_honest_on_the_held_out_set(self):
        # the budget buys one first level per net, so this judges the bar of
        # the smallest level a call evaluates (at accuracy 1e-4 and the
        # default budget, most of the 300 calls stop there too). A 1024-point
        # first level with a 3-SE bar puts 3 calls above 1; a 512-point one
        # with a 3-SE bar puts 7 there and fails
        ratios, _ = bar_ratios(heldout_queries(
            accuracy=1e-4, max_samples=12 * mvn_cdf._MIN_LATTICE))
        assert len(ratios) == 300
        assert ratios.mean() <= 0.38
        assert (ratios > 1.0).sum() <= 4


class TestMinimaxTilt:
    def test_zero_tilt_is_the_plain_kernel(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            chol = np.linalg.cholesky(_random_pd(rng, n).entries)
            b = rng.uniform(-2.0, 2.0, n)
            e_first = float(ndtr(b[0] / chol[0, 0]))
            u = rng.random((n - 1, 12, 256))
            tilted = mvn_cdf._genz_sums(chol, b, e_first, u, np.zeros(n))
            plain = _plain_genz_sums(chol, b, e_first, u)
            assert np.array_equal(tilted, plain)

    def test_tilted_and_plain_estimates_agree(self, rng):
        # the estimator is unbiased for any tilt: the minimax-tilted and the
        # plain integrand estimate the same probability, within their bars
        for i in range(50):
            n = int(rng.integers(3, 9))
            if i % 2:
                b, cov = _random_orthant(rng, n, scale=2.5)
            else:
                b = rng.uniform(-2.5, 1.5, n)
                cov = np.diag(rng.uniform(0.3, 2.0, n) ** 2) + _random_pd(rng, n).entries
            _, b, chol = mvn_cdf._prioritized_cholesky(b, cov)
            tilt, psi = mvn_cdf._minimax_tilt(chol, b)
            assert math.isfinite(psi)
            net = mvn_cdf._scrambled_net(n - 1, 17, np.random.default_rng(i))
            tilted, tilted_err, _ = mvn_cdf._net_estimate(chol, b, tilt, net, 1e-5)
            plain, plain_err, _ = mvn_cdf._net_estimate(chol, b, np.zeros(n), net, 1e-5)
            assert abs(tilted - plain) <= tilted_err + plain_err

    def test_tail_orthant_keeps_its_relative_error(self):
        # the rho = 0.5, N = 5 orthant at b = -4 has the one-factor truth
        # int phi(w) Phi((b - sqrt(rho) w) / sqrt(1 - rho))^5 dw; the plain
        # integrand was off by up to 3.7% here while reporting "converged"
        rho, n, b = 0.5, 5, -4.0
        root, scale = math.sqrt(rho), math.sqrt(1.0 - rho)

        def integrand(w):
            return math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * \
                scalar_cdf((b - root * w) / scale) ** n

        edge = abs(b) / root
        truth = sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12,
                                   limit=200)[0]
                    for lo, hi in ((-math.inf, -edge), (-edge, edge), (edge, math.inf)))
        assert truth == pytest.approx(2.285097e-9, rel=1e-6)
        q = _query([b] * n, [0.0] * n, (1.0 - rho) * np.eye(n) + rho, accuracy=1e-6)
        for seed in range(5):
            est = cdf(q, seed=seed)
            assert est.tilted is True
            assert abs(est.value - truth) <= 1e-3 * truth
            assert abs(est.value - truth) <= est.err_estimate

    @pytest.mark.parametrize("n", [3, 10, 20, 40])
    def test_solve_converges_on_orthants(self, rng, n):
        upper, cov = _random_orthant(rng, n)
        _, b, chol = mvn_cdf._prioritized_cholesky(upper, cov)
        tilt, psi = mvn_cdf._minimax_tilt(chol, b)
        assert math.isfinite(psi)
        assert tilt[-1] == 0.0 and np.abs(tilt).max() > 0.0

    def test_failed_solve_falls_back_to_the_plain_integrand(self, monkeypatch):
        q = _query([-2.0] * 4, [0.0] * 4, np.eye(4) + 0.5)
        tilted = cdf(q, seed=1)
        monkeypatch.setattr(mvn_cdf, "_TILT_CROSSOVER", 1e300)  # never tilt
        plain = cdf(q, seed=1)
        monkeypatch.undo()
        monkeypatch.setattr(mvn_cdf, "_TILT_NEWTON_STEPS", 1)  # cannot converge
        fallback = cdf(q, seed=1)
        assert tilted.tilted is True and plain.tilted is False
        assert fallback == plain
        assert abs(tilted.value - plain.value) <= tilted.err_estimate + plain.err_estimate

    @given(st.integers(3, 40), st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_extreme_orthants(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        upper, cov = _random_orthant(rng, n, scale)
        _, b, chol = mvn_cdf._prioritized_cholesky(upper, cov)
        tilt, psi = mvn_cdf._minimax_tilt(chol, b)
        # the solve converges (exp(psi*) bounds the probability) or falls
        # back to the plain integrand
        assert (math.isfinite(psi) and np.isfinite(tilt).all() and tilt[-1] == 0.0
                or (psi == math.inf and not tilt.any()))
        q = MvnQuery(upper=upper, mean=np.zeros(n), cov=PdMatrix.from_entries(n, cov),
                     accuracy=1e-4)
        est = cdf(q, seed=seed)
        assert est.method == "qmc_genz"
        assert est.tilted == (psi <= math.log(1e-4 / mvn_cdf._TILT_CROSSOVER))
        assert 0.0 <= est.value <= 1.0
        assert est.value <= min(math.exp(psi), 1.0) + est.err_estimate
        assert cdf(q, seed=seed) == est


# a deep tail under strong negative correlation: its true value is about
# 9.14e-52 (three 30-digit nested quadratures agree to 7e-4 relative), and
# the minimax-tilted sums are inf * 0 at every lattice point
DEEP_TAIL_UPPER = [-1.07, -2.58, -2.66]
DEEP_TAIL_COV = [[1.0, -0.485, -0.699], [-0.485, 1.0, -0.183], [-0.699, -0.183, 1.0]]


@st.composite
def _general_correlation_queries(draw):
    """(upper, correlation matrix) at N = 3..8: A A^T plus a small jitter,
    normalized, with A of 1..N columns, so the correlations are strong and of
    either sign; limits uniform in [-4, 3]."""
    n = draw(st.integers(3, 8))
    rank = draw(st.integers(1, n))
    jitter = draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, rank))
    s = a @ a.T + jitter * np.eye(n)
    d = 1.0 / np.sqrt(np.diagonal(s))
    return rng.uniform(-4.0, 3.0, n).tolist(), (s * np.outer(d, d)).tolist()


class TestGeneralCorrelation:
    _CAP = 4096

    @given(_general_correlation_queries(), st.integers(0, 2**32 - 1))
    @example((DEEP_TAIL_UPPER, DEEP_TAIL_COV), 0)
    @settings(max_examples=100, deadline=None)
    def test_estimates_are_finite_and_honest_at_the_cap(self, query, seed):
        upper, cov = query
        n = len(upper)
        q = MvnQuery(upper, np.zeros(n), PdMatrix.from_entries(n, cov), accuracy=1e-6,
                     max_samples=12 * self._CAP)
        est = cdf(q, seed=seed)
        assert math.isfinite(est.value) and math.isfinite(est.err_estimate)
        assert 0.0 <= est.value <= 1.0
        assert est.converged == (est.err_estimate <= 1e-6)
        assert est.converged or est.n_points == self._CAP

    def test_deep_tail_falls_back_to_the_plain_integrand(self):
        q = MvnQuery(DEEP_TAIL_UPPER, np.zeros(3), PdMatrix.from_entries(3, DEEP_TAIL_COV))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the failed tilted pass stays silent
            est = cdf(q, seed=0)
        assert 0.0 <= est.value <= 1e-50
        assert est.converged and not est.tilted
        assert est.n_points == mvn_cdf._MIN_LATTICE


class TestSeedRule:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**63 - 1, 2**63 + 11, -3])
    def test_one_stream_per_seed_and_sub_stream(self, seed):
        # every stochastic path draws through _rng; its streams are those the
        # library drew before, default_rng(seed mod 2^63) and, with a
        # sub-stream k, default_rng([seed mod 2^63, k])
        plain = np.random.default_rng(seed % (1 << 63)).random(4)
        assert np.array_equal(mvn_cdf._rng(seed).random(4), plain)
        sub = np.random.default_rng([seed % (1 << 63), 3]).random(4)
        assert np.array_equal(mvn_cdf._rng(seed, 3).random(4), sub)


class TestQueryValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _query([0.0, 0.0], [0.0], np.eye(2))

    def test_rejects_negative_infinity_upper(self):
        with pytest.raises(ValueError):
            _query([-math.inf, 0.0], [0.0, 0.0], np.eye(2))

    def test_rejects_nan_mean(self):
        with pytest.raises(ValueError):
            _query([0.0], [math.nan], [[1.0]])

    @pytest.mark.parametrize("field, values, message", [
        ("upper", [0.0, math.nan], r"upper entries must be finite or \+inf"),
        ("upper", [[0.0], [0.0]], r"upper/mean must have shape \(2,\)"),
        ("mean", [0.0, math.inf], "mean entries must be finite"),
        ("mean", [-math.inf, 0.0], "mean entries must be finite"),
        ("mu", [math.nan, 0.0], "mu entries must be finite"),
        ("mu", [0.0, -math.inf], "mu entries must be finite")])
    def test_boundary_rejects_non_finite_and_misshapen_entries(self, field, values,
                                                               message):
        two = PdMatrix.from_entries(2, np.eye(2))
        fields = {"upper": [0.0, 0.0], "mean": [0.0, 0.0], field: values}
        with pytest.raises(ValueError, match=message):
            if field == "mu":
                ProbitBernoulli(values, two)
            else:
                MvnQuery(fields["upper"], fields["mean"], two)

    @pytest.mark.parametrize("accuracy", [0.0, -1e-3, 0.2])
    def test_accuracy_domain(self, accuracy):
        with pytest.raises(ValueError):
            _query([0.0], [0.0], [[1.0]], accuracy=accuracy)

    @pytest.mark.parametrize("accuracy", [0.0, 0.2, math.nan])
    @pytest.mark.parametrize("entry", ["MvnQuery", "pmf", "cdf_product_scalar",
                                       "cdf_product_vector", "run_suites"])
    def test_every_entry_point_checks_accuracy(self, entry, accuracy):
        one = PdMatrix.from_entries(1, [[1.0]])
        calls = {
            "MvnQuery": lambda: MvnQuery([0.0], [0.0], one, accuracy=accuracy),
            "pmf": lambda: ProbitBernoulli([0.0], one).pmf(SignVector((1,)), accuracy),
            "cdf_product_scalar": lambda: cdf_product_scalar(
                ScalarMixParams(0.0, 1.0, [0.0, 0.1], [1.0, 1.0]), accuracy),
            "cdf_product_vector": lambda: cdf_product_vector(
                VectorMixParams([0.0], one, [0.0], [1.0]), accuracy),
            "run_suites": lambda: run_suites(["scalar"], trials=1, accuracy=accuracy),
        }
        with pytest.raises(ValueError, match=r"accuracy must be in \(0, 0\.1\]"):
            calls[entry]()

    @pytest.mark.parametrize("entry, field", [
        ("MvnQuery", "upper"), ("MvnQuery", "mean"), ("ProbitBernoulli", "mu"),
        ("ScalarMixParams", "m"), ("ScalarMixParams", "v"), ("VectorMixParams", "mu"),
        ("VectorMixParams", "m"), ("VectorMixParams", "v"), ("PrecisionBlocks", "b"),
        ("PrecisionBlocks", "d_diag")])
    def test_constructors_leave_the_callers_array_writeable(self, entry, field):
        arrays = {name: np.array([0.5, 0.7])
                  for name in ("upper", "mean", "mu", "m", "v", "b", "d_diag")}
        two = PdMatrix.from_entries(2, np.eye(2))
        build = {
            "MvnQuery": lambda: MvnQuery(arrays["upper"], arrays["mean"], two),
            "ProbitBernoulli": lambda: ProbitBernoulli(arrays["mu"], two),
            "ScalarMixParams": lambda: ScalarMixParams(0.0, 1.0, arrays["m"], arrays["v"]),
            "VectorMixParams": lambda: VectorMixParams(arrays["mu"], two, arrays["m"],
                                                       arrays["v"]),
            "PrecisionBlocks": lambda: PrecisionBlocks(2.0, arrays["b"], arrays["d_diag"]),
        }
        held = getattr(build[entry](), field)
        theirs = arrays[field]
        assert theirs.flags.writeable
        theirs[0] = 9.0
        assert held.tolist() == [0.5, 0.7]
        assert not held.flags.writeable

    @pytest.mark.parametrize("max_samples", [1e6, 4096.0, "4096", None])
    def test_max_samples_must_be_an_integer(self, max_samples):
        with pytest.raises(ValueError, match="max_samples must be an integer"):
            MvnQuery([0.0] * 3, [0.0] * 3, PdMatrix.from_entries(3, np.eye(3)),
                     max_samples=max_samples)

    def test_max_samples_is_stored_as_an_int(self):
        q = MvnQuery([0.0] * 3, [0.0] * 3, PdMatrix.from_entries(3, np.eye(3)),
                     max_samples=np.int64(12 * 4096))
        assert type(q.max_samples) is int
        assert cdf(q, seed=0).n_points <= 4096

    def test_estimate_within_unit_interval(self, rng):
        for _ in range(10):
            cov = _random_pd(rng, 3)
            q = MvnQuery(upper=rng.uniform(-3, 3, 3), mean=np.zeros(3), cov=cov,
                         accuracy=1e-4)
            est = cdf(q, seed=2)
            assert 0.0 <= est.value <= 1.0
            assert est.err_estimate >= 0.0
