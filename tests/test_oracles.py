import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from phiprod import oracles
from phiprod.identities import ScalarMixParams, VectorMixParams
from phiprod.mvn_cdf import MvnQuery, bivariate_cdf
from phiprod.pd_matrix import PdMatrix
from phiprod.verify import _random_pd


class TestGaussHermiteNodes:
    @pytest.mark.parametrize("order", [20, 64, 150, 301])
    def test_matches_numpy(self, order):
        x, w = oracles.gauss_hermite_nodes(order)
        xr, wr = np.polynomial.hermite.hermgauss(order)
        assert np.max(np.abs(x - xr)) <= 1e-13
        assert np.max(np.abs(w - wr)) <= 1e-14

    @pytest.mark.parametrize("order", [20, 100, 200, 400])
    def test_weights_sum_to_sqrt_pi(self, order):
        _, w = oracles.gauss_hermite_nodes(order)
        assert float(w.sum()) == pytest.approx(math.sqrt(math.pi), abs=1e-13)

    def test_polynomial_exactness(self):
        # order n integrates monomials up to degree 2n-1 against exp(-t^2);
        # odd moments vanish, even moment 2k is gamma(k + 1/2)
        x, w = oracles.gauss_hermite_nodes(20)
        for k in range(0, 20):
            moment = float(w @ x**(2 * k))
            assert moment == pytest.approx(math.gamma(k + 0.5), rel=1e-12)
        assert abs(float(w @ x**7)) <= 1e-12

    def test_order_domain(self):
        with pytest.raises(ValueError):
            oracles.gauss_hermite_nodes(0)


class TestScalarQuadratureOracle:
    def test_median_case(self):
        params = ScalarMixParams(mu=0.7, sigma2=1.3, m=[0.7], v=[0.9])
        assert oracles.cdf_product_scalar_quad(params, order=60) == pytest.approx(
            0.5, abs=1e-10)

    def test_saturated_factors(self):
        params = ScalarMixParams(mu=0.0, sigma2=1.0, m=[-50.0, -50.0], v=[1.0, 1.0])
        assert oracles.cdf_product_scalar_quad(params, order=100) == pytest.approx(
            1.0, abs=1e-12)

    def test_order_doubling_certificate(self, rng):
        # the steepest admissible factors (v = 0.3 under sigma = 2) need
        # order ~200 before doubling gaps fall below 1e-5; smooth draws
        # converge far earlier
        for _ in range(10):
            n = int(rng.integers(1, 6))
            params = ScalarMixParams(
                mu=float(rng.uniform(-2, 2)),
                sigma2=float(rng.uniform(0.3, 2.0)) ** 2,
                m=rng.uniform(-2, 2, size=n),
                v=rng.uniform(0.3, 2.0, size=n),
            )
            q200 = oracles.cdf_product_scalar_quad(params, order=200)
            q400 = oracles.cdf_product_scalar_quad(params, order=400)
            assert abs(q400 - q200) <= 1e-5

    def test_order_doubling_tightens_for_smooth_factors(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            params = ScalarMixParams(
                mu=float(rng.uniform(-1, 1)),
                sigma2=float(rng.uniform(0.5, 1.0)),
                m=rng.uniform(-1, 1, size=n),
                v=rng.uniform(0.8, 2.0, size=n),
            )
            q100 = oracles.cdf_product_scalar_quad(params, order=100)
            q200 = oracles.cdf_product_scalar_quad(params, order=200)
            assert abs(q200 - q100) <= 1e-9

    @pytest.mark.parametrize("order", [10, 500])
    def test_order_bounds(self, order):
        params = ScalarMixParams(mu=0.0, sigma2=1.0, m=[0.0], v=[1.0])
        with pytest.raises(ValueError):
            oracles.cdf_product_scalar_quad(params, order=order)


class TestVectorMonteCarloOracle:
    def test_diagonal_median_case(self):
        params = VectorMixParams(
            mu=[0.2, -0.3], sigma=PdMatrix.from_entries(2, np.diag([1.1, 0.6])),
            m=[0.2, -0.3], v=[0.8, 1.9])
        est, se = oracles.cdf_product_vector_mc(params, draws=200_000, seed=0)
        assert abs(est - 0.25) <= 3.0 * se

    def test_single_factor_matches_quadrature(self, rng):
        mu = float(rng.uniform(-1, 1))
        s2 = float(rng.uniform(0.3, 2.0)) ** 2
        m = float(rng.uniform(-1, 1))
        v = float(rng.uniform(0.3, 2.0))
        vec = VectorMixParams([mu], PdMatrix.from_entries(1, [[s2]]), [m], [v])
        est, se = oracles.cdf_product_vector_mc(vec, draws=500_000, seed=1)
        ref, _ = oracles.cdf_product_scalar_adaptive(ScalarMixParams(mu, s2, [m], [v]))
        assert abs(est - ref) <= 3.0 * se

    def test_deterministic(self, rng):
        params = VectorMixParams(mu=rng.uniform(-1, 1, 3), sigma=_random_pd(rng, 3),
                                 m=rng.uniform(-1, 1, 3), v=rng.uniform(0.3, 2, 3))
        assert (oracles.cdf_product_vector_mc(params, draws=50_000, seed=9)
                == oracles.cdf_product_vector_mc(params, draws=50_000, seed=9))

    def test_two_seed_consistency(self, rng):
        # estimates from disjoint streams should agree within pooled error
        for i in range(20):
            n = int(rng.integers(1, 5))
            params = VectorMixParams(mu=rng.uniform(-1, 1, n), sigma=_random_pd(rng, n),
                                     m=rng.uniform(-1, 1, n), v=rng.uniform(0.3, 2, n))
            a, sa = oracles.cdf_product_vector_mc(params, draws=100_000, seed=2 * i)
            b, sb = oracles.cdf_product_vector_mc(params, draws=100_000, seed=2 * i + 1)
            assert abs(a - b) <= 6.0 * math.sqrt(sa * sa + sb * sb)

    def test_matches_the_row_major_loop(self, rng):
        # reference: x = mu + z L^T row by row, the product over each row,
        # 2^19 draws per chunk. Same draws; only the rounding of the
        # standardization and of the sums differs.
        def row_major(params, draws, seed):
            gen = np.random.default_rng(seed)
            total = total_sq = 0.0
            remaining = draws
            while remaining > 0:
                block = min(remaining, 1 << 19)
                x = params.mu + gen.standard_normal((block, params.n)) @ params.sigma.chol.T
                t = np.prod(ndtr((x - params.m) / params.v), axis=1)
                total += float(t.sum())
                total_sq += float((t * t).sum())
                remaining -= block
            mean = total / draws
            var = max(total_sq / draws - mean * mean, 0.0) * draws / (draws - 1)
            return mean, math.sqrt(var / draws)

        for i in range(8):
            n = i % 4 + 1
            params = VectorMixParams(mu=rng.uniform(-2, 2, n), sigma=_random_pd(rng, n),
                                     m=rng.uniform(-2, 2, n), v=rng.uniform(0.3, 2, n))
            est, se = oracles.cdf_product_vector_mc(params, draws=300_000, seed=i)
            ref, ref_se = row_major(params, 300_000, i)
            assert abs(est - ref) <= 1e-15
            assert abs(se - ref_se) <= 1e-15

    def test_draw_minimum(self, rng):
        params = VectorMixParams(mu=[0.0], sigma=PdMatrix.from_entries(1, [[1.0]]),
                                 m=[0.0], v=[1.0])
        with pytest.raises(ValueError):
            oracles.cdf_product_vector_mc(params, draws=100)

    def test_draws_must_be_an_integer(self):
        params = VectorMixParams(mu=[0.0], sigma=PdMatrix.from_entries(1, [[1.0]]),
                                 m=[0.0], v=[1.0])
        with pytest.raises(ValueError, match="draws must be an integer"):
            oracles.cdf_product_vector_mc(params, draws=1e6)


# ROADMAP item 1's deep-tail query, whose probability is about 9.1e-52: no
# Monte Carlo draw lands in it
_TAIL_UPPER = [-1.07, -2.58, -2.66]
_TAIL_COV = [[1.0, -0.485, -0.699], [-0.485, 1.0, -0.183], [-0.699, -0.183, 1.0]]


class TestZeroVarianceSample:
    """A sample with no variance reports 1 / draws, so that 3 SE is the
    rule-of-three bound 3 / draws and not a bar of 0."""

    def test_vector_oracle_with_every_product_zero(self):
        params = VectorMixParams(mu=_TAIL_UPPER, sigma=PdMatrix.from_entries(3, _TAIL_COV),
                                 m=[0.0, 0.0, 0.0], v=[0.01, 0.01, 0.01])
        assert oracles.cdf_product_vector_mc(params, draws=20_000, seed=0) == (
            0.0, 1.0 / 20_000)

    def test_mvn_oracle_with_every_draw_outside(self):
        q = MvnQuery(upper=_TAIL_UPPER, mean=[0.0, 0.0, 0.0],
                     cov=PdMatrix.from_entries(3, _TAIL_COV))
        assert oracles.mvn_mc(q, draws=100_000, seed=0) == (0.0, 1e-5)

    def test_mvn_oracle_with_every_draw_inside(self):
        q = MvnQuery(upper=[40.0, 40.0], mean=[0.0, 0.0],
                     cov=PdMatrix.from_entries(2, [[1.0, 0.5], [0.5, 1.0]]))
        assert oracles.mvn_mc(q, draws=10_000, seed=1) == (1.0, 1e-4)


class TestMonteCarloVerdict:
    def test_combines_the_two_standard_errors(self):
        # a 3-SE bar of 1.2 is one SE of 0.4; with an MC SE of 0.3 the
        # combined SE is 0.5, and the verdict allows three of them
        assert oracles.mc_threshold(0.3, 1.2) == pytest.approx(1.5, rel=1e-14)
        assert oracles.mc_threshold(0.0, 0.0) == 0.0


class TestMvnMonteCarloOracle:
    def test_univariate(self):
        from phiprod.gauss_scalar import cdf as scalar_cdf
        q = MvnQuery(upper=[0.8], mean=[0.0], cov=PdMatrix.from_entries(1, [[1.0]]))
        est, se = oracles.mvn_mc(q, draws=400_000, seed=3)
        assert abs(est - scalar_cdf(0.8)) <= 3.0 * se

    def test_half_correlation_orthant(self):
        q = MvnQuery(upper=[0.0, 0.0], mean=[0.0, 0.0],
                     cov=PdMatrix.from_entries(2, [[1.0, 0.5], [0.5, 1.0]]))
        est, se = oracles.mvn_mc(q, draws=1_000_000, seed=4)
        assert abs(est - 1.0 / 3.0) <= 3.0 * se

    def test_infinite_upper_handled(self):
        q = MvnQuery(upper=[math.inf, 0.0], mean=[0.0, 0.0],
                     cov=PdMatrix.from_entries(2, np.eye(2)))
        est, se = oracles.mvn_mc(q, draws=100_000, seed=5)
        assert abs(est - 0.5) <= 3.0 * se

    def test_draws_must_be_an_integer(self):
        q = MvnQuery(upper=[0.8], mean=[0.0], cov=PdMatrix.from_entries(1, [[1.0]]))
        with pytest.raises(ValueError, match="draws must be an integer"):
            oracles.mvn_mc(q, draws=1e6)

    def test_standard_normal_stream_distribution(self):
        # sanity of the generator feeding every MC oracle
        draws = np.random.default_rng(123).standard_normal(100_000)
        assert kstest(draws, "norm").pvalue > 1e-6


class TestAdaptiveQuadrature:
    def test_constant(self):
        assert oracles.adaptive_quad_1d(lambda x: 1.0, 0.0, 1.0, 1e-12) == 1.0

    @pytest.mark.parametrize("a", [0.4, 1.0, 3.0])
    def test_arctan_antiderivative(self, a):
        got = oracles.adaptive_quad_1d(
            lambda x: 1.0 / (1.0 + x * x) / (2.0 * math.pi), 0.0, a, 1e-13)
        assert got == pytest.approx(math.atan(a) / (2.0 * math.pi), abs=1e-12)

    def test_orientation(self):
        forward = oracles.adaptive_quad_1d(math.exp, 0.0, 1.0, 1e-12)
        assert oracles.adaptive_quad_1d(math.exp, 1.0, 0.0, 1e-12) == -forward
        assert forward == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_owen_integrand_reference(self):
        got = oracles.adaptive_quad_1d(oracles.owen_t_integrand(0.5), 0.0, 0.8, 1e-13)
        from phiprod.gauss_scalar import owen_t
        assert got == pytest.approx(owen_t(0.5, 0.8), abs=1e-11)

    @pytest.mark.parametrize("a, b, sign", [(0.0, 1.0, 1.0), (1.0, 0.0, -1.0)],
                             ids=["forward", "reversed"])
    def test_depth_exhaustion_carries_partial(self, a, b, sign):
        jump = 1.0 / math.sqrt(2.0)

        def f(x: float) -> float:
            return 0.0 if x < jump else 1.0

        with pytest.raises(oracles.QuadratureDepthError) as info:
            oracles.adaptive_quad_1d(f, a, b, 1e-13)
        assert abs(info.value.partial - sign * (1.0 - jump)) <= 1e-3

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            oracles.adaptive_quad_1d(lambda x: x, 0.0, 1.0, 1e-14)


class TestKronrodPanel:
    def test_gauss_nodes_match_numpy(self):
        # the odd-indexed Kronrod abscissae and the centre are the G7 nodes
        x = np.asarray(oracles._KRONROD_X[1::2] + (0.0,))
        w = np.asarray(oracles._GAUSS_W)
        xr, wr = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(np.concatenate([-x, x[-2::-1]]) - xr)) <= 1e-15
        assert np.max(np.abs(np.concatenate([w, w[-2::-1]]) - wr)) <= 1e-15

    @pytest.mark.parametrize("k", range(23))
    def test_kronrod_is_exact_to_degree_22(self, k):
        value, _ = oracles._kronrod_panel(lambda x: x**k, -1.0, 1.0)
        assert abs(value - (0.0 if k % 2 else 2.0 / (k + 1))) <= 1e-15

    def test_owen_grid_evaluation_budget(self):
        # verify's owen_t_vs_quadrature grid; adaptive Simpson averaged 879
        hs = np.linspace(-3.0, 3.0, 50)
        evaluations = 0

        for h in hs:
            integrand = oracles.owen_t_integrand(h)

            def counted(x, integrand=integrand):
                nonlocal evaluations
                evaluations += 1
                return integrand(x)

            for a in hs:
                oracles.adaptive_quad_1d(counted, 0.0, a, 1e-13)
        assert evaluations / hs.size**2 <= 150


class TestBivariateQuadratureOracle:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.75, 0.9, 0.95, 0.99,
                                     -0.5, -0.75, -0.9, -0.95, -0.99])
    def test_matches_owen_t_route(self, rho):
        grid = np.linspace(-3.0, 3.0, 13)
        worst = max(abs(oracles.bivariate_cdf_quad(h, k, rho) - bivariate_cdf(h, k, rho))
                    for h in grid for k in grid)
        assert worst <= 1e-10

    def test_depth_exhaustion_carries_every_piece(self, monkeypatch):
        # one panel per piece: the pieces that fail and the ones that pass
        # must all be in the partial sum
        monkeypatch.setattr(oracles, "_MAX_QUAD_DEPTH", 0)
        h, k, rho = 0.5, 0.3, 0.5
        with pytest.raises(oracles.QuadratureDepthError) as info:
            oracles.bivariate_cdf_quad(h, k, rho)
        assert abs(info.value.partial - bivariate_cdf(h, k, rho)) <= 1e-9

    @pytest.mark.parametrize("h", [35.0, 50.0, 1e3])
    def test_large_h_keeps_the_mass_of_phi(self, h):
        # a range of [h - 40, h] held no mass past h = 40: at h = 50 the
        # oracle returned 1.3e-31 for 0.618, and at h = 35 it was off by 2.9e-7
        gap = abs(oracles.bivariate_cdf_quad(h, 0.3, 0.5) - bivariate_cdf(h, 0.3, 0.5))
        assert gap <= 1e-12

    def test_narrow_mass_near_the_upper_limit(self):
        # the integrand falls from 6e-12 at h to 7e-14 at the Kronrod node
        # nearest h of one panel on [h - 40, h], which then passed its test
        h, k, rho = -1.9713, 0.1545, -0.9617
        gap = abs(oracles.bivariate_cdf_quad(h, k, rho) - bivariate_cdf(h, k, rho))
        assert gap <= 1e-13
