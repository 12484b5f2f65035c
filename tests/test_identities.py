import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from phiprod import identities, oracles
from phiprod.identities import (
    ScalarMixParams,
    VectorMixParams,
    cdf_product_scalar,
    cdf_product_vector,
    scalar_mix_query,
    shared_noise_cov,
)
from phiprod.mvn_cdf import MvnQuery
from phiprod.mvn_cdf import cdf as mvn_cdf
from phiprod.pd_matrix import PdMatrix
from phiprod.verify import _random_pd, run_suites


class TestSharedNoiseCov:
    def test_unit_example(self):
        cov = shared_noise_cov(1.0, [1.0, 1.0])
        assert np.array_equal(cov.entries, [[2.0, 1.0], [1.0, 2.0]])

    def test_two_variance_example(self):
        cov = shared_noise_cov(2.0, [1.0, 3.0])
        assert np.array_equal(cov.entries, [[3.0, 2.0], [2.0, 11.0]])

    def test_structure_is_exact(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
            v = rng.uniform(0.3, 2.0, size=n)
            built = shared_noise_cov(sigma2, v).entries
            expected = np.diag(v * v) + sigma2 * np.ones((n, n))
            assert np.array_equal(built, expected)

    @pytest.mark.parametrize("sigma2,v", [(0.0, [1.0]), (-0.5, [1.0]), (1.0, [1.0, 0.0])])
    def test_domain(self, sigma2, v):
        with pytest.raises(ValueError):
            shared_noise_cov(sigma2, v)

    def test_integer_sigma2_keeps_the_diagonal(self):
        assert np.array_equal(shared_noise_cov(2, [0.5, 1.5]).entries,
                              [[2.25, 2.0], [2.0, 4.25]])
        params = dict(mu=0.3, m=[-0.2, 0.4], v=[0.5, 1.5])
        assert (cdf_product_scalar(ScalarMixParams(sigma2=2, **params))
                == cdf_product_scalar(ScalarMixParams(sigma2=2.0, **params)))


class TestScalarMix:
    def test_single_factor_median(self):
        params = ScalarMixParams(mu=0.5, sigma2=1.0, m=[0.5], v=[2.0])
        assert cdf_product_scalar(params).value == 0.5

    def test_two_factor_orthant(self):
        # correlation sigma2/(v^2+sigma2) = 1/2: arcsine value 1/3
        params = ScalarMixParams(mu=0.0, sigma2=1.0, m=[0.0, 0.0], v=[1.0, 1.0])
        assert cdf_product_scalar(params).value == pytest.approx(1 / 3, abs=1e-12)

    def test_three_factor_matches_quadrature(self):
        params = ScalarMixParams(mu=0.3, sigma2=0.7,
                                 m=[-0.2, 0.1, 0.5], v=[0.8, 1.2, 1.0])
        est = cdf_product_scalar(params, accuracy=1e-6, seed=1)
        ref = oracles.cdf_product_scalar_adaptive(params)[0]
        assert abs(est.value - ref) <= 1e-6 + est.err_estimate

    def test_random_draws_match_quadrature(self, rng):
        for i in range(25):
            n = int(rng.integers(1, 6))
            params = ScalarMixParams(
                mu=float(rng.uniform(-2, 2)),
                sigma2=float(rng.uniform(0.3, 2.0)) ** 2,
                m=rng.uniform(-2, 2, size=n),
                v=rng.uniform(0.3, 2.0, size=n),
            )
            est = cdf_product_scalar(params, accuracy=1e-5, seed=i)
            ref = oracles.cdf_product_scalar_adaptive(params)[0]
            assert abs(est.value - ref) <= 1e-5 + est.err_estimate

    def test_wide_factor_saturates(self, rng):
        # a factor with huge v contributes ~Phi((mu - m_r)/v_r) ~ const
        for i in range(3):
            n = int(rng.integers(2, 5))
            v = rng.uniform(0.3, 2.0, size=n)
            v[int(rng.integers(0, n))] = 100.0
            params = ScalarMixParams(mu=float(rng.uniform(-2, 2)),
                                     sigma2=float(rng.uniform(0.3, 2.0)) ** 2,
                                     m=rng.uniform(-2, 2, size=n), v=v)
            est = cdf_product_scalar(params, accuracy=1e-5, seed=i)
            ref = oracles.cdf_product_scalar_adaptive(params)[0]
            assert abs(est.value - ref) <= 1e-5 + est.err_estimate

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, sigma2=0.0, m=[0.0], v=[1.0]),
            dict(mu=0.0, sigma2=1.0, m=[0.0], v=[0.0]),
            dict(mu=0.0, sigma2=1.0, m=[0.0], v=[1.0, 1.0]),
            dict(mu=math.nan, sigma2=1.0, m=[0.0], v=[1.0]),
        ],
    )
    def test_domain(self, kwargs):
        with pytest.raises(ValueError):
            ScalarMixParams(**kwargs)


def _one_factor_quad(params: ScalarMixParams) -> tuple[float, float]:
    """E_w prod_r Phi((mu - m_r + s w)/v_r) by adaptive quadrature.

    Each factor rises across w_r = (m_r - mu)/s over a width v_r/s, and
    breakpoints at w_r + {0, +-2, +-8} v_r/s keep quad from stepping over a
    steep rise (with w_r alone it misses one of width 4e-4 by 5e-6).
    Returns quad's (value, abserr); quad may report that roundoff stops it
    short of epsabs = 1e-14, which abserr then says.
    """
    s = math.sqrt(params.sigma2)

    def f(w):
        return math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * float(
            np.prod(ndtr((params.mu - params.m + s * w) / params.v)))

    widths = np.array([-8.0, -2.0, 0.0, 2.0, 8.0])
    points = ((params.m - params.mu) / s)[:, None] + (params.v / s)[:, None] * widths
    return integrate.quad(f, -9.0, 9.0, points=np.unique(np.clip(points, -9.0, 9.0)),
                          epsabs=1e-14, epsrel=0.0, limit=5000, full_output=1)[:2]


def _one_factor_truth(params: ScalarMixParams) -> float:
    return _one_factor_quad(params)[0]


def _extreme_draws():
    """60 draws with v down to 0.01 and N up to 40."""
    rng = np.random.default_rng(20240818)
    for _ in range(60):
        n = int(rng.integers(3, 41))
        yield ScalarMixParams(
            mu=float(rng.uniform(-8.0, 8.0)),
            sigma2=float(rng.uniform(0.1, 3.0)) ** 2,
            m=rng.uniform(-2.0, 2.0, size=n),
            v=np.exp(rng.uniform(math.log(0.01), math.log(2.0), size=n)),
        )


class TestScalarAdaptiveOracle:
    def test_narrow_factor_matches_quad(self):
        # v_r / s = 0.1: Gauss-Hermite at order 200 is off by 3.5e-5 here
        params = ScalarMixParams(mu=0.3, sigma2=1.0, m=[-0.2, 0.1, 0.5],
                                 v=[0.1, 1.2, 1.0])
        value, cert = oracles.cdf_product_scalar_adaptive(params)
        truth, abserr = _one_factor_quad(params)
        assert cert <= 1.1e-13
        assert abs(value - truth) <= cert + abserr

    def test_extreme_draws_match_quad_within_both_certificates(self):
        for params in _extreme_draws():
            value, cert = oracles.cdf_product_scalar_adaptive(params)
            truth, abserr = _one_factor_quad(params)
            assert abs(value - truth) <= cert + abserr

    def test_exact_at_two_factors(self):
        # draw 20 of verify's identity-scalar suite at seed 20240817, where
        # Gauss-Hermite at order 200 is off by 4.23e-7 from the exact value
        params = ScalarMixParams(
            mu=-0.4415665317876436, sigma2=3.3544286089938717,
            m=[-0.582250886754442, -0.6807327633690958],
            v=[0.45408448238932353, 0.3671084866350315])
        exact = mvn_cdf(scalar_mix_query(params, 1e-6))
        assert exact.method == "bivariate_owen"
        value, _ = oracles.cdf_product_scalar_adaptive(params)
        assert abs(value - exact.value) <= 1e-12

    def test_verify_identity_scalar_passes_at_the_release_seed(self):
        # draw 20 failed closed_form_vs_quadrature at accuracy 1e-7 when the
        # reference was Gauss-Hermite at order 200
        results = run_suites(["identity-scalar"], trials=21, seed=20240817,
                             accuracy=1e-7)
        assert [r.name for r in results if not r.passed] == []

    def test_tolerance_floor(self):
        params = ScalarMixParams(mu=0.0, sigma2=1.0, m=[0.0], v=[1.0])
        with pytest.raises(ValueError):
            oracles.cdf_product_scalar_adaptive(params, tol=1e-14)


class TestOneFactorTrapezoid:
    def test_error_bar_is_honest_at_the_extremes(self):
        for params in _extreme_draws():
            truth = _one_factor_truth(params)
            for accuracy in (1e-6, 1e-9):
                est = cdf_product_scalar(params, accuracy=accuracy)
                assert est.method == "one_factor_trapezoid"
                assert est.converged
                assert abs(est.value - truth) <= accuracy + est.err_estimate

    # inputs on which a start step that ignores min_r v_r / s (always 1/2)
    # stops before the steepest factor is resolved, with an error of 1.8x
    # and 2.4x the bound at accuracy 1e-6
    @pytest.mark.parametrize("mu,sigma2,m,v", [
        (1.383940109522651, 2.311968274842565,
         [-1.3269638051769195, -1.8173724609787842, 1.6897879922749435,
          1.7716638760197365],
         [0.01312959217026565, 0.15467298434375232, 0.0022706209262493325,
          0.030341738532852214]),
        (-1.3103844888613954, 2.9642293866651843,
         [-0.32618937125402603, -1.118568732561883, 1.1239158335654058,
          -1.062260916175397, 1.8938168126617043, -0.9002852692960213],
         [0.7527552449803011, 0.05493163456057712, 1.2792533737700402,
          0.015481517221010545, 1.192271351444808, 0.016189384071068458]),
    ])
    def test_start_step_resolves_the_steepest_factor(self, mu, sigma2, m, v):
        params = ScalarMixParams(mu=mu, sigma2=sigma2, m=m, v=v)
        est = cdf_product_scalar(params, accuracy=1e-6)
        assert est.method == "one_factor_trapezoid"
        assert abs(est.value - _one_factor_truth(params)) <= 1e-6 + est.err_estimate

    def test_too_steep_factor_falls_back_to_the_mvn_reduction(self):
        params = ScalarMixParams(mu=0.3, sigma2=1.0, m=[-0.2, 0.1, 0.5],
                                 v=[4e-4, 1.2, 1.0])
        est = cdf_product_scalar(params, accuracy=1e-6, seed=3)
        assert est.method == "qmc_genz"
        assert est == mvn_cdf(scalar_mix_query(params, 1e-6), seed=3)
        assert abs(est.value - _one_factor_truth(params)) <= 1e-6 + est.err_estimate

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_n_keeps_the_exact_paths(self, rng, n):
        for i in range(10):
            params = ScalarMixParams(
                mu=float(rng.uniform(-2, 2)),
                sigma2=float(rng.uniform(0.3, 2.0)) ** 2,
                m=rng.uniform(-2, 2, size=n),
                v=rng.uniform(0.3, 2.0, size=n),
            )
            est = cdf_product_scalar(params, accuracy=1e-6, seed=i)
            assert est == mvn_cdf(scalar_mix_query(params, 1e-6), seed=i)

    def test_repeatable_and_counts_the_nodes_it_evaluates(self, monkeypatch):
        params = ScalarMixParams(mu=0.3, sigma2=0.7, m=[-0.2, 0.1, 0.5, 1.0],
                                 v=[0.8, 1.2, 1.0, 0.5])
        evaluated = []

        def counting_ndtr(x):
            evaluated.append(np.shape(x)[-1])
            return ndtr(x)

        monkeypatch.setattr(identities, "ndtr", counting_ndtr)
        est = cdf_product_scalar(params, accuracy=1e-9, seed=1)
        assert est.method == "one_factor_trapezoid"
        assert est.n_points == sum(evaluated)
        # the start step is 1/2 on [-9, 9]; each halving adds the midpoints
        assert evaluated[:2] == [37, 36]
        again = cdf_product_scalar(params, accuracy=1e-9, seed=2)
        assert again == est

    def test_rejects_accuracy_outside_the_contract(self):
        params = ScalarMixParams(mu=0.0, sigma2=1.0, m=[0.0, 0.1, 0.2],
                                 v=[1.0, 1.0, 1.0])
        for bad in (0.0, 0.2, math.nan):
            with pytest.raises(ValueError):
                cdf_product_scalar(params, accuracy=bad)


class TestVectorMix:
    def test_diagonal_median_product(self):
        params = VectorMixParams(
            mu=[0.4, -0.7],
            sigma=PdMatrix.from_entries(2, [[1.5, 0.0], [0.0, 0.8]]),
            m=[0.4, -0.7],
            v=[0.9, 1.7],
        )
        assert cdf_product_vector(params).value == pytest.approx(0.25, abs=1e-12)

    def test_single_factor_reduces_to_scalar_form(self, rng):
        for _ in range(10):
            mu = float(rng.uniform(-2, 2))
            sigma2 = float(rng.uniform(0.3, 2.0)) ** 2
            m = float(rng.uniform(-2, 2))
            v = float(rng.uniform(0.3, 2.0))
            a = cdf_product_scalar(ScalarMixParams(mu, sigma2, [m], [v]))
            b = cdf_product_vector(VectorMixParams(
                [mu], PdMatrix.from_entries(1, [[sigma2]]), [m], [v]))
            assert a.value == pytest.approx(b.value, abs=1e-14)

    def test_random_draws_match_monte_carlo(self, rng):
        for i in range(10):
            n = int(rng.integers(1, 5))
            params = VectorMixParams(
                mu=rng.uniform(-2, 2, size=n),
                sigma=_random_pd(rng, n),
                m=rng.uniform(-2, 2, size=n),
                v=rng.uniform(0.3, 2.0, size=n),
            )
            est = cdf_product_vector(params, accuracy=1e-5, seed=i)
            mc, se = oracles.cdf_product_vector_mc(params, draws=1_000_000, seed=100 + i)
            combined = math.sqrt(se * se + (est.err_estimate / 3.0) ** 2)
            assert abs(est.value - mc) <= 3.0 * combined

    def test_equals_the_query_built_by_hand(self, rng):
        # the query built by hand runs every MvnQuery and from_entries check;
        # MvnEstimate equality compares every field
        for n in range(1, 7):
            for i in range(3):
                params = VectorMixParams(
                    mu=rng.uniform(-2, 2, size=n),
                    sigma=_random_pd(rng, n),
                    m=rng.uniform(-2, 2, size=n),
                    v=rng.uniform(0.3, 2.0, size=n),
                )
                cov = PdMatrix.from_entries(
                    n, params.sigma.entries + np.diag(params.v * params.v))
                ref = mvn_cdf(MvnQuery(upper=params.mu, mean=params.m, cov=cov,
                                       accuracy=1e-5), seed=i)
                assert cdf_product_vector(params, accuracy=1e-5, seed=i) == ref

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            VectorMixParams(mu=[0.0, 0.0], sigma=PdMatrix.from_entries(1, [[1.0]]),
                            m=[0.0], v=[1.0])
