import itertools
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import random_pd
from phiprod.gauss_scalar import cdf as scalar_cdf
from phiprod.mvn_cdf import MvnQuery, cdf as mvn_cdf
from phiprod.pd_matrix import PdMatrix
from phiprod.probit_bernoulli import ProbitBernoulli, SignVector


class TestSignVector:
    def test_accepts_signs(self):
        y = SignVector((1, -1, 1))
        assert y.signs == (1, -1, 1)
        assert len(y) == 3
        assert y.flipped().signs == (-1, 1, -1)

    @pytest.mark.parametrize("bad", [(0,), (1, 2), (1.5, -1), ()])
    def test_rejects_non_signs(self, bad):
        with pytest.raises(ValueError):
            SignVector(bad)


class TestPmf:
    def test_half_correlation_quadruple(self, sign_fixture):
        # orthant correlations +/- 1/2: probabilities 1/3 and 1/6
        d = ProbitBernoulli(*sign_fixture)
        assert d.pmf(SignVector((1, 1))).value == pytest.approx(1 / 3, abs=1e-10)
        assert d.pmf(SignVector((-1, -1))).value == pytest.approx(1 / 3, abs=1e-10)
        assert d.pmf(SignVector((1, -1))).value == pytest.approx(1 / 6, abs=1e-10)
        assert d.pmf(SignVector((-1, 1))).value == pytest.approx(1 / 6, abs=1e-10)

    def test_centered_diagonal_is_uniform(self, rng):
        for n in (1, 2, 3, 4):
            d = ProbitBernoulli(np.zeros(n), PdMatrix.from_entries(
                n, np.diag(rng.uniform(0.2, 3.0, size=n))))
            for y in d.support():
                assert d.pmf(y).value == pytest.approx(0.5 ** n, abs=1e-9)

    def test_single_trial_closed_form(self):
        d = ProbitBernoulli([0.7], PdMatrix.from_entries(1, [[1.0]]))
        expected = scalar_cdf(0.7 / math.sqrt(2.0))
        assert d.pmf(SignVector((1,))).value == pytest.approx(expected, abs=1e-14)
        assert d.pmf(SignVector((-1,))).value == pytest.approx(1 - expected, abs=1e-14)

    def test_single_trial_matches_generative_mc(self):
        d = ProbitBernoulli([0.7], PdMatrix.from_entries(1, [[1.0]]))
        draws = d.sample(10_000_000, seed=5)
        freq = float(np.mean(draws == 1))
        p = d.pmf(SignVector((1,))).value
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1 - p) / 10_000_000)

    def test_sign_flip_symmetry(self, rng):
        for i in range(10):
            n = int(rng.integers(1, 6))
            mu = rng.uniform(-1.5, 1.5, size=n)
            sig = random_pd(rng, n)
            y = SignVector(tuple(rng.choice([-1, 1], size=n).tolist()))
            a = ProbitBernoulli(mu, sig).pmf(y, accuracy=1e-5, seed=i)
            b = ProbitBernoulli(-mu, sig).pmf(y.flipped(), accuracy=1e-5, seed=i)
            assert abs(a.value - b.value) <= 2e-5

    def test_shifted_and_centered_queries_agree(self, rng):
        # F(0 | -D_y mu, C) and F(D_y mu | 0, C) are the same probability
        for i in range(5):
            n = int(rng.integers(1, 5))
            mu = rng.uniform(-1.5, 1.5, size=n)
            sig = random_pd(rng, n)
            ys = rng.choice([-1, 1], size=n).astype(float)
            cov = PdMatrix.from_entries(n, np.eye(n) + sig.entries * np.outer(ys, ys))
            shifted = mvn_cdf(MvnQuery(upper=np.zeros(n), mean=-ys * mu, cov=cov,
                                       accuracy=1e-5), seed=i)
            centered = mvn_cdf(MvnQuery(upper=ys * mu, mean=np.zeros(n), cov=cov,
                                        accuracy=1e-5), seed=i)
            assert abs(shifted.value - centered.value) <= 2e-5

    def test_matches_scipy_genz_on_the_query_built_by_hand(self, rng):
        # pmf(y) = F_N(D_y mu | 0, I + D_y Sigma D_y), evaluated by scipy's own
        # Genz code: a route that shares nothing with phiprod's
        for i in range(10):
            n = int(rng.integers(1, 7))
            mu = rng.uniform(-1.5, 1.5, size=n)
            sig = random_pd(rng, n)
            y = SignVector(tuple(rng.choice([-1, 1], size=n).tolist()))
            ys = np.asarray(y.signs, dtype=float)
            ref = multivariate_normal(
                mean=np.zeros(n), cov=np.eye(n) + sig.entries * np.outer(ys, ys),
                abseps=1e-6, releps=0.0, seed=i).cdf(ys * mu)
            for d, signs in ((ProbitBernoulli(mu, sig), y), (ProbitBernoulli(-mu, sig),
                                                             y.flipped())):
                assert abs(d.pmf(signs, accuracy=1e-5, seed=i).value - ref) <= 2e-5

    def test_wrong_length_sign_vector(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        with pytest.raises(ValueError):
            d.pmf(SignVector((1,)))


class TestLogPmf:
    def test_third_value(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        assert d.log_pmf(SignVector((1, 1))) == pytest.approx(math.log(1 / 3), abs=1e-5)

    def test_centered_diagonal(self):
        d = ProbitBernoulli(np.zeros(3), PdMatrix.from_entries(3, np.eye(3)))
        assert d.log_pmf(SignVector((1, -1, 1))) == pytest.approx(-3 * math.log(2.0),
                                                                  abs=1e-9)

    def test_round_trip(self, rng):
        n = 3
        d = ProbitBernoulli(rng.uniform(-1, 1, n), random_pd(rng, n))
        for y in d.support():
            p = d.pmf(y).value
            if p > 1e-10:
                assert math.exp(d.log_pmf(y)) == pytest.approx(p, rel=1e-12)


class TestSample:
    def test_deterministic(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        assert np.array_equal(d.sample(500, seed=42), d.sample(500, seed=42))

    def test_saturated_means(self):
        d = ProbitBernoulli(np.full(3, 10.0), PdMatrix.from_entries(3, np.eye(3)))
        draws = d.sample(10_000, seed=0)
        assert np.mean(np.all(draws == 1, axis=1)) >= 0.999

    def test_half_correlation_frequency(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        draws = d.sample(1_000_000, seed=2024)
        freq = float(np.mean(np.all(draws == 1, axis=1)))
        assert abs(freq - 1 / 3) <= 0.002  # ~4 sigma binomial band

    def test_generative_frequencies_match_pmf(self, rng):
        for i in range(3):
            n = int(rng.integers(1, 4))
            d = ProbitBernoulli(rng.uniform(-1, 1, n), random_pd(rng, n))
            draws = d.sample(1_000_000, seed=i)
            for y in d.support():
                p = d.pmf(y).value
                freq = float(np.mean(np.all(draws == np.asarray(y.signs), axis=1)))
                band = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / 1_000_000) + 1e-5
                assert abs(freq - p) <= band

    def test_count_domain(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        with pytest.raises(ValueError):
            d.sample(0)


class TestNormalization:
    def test_single_trial(self, rng):
        d = ProbitBernoulli([0.4], PdMatrix.from_entries(1, [[0.7]]))
        assert abs(d.normalization(accuracy=1e-6) - 1.0) <= 2e-6

    def test_half_correlation_fixture(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        # 2*(1/3) + 2*(1/6) = 1 exactly
        assert d.normalization(accuracy=1e-6) == pytest.approx(1.0, abs=1e-9)

    def test_six_dim_random(self, rng):
        d = ProbitBernoulli(rng.uniform(-1.5, 1.5, 6), random_pd(rng, 6))
        assert abs(d.normalization(accuracy=1e-6, seed=3) - 1.0) <= 64e-6

    def test_random_draws(self, rng):
        for i in range(5):
            n = int(rng.integers(1, 7))
            d = ProbitBernoulli(rng.uniform(-1.5, 1.5, n), random_pd(rng, n))
            dev = abs(d.normalization(accuracy=1e-5, seed=i) - 1.0)
            assert dev <= 2**n * 1e-5

    def test_enumeration_limit(self):
        d = ProbitBernoulli(np.zeros(16), PdMatrix.from_entries(16, np.eye(16)))
        with pytest.raises(ValueError):
            d.normalization()


class TestMean:
    def test_centered_is_zero(self, rng):
        d = ProbitBernoulli(np.zeros(4), random_pd(rng, 4))
        assert np.allclose(d.mean(), 0.0, atol=1e-15)

    def test_single_trial_matches_pmf_difference(self):
        d = ProbitBernoulli([0.7], PdMatrix.from_entries(1, [[1.0]]))
        by_pmf = d.pmf(SignVector((1,))).value - d.pmf(SignVector((-1,))).value
        assert d.mean()[0] == pytest.approx(by_pmf, abs=1e-12)
        assert d.mean()[0] == pytest.approx(2 * scalar_cdf(0.7 / math.sqrt(2)) - 1,
                                            abs=1e-14)

    def test_matches_enumeration(self, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), random_pd(rng, 3))
        enum = np.zeros(3)
        for y in d.support():
            enum += y.as_array() * d.pmf(y, accuracy=1e-6).value
        assert np.max(np.abs(d.mean() - enum)) <= 8e-6


class TestMarginalize:
    def test_keep_all_is_identity(self, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), random_pd(rng, 3))
        m = d.marginalize([0, 1, 2])
        assert np.array_equal(m.mu, d.mu)
        assert np.array_equal(m.sigma.entries, d.sigma.entries)

    def test_half_correlation_marginal_is_fair(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        m = d.marginalize([0])
        # 1/3 + 1/6 = 1/2
        assert m.pmf(SignVector((1,))).value == pytest.approx(0.5, abs=1e-12)

    def test_matches_enumeration_sum(self, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 4), random_pd(rng, 4))
        keep = [1, 3]
        marg = d.marginalize(keep)
        for target in itertools.product((-1, 1), repeat=2):
            direct = marg.pmf(SignVector(target), accuracy=1e-6).value
            summed = sum(
                d.pmf(y, accuracy=1e-6).value for y in d.support()
                if tuple(y.signs[j] for j in keep) == target)
            assert abs(direct - summed) <= 4e-6

    @pytest.mark.parametrize("keep", [[], [0, 0], [5], [-1]])
    def test_domain(self, keep, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), random_pd(rng, 3))
        with pytest.raises(ValueError):
            d.marginalize(keep)


class TestConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ProbitBernoulli([0.0, 0.0], PdMatrix.from_entries(1, [[1.0]]))

    def test_non_finite_mean(self):
        with pytest.raises(ValueError):
            ProbitBernoulli([math.inf], PdMatrix.from_entries(1, [[1.0]]))
