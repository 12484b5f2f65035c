import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf
from scipy.stats import multivariate_normal

from phiprod import oracles, pd_matrix, probit_bernoulli
from phiprod.gauss_scalar import cdf as scalar_cdf
from phiprod.mvn_cdf import MvnQuery, cdf as mvn_cdf
from phiprod.pd_matrix import NotPositiveDefiniteError, PdMatrix
from phiprod.probit_bernoulli import ProbitBernoulli, SignVector
from phiprod.verify import _REFERENCE_SEED_OFFSET, _random_pd


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
        # pmf(-y; -mu) builds the same query as pmf(y; mu), so the reference is
        # that query built by hand under an independent QMC randomization
        for i in range(10):
            n = int(rng.integers(1, 6))
            mu = rng.uniform(-1.5, 1.5, size=n)
            sig = _random_pd(rng, n)
            y = SignVector(tuple(rng.choice([-1, 1], size=n).tolist()))
            ys = np.asarray(y.signs, dtype=float)
            by_hand = MvnQuery(upper=ys * mu, mean=np.zeros(n), accuracy=1e-5,
                               cov=PdMatrix.from_entries(
                                   n, np.eye(n) + sig.entries * np.outer(ys, ys)))
            a = mvn_cdf(by_hand, seed=i + _REFERENCE_SEED_OFFSET)
            b = ProbitBernoulli(-mu, sig).pmf(y.flipped(), accuracy=1e-5, seed=i)
            assert abs(a.value - b.value) <= 2e-5

    def test_shifted_and_centered_queries_agree(self, rng):
        # F(0 | -D_y mu, C) and F(D_y mu | 0, C) are the same probability; the
        # two share upper - mean, so they are compared under independent QMC
        # randomizations
        for i in range(5):
            n = int(rng.integers(1, 5))
            mu = rng.uniform(-1.5, 1.5, size=n)
            sig = _random_pd(rng, n)
            ys = rng.choice([-1, 1], size=n).astype(float)
            cov = PdMatrix.from_entries(n, np.eye(n) + sig.entries * np.outer(ys, ys))
            shifted = mvn_cdf(MvnQuery(upper=np.zeros(n), mean=-ys * mu, cov=cov,
                                       accuracy=1e-5), seed=i)
            centered = mvn_cdf(MvnQuery(upper=ys * mu, mean=np.zeros(n), cov=cov,
                                        accuracy=1e-5), seed=i + _REFERENCE_SEED_OFFSET)
            assert abs(shifted.value - centered.value) <= 2e-5

    def test_matches_scipy_genz_on_the_query_built_by_hand(self, rng):
        # pmf(y) = F_N(D_y mu | 0, I + D_y Sigma D_y), evaluated by scipy's own
        # Genz code: a route that shares nothing with phiprod's
        for i in range(10):
            n = int(rng.integers(1, 7))
            mu = rng.uniform(-1.5, 1.5, size=n)
            sig = _random_pd(rng, n)
            y = SignVector(tuple(rng.choice([-1, 1], size=n).tolist()))
            ys = np.asarray(y.signs, dtype=float)
            ref = multivariate_normal(
                mean=np.zeros(n), cov=np.eye(n) + sig.entries * np.outer(ys, ys),
                abseps=1e-6, releps=0.0, seed=i).cdf(ys * mu)
            for d, signs in ((ProbitBernoulli(mu, sig), y), (ProbitBernoulli(-mu, sig),
                                                             y.flipped())):
                assert abs(d.pmf(signs, accuracy=1e-5, seed=i).value - ref) <= 2e-5

    def test_query_matches_query_built_by_hand(self, rng):
        # _query builds its PdMatrix without the from_entries checks; the
        # query built by hand runs them
        for n in range(1, 6):
            for _ in range(2):
                mu = rng.uniform(-1.5, 1.5, size=n)
                sig = _random_pd(rng, n)
                d = ProbitBernoulli(mu, sig)
                for s, y in enumerate(d.support()):
                    ys = y.as_array()
                    entries = np.eye(n) + sig.entries * np.outer(ys, ys)
                    cov = d._query(y, 1e-5).cov
                    assert np.array_equal(cov.entries, entries)
                    by_hand = PdMatrix.from_entries(n, entries)
                    assert np.array_equal(cov.chol, by_hand.chol)
                    ref = mvn_cdf(MvnQuery(upper=ys * mu, mean=np.zeros(n), cov=by_hand,
                                           accuracy=1e-5), seed=s)
                    assert d.pmf(y, accuracy=1e-5, seed=s) == ref

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_pmf_matches_query_built_by_hand_on_the_qmc_path(self, n):
        # MvnEstimate equality compares every field: value, err_estimate,
        # method, n_points, converged, order and tilted
        rng = np.random.default_rng(n)
        mu = rng.uniform(-1.5, 1.5, size=n)
        sig = _random_pd(rng, n)
        d = ProbitBernoulli(mu, sig)
        for s in range(6):
            y = SignVector(tuple(rng.choice([-1, 1], size=n).tolist()))
            ys = y.as_array()
            cov = PdMatrix.from_entries(n, np.eye(n) + sig.entries * np.outer(ys, ys))
            ref = mvn_cdf(MvnQuery(upper=ys * mu, mean=np.zeros(n), cov=cov,
                                   accuracy=1e-5), seed=s)
            assert d.pmf(y, accuracy=1e-5, seed=s) == ref

    @pytest.mark.parametrize("n", [2, 5])
    def test_factor_waits_for_its_first_reader(self, monkeypatch, rng, n):
        # neither marginalize's Sigma[keep, keep] nor pmf's I + D_y Sigma D_y
        # is factored by LAPACK: the pmf path reads their entries only (at
        # N >= 3 _prioritized_cholesky factors in its own order). sample
        # reads the marginal's factor, which is computed then, once
        calls = []

        def counting_dpotrf(*args, **kwargs):
            calls.append(1)
            return dpotrf(*args, **kwargs)

        d = ProbitBernoulli(rng.uniform(-1, 1, size=8), _random_pd(rng, 8))
        monkeypatch.setattr(pd_matrix, "dpotrf", counting_dpotrf)
        marginal = d.marginalize(range(n))
        assert len(calls) == 0
        marginal.pmf(SignVector((1, -1) * (n // 2) + (1,) * (n % 2)), accuracy=1e-3)
        assert len(calls) == 0
        first = marginal.sigma.chol
        assert len(calls) == 1
        assert marginal.sigma.chol is first
        assert len(calls) == 1

    def test_wrong_length_sign_vector(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        with pytest.raises(ValueError):
            d.pmf(SignVector((1,)))


def _lowest_accepted_last_diagonal(entries: np.ndarray) -> np.ndarray:
    """entries with its last diagonal entry lowered to the smallest float that
    from_entries still accepts: the last pivot sits on the threshold, and one
    ulp less on that entry is rejected. Bisects over the bit patterns of
    positive floats, which are ordered like the floats; a zero diagonal entry
    is always rejected."""
    n = entries.shape[0]

    def accepted(bits: int) -> bool:
        trial = entries.copy()
        trial[-1, -1] = np.int64(bits).view(np.float64)
        try:
            PdMatrix.from_entries(n, trial)
        except NotPositiveDefiniteError:
            return False
        return True

    lo, hi = 0, int(np.float64(entries[-1, -1]).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepted(mid):
            hi = mid
        else:
            lo = mid
    out = entries.copy()
    out[-1, -1] = np.int64(hi).view(np.float64)
    return out


@st.composite
def _checked_models(draw):
    """(mu, Sigma, y, keep): Sigma of size 1-8 accepted by from_entries, at
    scales 1e-6 to 1e10, with its smallest eigenvalue anywhere down to near
    the pivot threshold, or with its last pivot on the threshold (its last
    diagonal entry one ulp above a rejected one)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("pd", "near_singular", "edge")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
    if kind == "near_singular":
        eig[0] = n * 1e-12 * eig.max() * 10.0 ** rng.uniform(0.0, 3.0)
    a = (q * eig) @ q.T
    entries = 10.0 ** draw(st.floats(-6.0, 10.0)) * (0.5 * (a + a.T))
    if kind == "edge" and n > 1:
        entries = _lowest_accepted_last_diagonal(entries)
    try:
        sigma = PdMatrix.from_entries(n, entries)
    except NotPositiveDefiniteError:
        assume(False)
    keep = draw(st.sets(st.integers(0, n - 1), min_size=1))
    y = SignVector(tuple(rng.choice([-1, 1], size=n).tolist()))
    return rng.uniform(-1.5, 1.5, size=n), sigma, y, sorted(keep)


class TestPdByConstruction:
    # pmf's I + D_y Sigma D_y and marginalize's Sigma[keep, keep] skip the
    # eager pivot check; the eager constructor must accept both whenever
    # Sigma passed, and the factor read later must be the eager one
    @given(_checked_models())
    @settings(max_examples=200, deadline=None)
    def test_derived_covariances_match_their_eager_twins(self, model):
        mu, sigma, y, keep = model
        n = sigma.dim
        d = ProbitBernoulli(mu, sigma)
        for signs in d.support():
            ys = signs.as_array()
            eager = PdMatrix(np.eye(n) + sigma.entries * np.outer(ys, ys))
            lazy = d._query(signs, 1e-3).cov
            assert np.array_equal(lazy.entries, eager.entries)
            assert np.array_equal(lazy.chol, eager.chol)
        ys = y.as_array()
        eager_query = MvnQuery(upper=ys * mu, mean=np.zeros(n), accuracy=1e-3,
                               cov=PdMatrix(np.eye(n) + sigma.entries * np.outer(ys, ys)))
        assert (oracles.mvn_mc(d._query(y, 1e-3), draws=10_000, seed=n)
                == oracles.mvn_mc(eager_query, draws=10_000, seed=n))

        cols = np.array(keep)
        eager = PdMatrix(sigma.entries[np.ix_(cols, cols)])
        marginal = d.marginalize(keep)
        twin = ProbitBernoulli(mu[cols], eager)
        assert np.array_equal(marginal.sample(1000, seed=n), twin.sample(1000, seed=n))
        assert np.array_equal(marginal.sigma.entries, eager.entries)
        assert np.array_equal(marginal.sigma.chol, eager.chol)


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
        d = ProbitBernoulli(rng.uniform(-1, 1, n), _random_pd(rng, n))
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
            d = ProbitBernoulli(rng.uniform(-1, 1, n), _random_pd(rng, n))
            draws = d.sample(1_000_000, seed=i)
            for y in d.support():
                p = d.pmf(y).value
                freq = float(np.mean(np.all(draws == np.asarray(y.signs), axis=1)))
                band = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / 1_000_000) + 1e-5
                assert abs(freq - p) <= band

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_chunked_draws_equal_one_pass(self, dim):
        # the reference is the one-pass formula sample() replaced: all latent
        # normals, then all noise, from one stream
        rng = np.random.default_rng(dim)
        d = ProbitBernoulli(rng.uniform(-1, 1, dim), _random_pd(rng, dim))
        chunk = probit_bernoulli._SAMPLE_CHUNK
        for count in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            draws = np.random.default_rng(11)
            latent = d.mu + draws.standard_normal((count, dim)) @ d.sigma.chol.T
            noise = draws.standard_normal((count, dim))
            expected = np.where(latent + noise >= 0.0, 1, -1).astype(np.int8)
            got = d.sample(count, seed=11)
            assert got.dtype == np.int8
            assert np.array_equal(got, expected)

    def test_memory_is_bounded_by_the_draws(self):
        # the (count, dim) float64 latent draws are the floor (8 bytes per
        # entry) and the int8 result adds 1; the chunks add a bounded rest
        rng = np.random.default_rng(4)
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), _random_pd(rng, 3))
        count = 1_000_000
        tracemalloc.start()
        try:
            d.sample(count, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 11 * count * 3

    def test_count_domain(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        with pytest.raises(ValueError):
            d.sample(0)

    def test_count_must_be_an_integer(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        for count in (1e3, True):
            with pytest.raises(ValueError, match="count must be an integer"):
                d.sample(count)


class TestNormalization:
    def test_single_trial(self, rng):
        d = ProbitBernoulli([0.4], PdMatrix.from_entries(1, [[0.7]]))
        assert abs(d.normalization(accuracy=1e-6) - 1.0) <= 2e-6

    def test_half_correlation_fixture(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        # 2*(1/3) + 2*(1/6) = 1 exactly
        assert d.normalization(accuracy=1e-6) == pytest.approx(1.0, abs=1e-9)

    def test_six_dim_random(self, rng):
        d = ProbitBernoulli(rng.uniform(-1.5, 1.5, 6), _random_pd(rng, 6))
        assert abs(d.normalization(accuracy=1e-6, seed=3) - 1.0) <= 64e-6

    def test_random_draws(self, rng):
        for i in range(5):
            n = int(rng.integers(1, 7))
            d = ProbitBernoulli(rng.uniform(-1.5, 1.5, n), _random_pd(rng, n))
            dev = abs(d.normalization(accuracy=1e-5, seed=i) - 1.0)
            assert dev <= 2**n * 1e-5

    def test_enumeration_limit(self):
        d = ProbitBernoulli(np.zeros(16), PdMatrix.from_entries(16, np.eye(16)))
        with pytest.raises(ValueError):
            d.normalization()


class TestMean:
    def test_centered_is_zero(self, rng):
        d = ProbitBernoulli(np.zeros(4), _random_pd(rng, 4))
        assert np.allclose(d.mean(), 0.0, atol=1e-15)

    def test_single_trial_matches_pmf_difference(self):
        d = ProbitBernoulli([0.7], PdMatrix.from_entries(1, [[1.0]]))
        by_pmf = d.pmf(SignVector((1,))).value - d.pmf(SignVector((-1,))).value
        assert d.mean()[0] == pytest.approx(by_pmf, abs=1e-12)
        assert d.mean()[0] == pytest.approx(2 * scalar_cdf(0.7 / math.sqrt(2)) - 1,
                                            abs=1e-14)

    def test_matches_enumeration(self, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), _random_pd(rng, 3))
        enum = np.zeros(3)
        for y in d.support():
            enum += y.as_array() * d.pmf(y, accuracy=1e-6).value
        assert np.max(np.abs(d.mean() - enum)) <= 8e-6


class TestMarginalize:
    def test_keep_all_is_identity(self, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), _random_pd(rng, 3))
        m = d.marginalize([0, 1, 2])
        assert np.array_equal(m.mu, d.mu)
        assert np.array_equal(m.sigma.entries, d.sigma.entries)

    def test_half_correlation_marginal_is_fair(self, sign_fixture):
        d = ProbitBernoulli(*sign_fixture)
        m = d.marginalize([0])
        # 1/3 + 1/6 = 1/2
        assert m.pmf(SignVector((1,))).value == pytest.approx(0.5, abs=1e-12)

    def test_matches_enumeration_sum(self, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 4), _random_pd(rng, 4))
        keep = [1, 3]
        marg = d.marginalize(keep)
        for target in itertools.product((-1, 1), repeat=2):
            direct = marg.pmf(SignVector(target), accuracy=1e-6).value
            summed = sum(
                d.pmf(y, accuracy=1e-6).value for y in d.support()
                if tuple(y.signs[j] for j in keep) == target)
            assert abs(direct - summed) <= 4e-6

    # masks and floats are not indices: [True, False] once kept {0, 1} and
    # [1.9] kept coordinate 1
    @pytest.mark.parametrize("keep", [[], [0, 0], [5], [-1], [True, False],
                                      [np.True_], np.array([True, False, True]),
                                      [1.9], [np.float64(1.0)], ["1"]])
    def test_domain(self, keep, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), _random_pd(rng, 3))
        with pytest.raises(ValueError):
            d.marginalize(keep)

    def test_numpy_integer_indices_are_accepted(self, rng):
        d = ProbitBernoulli(rng.uniform(-1, 1, 3), _random_pd(rng, 3))
        m = d.marginalize(np.array([2, 0], dtype=np.int64))
        assert m.mu.tolist() == [d.mu[0], d.mu[2]]
        assert m.sigma.entries.tolist() == d.sigma.entries[np.ix_([0, 2], [0, 2])].tolist()
        assert not m.mu.flags.writeable


class TestConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ProbitBernoulli([0.0, 0.0], PdMatrix.from_entries(1, [[1.0]]))

    def test_non_finite_mean(self):
        with pytest.raises(ValueError):
            ProbitBernoulli([math.inf], PdMatrix.from_entries(1, [[1.0]]))
