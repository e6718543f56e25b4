"""Whitening, conjugate priors, the two-block sampler, and DIC."""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cho_solve, solve_triangular

import tvcm.engines
import tvcm.frequentist
import tvcm.mcmc
import tvcm.vb
from tvcm import gen_scenario2, ingest_csv
from tvcm.basis import build_design, make_spec
from tvcm.bootstrap import DrawSource, PosteriorDraws
from tvcm.engines import fit_engine
from tvcm.errors import NumericalError
from tvcm.frequentist import WlsFit, fit_wls, gram_stats, ridge_posterior
from tvcm.mcmc import (PriorSpec, default_prior, dic, dic_from_stats, gibbs, gibbs_from_stats,
                       whiten)

import oracles
from conftest import single_subject


def _whitened_scenario(n=20, seed=11, knots=1):
    data, _ = gen_scenario2(n, np.random.default_rng(seed))
    specs = tuple(make_spec("radial", 2, knots, data.time_domain)
                  for _ in range(3))
    bundle = build_design(data, specs)
    Zt, yt = whiten(bundle)
    return bundle, Zt, yt


# ---------------------------------------------------------------------------
# Whitening and priors
# ---------------------------------------------------------------------------


class TestWhiten:
    def test_unit_weights_are_identity(self):
        data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
        spec = make_spec("tpower", 0, 0, data.time_domain)
        bundle = build_design(data, (spec,), weights=np.ones(3))
        Zt, yt = whiten(bundle)
        np.testing.assert_array_equal(Zt, bundle.Z)
        np.testing.assert_array_equal(yt, bundle.y)

    def test_weight_four_doubles_rows(self):
        data = single_subject([0.5], [3.0])
        spec = make_spec("tpower", 0, 0, data.time_domain)
        bundle = build_design(data, (spec,), weights=np.array([4.0]))
        Zt, yt = whiten(bundle)
        np.testing.assert_allclose(Zt, 2.0 * bundle.Z)
        np.testing.assert_allclose(yt, [6.0])

    def test_importable_from_mcmc(self):
        assert whiten is tvcm.frequentist.whiten

    def test_wls_equals_ols_on_whitened_rows(self):
        bundle, Zt, yt = _whitened_scenario()
        fit = fit_wls(bundle)
        ols, *_ = np.linalg.lstsq(Zt, yt, rcond=None)
        np.testing.assert_allclose(fit.alpha_hat, ols, atol=1e-12,
                                   rtol=1e-10)


class TestPriorSpec:
    def test_default_prior_mapping(self):
        """a_sigma = 2, b_sigma = sigma2_hat, ridge = 1/N."""
        fit = WlsFit(np.zeros(2), 0.25, np.zeros(100), np.zeros(100),
                     np.eye(2), 2.0)
        prior = default_prior(fit)
        assert prior.a_sigma == 2.0
        assert prior.b_sigma == 0.25
        assert prior.ridge == pytest.approx(0.01)

    def test_prior_mean_matches_plugin_variance(self):
        """Inverse-gamma prior mean b/(a-1) reproduces the WLS variance."""
        prior = PriorSpec(2.0, 0.37, 0.01)
        assert prior.b_sigma / (prior.a_sigma - 1.0) == 0.37

    def test_noiseless_fit_floors_scale(self):
        fit = WlsFit(np.zeros(2), 0.0, np.zeros(10), np.zeros(10),
                     np.eye(2), 2.0)
        with pytest.warns(UserWarning):
            prior = default_prior(fit)
        assert prior.b_sigma > 0

    def test_floor_follows_the_response_unit(self):
        """default_prior reads y~'y~ from the fit itself, so a noisy fit in
        small units is not floored: b_sigma scales by c^2, silently."""
        bundle, _, _ = _whitened_scenario()
        want = default_prior(fit_wls(bundle)).b_sigma
        for c in (1e3, 1e-3, 1e-7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                prior = default_prior(fit_wls(dataclasses.replace(bundle, y=bundle.y * c)))
            assert prior.b_sigma == pytest.approx(c * c * want, rel=1e-9), c

    def test_positivity_validated(self):
        with pytest.raises(ValueError):
            PriorSpec(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PriorSpec(2.0, 1.0, -0.5)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


class TestGibbs:
    def test_fixed_variance_shrinkage_mean(self):
        """Ones design with y = (1,2,3) and unit ridge: the conditional mean
        is 6 / (3 + 1) ... with ridge 1/3 it is 6 / (3 + 1/3) = 1.8."""
        Z = np.ones((3, 1))
        y = np.array([1.0, 2.0, 3.0])
        prior = PriorSpec(2.0, 1.0, 1.0 / 3.0)
        assert 6.0 / (3.0 + 1.0 / 3.0) == pytest.approx(1.8)
        sigma2 = 0.25
        draws = gibbs(Z, y, prior, draws=10000, burnin=0, rng=2,
                      fixed_sigma2=sigma2)
        se = np.sqrt(sigma2 * (1.0 / (3.0 + 1.0 / 3.0)) / 10000)
        assert abs(draws.alpha_draws.mean() - 1.8) < 3 * se
        assert np.all(draws.sigma2_draws == sigma2)

    def test_zero_response_centers_at_zero(self):
        bundle, Zt, yt = _whitened_scenario(n=10)
        prior = PriorSpec(2.0, 1.0, 1.0 / Zt.shape[0])
        draws = gibbs(Zt, np.zeros_like(yt), prior, draws=4000, burnin=100,
                      rng=3, fixed_sigma2=1.0)
        M = Zt.T @ Zt + prior.ridge * np.eye(Zt.shape[1])
        se = np.sqrt(np.diag(np.linalg.inv(M)) / 4000)
        assert np.all(np.abs(draws.alpha_draws.mean(axis=0)) < 4 * se)

    def test_chain_matches_marginal_posterior(self):
        """Integrating the coefficients out analytically leaves an
        inverse-gamma marginal for the variance; the two-block chain must
        reproduce its mean, along with the marginal coefficient mean."""
        bundle, Zt, yt = _whitened_scenario(n=15, seed=7)
        N, p = Zt.shape
        prior = PriorSpec(2.0, 0.05, 1.0 / N)
        M = Zt.T @ Zt + prior.ridge * np.eye(p)
        mu = np.linalg.solve(M, Zt.T @ yt)
        a_n = prior.a_sigma + N / 2.0
        b_n = prior.b_sigma + 0.5 * (yt @ yt - mu @ M @ mu)
        draws = gibbs(Zt, yt, prior, draws=20000, burnin=1000, rng=17)
        sig_mean = b_n / (a_n - 1.0)
        sig_sd = sig_mean / np.sqrt(a_n - 2.0)
        # serial correlation inflates MC error, hence the 5x cushion
        assert abs(draws.sigma2_draws.mean() - sig_mean) < \
            5 * sig_sd / np.sqrt(20000)
        alpha_sd = np.sqrt(sig_mean * np.diag(np.linalg.inv(M)))
        err = np.abs(draws.alpha_draws.mean(axis=0) - mu)
        assert np.all(err < 5 * alpha_sd / np.sqrt(20000))

    def test_inverse_gamma_shape_via_decoupled_chain(self):
        """A huge ridge pins the coefficients at zero, making the variance
        draws nearly independent inverse-gamma with shape
        a_sigma + N/2 + p/2; their mean identifies that shape."""
        bundle, Zt, yt = _whitened_scenario(n=10, knots=0)
        N, p = Zt.shape
        prior = PriorSpec(2.0, 0.1, 1e12)
        draws = gibbs(Zt, yt, prior, draws=30000, burnin=500, rng=23)
        a_star = prior.a_sigma + N / 2.0 + p / 2.0
        # rate: b + ||y||^2/2 from residuals, plus sigma2 * chi2_p / 2 from
        # the ridge penalty of the near-zero coefficient draws
        base_rate = prior.b_sigma + 0.5 * (yt @ yt)
        mean = base_rate / (a_star - 1.0 - p / 2.0)
        sd = mean / np.sqrt(max(a_star - 2.0, 1.0))
        assert abs(draws.sigma2_draws.mean() - mean) < 6 * sd / np.sqrt(30000)

    def test_burnin_discarded(self):
        Z = np.ones((3, 1))
        y = np.array([1.0, 2.0, 3.0])
        prior = PriorSpec(2.0, 1.0, 1.0)
        draws = gibbs(Z, y, prior, draws=250, burnin=50, rng=0)
        assert draws.n_draws == 250
        assert draws.source is DrawSource.GIBBS

    def test_deterministic_per_seed(self):
        bundle, Zt, yt = _whitened_scenario(n=8)
        prior = PriorSpec(2.0, 1.0, 1.0 / Zt.shape[0])
        a = gibbs(Zt, yt, prior, draws=200, burnin=20, rng=42)
        b = gibbs(Zt, yt, prior, draws=200, burnin=20, rng=42)
        np.testing.assert_array_equal(a.alpha_draws, b.alpha_draws)
        np.testing.assert_array_equal(a.sigma2_draws, b.sigma2_draws)
        c = gibbs(Zt, yt, prior, draws=200, burnin=20, rng=43)
        assert not np.array_equal(a.alpha_draws, c.alpha_draws)

    def test_fixed_sigma2_must_be_positive(self):
        Z = np.ones((3, 1))
        with pytest.raises(ValueError, match="fixed_sigma2"):
            gibbs(Z, np.zeros(3), PriorSpec(2.0, 1.0, 1.0), draws=10,
                  burnin=0, rng=0, fixed_sigma2=0.0)


# ---------------------------------------------------------------------------
# Oracles: the per-iteration loop over rows and the draws x N residual matrix
# ---------------------------------------------------------------------------


class TestRidgePosterior:
    def test_statistics_match_definitions(self):
        _, Zt, yt = _whitened_scenario()
        ridge = 1.0 / Zt.shape[0]
        stats = gram_stats(Zt, yt)
        M, linv_t, mu, r0 = ridge_posterior(stats, ridge)
        p = Zt.shape[1]
        np.testing.assert_allclose(M, Zt.T @ Zt + ridge * np.eye(p))
        np.testing.assert_array_equal(linv_t, np.triu(linv_t))
        L = np.linalg.inv(linv_t.T)
        np.testing.assert_allclose(L @ L.T, M, rtol=1e-12)
        np.testing.assert_allclose(M @ mu, Zt.T @ yt, rtol=1e-9)
        resid = yt - Zt @ mu
        assert r0 == pytest.approx(resid @ resid + ridge * (mu @ mu),
                                   rel=1e-12)
        # the statistics themselves, about the default center
        assert stats.n_obs == Zt.shape[0]
        resid = yt - Zt @ stats.center
        assert stats.resid_sq == pytest.approx(resid @ resid, rel=1e-12)
        np.testing.assert_allclose(stats.lever, Zt.T @ resid, rtol=1e-12)

    def test_any_center_gives_the_same_posterior(self, oracle_problems):
        """Statistics about gram_stats's default center, the WLS solution
        and a random point near it give ridge_posterior the same M, mu and
        r0 within 1e-10 relative, vb_fit_from_stats the same m*, and
        gibbs_from_stats at one seed draws within 1e-9 of the largest draw."""
        Zt, yt, prior = oracle_problems["demo"]
        default = gram_stats(Zt, yt)
        wls = np.linalg.lstsq(Zt, yt, rcond=None)[0]
        near = wls * (1.0 + 1e-3 * np.random.default_rng(3).standard_normal(wls.size))

        def fits(stats):
            M, _, mu, r0 = ridge_posterior(stats, prior.ridge)
            m_star = tvcm.vb.vb_fit_from_stats(stats, prior, 1e-6, 500).m_star
            draws = gibbs_from_stats(stats, prior, 200, 50, 5).alpha_draws
            return M, mu, np.atleast_1d(r0), m_star, draws

        want = fits(default)
        for center in (wls, near):
            got = fits(gram_stats(Zt, yt, center))
            for g, w, rel in zip(got, want, (1e-10,) * 4 + (1e-9,)):
                assert np.max(np.abs(g - w)) <= rel * np.max(np.abs(w))

    def test_failed_factorization_is_numerical_error(self):
        Z = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="Cholesky"):
            ridge_posterior(gram_stats(Z, np.ones(3)), -1.0)

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="Z must be"):
            gram_stats(np.ones((3, 2)), np.ones(2))

    def test_engines_share_the_core(self, monkeypatch):
        """gibbs, vb_fit and elbo each reach the statistics through one
        gram_stats call, and one Bayesian fit_engine call followed by DIC
        from its statistics calls it, and so forms Z~'Z~, exactly once."""
        _, Zt, yt = _whitened_scenario(n=8)
        prior = PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0])
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gram_stats(*args, **kwargs)

        for module in (tvcm.frequentist, tvcm.mcmc, tvcm.vb, oracles):
            monkeypatch.setattr(module, "gram_stats", counted)
        gibbs(Zt, yt, prior, draws=5, burnin=0)
        post = tvcm.vb.vb_fit(Zt, yt, prior)
        oracles.elbo(post, Zt, yt, prior)
        assert len(calls) == 3

        data, _ = gen_scenario2(8, np.random.default_rng(11))
        specs = tuple(make_spec("radial", 2, 1, data.time_domain)
                      for _ in range(3))
        for engine in ("gibbs", "vb"):
            calls.clear()
            result = fit_engine(data, specs, engine, rng=1, draws=20,
                                burnin=5)
            dic_from_stats(result.draws, result.stats)
            assert len(calls) == 1


def _loop_gibbs(Z, y, prior, draws, burnin, rng, fixed_sigma2=None):
    """Reference chain: the rate from full residuals at every iteration,
    consuming the same pregenerated variates as gibbs."""
    gen = np.random.default_rng(rng)
    n_obs, p = Z.shape
    M = Z.T @ Z + prior.ridge * np.eye(p)
    L = np.linalg.cholesky(M)
    # the library's L^-T, computed by SciPy, and the library's mu
    linv_t = np.ascontiguousarray(solve_triangular(L.T, np.eye(p)))
    mu = ridge_posterior(gram_stats(Z, y), prior.ridge)[2]
    total = draws + burnin
    a_star = prior.a_sigma + n_obs / 2.0 + p / 2.0
    gammas = gen.standard_gamma(a_star, size=total)
    normals = gen.standard_normal((total, p))
    alpha_out = np.empty((total, p))
    sigma2_out = np.empty(total)
    alpha = mu.copy()
    for t in range(total):
        resid = y - Z @ alpha
        rate = prior.b_sigma + 0.5 * (resid @ resid) \
            + 0.5 * prior.ridge * (alpha @ alpha)
        sigma2 = rate / gammas[t] if fixed_sigma2 is None else fixed_sigma2
        alpha = mu + np.sqrt(sigma2) * (linv_t @ normals[t])
        alpha_out[t] = alpha
        sigma2_out[t] = sigma2
    return alpha_out[burnin:], sigma2_out[burnin:]


def _loop_dic(draws, Z, y):
    """Reference DIC from the draws x N residual matrix."""
    alpha, sigma2 = draws.alpha_draws, draws.sigma2_draws
    resid = y[None, :] - alpha @ Z.T
    dev = y.size * np.log(2.0 * np.pi * sigma2) \
        + (resid**2).sum(axis=1) / sigma2
    r_bar = y - Z @ alpha.mean(axis=0)
    s_bar = sigma2.mean()
    dev_at_mean = y.size * np.log(2.0 * np.pi * s_bar) + r_bar @ r_bar / s_bar
    p_dic = dev.mean() - dev_at_mean
    return dev_at_mean + 2.0 * p_dic, p_dic


@pytest.fixture(scope="module")
def oracle_problems(demo_csv):
    """Scenario 2 (n=100, radial k=3, p=18) and the demo panel
    (tpower k=4, p=21), whitened, with their data-calibrated priors."""
    scenario, _ = gen_scenario2(100, np.random.default_rng(7))
    demo = ingest_csv(demo_csv)
    problems = {}
    for name, data, family, k in (("scenario2", scenario, "radial", 3),
                                  ("demo", demo, "tpower", 4)):
        specs = tuple(make_spec(family, 2, k, data.time_domain)
                      for _ in range(data.covariate_dim + 1))
        bundle = build_design(data, specs)
        Zt, yt = whiten(bundle)
        problems[name] = (Zt, yt, default_prior(fit_wls(bundle)))
    return problems


class TestOracles:
    @pytest.mark.parametrize("panel", ["scenario2", "demo"])
    @pytest.mark.parametrize("fixed_sigma2", [None, 0.5])
    def test_gibbs_matches_row_loop(self, oracle_problems, panel,
                                    fixed_sigma2):
        Zt, yt, prior = oracle_problems[panel]
        if fixed_sigma2 is not None:
            fixed_sigma2 *= prior.b_sigma
        got = gibbs(Zt, yt, prior, draws=400, burnin=100, rng=19,
                    fixed_sigma2=fixed_sigma2)
        alpha, sigma2 = _loop_gibbs(Zt, yt, prior, 400, 100, 19, fixed_sigma2)
        scale = np.max(np.abs(alpha))
        assert np.max(np.abs(got.alpha_draws - alpha)) <= 1e-10 * scale
        np.testing.assert_allclose(got.sigma2_draws, sigma2, rtol=1e-10,
                                   atol=0)
        if fixed_sigma2 is not None:
            # the same arithmetic on the same variates: equal to the bit
            np.testing.assert_array_equal(got.alpha_draws, alpha)

    @pytest.mark.parametrize("panel", ["scenario2", "demo"])
    @pytest.mark.parametrize("fixed_sigma2", [None, 0.5])
    def test_gibbs_equals_per_iteration_kernel(self, oracle_problems, panel,
                                               fixed_sigma2):
        """The stacked L^-T z_t and the Python-float rate give the chain of
        one matrix-vector product per iteration, bit for bit."""
        Zt, yt, prior = oracle_problems[panel]
        if fixed_sigma2 is not None:
            fixed_sigma2 *= prior.b_sigma
        stats = gram_stats(Zt, yt)
        got = gibbs_from_stats(stats, prior, 400, 100, 19, fixed_sigma2)
        want = oracles.gibbs_rows(stats, prior, 400, 100, 19, fixed_sigma2)
        assert got.alpha_draws.tobytes() == want.alpha_draws.tobytes()
        assert got.sigma2_draws.tobytes() == want.sigma2_draws.tobytes()
        assert got.seed == want.seed

    @pytest.mark.parametrize("panel", ["scenario2", "demo"])
    def test_triangular_inverses_match_scipy(self, oracle_problems, panel):
        """L^-T, mu and V* from NumPy's inverse of L' agree with SciPy's
        triangular and Cholesky solves to 1e-13 relative.  mu, a step from
        gram_stats's center, is checked against cho_solve refined by one step
        with residuals from the rows: with cond(M) near 1e10 here, cho_solve
        alone sits 1.1e-12 to 3.2e-12 from a long-double solution, mu and the
        refined cho_solve within 1e-14."""
        Zt, yt, prior = oracle_problems[panel]
        p = Zt.shape[1]
        L = np.linalg.cholesky(Zt.T @ Zt + prior.ridge * np.eye(p))

        def assert_close(got, ref, rel=1e-13):
            assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))

        _, linv_t, mu, _ = ridge_posterior(gram_stats(Zt, yt), prior.ridge)
        assert_close(linv_t, solve_triangular(L.T, np.eye(p)))
        ref = cho_solve((L, True), Zt.T @ yt)
        ref += cho_solve((L, True), Zt.T @ (yt - Zt @ ref) - prior.ridge * ref)
        assert_close(mu, ref)
        # one sweep leaves V* = (b_sigma / a*) M^-1
        post = tvcm.vb.vb_fit(Zt, yt, prior, max_iters=1)
        assert_close(post.V_star, (prior.b_sigma / post.a_star)
                     * cho_solve((L, True), np.eye(p)))

    @pytest.mark.parametrize("panel", ["scenario2", "demo"])
    def test_dic_matches_residual_matrix(self, oracle_problems, panel):
        Zt, yt, prior = oracle_problems[panel]
        draws = gibbs(Zt, yt, prior, draws=1000, burnin=100, rng=4)
        value, p_dic = dic(draws, Zt, yt)
        ref_value, ref_p = _loop_dic(draws, Zt, yt)
        assert value == pytest.approx(ref_value, rel=1e-9)
        assert abs(p_dic - ref_p) <= 1e-6

    @pytest.mark.parametrize("panel", ["scenario2", "demo"])
    def test_dic_from_fit_stats_matches_residual_matrix(self, oracle_problems,
                                                        panel):
        """DIC from the statistics a fit builds, about gram_stats's default
        center rather than the draws' mean, against the residual matrix and
        against the public dic."""
        Zt, yt, prior = oracle_problems[panel]
        stats = gram_stats(Zt, yt)
        draws = gibbs(Zt, yt, prior, draws=1000, burnin=100, rng=4)
        value, p_dic = dic_from_stats(draws, stats)
        ref_value, ref_p = _loop_dic(draws, Zt, yt)
        assert value == pytest.approx(ref_value, rel=1e-9)
        assert abs(p_dic - ref_p) <= 1e-6
        pub_value, pub_p = dic(draws, Zt, yt)
        assert value == pytest.approx(pub_value, rel=1e-12)
        assert abs(p_dic - pub_p) <= 1e-9


# ---------------------------------------------------------------------------
# DIC
# ---------------------------------------------------------------------------


class TestDic:
    def test_zero_spread_chain(self):
        """All draws identical: mean deviance equals deviance at the mean,
        so the complexity penalty is exactly zero."""
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((40, 4))
        y = rng.standard_normal(40)
        alpha = rng.standard_normal(4)
        # 8 = 2^3 identical rows keep the float mean exact
        draws = PosteriorDraws(np.tile(alpha, (8, 1)), np.full(8, 0.7),
                               DrawSource.GIBBS, 1)
        value, p_dic = dic(draws, Z, y)
        assert p_dic == 0.0
        resid = y - Z @ alpha
        expected = 40 * np.log(2 * np.pi * 0.7) + resid @ resid / 0.7
        assert value == pytest.approx(expected, rel=1e-12)

    def test_spread_gives_positive_penalty(self):
        bundle, Zt, yt = _whitened_scenario(n=10)
        prior = PriorSpec(2.0, 0.05, 1.0 / Zt.shape[0])
        draws = gibbs(Zt, yt, prior, draws=2000, burnin=200, rng=5)
        value, p_dic = dic(draws, Zt, yt)
        assert p_dic > 0
        assert np.isfinite(value)

    def test_normal_loglik_identity(self):
        """Deviance of a single draw agrees with the scipy normal logpdf."""
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        alpha = np.array([0.3, -0.7])
        draws = PosteriorDraws(np.tile(alpha, (8, 1)), np.full(8, 1.3),
                               DrawSource.GIBBS, 1)
        value, _ = dic(draws, Z, y)
        loglik = stats.norm.logpdf(y, loc=Z @ alpha,
                                   scale=np.sqrt(1.3)).sum()
        assert value == pytest.approx(-2.0 * loglik, rel=1e-12)
