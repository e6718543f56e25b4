"""Coordinate-ascent variational approximation of the conjugate model."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.special import digamma, gammaln

from tvcm import gen_scenario1, gen_scenario2, ingest_csv
from tvcm.basis import build_design, make_spec
from tvcm.bootstrap import DrawSource
from tvcm.errors import NumericalError
from tvcm.frequentist import fit_wls
from tvcm.mcmc import PriorSpec, default_prior, whiten
from tvcm.vb import VariationalPosterior, _digamma, _objective_constant, vb_fit, vb_sample

from oracles import elbo


def _whitened(n=20, seed=11, knots=1):
    data, _ = gen_scenario2(n, np.random.default_rng(seed))
    specs = tuple(make_spec("radial", 2, knots, data.time_domain)
                  for _ in range(3))
    Zt, yt = whiten(build_design(data, specs))
    return Zt, yt


def _reference_objective(Z, y, prior, m, V, a_star, b_star):
    """Test-local retyping of the printed objective, kept independent of the
    library implementation."""
    n_obs, p = Z.shape
    M = Z.T @ Z + prior.ridge * np.eye(p)
    bracket = prior.b_sigma + 0.5 * (
        y @ y - 2.0 * y @ Z @ m + m @ M @ m + np.trace(M @ V))
    return (
        -0.5 * (n_obs * np.log(2.0 * np.pi) + p * np.log(1.0 / prior.ridge)
                - p)
        + prior.a_sigma * np.log(prior.b_sigma) - gammaln(prior.a_sigma)
        + a_star * (1.0 + np.log(b_star) - 2.0 * digamma(a_star))
        + gammaln(a_star)
        + 2.0 * (np.log(b_star) - digamma(a_star))
        + 0.5 * np.linalg.slogdet(V)[1]
        - (a_star / b_star) * bracket
    )


def _loop_vb_fit(Z, y, prior, tol=1e-6, max_iters=500):
    """The coordinate-ascent sweep on p x p matrices: V*, m* and the full
    quadratic bracket are rebuilt every sweep and the objective is scored by
    _reference_objective.  Returns (m*, V*, a*, b*, trace, converged)."""
    n_obs, p = Z.shape
    M = Z.T @ Z + prior.ridge * np.eye(p)
    m_inv = cho_solve((np.linalg.cholesky(M), True), np.eye(p))
    z_ty, y_ty = Z.T @ y, y @ y
    a_star = prior.a_sigma + n_obs / 2.0 + p / 2.0
    b_star = prior.b_sigma
    trace = []
    for _ in range(max_iters):
        V = (b_star / a_star) * m_inv
        m = (a_star / b_star) * (V @ z_ty)
        b_star = prior.b_sigma + 0.5 * (y_ty - 2.0 * (z_ty @ m) + m @ M @ m
                                        + np.trace(M @ V))
        trace.append(_reference_objective(Z, y, prior, m, V, a_star, b_star))
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            return m, V, a_star, b_star, np.array(trace), True
    return m, V, a_star, b_star, np.array(trace), False


def _oracle_problems(demo_csv):
    """Whitened scenario-1, scenario-2 and demo designs with their
    data-calibrated priors, and the 1x1 hand problem."""
    scenario1, _ = gen_scenario1(50, np.random.default_rng(21))
    scenario2, _ = gen_scenario2(100, np.random.default_rng(21))
    demo = ingest_csv(demo_csv)
    problems = {}
    for name, data, family, k in (("scenario1", scenario1, "radial", 3),
                                  ("scenario2", scenario2, "radial", 4),
                                  ("demo-tpower", demo, "tpower", 3),
                                  ("demo-radial", demo, "radial", 2)):
        specs = tuple(make_spec(family, 2, k, data.time_domain)
                      for _ in range(data.covariate_dim + 1))
        bundle = build_design(data, specs)
        problems[name] = (*whiten(bundle), default_prior(fit_wls(bundle)))
    problems["hand"] = (np.array([[1.0]]), np.array([0.0]),
                        PriorSpec(2.0, 1.0, 1.0))
    return problems


class TestLoopOracle:
    """The scalar recursion against the matrix sweep it replaces."""

    @pytest.mark.parametrize("max_iters", [500, 1])
    def test_closed_form_matches_matrix_sweep(self, demo_csv, max_iters):
        for name, (Z, y, prior) in _oracle_problems(demo_csv).items():
            post = vb_fit(Z, y, prior, max_iters=max_iters)
            m, V, a_star, b_star, trace, converged = _loop_vb_fit(
                Z, y, prior, max_iters=max_iters)
            assert post.elbo_trace.size == trace.size, name
            assert post.converged is converged is (max_iters > 1), name
            assert post.a_star == a_star
            np.testing.assert_allclose(post.elbo_trace, trace, rtol=1e-10,
                                       err_msg=name)
            assert post.b_star == pytest.approx(b_star, rel=1e-10), name
            np.testing.assert_allclose(post.V_star, V, rtol=1e-10,
                                       atol=1e-10 * np.abs(V).max(),
                                       err_msg=name)
            np.testing.assert_allclose(post.m_star, m, rtol=1e-10,
                                       atol=1e-10 * np.abs(m).max(),
                                       err_msg=name)


class TestFixedPoint:
    def test_shape_parameter_closed_form(self):
        Zt, yt = _whitened()
        N, p = Zt.shape
        post = vb_fit(Zt, yt, PriorSpec(2.0, 0.1, 1.0 / N))
        assert post.a_star == 2.0 + N / 2.0 + p / 2.0

    def test_mean_is_ridge_solution(self):
        """m* solves the ridge-regularized normal equations exactly, to
        1e-8, independent of the variance factor."""
        Zt, yt = _whitened()
        N, p = Zt.shape
        ridge = 1.0 / N
        target = np.linalg.solve(Zt.T @ Zt + ridge * np.eye(p), Zt.T @ yt)
        for b_sigma in (0.05, 5.0):
            post = vb_fit(Zt, yt, PriorSpec(2.0, b_sigma, ridge))
            np.testing.assert_allclose(post.m_star, target, atol=1e-8)

    def test_covariance_is_scaled_gram_inverse(self):
        Zt, yt = _whitened(n=10)
        N, p = Zt.shape
        prior = PriorSpec(2.0, 0.1, 1.0 / N)
        post = vb_fit(Zt, yt, prior)
        M = Zt.T @ Zt + prior.ridge * np.eye(p)
        np.testing.assert_allclose(post.V_star,
                                   (post.b_star / post.a_star)
                                   * np.linalg.inv(M), rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(post.V_star, post.V_star.T)

    def test_scalar_problem_hand_iteration(self):
        """One data point, unit design, zero response: the scale update is
        the affine map b <- 1 + b/6 with fixed point 1.2."""
        post = vb_fit(np.array([[1.0]]), np.array([0.0]),
                      PriorSpec(2.0, 1.0, 1.0), tol=1e-14, max_iters=200)
        assert post.a_star == 3.0
        assert post.b_star == pytest.approx(1.2, rel=1e-12)
        assert post.m_star[0] == 0.0


class TestSpecialFunctions:
    """The objective's digamma and log-gamma without SciPy, against SciPy."""

    def test_digamma_matches_scipy(self):
        xs = np.concatenate([np.geomspace(0.01, 1e8, 2001),
                             np.linspace(0.01, 12.0, 1200),
                             [1.4616321449683622, 10.0, 9.999999999]])
        for x in xs:
            ref = digamma(x)
            assert abs(_digamma(float(x)) - ref) <= 1e-13 * max(1.0, abs(ref)), x

    @pytest.mark.parametrize("n_obs, p, prior", [
        (1, 1, PriorSpec(2.0, 1.0, 1.0)),
        (20, 9, PriorSpec(2.0, 0.37, 1.0 / 20)),
        (15869, 21, PriorSpec(2.0, 1.3e-4, 1.0 / 15869)),
        (10**7, 60, PriorSpec(0.5, 40.0, 1e-7)),
    ])
    def test_objective_constant_matches_scipy_form(self, n_obs, p, prior):
        a_star = prior.a_sigma + n_obs / 2.0 + p / 2.0
        ref = (-0.5 * (n_obs * np.log(2.0 * np.pi)
                       + p * np.log(1.0 / prior.ridge) - p)
               + prior.a_sigma * np.log(prior.b_sigma)
               - gammaln(prior.a_sigma)
               - 2.0 * (a_star + 1.0) * digamma(a_star)
               + gammaln(a_star))
        assert _objective_constant(n_obs, p, prior, a_star) == pytest.approx(
            ref, rel=1e-12)


class TestObjective:
    def test_trace_strictly_increases(self):
        Zt, yt = _whitened(n=25, seed=3)
        post = vb_fit(Zt, yt, PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0]))
        assert post.converged
        trace = np.asarray(post.elbo_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) > 0)

    def test_monotone_across_seeded_datasets(self):
        for seed in range(10):
            data, _ = gen_scenario1(15, np.random.default_rng(100 + seed),
                                    level="weak", shape="trig")
            specs = (make_spec("radial", 2, 2, data.time_domain),)
            Zt, yt = whiten(build_design(data, specs))
            post = vb_fit(Zt, yt, PriorSpec(2.0, 0.05, 1.0 / Zt.shape[0]))
            diffs = np.diff(post.elbo_trace)
            assert np.all(diffs > -1e-8)

    def test_reported_trace_matches_objective_function(self):
        Zt, yt = _whitened(n=10)
        prior = PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0])
        post = vb_fit(Zt, yt, prior)
        assert post.elbo_trace[-1] == pytest.approx(elbo(post, Zt, yt, prior),
                                                    rel=1e-12)

    def test_transcribed_formula_agreement(self):
        """Library objective equals an independent retyping of the same
        closed form on a tiny problem and on a real design."""
        prior = PriorSpec(2.0, 1.0, 1.0)
        Z = np.array([[1.0]])
        y = np.array([0.0])
        post = vb_fit(Z, y, prior, tol=1e-12)
        ref = _reference_objective(Z, y, prior, post.m_star, post.V_star,
                                   post.a_star, post.b_star)
        assert elbo(post, Z, y, prior) == pytest.approx(ref, abs=1e-10)

        Zt, yt = _whitened(n=10)
        prior = PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0])
        post = vb_fit(Zt, yt, prior)
        ref = _reference_objective(Zt, yt, prior, post.m_star, post.V_star,
                                   post.a_star, post.b_star)
        assert elbo(post, Zt, yt, prior) == pytest.approx(ref, rel=1e-12)

    def test_quadratic_bracket_collapses_to_scale(self):
        """At the fixed point the bracketed quadratic form equals b*, so the
        final objective term reduces to -a*."""
        Zt, yt = _whitened(n=12, seed=9)
        N, p = Zt.shape
        prior = PriorSpec(2.0, 0.1, 1.0 / N)
        post = vb_fit(Zt, yt, prior, tol=1e-12)
        M = Zt.T @ Zt + prior.ridge * np.eye(p)
        bracket = prior.b_sigma + 0.5 * (
            yt @ yt - 2.0 * yt @ Zt @ post.m_star
            + post.m_star @ M @ post.m_star + np.trace(M @ post.V_star))
        assert bracket == pytest.approx(post.b_star, rel=1e-10)

    def test_iteration_cap_reports_no_convergence(self):
        Zt, yt = _whitened(n=10)
        post = vb_fit(Zt, yt, PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0]),
                      max_iters=1)
        assert not post.converged

    def test_invalid_arguments(self):
        Zt, yt = _whitened(n=10)
        prior = PriorSpec(2.0, 0.1, 0.01)
        with pytest.raises(ValueError):
            vb_fit(Zt, yt, prior, tol=0.0)
        with pytest.raises(ValueError):
            vb_fit(Zt, yt[:-1], prior)


class TestSampling:
    def test_draw_moments_match_state(self):
        Zt, yt = _whitened(n=15)
        prior = PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0])
        post = vb_fit(Zt, yt, prior)
        draws = vb_sample(post, 50000, rng=4)
        assert draws.source is DrawSource.VARIATIONAL
        se = np.sqrt(np.diag(post.V_star) / 50000)
        err = np.abs(draws.alpha_draws.mean(axis=0) - post.m_star)
        assert np.all(err < 4 * se)
        sig_mean = post.b_star / (post.a_star - 1.0)
        sig_se = sig_mean / np.sqrt((post.a_star - 2.0) * 50000)
        assert abs(draws.sigma2_draws.mean() - sig_mean) < 4 * sig_se

    def test_deterministic_per_seed(self):
        Zt, yt = _whitened(n=8)
        post = vb_fit(Zt, yt, PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0]))
        a = vb_sample(post, 100, rng=9)
        b = vb_sample(post, 100, rng=9)
        np.testing.assert_array_equal(a.alpha_draws, b.alpha_draws)

    def test_state_dict_contract(self):
        Zt, yt = _whitened(n=8)
        post = vb_fit(Zt, yt, PriorSpec(2.0, 0.1, 1.0 / Zt.shape[0]))
        payload = post.to_dict()
        assert payload["a_star"] == post.a_star
        assert payload["converged"] is True
        assert payload["elbo_trace"] == post.elbo_trace.tolist()

    def test_indefinite_covariance_is_numerical_error(self):
        post = VariationalPosterior(np.zeros(2), np.diag([1.0, -1.0]), 3.0, 1.0,
                                    np.zeros(1), True)
        with pytest.raises(NumericalError, match="V_star is not positive definite"):
            vb_sample(post, 10, rng=0)


class TestVariationalPosterior:
    def test_caller_arrays_stay_writeable(self):
        """The state freezes copies that it owns: the caller's arrays stay
        writeable, and writing to them leaves the state unchanged."""
        m, V, trace = np.ones(2), np.eye(2), np.array([-3.0, -2.0])
        post = VariationalPosterior(m, V, 2.0, 1.0, trace, True)
        for mine, theirs in ((m, post.m_star), (V, post.V_star), (trace, post.elbo_trace)):
            assert not theirs.flags.writeable
            before = theirs.copy()
            mine[0] = 9.0
            np.testing.assert_array_equal(theirs, before)
