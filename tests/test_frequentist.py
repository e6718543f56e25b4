"""Weighted least squares fit, diagnostics, and prediction."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from tvcm import LongitudinalDataset, gen_scenario2
from tvcm.basis import basis_matrix, build_design, make_spec
from tvcm.bootstrap import bootstrap_fit
from tvcm.errors import InsufficientDataError, SingularDesignError
from tvcm.frequentist import (CONDITION_LIMIT, GramStats, base_fit, fit_wls, gram_feasible,
                              gram_stats, predict_rows, solve_stats)

from conftest import exact_response_dataset, single_subject


def _intercept_fit():
    data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
    spec = make_spec("tpower", 0, 0, data.time_domain)
    bundle = build_design(data, (spec,))
    return bundle, fit_wls(bundle)


class TestFitWls:
    def test_intercept_only_hand_example(self):
        """Constant fit of y = (1, 2, 3): mean 2, residuals (-1, 0, 1),
        weighted RSS 2/3 over N - p = 2 gives variance 1/3."""
        _, fit = _intercept_fit()
        np.testing.assert_allclose(fit.alpha_hat, [2.0])
        np.testing.assert_allclose(fit.sigma2_hat, 1 / 3)
        np.testing.assert_allclose(fit.residuals, [-1.0, 0.0, 1.0],
                                   atol=1e-12)
        np.testing.assert_allclose(fit.fitted, 2.0)

    def test_noiseless_recovery(self):
        data, _ = gen_scenario2(15, np.random.default_rng(4))
        specs = tuple(make_spec("radial", 2, 1, data.time_domain)
                      for _ in range(3))
        alpha_star = np.random.default_rng(8).standard_normal(
            sum(s.n_terms for s in specs))
        clean = exact_response_dataset(data, specs, alpha_star)
        fit = fit_wls(build_design(clean, specs))
        rel = np.abs(fit.alpha_hat - alpha_star) / np.abs(alpha_star)
        assert rel.max() < 1e-10
        assert fit.sigma2_hat <= 1e-16

    def test_insufficient_rows(self):
        data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
        spec = make_spec("tpower", 2, 0, data.time_domain)  # p = 3 = N
        with pytest.raises(InsufficientDataError):
            fit_wls(build_design(data, (spec,)))

    def test_duplicate_column_is_singular(self):
        t = np.linspace(0.1, 0.9, 8)
        data = LongitudinalDataset(("a",), [8], t, np.sin(t), np.ones((8, 1)),
                                   time_domain=(0.0, 1.0))
        # covariate x1 = 1 duplicates the intercept block exactly
        specs = (make_spec("tpower", 0, 0, data.time_domain),
                 make_spec("tpower", 0, 0, data.time_domain))
        with pytest.raises(SingularDesignError, match="condition"):
            fit_wls(build_design(data, specs))

    def test_weight_rescaling(self):
        """Scaling every weight by c leaves alpha unchanged and scales the
        weighted variance estimate by c."""
        data, _ = gen_scenario2(10, np.random.default_rng(3))
        specs = tuple(make_spec("tpower", 1, 1, data.time_domain)
                      for _ in range(3))
        base = build_design(data, specs)
        scaled = build_design(data, specs, weights=4.0 * base.weights)
        fit_a = fit_wls(base)
        fit_b = fit_wls(scaled)
        np.testing.assert_allclose(fit_b.alpha_hat, fit_a.alpha_hat,
                                   rtol=1e-10)
        np.testing.assert_allclose(fit_b.sigma2_hat, 4.0 * fit_a.sigma2_hat,
                                   rtol=1e-10)

    def test_weighted_normal_equations(self):
        """Residuals are W-orthogonal to the design columns."""
        data, _ = gen_scenario2(12, np.random.default_rng(6))
        specs = tuple(make_spec("radial", 2, 2, data.time_domain)
                      for _ in range(3))
        bundle = build_design(data, specs)
        fit = fit_wls(bundle)
        grad = bundle.Z.T @ (bundle.weights * fit.residuals)
        # columns reach t^2 ~ 1e3 on this domain, so roundoff is ~1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_gram_inverse(self):
        bundle, fit = _intercept_fit()
        gram = bundle.Z.T @ (bundle.weights[:, None] * bundle.Z)
        np.testing.assert_allclose(gram @ fit.gram_inverse,
                                   np.eye(bundle.n_params), atol=1e-12)

    def test_hat_trace_equals_param_count(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            data, _ = gen_scenario2(8, rng)
            specs = tuple(make_spec("radial", 2, 1, data.time_domain)
                          for _ in range(3))
            fit = fit_wls(build_design(data, specs))
            np.testing.assert_allclose(fit.hat_trace, 12.0, atol=1e-8)


class TestPrediction:
    def test_intercept_curve_extraction(self):
        _, fit = _intercept_fit()
        spec = make_spec("tpower", 0, 0, (0.2, 0.8))
        got = predict_rows(fit.alpha_hat, (spec,), np.empty((1, 0)), [0.4])
        assert got[0] == pytest.approx(2.0)

    def test_training_rows_reproduced_when_noiseless(self):
        data, _ = gen_scenario2(10, np.random.default_rng(5))
        specs = tuple(make_spec("radial", 2, 1, data.time_domain)
                      for _ in range(3))
        alpha_star = np.random.default_rng(9).standard_normal(
            sum(s.n_terms for s in specs))
        clean = exact_response_dataset(data, specs, alpha_star)
        fit = fit_wls(build_design(clean, specs))
        got = predict_rows(fit.alpha_hat, specs, clean.covariates, clean.times)
        np.testing.assert_allclose(got, clean.responses, atol=1e-8)

    def test_manual_expansion_matches_predict(self):
        """Independent brute-force expansion of x' beta(t) for one point."""
        data, _ = gen_scenario2(10, np.random.default_rng(5))
        specs = tuple(make_spec("radial", 1, 1, data.time_domain)
                      for _ in range(3))
        fit = fit_wls(build_design(data, specs))
        t, x1, x2 = 7.0, 1.0, 2.5
        a0, a1, a2 = (fit.alpha_hat[0:3], fit.alpha_hat[3:6],
                      fit.alpha_hat[6:9])
        h = specs[0].bandwidth
        kappa = specs[0].knots[0]
        row = np.array([1.0, t, np.exp(-(((t - kappa) / h) ** 2))])
        expected = row @ a0 + x1 * (row @ a1) + x2 * (row @ a2)
        got = predict_rows(fit.alpha_hat, specs, [[x1, x2]], [t])
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_covariate_length_checked(self):
        _, fit = _intercept_fit()
        spec = make_spec("tpower", 0, 0, (0.2, 0.8))
        with pytest.raises(ValueError):
            predict_rows(fit.alpha_hat, (spec,), [[2.0]], [0.4])


class TestGramStats:
    """rss against the explicit residuals it stands for."""

    def test_rss_matches_residual_matrix(self):
        rng = np.random.default_rng(5)
        Z, y = rng.standard_normal((60, 4)), rng.standard_normal(60)
        stats = gram_stats(Z, y, center=rng.standard_normal(4))
        betas = rng.standard_normal((7, 4))
        resid = y[None, :] - betas @ Z.T
        np.testing.assert_allclose(stats.rss(betas), (resid**2).sum(axis=1),
                                   rtol=1e-12)
        assert stats.rss(betas[0]) == pytest.approx(resid[0] @ resid[0],
                                                    rel=1e-12)

    def test_default_center_is_ridge_solution(self):
        rng = np.random.default_rng(6)
        Z, y = rng.standard_normal((30, 3)), rng.standard_normal(30)
        stats = gram_stats(Z, y)
        np.testing.assert_allclose((Z.T @ Z + np.eye(3) / 30) @ stats.center,
                                   Z.T @ y, rtol=1e-12)
        assert stats.rss(stats.center) == stats.resid_sq

    def test_default_center_never_raises(self):
        """A singular Gram matrix gets a finite default center, and one that
        overflows gets the center 0, which gram_feasible then refuses."""
        t = np.linspace(1.0, 2.0, 6)
        singular = gram_stats(np.column_stack([t, t, t**2]), t)
        assert np.isfinite(singular.center).all()
        with np.errstate(over="ignore", invalid="ignore"):
            overflow = gram_stats(np.column_stack([np.ones(6), 1e200 * t]), t)
        np.testing.assert_array_equal(overflow.center, 0.0)
        assert not gram_feasible(overflow.gram[None])[0]

    def test_stacked_rss_with_zero_d_rows(self):
        """Subject statistics summed with copy counts, as a bootstrap
        replicate sums them, against the residuals of the resampled rows;
        a replicate scored at the center (d = 0) gets its e'e exactly."""
        rng = np.random.default_rng(7)
        p, counts = 3, (3, 5, 2, 4)
        blocks = [(rng.standard_normal((c, p)), rng.standard_normal(c))
                  for c in counts]
        center = rng.standard_normal(p)
        subjects = [gram_stats(Z, y, center=center) for Z, y in blocks]
        copies = np.array([[1, 0, 2, 1], [0, 3, 1, 0], [2, 1, 0, 1]], float)

        def summed(name):
            stacked = np.array([getattr(s, name) for s in subjects])
            return np.tensordot(copies, stacked, axes=1)

        reps = GramStats(summed("n_obs"), summed("gram"), center,
                         summed("resid_sq"), summed("lever"))
        betas = rng.standard_normal((3, p))
        betas[1] = center
        expected = []
        for row in copies:
            picked = [i for i, c in enumerate(row) for _ in range(int(c))]
            Z = np.concatenate([blocks[i][0] for i in picked])
            y = np.concatenate([blocks[i][1] for i in picked])
            resid = y - Z @ betas[len(expected)]
            expected.append(resid @ resid)
        got = reps.rss(betas)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert got[1] == reps.resid_sq[1]
        np.testing.assert_array_equal(reps.n_obs, copies @ counts)


class TestBaseFit:
    def test_noiseless_sigma2_is_not_negative(self):
        """On panels the model fits exactly, rss(alpha_hat) is roundoff of
        either sign; sigma2_hat clamps it at 0, as every solve_stats score does."""
        for seed in range(10):
            data, _ = gen_scenario2(30, np.random.default_rng(seed))
            for family in ("radial", "tpower"):
                for k in (0, 2, 4):
                    specs = tuple(make_spec(family, 2, k, data.time_domain) for _ in range(3))
                    alpha = np.random.default_rng(100 + seed).standard_normal(
                        build_design(data, specs).n_params)
                    fit = base_fit(exact_response_dataset(data, specs, alpha), specs)
                    assert 0.0 <= fit.sigma2_hat <= 1e-15, (seed, family, k)


def solve_gram(gram, cross):
    """solve_stats on the normal equations G x = cross: regressions about 0
    with more rows than coefficients; returns (feasible, x)."""
    b, p = cross.shape
    return solve_stats(GramStats(np.full(b, p + 1), gram, np.zeros(p), np.zeros(b), cross))[:2]


def _eig_solve_gram(gram, cross):
    """solve_gram without its Cholesky certificate: the eigenvalue rule on
    every member, the slow and obvious version kept as the test oracle."""
    lam = np.linalg.eigvalsh(gram)
    lo, hi = lam[..., 0], lam[..., -1]
    feasible = (lo > 0) & (hi <= CONDITION_LIMIT * lo)
    alpha = np.full(cross.shape, np.nan)
    alpha[feasible] = np.linalg.solve(gram[feasible], cross[feasible][..., None])[..., 0]
    return feasible, alpha


CONDITIONS = (1.0, 1e6, 1e11, 4.9e11, 5.1e11, 9.9e11, 1.01e12, 1e14)
P = 6


def _with_spectrum(lam, rng):
    """Symmetric matrix with eigenvalues lam in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    g = (q * lam) @ q.T
    return (g + g.T) / 2


def _conditioned(cond, spike, rng):
    """p x p Gram matrix with condition number cond at a random scale.

    A spike spectrum (one large eigenvalue, the rest at lambda_min) has
    tr(G) close to lambda_max, so the certificate's shift sits closest to
    lambda_min there; a geometric spectrum has a larger trace.
    """
    lam = np.full(P, 1.0 / cond) if spike else np.geomspace(1.0 / cond, 1.0, P)
    lam[-1] = 1.0
    return _with_spectrum(lam * 10.0 ** rng.uniform(-6, 6), rng)


def _t_squared_grams(family, rng):
    """Gram matrices of one basis block on weeks 0-120 (columns up to t^2 ~ 1.4e4)."""
    t = np.sort(rng.uniform(0.0, 120.0, 80))
    # radial condition numbers cross 1e12 between 6 and 7 knots
    bases = [basis_matrix(make_spec(family, 2, k, (0.0, 120.0)), t) for k in range(11)]
    return [b.T @ b for b in bases]


def _members():
    """(label, gram) pairs: prescribed conditions, singular, indefinite, t^2 columns."""
    rng = np.random.default_rng(20)
    members = [(f"cond{c:.3g}-{'spike' if spike else 'geom'}", _conditioned(c, spike, rng))
               for c in CONDITIONS for spike in (True, False)]
    zero_row = _conditioned(10.0, False, rng)
    zero_row[2, :] = zero_row[:, 2] = 0.0
    members.append(("zero-row", zero_row))
    a = rng.standard_normal((20, P))
    a[:, 3] = a[:, 1]
    members.append(("duplicate-column", a.T @ a))
    members.append(("indefinite", _with_spectrum(np.array([-1.0, 1e-3, 0.1, 1.0, 2.0, 5.0]), rng)))
    members.append(("negative-definite", -_conditioned(1e3, False, rng)))
    for family in ("radial", "tpower"):
        members += [(f"{family}-t2-p{g.shape[0]}", g) for g in _t_squared_grams(family, rng)]
    return members


MEMBERS = _members()


def _cross(gram, seed=0):
    return np.random.default_rng(seed).standard_normal(gram.shape[:-1])


def _assert_matches_oracle(gram, cross):
    feasible, alpha = solve_gram(gram, cross)
    want_feasible, want_alpha = _eig_solve_gram(gram, cross)
    np.testing.assert_array_equal(feasible, want_feasible)
    assert np.array_equal(alpha[feasible], want_alpha[feasible])
    assert np.isnan(alpha[~feasible]).all()
    return feasible


@pytest.fixture
def eig_calls(monkeypatch):
    """Stack sizes of every np.linalg.eigvalsh call made while the test runs."""
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestSolveGram:
    def test_members_are_what_they_claim(self):
        """The eigenvalue rule puts the prescribed conditions on the side of
        the 1e12 limit they were built for, and every other kind of member
        occurs on the side it should."""
        labels = dict((label, _eig_solve_gram(g[None], _cross(g[None]))[0][0])
                      for label, g in MEMBERS)
        for cond in CONDITIONS:
            for shape in ("spike", "geom"):
                assert labels[f"cond{cond:.3g}-{shape}"] == (cond < CONDITION_LIMIT)
        for label in ("zero-row", "duplicate-column", "indefinite", "negative-definite"):
            assert not labels[label]
        t2 = [ok for label, ok in labels.items() if "-t2-" in label]
        assert any(t2) and not all(t2)

    @pytest.mark.parametrize("label, gram", MEMBERS, ids=[label for label, _ in MEMBERS])
    def test_one_member_stack_matches_oracle(self, label, gram):
        _assert_matches_oracle(gram[None], _cross(gram[None]))

    def test_all_feasible_stack_matches_oracle(self):
        grams = np.array([g for _, g in MEMBERS if g.shape[0] == P])
        feasible, _ = _eig_solve_gram(grams, _cross(grams))
        assert feasible.sum() > 10
        assert _assert_matches_oracle(grams[feasible], _cross(grams[feasible], 1)).all()

    def test_mixed_stack_matches_oracle(self, eig_calls):
        grams = np.array([g for _, g in MEMBERS if g.shape[0] == P])
        feasible = _assert_matches_oracle(grams, _cross(grams))
        assert feasible.any() and not feasible.all()
        assert eig_calls == [len(grams)] * 2  # the fallback and the oracle

    @pytest.mark.parametrize("n", [2, 32, 40])
    def test_well_conditioned_stack_is_certified(self, eig_calls, monkeypatch, n):
        """n members up to cond 1e11 pass one Cholesky call of the whole stack."""
        cholesky_calls = []
        real = np.linalg.cholesky

        def counting(a):
            cholesky_calls.append(len(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        rng = np.random.default_rng(3)
        grams = np.array([_conditioned((1.0, 1e6, 1e11)[i % 3], i % 2 == 0, rng)
                          for i in range(n)])
        feasible, alpha = solve_gram(grams, _cross(grams))
        assert feasible.all() and eig_calls == [] and cholesky_calls == [n]
        assert np.array_equal(alpha, _eig_solve_gram(grams, _cross(grams))[1])

    @pytest.mark.parametrize("n", [2, 32, 40])
    def test_one_singular_member_makes_one_eigendecomposition(self, eig_calls, n):
        """One singular member, the last of an n-member stack, sends the
        whole stack to one eigendecomposition."""
        rng = np.random.default_rng(4)
        grams = np.array([_conditioned(1e3, False, rng) for _ in range(n)])
        grams[n - 1, :, 0] = grams[n - 1, 0, :] = 0.0
        feasible, _ = solve_gram(grams, _cross(grams))
        assert eig_calls == [n]
        np.testing.assert_array_equal(feasible, _eig_solve_gram(grams, _cross(grams))[0])
        assert np.flatnonzero(~feasible).tolist() == [n - 1]

    def test_non_finite_factor_is_no_certificate(self, eig_calls, monkeypatch):
        """A factorisation that returns without raising but with NaN in its
        factor (as numpy's batched Cholesky can) sends the stack to the
        eigenvalue rule."""
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full(a.shape, np.nan))
        rng = np.random.default_rng(6)
        grams = np.array([_conditioned(1e3, False, rng) for _ in range(4)])
        assert _assert_matches_oracle(grams, _cross(grams)).all()
        assert eig_calls == [4, 4]

    def test_bootstrap_makes_no_eigendecomposition(self, eig_calls):
        """A 200-replicate bootstrap on a 100-subject scenario-2 panel is
        certified as one stack; the eigenvalue rule never runs."""
        data, _ = gen_scenario2(100, np.random.default_rng(7))
        specs = tuple(make_spec("radial", 2, k, data.time_domain) for k in (2, 2, 3))
        draws = bootstrap_fit(data, specs, 200, 11)
        assert draws.n_draws == 200
        assert eig_calls == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_members_are_infeasible(self, value):
        """LAPACK's answer on NaN or inf is arbitrary (a 1 x 1 inf matrix has
        eigenvalue inf, which the eigenvalue rule would accept), so such
        members are infeasible, silently."""
        rng = np.random.default_rng(5)
        grams = np.array([_conditioned(1e3, False, rng) for _ in range(5)])
        for b, (i, j) in enumerate([(0, 0), (P - 1, 0), (0, P - 1), (P - 1, P - 1)], start=1):
            grams[b, i, j] = value
        cross = _cross(grams)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feasible, alpha = solve_gram(grams, cross)
            one, one_alpha = solve_gram(np.full((1, 1, 1), value), np.ones((1, 1)))
        assert feasible.tolist() == [True, False, False, False, False]
        assert np.array_equal(alpha[:1], _eig_solve_gram(grams[:1], cross[:1])[1])
        assert np.isnan(alpha[1:]).all()
        assert not one[0] and np.isnan(one_alpha).all()

    def test_empty_stack(self):
        feasible, alpha = solve_gram(np.empty((0, 4, 4)), np.empty((0, 4)))
        assert feasible.shape == (0,) and feasible.dtype == bool
        assert alpha.shape == (0, 4)
