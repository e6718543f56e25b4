"""Weighted least squares fit, diagnostics, and prediction."""
from __future__ import annotations

import numpy as np
import pytest

from tvcm import LongitudinalDataset, gen_scenario2
from tvcm.basis import build_design, make_spec
from tvcm.errors import InsufficientDataError, SingularDesignError
from tvcm.frequentist import fit_wls, predict, predict_rows

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

    def test_to_dict_blocks(self):
        _, fit = _intercept_fit()
        payload = fit.to_dict()
        assert payload["sigma2"] == fit.sigma2_hat
        np.testing.assert_allclose(payload["alpha"]["0"], [2.0])


class TestPrediction:
    def test_intercept_curve_extraction(self):
        _, fit = _intercept_fit()
        spec = make_spec("tpower", 0, 0, (0.2, 0.8))
        assert predict(fit.alpha_hat, (spec,), [1.0], 0.4) == pytest.approx(2.0)

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
        got = predict(fit.alpha_hat, specs, [1.0, x1, x2], t)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_covariate_length_checked(self):
        _, fit = _intercept_fit()
        spec = make_spec("tpower", 0, 0, (0.2, 0.8))
        with pytest.raises(ValueError):
            predict(fit.alpha_hat, (spec,), [1.0, 2.0], 0.4)
