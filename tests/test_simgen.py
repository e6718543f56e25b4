"""Synthetic data generators and the replication harness."""
from __future__ import annotations

import numpy as np
import pytest

import tvcm.simgen
from tvcm import gen_scenario1, gen_scenario2, run_replications
from tvcm.engines import fit_engine
from tvcm.errors import NumericalError, SelectionError, SingularDesignError
from tvcm.simgen import (
    SCENARIO1_LEVELS,
    SCENARIO1_SIGMA2,
    SCENARIO2_ERROR_VAR,
    SCENARIO2_SCHEDULE,
    SimReport,
    scenario1_beta0,
    scenario2_betas,
)

from conftest import by_subject


def _loop_scenario1(n, seed, m=30, missing_rate=0.5, level="weak",
                    shape="exp"):
    """Reference scenario 1: every subject's curve, process and noise
    computed inside its own loop step.  Returns (times, responses, truth)."""
    beta0 = scenario1_beta0(shape)
    sigma0 = np.sqrt(SCENARIO1_LEVELS[level])
    sigma = np.sqrt(SCENARIO1_SIGMA2)
    schedule = np.arange(1, m + 1) / (m + 1)
    times, responses, truths = [], [], []
    for i, child in enumerate(np.random.default_rng(seed).spawn(n), start=1):
        while True:
            keep = child.random(m) >= missing_rate
            if keep.any():
                break
        a = child.standard_normal(3) * np.array([sigma0, sigma, sigma])
        t = schedule[keep]
        noise_sd = sigma * (1.0 - np.exp(-0.5 * t - i / n))
        eps = child.standard_normal(t.size) * noise_sd
        process = (a[0] + a[1] * np.cos(2.0 * np.pi * t)
                   + a[2] * np.sin(2.0 * np.pi * t))
        truth = beta0(t)
        times.append(t)
        responses.append(truth + process + eps)
        truths.append(truth)
    return tuple(map(np.concatenate, (times, responses, truths)))


# ---------------------------------------------------------------------------
# Scenario 1
# ---------------------------------------------------------------------------


class TestScenario1:
    def test_deterministic_per_seed(self):
        a, _ = gen_scenario1(5, np.random.default_rng(3))
        b, _ = gen_scenario1(5, np.random.default_rng(3))
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.responses, b.responses)

    def test_visit_masks_stable_under_growth(self):
        """Adding subjects must not disturb earlier subjects' substreams.

        Responses cannot match across different n because the noise scale
        depends on i/n, but the retained visit times must."""
        small, _ = gen_scenario1(3, np.random.default_rng(8))
        big, _ = gen_scenario1(6, np.random.default_rng(8))
        np.testing.assert_array_equal(small.counts, big.counts[:3])
        np.testing.assert_array_equal(small.times, big.times[:small.n_obs])

    @pytest.mark.parametrize("n, kwargs", [
        (1, {}),
        (7, {"m": 6, "level": "high", "shape": "trig"}),
        (50, {}),
        (133, {"missing_rate": 0.9, "m": 4, "level": "medium"}),
        (1000, {"missing_rate": 0.0, "shape": "trig"}),
    ])
    def test_stacked_arrays_equal_subject_loop(self, n, kwargs):
        """Times, responses and truth bit for bit equal the per-subject
        loop: the stacked math keeps every subject's draws and operations."""
        data, truth = gen_scenario1(n, np.random.default_rng(n), **kwargs)
        times, responses, curve = _loop_scenario1(n, n, **kwargs)
        np.testing.assert_array_equal(data.times, times)
        np.testing.assert_array_equal(data.responses, responses)
        np.testing.assert_array_equal(truth.curves[0], curve)

    def test_full_schedule_when_nothing_missing(self):
        data, _ = gen_scenario1(4, np.random.default_rng(1), m=6,
                                missing_rate=0.0)
        expected = np.arange(1, 7) / 7.0
        for times in by_subject(data, data.times):
            np.testing.assert_allclose(times, expected)
        assert data.time_domain == (0.0, 1.0)

    def test_every_subject_keeps_at_least_one_point(self):
        """The retention mask is redrawn until non-empty, so aggressive
        missingness never produces an empty subject."""
        data, _ = gen_scenario1(50, np.random.default_rng(5), m=3,
                                missing_rate=0.97)
        assert data.n_subjects == 50
        assert min(data.counts) >= 1

    def test_truth_tabulates_intercept_curve(self):
        for shape in ("exp", "trig"):
            data, truth = gen_scenario1(6, np.random.default_rng(2),
                                        shape=shape)
            curve = scenario1_beta0(shape)
            np.testing.assert_allclose(truth.curves[0], curve(data.times),
                                       atol=1e-12)
            assert truth.curves[0].size == data.n_obs

    def test_level_table(self):
        assert SCENARIO1_LEVELS == {"weak": 0.01, "medium": 0.04,
                                    "high": 0.09}

    def test_pointwise_variance_against_closed_form(self):
        """Monte Carlo variance of the response at fixed design points must
        match the sum of the random-curve and noise variances.

        With one subject and no missingness the response at time t is
        a0 + a1 cos(2 pi t) + a2 sin(2 pi t) + eps(t), so its variance is
        sigma0^2 + 0.01 cos^2 + 0.01 sin^2 + 0.01 (1 - e^(-t/2 - 1))^2.
        """
        reps = 20000
        root = np.random.default_rng(616)
        m = 3
        t = np.arange(1, m + 1) / (m + 1)
        samples = np.empty((reps, m))
        for r in range(reps):
            data, truth = gen_scenario1(1, root.spawn(1)[0], m=m,
                                        missing_rate=0.0, level="weak",
                                        shape="exp")
            samples[r] = data.responses - truth.curves[0]
        got = samples.var(axis=0, ddof=1)
        sigma0_sq = SCENARIO1_LEVELS["weak"]
        noise = SCENARIO1_SIGMA2 * (1.0 - np.exp(-t / 2.0 - 1.0)) ** 2
        expected = (sigma0_sq + 0.01 * np.cos(2 * np.pi * t) ** 2
                    + 0.01 * np.sin(2 * np.pi * t) ** 2 + noise)
        se = expected * np.sqrt(2.0 / (reps - 1))
        assert np.all(np.abs(got - expected) < 3 * se)


# ---------------------------------------------------------------------------
# Scenario 2
# ---------------------------------------------------------------------------


class TestScenario2:
    def test_curve_values_at_midpoint(self):
        b0, b1, b2 = scenario2_betas()
        assert b0(30.0) == pytest.approx(10.0)
        assert b1(30.0) == pytest.approx(-1.8)
        assert b2(30.0) == pytest.approx(0.25)

    def test_times_are_retained_integer_visits(self):
        data, _ = gen_scenario2(12, np.random.default_rng(0))
        assert data.time_domain == (0.0, 31.0)
        for times in by_subject(data, data.times):
            assert np.all(np.isin(times, SCENARIO2_SCHEDULE))
            assert np.all(np.diff(times) >= 1.0)

    def test_covariates_constant_within_subject(self):
        data, _ = gen_scenario2(40, np.random.default_rng(6))
        x1_values = set()
        for x in by_subject(data, data.covariates):
            assert np.all(x[:, 0] == x[0, 0])
            assert np.all(x[:, 1] == x[0, 1])
            x1_values.add(float(x[0, 0]))
        assert x1_values <= {0.0, 1.0}

    def test_truth_tabulates_all_three_curves(self):
        data, truth = gen_scenario2(9, np.random.default_rng(2))
        for curve, fn in zip(truth.curves, scenario2_betas()):
            np.testing.assert_allclose(curve, fn(data.times), atol=1e-12)

    def test_truth_ranges_positive(self):
        _, truth = gen_scenario2(9, np.random.default_rng(2))
        assert all(r > 0 for r in truth.ranges())

    def test_error_process_lag_one_correlation(self):
        """Unit-lag residual pairs within subjects must show correlation
        close to e^-1 under the exponential covariance."""
        data, truth = gen_scenario2(7000, np.random.default_rng(99))
        b = np.column_stack(truth.curves)
        x = np.column_stack([np.ones(data.n_obs), data.covariates])
        eps = data.responses - np.sum(x * b, axis=1)
        first, second = [], []
        for times, e in zip(by_subject(data, data.times),
                            by_subject(data, eps)):
            unit = np.flatnonzero(np.diff(times) == 1.0)
            first.append(e[unit])
            second.append(e[unit + 1])
        first, second = np.concatenate(first), np.concatenate(second)
        assert first.size > 30000
        corr = np.corrcoef(first, second)[0, 1]
        se = (1.0 - np.exp(-2.0)) / np.sqrt(first.size)
        assert abs(corr - np.exp(-1.0)) < 3 * se

    def test_error_variance_scale(self):
        data, truth = gen_scenario2(4000, np.random.default_rng(31))
        b = np.column_stack(truth.curves)
        x = np.column_stack([np.ones(data.n_obs), data.covariates])
        eps = data.responses - np.sum(x * b, axis=1)
        var = eps.var(ddof=1)
        se = SCENARIO2_ERROR_VAR * np.sqrt(2.0 / (eps.size - 1))
        # residuals are correlated within subjects, hence the wide cushion
        assert abs(var - SCENARIO2_ERROR_VAR) < 10 * se

    def test_deterministic_per_seed(self):
        a, _ = gen_scenario2(5, np.random.default_rng(4))
        b, _ = gen_scenario2(5, np.random.default_rng(4))
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.responses, b.responses)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_subject_substreams_stable_under_growth(self):
        """Unlike scenario 1 nothing here depends on n, so the first
        subjects of a larger panel reproduce the smaller panel exactly."""
        small, _ = gen_scenario2(4, np.random.default_rng(14))
        big, _ = gen_scenario2(9, np.random.default_rng(14))
        rows = small.n_obs
        np.testing.assert_array_equal(small.counts, big.counts[:4])
        np.testing.assert_array_equal(small.times, big.times[:rows])
        np.testing.assert_array_equal(small.responses, big.responses[:rows])
        np.testing.assert_array_equal(small.covariates,
                                      big.covariates[:rows])


# ---------------------------------------------------------------------------
# Replication harness
# ---------------------------------------------------------------------------


class TestRunReplications:
    def test_single_replication_deterministic(self, tmp_path):
        """Everything except wall time is reproducible at a fixed seed."""
        kwargs = dict(scenario=1, n=8, reps=1, rng=5, engines=("wls",),
                      families=("radial",), degree=2, k_max=2, level="weak",
                      shape="trig")
        a = run_replications(**kwargs)
        b = run_replications(**kwargs)

        def strip_timing(rows):
            return [{k: v for k, v in row.items() if k != "millis"}
                    for row in rows]

        assert strip_timing(a.rows) == strip_timing(b.rows)
        path = tmp_path / "report.csv"
        a.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rep,seed,engine,basis,knots,metric,millis,status"
        assert len(lines) == 2

    def test_row_grid_covers_engines_and_bases(self):
        """millis is 1000 * sampling_seconds, which a wls fit without draws
        leaves at 0.0, so its rows read exactly 0.0."""
        report = run_replications(scenario=1, n=8, reps=2, rng=5,
                                  engines=("wls",),
                                  families=("radial", "tpower"), degree=2,
                                  k_max=2, level="weak", shape="trig")
        assert len(report.rows) == 4
        assert report.failures == 0
        for row in report.rows:
            assert row["status"] == "ok"
            assert row["metric"] >= 0.0
            assert row["millis"] == 0.0

    def test_failures_recorded_not_raised(self):
        """One subject cannot support a degree-25 polynomial, so every cell
        fails; the harness records the error type and keeps going."""
        report = run_replications(scenario=1, n=1, reps=2, rng=5,
                                  engines=("wls",), families=("radial",),
                                  degree=25, k_max=0, level="weak",
                                  shape="trig")
        assert report.failures == len(report.rows) == 2
        for row in report.rows:
            assert row["status"] != "ok"
            assert np.isnan(row["metric"])

    def test_summary_quartiles(self):
        report = run_replications(scenario=2, n=10, reps=3, rng=7,
                                  engines=("wls",), families=("radial",),
                                  degree=2, k_max=1)
        cell = report.summary()["cells"]["wls/radial"]
        assert cell["n_ok"] == 3
        vals = [row["metric"] for row in report.rows]
        assert cell["q1"] <= cell["median"] <= cell["q3"]
        assert cell["median"] == pytest.approx(float(np.median(vals)))

    def test_summary_quantiles_are_numpy_linear(self):
        """Quartiles and median from one sort equal np.quantile's 'linear'
        method bit for bit, and the mean is that of the rows in order, for
        every cell size from 1 to 60, with ties and signed zeros."""
        gen = np.random.default_rng(12)
        for size in range(1, 61):
            vals = gen.standard_normal(size)
            vals[gen.random(size) < 0.2] = 0.25
            vals[gen.random(size) < 0.1] = -0.0
            rows = [{"engine": "wls", "basis": "radial", "metric": float(v),
                     "millis": 1.0, "status": "ok"} for v in vals]
            cell = SimReport(rows, {}).summary()["cells"]["wls/radial"]
            want = np.quantile(vals, [0.25, 0.5, 0.75], method="linear")
            got = np.array([cell["q1"], cell["median"], cell["q3"]])
            assert got.tobytes() == want.tobytes(), size
            assert cell["mean"] == float(vals.mean())

    def test_metric_definitions_by_scenario(self):
        """Scenario 1 scores the intercept curve squared error; scenario 2
        scores the range-scaled absolute deviation of all three curves."""
        r1 = run_replications(scenario=1, n=8, reps=1, rng=3,
                              engines=("wls",), families=("radial",),
                              degree=2, k_max=1, level="weak", shape="trig")
        r2 = run_replications(scenario=2, n=10, reps=1, rng=3,
                              engines=("wls",), families=("radial",),
                              degree=2, k_max=1)
        assert r1.params["metric"] == "amse"
        assert r2.params["metric"] == "made"


def _strip_millis(rows):
    return [{k: v for k, v in row.items() if k != "millis"} for row in rows]


class TestSharedBaseFit:
    """run_replications builds each family's base fit once for all its
    engines; the oracle is fit_engine building its own for every engine."""

    @pytest.fixture
    def per_engine(self, monkeypatch):
        def without_base(*args, base, **kwargs):
            return fit_engine(*args, **kwargs)

        def run(**kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(tvcm.simgen, "fit_engine", without_base)
                return run_replications(**kwargs)
        return run

    @pytest.mark.parametrize("scenario, n", [(1, 12), (2, 10)])
    def test_rows_equal_per_engine_fits(self, per_engine, scenario, n):
        kwargs = dict(scenario=scenario, n=n, reps=2, rng=4,
                      engines=("wls", "gibbs", "vb"),
                      families=("radial", "tpower"), k_max=2, draws=30,
                      burnin=10)
        shared = run_replications(**kwargs)
        oracle = per_engine(**kwargs)
        assert shared.failures == oracle.failures == 0
        assert _strip_millis(shared.rows) == _strip_millis(oracle.rows)
        assert len(shared.rows) == 12

    @pytest.mark.parametrize("stage, error", [
        ("knot_search", SelectionError), ("base_fit", SingularDesignError)])
    def test_failed_base_fit_keeps_later_streams(self, monkeypatch, stage,
                                                  error):
        """A family whose knot search or base fit raises records one failed
        row per engine with the error's type; each engine still takes its
        stream, so the next family's Bayesian rows match a run where
        nothing failed."""
        kwargs = dict(scenario=1, n=12, reps=1, rng=6,
                      engines=("wls", "gibbs", "vb"),
                      families=("radial", "tpower"), k_max=2, draws=30,
                      burnin=10)
        clean = run_replications(**kwargs)
        real = getattr(tvcm.simgen, stage)

        def failing_radial(data, arg, *args, **kwargs):
            family = arg if stage == "knot_search" else arg[0].family
            if family == "radial":
                raise error("patched")
            return real(data, arg, *args, **kwargs)

        monkeypatch.setattr(tvcm.simgen, stage, failing_radial)
        report = run_replications(**kwargs)
        assert report.failures == 3
        assert report.failures == sum(r["status"] != "ok" for r in report.rows)
        assert [(r["engine"], r["basis"], r["status"]) for r in report.rows[:3]] == [
            (e, "radial", error.__name__) for e in ("wls", "gibbs", "vb")]
        assert all(np.isnan(r["metric"]) for r in report.rows[:3])
        assert _strip_millis(report.rows[3:]) == _strip_millis(clean.rows[3:])

    def test_failed_engine_fit_keeps_other_rows(self, monkeypatch):
        """An engine fit that raises records its error type in its own row,
        with no knots and a NaN metric; every other row stays ok and equal
        to a run where nothing failed."""
        kwargs = dict(scenario=1, n=12, reps=1, rng=6,
                      engines=("wls", "gibbs", "vb"),
                      families=("radial", "tpower"), k_max=2, draws=30,
                      burnin=10)
        clean = run_replications(**kwargs)

        def failing_gibbs(data, specs, engine, **kwargs):
            if engine == "gibbs" and specs[0].family == "radial":
                raise NumericalError("patched")
            return fit_engine(data, specs, engine, **kwargs)

        monkeypatch.setattr(tvcm.simgen, "fit_engine", failing_gibbs)
        report = run_replications(**kwargs)
        assert report.failures == 1
        failed = report.rows[1]
        assert (failed["engine"], failed["basis"], failed["status"], failed["knots"]) == (
            "gibbs", "radial", "NumericalError", "")
        assert np.isnan(failed["metric"]) and np.isnan(failed["millis"])
        others = report.rows[:1] + report.rows[2:]
        assert all(r["status"] == "ok" for r in others)
        assert _strip_millis(others) == _strip_millis(clean.rows[:1] + clean.rows[2:])
