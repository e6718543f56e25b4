"""Shared front end dispatching to the three inference engines."""
from __future__ import annotations

import dataclasses
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcm import LongitudinalDataset, gen_scenario1, gen_scenario2, ingest_csv
from tvcm.basis import build_design, make_spec
from tvcm.bootstrap import DrawSource, bootstrap_fit
from tvcm.engines import ENGINES, fit_engine
from tvcm.errors import SingularDesignError, TvcmError
from tvcm.frequentist import fit_wls, gram_stats
from tvcm.mcmc import dic, dic_from_stats, whiten
from tvcm.selection import knot_search

from conftest import forbid_qr


def _panel(name, demo_csv):
    if name == "scenario1":
        data, _ = gen_scenario1(50, np.random.default_rng(3))
        return data, (make_spec("radial", 2, 3, data.time_domain),)
    if name == "scenario2":
        data, _ = gen_scenario2(100, np.random.default_rng(3))
        return data, tuple(make_spec("radial", 2, 4, data.time_domain)
                           for _ in range(3))
    data = ingest_csv(demo_csv)
    family, k = ("tpower", 3) if name == "demo-tpower" else ("radial", 2)
    return data, tuple(make_spec(family, 2, k, data.time_domain)
                       for _ in range(data.covariate_dim + 1))


@pytest.fixture(scope="module")
def small_problem():
    data, _ = gen_scenario2(15, np.random.default_rng(11))
    specs = tuple(make_spec("radial", 2, 1, data.time_domain)
                  for _ in range(3))
    return data, specs


class TestFitEngine:
    def test_wls_without_draws(self, small_problem):
        data, specs = small_problem
        result = fit_engine(data, specs, "wls")
        assert result.engine == "wls"
        assert result.draws is None
        assert result.sampling_seconds == 0.0
        qr = fit_wls(build_design(data, specs)).alpha_hat
        assert np.abs(result.alpha - qr).max() <= 1e-9 * np.abs(qr).max()

    def test_wls_with_bootstrap_draws(self, small_problem):
        data, specs = small_problem
        result = fit_engine(data, specs, "wls", rng=3, draws=25)
        assert result.draws is not None
        assert result.draws.source is DrawSource.BOOTSTRAP
        assert result.draws.n_draws == 25
        assert result.sampling_seconds > 0.0

    def test_wls_draws_equal_direct_bootstrap(self, small_problem):
        """Handing the checked design to the bootstrap leaves its streams
        and draws exactly as a direct bootstrap_fit call makes them."""
        data, specs = small_problem
        result = fit_engine(data, specs, "wls", rng=3, draws=25)
        direct = bootstrap_fit(data, specs, 25, 3)
        np.testing.assert_array_equal(result.draws.alpha_draws,
                                      direct.alpha_draws)
        np.testing.assert_array_equal(result.draws.sigma2_draws,
                                      direct.sigma2_draws)

    def test_wls_reports_bootstrap_attempts(self):
        """Six one-visit subjects under a degree-4 polynomial force redraws;
        extra counts them from the draws' attempts."""
        data = LongitudinalDataset([f"s{i}" for i in range(6)], [1] * 6,
                                   np.arange(6) / 5, np.arange(6.0),
                                   np.empty((6, 0)))
        specs = (make_spec("tpower", 4, 0, data.time_domain),)
        result = fit_engine(data, specs, "wls", rng=0, draws=10)
        attempts = bootstrap_fit(data, specs, 10, 0).attempts
        assert attempts > 10
        assert result.extra["bootstrap"] == {"attempts": attempts,
                                             "redraws": attempts - 10}

    def test_gibbs_point_estimate_is_draw_mean(self, small_problem):
        data, specs = small_problem
        result = fit_engine(data, specs, "gibbs", rng=4, draws=300,
                            burnin=50)
        assert result.draws.source is DrawSource.GIBBS
        np.testing.assert_allclose(result.alpha,
                                   result.draws.alpha_draws.mean(axis=0))
        assert "prior" in result.extra

    def test_vb_point_estimate_is_variational_mean(self, small_problem):
        data, specs = small_problem
        result = fit_engine(data, specs, "vb", rng=4, draws=300)
        assert result.draws.source is DrawSource.VARIATIONAL
        post = result.extra["posterior"]
        assert post["converged"] is True
        np.testing.assert_allclose(result.alpha, post["m_star"])

    def test_gibbs_and_vb_agree_on_point_estimates(self, small_problem):
        """Both posterior means sit on the same ridge solution, so they
        should be close even with modest chain length."""
        data, specs = small_problem
        g = fit_engine(data, specs, "gibbs", rng=1, draws=2000, burnin=300)
        v = fit_engine(data, specs, "vb", rng=1, draws=10)
        scale = np.abs(v.alpha).max()
        assert np.abs(g.alpha - v.alpha).max() < 0.05 * scale

    def test_deterministic_per_seed(self, small_problem):
        data, specs = small_problem
        a = fit_engine(data, specs, "gibbs", rng=7, draws=100, burnin=10)
        b = fit_engine(data, specs, "gibbs", rng=7, draws=100, burnin=10)
        np.testing.assert_array_equal(a.draws.alpha_draws,
                                      b.draws.alpha_draws)

    @pytest.mark.parametrize("engine", ["gibbs", "vb"])
    def test_whitened_design_is_the_fresh_one(self, small_problem, engine):
        """The carried statistics are those of a freshly built and whitened
        design, and DIC from them equals DIC from the rebuilt ones, bit for
        bit."""
        data, specs = small_problem
        result = fit_engine(data, specs, engine, rng=2, draws=200, burnin=20)
        z_t, y_t = whiten(build_design(data, specs))
        fresh = gram_stats(z_t, y_t)
        for name in ("n_obs", "gram", "center", "resid_sq", "lever"):
            np.testing.assert_array_equal(getattr(result.stats, name),
                                          getattr(fresh, name))
        assert dic_from_stats(result.draws, result.stats) == dic_from_stats(result.draws, fresh)

    @pytest.mark.parametrize("engine", ["gibbs", "vb"])
    def test_dic_from_fit_stats_equals_public_dic(self, demo_csv, engine):
        data, specs = _panel("demo-tpower", demo_csv)
        result = fit_engine(data, specs, engine, rng=4, draws=1000,
                            burnin=100)
        value, p_dic = dic_from_stats(result.draws, result.stats)
        pub_value, pub_p = dic(result.draws,
                               *whiten(build_design(data, specs)))
        assert value == pytest.approx(pub_value, rel=1e-12)
        assert abs(p_dic - pub_p) <= 1e-9

    def test_wls_carries_no_whitened_design(self, small_problem):
        """wls keeps the same p x p Gram statistics as the Bayesian engines,
        not the N-row whitened design they were formed from."""
        data, specs = small_problem
        result = fit_engine(data, specs, "wls", rng=3, draws=10)
        z_t, y_t = whiten(build_design(data, specs))
        fresh = gram_stats(z_t, y_t)
        for name in ("n_obs", "gram", "center", "resid_sq", "lever"):
            value = getattr(result.stats, name)
            np.testing.assert_array_equal(value, getattr(fresh, name))
            assert np.ndim(value) == 0 or y_t.size not in np.shape(value)

    @pytest.mark.parametrize("panel", ["scenario1", "scenario2",
                                       "demo-tpower", "demo-radial"])
    def test_bayesian_sigma2_matches_qr_fit(self, panel, demo_csv,
                                            monkeypatch):
        """gibbs and vb take sigma2_hat and their prior from the Gram
        statistics, never from a QR factorisation, and agree with the QR
        fit to 1e-12."""
        data, specs = _panel(panel, demo_csv)
        qr = fit_wls(build_design(data, specs))
        forbid_qr(monkeypatch)
        for engine in ("gibbs", "vb"):
            result = fit_engine(data, specs, engine, rng=1, draws=20,
                                burnin=5)
            assert result.sigma2_hat == pytest.approx(qr.sigma2_hat,
                                                      rel=1e-12)
            prior = result.extra["prior"]
            assert prior["b_sigma"] == result.sigma2_hat
            assert prior["ridge"] == 1.0 / qr.n_obs

    @pytest.mark.parametrize("panel", ["scenario1", "scenario2",
                                       "demo-tpower", "demo-radial"])
    def test_wls_matches_qr_fit(self, panel, demo_csv, monkeypatch):
        """The wls estimate comes from the Gram statistics, with no QR
        factorisation, within 1e-9 of the QR oracle's (relative to the
        largest coefficient) and sigma2_hat within 1e-12."""
        data, specs = _panel(panel, demo_csv)
        qr = fit_wls(build_design(data, specs))
        forbid_qr(monkeypatch)
        result = fit_engine(data, specs, "wls")
        scale = np.abs(qr.alpha_hat).max()
        assert np.abs(result.alpha - qr.alpha_hat).max() <= 1e-9 * scale
        assert result.sigma2_hat == pytest.approx(qr.sigma2_hat, rel=1e-12)

    @pytest.mark.parametrize("scale, degree, knots", [
        (1, 2, 4), (7, 2, 4), (30, 2, 4), (365, 2, 4),
        (1, 12, 2), (7, 12, 2), (30, 12, 2), (365, 12, 2),
    ], ids=["1", "7", "30", "365", "1-degree12", "7-degree12",
            "30-degree12", "365-degree12"])
    @pytest.mark.parametrize("family", ["radial", "tpower"])
    def test_error_types_match_across_engines(self, demo_csv, scale,
                                              degree, knots, family):
        """With the demo panel's weeks rescaled, every engine and the
        public bootstrap either fit the design or refuse it as singular,
        and all the same way; none breaks down with a NumericalError, not
        even at degree 12, where the ridge factorisation fails in weeks."""
        demo = ingest_csv(demo_csv)
        data = LongitudinalDataset(demo.subject_ids, demo.counts,
                                   demo.times * scale, demo.responses,
                                   demo.covariates)
        specs = tuple(make_spec(family, degree, knots, data.time_domain)
                      for _ in range(data.covariate_dim + 1))
        fits = [lambda e=e: fit_engine(data, specs, e, draws=10, burnin=5)
                for e in ENGINES]
        fits.append(lambda: bootstrap_fit(data, specs, 5, 0))
        outcomes = set()
        for fit in fits:
            try:
                fit()
                outcomes.add(None)
            except TvcmError as exc:
                outcomes.add(type(exc))
        assert len(outcomes) == 1
        assert outcomes <= {None, SingularDesignError}

    @pytest.mark.parametrize("engine", ["gibbs", "vb"])
    def test_response_unit_scales_the_posterior(self, demo_csv, engine):
        """y -> c y on the noisy demo panel: the point scales by c and the
        sigma2 draws by c^2, within 1e-9 of the largest value, and no
        zero-variance warning fires, down to c = 1e-7."""
        demo = ingest_csv(demo_csv)
        specs = tuple(make_spec("radial", 2, 2, demo.time_domain)
                      for _ in range(demo.covariate_dim + 1))

        def fit(c):
            data = LongitudinalDataset(demo.subject_ids, demo.counts, demo.times,
                                       demo.responses * c, demo.covariates)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = fit_engine(data, specs, engine, rng=3, draws=500, burnin=100)
            return result.alpha, result.draws.sigma2_draws

        point, sigma2 = fit(1.0)
        for c in (1e3, 1e-3, 1e-5, 1e-7):
            got_point, got_sigma2 = fit(c)
            for got, want in ((got_point, c * point), (got_sigma2, c * c * sigma2)):
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), c

    @pytest.mark.parametrize("engine", ENGINES)
    def test_singular_design_raises_for_every_engine(self, demo_csv,
                                                     engine):
        """The demo panel in weeks makes radial k=4 singular; the Gram rule
        of the Bayesian engines refuses it as the QR fit does."""
        data = ingest_csv(demo_csv)
        specs = tuple(make_spec("radial", 2, 4, data.time_domain)
                      for _ in range(data.covariate_dim + 1))
        with pytest.raises(SingularDesignError):
            fit_engine(data, specs, engine, draws=10, burnin=5)

    def test_unknown_engine(self, small_problem):
        data, specs = small_problem
        with pytest.raises(ValueError):
            fit_engine(data, specs, "stan")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_draws_rejected(self, small_problem, engine):
        data, specs = small_problem
        with pytest.raises(ValueError, match="draws.*-5"):
            fit_engine(data, specs, engine, draws=-5)

    def test_engine_registry(self):
        assert ENGINES == ("wls", "gibbs", "vb")


def _outcome(run):
    """run()'s value, or the type of the TvcmError it raised."""
    try:
        return run()
    except TvcmError as exc:
        return type(exc)


def _close(got, want, scale=None) -> bool:
    """got within 1e-9 of scale, by default the largest magnitude in want."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.max(np.abs(want)) if scale is None else scale
    return np.max(np.abs(got - want), initial=0.0) <= 1e-9 * scale


def _quantities(result) -> dict:
    """An engine fit's quantities by name: its point alpha, any alpha draws,
    its sigma2 (base_fit's without draws, else the draws) and, for gibbs and
    vb, DIC and p_DIC."""
    if result.draws is None:
        return {"alpha": result.alpha, "sigma2": result.sigma2_hat}
    found = {"alpha": result.alpha, "draws": result.draws.alpha_draws, "sigma2": result.draws.sigma2_draws}
    if result.engine != "wls":
        found["dic"], found["p_dic"] = dic_from_stats(result.draws, result.stats)
    return found


def _run(data, family, row):
    """Knot search at degree 2 and the row's k_max, then each of the row's
    engine steps on the selected knots at seed 5.  Returns the knots, which
    candidates are infeasible, and each step's quantities (the search's are
    the feasible PCVs) or the type of the TvcmError the step raised."""
    best, table = knot_search(data, family, 2, row.k_max, "full")
    pcv = np.array([entry["pcv"] for entry in table])
    specs = tuple(make_spec(family, 2, k, data.time_domain) for k in best)
    steps = {name: _outcome(lambda: _quantities(fit_engine(data, specs, engine, rng=5, draws=draws, burnin=20)))
             for name, engine, draws in row.steps}
    return best, ~np.isfinite(pcv), {"search": {"pcv": pcv[np.isfinite(pcv)]}, **steps}


def _times(k):
    """c^k times the base value, judged on the largest magnitude wanted."""
    return lambda value, c, n_obs: (c ** k * value, np.max(np.abs(c ** k * value)))


def _dic_shift(value, c, n_obs):
    """DIC moves by N log c^2, judged on the larger of the two DICs."""
    want = value + n_obs * np.log(c * c)
    return want, max(abs(value), abs(want))


class Transform(NamedTuple):
    """apply(data, c) transforms a panel by c, drawn from factor.  The knot
    search runs at k_max, then each (name, engine, draws) step.  expect maps
    each compared quantity to a function of (base value, c, N) that gives
    the transformed side's wanted value and the scale of its 1e-9 bound."""
    apply: Callable
    factor: st.SearchStrategy
    k_max: int
    steps: tuple
    expect: dict


# Subject reversal is not a row yet.  On near-singular designs it moves the
# WLS alpha by more than 1e-9 of its largest entry (scenario 2, 3 subjects,
# seed 1, radial: 1.12e-9 with cond(G) = 7.5e11), so as a row it fails;
# test_subject_order_property, whose examples miss such panels, stays as it is.
TRANSFORMS = {
    # y -> c y, c from 1e-6 to 1e6: alphas scale by c, PCV and sigma2 by
    # c^2, DIC moves by N log c^2 and p_DIC is unchanged
    "response-scale": Transform(
        lambda data, c: dataclasses.replace(data, responses=data.responses * c),
        st.floats(-6.0, 6.0).map(lambda log_c: 10.0 ** log_c), 2,
        (("wls", "wls", 0), ("bootstrap", "wls", 60), ("gibbs", "gibbs", 200), ("vb", "vb", 200)),
        {"pcv": _times(2), "alpha": _times(1), "draws": _times(1), "sigma2": _times(2),
         "dic": _dic_shift, "p_dic": _times(0)}),
}


@pytest.mark.parametrize("name", TRANSFORMS)
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(scenario=st.sampled_from([1, 2]), n=st.integers(3, 10), panel_seed=st.integers(0, 2**16),
       family=st.sampled_from(["radial", "tpower"]), draw=st.data())
def test_metamorphic_property(name, scenario, n, panel_seed, family, draw):
    """A row of TRANSFORMS on a small scenario-1 or -2 panel: the selected
    knots and the infeasible candidates are unchanged, and each quantity the
    row compares is its wanted value within 1e-9 of its scale.  A step that
    raises raises the same TvcmError on both sides."""
    row = TRANSFORMS[name]
    c = draw.draw(row.factor, label="c")
    data, _ = (gen_scenario1 if scenario == 1 else gen_scenario2)(n, np.random.default_rng(panel_seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a near-exact base fit's zero-variance warning
        base, moved = [_outcome(lambda: _run(side, family, row)) for side in (data, row.apply(data, c))]
    if isinstance(base, type):
        assert moved is base
        return
    (knots, infeasible, steps), (knots_m, infeasible_m, steps_m) = base, moved
    assert knots_m == knots
    np.testing.assert_array_equal(infeasible_m, infeasible)
    for step, found in steps.items():
        got = steps_m[step]
        if isinstance(found, type) or isinstance(got, type):
            assert got is found, step
            continue
        for quantity in row.expect.keys() & found.keys():
            assert _close(got[quantity], *row.expect[quantity](found[quantity], c, data.n_obs)), (step, quantity)


def _subject_order_run(data, family):
    """Knot search at degree 2, k_max 4, then the WLS base fit's alpha and
    VB's m* on the selected knots."""
    best, table = knot_search(data, family, 2, 4, "full")
    specs = tuple(make_spec(family, 2, k, data.time_domain) for k in best)
    alphas = [_outcome(lambda: fit_engine(data, specs, engine, rng=5, draws=10).alpha)
              for engine in ("wls", "vb")]
    return best, np.array([row["pcv"] for row in table]), alphas


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(scenario=st.sampled_from([1, 2]), n=st.integers(3, 10), panel_seed=st.integers(0, 2**16),
       family=st.sampled_from(["radial", "tpower"]))
def test_subject_order_property(scenario, n, panel_seed, family):
    """Subjects in reverse order on a small scenario-1 or -2 panel: the
    selected knots and the infeasible candidates are unchanged, and each
    PCV, the WLS alpha and VB's m* agree within 1e-9 of the largest value
    compared.  A step that raises raises the same error in both orders."""
    data, _ = (gen_scenario1 if scenario == 1 else gen_scenario2)(n, np.random.default_rng(panel_seed))
    rows = np.concatenate(np.split(np.arange(data.n_obs), np.cumsum(data.counts)[:-1])[::-1])
    flipped = LongitudinalDataset(data.subject_ids[::-1], data.counts[::-1], data.times[rows],
                                  data.responses[rows], data.covariates[rows], data.time_domain)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a near-exact base fit's zero-variance warning
        base, other = (_outcome(lambda: _subject_order_run(d, family)) for d in (data, flipped))
    if isinstance(base, type):
        assert other is base
        return
    (knots, pcv, alphas), (knots_r, pcv_r, alphas_r) = base, other
    assert knots_r == knots
    feasible = np.isfinite(pcv)
    np.testing.assert_array_equal(np.isfinite(pcv_r), feasible)
    assert _close(pcv_r[feasible], pcv[feasible])
    for got, want in zip(alphas_r, alphas):
        assert got is want if isinstance(want, type) else _close(got, want)
