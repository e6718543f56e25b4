"""Model selection: trace criterion, knot search, error metrics, CV."""
from __future__ import annotations

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tvcm import (
    LongitudinalDataset,
    gen_scenario1,
    gen_scenario2,
    ingest_csv,
    subject_uniform_weights,
)
from tvcm import frequentist, selection
from tvcm.basis import build_design, make_spec
from tvcm.errors import KnotError, SelectionError, SingularDesignError, TvcmError
from tvcm.frequentist import GramStats, WlsFit, fit_wls, gram_feasible, ridge_posterior
from tvcm.mcmc import calibrated_prior
from tvcm.vb import vb_fit_from_stats
from tvcm.selection import (
    _bordered_wrss,
    _statistics_criterion,
    _walk_grid,
    amse,
    crossval_amse,
    knot_search,
    made,
    pcv,
    pcv_loo,
)

from conftest import assert_matches_golden, by_subject, exact_response_dataset, golden_script, single_subject
from oracles import candidate_pcv, per_fold_crossval, take_rows


def _random_intercept_panel(gen, n=50, m=30, b_sd=0.3, noise_sd=0.05):
    """Dense panel with a quadratic mean curve and subject-level shifts."""
    t = np.arange(1, m + 1) / (m + 1)
    ys = []
    for i in range(n):
        shift = b_sd * gen.standard_normal()
        ys.append((1.0 + 2.0 * t - 1.5 * t**2) + shift
                  + noise_sd * gen.standard_normal(m))
    return LongitudinalDataset([f"s{i}" for i in range(n)], [m] * n,
                               np.tile(t, n), np.concatenate(ys),
                               np.empty((n * m, 0)), (0.0, 1.0))


def _sequential_walk(criterion, n_coef, k_max, strategy):
    """Reference grid walk scoring one candidate at a time; returns (best,
    sorted scored candidates).  'full' keeps strict improvements in
    lexicographic order; 'coordinate' sweeps the coordinates from all zeros,
    taking each strict improvement in k order, until a sweep changes
    nothing."""
    scores = {}

    def score(combo):
        if combo not in scores:
            scores[combo] = criterion(combo)
        return scores[combo]

    if strategy == "full":
        best, best_value = None, float("inf")
        for combo in itertools.product(range(k_max + 1), repeat=n_coef):
            if score(combo) < best_value:
                best, best_value = combo, score(combo)
        return best, sorted(scores)
    best = (0,) * n_coef
    best_value = score(best)
    changed = True
    while changed:
        changed = False
        for r in range(n_coef):
            for k in range(k_max + 1):
                candidate = best[:r] + (k,) + best[r + 1:]
                if score(candidate) < best_value:
                    best, best_value = candidate, score(candidate)
                    changed = True
    return best, sorted(scores)


def _quadratic_subjects(seed=7, n=8, m=6):
    """Noiseless quadratic data spread over several subjects."""
    t = np.concatenate([np.sort(gen.uniform(0.0, 1.0, m))
                        for gen in np.random.default_rng(seed).spawn(n)])
    return LongitudinalDataset([f"p{i}" for i in range(n)], [m] * n, t,
                               1.0 + 2.0 * t - 1.5 * t**2,
                               np.empty((n * m, 0)), (0.0, 1.0))


# ---------------------------------------------------------------------------
# Trace criterion
# ---------------------------------------------------------------------------


class TestPcv:
    def test_hand_example(self):
        """Constant fit of (1,2,3): weighted RSS 2/3 over (1 - 1/3)^2 = 1.5."""
        data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
        bundle = build_design(data, (make_spec("tpower", 0, 0,
                                               data.time_domain),))
        fit = fit_wls(bundle)
        assert pcv(bundle, fit) == pytest.approx(1.5, abs=1e-12)

    def test_saturated_fit_returns_infinity(self):
        data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
        bundle = build_design(data, (make_spec("tpower", 0, 0,
                                               data.time_domain),))
        fit = fit_wls(bundle)
        saturated = WlsFit(fit.alpha_hat, fit.sigma2_hat, fit.fitted,
                           fit.residuals, fit.gram_inverse, 3.0)
        assert pcv(bundle, saturated) == float("inf")

    def test_argmin_invariant_to_weight_scaling(self):
        """Rescaling all weights by a constant rescales every candidate's
        criterion equally, leaving the argmin unchanged."""
        data, _ = gen_scenario1(10, np.random.default_rng(31), m=8,
                                level="weak", shape="trig")
        values, scaled_values = [], []
        for k in range(4):
            specs = (make_spec("radial", 2, k, data.time_domain),)
            base = build_design(data, specs)
            values.append(pcv(base, fit_wls(base)))
            big = build_design(data, specs, weights=3.7 * base.weights)
            scaled_values.append(pcv(big, fit_wls(big)))
        assert int(np.argmin(values)) == int(np.argmin(scaled_values))
        np.testing.assert_allclose(scaled_values, 3.7 * np.array(values),
                                   rtol=1e-9)


class TestPcvLoo:
    def test_needs_spare_rows(self):
        data = single_subject([0.1, 0.4, 0.7, 0.9], [1.0, 2.0, 3.0, 4.0])
        specs = (make_spec("tpower", 2, 0, data.time_domain),)  # p = 3 = N-1
        with pytest.raises(SelectionError):
            pcv_loo(data, specs)

    def test_failing_refit_names_the_row(self):
        """Removing the only observation at t=1 leaves three distinct times
        under a cubic basis, so that refit is singular."""
        data = single_subject([0.0, 0.0, 0.3, 0.3, 0.7, 0.7, 1.0],
                              [0.0, 0.1, 1.0, 1.1, 2.0, 2.1, 3.0])
        specs = (make_spec("tpower", 3, 0, data.time_domain),)
        with pytest.raises(SelectionError, match="row 6"):
            pcv_loo(data, specs)

    def test_matches_direct_computation_on_small_data(self):
        """Brute criterion recomputed in the test with plain numpy lstsq."""
        data, _ = gen_scenario1(5, np.random.default_rng(13), m=4,
                                level="weak", shape="exp")
        specs = (make_spec("radial", 1, 0, data.time_domain),)
        bundle = build_design(data, specs)
        Z, y, w = bundle.Z, bundle.y, bundle.weights
        expected = 0.0
        for i in range(bundle.n_obs):
            keep = np.arange(bundle.n_obs) != i
            sw = np.sqrt(w[keep])
            coef, *_ = np.linalg.lstsq(sw[:, None] * Z[keep], sw * y[keep],
                                       rcond=None)
            expected += w[i] * (y[i] - Z[i] @ coef) ** 2
        assert pcv_loo(data, specs) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# Knot search
# ---------------------------------------------------------------------------


class TestKnotSearch:
    def test_full_grid_table_size(self):
        data = _quadratic_subjects()
        best, table = knot_search(data, "radial", 2, 2, strategy="full")
        assert len(table) == 3
        ks = sorted(row["k"][0] for row in table)
        assert ks == [0, 1, 2]

    def test_reported_best_minimizes_table(self):
        data, _ = gen_scenario1(10, np.random.default_rng(3), m=8,
                                level="weak", shape="trig")
        best, table = knot_search(data, "radial", 2, 4, strategy="full")
        values = {tuple(row["k"]): row["pcv"] for row in table}
        assert values[best] == min(values.values())

    def test_full_and_coordinate_agree_single_coefficient(self):
        for seed in (1, 2, 3):
            data, _ = gen_scenario1(10, np.random.default_rng(seed), m=8,
                                    level="weak", shape="trig")
            full = knot_search(data, "radial", 2, 4, strategy="full")[0]
            coord = knot_search(data, "radial", 2, 4, strategy="coordinate")[0]
            assert full == coord

    def test_polynomial_truth_prefers_zero_knots(self):
        """A quadratic mean curve needs no knots: across 100 replicated
        panels the search picks k=0 at least 90 times."""
        root = np.random.default_rng(7)
        hits = 0
        for _ in range(100):
            data = _random_intercept_panel(root.spawn(1)[0])
            if knot_search(data, "radial", 2, 3)[0] == (0,):
                hits += 1
        assert hits >= 90

    def test_no_feasible_candidate(self):
        data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
        with pytest.raises(SelectionError):
            knot_search(data, "radial", 2, 2)  # p >= 3 = N everywhere

    @pytest.mark.parametrize("strategy, expected",
                             [("full", (0, 1)), ("coordinate", (1, 0))])
    def test_walk_keeps_the_first_of_tied_improvements(self, strategy,
                                                       expected):
        """Every candidate but (0, 0) ties at 0: the batched walk keeps the
        first strict improvement, as the sequential walk does."""
        def value(combo):
            return 1.0 if combo == (0, 0) else 0.0

        best, table = _walk_grid(lambda combos: [value(c) for c in combos],
                                 2, 2, strategy)
        ref_best, ref_keys = _sequential_walk(value, 2, 2, strategy)
        assert best == ref_best == expected
        assert [tuple(row["k"]) for row in table] == ref_keys

    def test_coordinate_walk_moves_to_the_line_minimum(self):
        """Along a line the walk keeps improving to the line's minimum, so
        it settles at (2, 0) and never visits the global minimum (1, 1)
        that stopping at the first improvement (1, 0) would reach."""
        values = {(0, 0): 5.0, (1, 0): 4.0, (2, 0): 3.0, (1, 1): 0.0}

        def value(combo):
            return values.get(combo, 10.0)

        best, table = _walk_grid(lambda combos: [value(c) for c in combos],
                                 2, 2, "coordinate")
        ref_best, ref_keys = _sequential_walk(value, 2, 2, "coordinate")
        assert best == ref_best == (2, 0)
        assert [tuple(row["k"]) for row in table] == ref_keys

    def test_scorer_marks_unplaceable_counts_infinite(self):
        """All times equal: the domain is degenerate, so only k = 0 can be
        placed, and a tuple mixing k = 0 and k = 1 scores inf."""
        gen = np.random.default_rng(5)
        x = gen.standard_normal(12)
        data = LongitudinalDataset(
            [f"s{i}" for i in range(4)], [3] * 4, np.full(12, 0.5),
            1.0 + 2.0 * x + 0.1 * gen.standard_normal(12), x[:, None])
        combos = [(0, 1), (0, 0), (1, 0), (1, 1)]
        got = _statistics_criterion(data, "radial", 0, 1)(combos)
        weights = subject_uniform_weights(data)
        want = [candidate_pcv(data, "radial", 0, c, weights) for c in combos]
        assert np.isfinite(got[1])
        assert got[1] == pytest.approx(want[1], rel=1e-9)
        assert got[0] == got[2] == got[3] == want[0] == float("inf")

    def test_scorer_marks_saturated_candidates_infinite(self):
        """Four observations under a linear radial basis: k = 2 gives
        p = 4 = N and k = 3 gives p = 5, both inf, in input order."""
        data = single_subject([0.1, 0.4, 0.6, 0.9], [1.0, 2.5, 2.0, 3.5])
        combos = [(3,), (0,), (2,), (1,)]
        got = _statistics_criterion(data, "radial", 1, 3)(combos)
        weights = subject_uniform_weights(data)
        want = [candidate_pcv(data, "radial", 1, c, weights) for c in combos]
        assert got[0] == got[2] == float("inf")
        np.testing.assert_allclose(got[1::2], want[1::2], rtol=1e-9)

    def test_zero_response_picks_no_knots(self):
        """y = 0 leaves s = 0: every feasible candidate scores 0 and the
        first in grid order wins, with or without covariates."""
        for data in (_quadratic_subjects(),
                     gen_scenario2(30, np.random.default_rng(4))[0]):
            data = dataclasses.replace(data, responses=np.zeros(data.n_obs))
            n_coef = data.covariate_dim + 1
            for strategy in ("full", "coordinate"):
                best, table = knot_search(data, "radial", 2, 2, strategy)
                assert best == (0,) * n_coef
                assert {row["pcv"] for row in table} <= {0.0, float("inf")}

    @pytest.mark.parametrize("generate, n", [(gen_scenario1, 50), (gen_scenario2, 100)],
                             ids=["scenario1", "scenario2"])
    @pytest.mark.parametrize("strategy", ["full", "coordinate"])
    def test_exact_quadratic_picks_no_knots(self, generate, n, strategy):
        """Responses equal to the panel's quadratic WLS fit: every feasible
        candidate fits them exactly, so roundoff alone separates the
        criteria until the cut scores them 0 and (0, ..., 0) wins."""
        for family in ("radial", "tpower"):
            for i in range(10):
                data = generate(n, np.random.default_rng(i))[0]
                specs = (make_spec(family, 2, 0, data.time_domain),) * (data.covariate_dim + 1)
                weights = subject_uniform_weights(data)
                alpha = fit_wls(build_design(data, specs, weights)).alpha_hat
                exact = exact_response_dataset(data, specs, alpha)
                assert knot_search(exact, family, 2, 5, strategy)[0] == (0,) * len(specs), i

    def test_failed_bordered_factor_scores_infinite(self):
        """[[1, 1], [1, 4]] with shift 2 leaves wrss = 4 - 1 - 2 = 1; a
        zero Gram block fails its factor and scores inf without taking its
        stack-mate with it."""
        good = np.array([[1.0, 1.0], [1.0, 4.0]])
        bad = np.array([[0.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(_bordered_wrss(np.stack([good, bad]), 2.0), [1.0, np.inf])

    def test_unknown_strategy(self):
        data = _quadratic_subjects()
        with pytest.raises(ValueError):
            knot_search(data, "radial", 2, 1, strategy="simulated-annealing")


class TestKnotSearchOracle:
    """The sufficient-statistics search against per-candidate QR refits."""

    @pytest.fixture(scope="class")
    def panels(self, demo_csv):
        return {
            "scenario1": gen_scenario1(40, np.random.default_rng(6))[0],
            "scenario2": gen_scenario2(60, np.random.default_rng(6))[0],
            "demo": ingest_csv(demo_csv),
        }

    @pytest.fixture(scope="class")
    def qr_scores(self):
        """Memo of candidate_pcv per (panel, family, combo), shared by the
        tests that walk the grid with the QR oracle."""
        return {}

    @staticmethod
    def _qr_criterion(panels, qr_scores, panel, family):
        data = panels[panel]
        weights = subject_uniform_weights(data)

        def criterion(combo):
            key = (panel, family, combo)
            if key not in qr_scores:
                qr_scores[key] = candidate_pcv(data, family, 2, combo, weights)
            return qr_scores[key]

        return criterion

    @pytest.mark.parametrize("panel", ["scenario1", "scenario2", "demo"])
    @pytest.mark.parametrize("strategy", ["full", "coordinate"])
    @pytest.mark.parametrize("family", ["radial", "tpower"])
    def test_matches_qr_refits(self, panels, qr_scores, panel, strategy,
                               family):
        data = panels[panel]
        k_max = 5 if data.covariate_dim == 0 else 3
        criterion = self._qr_criterion(panels, qr_scores, panel, family)
        best, table = knot_search(data, family, 2, k_max, strategy)
        oracle_best, oracle_table = _walk_grid(
            lambda combos: [criterion(combo) for combo in combos],
            data.covariate_dim + 1, k_max, strategy)
        assert best == oracle_best
        assert [row["k"] for row in table] == [row["k"] for row in oracle_table]
        got = np.array([row["pcv"] for row in table])
        want = np.array([row["pcv"] for row in oracle_table])
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9)

    @pytest.mark.parametrize("panel", ["scenario1", "scenario2", "demo"])
    @pytest.mark.parametrize("strategy", ["full", "coordinate"])
    @pytest.mark.parametrize("family", ["radial", "tpower"])
    def test_batched_walk_matches_sequential_walk(self, panels, qr_scores,
                                                  panel, strategy, family):
        data = panels[panel]
        k_max = 5 if data.covariate_dim == 0 else 3
        best, table = knot_search(data, family, 2, k_max, strategy)
        ref_best, ref_keys = _sequential_walk(
            self._qr_criterion(panels, qr_scores, panel, family),
            data.covariate_dim + 1, k_max, strategy)
        assert best == ref_best
        assert [tuple(row["k"]) for row in table] == ref_keys

    def test_small_chunks_give_the_same_search(self, panels, monkeypatch):
        batches = []

        def counting_feasible(gram):
            batches.append(len(gram))
            return gram_feasible(gram)

        for panel in ("scenario2", "demo"):
            data = panels[panel]
            want = knot_search(data, "radial", 2, 4, "full")
            monkeypatch.setattr(frequentist, "STACK_CHUNK", 3)
            monkeypatch.setattr(selection, "gram_feasible", counting_feasible)
            assert knot_search(data, "radial", 2, 4, "full") == want
            monkeypatch.undo()
        assert max(batches) == 3

    @pytest.mark.parametrize("panel", ["scenario2", "demo"])
    @pytest.mark.parametrize("family, options", [
        ("radial", {"bandwidth": 5.0}),
        ("radial", {"placement": "quantile"}),
        ("tpower", {"placement": "quantile"}),
    ], ids=["radial-bw5", "radial-quantile", "tpower-quantile"])
    def test_basis_options_match_qr_refits(self, panels, panel, family, options):
        """Selection scores the basis that is fitted: with a bandwidth
        override or quantile knots, the statistics search and the QR walk
        under the same options pick the same winner and infeasible set."""
        data = panels[panel]
        k_max = 4 if panel == "demo" else 3
        weights = subject_uniform_weights(data)
        best, table = knot_search(data, family, 2, k_max, "full", **options)
        oracle_best, oracle_table = _walk_grid(
            lambda combos: [candidate_pcv(data, family, 2, c, weights, **options)
                            for c in combos],
            data.covariate_dim + 1, k_max, "full")
        assert best == oracle_best
        got = np.array([row["pcv"] for row in table])
        want = np.array([row["pcv"] for row in oracle_table])
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9)

    def test_demo_bandwidth_override_moves_the_pick(self, panels):
        """Under the default bandwidths the demo search picks (0, 2, 0);
        scoring the h = 5 basis that gets fitted picks (0, 0, 0)."""
        data = panels["demo"]
        assert knot_search(data, "radial", 2, 4)[0] == (0, 2, 0)
        assert knot_search(data, "radial", 2, 4, bandwidth=5.0)[0] == (0, 0, 0)

    def test_tpower_bandwidth_rejected(self, panels):
        with pytest.raises(ValueError, match="bandwidth.*tpower"):
            knot_search(panels["demo"], "tpower", 2, 2, bandwidth=5.0)

    def test_demo_radial_infeasible_set(self, panels):
        """At k_max=5 the raw-column condition rule rejects 85 of the 216
        radial candidates on the demo panel, under both paths."""
        data = panels["demo"]
        weights = subject_uniform_weights(data)
        _, table = knot_search(data, "radial", 2, 5, "full")
        infeasible = {tuple(row["k"]) for row in table
                      if not np.isfinite(row["pcv"])}
        oracle = {tuple(row["k"]) for row in table
                  if not np.isfinite(candidate_pcv(data, "radial", 2,
                                                    tuple(row["k"]), weights))}
        assert len(table) == 216
        assert len(infeasible) == 85
        assert infeasible == oracle


@st.composite
def _degenerate_panels(draw):
    """Panels of 1-6 subjects with constant, tied or spread times on a scale
    of 1e-3 to 1e3, constant or varying covariates, and zero, constant or
    varying responses."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    n_obs = sum(counts)

    def floats(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n_obs, max_size=n_obs)))

    times = draw(st.sampled_from(["constant", "tied", "spread"]))
    if times == "constant":
        raw = np.full(n_obs, draw(st.floats(0.0, 1.0)))
    elif times == "tied":
        raw = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                     min_size=n_obs, max_size=n_obs)))
    else:
        raw = floats(0.0, 1.0)
    scale = 10.0 ** draw(st.integers(-3, 3))
    t = np.concatenate([np.sort(part) for part in np.split(raw, np.cumsum(counts)[:-1])])

    def column(kind):
        if kind == "zero":
            return np.zeros(n_obs)
        if kind == "constant":
            return np.full(n_obs, draw(st.floats(-2.0, 2.0)))
        return floats(-2.0, 2.0)

    d = draw(st.integers(0, 2))
    x = np.column_stack([column(draw(st.sampled_from(["constant", "varying"])))
                         for _ in range(d)]) if d else np.empty((n_obs, 0))
    y = column(draw(st.sampled_from(["zero", "constant", "varying"])))
    return LongitudinalDataset([f"s{i}" for i in range(len(counts))], counts,
                               t * scale, y, x)


def test_searches_select_the_pinned_knots(demo_csv):
    """Each search in tests/golden/selection.json, written by
    scripts/make_goldens.py, selects the recorded knots from as many
    candidates, as many of them infeasible."""
    assert_matches_golden("selection.json", golden_script().selection_records())


class TestKnotSearchProperties:
    @seed(22)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=_degenerate_panels(), family=st.sampled_from(["radial", "tpower"]),
           degree=st.integers(0, 2), k_max=st.integers(0, 3),
           strategy=st.sampled_from(["full", "coordinate"]))
    def test_degenerate_panels(self, data, family, degree, k_max, strategy):
        """A table or a typed error, never an untyped one.  Finite criteria
        are non-negative, the pick minimizes the table, and finite values
        agree with the QR refits within 1e-8 of the larger of the value and
        s / (1 - p/N)^2, s the weighted response sum of squares.  A purely
        relative tolerance fails on exact fits, where both paths return
        roundoff (the search 4e-12, the QR refit 7e-29 on one panel)."""
        try:
            best, table = knot_search(data, family, degree, k_max, strategy)
        except TvcmError:
            return
        values = {tuple(row["k"]): row["pcv"] for row in table}
        assert values[best] == min(values.values())
        weights = subject_uniform_weights(data)
        total = float(weights @ data.responses**2)
        for combo, value in values.items():
            if not np.isfinite(value):
                continue
            assert value >= 0
            want = candidate_pcv(data, family, degree, combo, weights)
            if np.isfinite(want):
                p = sum(combo) + len(combo) * (degree + 1)
                floor = total / (1.0 - p / data.n_obs) ** 2
                assert value == pytest.approx(want, rel=1e-8, abs=1e-8 * floor), combo


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_amse_constant_error(self):
        """Uniform offset c gives amse c^2 because weights sum to one."""
        counts = np.array([2, 3])
        truth = np.zeros(5)
        assert amse(truth, truth + 0.5, counts) == pytest.approx(0.25)

    def test_amse_matches_weighted_loop(self):
        gen = np.random.default_rng(11)
        counts = np.array([3, 1, 4])
        truth = gen.standard_normal(8)
        est = gen.standard_normal(8)
        expected = 0.0
        row = 0
        for c in counts:
            for _ in range(c):
                expected += (truth[row] - est[row]) ** 2 / (3 * c)
                row += 1
        assert amse(truth, est, counts) == pytest.approx(expected, rel=1e-12)

    def test_amse_shape_checks(self):
        with pytest.raises(ValueError):
            amse(np.zeros(3), np.zeros(4), np.array([3]))
        with pytest.raises(ValueError):
            amse(np.zeros(3), np.zeros(3), np.array([2]))

    def test_made_constant_error(self):
        """Offset c on each curve scaled by its range: total is sum c/r."""
        counts = np.array([2, 2])
        truth = [np.zeros(4), np.zeros(4)]
        est = [np.full(4, 0.3), np.full(4, -0.2)]
        got = made(truth, est, counts, ranges=[1.5, 0.4])
        assert got == pytest.approx(0.3 / 1.5 + 0.2 / 0.4)

    def test_made_matches_weighted_loop(self):
        gen = np.random.default_rng(12)
        counts = np.array([2, 5])
        truths = [gen.standard_normal(7) for _ in range(2)]
        ests = [gen.standard_normal(7) for _ in range(2)]
        ranges = [1.1, 0.7]
        w = np.repeat(1.0 / (2 * counts), counts)
        expected = sum(float(w @ np.abs(t - e)) / r
                       for t, e, r in zip(truths, ests, ranges))
        got = made(truths, ests, counts, ranges)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_made_requires_positive_ranges(self):
        with pytest.raises(ValueError):
            made([np.zeros(2)], [np.zeros(2)], np.array([2]), [0.0])


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


class TestCrossval:
    def test_training_rows_match_per_subject_filter(self):
        """The fold's training data equals filtering each subject's rows on
        its own and dropping subjects left empty."""
        data, _ = gen_scenario2(12, np.random.default_rng(3))
        keep = np.random.default_rng(4).permutation(data.n_obs)[:12]
        mask = np.zeros(data.n_obs, dtype=bool)
        mask[keep] = True
        train = take_rows(data, keep)
        expected = [(sid, m) for sid, m in zip(data.subject_ids,
                                               by_subject(data, mask)) if m.any()]
        assert len(expected) < data.n_subjects  # some subject drops out
        assert train.subject_ids == tuple(sid for sid, _ in expected)
        np.testing.assert_array_equal(train.counts,
                                      [m.sum() for _, m in expected])
        for name in ("times", "responses", "covariates"):
            blocks = dict(zip(data.subject_ids, by_subject(data, getattr(data, name))))
            got = by_subject(train, getattr(train, name))
            for (sid, m), block in zip(expected, got):
                np.testing.assert_array_equal(block, blocks[sid][m])
        assert train.time_domain == data.time_domain

    def test_loo_equals_brute_criterion_for_single_obs_subjects(self):
        """With one observation per subject all weights are 1/N, so the
        leave-one-out fold split reproduces the brute criterion exactly."""
        gen = np.random.default_rng(40)
        times, ys = [], []
        for i in range(20):
            t = float(gen.uniform(0.0, 1.0))
            times.append(t)
            ys.append(1.0 + 2.0 * t - 1.5 * t * t
                      + 0.1 * gen.standard_normal())
        data = LongitudinalDataset([f"s{i}" for i in range(20)], [1] * 20,
                                   times, ys, np.empty((20, 0)), (0.0, 1.0))
        specs = (make_spec("radial", 2, 0, data.time_domain),)
        cv = crossval_amse(data, specs, n_folds=20, rng=3)
        assert cv == pytest.approx(pcv_loo(data, specs), rel=1e-12)

    def test_noiseless_model_scores_zero(self):
        data = _quadratic_subjects()
        specs = (make_spec("radial", 2, 0, data.time_domain),)
        assert crossval_amse(data, specs, 5, rng=3) <= 1e-16

    def test_deterministic_per_seed(self):
        data, _ = gen_scenario1(10, np.random.default_rng(2), m=6,
                                level="weak", shape="trig")
        specs = (make_spec("radial", 2, 1, data.time_domain),)
        assert crossval_amse(data, specs, 4, rng=9) == \
            crossval_amse(data, specs, 4, rng=9)

    def test_infeasible_fold_named(self):
        data = single_subject([0.1, 0.25, 0.4, 0.6, 0.8, 0.95],
                              [1.0, 2.0, 3.0, 2.0, 1.0, 0.5])
        specs = (make_spec("tpower", 3, 0, data.time_domain),)  # p = 4
        with pytest.raises(SelectionError, match="fold"):
            crossval_amse(data, specs, 3, rng=0)

    def test_fold_count_bounds(self):
        data = _quadratic_subjects()
        specs = (make_spec("radial", 2, 0, data.time_domain),)
        with pytest.raises(ValueError):
            crossval_amse(data, specs, 1, rng=0)
        with pytest.raises(ValueError):
            crossval_amse(data, specs, data.n_obs + 1, rng=0)

    def test_wls_draws_nothing(self, monkeypatch):
        """wls and vb folds read their points from the fold statistics: no
        fit_engine call (so no bootstrap), VB fit, VB draws or spawned
        stream, whatever draws says, and the same AMSE as without the patches."""
        data, _ = gen_scenario1(10, np.random.default_rng(2), m=6)
        specs = (make_spec("radial", 2, 1, data.time_domain),)
        runs = [(engine, folds) for engine in ("wls", "vb") for folds in (4, data.n_obs)]
        want = [crossval_amse(data, specs, folds, rng=9, engine=engine) for engine, folds in runs]

        def refuse(*args, **kwargs):
            raise AssertionError("crossval ran an engine")

        for target in ("tvcm.selection.fit_engine", "tvcm.engines.vb_fit_from_stats", "tvcm.engines.vb_sample"):
            monkeypatch.setattr(target, refuse)
        for (engine, folds), value in zip(runs, want):
            gen = np.random.default_rng(9)
            assert crossval_amse(data, specs, folds, rng=gen, engine=engine, draws=50) == value
            assert gen.bit_generator.seed_seq.n_children_spawned == 0

    def test_vb_fold_point_is_m_star(self, demo_csv, monkeypatch):
        """A vb fold's point, from one ridge_posterior call on the stacked
        fold sums, equals vb_fit_from_stats's m* on that fold's statistics
        alone, bit for bit."""
        demo = ingest_csv(demo_csv)
        scenario, _ = gen_scenario1(10, np.random.default_rng(2), m=6)
        problems = [(demo, tuple(make_spec("tpower", 2, 2, demo.time_domain)
                                 for _ in range(demo.covariate_dim + 1)), 5),
                    (scenario, (make_spec("radial", 2, 1, scenario.time_domain),), scenario.n_obs)]
        for data, specs, n_folds in problems:
            calls = []

            def recorded(stats, ridge):
                calls.append((stats, ridge_posterior(stats, ridge)))
                return calls[-1][1]

            monkeypatch.setattr(frequentist, "ridge_posterior", recorded)
            crossval_amse(data, specs, n_folds, rng=9, engine="vb")
            monkeypatch.undo()
            [(sums, (_, _, points, _))] = calls
            assert points.shape == (n_folds, sum(spec.n_terms for spec in specs))
            for b, point in enumerate(points):
                fold = GramStats(int(sums.n_obs[b]), sums.gram[b], sums.center, sums.resid_sq[b], sums.lever[b])
                post = vb_fit_from_stats(fold, calibrated_prior(1.0, fold.n_obs, fold.rss(0.0)), 1e-6, 500)
                assert post.m_star.tobytes() == point.tobytes()

    def test_unknown_engine_rejected(self, demo_csv):
        """A bad engine, draws or burnin raises ValueError before any fold
        work, even where fold 0 is infeasible (demo panel, radial, 3 knots)."""
        data = _quadratic_subjects()
        specs = (make_spec("radial", 2, 0, data.time_domain),)
        with pytest.raises(ValueError, match="unknown engine"):
            crossval_amse(data, specs, 3, rng=0, engine="mle")
        demo = ingest_csv(demo_csv)
        infeasible = tuple(make_spec("radial", 2, 3, demo.time_domain, times=demo.times)
                           for _ in range(demo.covariate_dim + 1))
        with pytest.raises(SelectionError, match="fold 0 is infeasible"):
            crossval_amse(demo, infeasible, 5, rng=0)
        with pytest.raises(ValueError, match="unknown engine 'mle'"):
            crossval_amse(demo, infeasible, 5, rng=0, engine="mle")
        for engine in ("wls", "gibbs", "vb"):
            for name in ("draws", "burnin"):
                with pytest.raises(ValueError, match=f"{name} must be non-negative, got -5"):
                    crossval_amse(demo, infeasible, 5, rng=0, engine=engine, **{name: -5})


def _crossval_both(data, specs, n_folds, **kwargs):
    """(crossval_amse, per_fold_crossval) on the same arguments."""
    return (crossval_amse(data, specs, n_folds, **kwargs),
            per_fold_crossval(data, specs, n_folds, **kwargs))


# few draws: the sampler's cost, not its length, is what the comparison exercises
_ENGINE_ARGS = {"wls": {}, "gibbs": {"draws": 20, "burnin": 5}, "vb": {"draws": 1}}


class TestCrossvalOracle:
    """crossval_amse against the per-fold rebuild in tests/oracles.py, within 1e-10 relative."""

    @pytest.mark.parametrize("engine", ["wls", "gibbs", "vb"])
    def test_demo_panel_five_folds(self, demo_csv, engine):
        data = ingest_csv(demo_csv)
        specs = tuple(make_spec("tpower", 2, 2, data.time_domain)
                      for _ in range(data.covariate_dim + 1))
        fast, slow = _crossval_both(data, specs, 5, rng=6, engine=engine, **_ENGINE_ARGS[engine])
        assert fast == pytest.approx(slow, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("engine", ["wls", "gibbs", "vb"])
    @pytest.mark.parametrize("folds", [5, "loo"])
    @pytest.mark.parametrize("scenario", [1, 2])
    def test_scenarios(self, scenario, folds, engine):
        if scenario == 1:
            data, _ = gen_scenario1(8, np.random.default_rng(5), m=8)
            specs = (make_spec("radial", 2, 2, data.time_domain),)
        else:
            data, _ = gen_scenario2(5, np.random.default_rng(5))
            specs = tuple(make_spec("tpower", 2, 1, data.time_domain) for _ in range(3))
        n_folds = data.n_obs if folds == "loo" else 5
        fast, slow = _crossval_both(data, specs, n_folds, rng=3, engine=engine,
                                    **_ENGINE_ARGS[engine])
        assert fast == pytest.approx(slow, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("engine", ["wls", "gibbs", "vb"])
    def test_fold_that_empties_a_subject(self, engine):
        """Single-visit subjects leave the training set with their fold, so
        n' falls and every other subject's weight ratio changes."""
        data, _ = gen_scenario1(12, np.random.default_rng(11), m=3)
        specs = (make_spec("tpower", 1, 0, data.time_domain),)
        perm = np.random.default_rng(4).permutation(data.n_obs)
        emptied = [np.sum(np.bincount(data.subject_index[fold], minlength=data.n_subjects)
                          == data.counts) for fold in np.array_split(perm, 4)]
        assert min(emptied) >= 1
        fast, slow = _crossval_both(data, specs, 4, rng=4, engine=engine, **_ENGINE_ARGS[engine])
        assert fast == pytest.approx(slow, rel=1e-10, abs=0.0)

    def test_infeasible_fold_index_matches(self):
        """Fold 0 trains and fold 1 cannot: both paths name fold 1 with the same cause."""
        data, _ = gen_scenario1(3, np.random.default_rng(0), m=4)
        specs = (make_spec("tpower", 2, 0, data.time_domain),)
        with pytest.raises(SelectionError) as fast:
            crossval_amse(data, specs, 3, rng=0)
        with pytest.raises(SelectionError) as slow:
            per_fold_crossval(data, specs, 3, rng=0)
        assert str(fast.value) == str(slow.value)
        assert str(fast.value).startswith("fold 1 is infeasible: weighted Gram matrix condition")
        assert isinstance(fast.value.__cause__, SingularDesignError)

    @seed(23)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=_degenerate_panels(), family=st.sampled_from(["radial", "tpower"]),
           degree=st.integers(0, 2), knots=st.integers(0, 2), folds=st.integers(2, 30),
           engine=st.sampled_from(["wls", "vb"]), rng=st.integers(0, 3))
    def test_degenerate_panels(self, data, family, degree, knots, folds, engine, rng):
        """Both paths give the same typed error, the same fold named, or AMSE
        within 1e-10 of the larger of the value and the mean squared
        response: exact fits score roundoff on both paths."""
        if data.n_obs < 2:
            return
        try:
            specs = tuple(make_spec(family, degree, knots, data.time_domain, times=data.times)
                          for _ in range(data.covariate_dim + 1))
        except KnotError:
            return

        def outcome(run):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # calibrated_prior's zero-variance warning
                    return "ok", run(data, specs, min(folds, data.n_obs), rng=rng,
                                     engine=engine, draws=1)
            except TvcmError as exc:
                return type(exc).__name__, str(exc)

        fast, slow = outcome(crossval_amse), outcome(per_fold_crossval)
        assert fast[0] == slow[0]
        if fast[0] != "ok":
            assert fast[1] == slow[1]
            return
        scale = float(data.responses @ data.responses) / data.n_obs
        assert fast[1] == pytest.approx(slow[1], rel=1e-10, abs=1e-10 * scale)


def test_crossval_matches_golden(demo_csv):
    """Each run in tests/golden/crossval.json, written by
    scripts/make_goldens.py from the per-fold rebuild, gives the recorded
    AMSE within make_goldens.py's crossval.json tolerance or the recorded
    SelectionError."""
    assert_matches_golden("crossval.json", golden_script().crossval_records())
