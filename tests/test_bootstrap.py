"""Subject resampling, bootstrap replication, and percentile intervals."""
from __future__ import annotations

import csv
import tracemalloc

import numpy as np
import pytest

import tvcm.frequentist
from tvcm import LongitudinalDataset, gen_scenario1, gen_scenario2, ingest_csv
from tvcm.basis import build_design, make_spec
from tvcm.bootstrap import (
    REDRAW_FACTOR,
    DrawSource,
    PosteriorDraws,
    bootstrap_fit,
    central_quantiles,
    percentile_interval,
    resample_subjects,
)
from tvcm.errors import (
    BootstrapDegeneracyError,
    InsufficientDataError,
    SingularDesignError,
)
from tvcm.frequentist import base_fit, bordered_stats, fit_wls, solve_stats, subject_stats
from tvcm.mcmc import default_prior, gibbs, whiten
from tvcm.selection import crossval_amse

from conftest import by_subject, exact_response_dataset
from oracles import loop_bootstrap


def _one_obs_each(n: int) -> LongitudinalDataset:
    return LongitudinalDataset([f"s{i}" for i in range(n)], [1] * n,
                               np.arange(n) / max(n - 1, 1),
                               np.arange(n, dtype=float), np.empty((n, 0)))


def _replicate_batch(data, specs, picks):
    """bootstrap_fit's fits of the attempts in a pick matrix: solve_stats of
    the subjects' bordered stack about base_fit's alpha_hat, summed with each
    attempt's copy counts as weights; returns (feasible, alpha, sigma2)."""
    center = base_fit(data, specs).alpha_hat
    cross = _subject_cross(build_design(data, specs), data.counts, center)
    copies = np.stack([np.bincount(row, minlength=picks.shape[1]) for row in picks]).astype(float)
    return solve_stats(bordered_stats(copies @ cross, copies @ data.counts, center))


def _feasible_attempts(data, specs, seed, n_attempts):
    """Attempt indices the batched path accepts, over one pick matrix."""
    n = data.n_subjects
    picks = np.random.default_rng(seed).integers(0, n, size=(n_attempts, n))
    feasible, _, _ = _replicate_batch(data, specs, picks)
    return np.flatnonzero(feasible).tolist()


def _picks(data, resampled):
    """Subject indices behind the '<id>#<slot>' ids of a resample."""
    source = {sid: i for i, sid in enumerate(data.subject_ids)}
    return [source[sid.split("#")[0]] for sid in resampled.subject_ids]


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


class TestResample:
    def test_same_seed_same_resample(self):
        data = _one_obs_each(5)
        a = resample_subjects(data, np.random.default_rng(3))
        b = resample_subjects(data, np.random.default_rng(3))
        assert a.subject_ids == b.subject_ids

    def test_single_subject_always_drawn(self):
        data = _one_obs_each(1)
        out = resample_subjects(data, np.random.default_rng(0))
        assert out.n_subjects == 1
        assert out.subject_ids[0].startswith("s0#")

    def test_slot_suffixes_make_ids_unique(self):
        data = _one_obs_each(3)
        out = resample_subjects(data, np.random.default_rng(1))
        ids = out.subject_ids
        assert len(set(ids)) == 3
        assert all("#" in sid for sid in ids)

    def test_slot_frequencies_uniform(self):
        """Each of 3 subjects lands in each slot with frequency 1/3 plus or
        minus 0.02 over 10,000 resamples."""
        data = _one_obs_each(3)
        gen = np.random.default_rng(123)
        counts = np.zeros((3, 3))
        for _ in range(10000):
            out = resample_subjects(data, gen)
            for slot, sid in enumerate(out.subject_ids):
                counts[slot, int(sid.split("#")[0][1:])] += 1
        freq = counts / 10000
        assert freq.min() > 1 / 3 - 0.02
        assert freq.max() < 1 / 3 + 0.02

    def test_domain_and_rows_preserved(self):
        data, _ = gen_scenario1(6, np.random.default_rng(2))
        out = resample_subjects(data, np.random.default_rng(5))
        assert out.time_domain == data.time_domain
        assert out.n_subjects == data.n_subjects

    def test_copies_carry_their_subjects_rows(self):
        data, _ = gen_scenario2(7, np.random.default_rng(4))
        out = resample_subjects(data, np.random.default_rng(9))
        source = {sid: i for i, sid in enumerate(data.subject_ids)}
        picks = [source[sid.split("#")[0]] for sid in out.subject_ids]
        assert [sid.split("#")[1] for sid in out.subject_ids] == \
            [str(slot) for slot in range(7)]
        np.testing.assert_array_equal(out.counts, data.counts[picks])
        for name in ("times", "responses", "covariates"):
            blocks = by_subject(data, getattr(data, name))
            for slot, block in enumerate(by_subject(out, getattr(out, name))):
                np.testing.assert_array_equal(block, blocks[picks[slot]])


# ---------------------------------------------------------------------------
# Bootstrap replication
# ---------------------------------------------------------------------------


class TestBootstrapFit:
    def test_single_draw_composes_resample_and_fit(self):
        """One bootstrap draw equals resample -> rebuild weights -> WLS run
        by hand from the same master generator, up to the rounding that
        separates the normal equations from the QR solve."""
        data, _ = gen_scenario1(8, np.random.default_rng(21), m=6,
                                level="weak", shape="trig")
        specs = (make_spec("radial", 2, 1, data.time_domain),)
        draws = bootstrap_fit(data, specs, 1, np.random.default_rng(77))
        manual = fit_wls(build_design(
            resample_subjects(data, np.random.default_rng(77)),
            specs))
        scale = np.abs(manual.alpha_hat).max()
        assert np.abs(draws.alpha_draws[0] - manual.alpha_hat).max() \
            <= 1e-8 * scale
        assert draws.sigma2_draws[0] == pytest.approx(manual.sigma2_hat,
                                                      rel=1e-8)

    def test_deterministic_given_seed(self):
        data, _ = gen_scenario1(8, np.random.default_rng(21), m=6,
                                level="weak", shape="trig")
        specs = (make_spec("radial", 2, 1, data.time_domain),)
        a = bootstrap_fit(data, specs, 12, np.random.default_rng(5))
        b = bootstrap_fit(data, specs, 12, np.random.default_rng(5))
        np.testing.assert_array_equal(a.alpha_draws, b.alpha_draws)

    def test_noiseless_draws_all_equal_truth(self):
        """With responses exactly on the fitted surface, every replicate fit
        returns the same coefficients."""
        base, _ = gen_scenario1(12, np.random.default_rng(42), m=6,
                                level="weak", shape="exp")
        specs = (make_spec("radial", 2, 1, base.time_domain),)
        bundle = build_design(base, specs)
        alpha_star = np.random.default_rng(5).standard_normal(bundle.n_params)
        clean = exact_response_dataset(base, specs, alpha_star)
        draws = bootstrap_fit(clean, specs, 20, np.random.default_rng(9))
        assert np.abs(draws.alpha_draws - alpha_star).max() < 1e-10
        assert draws.sigma2_draws.max() <= 1e-16

    def test_degenerate_resamples_exhaust_budget(self):
        """Eight one-observation subjects under a degree-6 polynomial: a
        resample succeeds only when it holds seven or more distinct
        subjects, about 7% of attempts, so 1,000 attempts fall far short
        of 100 draws."""
        data = _one_obs_each(8)
        specs = (make_spec("tpower", 6, 0, data.time_domain),)
        with pytest.raises(BootstrapDegeneracyError):
            bootstrap_fit(data, specs, 100, np.random.default_rng(0))

    def test_redraws_recover_from_singular_attempts(self):
        """Six one-observation subjects under a degree-4 polynomial succeed
        only ~25% of the time per attempt, forcing several redraw waves."""
        data = _one_obs_each(6)
        specs = (make_spec("tpower", 4, 0, data.time_domain),)
        draws = bootstrap_fit(data, specs, 10, np.random.default_rng(0))
        assert draws.n_draws == 10
        assert draws.attempts > 10
        assert draws.source is DrawSource.BOOTSTRAP

    def test_infeasible_base_fit_raises_before_resampling(self):
        data = _one_obs_each(3)
        specs = (make_spec("tpower", 3, 0, data.time_domain),)  # p = 4 > N
        with pytest.raises(Exception) as exc_info:
            bootstrap_fit(data, specs, 4, np.random.default_rng(0))
        assert not isinstance(exc_info.value, BootstrapDegeneracyError)

    def test_base_fit_errors_match_qr_fit(self, demo_csv):
        """The full-data fit refuses N <= p and the singular demo radial
        k=4 design with the errors fit_wls raises, before any draw."""
        tiny = _one_obs_each(3)
        demo = ingest_csv(demo_csv)
        cases = [(tiny, (make_spec("tpower", 3, 0, tiny.time_domain),),
                  InsufficientDataError),
                 (demo, tuple(make_spec("radial", 2, 4, demo.time_domain)
                              for _ in range(demo.covariate_dim + 1)),
                  SingularDesignError)]
        for data, specs, error in cases:
            with pytest.raises(error):
                fit_wls(build_design(data, specs))
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            with pytest.raises(error):
                bootstrap_fit(data, specs, 4, gen)
            assert gen.bit_generator.state == state

    def test_memory_bound(self):
        """200 draws on a 100-subject scenario-2 radial panel (p = 18) peak
        under the subjects' (n, (p+1)^2) bordered stack plus three (draws,
        (p+1)^2) stacks: bootstrap_fit sums every batch into one reused
        buffer and drops the copy counts before the solve, whose
        feasibility test factors the Gram blocks without copying them
        (tracemalloc peaks above the memory in use when the call starts, and
        a first untraced call makes NumPy's one-time lazy imports).  Three
        separate weighted sums, a contiguous copy of the Gram blocks and a
        shifted copy of them in the feasibility test peaked at 4.26 stacks
        plus the subjects' stack, over the bound."""
        data, _ = gen_scenario2(100, np.random.default_rng(8))
        specs = (make_spec("radial", 2, 3, data.time_domain),) * 3
        base = base_fit(data, specs)
        side = base.alpha_hat.size + 1
        assert side - 1 >= 17
        bootstrap_fit(data, specs, 1, 1, base=base)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            draws = bootstrap_fit(data, specs, 200, 1, base=base)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert draws.n_draws == 200
        assert peak < (data.n_subjects + 3 * 200) * side**2 * 8


class TestLoopOracle:
    """The batched sufficient-statistics bootstrap against the per-replicate
    resample-and-refit loop."""

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_draws_match_loop(self, scenario):
        if scenario == 1:
            data, _ = gen_scenario1(30, np.random.default_rng(8))
        else:
            data, _ = gen_scenario2(40, np.random.default_rng(8))
        specs = tuple(make_spec("radial", 2, 2, data.time_domain)
                      for _ in range(data.covariate_dim + 1))
        hits, _ = loop_bootstrap(data, specs, 40, 13)
        draws = bootstrap_fit(data, specs, 40, 13)
        alpha = np.array([a for _, a, _ in hits])
        sigma2 = np.array([s for _, _, s in hits])
        assert np.abs(draws.alpha_draws - alpha).max() \
            <= 1e-8 * np.abs(alpha).max()
        np.testing.assert_allclose(draws.sigma2_draws, sigma2, rtol=1e-9)

    def test_redraws_succeed_on_the_same_attempts(self):
        data = _one_obs_each(6)
        specs = (make_spec("tpower", 4, 0, data.time_domain),)
        hits, attempts = loop_bootstrap(data, specs, 10, 0)
        assert attempts > 10  # several redraw waves ran
        assert _feasible_attempts(data, specs, 0, attempts) == \
            [i for i, _, _ in hits]
        draws = bootstrap_fit(data, specs, 10, 0)
        assert draws.attempts == attempts
        np.testing.assert_allclose(draws.alpha_draws,
                                   np.array([a for _, a, _ in hits]),
                                   rtol=1e-8, atol=1e-8)

    def test_exhaustion_matches_loop(self):
        data = _one_obs_each(8)
        specs = (make_spec("tpower", 6, 0, data.time_domain),)
        hits, attempts = loop_bootstrap(data, specs, 100, 0)
        assert len(hits) < 100 and attempts == REDRAW_FACTOR * 100
        assert _feasible_attempts(data, specs, 0, attempts) == \
            [i for i, _, _ in hits]
        expected = (f"only {len(hits)} of 100 replicates succeeded within "
                    f"{attempts} attempts")
        with pytest.raises(BootstrapDegeneracyError, match=expected):
            bootstrap_fit(data, specs, 100, 0)

    @pytest.mark.parametrize("n", [6, 7, 8, 30, 40, 50, 100, 101])
    def test_pick_matrix_equals_sequential_resamples(self, n):
        """One integers call for a chunk of attempts draws the subjects that
        resample_subjects draws when called once per attempt."""
        data = _one_obs_each(n)
        picks = np.random.default_rng(n).integers(0, n, size=(9, n))
        gen = np.random.default_rng(n)
        for row in picks:
            assert _picks(data, resample_subjects(data, gen)) == row.tolist()

    def test_short_batches_reuse_one_buffer(self, monkeypatch):
        """With frequentist.STACK_CHUNK at 3 on a panel whose singular
        attempts force redraws, every batch's sums are views of one buffer,
        the shorter batches of its leading rows, and the draws and attempts
        are the per-replicate oracle's."""
        data = _one_obs_each(6)
        specs = (make_spec("tpower", 4, 0, data.time_domain),)
        hits, attempts = loop_bootstrap(data, specs, 10, 0)
        base, grams = base_fit(data, specs), []
        solve = tvcm.frequentist.solve_stats
        monkeypatch.setattr(tvcm.frequentist, "solve_stats", lambda stats: grams.append(stats.gram) or solve(stats))
        monkeypatch.setattr(tvcm.frequentist, "STACK_CHUNK", 3)
        draws = bootstrap_fit(data, specs, 10, 0, base=base)
        assert len(grams) > 4 and {len(g) for g in grams} >= {1, 2, 3}
        assert all(np.shares_memory(g, grams[0]) for g in grams)
        assert draws.attempts == attempts
        np.testing.assert_allclose(draws.alpha_draws, np.array([a for _, a, _ in hits]), rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(draws.sigma2_draws, np.array([s for _, _, s in hits]), rtol=1e-8, atol=1e-8)

    def test_chunking_leaves_draws_unchanged(self, monkeypatch):
        """frequentist.STACK_CHUNK bounds scratch memory only.  A replicate's
        row of the weighted-sum GEMM may round differently with the attempts
        that share its chunk, so on a multi-observation panel (scenario 2,
        300 draws, above STACK_CHUNK) the bootstrap in chunks of 3 draws keeps
        alpha and sigma2 within 1e-12 of the largest draw of the default
        chunk's.  On a one-observation-per-subject panel it keeps exactly the
        default chunk's draws.  Both keep the attempt count.  crossval_amse in
        chunks of 3 folds gives the default chunk's AMSE for wls and vb,
        5-fold and leave-one-out, within 1e-12 relative: only the order of
        the cross-chunk sum changes."""
        data = _one_obs_each(6)
        specs = (make_spec("tpower", 4, 0, data.time_domain),)
        multi, _ = gen_scenario2(40, np.random.default_rng(2))
        multi_specs = (make_spec("tpower", 2, 2, multi.time_domain),) * 3
        n_multi = tvcm.frequentist.STACK_CHUNK + 44
        panel, _ = gen_scenario1(12, np.random.default_rng(5), m=5)
        panel_specs = (make_spec("radial", 2, 1, panel.time_domain),)
        runs = [(engine, folds) for engine in ("wls", "vb") for folds in (5, panel.n_obs)]

        def crossval():
            return [crossval_amse(panel, panel_specs, folds, rng=4, engine=engine) for engine, folds in runs]

        whole, whole_amse = bootstrap_fit(data, specs, 10, 0), crossval()
        whole_multi = bootstrap_fit(multi, multi_specs, n_multi, 1)
        monkeypatch.setattr(tvcm.frequentist, "STACK_CHUNK", 3)
        chunked, chunked_amse = bootstrap_fit(data, specs, 10, 0), crossval()
        chunked_multi = bootstrap_fit(multi, multi_specs, n_multi, 1)
        np.testing.assert_array_equal(chunked.alpha_draws, whole.alpha_draws)
        np.testing.assert_array_equal(chunked.sigma2_draws, whole.sigma2_draws)
        assert chunked.attempts == whole.attempts
        for got, want in ((chunked_multi.alpha_draws, whole_multi.alpha_draws),
                          (chunked_multi.sigma2_draws, whole_multi.sigma2_draws)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert chunked_multi.attempts == whole_multi.attempts
        assert whole_multi.n_draws == n_multi
        assert chunked_amse == pytest.approx(whole_amse, rel=1e-12, abs=0.0)


def _exact_sigma2(data, specs, seed, alpha):
    """sigma2 of each replicate alpha[b] from the weighted residuals of the
    b-th resample_subjects draw from default_rng(seed)."""
    gen = np.random.default_rng(seed)
    out = []
    for coef in alpha:
        bundle = build_design(resample_subjects(data, gen), specs)
        resid = np.sqrt(bundle.weights) * (bundle.y - bundle.Z @ coef)
        out.append(resid @ resid / (bundle.y.size - bundle.n_params))
    return np.array(out)


def _subject_cross(bundle, counts, center):
    """subject_stats of a design about center, from its bordered rows [Z~ | e]."""
    design, response = whiten(bundle)
    return subject_stats(np.column_stack([design, response - design @ center]), counts)


def _loop_subject_blocks(bundle, counts, center):
    """Each subject's Gram block, cross product and squared residual e_i'e_i
    about center from its own small matmuls: the per-subject loop that
    subject_stats batches by visit count.  e = y~ - Z~ center is formed as
    the library forms it, so an exact fit's roundoff residuals agree."""
    sw = np.sqrt(bundle.weights)
    design, response = bundle.Z * sw[:, None], bundle.y * sw
    resid = response - design @ center
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    spans = [slice(lo, lo + c) for lo, c in zip(starts, counts)]
    gram = np.stack([design[s].T @ design[s] for s in spans])
    cross = np.stack([design[s].T @ response[s] for s in spans])
    resid_sq = np.array([resid[s] @ resid[s] for s in spans])
    return gram, cross, resid_sq


class TestSubjectStats:
    @pytest.mark.parametrize("panel", ["scenario1", "scenario2", "demo",
                                       "one-visit"])
    def test_blocks_match_subject_loop(self, panel, request):
        if panel == "scenario1":
            data, _ = gen_scenario1(50, np.random.default_rng(4))
            specs = (make_spec("radial", 2, 3, data.time_domain),)
        elif panel == "scenario2":
            data, _ = gen_scenario2(100, np.random.default_rng(4))
            specs = tuple(make_spec("radial", 2, 4, data.time_domain)
                          for _ in range(3))
        elif panel == "demo":
            data = ingest_csv(request.getfixturevalue("demo_csv"))
            specs = tuple(make_spec("tpower", 2, 3, data.time_domain)
                          for _ in range(data.covariate_dim + 1))
        else:
            data = _one_obs_each(9)
            specs = (make_spec("tpower", 1, 0, data.time_domain),)
        assert panel == "one-visit" or np.unique(data.counts).size > 1
        bundle = build_design(data, specs)
        center = base_fit(data, specs).alpha_hat
        stats = bordered_stats(_subject_cross(bundle, data.counts, center), data.counts, center)
        gram, cross, resid_sq = _loop_subject_blocks(bundle, data.counts, stats.center)
        np.testing.assert_allclose(stats.gram, gram, rtol=1e-14,
                                   atol=1e-14 * np.abs(gram).max())
        lever = cross - gram @ stats.center
        np.testing.assert_allclose(stats.lever, lever, rtol=1e-14,
                                   atol=1e-14 * np.abs(cross).max())
        np.testing.assert_allclose(stats.resid_sq, resid_sq, rtol=1e-14,
                                   atol=1e-14 * resid_sq.max())


class TestCenteredSigma2:
    """sigma2 from the per-subject statistics about the full-data center
    against the exact weighted residuals of each resampled design."""

    @pytest.mark.parametrize("panel", ["scenario1", "scenario2", "demo"])
    def test_matches_exact_residuals(self, panel, request):
        if panel == "scenario1":
            data, _ = gen_scenario1(30, np.random.default_rng(8))
            specs = (make_spec("radial", 2, 2, data.time_domain),)
        elif panel == "scenario2":
            data, _ = gen_scenario2(40, np.random.default_rng(8))
            specs = tuple(make_spec("radial", 2, 2, data.time_domain)
                          for _ in range(3))
        else:
            data = ingest_csv(request.getfixturevalue("demo_csv"))
            specs = tuple(make_spec("tpower", 2, 3, data.time_domain)
                          for _ in range(data.covariate_dim + 1))
        n = data.n_subjects
        picks = np.random.default_rng(3).integers(0, n, size=(25, n))
        feasible, alpha, sigma2 = _replicate_batch(data, specs, picks)
        assert feasible.all()
        exact = _exact_sigma2(data, specs, 3, alpha)
        np.testing.assert_allclose(sigma2, exact, rtol=1e-10, atol=0.0)

    def test_noiseless_panel_stays_at_roundoff(self):
        base, _ = gen_scenario1(12, np.random.default_rng(42), m=6,
                                level="weak", shape="exp")
        specs = (make_spec("radial", 2, 1, base.time_domain),)
        alpha_star = np.random.default_rng(5).standard_normal(
            build_design(base, specs).n_params)
        clean = exact_response_dataset(base, specs, alpha_star)
        picks = np.random.default_rng(9).integers(0, 12, size=(20, 12))
        feasible, alpha, sigma2 = _replicate_batch(clean, specs, picks)
        exact = _exact_sigma2(clean, specs, 9, alpha)[feasible]
        assert feasible.sum() >= 10
        assert np.abs(sigma2[feasible] - exact).max() <= 1e-26
        assert sigma2[feasible].max() <= 1e-24


# ---------------------------------------------------------------------------
# Percentile intervals
# ---------------------------------------------------------------------------


class TestPercentileInterval:
    def test_hand_example(self):
        """50% interval of 1..100 under linear rank interpolation."""
        lo, hi = percentile_interval(np.arange(1.0, 101.0), 0.5)
        assert lo == pytest.approx(25.75)
        assert hi == pytest.approx(75.25)

    def test_constant_samples_collapse(self):
        lo, hi = percentile_interval(np.full(40, 3.25), 0.95)
        assert lo == hi == 3.25

    def test_nesting(self):
        samples = np.random.default_rng(0).standard_normal(400)
        lo95, hi95 = percentile_interval(samples, 0.95)
        lo99, hi99 = percentile_interval(samples, 0.99)
        assert lo99 <= lo95 < hi95 <= hi99

    def test_extreme_level_stays_within_tail_gaps(self):
        """When level >= 1 - 2/B the endpoints sit between the extreme order
        statistics, and in the level -> 1 limit they hit min and max."""
        samples = np.arange(1.0, 101.0)
        lo, hi = percentile_interval(samples, 0.999)
        assert 1.0 <= lo <= 2.0
        assert 99.0 <= hi <= 100.0
        lo1, hi1 = percentile_interval(samples, 1.0 - 1e-15)
        assert lo1 == pytest.approx(1.0)
        assert hi1 == pytest.approx(100.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile_interval(np.arange(5.0), 0.0)
        with pytest.raises(ValueError):
            percentile_interval(np.array([]), 0.5)
        with pytest.raises(ValueError):
            central_quantiles(np.ones((2, 4)), 1.0)
        with pytest.raises(ValueError):
            PosteriorDraws(np.ones((2, 2)), np.ones(2), DrawSource.GIBBS).summary(0.0)

    def test_sorted_form_equals_numpy_quantile(self):
        """The row form and percentile_interval reproduce np.quantile's
        'linear' method bit for bit: random shapes and levels, rounded values
        with ties, n = 1, and a NaN row."""
        gen = np.random.default_rng(17)
        for trial in range(300):
            n = 1 if trial % 10 == 0 else int(gen.integers(2, 600))
            samples = gen.standard_normal((int(gen.integers(1, 5)), n))
            if trial % 2:
                samples = np.round(samples, 1)
            if trial % 7 == 0:
                samples[0, int(gen.integers(n))] = np.nan
            level = float(gen.uniform(1e-6, 1.0 - 1e-6))
            tail = (1.0 - level) / 2.0
            want = np.quantile(samples, [tail, 1.0 - tail], axis=-1,
                               method="linear")
            lo, hi = central_quantiles(np.sort(samples, axis=-1), level)
            np.testing.assert_array_equal(lo, want[0])
            np.testing.assert_array_equal(hi, want[1])
            one = np.quantile(samples[-1], [tail, 1.0 - tail],
                              method="linear")
            np.testing.assert_array_equal(
                percentile_interval(samples[-1], level), one)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95])
    def test_column_form_equals_per_column_calls(self, level):
        """summary()'s interval for each column of the draws, sigma2 too, is
        percentile_interval of that column."""
        gen = np.random.default_rng(4)
        alpha = np.round(gen.standard_normal((200, 37)), 1)
        sigma2 = np.round(gen.uniform(0.5, 2.0, 200), 1)
        s = PosteriorDraws(alpha, sigma2, DrawSource.GIBBS).summary(level)
        expected = [percentile_interval(alpha[:, j], level)
                    for j in range(alpha.shape[1])]
        assert s["alpha_lower"] == [e[0] for e in expected]
        assert s["alpha_upper"] == [e[1] for e in expected]
        assert (s["sigma2_lower"], s["sigma2_upper"]) == \
            percentile_interval(sigma2, level)

    def test_public_forms_leave_samples_untouched(self):
        samples = np.random.default_rng(8).standard_normal((300, 5))
        before = samples.copy()
        percentile_interval(samples, 0.9)
        percentile_interval(samples[:, 0], 0.9)
        draws = PosteriorDraws(samples, np.abs(samples[:, 0]) + 1.0, DrawSource.GIBBS)
        draws.summary(0.9)
        assert samples.tobytes() == before.tobytes()
        assert draws.alpha_draws.tobytes() == before.tobytes()

    @pytest.mark.parametrize("level", [0.5, 0.95])
    def test_in_place_row_sort_matches_numpy_quantile(self, level):
        """cmd_fit's path: a fresh (grid, draws) matrix sorted in place along
        its rows, with ties and signed zeros."""
        samples = np.round(np.random.default_rng(9).standard_normal((40, 2000)), 2)
        samples[:, :3] = -0.0
        bands = samples.copy()
        bands.sort(axis=1)
        lo, hi = central_quantiles(bands, level)
        tail = (1.0 - level) / 2.0
        want = np.quantile(samples, [tail, 1.0 - tail], axis=-1, method="linear")
        assert lo.tobytes() == want[0].tobytes() and hi.tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# Draw container
# ---------------------------------------------------------------------------


def _loop_to_csv(draws: PosteriorDraws, path) -> None:
    """Reference writer: one csv.writer row per draw and parameter."""
    p = draws.n_params
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["draw", "param_index", "value"])
        for b in range(draws.n_draws):
            for j in range(p):
                writer.writerow([b, j, repr(float(draws.alpha_draws[b, j]))])
            writer.writerow([b, p, repr(float(draws.sigma2_draws[b]))])




class TestPosteriorDraws:
    def test_caller_arrays_stay_writeable(self):
        """The draws freeze copies that they own: the caller's arrays stay
        writeable, and writing to them leaves the draws unchanged."""
        alpha, sigma2 = np.arange(6.0).reshape(3, 2), np.ones(3)
        d = PosteriorDraws(alpha, sigma2, DrawSource.GIBBS)
        for mine, theirs in ((alpha, d.alpha_draws), (sigma2, d.sigma2_draws)):
            assert not theirs.flags.writeable
            before = theirs.copy()
            mine[0] = 9.0
            np.testing.assert_array_equal(theirs, before)

    def test_bootstrap_allows_zero_variance(self):
        d = PosteriorDraws(np.zeros((3, 2)), np.zeros(3),
                           DrawSource.BOOTSTRAP, 1)
        assert d.n_draws == 3

    def test_sampler_sources_need_positive_variance(self):
        with pytest.raises(ValueError):
            PosteriorDraws(np.zeros((3, 2)), np.zeros(3), DrawSource.GIBBS, 1)

    def test_csv_layout(self, tmp_path):
        """Long format: one row per draw and parameter, sigma2 stored as
        parameter index p."""
        d = PosteriorDraws(np.arange(6.0).reshape(3, 2),
                           np.array([1.0, 2.0, 3.0]), DrawSource.BOOTSTRAP, 7)
        path = tmp_path / "draws.csv"
        d.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "draw,param_index,value"
        assert len(lines) == 1 + 3 * 3
        assert lines[1] == "0,0,0.0"
        assert lines[3] == "0,2,1.0"

    @pytest.mark.parametrize("source", ["bootstrap", "gibbs", "awkward", "gibbs-large"])
    def test_csv_matches_row_writer(self, source, tmp_path):
        """to_csv writes the bytes of the csv.writer row loop."""
        data, _ = gen_scenario1(30, np.random.default_rng(2))
        specs, n_draws = (make_spec("radial", 2, 1, data.time_domain),), 40
        if source == "gibbs-large":
            # the benchmark's size: 2,000 draws of 21 coefficients and sigma2
            data, _ = gen_scenario2(60, np.random.default_rng(2))
            specs, n_draws = (make_spec("tpower", 2, 4, data.time_domain),) * 3, 2000
        if source == "bootstrap":
            draws = bootstrap_fit(data, specs, 25, 4)
        elif source.startswith("gibbs"):
            bundle = build_design(data, specs)
            z_t, y_t = whiten(bundle)
            draws = gibbs(z_t, y_t, default_prior(fit_wls(bundle)), draws=n_draws,
                          burnin=5, rng=4)
        else:
            # values whose repr is in exponent form, signed zero, extremes
            alpha = np.array([[1e-05, -0.0, 1e16, -2.5e-300],
                              [0.1, 123456789.123, -1e-07, 5e-324]])
            draws = PosteriorDraws(alpha, np.array([0.0, 1.7976931348623157e308]),
                                   DrawSource.BOOTSTRAP, 3)
        fast, loop = tmp_path / "fast.csv", tmp_path / "loop.csv"
        draws.to_csv(fast)
        _loop_to_csv(draws, loop)
        assert fast.read_bytes() == loop.read_bytes()

    @pytest.mark.parametrize("n_draws", [1, 5])
    def test_summary_of_one_parameter_read_only_draws(self, n_draws):
        """With one parameter the draws' transpose is already contiguous;
        summary sorts a copy, never the read-only draws."""
        alpha = np.arange(n_draws, 0, -1.0)[:, None]
        draws = PosteriorDraws(alpha, alpha[:, 0] + 1.0, DrawSource.GIBBS)
        assert not draws.alpha_draws.flags.writeable
        s = draws.summary(0.5)
        lo, hi = percentile_interval(alpha, 0.5)
        assert s["alpha_lower"] == [lo] and s["alpha_upper"] == [hi]
        assert (s["sigma2_lower"], s["sigma2_upper"]) == (lo + 1.0, hi + 1.0)
        assert draws.alpha_draws[:, 0].tolist() == alpha[:, 0].tolist()

    def test_summary_contract(self):
        d = PosteriorDraws(np.arange(8.0).reshape(4, 2),
                           np.full(4, 0.5), DrawSource.BOOTSTRAP, -1)
        s = d.summary(0.5)
        assert s["n_draws"] == 4
        assert s["level"] == 0.5
        np.testing.assert_allclose(s["alpha_mean"], [3.0, 4.0])
        assert s["source"] == "bootstrap"
