"""Slow, obvious references that the library's fast paths are checked against.

candidate_pcv scores one knot-search candidate by a full QR refit, elbo
evaluates the variational objective at any state from its definition,
stacked_design builds the design block by block, write_curves_rows writes
curves.csv a row at a time, gibbs_rows runs the sampler one matrix-vector
product per iteration, loop_bootstrap resamples and refits one bootstrap
replicate at a time, and per_fold_crossval rebuilds and refits every
cross-validation fold's training dataset.  The library keeps only the fast
paths: knot_search's shared Gram statistics, vb.vb_fit_from_stats's
closed-form trace, build_design's shared basis evaluations,
cli._write_curves's column templates, mcmc.gibbs_from_stats's stacked
L^-T z_t, and bootstrap_fit's and crossval_amse's per-subject statistics,
which frequentist.subject_stats reads off one product of each subject's
bordered rows [Z~ | e] with themselves, one GEMM sums and
frequentist.solve_stats solves.  gibbs_rows and elbo read M, L^-T, mu and r0 from
frequentist.ridge_posterior on statistics about any center, as the library
does.
"""
from __future__ import annotations

import numpy as np

from tvcm.basis import basis_matrix, build_design, make_spec
from tvcm.bootstrap import REDRAW_FACTOR, DrawSource, PosteriorDraws, resample_subjects
from tvcm.data import LongitudinalDataset
from tvcm.engines import fit_engine
from tvcm.errors import (
    DataError,
    InsufficientDataError,
    KnotError,
    NumericalError,
    SelectionError,
    SingularDesignError,
)
from tvcm.frequentist import GramStats, fit_wls, gram_stats, predict_rows, ridge_posterior
from tvcm.mcmc import DEFAULT_BURNIN, PriorSpec
from tvcm.rng import as_generator
from tvcm.selection import pcv
from tvcm.vb import VariationalPosterior, _objective_constant


def candidate_pcv(data, family, degree, combo, weights, bandwidth=None, placement="equal"):
    """Trace-form criterion of one candidate by a full QR refit; the oracle for knot_search."""
    try:
        specs = tuple(make_spec(family, degree, k, data.time_domain, bandwidth,
                                placement=placement, times=data.times) for k in combo)
        bundle = build_design(data, specs, weights)
        fit = fit_wls(bundle)
    except (SingularDesignError, InsufficientDataError, KnotError):
        return float("inf")
    return pcv(bundle, fit)


def elbo(post: VariationalPosterior, Z: np.ndarray, y: np.ndarray, prior: PriorSpec) -> float:
    """Objective value at an arbitrary variational state."""
    M, _, mu, r0 = ridge_posterior(gram_stats(Z, y), prior.ridge)
    a_star, b_star, d = post.a_star, post.b_star, post.m_star - mu
    # ||y~ - Z~ m||^2 + ridge ||m||^2 = r0 + (m - mu)' M (m - mu), since M mu = Z~'y~
    bracket = prior.b_sigma + 0.5 * (r0 + d @ (M @ d) + np.einsum("ij,ji->", M, post.V_star))
    sign, logdet_v = np.linalg.slogdet(post.V_star)
    if sign <= 0:
        raise NumericalError("V_star must be positive definite for the objective")
    return float(
        _objective_constant(np.shape(Z)[0], mu.size, prior, a_star)
        + (a_star + 2.0) * np.log(b_star)
        + a_star
        + 0.5 * logdet_v
        - (a_star / b_star) * bracket
    )


def stacked_design(data, specs) -> np.ndarray:
    """Each coefficient's covariate column times its basis, concatenated; the oracle for build_design."""
    x = np.column_stack([np.ones(data.n_obs), data.covariates])
    blocks = [x[:, [r]] * basis_matrix(spec, data.times) for r, spec in enumerate(specs)]
    return np.concatenate(blocks, axis=1)


def write_curves_rows(path, grid, curves) -> None:
    """curves.csv one (r, t, estimate, lower, upper) tuple at a time; the oracle for cli._write_curves."""
    rows = []
    for r, (est, lo, hi) in enumerate(curves):
        if lo is None:
            lo = hi = [None] * grid.size
        for g in range(grid.size):
            rows.append((r, grid[g], est[g], lo[g], hi[g]))
    with open(path, "w") as fh:
        fh.write("coefficient,t,estimate,lower,upper\n")
        for r, t, est, lo, hi in rows:
            lo_s = "" if lo is None else repr(float(lo))
            hi_s = "" if hi is None else repr(float(hi))
            fh.write(f"{r},{float(t)!r},{float(est)!r},{lo_s},{hi_s}\n")


def gibbs_rows(stats: GramStats, prior: PriorSpec, draws, burnin, rng, fixed_sigma2=None) -> PosteriorDraws:
    """mcmc.gibbs_from_stats with one L^-T z_t product and one NumPy rate per iteration; its bit-for-bit oracle."""
    if draws < 1 or burnin < 0:
        raise ValueError(f"need draws >= 1 and burnin >= 0, got {draws}, {burnin}")
    if fixed_sigma2 is not None and not fixed_sigma2 > 0:
        raise ValueError(f"fixed_sigma2 must be positive, got {fixed_sigma2}")
    # alpha = mu + sigma * L^-T z
    M, linv_t, mu, r0 = ridge_posterior(stats, prior.ridge)
    n_obs, p = stats.n_obs, mu.size
    gen, seed = as_generator(rng)

    total = draws + burnin
    a_star = prior.a_sigma + n_obs / 2.0 + p / 2.0
    gammas = gen.standard_gamma(a_star, size=total)
    normals = gen.standard_normal((total, p))
    alpha_out = np.empty((total, p))
    sigma2_out = np.empty(total)
    alpha = mu
    sigma2 = fixed_sigma2
    for t in range(total):
        if fixed_sigma2 is None:
            d = alpha - mu
            sigma2 = (prior.b_sigma + 0.5 * (r0 + d @ (M @ d))) / gammas[t]
        alpha = mu + np.sqrt(sigma2) * (linv_t @ normals[t])
        alpha_out[t] = alpha
        sigma2_out[t] = sigma2
    if not (np.all(np.isfinite(alpha_out)) and np.all(np.isfinite(sigma2_out))):
        raise NumericalError("sampler produced non-finite draws")
    return PosteriorDraws(
        alpha_draws=alpha_out[burnin:],
        sigma2_draws=sigma2_out[burnin:],
        source=DrawSource.GIBBS,
        seed=seed,
    )


def loop_bootstrap(data, specs, n_draws, seed):
    """bootstrap_fit one replicate at a time: resample_subjects from the master
    generator and a QR fit_wls per attempt, in attempt order, in waves of one
    attempt per missing draw; bootstrap_fit's batches, never larger than the
    missing draws, end on the same attempt.  Returns the successful (attempt
    index, alpha, sigma2) and the attempts used."""
    gen = np.random.default_rng(seed)
    cap = REDRAW_FACTOR * n_draws
    hits, attempts = [], 0
    while len(hits) < n_draws and attempts < cap:
        wave = min(n_draws - len(hits), cap - attempts)
        for offset in range(wave):
            try:
                fit = fit_wls(build_design(resample_subjects(data, gen), specs))
            except (SingularDesignError, InsufficientDataError):
                continue
            hits.append((attempts + offset, fit.alpha_hat, fit.sigma2_hat))
        attempts += wave
    return hits, attempts


def take_rows(data: LongitudinalDataset, keep: np.ndarray) -> LongitudinalDataset:
    """Dataset restricted to the kept stacked-row indices; empty subjects drop out."""
    keep_mask = np.zeros(data.n_obs, dtype=bool)
    keep_mask[keep] = True
    kept = np.bincount(data.subject_index[keep_mask], minlength=data.n_subjects)
    if not kept.any():
        raise DataError("no subjects left after removing held-out rows")
    return LongitudinalDataset(
        tuple(sid for sid, k in zip(data.subject_ids, kept) if k),
        kept[kept > 0],
        data.times[keep_mask],
        data.responses[keep_mask],
        data.covariates[keep_mask],
        data.time_domain,
    )


def per_fold_crossval(data, specs, n_folds, rng=0, engine="wls", draws=0, burnin=DEFAULT_BURNIN) -> float:
    """crossval_amse by rebuilding each fold's training dataset and design and refitting it.

    The same permutation, folds and per-fold generators as crossval_amse;
    wls takes no draws, as crossval_amse's wls folds draw nothing.
    """
    n_obs = data.n_obs
    if not 2 <= n_folds <= n_obs:
        raise ValueError(f"n_folds must be in [2, {n_obs}], got {n_folds}")
    gen, _ = as_generator(rng)
    perm = gen.permutation(n_obs)
    folds = np.array_split(perm, n_folds)
    fold_rngs = gen.spawn(n_folds)
    specs = tuple(specs)
    total = 0.0
    for f, fold in enumerate(folds):
        try:
            train = take_rows(data, np.setdiff1d(perm, fold))
            result = fit_engine(train, specs, engine, rng=fold_rngs[f],
                                draws=0 if engine == "wls" else draws, burnin=burnin)
        except (SingularDesignError, InsufficientDataError, DataError) as exc:
            raise SelectionError(f"fold {f} is infeasible: {exc}") from exc
        preds = predict_rows(result.alpha, specs, data.covariates[fold], data.times[fold])
        total += float(np.sum((data.responses[fold] - preds) ** 2))
    return total / n_obs
