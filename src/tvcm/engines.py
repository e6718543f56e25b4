"""Uniform front end over the three inference engines.

Given a dataset and basis specs, fit_engine produces a point estimate of the
stacked coefficients plus optional draws, timing only the inference stage
(bootstrap replicates, sampler iterations including burn-in, or variational
optimization plus sampling) so the engines can be compared on equal terms.
The engine-independent prefix is frequentist.base_fit, the one full-data
WLS fit, which the bootstrap steps from and whose statistics the Gibbs, VB
and DIC code read; no engine solves it again.  A caller fitting several
engines to one design, as simgen.run_replications does, builds the BaseFit
once and passes it to each fit_engine call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import PosteriorDraws, bootstrap_fit
from .data import LongitudinalDataset
from .frequentist import BaseFit, GramStats, base_fit
from .mcmc import DEFAULT_BURNIN, DEFAULT_DRAWS, calibrated_prior, gibbs_from_stats
from .vb import DEFAULT_MAX_ITERS, DEFAULT_TOL, vb_fit_from_stats, vb_sample

ENGINES = ("wls", "gibbs", "vb")


@dataclass
class EngineResult:
    engine: str
    alpha: np.ndarray
    sigma2_hat: float  # base_fit's WLS noise variance estimate, which calibrates the priors
    draws: PosteriorDraws | None
    sampling_seconds: float
    extra: dict = field(default_factory=dict)
    # the whitened fit's statistics, read by DIC
    stats: GramStats | None = None


def fit_engine(
    data: LongitudinalDataset,
    specs,
    engine: str,
    rng=0,
    draws: int = 0,
    burnin: int = DEFAULT_BURNIN,
    tol: float = DEFAULT_TOL,
    base: BaseFit | None = None,
) -> EngineResult:
    """Fit one engine; draws=0 means the engine default (none for wls).

    base, when given, replaces base_fit(data, specs); it is built here otherwise.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if draws < 0:
        raise ValueError(f"draws must be non-negative (0 means the engine default), got {draws}")
    if base is None:
        base = base_fit(data, specs)
    stats, alpha_hat, sigma2_hat = base.stats, base.alpha_hat, base.sigma2_hat
    if engine == "wls":
        if draws == 0:
            return EngineResult("wls", alpha_hat, sigma2_hat, None, 0.0, stats=stats)
        start = time.perf_counter()
        boot = bootstrap_fit(data, specs, draws, rng, base=base)
        elapsed = time.perf_counter() - start
        tries = {"attempts": boot.attempts, "redraws": boot.attempts - boot.n_draws}
        return EngineResult("wls", alpha_hat, sigma2_hat, boot, elapsed, {"bootstrap": tries}, stats=stats)

    prior = calibrated_prior(sigma2_hat, stats.n_obs, stats.rss(0.0))
    n_draws = draws if draws > 0 else DEFAULT_DRAWS
    extra = {"prior": prior.to_dict()}
    start = time.perf_counter()
    if engine == "gibbs":
        out = gibbs_from_stats(stats, prior, draws=n_draws, burnin=burnin, rng=rng)
        point = out.alpha_draws.mean(axis=0)
    else:
        post = vb_fit_from_stats(stats, prior, tol=tol, max_iters=DEFAULT_MAX_ITERS)
        out = vb_sample(post, n_draws, rng)
        point = post.m_star
        extra["posterior"] = post.to_dict()
    elapsed = time.perf_counter() - start
    return EngineResult(engine, point, sigma2_hat, out, elapsed, extra, stats=stats)
