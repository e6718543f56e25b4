"""Uniform front end over the three inference engines.

Given a dataset and basis specs, fit_engine produces a point estimate of the
stacked coefficients plus optional draws, timing only the inference stage
(bootstrap replicates, sampler iterations including burn-in, or variational
optimization plus sampling) so the engines can be compared on equal terms.
The engine-independent prefix is base_fit: the design, one whitened
frequentist.GramStats, the WLS estimate (its center plus fit_gram's step)
and sigma2_hat (GramStats.rss).
mcmc.gibbs_from_stats, vb.vb_fit_from_stats and DIC read the same statistics.
A caller fitting several engines to one design, as simgen.run_replications
does, builds the BaseFit once and passes it to each fit_engine call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .basis import DesignBundle, build_design
from .bootstrap import PosteriorDraws, bootstrap_fit
from .data import LongitudinalDataset
from .frequentist import GramStats, fit_gram, gram_stats, whiten
from .mcmc import DEFAULT_BURNIN, DEFAULT_DRAWS, calibrated_prior, gibbs_from_stats
from .vb import DEFAULT_MAX_ITERS, DEFAULT_TOL, vb_fit_from_stats, vb_sample

ENGINES = ("wls", "gibbs", "vb")


@dataclass
class EngineResult:
    engine: str
    alpha: np.ndarray
    # the WLS noise variance estimate (N - p denominator) that calibrates the priors
    sigma2_hat: float
    draws: PosteriorDraws | None
    sampling_seconds: float
    extra: dict = field(default_factory=dict)
    # the whitened fit's statistics, read by DIC
    stats: GramStats | None = None


@dataclass(frozen=True)
class BaseFit:
    """What every engine reads: the design, its whitened statistics, the WLS fit."""

    bundle: DesignBundle | None  # None for a cross-validation fold, which has no design
    stats: GramStats
    alpha_hat: np.ndarray
    # the WLS noise variance estimate (N - p denominator) that calibrates the priors
    sigma2_hat: float


def base_fit(data: LongitudinalDataset, specs) -> BaseFit:
    """The engine-independent prefix of fit_engine; raises as fit_gram does."""
    bundle = build_design(data, specs)
    n_obs, p = bundle.Z.shape
    stats = gram_stats(*whiten(bundle))
    alpha_hat = stats.center + fit_gram(stats.gram, stats.lever, n_obs)
    return BaseFit(bundle, stats, alpha_hat, float(stats.rss(alpha_hat)) / (n_obs - p))


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
        boot = bootstrap_fit(data, specs, draws, rng, bundle=base.bundle)
        elapsed = time.perf_counter() - start
        tries = {"attempts": boot.attempts, "redraws": boot.attempts - boot.n_draws}
        return EngineResult("wls", alpha_hat, sigma2_hat, boot, elapsed, {"bootstrap": tries}, stats=stats)

    prior = calibrated_prior(sigma2_hat, stats.n_obs)
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
