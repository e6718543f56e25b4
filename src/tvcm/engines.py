"""Uniform front end over the three inference engines.

Given a dataset and basis specs, fit_engine produces a point estimate of the
stacked coefficients plus optional draws, timing only the inference stage
(bootstrap replicates, sampler iterations including burn-in, or variational
optimization plus sampling) so the engines can be compared on equal terms.
A gibbs or vb fit builds one frequentist.GramStats, which its feasibility
test, sigma2_hat (GramStats.rss), sampler or VB fit, and DIC all read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .basis import build_design
from .bootstrap import PosteriorDraws, bootstrap_fit
from .data import LongitudinalDataset
from .errors import InsufficientDataError, SingularDesignError
from .frequentist import CONDITION_LIMIT, GramStats, fit_wls, gram_stats, solve_gram, whiten
from .mcmc import DEFAULT_BURNIN, DEFAULT_DRAWS, _gibbs, calibrated_prior
from .vb import DEFAULT_MAX_ITERS, DEFAULT_TOL, _vb_fit, vb_sample

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
    # the whitened fit's statistics for the Bayesian engines, read by DIC; None for wls
    stats: GramStats | None = None


def fit_engine(
    data: LongitudinalDataset,
    specs,
    engine: str,
    rng=0,
    draws: int = 0,
    burnin: int = DEFAULT_BURNIN,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> EngineResult:
    """Fit one engine; draws=0 means the engine default (none for wls)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if draws < 0:
        raise ValueError(f"draws must be non-negative (0 means the engine default), got {draws}")
    bundle = build_design(data, specs)
    if engine == "wls":
        base = fit_wls(bundle)
        if draws == 0:
            return EngineResult("wls", base.alpha_hat, base.sigma2_hat, None, 0.0)
        start = time.perf_counter()
        boot = bootstrap_fit(data, specs, draws, rng, bundle=bundle)
        elapsed = time.perf_counter() - start
        tries = {"attempts": boot.attempts, "redraws": boot.attempts - boot.n_draws}
        return EngineResult("wls", base.alpha_hat, base.sigma2_hat, boot, elapsed, {"bootstrap": tries})

    n_obs, p = bundle.Z.shape
    if n_obs <= p:
        raise InsufficientDataError(f"{n_obs} observations cannot identify {p} coefficients")
    # centred at the ridge solution for calibrated_prior's ridge 1/N
    stats = gram_stats(*whiten(bundle), ridge=1.0 / n_obs)
    # fit_wls's estimate from the Gram statistics, under the rule knot search applies
    feasible, alpha = solve_gram(stats.gram[None], stats.cross[None])
    if not feasible[0]:
        raise SingularDesignError(f"weighted Gram matrix condition exceeds {CONDITION_LIMIT:.1e}")
    sigma2_hat = float(stats.rss(alpha[0])) / (n_obs - p)
    prior = calibrated_prior(sigma2_hat, n_obs)
    n_draws = draws if draws > 0 else DEFAULT_DRAWS
    extra = {"prior": prior.to_dict()}
    start = time.perf_counter()
    if engine == "gibbs":
        out = _gibbs(stats, prior, draws=n_draws, burnin=burnin, rng=rng)
        point = out.alpha_draws.mean(axis=0)
    else:
        post = _vb_fit(stats, prior, tol=tol, max_iters=max_iters)
        out = vb_sample(post, n_draws, rng)
        point = post.m_star
        extra.update(posterior=post.to_dict(), converged=post.converged)
    elapsed = time.perf_counter() - start
    return EngineResult(engine, point, sigma2_hat, out, elapsed, extra, stats=stats)
