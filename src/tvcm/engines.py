"""Uniform front end over the three inference engines.

Given a dataset and basis specs, fit_engine produces a point estimate of the
stacked coefficients plus optional draws, timing only the inference stage
(bootstrap replicates, sampler iterations including burn-in, or variational
optimization plus sampling) so the engines can be compared on equal terms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .basis import build_design
from .bootstrap import PosteriorDraws, bootstrap_fit
from .data import LongitudinalDataset
from .frequentist import WlsFit, fit_wls
from .mcmc import DEFAULT_BURNIN, DEFAULT_DRAWS, default_prior, gibbs, whiten
from .vb import DEFAULT_MAX_ITERS, DEFAULT_TOL, vb_fit, vb_sample

ENGINES = ("wls", "gibbs", "vb")


@dataclass
class EngineResult:
    engine: str
    alpha: np.ndarray
    base_fit: WlsFit
    draws: PosteriorDraws | None
    sampling_seconds: float
    extra: dict = field(default_factory=dict)
    # (sqrt(W) Z, sqrt(W) y) for the Bayesian engines, reused by DIC; None for wls
    whitened: tuple[np.ndarray, np.ndarray] | None = None


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
    base = fit_wls(bundle)
    if engine == "wls":
        if draws == 0:
            return EngineResult("wls", base.alpha_hat, base, None, 0.0)
        start = time.perf_counter()
        boot = bootstrap_fit(data, specs, draws, rng, bundle=bundle)
        elapsed = time.perf_counter() - start
        tries = {"attempts": boot.attempts, "redraws": boot.attempts - boot.n_draws}
        return EngineResult("wls", base.alpha_hat, base, boot, elapsed, {"bootstrap": tries})

    prior = default_prior(base)
    z_t, y_t = whiten(bundle)
    n_draws = draws if draws > 0 else DEFAULT_DRAWS
    if engine == "gibbs":
        start = time.perf_counter()
        out = gibbs(z_t, y_t, prior, draws=n_draws, burnin=burnin, rng=rng)
        elapsed = time.perf_counter() - start
        return EngineResult(
            "gibbs",
            out.alpha_draws.mean(axis=0),
            base,
            out,
            elapsed,
            {"prior": prior.to_dict()},
            whitened=(z_t, y_t),
        )
    start = time.perf_counter()
    post = vb_fit(z_t, y_t, prior, tol=tol, max_iters=max_iters)
    out = vb_sample(post, n_draws, rng)
    elapsed = time.perf_counter() - start
    return EngineResult(
        "vb",
        post.m_star,
        base,
        out,
        elapsed,
        {"prior": prior.to_dict(), "posterior": post.to_dict(), "converged": post.converged},
        whitened=(z_t, y_t),
    )
