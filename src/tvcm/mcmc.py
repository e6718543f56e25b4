"""Two-block Gibbs sampler for the conjugate Bayesian basis regression.

After whitening by the square-root weights (Z~ = sqrt(W) Z, y~ = sqrt(W) y),
the model is

    y~ | alpha, sigma2  ~  N(Z~ alpha, sigma2 I_N)
    alpha | sigma2      ~  N(0, sigma2 I_p / ridge)      ridge = 1/N
    sigma2              ~  InvGamma(a_sigma, b_sigma)

Both full conditionals are closed form: with M = Z~'Z~ + ridge I_p and
mu = M^-1 Z~'y~,

    sigma2 | alpha  ~ InvGamma(a_sigma + N/2 + p/2,
                               b_sigma + ||y~ - Z~ alpha||^2 / 2 + ridge ||alpha||^2 / 2)
    alpha | sigma2  ~ N(mu, sigma2 M^-1)

The chain initializes at the ridge solution mu.  Since M mu = Z~'y~, the
variance rate needs no pass over the rows:

    ||y~ - Z~ alpha||^2 + ridge ||alpha||^2 = r0 + (alpha - mu)' M (alpha - mu)

with r0 = ||y~ - Z~ mu||^2 + ridge ||mu||^2 computed once, so one iteration
costs O(p^2) whatever N is.  All variates are pregenerated, so a fixed seed
fixes the chain.  The draw is alpha_t = mu + sigma_t L^-T z_t with M = L L',
and no L^-T z_t depends on the chain: one stacked product computes them all
into the draws buffer before the loop, and iteration t scales row t by
sigma_t and adds mu in place, while the variance rate runs on Python floats.
The chain is bit for bit that of one matrix-vector product per iteration
(gibbs_rows in tests/oracles.py).  gibbs_from_stats takes M, L^-T, mu and r0
from frequentist.ridge_posterior on a GramStats about any center, and
dic_from_stats scores draws with GramStats.rss; gibbs and dic wrap them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bootstrap import DrawSource, PosteriorDraws
from .errors import NumericalError
from .frequentist import GramStats, WlsFit, gram_stats, ridge_posterior, whiten  # re-exports whiten
from .rng import as_generator

DEFAULT_DRAWS = 2000
DEFAULT_BURNIN = 500

# a noiseless base fit cannot calibrate the variance prior; calibrated_prior
# substitutes eps y~'y~ / N, or this floor for an all-zero response
B_SIGMA_FLOOR = 1e-8


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the conjugate prior."""

    a_sigma: float = 2.0
    b_sigma: float = 1.0
    ridge: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a_sigma", "b_sigma", "ridge"):
            value = float(getattr(self, name))
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {"a_sigma": self.a_sigma, "b_sigma": self.b_sigma, "ridge": self.ridge}


def default_prior(fit: WlsFit) -> PriorSpec:
    """Data-calibrated prior from a WLS fit; WlsFit keeps no weights, so y~'y~ = alpha'Z~'Z~alpha + wrss."""
    alpha = fit.alpha_hat
    response_sq = alpha @ np.linalg.solve(fit.gram_inverse, alpha) + (fit.n_obs - alpha.size) * fit.sigma2_hat
    return calibrated_prior(fit.sigma2_hat, fit.n_obs, response_sq)


def calibrated_prior(sigma2_hat: float, n_obs: int, response_sq: float) -> PriorSpec:
    """Data-calibrated prior: a_sigma = 2, b_sigma = sigma2_hat, ridge = 1/N.

    response_sq is y~'y~.  A sigma2_hat below eps y~'y~ / N, which scales as it does with y, is
    effectively zero, and that floor replaces it, or B_SIGMA_FLOOR for an all-zero response.
    """
    floor = np.finfo(float).eps * response_sq / n_obs or B_SIGMA_FLOOR
    if sigma2_hat < floor:
        warnings.warn(f"base fit sigma2_hat={sigma2_hat:.3e} is effectively zero; substituting b_sigma={floor:.1e}",
                      stacklevel=3)
        sigma2_hat = floor
    return PriorSpec(a_sigma=2.0, b_sigma=sigma2_hat, ridge=1.0 / n_obs)


def gibbs(
    Z: np.ndarray,
    y: np.ndarray,
    prior: PriorSpec,
    draws: int = DEFAULT_DRAWS,
    burnin: int = DEFAULT_BURNIN,
    rng=0,
    fixed_sigma2: float | None = None,
) -> PosteriorDraws:
    """Run the sampler on whitened inputs and return the retained draws.

    draws is the retained count after discarding burnin iterations.  Setting
    fixed_sigma2 pins the variance and skips its update, which makes the
    alpha draws independent samples from the exact Normal conditional.
    """
    return gibbs_from_stats(gram_stats(Z, y), prior, draws, burnin, rng, fixed_sigma2)


def gibbs_from_stats(stats: GramStats, prior: PriorSpec, draws, burnin, rng, fixed_sigma2=None) -> PosteriorDraws:
    """gibbs on the regression's statistics about any center."""
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
    # every L^-T z_t in one stacked product; iteration t turns row t into its draw in place
    np.matmul(linv_t, normals[..., None], out=alpha_out[..., None])
    if fixed_sigma2 is not None:
        sigma2_out[:] = fixed_sigma2
        alpha_out *= math.sqrt(fixed_sigma2)
        alpha_out += mu
    else:
        b_sigma, r0 = prior.b_sigma, float(r0)
        alpha = mu
        for t, gamma in enumerate(gammas.tolist()):
            d = alpha - mu
            sigma2 = (b_sigma + 0.5 * (r0 + float(d @ (M @ d)))) / gamma
            alpha = alpha_out[t]
            alpha *= math.sqrt(sigma2)
            alpha += mu
            sigma2_out[t] = sigma2
    if not (np.all(np.isfinite(alpha_out)) and np.all(np.isfinite(sigma2_out))):
        raise NumericalError("sampler produced non-finite draws")
    return PosteriorDraws(
        alpha_draws=alpha_out[burnin:],
        sigma2_draws=sigma2_out[burnin:],
        source=DrawSource.GIBBS,
        seed=seed,
    )


def dic(draws: PosteriorDraws, Z: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Deviance information criterion and its effective parameter count.

    Uses the Gaussian likelihood of the whitened regression, the posterior
    means as the plug-in point, and p_DIC = mean deviance - deviance at the
    means.  Returns (dic, p_dic).  The statistics are centred at the mean
    alpha_bar, so a chain with no spread has p_DIC exactly 0.
    """
    return dic_from_stats(draws, gram_stats(Z, y, center=draws.alpha_draws.mean(axis=0)))


def dic_from_stats(draws: PosteriorDraws, stats: GramStats) -> tuple[float, float]:
    """dic with every residual sum of squares from stats.rss, for any center."""
    sigma2 = draws.sigma2_draws
    if np.any(sigma2 <= 0):
        raise ValueError("DIC requires strictly positive variance draws")
    n_obs = stats.n_obs
    dev = n_obs * np.log(2.0 * np.pi * sigma2) + stats.rss(draws.alpha_draws) / sigma2
    sigma2_bar = float(sigma2.mean())
    rss_at_mean = stats.rss(draws.alpha_draws.mean(axis=0))
    dev_at_mean = n_obs * np.log(2.0 * np.pi * sigma2_bar) + rss_at_mean / sigma2_bar
    p_dic = float(dev.mean() - dev_at_mean)
    return float(dev_at_mean + 2.0 * p_dic), p_dic
