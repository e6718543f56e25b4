"""Coordinate-ascent variational inference for the conjugate basis regression.

Approximates the posterior of (alpha, sigma2) by q(alpha) q(sigma2) with
q(alpha) = N(m*, V*) and q(sigma2) = InvGamma(a*, b*), the mean-field
linear regression of Ormerod & Wand (2010, Am. Stat. 64).  With M, mu and
r0 from frequentist.ridge_posterior, the coordinate updates V* <- (b*/a*)
M^-1 and m* <- (a*/b*) V* Z~'y~ give m* = mu and tr(M V*) = p b*/a* from
the first sweep on, and a* = a_sigma + N/2 + p/2 never changes.  A sweep is
therefore the scalar recursion

    b*  <-  b_sigma + (r0 + p b_prev / a*) / 2

and vb_fit_from_stats forms V* = (b_prev/a*) M^-1 once, after the last sweep.

The objective, which elbo in tests/oracles.py evaluates at any state, is

    -(N log 2pi + p log(1/ridge) - p) / 2 + a_sigma log b_sigma - lgamma(a_sigma)
    + a* (1 + log b* - 2 psi(a*)) + lgamma(a*) + 2 (log b* - psi(a*))
    + log det(V*) / 2 - (a*/b*) [ b_sigma + (||y~ - Z~ m*||^2 + ridge ||m*||^2
                                  + tr(M V*)) / 2 ]

where psi is the digamma function.  At the state a sweep just produced the
bracket equals b* and log det(V*) = p log(b_prev/a*) + 2 sum log (L^-T)_ii,
with L the Cholesky factor of M, so elbo_trace records the closed form
const + (a* + 2) log b* + (p/2) log(b_prev/a*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import DrawSource, PosteriorDraws
from .errors import NumericalError
from .frequentist import GramStats, gram_stats, ridge_posterior
from .mcmc import PriorSpec
from .rng import as_generator

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 500


@dataclass(frozen=True)
class VariationalPosterior:
    """Converged (or stopped) variational state q(alpha) q(sigma2)."""

    m_star: np.ndarray
    V_star: np.ndarray
    a_star: float
    b_star: float
    elbo_trace: np.ndarray
    converged: bool

    def __post_init__(self) -> None:
        m = np.array(self.m_star, dtype=float)
        V = np.array(self.V_star, dtype=float)
        trace = np.array(self.elbo_trace, dtype=float)
        if m.ndim != 1 or V.shape != (m.size, m.size):
            raise ValueError("m_star must be length p and V_star shape (p, p)")
        if not (self.a_star > 0 and self.b_star > 0):
            raise ValueError("a_star and b_star must be positive")
        for name, arr in (("m_star", m), ("V_star", V), ("elbo_trace", trace)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "a_star", float(self.a_star))
        object.__setattr__(self, "b_star", float(self.b_star))
        object.__setattr__(self, "converged", bool(self.converged))

    @property
    def n_params(self) -> int:
        return self.m_star.size

    def to_dict(self) -> dict:
        return {
            "m_star": self.m_star.tolist(),
            "a_star": self.a_star,
            "b_star": self.b_star,
            "elbo_trace": self.elbo_trace.tolist(),
            "converged": self.converged,
        }


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to x >= 10, then the asymptotic series."""
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    # ln x - 1/(2x) - sum_k B_2k / (2k x^2k); the next term, 3617/(8160 x^16), is below 1e-16 at x = 10
    inv2 = 1.0 / (x * x)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (
        1 / 240 - inv2 * (1 / 132 - inv2 * (691 / 32760 - inv2 / 12))))))
    return shift + math.log(x) - 0.5 / x - series


def _objective_constant(n_obs: int, p: int, prior: PriorSpec, a_star: float) -> float:
    """The objective's terms that depend on neither m*, V* nor b*."""
    return float(
        -0.5 * (n_obs * np.log(2.0 * np.pi) + p * np.log(1.0 / prior.ridge) - p)
        + prior.a_sigma * np.log(prior.b_sigma)
        - math.lgamma(prior.a_sigma)
        - 2.0 * (a_star + 1.0) * _digamma(a_star)
        + math.lgamma(a_star)
    )


def vb_fit(
    Z: np.ndarray,
    y: np.ndarray,
    prior: PriorSpec,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> VariationalPosterior:
    """Run coordinate ascent from b* = b_sigma until the objective gain drops below tol."""
    return vb_fit_from_stats(gram_stats(Z, y), prior, tol, max_iters)


def vb_fit_from_stats(stats: GramStats, prior: PriorSpec, tol: float, max_iters: int) -> VariationalPosterior:
    """vb_fit on the regression's statistics about any center."""
    if tol <= 0 or max_iters < 1:
        raise ValueError(f"need tol > 0 and max_iters >= 1, got {tol}, {max_iters}")
    _, linv_t, mu, r0 = ridge_posterior(stats, prior.ridge)
    n_obs, p = stats.n_obs, mu.size
    a_star = prior.a_sigma + n_obs / 2.0 + p / 2.0
    # a* (1 + log b*) - (a*/b*) bracket = a* log b* once the bracket is b*
    const = _objective_constant(n_obs, p, prior, a_star) + np.sum(np.log(np.diag(linv_t)))
    b_star = prior.b_sigma
    trace: list[float] = []
    converged = False
    for _ in range(max_iters):
        b_prev = b_star
        b_star = prior.b_sigma + 0.5 * (r0 + p * b_prev / a_star)
        if not np.isfinite(b_star) or b_star <= 0:
            raise NumericalError(f"b_star update produced {b_star}")
        trace.append(float(const + (a_star + 2.0) * np.log(b_star) + 0.5 * p * np.log(b_prev / a_star)))
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            converged = True
            break
    return VariationalPosterior(
        m_star=mu,
        V_star=(b_prev / a_star) * (linv_t @ linv_t.T),
        a_star=a_star,
        b_star=b_star,
        elbo_trace=trace,
        converged=converged,
    )


def vb_sample(post: VariationalPosterior, n_draws: int, rng=0) -> PosteriorDraws:
    """Independent draws from the factorized posterior approximation."""
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    gen, seed = as_generator(rng)
    sigma2 = post.b_star / gen.standard_gamma(post.a_star, size=n_draws)
    try:
        chol_v = np.linalg.cholesky(post.V_star)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"V_star is not positive definite: {exc}") from exc
    alphas = post.m_star + gen.standard_normal((n_draws, post.n_params)) @ chol_v.T
    return PosteriorDraws(
        alpha_draws=alphas,
        sigma2_draws=sigma2,
        source=DrawSource.VARIATIONAL,
        seed=seed,
    )
