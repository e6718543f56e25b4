"""Coordinate-ascent variational inference for the conjugate basis regression.

Approximates the posterior of (alpha, sigma2) by q(alpha) q(sigma2) with
q(alpha) = N(m*, V*) and q(sigma2) = InvGamma(a*, b*).  With M = Z~'Z~ +
ridge I_p, the coordinate updates are

    V*  <-  (b*/a*) M^-1
    m*  <-  (a*/b*) V* Z~'y~
    b*  <-  b_sigma + (||y~||^2 - 2 y~'Z~ m* + m*'M m* + tr(M V*)) / 2

while a* = a_sigma + N/2 + p/2 never changes.  m* is therefore the ridge
solution M^-1 Z~'y~ from the first sweep onward, and only b* moves.  M,
Z~'y~ and ||y~||^2 are formed once, and M is factorized once; the sweeps and
the objective reuse them.

The objective reported in elbo_trace uses the estimator

    -(N log 2pi + p log(1/ridge) - p) / 2 + a_sigma log b_sigma - lgamma(a_sigma)
    + a* (1 + log b* - 2 psi(a*)) + lgamma(a*) + 2 (log b* - psi(a*))
    + log det(V*) / 2 - (a*/b*) [ b_sigma + (||y~||^2 - 2 y~'Z~ m*
                                  + m*'M m* + tr(M V*)) / 2 ]

where psi is the digamma function.  Evaluated at the state the sweep just
produced, the bracket equals b* and the last term collapses to -a*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import digamma, gammaln

from .bootstrap import DrawSource, PosteriorDraws
from .errors import NumericalError
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
        m = np.asarray(self.m_star, dtype=float)
        V = np.asarray(self.V_star, dtype=float)
        trace = np.asarray(self.elbo_trace, dtype=float)
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


def _elbo_value(n_obs, M, z_ty, y_ty, prior, m, V, a_star, b_star):
    p = M.shape[0]
    bracket = prior.b_sigma + 0.5 * (
        y_ty - 2.0 * (z_ty @ m) + m @ (M @ m) + np.einsum("ij,ji->", M, V)
    )
    sign, logdet_v = np.linalg.slogdet(V)
    if sign <= 0:
        raise NumericalError("V_star must be positive definite for the objective")
    return float(
        -0.5 * (n_obs * np.log(2.0 * np.pi) + p * np.log(1.0 / prior.ridge) - p)
        + prior.a_sigma * np.log(prior.b_sigma)
        - gammaln(prior.a_sigma)
        + a_star * (1.0 + np.log(b_star) - 2.0 * digamma(a_star))
        + gammaln(a_star)
        + 2.0 * (np.log(b_star) - digamma(a_star))
        + 0.5 * logdet_v
        - (a_star / b_star) * bracket
    )


def elbo(post: VariationalPosterior, Z: np.ndarray, y: np.ndarray, prior: PriorSpec) -> float:
    """Objective value at an arbitrary variational state."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    M = Z.T @ Z + prior.ridge * np.eye(Z.shape[1])
    return _elbo_value(
        y.size, M, Z.T @ y, float(y @ y), prior, post.m_star, post.V_star, post.a_star, post.b_star
    )


def vb_fit(
    Z: np.ndarray,
    y: np.ndarray,
    prior: PriorSpec,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> VariationalPosterior:
    """Run coordinate ascent from b* = b_sigma until the objective gain drops below tol."""
    Z = np.ascontiguousarray(Z, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if Z.ndim != 2 or y.shape != (Z.shape[0],):
        raise ValueError("Z must be (N, p) and y must be length N")
    if tol <= 0 or max_iters < 1:
        raise ValueError(f"need tol > 0 and max_iters >= 1, got {tol}, {max_iters}")
    n_obs, p = Z.shape
    M = Z.T @ Z + prior.ridge * np.eye(p)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization of the ridge Gram matrix failed: {exc}") from exc
    m_inv = cho_solve((L, True), np.eye(p))
    z_ty = Z.T @ y
    y_ty = float(y @ y)

    a_star = prior.a_sigma + n_obs / 2.0 + p / 2.0
    b_star = prior.b_sigma
    trace: list[float] = []
    converged = False
    m = V = None
    for _ in range(max_iters):
        V = (b_star / a_star) * m_inv
        m = (a_star / b_star) * (V @ z_ty)
        quad = y_ty - 2.0 * (z_ty @ m) + m @ (M @ m) + np.einsum("ij,ji->", M, V)
        b_star = prior.b_sigma + 0.5 * quad
        if not np.isfinite(b_star) or b_star <= 0:
            raise NumericalError(f"b_star update produced {b_star}")
        trace.append(_elbo_value(n_obs, M, z_ty, y_ty, prior, m, V, a_star, b_star))
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            converged = True
            break
    return VariationalPosterior(
        m_star=m,
        V_star=V,
        a_star=a_star,
        b_star=b_star,
        elbo_trace=np.array(trace),
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
