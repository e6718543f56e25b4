"""Weighted least squares fitting of the stacked basis regression.

Solves min_alpha (y - Z alpha)' W (y - Z alpha) through a QR factorization
of sqrt(W) Z; the weighted Gram matrix Z'WZ is never inverted to obtain the
solution.  The noise variance estimate divides the weighted residual sum of
squares by N - p, and the weighted hat matrix Z (Z'WZ)^-1 Z'W has trace
exactly p whenever the fit is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .basis import BasisSpec, DesignBundle, coefficient_curve, split_alpha
from .errors import InsufficientDataError, SingularDesignError

# Relative condition threshold on Z'WZ beyond which the design is treated as singular.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class WlsFit:
    """Weighted least squares solution and its reusable byproducts.

    gram_inverse is (Z'WZ)^-1, the covariance of alpha_hat over sigma2 (no
    engine reads it); hat_trace, the weighted hat matrix's trace, feeds pcv.
    """

    alpha_hat: np.ndarray
    sigma2_hat: float
    fitted: np.ndarray
    residuals: np.ndarray
    gram_inverse: np.ndarray
    hat_trace: float
    block_dims: tuple[int, ...]

    @property
    def n_obs(self) -> int:
        return self.fitted.size

    @property
    def n_params(self) -> int:
        return self.alpha_hat.size

    def to_dict(self) -> dict:
        blocks = split_alpha(self.alpha_hat, self.block_dims)
        return {
            "alpha": {str(r): blocks[r].tolist() for r in range(len(blocks))},
            "sigma2": self.sigma2_hat,
            "hat_trace": self.hat_trace,
        }


def fit_wls(bundle: DesignBundle) -> WlsFit:
    """Fit the weighted regression; raises on underdetermined or singular designs."""
    Z, y, w = bundle.Z, bundle.y, bundle.weights
    n_obs, p = Z.shape
    if n_obs <= p:
        raise InsufficientDataError(f"{n_obs} observations cannot identify {p} coefficients")
    sw = np.sqrt(w)
    A = Z * sw[:, None]
    Q, R = np.linalg.qr(A)
    cond_r = np.linalg.cond(R)
    if not np.isfinite(cond_r) or cond_r**2 > CONDITION_LIMIT:
        raise SingularDesignError(
            f"weighted Gram matrix condition estimate {cond_r**2:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    alpha = solve_triangular(R, Q.T @ (y * sw))
    fitted = Z @ alpha
    residuals = y - fitted
    sigma2 = float(w @ residuals**2) / (n_obs - p)
    r_inv = solve_triangular(R, np.eye(p))
    gram_inverse = r_inv @ r_inv.T
    # tr(Z (Z'WZ)^-1 Z'W) = sum of squared rows of sqrt(W) Z R^-1
    hat_trace = float(np.sum((A @ r_inv) ** 2))
    return WlsFit(
        alpha_hat=alpha,
        sigma2_hat=sigma2,
        fitted=fitted,
        residuals=residuals,
        gram_inverse=gram_inverse,
        hat_trace=hat_trace,
        block_dims=bundle.block_dims,
    )


def solve_gram(gram: np.ndarray, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve stacked normal equations G alpha = c under fit_wls's singularity rule.

    gram has shape (B, p, p) and cross (B, p).  Returns (feasible, alpha):
    a system is feasible when its smallest eigenvalue is positive and
    cond(G) = lambda_max / lambda_min stays within CONDITION_LIMIT, which is
    the test fit_wls applies to cond(R)^2.  alpha is NaN where infeasible.
    The solve itself is LU: unlike an eigendecomposition, its accuracy does
    not suffer from badly scaled columns such as t^2 on a wide time domain.
    """
    lam = np.linalg.eigvalsh(gram)
    lo, hi = lam[..., 0], lam[..., -1]
    feasible = (lo > 0) & (hi <= CONDITION_LIMIT * lo)
    alpha = np.full(cross.shape, np.nan)
    alpha[feasible] = np.linalg.solve(gram[feasible], cross[feasible][..., None])[..., 0]
    return feasible, alpha


def predict(alpha, specs, covariates, t: float) -> float:
    """Response surface x' beta(t) for one covariate vector (leading 1 included)."""
    specs = tuple(specs)
    covariates = np.asarray(covariates, dtype=float)
    if covariates.shape != (len(specs),):
        raise ValueError(f"covariates must have length {len(specs)} (including the intercept 1)")
    blocks = split_alpha(alpha, tuple(s.n_terms for s in specs))
    total = 0.0
    for r, spec in enumerate(specs):
        total += covariates[r] * float(coefficient_curve(spec, blocks[r], [t])[0])
    return total


def predict_rows(alpha, specs: tuple[BasisSpec, ...], x_rows, times) -> np.ndarray:
    """Vectorized predictions for stacked rows; x_rows excludes the intercept column."""
    from .basis import basis_matrix

    x_rows = np.asarray(x_rows, dtype=float)
    times = np.asarray(times, dtype=float)
    specs = tuple(specs)
    full_x = np.column_stack([np.ones(times.size), x_rows]) if x_rows.size else np.ones((times.size, 1))
    if full_x.shape[1] != len(specs):
        raise ValueError(f"covariate rows imply {full_x.shape[1]} coefficients, specs give {len(specs)}")
    blocks = split_alpha(alpha, tuple(s.n_terms for s in specs))
    out = np.zeros(times.size)
    for r, spec in enumerate(specs):
        out += full_x[:, r] * (basis_matrix(spec, times) @ blocks[r])
    return out
