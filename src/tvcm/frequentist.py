"""Weighted least squares fitting of the stacked basis regression.

Production fits solve min_alpha (y - Z alpha)' W (y - Z alpha) from a stack
of GramStats in one function, solve_stats, under N > p and one singularity
rule, gram_feasible; the QR fit_wls is its test oracle, and its hat matrix
Z (Z'WZ)^-1 Z'W has trace exactly p when feasible.  base_fit solves the
full-data fit once, a step from gram_stats's center; nothing solves it
again.  Every engine reads its GramStats.  Statistics are summed in one form
only, subject_stats's stack of flattened bordered matrices [[G, Z~'e],
[e'Z~, e'e]], by one GEMM, and bordered_stats views each sum as GramStats.  The
stacked functions take whatever stack they are given; callers bound it at STACK_CHUNK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, DesignBundle, basis_matrix, build_design, split_alpha
from .errors import InsufficientDataError, NumericalError, SingularDesignError, TvcmError

# Relative condition threshold on Z'WZ beyond which the design is treated as singular.
CONDITION_LIMIT = 1e12
# replicates, folds or knot-search candidates per stack; bounds scratch at chunk x n and chunk x (p+1) x (p+1)
STACK_CHUNK = 256


@dataclass(frozen=True)
class WlsFit:
    """Weighted least squares solution and its reusable byproducts.

    gram_inverse is (Z'WZ)^-1, the covariance of alpha_hat over sigma2, which
    default_prior reads; hat_trace, the weighted hat matrix's trace, feeds pcv.
    """

    alpha_hat: np.ndarray
    sigma2_hat: float
    fitted: np.ndarray
    residuals: np.ndarray
    gram_inverse: np.ndarray
    hat_trace: float

    @property
    def n_obs(self) -> int:
        return self.fitted.size


def whiten(bundle: DesignBundle) -> tuple[np.ndarray, np.ndarray]:
    """Fold the weights into the regression: returns (sqrt(W) Z, sqrt(W) y)."""
    sw = np.sqrt(bundle.weights)
    return bundle.Z * sw[:, None], bundle.y * sw


def fit_wls(bundle: DesignBundle) -> WlsFit:
    """Fit the weighted regression; raises on underdetermined or singular designs."""
    Z, y, w = bundle.Z, bundle.y, bundle.weights
    n_obs, p = Z.shape
    if n_obs <= p:
        raise InsufficientDataError(f"{n_obs} observations cannot identify {p} coefficients")
    A, y_t = whiten(bundle)
    Q, R = np.linalg.qr(A)
    cond_r = np.linalg.cond(R)
    if not np.isfinite(cond_r) or cond_r**2 > CONDITION_LIMIT:
        raise SingularDesignError(
            f"weighted Gram matrix condition estimate {cond_r**2:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    alpha = np.linalg.solve(R, Q.T @ y_t)
    fitted = Z @ alpha
    residuals = y - fitted
    sigma2 = float(w @ residuals**2) / (n_obs - p)
    r_inv = np.linalg.inv(R)
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
    )


@dataclass(frozen=True)
class GramStats:
    """Whitened regression statistics about a center, read by the bootstrap, gibbs, vb and DIC.

    gram is Z~'Z~ and n_obs the row count; with e = y~ - Z~ center, resid_sq
    is e'e and lever Z~'e.  Any center serves, since every fit is a step from
    it.  Leading axes stack regressions sharing the center.
    """

    n_obs: int | np.ndarray
    gram: np.ndarray
    center: np.ndarray
    resid_sq: float | np.ndarray
    lever: np.ndarray

    def rss(self, beta) -> np.ndarray:
        """||y~ - Z~ beta||^2 = e'e - 2 d'Z~'e + d'Z~'Z~ d with d = beta - center, exact for any center.

        On a near-exact fit the sum is roundoff of either sign; below zero it is clamped to 0.
        """
        d = beta - self.center
        d_lever = np.einsum("...j,...j->...", d, self.lever)
        d_gram_d = np.einsum("...j,...j->...", d, (self.gram @ d[..., None])[..., 0])
        return np.maximum(self.resid_sq - 2.0 * d_lever + d_gram_d, 0.0)

    def __getitem__(self, index) -> GramStats:
        """The stacked regressions at index, about the same center; stats[None] stacks one regression."""
        return GramStats(np.asarray(self.n_obs)[index], self.gram[index], self.center,
                         np.asarray(self.resid_sq)[index], self.lever[index])


def gram_stats(design, response, center=None) -> GramStats:
    """GramStats of one whitened regression, by default about lstsq's solution of (G + I/N) b = Z~'y~.

    lstsq answers singular systems too; a non-finite G gets the center 0,
    which gram_feasible refuses.
    """
    Z, y = np.ascontiguousarray(design, dtype=float), np.ascontiguousarray(response, dtype=float)
    if Z.ndim != 2 or y.shape != (Z.shape[0],):
        raise ValueError("Z must be (N, p) and y must be length N")
    n_obs, p = Z.shape
    gram = Z.T @ Z
    if center is None:
        ridged = gram + np.eye(p) / n_obs
        center = np.linalg.lstsq(ridged, Z.T @ y, rcond=None)[0] if np.isfinite(ridged).all() else np.zeros(p)
    e = y - Z @ center
    return GramStats(n_obs, gram, center, float(e @ e), Z.T @ e)


def solve_stats(stats: GramStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a (B,) stack of regressions; returns (feasible, alpha, sigma2), NaN where infeasible.

    A member is feasible when N > p and gram_feasible passes G, which must be
    writeable.  alpha is the center plus G^-1 Z~'e by LU, whose accuracy,
    unlike an eigendecomposition's, does not suffer from badly scaled columns
    such as t^2 on a wide time domain; sigma2 = rss(alpha) / (N - p) does not
    cancel to noise on a near-exact fit.
    """
    n_obs, p = np.asarray(stats.n_obs), stats.center.size
    feasible = gram_feasible(stats.gram) & (n_obs > p)
    # solved and scored in place; the feasible members are gathered only when one fails
    solved = stats if feasible.all() else stats[feasible]
    alpha = np.full(stats.lever.shape, np.nan)
    sigma2 = np.full(n_obs.shape, np.nan)
    alpha[feasible] = solved.center + np.linalg.solve(solved.gram, solved.lever[..., None])[..., 0]
    sigma2[feasible] = solved.rss(alpha[feasible]) / (solved.n_obs - p)
    return feasible, alpha, sigma2


def infeasible_error(n_obs: int, p: int) -> TvcmError:
    """What a regression of n_obs rows and p coefficients that solve_stats finds infeasible raises."""
    if n_obs <= p:
        return InsufficientDataError(f"{n_obs} observations cannot identify {p} coefficients")
    return SingularDesignError(f"weighted Gram matrix condition exceeds {CONDITION_LIMIT:.1e}")


@dataclass(frozen=True)
class BaseFit:
    """What every engine reads: the design, its whitened statistics, the WLS fit."""

    bundle: DesignBundle | None  # None for a cross-validation fold, which has no design
    stats: GramStats
    alpha_hat: np.ndarray
    sigma2_hat: float  # the WLS noise variance estimate, which calibrates the priors


def base_fit(data, specs) -> BaseFit:
    """The full-data WLS fit: one design, its GramStats, and alpha_hat as solve_stats's step from their center."""
    bundle = build_design(data, specs)
    stats = gram_stats(*whiten(bundle))
    feasible, alpha, sigma2 = solve_stats(stats[None])
    if not feasible[0]:
        raise infeasible_error(stats.n_obs, bundle.n_params)
    return BaseFit(bundle, stats, alpha[0], float(sigma2[0]))


def gram_feasible(gram: np.ndarray) -> np.ndarray:
    """fit_wls's singularity rule on a (B, p, p) stack of Gram matrices, as a (B,) mask.

    A matrix is feasible when its smallest eigenvalue is positive and
    cond(G) = lambda_max / lambda_min stays within CONDITION_LIMIT, which is
    the test fit_wls applies to cond(R)^2; a member with a NaN or inf entry
    is infeasible.  solve_stats and the knot-search scorer both decide
    feasibility here, on stacks their callers bound.

    Most stacks pass without an eigendecomposition: one batched Cholesky
    factorisation of G_b - s_b I with s_b = 2 tr(G_b) / CONDITION_LIMIT
    succeeds only if every lambda_min(G_b) > s_b >= 2 lambda_max(G_b) /
    CONDITION_LIMIT, half the allowed condition number.  A positive definite
    shifted matrix has a positive shift (tr(G) <= 0 would force lambda_min
    <= tr(G) / p <= s), so G is positive definite and tr(G) >= lambda_max(G);
    the factorisation is backward stable (Higham 2002, section 10.1), so
    roundoff cannot certify a member the eigenvalue test would reject.  When
    the factorisation fails or has a non-finite entry anywhere, the whole
    stack takes the eigenvalue test.  The shift is made on gram's own diagonal,
    which must be writeable, and undone from a copy: gram leaves bit for bit as it came.
    """
    finite = np.isfinite(gram).all(axis=(-2, -1))
    if finite.all():
        diag = np.arange(gram.shape[-1])
        saved = gram[:, diag, diag]
        gram[:, diag, diag] = saved - (2.0 / CONDITION_LIMIT) * np.trace(gram, axis1=-2, axis2=-1)[:, None]
        try:
            if np.isfinite(np.linalg.cholesky(gram)).all():
                return finite
        except np.linalg.LinAlgError:
            pass
        finally:
            gram[:, diag, diag] = saved
    else:
        # LAPACK's answer on NaN or inf is arbitrary; a zero matrix fails the test
        gram = np.where(finite[:, None, None], gram, 0.0)
    lam = np.linalg.eigvalsh(gram)
    lo, hi = lam[..., 0], lam[..., -1]
    return (lo > 0) & (hi <= CONDITION_LIMIT * lo)


def ridge_posterior(stats: GramStats, ridge) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """M, L^-T with M = L L', mu and r0 of mcmc's module docstring, for each stacked regression and its ridge.

    From the center c, mu = c + M^-1 rhs with rhs = Z~'e - ridge c is one
    step of iterative refinement (Higham 2002, section 12.1), and
    r0 = e'e + ridge c'c - rhs' M^-1 rhs.  Raises NumericalError when M has
    no Cholesky factor.
    """
    ridge = np.asarray(ridge, dtype=float)
    center = stats.center
    M = stats.gram + ridge[..., None, None] * np.eye(center.size)
    try:
        factor = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization of the ridge Gram matrix failed: {exc}") from exc
    # LU never pivots on the upper triangle L', so inv runs back substitution,
    # backward stable (Higham 2002, chapter 8) like a dedicated triangular solve
    linv_t = np.linalg.inv(factor.swapaxes(-1, -2))
    # w = L^-1 rhs, so M^-1 rhs = L^-T w and rhs' M^-1 rhs = w'w
    w = linv_t.swapaxes(-1, -2) @ (stats.lever - ridge[..., None] * center)[..., None]
    mu = center + (linv_t @ w)[..., 0]
    r0 = stats.resid_sq + ridge * (center @ center) - (w * w).sum(axis=(-2, -1))
    return M, linv_t, mu, r0


def subject_stats(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each subject's bordered cross product X_i'X_i, flattened into an (n, (p+1)^2) stack, from X = [Z~ | e].

    With e = y~ - Z~ center, X_i'X_i = [[Z~_i'Z~_i, Z~_i'e_i], [e_i'Z~_i, e_i'e_i]]
    holds subject i's gram, lever and resid_sq about center; one stacked
    matmul makes it for every subject with the same visit count.  A weighted
    sum of subjects is then one GEMM, weights @ stack, which bordered_stats reads.
    """
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    p = rows.shape[1] - 1
    cross = np.empty((counts.size, p + 1, p + 1))
    for n_i in np.unique(counts):
        subjects = np.flatnonzero(counts == n_i)
        block = rows[starts[subjects, None] + np.arange(n_i)]
        cross[subjects] = block.transpose(0, 2, 1) @ block
    return cross.reshape(counts.size, -1)


def bordered_stats(sums: np.ndarray, n_obs, center) -> GramStats:
    """GramStats about center as views of a (B, (p+1)^2) stack of flattened [[G, Z~'e], [e'Z~, e'e]] matrices."""
    p = center.size
    cross = sums.reshape(-1, p + 1, p + 1)
    return GramStats(n_obs, cross[:, :p, :p], center, cross[:, p, p], cross[:, :p, p])


def predict_rows(alpha, specs: tuple[BasisSpec, ...], x_rows, times) -> np.ndarray:
    """Vectorized predictions for stacked rows; x_rows excludes the intercept column."""
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
