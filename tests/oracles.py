"""Slow, obvious references that the library's fast paths are checked against.

candidate_pcv scores one knot-search candidate by a full QR refit, elbo
evaluates the variational objective at any state from its definition,
stacked_design builds the design block by block, and write_curves_rows writes
curves.csv a row at a time.  The library keeps only the fast paths:
knot_search's shared Gram statistics, vb_fit's closed-form trace,
build_design's shared basis evaluations and cli._write_curves's column
templates.
"""
from __future__ import annotations

import numpy as np

from tvcm.basis import basis_matrix, build_design, make_spec
from tvcm.errors import InsufficientDataError, KnotError, NumericalError, SingularDesignError
from tvcm.frequentist import fit_wls, gram_stats
from tvcm.mcmc import PriorSpec, _ridge_posterior
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
    M, _, mu, r0 = _ridge_posterior(gram_stats(Z, y, ridge=prior.ridge), prior.ridge)
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
