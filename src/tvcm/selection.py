"""Knot selection by predictive cross-validation, fit-quality metrics, and
K-fold cross-validation of a fixed basis (crossval_amse, one
frequentist.solve_stats per chunk of folds; wls and vb folds draw nothing).

The fast selection criterion replaces the leave-one-out sum

    PCV = sum_ij w_i (y_ij - yhat_ij^(-ij))^2

by the algebraically motivated trace form

    PCV = (y - A y)' W (y - A y) / (1 - tr(A)/N)^2

with A the weighted hat matrix, which needs a single fit per candidate.
Both forms are provided; the brute evaluator keeps the full-data weights
when refitting without one observation.

knot_search never refits.  It builds the whitened design A once over the
union of the columns any candidate can use: for each coefficient r, the
polynomial part plus the knot columns of every count k in 0..k_max, each
from make_spec as the fit builds it (the default radial bandwidth depends
on k).  With G = A'A, c = A'y~ and s = y~'y~, each candidate is a column
subset S, and the Cholesky factor L of its bordered block
[[G_S, c_S], [c_S', 2s]] has last pivot L_pp^2 = 2s - c_S'G_S^-1 c_S =
s + wrss (Furnival and Wilson 1974, "Regressions by leaps and bounds"), so
no solve is needed.  Since tr(A) = p for any feasible fit,
PCV = wrss / (1 - p/N)^2.  Candidates sharing a parameter count p are
scored in batches: one fancy index gathers their (B, p+1, p+1) bordered
blocks, gram_feasible applies fit_wls's singularity rule to the leading
p x p blocks, and one batched Cholesky factors the feasible ones.  The
per-candidate QR path (build_design, fit_wls, pcv; candidate_pcv in
tests/oracles.py) stays as the test oracle, as does pcv_loo.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import frequentist
from .basis import BasisFamily, DesignBundle, basis_matrix, build_design, make_spec
from .data import LongitudinalDataset, subject_uniform_weights
from .engines import ENGINES, fit_engine
from .errors import InsufficientDataError, KnotError, SelectionError, SingularDesignError
from .frequentist import (GramStats, WlsFit, fit_wls, gram_feasible, infeasible_error, solve_stats, subject_stats,
                          weighted_sums, whiten)
from .mcmc import DEFAULT_BURNIN
from .rng import as_generator

MAX_SWEEPS = 100
# full enumeration is the default up to this many covariates and candidate knot counts
FULL_GRID_MAX_COVARIATES = 2
FULL_GRID_MAX_K = 10
# A weighted RSS of at most WRSS_ROUNDOFF (p + 1) s scores 0.  The bordered
# factor is exact for M + dM with |dM| <= gamma_{p+1} |L||L'|, gamma_n ~ n eps / 2
# (Higham 2002, Theorem 10.3).  The last diagonal entry of |L||L'| is
# sum_j L_pj^2 = 2s, so that entry alone moves the last pivot squared by up to
# (p + 1) eps s, and squaring the pivot adds eps s / 2.  The rest of the last row
# and G_S move it by as much again when the fit is well conditioned, hence the
# factor 2: on noise-free scenario panels (40 seeds each, radial and tpower) the
# largest RSS before the cut was 1.25 (p + 1) eps s.  Without the cut roundoff
# decides between the exact fits; with it they tie at 0 and grid order decides.
WRSS_ROUNDOFF = 2.0 * float(np.finfo(float).eps)


def pcv(bundle: DesignBundle, fit: WlsFit) -> float:
    """Trace-form criterion; +inf when tr(A) >= N leaves no residual degrees of freedom."""
    n_obs = bundle.n_obs
    shrink = 1.0 - fit.hat_trace / n_obs
    if shrink <= 0:
        return float("inf")
    wrss = float(bundle.weights @ fit.residuals**2)
    return wrss / shrink**2


def pcv_loo(data: LongitudinalDataset, specs) -> float:
    """Brute leave-one-out criterion: N refits, each dropping one observation.

    The remaining rows keep their full-data weights, matching the fit the
    trace form shortcuts.
    """
    weights = subject_uniform_weights(data)
    bundle = build_design(data, specs, weights)
    n_obs, p = bundle.n_obs, bundle.n_params
    if n_obs - 1 <= p:
        raise SelectionError(f"cannot leave one of {n_obs} observations out with {p} coefficients")
    Z, y = bundle.Z, bundle.y
    total = 0.0
    for idx in range(n_obs):
        keep = np.arange(n_obs) != idx
        sub = DesignBundle(
            Z=Z[keep],
            y=y[keep],
            weights=weights[keep],
            block_dims=bundle.block_dims,
            specs=bundle.specs,
        )
        try:
            fit = fit_wls(sub)
        except (SingularDesignError, InsufficientDataError) as exc:
            raise SelectionError(f"leave-one-out refit without row {idx} failed: {exc}") from exc
        pred = float(Z[idx] @ fit.alpha_hat)
        total += weights[idx] * (y[idx] - pred) ** 2
    return total


def _statistics_criterion(
    data: LongitudinalDataset, family, degree: int, k_max: int, placement="equal", bandwidth=None
):
    """Batch scorer: trace-form criteria of a list of knot-count tuples from one set of statistics.

    The whitened union design is built by rows, one per column, with y~ as
    the last row: coefficient r's polynomial rows, then its knot rows for
    each placeable count k in order, each count's spec coming from make_spec,
    so a candidate's rows in ascending order are build_design's columns.
    member[r, k] marks the rows of r's block with k knots and the y~ row; a
    count whose knots cannot be placed marks only the y~ row.  One product
    of the rows with themselves gives the bordered statistics
    [[G, c], [c', s + shift]].
    """
    t = data.times
    n_obs = data.n_obs
    sw = np.sqrt(subject_uniform_weights(data))
    x = np.column_stack([np.ones(n_obs), data.covariates]) * sw[:, None]
    n_coef = x.shape[1]
    n_poly = degree + 1
    specs = {}
    for k in range(k_max + 1):
        try:
            specs[k] = make_spec(family, degree, k, data.time_domain, bandwidth,
                                 placement=placement, times=t)
        except KnotError:
            if k == 0:  # only an overflowing domain width stops k = 0, and then every count
                raise
    block = n_poly + sum(specs)
    width = n_coef * block
    rows = np.empty((width + 1, n_obs))
    member = np.zeros((n_coef, k_max + 1, width + 1), dtype=bool)
    member[..., width] = True
    placeable = np.zeros(k_max + 1, dtype=bool)
    # the k = 0 basis is the polynomial part that every other count shares
    start = 0
    for k, spec in specs.items():
        basis = basis_matrix(spec, t)[:, n_poly if k else 0 :].T
        for r in range(n_coef):
            lo = r * block + start
            rows[lo : lo + len(basis)] = basis * x[:, r]
            member[r, k, r * block : r * block + n_poly] = True
            member[r, k, lo : lo + len(basis)] = True
        placeable[k] = True
        start += len(basis)
    rows[width] = data.responses * sw
    stats = rows @ rows.T
    total = stats[width, width]
    # corner s + shift: the last pivot squared is shift + wrss >= shift > 0, with
    # shift = s but 1 for an all-zero response, whose corner would otherwise be 0
    shift = total if total > 0 else 1.0
    stats[width, width] += shift
    axes = np.arange(n_coef)

    def criterion(combos: list[tuple[int, ...]]) -> list[float]:
        if not combos:
            return []
        ks = np.array(combos)
        mask = member[axes, ks].any(axis=1)
        size = mask.sum(axis=1)
        values = np.full(len(combos), np.inf)
        # candidates that can be fitted, grouped by parameter count p = size - 1
        fits = placeable[ks].all(axis=1) & (size <= n_obs)
        for size_p in np.unique(size[fits]):
            p = int(size_p) - 1
            group = np.flatnonzero(fits & (size == size_p))
            # frequentist.STACK_CHUNK bounds the gathered bordered blocks at chunk x (p+1) x (p+1)
            for lo in range(0, len(group), frequentist.STACK_CHUNK):
                chunk = group[lo : lo + frequentist.STACK_CHUNK]
                idx = np.nonzero(mask[chunk])[1].reshape(len(chunk), p + 1)
                bordered = stats[idx[:, :, None], idx[:, None, :]]
                feasible = gram_feasible(bordered[:, :p, :p])
                wrss = _bordered_wrss(bordered[feasible], shift)
                wrss[wrss <= WRSS_ROUNDOFF * (p + 1) * total] = 0.0
                values[chunk[feasible]] = wrss / (1.0 - p / n_obs) ** 2
        return values.tolist()

    return criterion


def _bordered_wrss(bordered: np.ndarray, shift: float) -> np.ndarray:
    """wrss = L_pp^2 - shift from the Cholesky factors of a (B, p+1, p+1) bordered stack.

    A member whose factor fails scores inf: only roundoff beyond the margin
    of gram_feasible's rule, which its Gram block passed, can do that.
    """
    try:
        pivot = np.linalg.cholesky(bordered)[:, -1, -1]
    except np.linalg.LinAlgError:
        pivot = np.full(len(bordered), np.inf)
        for b, matrix in enumerate(bordered):
            try:
                pivot[b] = np.linalg.cholesky(matrix)[-1, -1]
            except np.linalg.LinAlgError:
                continue
    return pivot**2 - shift


def _walk_grid(criterion, n_coef: int, k_max: int, strategy: str):
    """Search {0..k_max}^n_coef with a batch criterion; returns (best, table).

    criterion maps a list of knot-count tuples to their values.  'full'
    scores the whole grid in one call; 'coordinate' scores the k_max + 1
    candidates along one coordinate per call, skipping those already scored.
    Either way the candidates are then scanned in order with strict
    improvement, as a one-at-a-time walk would.
    """
    cache: dict[tuple[int, ...], float] = {}

    def evaluate(combos: list[tuple[int, ...]]) -> list[float]:
        fresh = [combo for combo in combos if combo not in cache]
        cache.update(zip(fresh, criterion(fresh)))
        return [cache[combo] for combo in combos]

    if strategy == "full":
        best, best_value = None, float("inf")
        grid = list(itertools.product(range(k_max + 1), repeat=n_coef))
        for combo, value in zip(grid, evaluate(grid)):
            if value < best_value:
                best, best_value = combo, value
    else:
        best = (0,) * n_coef
        best_value = evaluate([best])[0]
        for _ in range(MAX_SWEEPS):
            changed = False
            for r in range(n_coef):
                # moving along coordinate r leaves the others, so the line is fixed up front
                line = [best[:r] + (k,) + best[r + 1 :] for k in range(k_max + 1)]
                for candidate, value in zip(line, evaluate(line)):
                    if value < best_value:
                        best, best_value = candidate, value
                        changed = True
            if not changed:
                break
    if best is None or not np.isfinite(best_value):
        raise SelectionError(f"no feasible knot configuration up to k_max={k_max}")
    table = [{"k": list(combo), "pcv": value} for combo, value in sorted(cache.items())]
    return best, table


def knot_search(
    data: LongitudinalDataset,
    family,
    degree: int,
    k_max: int,
    strategy: str = "auto",
    *,
    placement: str = "equal",
    bandwidth: float | None = None,
) -> tuple[tuple[int, ...], list[dict]]:
    """Minimize the trace-form criterion over per-coefficient knot counts.

    Returns the winning (k_0, ..., k_d) and the table of evaluated
    candidates.  Each count's basis comes from make_spec with the given
    placement and bandwidth, so the search scores the basis that is later
    fitted.  'full' enumerates the grid {0..k_max}^(d+1) in lexicographic
    order with strict improvement, so ties resolve toward smaller counts;
    'coordinate' descends one coordinate at a time from all zeros.  'auto'
    uses the full grid for small problems.  A candidate is infeasible
    (criterion +inf) when N <= p, when its Gram block fails fit_wls's
    singularity rule, or when its knots cannot be placed.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    family = BasisFamily(family)
    n_coef = data.covariate_dim + 1
    if strategy == "auto":
        small = data.covariate_dim <= FULL_GRID_MAX_COVARIATES and k_max <= FULL_GRID_MAX_K
        strategy = "full" if small else "coordinate"
    if strategy not in ("full", "coordinate"):
        raise ValueError(f"unknown strategy {strategy!r}")

    criterion = _statistics_criterion(data, family, degree, k_max, placement, bandwidth)
    return _walk_grid(criterion, n_coef, k_max, strategy)


def amse(truth, estimate, counts) -> float:
    """Average squared error of one coefficient curve over the design points,
    weighting each subject's points by 1/(n n_i)."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    counts = np.asarray(counts)
    if truth.shape != estimate.shape:
        raise ValueError(f"truth shape {truth.shape} != estimate shape {estimate.shape}")
    if counts.sum() != truth.size:
        raise ValueError(f"counts sum to {counts.sum()} but curves have {truth.size} points")
    weights = np.repeat(1.0 / (counts.size * counts), counts)
    return float(weights @ (truth - estimate) ** 2)


def made(truths, estimates, counts, ranges) -> float:
    """Mean absolute deviation over all coefficient curves, each scaled by the
    range of its true curve across the design points."""
    truths = [np.asarray(t, dtype=float) for t in truths]
    estimates = [np.asarray(e, dtype=float) for e in estimates]
    ranges = [float(r) for r in ranges]
    if not (len(truths) == len(estimates) == len(ranges)):
        raise ValueError("truths, estimates, and ranges must have one entry per coefficient")
    counts = np.asarray(counts)
    weights = np.repeat(1.0 / (counts.size * counts), counts)
    total = 0.0
    for truth, estimate, rng_r in zip(truths, estimates, ranges):
        if truth.shape != estimate.shape or truth.size != weights.size:
            raise ValueError("curve arrays do not match the dataset layout")
        if rng_r <= 0:
            raise ValueError(f"coefficient range must be positive, got {rng_r}")
        total += float(weights @ np.abs(truth - estimate)) / rng_r
    return total


def crossval_amse(data: LongitudinalDataset, specs, n_folds: int, rng=0, engine: str = "wls",
                  draws: int = 0, burnin: int = DEFAULT_BURNIN) -> float:
    """Predictive mean squared error over a random observation-level partition.

    Observations (not subjects) are split into n_folds folds; each training
    fit recomputes the subject-uniform weights on the reduced data, and
    held-out points score unweighted squared error.  n_folds = N is
    leave-one-out.  No fold is rebuilt: its training statistics are
    sum_i r_i (S_i - H_i), S_i subject i's whitened statistics at the
    weights 1/(n n_i) and H_i its held-out rows', with r_i = n n_i / (n' n_i')
    for n' training subjects and n_i' training rows, or 0 for a subject the
    fold empties, all about gram_stats's default center, which never raises;
    solve_stats solves STACK_CHUNK folds at once, and the first infeasible one raises.
    A wls fold's point is that solution; a vb fold's is ridge_posterior's mu
    for the prior's ridge 1/N' on the same sums, VB's m* exactly (vb's module
    docstring), so wls and vb draw nothing and read no stream, whatever draws
    says.  Only gibbs runs fit_engine on each fold, on those sums, with its
    own stream, and takes the chain mean.  An unknown engine or a negative
    draws or burnin raises ValueError before any fold work.
    per_fold_crossval in tests/oracles.py is the oracle.
    """
    n_obs, n = data.n_obs, data.n_subjects
    if not 2 <= n_folds <= n_obs:
        raise ValueError(f"n_folds must be in [2, {n_obs}], got {n_folds}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    for name, value in (("draws", draws), ("burnin", burnin)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    gen, _ = as_generator(rng)
    perm = gen.permutation(n_obs)
    fold_rngs = gen.spawn(n_folds) if engine == "gibbs" else None  # wls and vb read no stream
    specs = tuple(specs)
    bundle = build_design(data, specs)
    design, response = whiten(bundle)
    center = frequentist.gram_stats(design, response).center
    # [a_j, e_j]: one outer product gives a row's Gram, lever and squared residual, subject_stats a subject's
    rows = np.column_stack([design, response - design @ center])
    stats = subject_stats(rows, data.counts, center)
    # fold f holds sizes[f] rows, the live slots of at[f]: np.array_split's first n_obs % n_folds get one more
    sizes = n_obs // n_folds + (np.arange(n_folds) < n_obs % n_folds)
    live = np.arange(sizes[0]) < sizes[:, None]
    at = np.zeros(live.shape, dtype=np.intp)
    at[live] = perm
    owners, p, total = data.subject_index[at], bundle.n_params, 0.0
    for lo in range(0, n_folds, frequentist.STACK_CHUNK):
        span = slice(lo, lo + frequentist.STACK_CHUNK)
        idx, mask, owner = at[span], live[span], owners[span]
        folds = len(idx)
        held = np.bincount((np.arange(folds)[:, None] * n + owner)[mask], minlength=folds * n)
        kept = data.counts - held.reshape(folds, n)
        n_train = np.count_nonzero(kept, axis=1)[:, None]
        ratio = np.divide(n * data.counts, n_train * kept, out=np.zeros(kept.shape), where=kept > 0)
        outer = np.einsum("bj,bjk,bjl->bkl", np.take_along_axis(ratio, owner, 1) * mask, rows[idx], rows[idx])
        sums = weighted_sums(stats, ratio, n_obs - sizes[span])
        sums = GramStats(sums.n_obs, sums.gram - outer[:, :p, :p], stats.center,
                         sums.resid_sq - outer[:, p, p], sums.lever - outer[:, :p, p])
        feasible, alpha, sigma2 = solve_stats(sums)
        if not feasible.all():
            b = np.flatnonzero(~feasible)[0]
            cause = infeasible_error(sums.n_obs[b], p)
            raise SelectionError(f"fold {lo + b} is infeasible: {cause}") from cause
        if engine == "vb":
            alpha = frequentist.ridge_posterior(sums, 1.0 / sums.n_obs)[2]
        for b in range(folds) if engine == "gibbs" else ():
            base = frequentist.BaseFit(None, sums[b], alpha[b], float(sigma2[b]))
            alpha[b] = fit_engine(data, specs, engine, fold_rngs[lo + b], draws, burnin, base=base).alpha
        preds = np.einsum("bjp,bp->bj", bundle.Z[idx], alpha)
        total += float(np.sum(((bundle.y[idx] - preds) * mask) ** 2))
    return total / n_obs
