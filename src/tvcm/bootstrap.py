"""Subject-level bootstrap for the weighted least squares fit.

A bootstrap replicate resamples n subjects with replacement, keeping each
drawn copy as a distinct subject, recomputes the subject-uniform weights for
the resampled data, and refits.  Replicates whose resampled design is
singular are redrawn, with the total number of attempts capped at ten times
the requested draw count.  Attempt j draws its n subject indices from the
master generator, right after attempt j - 1's.

Because n does not change, every drawn copy keeps its weight 1/(n n_i), and
a replicate is fully described by how many copies of each subject it holds.
bootstrap_fit therefore computes each subject's whitened statistics once,
as one stacked frequentist.GramStats about the full-data solution
(_subject_stats, which refuses an infeasible design before any resampling),
and fits a chunk of replicates with _weighted_fits, the weighted-sum kernel
that cross-validation shares: here the weights are copy counts.  A
replicate costs O(n p^2 + p^3) whatever the number of observations.
resample_subjects followed by a QR fit_wls is the per-replicate reference
path and stays as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import DesignBundle, build_design
from .data import LongitudinalDataset
from .errors import BootstrapDegeneracyError
from .frequentist import GramStats, fit_gram, solve_gram, whiten
from .rng import as_generator

REDRAW_FACTOR = 10
# replicates, or crossval folds, solved together; bounds the scratch arrays at chunk x n and chunk x p x p
REPLICATE_CHUNK = 256


class DrawSource(str, Enum):
    BOOTSTRAP = "bootstrap"
    GIBBS = "gibbs"
    VARIATIONAL = "variational"


@dataclass(frozen=True)
class PosteriorDraws:
    """Matrix of coefficient draws with their noise variances.

    Shared container for bootstrap replicates and Bayesian posterior samples;
    sigma2_draws holds variances (sigma squared), strictly positive for the
    Bayesian sources.  seed records the master seed, -1 when the caller
    passed a live Generator instead of an integer.  attempts is the number of
    bootstrap replicates tried, singular ones included; None for samplers.
    """

    alpha_draws: np.ndarray
    sigma2_draws: np.ndarray
    source: DrawSource
    seed: int = -1
    attempts: int | None = None

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha_draws, dtype=float)
        sigma2 = np.asarray(self.sigma2_draws, dtype=float)
        if alpha.ndim != 2 or alpha.shape[0] < 1:
            raise ValueError("alpha_draws must be a (n_draws, p) matrix with n_draws >= 1")
        if sigma2.shape != (alpha.shape[0],):
            raise ValueError("sigma2_draws length must match the number of draws")
        source = DrawSource(self.source)
        if source is DrawSource.BOOTSTRAP:
            if np.any(sigma2 < 0):
                raise ValueError("bootstrap variance draws must be non-negative")
        elif np.any(sigma2 <= 0):
            raise ValueError(f"{source.value} variance draws must be strictly positive")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(sigma2))):
            raise ValueError("draws contain non-finite values")
        alpha.setflags(write=False)
        sigma2.setflags(write=False)
        object.__setattr__(self, "alpha_draws", alpha)
        object.__setattr__(self, "sigma2_draws", sigma2)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_draws(self) -> int:
        return self.alpha_draws.shape[0]

    @property
    def n_params(self) -> int:
        return self.alpha_draws.shape[1]

    def to_csv(self, path) -> None:
        """Flat draw,param_index,value rows; indices 0..p-1 are coefficients, p is sigma2.

        The bytes are those of csv.writer with repr floats: \\r\\n line ends and
        no quoting, which repr of a finite float never needs.
        """
        # ["0,%r\r\n", "1,%r\r\n", ...]: draw b's p + 1 rows are "b," joined with these
        rows = [f"{j},%r\r\n" for j in range(self.n_params + 1)]
        values = np.column_stack([self.alpha_draws, self.sigma2_draws]).tolist()
        with open(path, "w", newline="") as fh:
            fh.write("draw,param_index,value\r\n")
            fh.write("".join((f"{b}," + f"{b},".join(rows)) % tuple(draw)
                             for b, draw in enumerate(values)))

    def summary(self, level: float = 0.95) -> dict:
        """Means and central intervals for every parameter."""
        lows, highs = column_intervals(self.alpha_draws, level)
        s_lo, s_hi = percentile_interval(self.sigma2_draws, level)
        return {
            "source": self.source.value,
            "seed": self.seed,
            "n_draws": self.n_draws,
            "level": level,
            "alpha_mean": self.alpha_draws.mean(axis=0).tolist(),
            "alpha_lower": lows.tolist(),
            "alpha_upper": highs.tolist(),
            "sigma2_mean": float(self.sigma2_draws.mean()),
            "sigma2_lower": s_lo,
            "sigma2_upper": s_hi,
        }


def percentile_interval(samples, level: float) -> tuple[float, float]:
    """Central interval from order statistics with linear rank interpolation."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot form a percentile interval from zero samples")
    lo, hi = _central_quantiles(np.sort(samples.ravel()), level)
    return float(lo), float(hi)


def column_intervals(samples, level: float) -> tuple[np.ndarray, np.ndarray]:
    """percentile_interval of every column of a (n_draws, m) matrix from one sort."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("column intervals need a (n_draws, m) matrix with n_draws >= 1")
    return _central_quantiles(np.sort(samples, axis=0), level)


def _central_quantiles(ordered: np.ndarray, level: float):
    """The (1 - level)/2 and (1 + level)/2 quantiles along axis 0 of samples sorted along it.

    On draw matrices one sort serving both ends costs less than np.quantile's
    multi-point partition; a caller that owns a fresh matrix may sort it in
    place first.
    """
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    tail = (1.0 - level) / 2.0
    return tuple(_sorted_quantiles(ordered, (tail, 1.0 - tail)))


def _sorted_quantiles(ordered: np.ndarray, probs) -> list:
    """The quantiles at probs along axis 0 of samples sorted along it.

    This is np.quantile's 'linear' method, bit for bit: the virtual index
    (n - 1)q falls between order statistics a <= b with fraction g, and the
    quantile is a + (b - a)g, or b - (b - a)(1 - g) when g >= 0.5.  A column
    holding a NaN gets NaN.
    """
    n = ordered.shape[0]
    last = ordered[-1]
    values = []
    for q in probs:
        index = (n - 1) * q
        below = math.floor(index)
        a, b = ordered[min(below, n - 1)], ordered[min(below + 1, n - 1)]
        g = index - below
        diff = b - a
        value = b - diff * (1 - g) if g >= 0.5 else a + diff * g
        values.append(np.where(np.isnan(last), last, value))
    return values


def resample_subjects(data: LongitudinalDataset, rng: np.random.Generator) -> LongitudinalDataset:
    """Draw n subjects with replacement; copies get '#<slot>' id suffixes to stay distinct."""
    n = data.n_subjects
    picks = rng.integers(0, n, size=n)
    counts = data.counts[picks]
    # row r of copy `slot` is row starts[pick] + (r - offset of slot) of the data
    starts = np.cumsum(data.counts) - data.counts
    shift = np.repeat(starts[picks] - (np.cumsum(counts) - counts), counts)
    rows = np.arange(counts.sum()) + shift
    return LongitudinalDataset(
        tuple(f"{data.subject_ids[pick]}#{slot}" for slot, pick in enumerate(picks)),
        counts,
        data.times[rows],
        data.responses[rows],
        data.covariates[rows],
        data.time_domain,
    )


def _subject_stats(bundle, counts: np.ndarray, center=None) -> GramStats:
    """Per-subject GramStats about center (default: fit_gram's full-data solution), stacked over subjects.

    With A = sqrt(W) Z and y~ = sqrt(W) y split into subject blocks, gram[i]
    and cross[i] are A_i'A_i and A_i'y_i; with e = y~ - A center, resid_sq[i]
    is e_i'e_i and lever[i] is A_i'e_i = cross[i] - gram[i] center.
    """
    design, response = whiten(bundle)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    p = bundle.n_params
    gram = np.empty((counts.size, p, p))
    cross = np.empty((counts.size, p))
    # one stacked matmul over all subjects with the same visit count
    for n_i in np.unique(counts):
        subjects = np.flatnonzero(counts == n_i)
        rows = starts[subjects, None] + np.arange(n_i)
        block = design[rows]
        block_t = block.transpose(0, 2, 1)
        gram[subjects] = block_t @ block
        cross[subjects] = (block_t @ response[rows][..., None])[..., 0]
    center = fit_gram(gram.sum(axis=0), cross.sum(axis=0), bundle.n_obs) if center is None else center
    resid_sq = np.add.reduceat((response - design @ center) ** 2, starts)
    lever = cross - gram @ center
    return GramStats(counts, gram, cross, center, resid_sq, lever)


def _weighted_fits(stats: GramStats, weights: np.ndarray, n_obs, less: GramStats | None = None):
    """Solve every regression sum_i weights[b, i] stats[i] - less[b]; returns (sums, feasible, alpha, sigma2).

    n_obs holds the row counts.  The sums keep the per-subject center, which
    sits near every solution, so sigma2 from rss does not cancel to noise on a
    near-exact fit; roundoff below zero is clamped.  Infeasible rows get NaN.
    """
    rows, n = weights.shape
    p = stats.center.size
    sums = GramStats(n_obs, (weights @ stats.gram.reshape(n, p * p)).reshape(rows, p, p), weights @ stats.cross,
                     stats.center, weights @ stats.resid_sq, weights @ stats.lever)
    if less is not None:
        sums = GramStats(n_obs, sums.gram - less.gram, sums.cross - less.cross, stats.center,
                         sums.resid_sq - less.resid_sq, sums.lever - less.lever)
    feasible, alpha = solve_gram(sums.gram, sums.cross)
    feasible &= n_obs > p
    alpha[~feasible] = np.nan
    # infeasible rows are scored at the center, so the whole chunk is scored without copying G
    wrss = sums.rss(np.where(feasible[:, None], alpha, stats.center))
    sigma2 = np.full(rows, np.nan)
    sigma2[feasible] = np.maximum(wrss[feasible], 0.0) / (n_obs[feasible] - p)
    return sums, feasible, alpha, sigma2


def bootstrap_fit(
    data: LongitudinalDataset,
    specs,
    n_draws: int,
    rng,
    bundle: DesignBundle | None = None,
) -> PosteriorDraws:
    """Collect n_draws successful replicate fits.

    Attempts run in waves of one replicate per still-missing draw.  Attempt
    j takes the next n subject indices from the master generator itself, so
    the draws equal those of resample_subjects(data, gen) called once per
    attempt in order; each chunk of up to REPLICATE_CHUNK attempts is one
    gen.integers call.  Draws are kept in attempt-index order, and the
    returned draws record the attempts made.  bundle, when given, is the
    design of (data, specs), which saves building it again.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    gen, seed = as_generator(rng)
    if bundle is None:
        bundle = build_design(data, specs)
    stats = _subject_stats(bundle, data.counts)

    n = data.n_subjects
    cap = REDRAW_FACTOR * n_draws
    alphas, sigma2s = [], []
    found = attempts = 0
    while found < n_draws and attempts < cap:
        wave_end = attempts + min(n_draws - found, cap - attempts)
        while attempts < wave_end:
            rows = min(REPLICATE_CHUNK, wave_end - attempts)
            # one bincount over row-offset picks counts the copies of every attempt
            offset = gen.integers(0, n, size=(rows, n)) + n * np.arange(rows)[:, None]
            copies = np.bincount(offset.ravel(), minlength=rows * n).reshape(rows, n).astype(float)
            _, feasible, alpha, sigma2 = _weighted_fits(stats, copies, copies @ stats.n_obs)
            alphas.append(alpha[feasible])
            sigma2s.append(sigma2[feasible])
            found += int(feasible.sum())
            attempts += rows
    if found < n_draws:
        raise BootstrapDegeneracyError(
            f"only {found} of {n_draws} replicates succeeded within {attempts} attempts"
        )
    return PosteriorDraws(
        alpha_draws=np.concatenate(alphas),
        sigma2_draws=np.concatenate(sigma2s),
        source=DrawSource.BOOTSTRAP,
        seed=seed,
        attempts=attempts,
    )
