"""Subject-level bootstrap for the weighted least squares fit.

A bootstrap replicate resamples n subjects with replacement, keeping each
drawn copy as a distinct subject, recomputes the subject-uniform weights for
the resampled data, and refits.  Replicates whose resampled design is
singular are redrawn, with the total number of attempts capped at ten times
the requested draw count.  Attempt j draws its n subject indices from the
master generator, right after attempt j - 1's.

Because n does not change, every drawn copy keeps its weight 1/(n n_i), and
a replicate is fully described by how many copies of each subject it holds.
bootstrap_fit therefore stacks each subject's whitened statistics once:
frequentist.subject_stats reads them off the bordered rows [Z~ | e] about
base_fit's alpha_hat, whose solve refuses an infeasible design before any
resampling.  frequentist.weighted_sums sums them for a batch of at most
STACK_CHUNK replicates, with copy counts as weights, and
frequentist.solve_stats solves the stack as steps from alpha_hat.  A
replicate costs O(n p^2 + p^3) whatever the number of observations.
resample_subjects followed by a QR fit_wls is the per-replicate reference
path and stays as the test oracle.  Every interval reads order statistics
along the last axis: each parameter's or grid point's draws are one sorted row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import frequentist
from .data import LongitudinalDataset
from .errors import BootstrapDegeneracyError
from .rng import as_generator

REDRAW_FACTOR = 10


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
        alpha = np.array(self.alpha_draws, dtype=float)
        sigma2 = np.array(self.sigma2_draws, dtype=float)
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
        for name, arr in (("alpha_draws", alpha), ("sigma2_draws", sigma2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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
        no quoting, which repr of a finite float never needs.  Each draw's rows
        are formatted and handed to the file in turn, so one draw's text exists at a time.
        """
        # ["0,%r\r\n", "1,%r\r\n", ...]: draw b's p + 1 rows are "b," joined with these
        rows = [f"{j},%r\r\n" for j in range(self.n_params + 1)]
        draws = zip(self.alpha_draws, self.sigma2_draws.tolist())
        with open(path, "w", newline="") as fh:
            fh.write("draw,param_index,value\r\n")
            fh.writelines((f"{b}," + f"{b},".join(rows)) % (*alpha.tolist(), sigma2)
                          for b, (alpha, sigma2) in enumerate(draws))

    def summary(self, level: float = 0.95) -> dict:
        """Means and central intervals for every parameter, from one in-place sort of a (p + 1, n_draws) copy."""
        ordered = np.empty((self.n_params + 1, self.n_draws))
        ordered[:-1] = self.alpha_draws.T
        ordered[-1] = self.sigma2_draws
        ordered.sort(axis=1)
        lows, highs = central_quantiles(ordered, level)
        return {
            "source": self.source.value,
            "seed": self.seed,
            "n_draws": self.n_draws,
            "level": level,
            "alpha_mean": self.alpha_draws.mean(axis=0).tolist(),
            "alpha_lower": lows[:-1].tolist(),
            "alpha_upper": highs[:-1].tolist(),
            "sigma2_mean": float(self.sigma2_draws.mean()),
            "sigma2_lower": float(lows[-1]),
            "sigma2_upper": float(highs[-1]),
        }


def percentile_interval(samples, level: float) -> tuple[float, float]:
    """Central interval of all the samples, flattened, from order statistics with linear rank interpolation."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot form a percentile interval from zero samples")
    lo, hi = central_quantiles(np.sort(samples, axis=None), level)
    return float(lo), float(hi)


def central_quantiles(ordered: np.ndarray, level: float):
    """The (1 - level)/2 and (1 + level)/2 quantiles along the last axis of samples sorted along it.

    A caller that owns a fresh matrix may sort it in place first.  One sort
    along contiguous rows serves both ends for less than np.quantile's
    partition at the four ranks they read.
    """
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    tail = (1.0 - level) / 2.0
    return tuple(sorted_quantiles(ordered, (tail, 1.0 - tail)))


def sorted_quantiles(ordered: np.ndarray, probs) -> list:
    """The quantiles at probs along the last axis of samples sorted along it.

    This is np.quantile's 'linear' method, bit for bit: the virtual index
    (n - 1)q falls between order statistics a <= b with fraction g, and the
    quantile is a + (b - a)g, or b - (b - a)(1 - g) when g >= 0.5.  A row
    holding a NaN gets NaN.
    """
    n = ordered.shape[-1]
    last = ordered[..., -1]
    values = []
    for q in probs:
        index = (n - 1) * q
        below = math.floor(index)
        a, b = ordered[..., min(below, n - 1)], ordered[..., min(below + 1, n - 1)]
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


def bootstrap_fit(
    data: LongitudinalDataset,
    specs,
    n_draws: int,
    rng,
    base: frequentist.BaseFit | None = None,
) -> PosteriorDraws:
    """Collect n_draws successful replicate fits.

    Each pass of one loop tries a batch of min(frequentist.STACK_CHUNK,
    missing draws, remaining attempts) replicates as one gen.integers call
    and one stacked solve.  No batch holds more attempts than there are
    missing draws, so the run ends on the n_draws-th success or at the
    attempt cap.  Attempt j takes the next n subject indices from the master
    generator itself, so the draws equal those of resample_subjects(data,
    gen) called once per attempt in order.  Draws are kept in attempt-index
    order, and the returned draws record the attempts made.  base, when
    given, is frequentist.base_fit(data, specs), which is built here
    otherwise.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    gen, seed = as_generator(rng)
    if base is None:
        base = frequentist.base_fit(data, specs)
    design, response = frequentist.whiten(base.bundle)
    bordered = np.column_stack([design, response - design @ base.alpha_hat])
    stats = frequentist.subject_stats(bordered, data.counts, base.alpha_hat)

    n = data.n_subjects
    cap = REDRAW_FACTOR * n_draws
    alphas, sigma2s = [], []
    found = attempts = 0
    while found < n_draws and attempts < cap:
        rows = min(frequentist.STACK_CHUNK, n_draws - found, cap - attempts)
        # one bincount over row-offset picks counts the copies of every attempt
        offset = gen.integers(0, n, size=(rows, n)) + n * np.arange(rows)[:, None]
        copies = np.bincount(offset.ravel(), minlength=rows * n).reshape(rows, n).astype(float)
        sums = frequentist.weighted_sums(stats, copies, copies @ stats.n_obs)
        feasible, alpha, sigma2 = frequentist.solve_stats(sums)
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
