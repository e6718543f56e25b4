"""Synthetic longitudinal data generators and the replication harness.

Scenario 1 is an intercept-only model on (0, 1): a smooth fixed curve plus a
subject-specific trigonometric random process and heteroscedastic noise.
Scenario 2 has two covariates on an integer visit schedule 0..31 with an
exponentially correlated within-subject error process.  Both scenarios drop
each scheduled visit independently with probability one half (configurable
for scenario 1), redrawing the mask for any subject left with no visits.

Per-subject variates come from RNG substreams spawned off the master
generator, so subject i's data do not change when n grows.

run_replications fits every engine to each replicate and basis family.  The
knot search and one base_fit run once per family for all its engines.
A row's millis is 1000 * EngineResult.sampling_seconds, so a wls row times
the bootstrap alone (0.0 without draws).  A family whose set-up fails still
advances every engine's RNG stream, so later rows keep their numbers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .basis import BasisFamily, coefficient_curve, make_spec, split_alpha
from .bootstrap import sorted_quantiles
from .data import LongitudinalDataset
from .engines import fit_engine
from .errors import TvcmError
from .frequentist import base_fit
from .mcmc import DEFAULT_BURNIN
from .rng import as_generator
from .selection import amse, knot_search, made

SCENARIO1_LEVELS = {"weak": 0.01, "medium": 0.04, "high": 0.09}
SCENARIO1_SIGMA2 = 0.01
SCENARIO2_SCHEDULE = np.arange(32.0)
SCENARIO2_ERROR_VAR = 0.0625


@dataclass(frozen=True)
class SimTruth:
    """True coefficient curves tabulated at the generated design points."""

    curves: tuple[np.ndarray, ...]

    def ranges(self) -> tuple[float, ...]:
        """Range (max - min) of each true curve over the observed design points."""
        return tuple(float(c.max() - c.min()) for c in self.curves)


def scenario1_beta0(shape: str):
    if shape == "exp":
        return lambda t: 2.0 * np.exp(t)
    if shape == "trig":
        return lambda t: 1.0 + np.cos(2.0 * np.pi * t) + np.sin(2.0 * np.pi * t)
    raise ValueError(f"unknown scenario 1 shape {shape!r}; expected 'exp' or 'trig'")


def _retention_mask(child: np.random.Generator, size: int, missing_rate: float) -> np.ndarray:
    # redraw until at least one visit survives so every subject contributes
    while True:
        keep = child.random(size) >= missing_rate
        if keep.any():
            return keep


def gen_scenario1(
    n: int,
    rng,
    m: int = 30,
    missing_rate: float = 0.5,
    level: str = "weak",
    shape: str = "exp",
) -> tuple[LongitudinalDataset, SimTruth]:
    """Intercept-only scenario on the schedule t_j = j/(m+1), j = 1..m.

    Subject i's response is beta0(t) + a0 + a1 cos(2 pi t) + a2 sin(2 pi t)
    + eps(t), with (a0, a1, a2) centered normal with variances (sigma0^2,
    0.01, 0.01) set by level, and eps(t) independent noise with standard
    deviation 0.1 (1 - exp(-t/2 - i/n)).
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must be in [0, 1), got {missing_rate}")
    if level not in SCENARIO1_LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {sorted(SCENARIO1_LEVELS)}")
    beta0 = scenario1_beta0(shape)
    sigma0 = np.sqrt(SCENARIO1_LEVELS[level])
    sigma = np.sqrt(SCENARIO1_SIGMA2)
    gen, _ = as_generator(rng)
    children = gen.spawn(n)
    schedule = np.arange(1, m + 1) / (m + 1)

    # each subject's stream draws its mask, then a, then one noise variate per kept visit
    keep, effects, variates = np.empty((n, m), dtype=bool), np.empty((n, 3)), []
    for i, child in enumerate(children):
        keep[i] = _retention_mask(child, m, missing_rate)
        effects[i] = child.standard_normal(3)
        variates.append(child.standard_normal(np.count_nonzero(keep[i])))
    counts = keep.sum(axis=1)
    t = np.broadcast_to(schedule, keep.shape)[keep]
    subject = np.repeat(np.arange(1, n + 1), counts)
    a = np.repeat(effects * np.array([sigma0, sigma, sigma]), counts, axis=0)
    noise_sd = sigma * (1.0 - np.exp(-0.5 * t - subject / n))
    eps = np.concatenate(variates) * noise_sd
    process = a[:, 0] + a[:, 1] * np.cos(2.0 * np.pi * t) + a[:, 2] * np.sin(2.0 * np.pi * t)
    truth = beta0(t)
    data = LongitudinalDataset(
        tuple(map(str, range(1, n + 1))), counts, t, truth + process + eps,
        np.empty((t.size, 0)), time_domain=(0.0, 1.0),
    )
    return data, SimTruth(curves=(truth,))


def scenario2_betas() -> tuple:
    return (
        lambda t: 3.5 + 6.5 * np.sin(t * np.pi / 60.0),
        lambda t: -0.2 - 1.6 * np.cos((t - 30.0) * np.pi / 60.0),
        lambda t: 0.25 - 0.0074 * ((30.0 - t) / 10.0) ** 3,
    )


def gen_scenario2(n: int, rng) -> tuple[LongitudinalDataset, SimTruth]:
    """Two-covariate scenario on visits 0..31, each retained with probability 1/2.

    x1 is Bernoulli(1/2), x2 is N(0, 16), both constant within subject; the
    error process has covariance 0.0625 exp(-|s - t|) across a subject's
    retained visits.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    gen, _ = as_generator(rng)
    children = gen.spawn(n)
    m = SCENARIO2_SCHEDULE.size

    # each subject's stream draws its mask, x1, x2, then its correlated errors
    keep, x, eps = np.empty((n, m), dtype=bool), np.empty((n, 2)), []
    for i, child in enumerate(children):
        keep[i] = _retention_mask(child, m, 0.5)
        x[i] = 1.0 if child.random() < 0.5 else 0.0, 4.0 * child.standard_normal()
        t = SCENARIO2_SCHEDULE[keep[i]]
        gamma = SCENARIO2_ERROR_VAR * np.exp(-np.abs(t[:, None] - t[None, :]))
        eps.append(np.linalg.cholesky(gamma) @ child.standard_normal(t.size))
    counts = keep.sum(axis=1)
    t = np.broadcast_to(SCENARIO2_SCHEDULE, keep.shape)[keep]
    covariates = np.repeat(x, counts, axis=0)
    curves = tuple(b(t) for b in scenario2_betas())
    y = curves[0] + curves[1] * covariates[:, 0] + curves[2] * covariates[:, 1] + np.concatenate(eps)
    data = LongitudinalDataset(
        tuple(map(str, range(1, n + 1))), counts, t, y, covariates, time_domain=(0.0, 31.0)
    )
    return data, SimTruth(curves=curves)


@dataclass
class SimReport:
    """Replication results: one row per replication x basis x engine."""

    rows: list
    params: dict

    @property
    def failures(self) -> int:
        return sum(row["status"] != "ok" for row in self.rows)

    def to_csv(self, path) -> None:
        fields = ["rep", "seed", "engine", "basis", "knots", "metric", "millis", "status"]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(self.rows)

    def summary(self) -> dict:
        groups = {}  # (engine, basis) -> its rows, in first-seen order
        for row in self.rows:
            groups.setdefault((row["engine"], row["basis"]), []).append(row)
        cells = {}
        for (engine, basis), rows in groups.items():
            ok = [r for r in rows if r["status"] == "ok"]
            cell = {"n_ok": len(ok), "n_fail": len(rows) - len(ok)}
            if ok:
                vals = np.array([r["metric"] for r in ok], dtype=float)
                mean = float(vals.mean())  # before the sort, which would change the summation order
                vals.sort()
                q1, med, q3 = sorted_quantiles(vals, (0.25, 0.5, 0.75))
                cell.update(q1=float(q1), median=float(med), q3=float(q3), mean=mean)
                cell["mean_millis"] = float(np.mean([r["millis"] for r in ok]))
            cells[f"{engine}/{basis}"] = cell
        return {"params": self.params, "failures": self.failures, "cells": cells}


def run_replications(
    scenario: int,
    n: int,
    reps: int,
    rng=0,
    engines=("wls",),
    families=("radial", "tpower"),
    degree: int = 2,
    k_max: int = 5,
    draws: int = 0,
    burnin: int = DEFAULT_BURNIN,
    level: str = "weak",
    shape: str = "exp",
    strategy: str = "auto",
) -> SimReport:
    """Repeatedly generate, select knots, fit every engine, and score recovery.

    The metric is the averaged squared error of the intercept curve for
    scenario 1 and the range-scaled mean absolute deviation over all three
    curves for scenario 2.  millis is 1000 * EngineResult.sampling_seconds:
    the bootstrap for wls (0.0 without draws), else the sampler or VB.  A
    TvcmError in a family's set-up (knot search, specs, base fit) fails all
    its engines, one in an engine's fit or score fails that engine; the row
    records the error type and the run continues.  Every engine takes its
    RNG stream even when its family failed, so other rows do not change.
    """
    if scenario not in (1, 2):
        raise ValueError(f"scenario must be 1 or 2, got {scenario}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    gen, master_seed = as_generator(rng)
    families = [BasisFamily(f).value for f in families]

    rows = []
    for rep, child in enumerate(gen.spawn(reps)):
        if scenario == 1:
            data, truth = gen_scenario1(n, child, level=level, shape=shape)
        else:
            data, truth = gen_scenario2(n, child)
        for family in families:
            setup_error = None
            try:
                k_best = knot_search(data, family, degree, k_max, strategy)[0]
                specs = tuple(make_spec(family, degree, k, data.time_domain) for k in k_best)
                base = base_fit(data, specs)
            except TvcmError as exc:
                setup_error = type(exc).__name__
            for engine in engines:
                engine_rng = child.spawn(1)[0]  # taken even when the family failed
                status, metric, millis = setup_error, float("nan"), float("nan")
                if status is None:
                    try:
                        result = fit_engine(
                            data, specs, engine, rng=engine_rng, draws=draws, burnin=burnin, base=base
                        )
                        blocks = split_alpha(result.alpha, tuple(s.n_terms for s in specs))
                        fits = [coefficient_curve(s, b, data.times) for s, b in zip(specs, blocks)]
                        if scenario == 1:
                            metric = amse(truth.curves[0], fits[0], data.counts)
                        else:
                            metric = made(truth.curves, fits, data.counts, truth.ranges())
                        status, millis = "ok", 1000.0 * result.sampling_seconds
                    except TvcmError as exc:
                        status = type(exc).__name__
                knots = "|".join(str(k) for k in k_best) if status == "ok" else ""
                rows.append(dict(
                    rep=rep, seed=master_seed, engine=engine, basis=family, knots=knots,
                    metric=metric, millis=millis, status=status,
                ))
    params = {
        "scenario": scenario,
        "n": n,
        "reps": reps,
        "seed": master_seed,
        "engines": list(engines),
        "families": [str(f) for f in families],
        "degree": degree,
        "k_max": k_max,
        "draws": draws,
        "burnin": burnin,
        "metric": "amse" if scenario == 1 else "made",
    }
    if scenario == 1:
        params.update(level=level, shape=shape)
    return SimReport(rows=rows, params=params)
