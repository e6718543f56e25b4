"""The three benchmark workloads: seeded inputs, CLI arguments and output checks.

An op is one ``tvcm`` command.  ``prepare`` writes the op's inputs (outside
the timed region) and returns the command plus a check that reads the
artifacts back.  Inputs come only from the workload seed and the op index.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

import tvcm

# alpha written by `tvcm fit --engine wls` against a direct QR solve of the
# same weighted design, relative to the largest coefficient
ORACLE_RTOL = 1e-6
# Recovery error against the generator's true curves.  Over 25-200 seeds per
# size the largest MADE was 0.062 (fit-wls-auto, 100 subjects), 0.020
# (fit-gibbs-large, 1,000 subjects) and 0.15 (either at the 30-40 subjects of
# the smoke panels); the largest simulate-small AMSE was 0.0023 at 50 subjects
# and 0.0042 at 20.  Setting every curve to its average scores about 0.8 MADE
# and 0.86 AMSE.
MADE_BOUND = {"fit-wls-auto": 0.15, "fit-gibbs-large": 0.05}
SMOKE_MADE_BOUND = 0.3
AMSE_BOUND = 0.02


@dataclass
class Op:
    argv: list[str]
    check: Callable[[], list[str]]  # problems found in the artifacts; empty when correct


def _seeds(seed: int, index: int) -> tuple[np.random.Generator, int]:
    """Panel generator and CLI seed of op ``index``; index 0 is the warm-up op."""
    entropy = [seed % 2**63, index]
    cli_seed = int(np.random.SeedSequence(entropy + [1]).generate_state(1)[0])
    return np.random.default_rng(entropy + [0]), cli_seed


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)


def _load_json(path, problems):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None
    if not all(math.isfinite(v) for v in _numbers(payload)):
        problems.append(f"{os.path.basename(path)}: non-finite number")
    return payload


def _load_csv(path, problems, numeric=slice(None)):
    """Data rows of a CSV whose ``numeric`` cells all parse as finite floats."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(cell) for row in rows for cell in row[numeric]]
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return []
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{os.path.basename(path)}: non-finite number")
    return rows


@dataclass(frozen=True)
class FitWorkload:
    """`tvcm fit` on a fresh scenario-2 panel per op."""

    name: str
    subjects: int
    warmup_subjects: int
    options: list[str]
    draws: int
    oracle: bool  # compare alpha with a direct QR solve
    made_bound: float

    def prepare(self, seed: int, index: int, work: str) -> Op:
        rng, cli_seed = _seeds(seed, index)
        n = self.warmup_subjects if index == 0 else self.subjects
        data, truth = tvcm.gen_scenario2(n, rng)
        panel = os.path.join(work, f"panel-{index}.csv")
        tvcm.write_csv(data, panel)
        out = os.path.join(work, f"op-{index}")
        argv = ["fit", "--data", panel, "--seed", str(cli_seed), "--out", out, *self.options]
        return Op(argv, lambda: self._check(data, truth, out))

    def _check(self, data, truth, out) -> list[str]:
        problems: list[str] = []
        fit = _load_json(os.path.join(out, "fit.json"), problems)
        _load_json(os.path.join(out, "manifest.json"), problems)
        summary = _load_json(os.path.join(out, "draws_summary.json"), problems)
        curves = _load_csv(os.path.join(out, "curves.csv"), problems)
        draws = _load_csv(os.path.join(out, "draws.csv"), problems)
        if fit is None or summary is None:
            return problems
        specs = [tvcm.BasisSpec.from_dict(b) for b in fit["basis"]]
        alpha = np.concatenate([fit["alpha"][str(r)] for r in range(len(specs))])
        p = alpha.size
        if curves and len(curves) != len(specs) * 200:
            problems.append(f"curves.csv has {len(curves)} rows")
        if summary["n_draws"] != self.draws or len(draws) != self.draws * (p + 1):
            problems.append(f"{summary['n_draws']} draws and {len(draws)} draws.csv rows, p={p}")
        if fit["sigma2"] is None or not fit["sigma2"] > 0:
            problems.append(f"sigma2 is {fit['sigma2']}")
        if fit["engine"] in ("gibbs", "vb") and (fit.get("dic") or {}).get("dic") is None:
            problems.append("DIC is missing or non-finite")
        if self.oracle:
            bundle = tvcm.build_design(data, specs)
            sw = np.sqrt(bundle.weights)
            q, r = np.linalg.qr(bundle.Z * sw[:, None])
            direct = solve_triangular(r, q.T @ (bundle.y * sw))
            err = np.max(np.abs(alpha - direct)) / np.max(np.abs(direct))
            if not err <= ORACLE_RTOL:
                problems.append(f"alpha differs from the QR solve by {err:.2e} relative")
        blocks = tvcm.split_alpha(alpha, [s.n_terms for s in specs])
        estimates = [tvcm.coefficient_curve(s, b, data.times) for s, b in zip(specs, blocks)]
        made = tvcm.made(truth.curves, estimates, data.counts, truth.ranges())
        if not made <= self.made_bound:
            problems.append(f"MADE {made:.4f} exceeds {self.made_bound}")
        return problems


@dataclass(frozen=True)
class SimulateWorkload:
    """`tvcm simulate` with one replicate per op and a distinct seed per op."""

    options: list[str]
    engines = ("wls", "gibbs", "vb")
    families = ("radial", "tpower")

    def prepare(self, seed: int, index: int, work: str) -> Op:
        _, cli_seed = _seeds(seed, index)
        prefix = os.path.join(work, f"sim-{index}")
        argv = [
            "simulate", "--scenario", "1", "--reps", "1",
            "--engines", ",".join(self.engines), "--families", ",".join(self.families),
            "--seed", str(cli_seed), "--out-prefix", prefix, *self.options,
        ]
        return Op(argv, lambda: self._check(prefix))

    def _check(self, prefix) -> list[str]:
        problems: list[str] = []
        summary = _load_json(f"{prefix}_summary.json", problems)
        # columns: rep, seed, engine, basis, knots, metric, millis, status
        report = _load_csv(f"{prefix}_report.csv", problems, numeric=slice(5, 7))
        cells = len(self.engines) * len(self.families)
        if summary is None:
            return problems
        if summary["failures"] != 0:
            problems.append(f"{summary['failures']} failed cells")
        if len(summary["cells"]) != cells or len(report) != cells:
            problems.append(f"{len(summary['cells'])} summary cells and {len(report)} report rows")
        if any(row[7] != "ok" for row in report):
            problems.append("a report row is not ok")
        for key, cell in summary["cells"].items():
            if cell["n_ok"] != 1 or cell.get("median") is None or not cell["median"] <= AMSE_BOUND:
                problems.append(f"{key}: n_ok {cell['n_ok']}, AMSE {cell.get('median')}")
        return problems


def make(name: str, smoke: bool):
    """Workload ``name`` at the timed sizes, or at tiny sizes when ``smoke``."""
    made_bound = SMOKE_MADE_BOUND if smoke else MADE_BOUND.get(name)
    if name == "fit-wls-auto":
        kmax, boot = ("2", 20) if smoke else ("5", 200)
        options = ["--engine", "wls", "--knots", "auto", "--kmax", kmax, "--boot", str(boot)]
        return FitWorkload(name, 30 if smoke else 100, 30, options, boot, True, made_bound)
    if name == "fit-gibbs-large":
        draws, burnin = (200, 50) if smoke else (2000, 500)
        options = ["--engine", "gibbs", "--family", "tpower", "--knots", "4",
                   "--draws", str(draws), "--burnin", str(burnin)]
        return FitWorkload(name, 40 if smoke else 1000, 40, options, draws, False, made_bound)
    if name == "simulate-small":
        if smoke:
            return SimulateWorkload(["--n", "20", "--kmax", "2", "--draws", "20", "--burnin", "10"])
        return SimulateWorkload(["--n", "50", "--kmax", "5", "--draws", "200", "--burnin", "100"])
    raise ValueError(f"unknown workload {name!r}")
