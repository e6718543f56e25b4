"""Regenerate data/demo_longitudinal.csv, the bundled demo dataset.

Usage: python scripts/make_demo_data.py [OUT]; OUT defaults to
data/demo_longitudinal.csv in the repository.

Synthetic longitudinal panel shaped like a small immunology trial:
166 subjects, 1-18 visits each at irregular week offsets in [0, 120],
a square-root-scale response, one binary arm indicator and one
standardized baseline covariate.  Fully deterministic.
"""
from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tvcm import LongitudinalDataset, write_csv

SEED = 20260826
N_SUBJECTS = 166


def beta0(t: np.ndarray) -> np.ndarray:
    return 14.0 + 6.0 * (1.0 - np.exp(-t / 30.0))


def beta1(t: np.ndarray) -> np.ndarray:
    return 1.5 * np.sin(np.pi * t / 120.0)


def beta2(t: np.ndarray) -> np.ndarray:
    return 0.8 - 0.004 * t


def main(out=None) -> None:
    root = np.random.default_rng(SEED)
    times, responses, x_rows = [], [], []
    for gen in root.spawn(N_SUBJECTS):
        n_obs = int(gen.integers(1, 19))
        weeks = np.sort(gen.choice(121, size=n_obs, replace=False)).astype(float)
        arm = float(gen.integers(0, 2))
        baseline = float(gen.standard_normal())
        subject_shift = 2.0 * gen.standard_normal()
        noise = 1.2 * gen.standard_normal(n_obs)
        y = (beta0(weeks) + beta1(weeks) * arm + beta2(weeks) * baseline
             + subject_shift + noise)
        times.append(weeks)
        responses.append(y)
        x_rows.append((arm, baseline))
    counts = [t.size for t in times]
    data = LongitudinalDataset(
        tuple(f"id{i + 1:03d}" for i in range(N_SUBJECTS)), counts,
        np.concatenate(times), np.concatenate(responses),
        np.repeat(np.array(x_rows), counts, axis=0), time_domain=(0.0, 120.0))
    if out is None:
        out = pathlib.Path(__file__).resolve().parents[1] / "data" / "demo_longitudinal.csv"
    out = pathlib.Path(out)
    out.parent.mkdir(exist_ok=True)
    write_csv(data, out)
    print(f"wrote {out} ({data.n_subjects} subjects, {data.n_obs} rows, "
          f"visits {data.counts.min()}-{data.counts.max()})")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
