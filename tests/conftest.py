"""Shared fixtures and small builders used across the test modules."""
from __future__ import annotations

import dataclasses
import functools
import importlib.util
import os
import pathlib

# One BLAS thread unless the caller chose otherwise: threaded OpenBLAS GEMMs
# on a small shared machine make the timing gates (c05) noisy.  It must be set
# before NumPy loads, and neither pytest nor its plugins load NumPy first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from tvcm import LongitudinalDataset
from tvcm.basis import build_design

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def demo_csv() -> pathlib.Path:
    path = REPO_ROOT / "data" / "demo_longitudinal.csv"
    if not path.exists():
        pytest.skip("bundled demo CSV missing; run scripts/make_demo_data.py")
    return path


@functools.cache
def golden_script():
    """scripts/make_goldens.py as a module: the golden tests rerun its record builders."""
    path = REPO_ROOT / "scripts" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def forbid_qr(monkeypatch) -> None:
    """Make numpy.linalg.qr raise for the rest of the test: the code under test must not use it."""
    def refuse(*args, **kwargs):
        raise AssertionError("QR factorisation in a production fit")

    monkeypatch.setattr(np.linalg, "qr", refuse)


def single_subject(times, responses, subject_id="s0") -> LongitudinalDataset:
    """One-subject dataset with no covariates beyond the intercept."""
    times = np.asarray(times, dtype=float)
    return LongitudinalDataset((subject_id,), [times.size], times, responses,
                               np.empty((times.size, 0)))


def by_subject(data: LongitudinalDataset, values) -> list[np.ndarray]:
    """Split stacked per-row values into one block per subject."""
    return np.split(values, np.cumsum(data.counts)[:-1])


def exact_response_dataset(base: LongitudinalDataset, specs, alpha_star):
    """Copy of base whose responses equal the model curve exactly.

    Useful for noiseless recovery checks: y rows are the design rows times
    alpha_star, so the weighted fit must return alpha_star up to roundoff.
    """
    alpha_star = np.asarray(alpha_star, dtype=float)
    # per-block products keep the roundoff the acceptance gates print
    blocks = by_subject(base, build_design(base, specs).Z)
    fitted = np.concatenate([block @ alpha_star for block in blocks])
    return dataclasses.replace(base, responses=fitted)
