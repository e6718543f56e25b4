"""Regenerate tests/golden/artifacts.json, numeric fingerprints of pinned CLI runs.

Usage: python scripts/make_artifact_golden.py [OUT]; OUT defaults to
tests/golden/artifacts.json in the repository.

Each run is one in-process tvcm command at seed 0: fit on the bundled demo
panel under wls (--knots auto --boot 200), gibbs (--family tpower --knots 4
--draws 500 --burnin 100) and vb (--knots auto), and one simulate cell of
scenario 1 and of scenario 2 (20 subjects, one replicate, the three engines
and both families, --kmax 3 --draws 200 --burnin 50).  Every artifact a run
writes gets one flat record.  A CSV records count, sum, sum of squares, min
and max of each column whose cells all parse as numbers.  A JSON file
records every number, boolean and null by its key path.  Wall-clock fields
(timings, sampling_seconds, millis, mean_millis) and environment fields
(cpu_count, blas_threads) are left out; strings, paths among them, are not
recorded.  tests/test_cli.py compares a fresh run of every record against
the file.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pathlib
import sys
import tempfile

# one BLAS thread, as the test suite runs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tvcm import cli  # noqa: E402

SEED = 0
FIT = ("fit", "--data", str(ROOT / "data" / "demo_longitudinal.csv"))
SIMULATE = ("simulate", "--n", "20", "--reps", "1", "--engines", "wls,gibbs,vb",
            "--families", "radial,tpower", "--kmax", "3", "--draws", "200", "--burnin", "50")
# run name -> argv without --seed and the output flag
RUNS = {
    "fit-wls": (*FIT, "--engine", "wls", "--knots", "auto", "--boot", "200"),
    "fit-gibbs": (*FIT, "--engine", "gibbs", "--family", "tpower", "--knots", "4",
                  "--draws", "500", "--burnin", "100"),
    "fit-vb": (*FIT, "--engine", "vb", "--knots", "auto"),
    "simulate-1": (*SIMULATE, "--scenario", "1"),
    "simulate-2": (*SIMULATE, "--scenario", "2"),
}
UNRECORDED = {"timings", "sampling_seconds", "millis", "mean_millis", "cpu_count", "blas_threads"}


def csv_fingerprint(path) -> dict:
    """{"column.stat": value} for each all-numeric column of the CSV at path."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    record = {}
    for name, cells in zip(header, zip(*rows)):
        if name in UNRECORDED:
            continue
        try:
            col = np.array(cells, dtype=float)
        except ValueError:  # text, or empty cells
            continue
        stats = {"count": col.size, "sum": float(col.sum()), "sum_sq": float(col @ col),
                 "min": float(col.min()), "max": float(col.max())}
        record.update({f"{name}.{stat}": value for stat, value in stats.items()})
    return record


def json_numbers(value, key="") -> dict:
    """{"key.path": leaf} for every non-string leaf of a parsed JSON value."""
    if isinstance(value, dict):
        items = ((k, v) for k, v in value.items() if k not in UNRECORDED)
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {} if isinstance(value, str) else {key: value}
    record = {}
    for k, v in items:
        record.update(json_numbers(v, f"{key}.{k}" if key else str(k)))
    return record


def artifact_records(work) -> dict:
    """{"run/artifact": record} for every artifact of every run, written under work."""
    records = {}
    for name, argv in RUNS.items():
        out = os.path.join(work, name)
        output = ("--out-prefix", os.path.join(out, "sim")) if argv[0] == "simulate" else ("--out", out)
        os.makedirs(out, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main([*argv, "--seed", str(SEED), *output]) != 0:
                raise RuntimeError(f"{name} failed")
        for artifact in sorted(os.listdir(out)):
            path = os.path.join(out, artifact)
            if artifact.endswith(".csv"):
                records[f"{name}/{artifact}"] = csv_fingerprint(path)
            else:
                with open(path) as fh:
                    records[f"{name}/{artifact}"] = json_numbers(json.load(fh))
    return records


def main(out=None) -> None:
    path = pathlib.Path(out) if out else ROOT / "tests" / "golden" / "artifacts.json"
    with tempfile.TemporaryDirectory() as work:
        records = artifact_records(work)
    lines = [f" {json.dumps(key)}: {json.dumps(record)}" for key, record in records.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(*sys.argv[1:2])
