"""Regenerate the seeded-output goldens: selection.json, crossval.json and artifacts.json.

Usage: python scripts/make_goldens.py [OUT_DIR]; OUT_DIR defaults to
tests/golden in the repository.  The script writes all three files, each
one record per line, at one BLAS thread as the test suite runs.  The tests
rerun the record builders below in process and compare against the files.

python scripts/make_goldens.py --headroom writes nothing.  It reruns the
builders as the tests do and prints the BLAS thread count and NumPy version
it ran under, then, for each record of the committed
goldens, the entry nearest its tolerance: its relative drift and that drift
as a share of the test's tolerance.  A share of 100% or more fails the test;
inf marks a changed key set or a non-float entry that differs.

- selection.json: one knot search at degree 2 and k_max 5, radial and
  tpower, full and coordinate, on the bundled demo panel in weeks and in
  years (times / 52) and on scenario 1 (50 subjects) and scenario 2 (100
  subjects) at seeds 1-3.  It keeps the selected knot counts, the number of
  scored candidates and how many of them were infeasible.
  tests/test_selection.py checks the knots exactly.
- crossval.json: one crossval_amse call on the demo panel at degree 2 and
  seed 0, 5-fold and leave-one-out: radial with 2 knots per coefficient
  under the wls and vb engines, and tpower with 3 knots under wls; and
  5-fold only, at 500 draws, radial with 2 knots and tpower with 3 under
  gibbs.  It keeps the AMSE, or for radial with 3 knots, whose first fold
  is infeasible, the SelectionError message.  The file is written from the per-fold rebuild,
  per_fold_crossval in tests/oracles.py, and tests/test_selection.py checks
  crossval_amse against it within 1e-10 relative.
- artifacts.json: one in-process tvcm command at seed 0 per run: fit on the
  demo panel under wls (--knots auto --boot 200), gibbs (--family tpower
  --knots 4 --draws 500 --burnin 100) and vb (--knots auto); select
  (--kmax 3) and crossval (wls, 5 folds, --knots 2) on the demo panel; and
  one simulate cell of scenario 1 and of scenario 2 (20 subjects, one
  replicate, the three engines and both families, --kmax 3 --draws 200
  --burnin 50).  Every artifact a run writes gets one flat record.  A CSV
  records count, sum, sum of squares, min and max of each column whose
  cells all parse as numbers.  A JSON file records every number, boolean
  and null by its key path.  Wall-clock fields (timings, sampling_seconds,
  millis, mean_millis), fit.json's per-stage minor_faults and environment
  fields (cpu_count, blas_threads) are left out; strings, paths among them,
  are not recorded.
  tests/test_cli.py checks floats within 1e-9 relative.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
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
# the package, and tests/ for the cross-validation oracle
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import per_fold_crossval  # noqa: E402
from tvcm import cli, gen_scenario1, gen_scenario2, ingest_csv  # noqa: E402
from tvcm.basis import make_spec  # noqa: E402
from tvcm.errors import SelectionError  # noqa: E402
from tvcm.selection import crossval_amse, knot_search  # noqa: E402

DEMO = ROOT / "data" / "demo_longitudinal.csv"
SEED = 0
DEGREE = 2

# --- selection.json ---------------------------------------------------------

K_MAX = 5
WEEKS_PER_YEAR = 52.0


def panels():
    """(name, dataset) for every pinned panel."""
    weeks = ingest_csv(DEMO)
    lo, hi = weeks.time_domain
    yield "demo-weeks", weeks
    yield "demo-years", dataclasses.replace(
        weeks, times=weeks.times / WEEKS_PER_YEAR,
        time_domain=(lo / WEEKS_PER_YEAR, hi / WEEKS_PER_YEAR))
    for seed in (1, 2, 3):
        yield f"scenario1-seed{seed}", gen_scenario1(50, np.random.default_rng(seed))[0]
    for seed in (1, 2, 3):
        yield f"scenario2-seed{seed}", gen_scenario2(100, np.random.default_rng(seed))[0]


def selection_records() -> dict:
    """{"panel/family/strategy": {"selected", "candidates", "infeasible"}} for every search."""
    records = {}
    for name, data in panels():
        for family in ("radial", "tpower"):
            for strategy in ("full", "coordinate"):
                best, table = knot_search(data, family, DEGREE, K_MAX, strategy)
                records[f"{name}/{family}/{strategy}"] = {
                    "selected": list(best),
                    "candidates": len(table),
                    "infeasible": sum(not np.isfinite(row["pcv"]) for row in table),
                }
    return records


# --- crossval.json ----------------------------------------------------------

# (family, knots per coefficient, engines); radial with 3 knots fails at fold 0
CROSSVAL_RUNS = (("radial", 2, ("wls", "vb")), ("tpower", 3, ("wls",)), ("radial", 3, ("wls",)),
                 ("radial", 2, ("gibbs",)), ("tpower", 3, ("gibbs",)))
# gibbs runs 5-fold only, at these draws (leave-one-out would run a chain per row)
GIBBS_DRAWS = 500


def crossval_records(amse=crossval_amse) -> dict:
    """{"family-k<knots>/<folds>/<engine>": {"amse"} or {"error"}} for every pinned run of amse."""
    data = ingest_csv(DEMO)
    records = {}
    for family, knots, engines in CROSSVAL_RUNS:
        specs = tuple(make_spec(family, DEGREE, knots, data.time_domain, times=data.times)
                      for _ in range(data.covariate_dim + 1))
        for folds, label in ((5, "5"), (data.n_obs, "loo")):
            for engine in engines:
                if engine == "gibbs" and label == "loo":
                    continue
                draws = GIBBS_DRAWS if engine == "gibbs" else 0
                try:
                    record = {"amse": amse(data, specs, folds, rng=SEED, engine=engine, draws=draws)}
                except SelectionError as exc:
                    record = {"error": str(exc)}
                records[f"{family}-k{knots}/{label}/{engine}"] = record
    return records


# --- artifacts.json ---------------------------------------------------------

FIT = ("fit", "--data", str(DEMO))
SIMULATE = ("simulate", "--n", "20", "--reps", "1", "--engines", "wls,gibbs,vb",
            "--families", "radial,tpower", "--kmax", "3", "--draws", "200", "--burnin", "50")
# run name -> argv without --seed and the output flag
ARTIFACT_RUNS = {
    "fit-wls": (*FIT, "--engine", "wls", "--knots", "auto", "--boot", "200"),
    "fit-gibbs": (*FIT, "--engine", "gibbs", "--family", "tpower", "--knots", "4",
                  "--draws", "500", "--burnin", "100"),
    "fit-vb": (*FIT, "--engine", "vb", "--knots", "auto"),
    "select": ("select", "--data", str(DEMO), "--kmax", "3"),
    "crossval-wls": ("crossval", "--data", str(DEMO), "--engine", "wls", "--folds", "5", "--knots", "2"),
    "simulate-1": (*SIMULATE, "--scenario", "1"),
    "simulate-2": (*SIMULATE, "--scenario", "2"),
}
# command -> its output flag and the file it names in the run's directory; fit names the directory
OUTPUTS = {"fit": ("--out", None), "simulate": ("--out-prefix", "sim"),
           "select": ("--out", "select.json"), "crossval": ("--out", "crossval.json")}
UNRECORDED = {"timings", "minor_faults", "sampling_seconds", "millis", "mean_millis", "cpu_count", "blas_threads"}


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
    for name, argv in ARTIFACT_RUNS.items():
        out = os.path.join(work, name)
        flag, leaf = OUTPUTS[argv[0]]
        os.makedirs(out, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main([*argv, "--seed", str(SEED), flag, os.path.join(out, leaf) if leaf else out]) != 0:
                raise RuntimeError(f"{name} failed")
        for artifact in sorted(os.listdir(out)):
            path = os.path.join(out, artifact)
            if artifact.endswith(".csv"):
                records[f"{name}/{artifact}"] = csv_fingerprint(path)
            else:
                with open(path) as fh:
                    records[f"{name}/{artifact}"] = json_numbers(json.load(fh))
    return records


def write(path, records: dict) -> None:
    """One JSON object, one record per line."""
    lines = [f" {json.dumps(key)}: {json.dumps(record)}" for key, record in records.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


# golden file -> (relative, absolute) float tolerance of its test; selection is exact
TOLERANCES = {"selection.json": (0.0, 0.0), "crossval.json": (1e-10, 0.0), "artifacts.json": (1e-9, 1e-12)}


def worst_drift(got: dict, want: dict, rel: float, abs_tol: float) -> tuple[str, float, float]:
    """(key, relative drift, share of the tolerance) of the entry of got nearest its tolerance about want."""
    if got.keys() != want.keys():
        return "<keys>", np.inf, np.inf
    worst = ("", 0.0, 0.0)
    for key, value in want.items():
        mine = got[key]
        floats = isinstance(value, float) and isinstance(mine, float)
        if type(mine) is type(value) and mine == value or floats and np.isnan(mine) and np.isnan(value):
            drift = share = 0.0
        elif floats and np.isfinite(mine - value):
            diff, tol = abs(mine - value), max(rel * abs(value), abs_tol)
            drift = diff / abs(value) if value else diff
            share = diff / tol if tol else np.inf
        else:  # a NaN or inf that moved, or a non-float that changed
            drift = share = np.inf
        if (share, drift) > (worst[2], worst[1]):
            worst = (key, drift, share)
    return worst


def headroom() -> None:
    """Print each committed record's largest drift from a rerun of its builder; write nothing.

    The first line names the BLAS thread count and the NumPy version of the rerun.
    """
    print(f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} numpy {np.__version__}")
    with tempfile.TemporaryDirectory() as work:
        rerun = {"selection.json": selection_records(), "crossval.json": crossval_records(),
                 "artifacts.json": artifact_records(work)}
    print(f"{'golden':<15} {'record':<40} {'drift':>9} {'share':>9}  entry")
    for name, got in rerun.items():
        want = json.loads((ROOT / "tests" / "golden" / name).read_text())
        for record in [*want, *(k for k in got if k not in want)]:
            key, drift, share = worst_drift(got.get(record, {}), want.get(record, {}), *TOLERANCES[name])
            print(f"{name:<15} {record:<40} {drift:9.2e} {share:9.2%}  {key}")


def main(out_dir=None) -> None:
    out = pathlib.Path(out_dir) if out_dir else ROOT / "tests" / "golden"
    write(out / "selection.json", selection_records())
    write(out / "crossval.json", crossval_records(per_fold_crossval))
    with tempfile.TemporaryDirectory() as work:
        write(out / "artifacts.json", artifact_records(work))


if __name__ == "__main__":
    if sys.argv[1:] == ["--headroom"]:
        headroom()
    else:
        main(*sys.argv[1:2])
