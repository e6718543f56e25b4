"""Regenerate tests/golden/crossval.json, the cross-validated AMSE of pinned runs.

Usage: python scripts/make_crossval_golden.py [OUT]; OUT defaults to
tests/golden/crossval.json in the repository.

Each record is one crossval_amse call on the bundled demo panel at degree 2
and seed 0, 5-fold and leave-one-out: radial with 2 knots per coefficient
under the wls and vb engines, and tpower with 3 knots under wls.  It keeps
the AMSE, or for radial with 3 knots, whose first fold is infeasible, the
SelectionError message.  tests/test_selection.py compares a fresh run of
every record against the file.
"""
from __future__ import annotations

import json
import os
import pathlib
import sys

# one BLAS thread, as the test suite runs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tvcm import ingest_csv  # noqa: E402
from tvcm.basis import make_spec  # noqa: E402
from tvcm.errors import SelectionError  # noqa: E402
from tvcm.selection import crossval_amse  # noqa: E402

DEGREE = 2
SEED = 0
# (family, knots per coefficient, engines); radial with 3 knots fails at fold 0
RUNS = (("radial", 2, ("wls", "vb")), ("tpower", 3, ("wls",)), ("radial", 3, ("wls",)))


def crossval_records() -> dict:
    """{"family-k<knots>/<folds>/<engine>": {"amse"} or {"error"}} for every pinned run."""
    data = ingest_csv(ROOT / "data" / "demo_longitudinal.csv")
    records = {}
    for family, knots, engines in RUNS:
        specs = tuple(make_spec(family, DEGREE, knots, data.time_domain, times=data.times)
                      for _ in range(data.covariate_dim + 1))
        for folds, label in ((5, "5"), (data.n_obs, "loo")):
            for engine in engines:
                try:
                    record = {"amse": crossval_amse(data, specs, folds, rng=SEED, engine=engine)}
                except SelectionError as exc:
                    record = {"error": str(exc)}
                records[f"{family}-k{knots}/{label}/{engine}"] = record
    return records


def main(out=None) -> None:
    path = pathlib.Path(out) if out else ROOT / "tests" / "golden" / "crossval.json"
    lines = [f" {json.dumps(key)}: {json.dumps(record)}" for key, record in crossval_records().items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(*sys.argv[1:2])
