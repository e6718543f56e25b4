"""Regenerate tests/golden/selection.json, the knots each pinned search selects.

Usage: python scripts/make_selection_golden.py [OUT]; OUT defaults to
tests/golden/selection.json in the repository.

Each record is one knot search at degree 2 and k_max 5, radial and tpower,
full and coordinate, on the bundled demo panel in weeks and in years
(times / 52) and on scenario 1 (50 subjects) and scenario 2 (100 subjects)
at seeds 1-3.  It keeps the selected knot counts, the number of scored
candidates and how many of them were infeasible.  tests/test_selection.py
compares a fresh run of every search against the file.
"""
from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tvcm import gen_scenario1, gen_scenario2, ingest_csv  # noqa: E402
from tvcm.selection import knot_search  # noqa: E402

K_MAX = 5
WEEKS_PER_YEAR = 52.0


def panels():
    """(name, dataset) for every pinned panel."""
    weeks = ingest_csv(ROOT / "data" / "demo_longitudinal.csv")
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
                best, table = knot_search(data, family, 2, K_MAX, strategy)
                records[f"{name}/{family}/{strategy}"] = {
                    "selected": list(best),
                    "candidates": len(table),
                    "infeasible": sum(not np.isfinite(row["pcv"]) for row in table),
                }
    return records


def main(out=None) -> None:
    path = pathlib.Path(out) if out else ROOT / "tests" / "golden" / "selection.json"
    lines = [f" {json.dumps(key)}: {json.dumps(record)}" for key, record in selection_records().items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(*sys.argv[1:2])
