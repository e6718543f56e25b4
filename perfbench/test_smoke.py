"""Smoke self-test of the benchmark; it makes no timing assertions.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at tiny sizes, untraced and traced, and its result line
must have the contract's keys, the metric names and units of BENCHMARK.json,
and no failed op.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "simulate-small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(6, 100, 6), (10, 100, 10), (11, 9, 1), (20, 50, 10), (47, 78, 37), (100, 90, 90)],
)
def test_tail_leaves_ten_ops_beyond(n, percentile, rank):
    times = [float(i) for i in range(1, n + 1)]
    assert run._tail(times) == (float(rank), percentile)


def test_missing_target_is_absent_and_bindings_restored(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import tvcm.bootstrap
    import tvcm.engines

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("tvcm.bootstrap", "no_such_function", "x", None),))
    original = tvcm.engines.bootstrap_fit
    t = tracer.Tracer()
    t.install(1)
    assert tvcm.engines.bootstrap_fit is not original
    assert tvcm.bootstrap.bootstrap_fit is tvcm.engines.bootstrap_fit
    t.uninstall()
    assert tvcm.engines.bootstrap_fit is original
    assert t.absent == ["tvcm.bootstrap.no_such_function"]
