"""Seeded benchmark of the tvcm command line.

    python3 perfbench/run.py --workload fit-wls-auto --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: tvcm is imported from ./src and
nowhere else.  Each op is one in-process ``tvcm.cli.main(argv)`` call on
inputs generated from ``--seed``; its artifacts are checked after the timed
region.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics.  Timings are scaled to a reference machine speed by a
calibration kernel that runs between ops (see ``_calibrate``).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Details of each run (run
metadata, op times, layer shares and spans) go to perfbench/_work/.
``--workload all`` runs every workload, each in its own process, and prints
one table.  See perfbench/README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The designs have at most 21 columns.  With two OpenBLAS threads on a 2-vCPU
# machine, a fit-wls-auto op took 4.8-6.0 s against 0.9-1.3 s with one, and
# varied with the neighbours' load, so every run uses one BLAS thread.
BLAS_THREADS = "1"
# set-up is measured this many times per run: this process and fresh child processes
SETUP_SAMPLES = 3
# a traced run needs at least one untraced and one traced op
MIN_OPS = 2
PROBE_TIMEOUT_S = 120
# The calibration kernel: a pure-Python loop and small dense linear algebra,
# the two kinds of work a tvcm op does.  On a vCPU of the 2-vCPU reference
# machine it took 0.08-0.12 s, depending on the vCPU's speed at the time.
CAL_LOOP = 600_000
CAL_LINALG = 400
REFERENCE_CAL_S = 0.1
TAIL_BEYOND = 10
WORKLOADS = ("fit-wls-auto", "fit-gibbs-large", "simulate-small")
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def _import_tvcm():
    """tvcm from this checkout's src/; exits nonzero without a result if it is missing."""
    if not (SRC / "tvcm" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'tvcm'} not found; run from a tvcm source checkout")
    sys.path.insert(0, str(SRC))
    import tvcm
    import tvcm.cli

    if Path(tvcm.__file__).resolve().parent != SRC / "tvcm":
        sys.exit(f"perfbench: imported tvcm from {tvcm.__file__}, not from {SRC}")
    return tvcm


def _run_op(cli, op):
    """One in-process CLI call; returns (start, end, exit code or error, captured output)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing op counts as failed; the run goes on
        code = f"{type(exc).__name__}: {exc}"
    return start, time.perf_counter(), code, out.getvalue()


def _calibrate() -> float:
    """Seconds the calibration kernel takes now; its work never changes.

    The reference machine's vCPUs switch between speeds about 1.45x apart and
    drift over tens of minutes, and the kernel slows with them.  A time
    multiplied by REFERENCE_CAL_S / (kernel time measured next to it) is the
    time at the reference speed.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    matrix = np.random.default_rng(0).standard_normal((400, 20))
    for _ in range(CAL_LINALG):
        np.linalg.qr(matrix)
        matrix.T @ matrix
    return time.perf_counter() - start


def _bytes_written(argv) -> int:
    """Summed size of the artifacts named by --out (a directory) or --out-prefix."""
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        return sum(f.stat().st_size for f in out.iterdir())
    prefix = Path(argv[argv.index("--out-prefix") + 1])
    return sum(f.stat().st_size for f in prefix.parent.glob(prefix.name + "_*"))


def _tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND ops above it (nearest rank).

    With too few ops for any such percentile, the maximum (percentile 100).
    """
    ordered = sorted(times)
    n = len(ordered)
    pct = (100 * (n - TAIL_BEYOND)) // n
    if pct < 1:
        return ordered[-1], 100
    rank = -(-pct * n // 100)
    return ordered[rank - 1], pct


def _warm_up(workload, seed, work, cli) -> None:
    """One untimed op on a small panel of its own; exits nonzero if it fails."""
    op = workload.prepare(seed, 0, str(work))
    _, _, code, output = _run_op(cli, op)
    if code != 0:
        sys.exit(f"perfbench: warm-up op failed with {code}: {output[-500:]}")


def _setup_probes(args) -> list[dict]:
    """Set-up samples of fresh processes doing this run's set-up and nothing else."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        argv.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _metadata(args, tvcm) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tvcm": tvcm.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "compiled_gibbs_kernel": importlib.util.find_spec("tvcm._gibbs_kernel") is not None,
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def _measure_window(args, tvcm, workload, work, setup_samples) -> tuple[dict, dict]:
    """Closed loop of ops for --seconds; returns the result line and the run's details."""
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    untraced, traced, problems = [], [], {}
    # cal_s[i] is measured after op i, cal_s[0] before op 1; an untraced op is
    # scaled by the mean of the two measurements on either side of it
    cal_s = [min(_calibrate(), _calibrate())]
    untraced_index = []
    index = 0
    window_start = time.perf_counter()
    while index < MIN_OPS or time.perf_counter() - window_start < args.seconds:
        index += 1
        op = workload.prepare(args.seed, index, str(work))
        use_trace = tracer is not None and index % 2 == 0
        if use_trace:
            tracer.install(index)
        try:
            start, end, code, output = _run_op(tvcm.cli, op)
        finally:
            if use_trace:
                tracer.uninstall()
        if code == 0:
            (traced if use_trace else untraced).append(end - start)
            if not use_trace:
                untraced_index.append(index)
            found = op.check()
            if use_trace:
                tracer.record_op(start, end, _bytes_written(op.argv))
        else:
            found = [f"exit {code}: {output.strip()[-300:]}"]
            if use_trace:
                tracer.discard_op()
        if found:
            problems[index] = found
        shutil.rmtree(work)
        work.mkdir()
        cal_s.append(_calibrate())

    scaled = [wall * 2 * REFERENCE_CAL_S / (cal_s[i - 1] + cal_s[i]) for wall, i in zip(untraced, untraced_index)]
    attempted = index
    details = {
        "metadata": _metadata(args, tvcm),
        "attempted": attempted,
        "failed": len(problems),
        "failed_frac": len(problems) / attempted,
        "problems": {str(k): v for k, v in problems.items()},
        "setup_samples": setup_samples,
        "cal_s": cal_s,
        "op_wall_s": untraced,
        "op_s": scaled,
    }
    if tracer is None:
        tail, pct = _tail(scaled)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
            "op_s.p50": statistics.median(scaled),
            "op_s.tail": tail,
            "ops_per_s": len(scaled) / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        details.update(tail_percentile=pct, tail_ops=len(scaled))
    else:
        metrics, shares = layer_metrics(tracer.spans, untraced)
        units = _layer_units()
        details.update(traced_op_s=traced, shares=shares, trace_absent=tracer.absent)
        spans_path = WORK / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as fh:
            for record in tracer.to_records():
                fh.write(json.dumps(record) + "\n")
    details["metrics"] = metrics
    with open(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, details


def _layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _print_table(name, result, details) -> None:
    print(f"== {name}: {details['attempted']} ops, {details['failed']} failed "
          f"(failed_frac {details['failed_frac']:.3g})")
    for metric, entry in result["metrics"].items():
        note = ""
        if metric == "op_s.tail":
            note = f"  (p{details['tail_percentile']} of {details['tail_ops']} ops)"
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}{note}")
    if details["op_wall_s"]:
        print(f"  unscaled: op wall p50 {statistics.median(details['op_wall_s']):.4g} s, "
              f"set-up {statistics.median(s['setup_wall_s'] for s in details['setup_samples']):.4g} s, "
              f"calibration p50 {statistics.median(details['cal_s']):.4g} s (reference {REFERENCE_CAL_S} s)")
    for layer, share in details.get("shares", {}).items():
        print(f"  share of op time: {layer:<18} {share:8.1%}")
    for op, found in details["problems"].items():
        print(f"  op {op} failed its check: {'; '.join(found)}")


def run_all(args) -> None:
    """Every workload in its own process, one table per workload."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S + 300)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.returncode == 0 else proc.stderr)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    print(json.dumps(results))
    if not all(results.values()):
        sys.exit(1)


def main(argv=None) -> None:
    args = _parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return
    _pin_blas_threads()
    tvcm = _import_tvcm()
    import workloads

    workload = workloads.make(args.workload, args.smoke)
    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"tmp-{os.getpid()}"
    work.mkdir()
    try:
        _warm_up(workload, args.seed, work, tvcm.cli)
        setup_wall_s = time.perf_counter() - START
        # the first call pays for lazy loading; the minimum skips it
        cal = min(_calibrate(), _calibrate())
        setup = {"setup_s": setup_wall_s * REFERENCE_CAL_S / cal, "setup_wall_s": setup_wall_s, "cal_s": cal}
        if args.setup_probe:
            print(json.dumps(setup))
            return
        setup_samples = [setup] + _setup_probes(args)
        result, details = _measure_window(args, tvcm, workload, work, setup_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_table(args.workload, result, details)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
