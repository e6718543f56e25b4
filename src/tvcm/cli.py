"""Command line interface.

Subcommands: fit, select, simulate, crossval.  Each option declares its
default once, on its flag in build_parser; fit, select and crossval share one
parent parser for the model options.  fit's --placement and --bandwidth shape
both its knot search and its fitted basis.  Every option can come from a JSON
config file (--config) whose keys are the command's own flags; explicit flags
win over config values, which win over the defaults.  The master seed
resolves from --seed, then the config, then the TVCM_SEED environment
variable, then 0.  Any handled failure prints a one-line JSON error object
and exits nonzero.  Every number a JSON artifact holds is finite, save an
infeasible candidate's pcv in select.json, written as null: a payload with a
nan or inf raises NumericalError naming the file, which is left unwritten.
fit serialises fit.json and draws_summary.json before it opens any file, so
such a refusal leaves no fit artifact at all.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import resource
import sys
import time

import numpy as np

from . import __version__
from .basis import BasisFamily, basis_matrix, make_spec, split_alpha
from .bootstrap import central_quantiles
from .data import ingest_csv
from .engines import ENGINES, fit_engine
from .errors import KnotError, NumericalError, TvcmError
from .mcmc import DEFAULT_BURNIN, DEFAULT_DRAWS, dic_from_stats
from .selection import crossval_amse, knot_search
from .simgen import run_replications
from .vb import DEFAULT_TOL

FAMILIES = tuple(f.value for f in BasisFamily)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvcm", description="Time-varying coefficient model fitting and study tools"
    )
    parser.add_argument("--version", action="version", version=f"tvcm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying any of the other options")
    common.add_argument("--seed", type=int, help="master RNG seed (default: $TVCM_SEED or 0)")

    model = argparse.ArgumentParser(add_help=False, parents=[common])
    model.add_argument("--data", help="input CSV: subject,time,y,x1,...,xd")
    model.add_argument("--family", choices=FAMILIES, default="radial")
    model.add_argument("--degree", type=int, default=2)
    model.add_argument("--kmax", type=int, default=10, help="largest knot count tried by --knots auto")
    model.add_argument("--strategy", choices=["auto", "full", "coordinate"], default="auto")
    model.add_argument("--time-domain", help="a,b override for the time domain")

    fit = sub.add_parser("fit", parents=[model], help="fit one dataset and write artifacts")
    fit.add_argument("--knots", default="auto", help="'auto', a single count, or comma counts per coefficient")
    fit.add_argument("--placement", choices=["equal", "quantile"], default="equal")
    fit.add_argument("--bandwidth", type=float, help="radial kernel bandwidth override")
    fit.add_argument("--engine", choices=ENGINES, default="gibbs")
    fit.add_argument("--draws", type=int, default=DEFAULT_DRAWS, help="posterior draws (gibbs/vb)")
    fit.add_argument("--burnin", type=int, default=DEFAULT_BURNIN)
    fit.add_argument("--boot", type=int, default=0, help="bootstrap replicates when engine=wls")
    fit.add_argument("--tol", type=float, default=DEFAULT_TOL, help="variational convergence tolerance")
    fit.add_argument("--level", type=float, default=0.95, help="interval level for curves.csv")
    fit.add_argument("--grid", type=int, default=200, help="curve grid size")
    fit.add_argument("--out", default=".", help="output directory")

    sel = sub.add_parser("select", parents=[model], help="knot selection table for one dataset")
    sel.add_argument("--out", default="select.json")

    sim = sub.add_parser("simulate", parents=[common], help="replication study on synthetic data")
    sim.add_argument("--scenario", type=int, choices=[1, 2], default=1)
    sim.add_argument("--n", type=int, default=25, help="subjects per replication")
    sim.add_argument("--reps", type=int, default=50)
    sim.add_argument("--engines", default="wls", help="comma list from wls,gibbs,vb")
    sim.add_argument("--families", default="radial,tpower", help="comma list from radial,tpower")
    sim.add_argument("--degree", type=int, default=2)
    sim.add_argument("--kmax", type=int, default=5)
    sim.add_argument("--draws", type=int, default=0)
    sim.add_argument("--burnin", type=int, default=DEFAULT_BURNIN)
    sim.add_argument("--level", choices=["weak", "medium", "high"], default="weak")
    sim.add_argument("--shape", choices=["exp", "trig"], default="exp")
    sim.add_argument("--strategy", choices=["auto", "full", "coordinate"], default="auto")
    sim.add_argument("--out-prefix", default="sim")

    cv = sub.add_parser("crossval", parents=[model], help="fold-based predictive error")
    cv.add_argument("--knots", default="auto", help="'auto', a single count, or comma counts per coefficient")
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--engine", choices=ENGINES, default="wls")
    cv.add_argument("--draws", type=int, default=0,
                    help="posterior draws per fold (gibbs only; wls and vb draw nothing)")
    cv.add_argument("--burnin", type=int, default=DEFAULT_BURNIN)
    cv.add_argument("--out", default="crossval.json")
    return parser


_parser = functools.cache(build_parser)  # main's one parser, built on first use


def _check_config_value(action, value, config) -> None:
    """Raise unless the flag could give value: its int or float type (never a bool), its choices."""
    kinds = {int: int, float: (int, float)}.get(action.type)
    if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
        expected = "an integer" if action.type is int else "a number"
    elif action.choices and value not in action.choices:
        expected = "one of " + ", ".join(map(str, action.choices))
    else:
        return
    raise ValueError(f"{action.option_strings[0]} must be {expected}, got {value!r} from --config {config}")


def _resolve(args: argparse.Namespace, argv: list) -> dict:
    """Layer defaults < config file < explicit flags; config values must suit their flags.

    The config values pre-fill the namespace the subcommand parser re-reads
    argv into; argparse sets a default only where the namespace has no value.
    """
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices[args.command]
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    prefill = {}
    for key, value in config.items():
        key = key.replace("-", "_")
        if key not in actions:
            raise ValueError(f"unknown config key {key!r} for command {args.command!r}")
        # seed has its own rules below, and null may stand for a null default
        if key != "seed" and not (value is None and actions[key].default is None):
            _check_config_value(actions[key], value, args.config)
        prefill[key] = value
    opts = vars(parser.parse_args(argv[1:], argparse.Namespace(**prefill)))
    del opts["config"]
    seed = opts["seed"]
    source = f"--config {args.config}"
    if seed is None:
        seed, source = os.environ.get("TVCM_SEED", "0"), "TVCM_SEED"
    if isinstance(seed, (bool, float)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    try:
        opts["seed"] = int(seed)
    except (TypeError, ValueError):
        raise ValueError(f"seed must be an integer, got {seed!r} from {source}") from None
    return opts


def _parse_domain(value):
    if value in (None, ""):
        return None
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        a, b = (float(v) for v in parts)
    except (TypeError, ValueError):
        raise ValueError(f"--time-domain must be two numbers a,b, got {value!r}") from None
    if not np.isfinite([a, b]).all():
        raise ValueError(f"--time-domain bounds must be finite, got {value!r}")
    return a, b


def _ingest(opts, command):
    """The panel named by the shared --data and --time-domain options."""
    if not opts.get("data"):
        raise ValueError(f"{command} requires --data")
    return ingest_csv(opts["data"], time_domain=_parse_domain(opts["time_domain"]))


def _basis(data, opts):
    """Knot counts from --knots (searched when 'auto'), their specs, and the search table or None.

    The search and the specs take the same make_spec placement and bandwidth;
    only fit exposes them, so the other commands get make_spec's defaults.
    """
    family, degree, raw = opts["family"], opts["degree"], str(opts["knots"]).strip()
    options = {key: opts[key] for key in ("placement", "bandwidth") if key in opts}
    n_coef, table = data.covariate_dim + 1, None
    if raw == "auto":
        counts, table = knot_search(data, family, degree, opts["kmax"], opts["strategy"], **options)
    else:
        try:
            counts = tuple(int(v) for v in raw.split(","))
            if min(counts) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"--knots must be 'auto' or non-negative counts, got {opts['knots']!r}"
            ) from None
        if len(counts) == 1:
            counts *= n_coef
        if len(counts) != n_coef:
            raise ValueError(f"--knots lists {len(counts)} counts for {n_coef} coefficients")
    specs = tuple(
        make_spec(family, degree, k, data.time_domain, times=data.times, **options) for k in counts
    )
    return counts, specs, table


def _json_text(path, payload) -> str:
    """payload as the text of a JSON file; a nan or inf raises NumericalError naming path."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from None


def _write_json(path, payload) -> None:
    """Write payload as JSON; a nan or inf raises NumericalError naming path before the file opens."""
    text = _json_text(path, payload)
    with open(path, "w") as fh:
        fh.write(text)


def _manifest(command, opts, artifacts) -> dict:
    return {
        "command": command,
        "package": "tvcm",
        "version": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v)  # null when unset
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "options": dict(sorted(opts.items())),
        "artifacts": artifacts,
    }


def _check_at_least(opts, **lows) -> None:
    """Raise, naming the option, unless each named count option is at least its lower bound."""
    for name, low in lows.items():
        if opts[name] < low:
            bound = "non-negative" if low == 0 else f"at least {low}"
            note = " (0 means the engine default)" if name == "draws" else ""
            raise ValueError(f"--{name} must be {bound}{note}, got {opts[name]}")


def _comma_list(opts, name, allowed) -> tuple:
    """The values of a comma-list option, each one of allowed and none repeated."""
    values = tuple(str(opts[name]).split(","))
    if not set(values) <= set(allowed):
        raise ValueError(f"--{name} must be a comma list from {','.join(allowed)}, got {opts[name]!r}")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"--{name} lists {repeated[0]} more than once, got {opts[name]!r}")
    return values


def _write_curves(path, grid, curves) -> None:
    """curves.csv: a row per coefficient r and grid time, from its (estimate, lower, upper).

    Each coefficient's rows are whole columns mapped through one template,
    whose t column is the grid's reprs, made once per file; lower and upper
    are None without draws and leave their cells empty.
    """
    times = list(map(repr, grid.tolist()))
    with open(path, "w") as fh:
        fh.write("coefficient,t,estimate,lower,upper\n")
        for r, (est, lo, hi) in enumerate(curves):
            if lo is None:
                row, columns = f"{r},%s,%r,,\n", (times, est.tolist())
            else:
                row, columns = f"{r},%s,%r,%r,%r\n", (times, est.tolist(), lo.tolist(), hi.tolist())
            fh.write("".join(map(row.__mod__, zip(*columns))))


def _check_out_dir(path) -> None:
    """Raise, naming --out, unless path is a directory or can be made one with its missing parents."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not path or not os.path.isdir(head):
        raise ValueError(f"--out {path!r} is not a directory and cannot be made one")


def _check_out_file(flag, path) -> None:
    """Raise, naming flag, unless path names a file in an existing directory."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"{flag} {path!r}: directory {folder!r} does not exist")
    if not os.path.basename(path) or os.path.isdir(path):
        raise ValueError(f"{flag} {path!r} does not name a file")


def _intervals(specs, result, grid, level):
    """Each coefficient's (estimate, lower, upper) on grid, and the draws' summary.

    lower and upper are None, and so is the summary, without draws.  Every
    coefficient's (grid, draws) bands go into one buffer, and each grid
    point's row of it is sorted in place.
    """
    dims = tuple(s.n_terms for s in specs)
    blocks = split_alpha(result.alpha, dims)
    if result.draws is None:
        return [(basis_matrix(spec, grid) @ b, None, None) for spec, b in zip(specs, blocks)], None
    curves = []
    bands = np.empty((grid.size, result.draws.n_draws))
    for spec, b, draws in zip(specs, blocks, split_alpha(result.draws.alpha_draws, dims)):
        bg = basis_matrix(spec, grid)
        np.matmul(bg, draws.T, out=bands)
        bands.sort(axis=1)
        curves.append((bg @ b, *central_quantiles(bands, level)))
    del bands  # freed before the summary makes its own copy
    return curves, result.draws.summary(level)


def _posterior_fields(result) -> dict:
    """fit.json's prior, DIC and (vb only) variational posterior of a gibbs or vb fit."""
    dic_value, p_dic = dic_from_stats(result.draws, result.stats)
    fields = {"prior": result.extra.get("prior"), "dic": {"dic": dic_value, "p_dic": p_dic}}
    if result.engine == "vb":
        fields["vb"] = {k: v for k, v in result.extra["posterior"].items() if k != "m_star"}
    return fields


def _write_fit_artifacts(out_dir, grid, curves, result, summary) -> list:
    """Write curves.csv and, with draws, draws.csv and draws_summary.json; return every artifact name.

    The summary is serialised before the first file opens, so a nan or inf in it writes no file.
    """
    summary_path = os.path.join(out_dir, "draws_summary.json")
    summary_text = None if summary is None else _json_text(summary_path, summary)
    os.makedirs(out_dir, exist_ok=True)
    _write_curves(os.path.join(out_dir, "curves.csv"), grid, curves)
    artifacts = ["fit.json", "curves.csv", "manifest.json"]
    if result.draws is not None:
        result.draws.to_csv(os.path.join(out_dir, "draws.csv"))
        with open(summary_path, "w") as fh:
            fh.write(summary_text)
        artifacts += ["draws.csv", "draws_summary.json"]
    return sorted(artifacts)


def _minor_faults() -> int:
    """Minor page faults this process has taken so far, from POSIX getrusage."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cmd_fit(opts) -> int:
    _check_at_least(opts, boot=0, draws=0, burnin=0, grid=1, degree=0, kmax=0)
    for name in ("tol", "bandwidth"):
        if opts[name] is not None and not 0 < opts[name] < np.inf:
            raise ValueError(f"--{name} must be positive and finite, got {opts[name]}")
    if opts["bandwidth"] is not None and opts["family"] == "tpower":
        raise ValueError(f"--bandwidth {opts['bandwidth']} given, but family 'tpower' takes none")
    if not 0 < opts["level"] < 1:
        raise ValueError(f"--level must be in (0, 1), got {opts['level']}")
    _check_out_dir(opts["out"])
    engine, level, out_dir = opts["engine"], opts["level"], opts["out"]
    # seconds and minor page faults per stage, in stage order; only fit.json's assembly goes unmeasured
    timings, faults = {}, {}

    def stage(name, run, *args, **kwargs):
        start, faulted = time.perf_counter(), _minor_faults()
        value = run(*args, **kwargs)
        timings[name] = time.perf_counter() - start
        faults[name] = _minor_faults() - faulted
        return value

    data = stage("ingest", _ingest, opts, "fit")
    counts, specs, table = stage("select", _basis, data, opts)
    if not data.time_domain[1] - data.time_domain[0] < np.inf:  # np.linspace would give nan and inf
        raise KnotError(f"time domain {data.time_domain} is too wide for a curve grid: b - a overflows")
    result = stage("fit", fit_engine, data, specs, engine, rng=opts["seed"],
                   draws=opts["boot"] if engine == "wls" else opts["draws"],
                   burnin=opts["burnin"], tol=opts["tol"])
    grid = np.linspace(*data.time_domain, opts["grid"])
    curves, summary = stage("intervals", _intervals, specs, result, grid, level)
    timings["dic"], faults["dic"], posterior = 0.0, 0, {}  # wls has no posterior and computes no DIC
    if engine != "wls":
        posterior = stage("dic", _posterior_fields, result)
    blocks = split_alpha(result.alpha, tuple(s.n_terms for s in specs))
    fit_path = os.path.join(out_dir, "fit.json")
    payload = {
        "engine": engine,
        "seed": opts["seed"],
        "data": opts["data"],
        "n_subjects": data.n_subjects,
        "n_obs": data.n_obs,
        "level": level,
        "basis": [s.to_dict() for s in specs],
        "knot_counts": list(counts),
        # knot-search size when --knots auto ran it; null for fixed counts
        "selection": None if table is None else {
            "candidates": len(table),
            "infeasible": sum(1 for row in table if not np.isfinite(row["pcv"])),
        },
        # bootstrap attempts, singular redraws included, for wls with --boot; null otherwise
        "bootstrap": result.extra.get("bootstrap"),
        "alpha": {str(r): b.tolist() for r, b in enumerate(blocks)},
        "sigma2": result.sigma2_hat if engine == "wls" else float(result.draws.sigma2_draws.mean()),
        "wls_sigma2": result.sigma2_hat,
        "sampling_seconds": result.sampling_seconds,
        **posterior,
        "timings": timings,  # the write stage's entries are added as it runs
        "minor_faults": faults,
    }
    _json_text(fit_path, payload)  # a nan or inf is refused before the write stage opens a file
    artifacts = stage("write", _write_fit_artifacts, out_dir, grid, curves, result, summary)
    _write_json(fit_path, payload)
    _write_json(os.path.join(out_dir, "manifest.json"), _manifest("fit", opts, artifacts))
    print(json.dumps({"status": "ok", "out": out_dir, "artifacts": artifacts}))
    return 0


def cmd_select(opts) -> int:
    _check_at_least(opts, degree=0, kmax=0)
    _check_out_file("--out", opts["out"])
    data = _ingest(opts, "select")
    best, table = knot_search(data, opts["family"], opts["degree"], opts["kmax"], opts["strategy"])
    _write_json(opts["out"], {
        "selected": list(best),
        "family": opts["family"],
        "degree": opts["degree"],
        "k_max": opts["kmax"],
        "strategy": opts["strategy"],
        # an infeasible candidate's pcv is inf, which JSON cannot hold: null
        "table": [{**row, "pcv": None if row["pcv"] == np.inf else row["pcv"]} for row in table],
    })
    print(json.dumps({"status": "ok", "selected": list(best), "out": opts["out"]}))
    return 0


def cmd_simulate(opts) -> int:
    _check_at_least(opts, n=1, reps=1, degree=0, kmax=0, draws=0, burnin=0)
    engines = _comma_list(opts, "engines", ENGINES)
    families = _comma_list(opts, "families", FAMILIES)
    prefix = opts["out_prefix"]
    for suffix in ("_report.csv", "_summary.json"):
        _check_out_file("--out-prefix", prefix + suffix)
    report = run_replications(
        scenario=opts["scenario"],
        n=opts["n"],
        reps=opts["reps"],
        rng=opts["seed"],
        engines=engines,
        families=families,
        degree=opts["degree"],
        k_max=opts["kmax"],
        draws=opts["draws"],
        burnin=opts["burnin"],
        level=opts["level"],
        shape=opts["shape"],
        strategy=opts["strategy"],
    )
    report.to_csv(f"{prefix}_report.csv")
    summary = report.summary()
    _write_json(f"{prefix}_summary.json", summary)
    print(json.dumps(summary))
    return 0


def cmd_crossval(opts) -> int:
    _check_at_least(opts, folds=2, degree=0, kmax=0, draws=0, burnin=0)
    _check_out_file("--out", opts["out"])
    data = _ingest(opts, "crossval")
    if opts["folds"] > data.n_obs:
        raise ValueError(f"--folds must be at most the {data.n_obs} observations, got {opts['folds']}")
    counts, specs, _ = _basis(data, opts)
    value = crossval_amse(
        data,
        specs,
        n_folds=opts["folds"],
        rng=opts["seed"],
        engine=opts["engine"],
        draws=opts["draws"],
        burnin=opts["burnin"],
    )
    payload = {
        "amse": value,
        "folds": opts["folds"],
        "engine": opts["engine"],
        "knot_counts": list(counts),
        "family": opts["family"],
        "degree": opts["degree"],
        "seed": opts["seed"],
    }
    _write_json(opts["out"], payload)
    print(json.dumps(payload))
    return 0


_HANDLERS = {
    "fit": cmd_fit,
    "select": cmd_select,
    "simulate": cmd_simulate,
    "crossval": cmd_crossval,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # joined to its option, a value such as -1,130 or -1e-05 is no flag to argparse (-h is the only short one)
    for i in reversed(range(1, len(argv))):
        flag, value = argv[i - 1], argv[i]
        if re.fullmatch("--[^=]+", flag) and re.fullmatch("-[^-].*", value) and value != "-h":
            argv[i - 1 : i + 1] = [f"{flag}={value}"]
    args = _parser().parse_args(argv)  # the command, --config, --help/--version and bad flags
    try:
        opts = _resolve(args, argv)
        return _HANDLERS[args.command](opts)
    except (TvcmError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
