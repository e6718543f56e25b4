"""In-memory spans around the calls into each tvcm module.

The tvcm modules import each other's functions with ``from .x import y``, so
a function has one binding per importing module.  ``Tracer.install`` replaces
every binding of each target found in the loaded ``tvcm.*`` modules, and
``Tracer.uninstall`` puts the originals back.  A target that no longer exists
is listed in ``Tracer.absent`` instead of failing the run, so the library can
drop or rename functions without breaking the benchmark.

A span records (op, id, parent, name, start, end, attrs).  Spans of one op
share the op id; the op itself is the root span ``cli``, recorded by the
caller through ``record_op``.  Self time is a span's duration minus its
children's; in one thread, children never overlap, so that is a plain sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, params, result):
    return {"rows": result.n_obs}


def _candidates(args, kwargs, params, result):
    table = result[1]
    return {
        "candidates": len(table),
        "feasible": sum(1 for row in table if row["pcv"] is not None and math.isfinite(row["pcv"])),
    }


def _draws(args, kwargs, params, result):
    return {"draws": result.n_draws}


def _gibbs_iters(args, kwargs, params, result):
    bound = params.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"iters": int(bound.arguments.get("draws", result.n_draws)) + int(bound.arguments.get("burnin", 0))}


def _vb_iters(args, kwargs, params, result):
    return {"iters": len(result.elbo_trace)}


# (defining module, attribute, span name, annotation of a returned result)
TARGETS = (
    ("tvcm.data", "ingest_csv", "data.ingest_csv", _rows),
    ("tvcm.basis", "build_design", "basis.build_design", None),
    ("tvcm.frequentist", "fit_wls", "frequentist.fit_wls", None),
    ("tvcm.selection", "knot_search", "selection.knot_search", _candidates),
    ("tvcm.bootstrap", "bootstrap_fit", "bootstrap.bootstrap_fit", _draws),
    ("tvcm.bootstrap", "resample_subjects", "bootstrap.resample_subjects", None),
    ("tvcm.bootstrap", "percentile_interval", "cli.percentile_interval", None),
    ("tvcm.bootstrap", "PosteriorDraws.to_csv", "cli.draws_to_csv", None),
    ("tvcm.mcmc", "gibbs", "mcmc.gibbs", _gibbs_iters),
    ("tvcm.mcmc", "dic", "mcmc.dic", None),
    ("tvcm.vb", "vb_fit", "vb.vb_fit", _vb_iters),
    ("tvcm.vb", "vb_sample", "vb.vb_sample", None),
    ("tvcm.engines", "fit_engine", "engines.fit_engine", None),
    ("tvcm.simgen", "gen_scenario1", "simgen.generate", None),
    ("tvcm.simgen", "gen_scenario2", "simgen.generate", None),
    ("tvcm.simgen", "run_replications", "simgen.run_replications", None),
)

ROOT = "cli"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._op = 0

    def install(self, op: int) -> None:
        """Wrap every binding of every target; spans go to ``op`` until uninstall."""
        self._op = op
        self._stack = [0]
        self.absent = []
        modules = [m for name, m in list(sys.modules.items()) if name == "tvcm" or name.startswith("tvcm.")]
        for module_name, attr, span_name, annotate in TARGETS:
            owner_name, _, func_name = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[func_name]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name, annotate)
            if owner_name:
                self._patch(owner, func_name, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _wrap(self, fn, name, annotate):
        params = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self._op, span_id, parent, name, start, end, {"error": type(exc).__name__}))
                raise
            end = time.perf_counter()
            self._stack.pop()
            attrs = annotate(args, kwargs, params, result) if annotate else {}
            self.spans.append(Span(self._op, span_id, parent, name, start, end, attrs))
            return result

        return wrapper

    def record_op(self, start: float, end: float, bytes_written: int) -> None:
        """Close the current op with its root span; top-level spans have parent 0."""
        self.spans.append(Span(self._op, 0, None, ROOT, start, end, {"bytes_written": bytes_written}))

    def discard_op(self) -> None:
        """Drop the spans of the current op, which failed and has no root span."""
        self.spans = [s for s in self.spans if s.op != self._op]

    def to_records(self) -> list[dict]:
        return [
            {"op": s.op, "id": s.id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], untraced_op_s: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (per op unless a ratio) and each layer's share of op time.

    Busy time is the summed duration of a name's spans; tvcm never nests a
    traced function inside itself, so no interval is counted twice.
    """
    roots = [s for s in spans if s.name == ROOT]
    n_ops = len(roots)
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[(s.op, s.parent)] += s.duration
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, float] = defaultdict(float)
    for s in spans:
        busy[s.name] += s.duration
        self_s[s.name] += s.duration - child_time[(s.op, s.id)]
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attrs[f"{s.name}.{key}"] += 1 if key == "error" else value

    def per_op(value: float) -> float:
        return value / n_ops

    vb_busy = busy["vb.vb_fit"] + busy["vb.vb_sample"]
    attempts = calls["bootstrap.resample_subjects"]
    traced_p50 = statistics.median(r.duration for r in roots)
    metrics = {
        "data.ingest_csv.busy_s": per_op(busy["data.ingest_csv"]),
        "data.rows_per_s": _ratio(attrs["data.ingest_csv.rows"], busy["data.ingest_csv"]),
        "basis.build_design.calls": per_op(calls["basis.build_design"]),
        "basis.build_design.busy_s": per_op(busy["basis.build_design"]),
        "frequentist.fit_wls.calls": per_op(calls["frequentist.fit_wls"]),
        "frequentist.fit_wls.busy_s": per_op(busy["frequentist.fit_wls"]),
        "frequentist.fit_wls.failed": per_op(attrs["frequentist.fit_wls.error"]),
        "selection.knot_search.busy_s": per_op(busy["selection.knot_search"]),
        "selection.knot_search.self_s": per_op(self_s["selection.knot_search"]),
        "selection.candidates": per_op(attrs["selection.knot_search.candidates"]),
        "selection.feasible_frac": _ratio(
            attrs["selection.knot_search.feasible"], attrs["selection.knot_search.candidates"]
        ),
        "bootstrap.bootstrap_fit.busy_s": per_op(busy["bootstrap.bootstrap_fit"]),
        "bootstrap.bootstrap_fit.self_s": per_op(self_s["bootstrap.bootstrap_fit"]),
        "bootstrap.attempts": per_op(attempts),
        "bootstrap.useful_frac": _ratio(attrs["bootstrap.bootstrap_fit.draws"], attempts),
        "bootstrap.resample_subjects.busy_s": per_op(busy["bootstrap.resample_subjects"]),
        "bootstrap.replicate_ms": 1000.0 * _ratio(busy["bootstrap.bootstrap_fit"], attempts),
        "mcmc.gibbs.busy_s": per_op(busy["mcmc.gibbs"]),
        "mcmc.gibbs.iters": per_op(attrs["mcmc.gibbs.iters"]),
        "mcmc.iter_us": 1e6 * _ratio(busy["mcmc.gibbs"], attrs["mcmc.gibbs.iters"]),
        "mcmc.dic.busy_s": per_op(busy["mcmc.dic"]),
        "vb.vb_fit.busy_s": per_op(busy["vb.vb_fit"]),
        "vb.iters": per_op(attrs["vb.vb_fit.iters"]),
        "vb.vb_sample.busy_s": per_op(busy["vb.vb_sample"]),
        "engines.fit_engine.self_s": per_op(self_s["engines.fit_engine"]),
        # 0 unless both engines ran, which in simulate-small is on the same datasets
        "engines.gibbs_over_vb": _ratio(busy["mcmc.gibbs"], vb_busy),
        "simgen.generate.busy_s": per_op(busy["simgen.generate"]),
        "simgen.run_replications.self_s": per_op(self_s["simgen.run_replications"]),
        "cli.self_s": per_op(self_s[ROOT]),
        "cli.percentile_interval.calls": per_op(calls["cli.percentile_interval"]),
        "cli.percentile_interval.busy_s": per_op(busy["cli.percentile_interval"]),
        "cli.draws_to_csv.busy_s": per_op(busy["cli.draws_to_csv"]),
        "cli.bytes_written": per_op(attrs[f"{ROOT}.bytes_written"]),
        "trace.overhead_frac": traced_p50 / statistics.median(untraced_op_s) - 1.0,
    }
    op_total = busy[ROOT]
    shares = {
        "data": busy["data.ingest_csv"],
        "selection": busy["selection.knot_search"],
        "bootstrap": busy["bootstrap.bootstrap_fit"],
        "mcmc": busy["mcmc.gibbs"] + busy["mcmc.dic"],
        "vb": vb_busy,
        "cli.write": busy["cli.percentile_interval"] + busy["cli.draws_to_csv"],
        "cli.self": self_s[ROOT],
    }
    return metrics, {layer: _ratio(value, op_total) for layer, value in shares.items()}
