"""The library's public surface and the benchmark tracer's view of it."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
import types

import tvcm

from conftest import REPO_ROOT

PUBLIC_NAMES = [
    "BasisFamily", "BasisSpec", "BootstrapDegeneracyError", "CsvParseError", "DataError",
    "DesignBundle", "DesignError", "DrawSource", "EmptyDataError", "EngineResult",
    "InsufficientDataError", "KnotError", "LongitudinalDataset", "NumericalError",
    "PosteriorDraws", "PriorSpec", "SchemaError", "SelectionError", "SimReport", "SimTruth",
    "SingularDesignError", "TvcmError", "VariationalPosterior", "WlsFit", "amse",
    "basis_matrix", "bootstrap_fit", "build_design", "coefficient_curve", "crossval_amse",
    "default_bandwidth", "default_prior", "dic", "fit_engine", "fit_wls", "gen_scenario1",
    "gen_scenario2", "gibbs", "ingest_csv", "knot_search", "made", "make_spec", "pcv",
    "pcv_loo", "percentile_interval", "place_knots_equal", "place_knots_quantile",
    "predict_rows", "run_replications", "scenario1_beta0", "scenario2_betas", "split_alpha",
    "subject_uniform_weights", "vb_fit", "vb_sample", "whiten", "write_csv",
]


def test_public_names_are_pinned():
    """A name leaves or joins the package only by editing this list; submodules,
    which appear as attributes once imported, are not names of the API."""
    names = sorted(name for name, value in vars(tvcm).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_tracer_targets_resolve(monkeypatch):
    """perfbench wraps these by name and silently skips a missing one, so the
    benchmark would lose a layer without failing."""
    path = REPO_ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr, *_ in tracer.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{module_name}.{attr}"
            target = getattr(target, part)


def test_no_private_name_crosses_a_module_boundary():
    """No tvcm module imports an underscore name from another tvcm module, or
    reads one off a tvcm module it imported: modules share only public names.
    Dunders such as __version__ are not private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    crossings = []
    for path in sorted((REPO_ROOT / "src" / "tvcm").glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").split(".")[0] == "tvcm")]
        crossings += [f"{path.name} imports {alias.name}" for node in imports
                      for alias in node.names if private(alias.name)]
        # `from . import frequentist` binds a module; frequentist._name would cross too
        modules = {alias.asname or alias.name for node in imports
                   if node.module in (None, "tvcm") for alias in node.names}
        crossings += [f"{path.name} reads {node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules and private(node.attr)]
    assert not crossings
