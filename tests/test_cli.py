"""Command line interface: artifact contracts, config layering, errors."""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvcm
import tvcm.errors
from tvcm import gen_scenario1, gen_scenario2, ingest_csv, write_csv
from tvcm import cli, mcmc, vb
from tvcm.basis import BasisSpec, basis_matrix, build_design, make_spec, split_alpha
from tvcm.cli import build_parser, main

from conftest import REPO_ROOT, exact_response_dataset, forbid_qr, golden_script
from oracles import write_curves_rows


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    data, _ = gen_scenario1(25, np.random.default_rng(33), level="weak",
                            shape="trig")
    path = tmp_path_factory.mktemp("cli") / "panel.csv"
    write_csv(data, path)
    return path


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def _read_curves(out_dir):
    with open(out_dir / "curves.csv", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


class TestFit:
    def test_wls_with_bootstrap_artifacts(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--engine", "wls", "--boot",
             "40", "--knots", "1", "--grid", "50", "--seed", "3", "--out",
             str(out)], capsys)
        assert code == 0
        assert payload["status"] == "ok"
        assert sorted(payload["artifacts"]) == [
            "curves.csv", "draws.csv", "draws_summary.json", "fit.json",
            "manifest.json"]
        fit = json.loads((out / "fit.json").read_text())
        assert fit["engine"] == "wls"
        assert "0" in fit["alpha"]
        curves = _read_curves(out)
        assert len(curves) == 50  # one coefficient, 50 grid points
        assert all(row["lower"] != "" for row in curves)
        assert fit["bootstrap"] == {"attempts": 40, "redraws": 0}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["seed"] == 3
        assert manifest["command"] == "fit"

    def test_wls_without_draws_leaves_bands_empty(self, data_csv, tmp_path,
                                                  capsys):
        out = tmp_path / "plain"
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--engine", "wls", "--knots",
             "1", "--grid", "20", "--out", str(out)], capsys)
        assert code == 0
        assert "draws.csv" not in payload["artifacts"]
        curves = _read_curves(out)
        assert all(row["lower"] == "" and row["upper"] == "" for row in curves)

    def test_gibbs_reports_dic(self, data_csv, tmp_path, capsys):
        out = tmp_path / "gibbs"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--engine", "gibbs", "--draws",
             "300", "--burnin", "50", "--knots", "1", "--grid", "20",
             "--seed", "1", "--out", str(out)], capsys)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["engine"] == "gibbs"
        assert np.isfinite(fit["dic"]["dic"])
        assert np.isfinite(fit["dic"]["p_dic"])
        assert "prior" in fit
        assert fit["bootstrap"] is None

    def test_bands_are_draw_curve_intervals(self, data_csv, tmp_path,
                                            capsys):
        """curves.csv bands are the intervals of the draws' curves at each
        grid point (cmd_fit sorts each grid point's row in place)."""
        out = tmp_path / "bands"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--engine", "gibbs", "--draws",
             "300", "--burnin", "50", "--knots", "2", "--grid", "25",
             "--level", "0.9", "--seed", "6", "--out", str(out)], capsys)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        with open(out / "draws.csv", newline="") as fh:
            values = np.array([float(r["value"]) for r in csv.DictReader(fh)])
        specs = [BasisSpec.from_dict(d) for d in fit["basis"]]
        draws = values.reshape(300, -1)[:, :-1]  # the last index is sigma2
        rows = _read_curves(out)
        blocks = split_alpha(draws, tuple(s.n_terms for s in specs))
        for r, (spec, block) in enumerate(zip(specs, blocks)):
            mine = [row for row in rows if row["coefficient"] == str(r)]
            grid = np.array([float(row["t"]) for row in mine])
            lo, hi = np.quantile(basis_matrix(spec, grid) @ block.T, [0.05, 0.95], axis=-1, method="linear")
            np.testing.assert_allclose([float(row["lower"]) for row in mine], lo, rtol=1e-12)
            np.testing.assert_allclose([float(row["upper"]) for row in mine], hi, rtol=1e-12)

    @pytest.mark.parametrize("engine", ["wls", "gibbs", "vb"])
    def test_one_parameter_fit_has_bands(self, engine, tmp_path, capsys):
        """A one-parameter model (intercept only, tpower degree 0, no knots)
        has a one-column draw matrix, which fit summarises without writing
        to the read-only draws."""
        csv_path = tmp_path / "panel.csv"
        csv_path.write_text("subject,time,y\n" + "".join(
            f"s{i % 4},{i},{(i * 7) % 5 * 0.5}\n" for i in range(12)))
        out = tmp_path / "fit"
        code, _ = _run(["fit", "--data", str(csv_path), "--engine", engine, "--family", "tpower",
                        "--degree", "0", "--knots", "0", "--boot", "30", "--draws", "30",
                        "--burnin", "5", "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads((out / "draws_summary.json").read_text())
        assert len(summary["alpha_lower"]) == 1
        rows = _read_curves(out)
        lo, hi = summary["alpha_lower"][0], summary["alpha_upper"][0]
        for row in rows:  # beta_0 is the constant alpha_0, so the bands are alpha_0's interval
            assert float(row["lower"]) == pytest.approx(lo, rel=1e-12)
            assert float(row["upper"]) == pytest.approx(hi, rel=1e-12)

    def test_vb_close_to_gibbs_curves(self, data_csv, tmp_path, capsys):
        """The two Bayesian engines must produce nearly identical posterior
        mean curves away from the boundary."""
        est = {}
        for engine in ("gibbs", "vb"):
            out = tmp_path / engine
            code, _ = _run(
                ["fit", "--data", str(data_csv), "--engine", engine,
                 "--draws", "2000", "--burnin", "400", "--knots", "2",
                 "--grid", "41", "--seed", "2", "--out", str(out)], capsys)
            assert code == 0
            rows = _read_curves(out)
            est[engine] = np.array([float(r["estimate"]) for r in rows])
        interior = slice(4, -4)
        scale = np.abs(est["gibbs"][interior]).max()
        gap = np.abs(est["gibbs"] - est["vb"])[interior].max()
        assert gap < 0.02 * scale

    def test_fit_json_stage_timings(self, data_csv, tmp_path, capsys):
        for engine, options in (("wls", ["--boot", "20"]),
                                ("gibbs", ["--draws", "50", "--burnin", "10"])):
            out = tmp_path / engine
            code, _ = _run(
                ["fit", "--data", str(data_csv), "--engine", engine, *options,
                 "--knots", "auto", "--kmax", "2", "--grid", "20", "--seed", "4",
                 "--out", str(out)], capsys)
            assert code == 0
            timings = json.loads((out / "fit.json").read_text())["timings"]
            assert sorted(timings) == ["dic", "fit", "ingest", "intervals", "select", "write"]
            for stage, seconds in timings.items():
                assert isinstance(seconds, float), stage
                assert np.isfinite(seconds) and seconds >= 0.0, stage
            assert (timings["dic"] > 0.0) == (engine == "gibbs")  # wls computes no DIC

    @pytest.mark.parametrize("engine, options, posterior", [
        ("wls", [], []),
        ("wls", ["--boot", "20"], []),
        ("gibbs", ["--draws", "50", "--burnin", "10"], ["prior", "dic"]),
        ("vb", ["--draws", "50"], ["prior", "dic", "vb"]),
    ], ids=["wls-fixed", "wls-boot", "gibbs", "vb"])
    def test_fit_json_layout(self, data_csv, tmp_path, capsys, engine,
                             options, posterior):
        """fit.json keeps its key order, top level and timings; sigma2 is
        wls_sigma2 for wls and the posterior mean otherwise.  A missing
        parent of --out is made."""
        out = tmp_path / "new" / engine
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--engine", engine, *options,
             "--knots", "1", "--grid", "10", "--seed", "5", "--out", str(out)],
            capsys)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert list(fit) == [
            "engine", "seed", "data", "n_subjects", "n_obs", "level", "basis",
            "knot_counts", "selection", "bootstrap", "alpha", "sigma2",
            "wls_sigma2", "sampling_seconds", *posterior, "timings"]
        assert list(fit["timings"]) == ["ingest", "select", "fit", "intervals",
                                        "dic", "write"]
        if engine == "wls":
            assert fit["timings"]["dic"] == 0.0
            assert fit["sigma2"] == fit["wls_sigma2"]
        else:
            with open(out / "draws.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            p = str(sum(map(len, fit["alpha"].values())))  # sigma2's index
            sigma2 = np.array([float(v) for _, j, v in rows if j == p])
            assert sigma2.size == 50
            assert fit["sigma2"] == float(sigma2.mean())

    def test_manifest_records_cpus_and_blas_threads(self, data_csv, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        out = tmp_path / "threads"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--engine", "wls", "--knots",
             "1", "--grid", "10", "--out", str(out)], capsys)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["python"] == platform.python_version()
        assert manifest["platform"] == sys.platform
        assert "scipy" not in manifest
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                            "OMP_NUM_THREADS": None,
                                            "MKL_NUM_THREADS": "4"}

    @pytest.mark.parametrize("extra, counts, selection", [
        ([], [0, 2, 0], {"candidates": 125, "infeasible": 20}),
        (["--bandwidth", "5"], [0, 0, 0], {"candidates": 125, "infeasible": 0}),
    ], ids=["default-bandwidth", "bandwidth-5"])
    def test_auto_knots_score_the_fitted_basis(self, demo_csv, tmp_path,
                                               capsys, extra, counts,
                                               selection):
        """--knots auto searches with the bandwidth the fit then uses, and
        fit.json records the size of that search."""
        out = tmp_path / "auto"
        code, _ = _run(
            ["fit", "--data", str(demo_csv), "--engine", "wls", "--knots",
             "auto", "--kmax", "4", "--grid", "10", "--out", str(out),
             *extra], capsys)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["knot_counts"] == counts
        assert fit["selection"] == selection

    def test_fixed_knots_record_no_selection(self, data_csv, tmp_path,
                                             capsys):
        out = tmp_path / "fixed"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--engine", "wls", "--knots",
             "2", "--grid", "10", "--out", str(out)], capsys)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["selection"] is None
        assert fit["bootstrap"] is None

    def test_noiseless_panels_write_sigma2_at_least_zero(self, tmp_path, capsys):
        """Responses the default basis fits exactly leave a weighted RSS of
        roundoff; fit.json's sigma2 is clamped at 0, never below."""
        for seed in range(12):
            path = tmp_path / f"panel{seed}.csv"
            write_csv(gen_scenario2(30, np.random.default_rng(seed))[0], path)
            data = ingest_csv(path)
            specs = tuple(make_spec("radial", 2, 2, data.time_domain) for _ in range(3))
            alpha = np.random.default_rng(seed).standard_normal(build_design(data, specs).n_params)
            write_csv(exact_response_dataset(data, specs, alpha), path)
            out = tmp_path / f"fit{seed}"
            code, _ = _run(["fit", "--data", str(path), "--engine", "wls", "--knots", "2",
                            "--out", str(out)], capsys)
            assert code == 0
            assert 0.0 <= json.loads((out / "fit.json").read_text())["sigma2"] <= 1e-15, seed

    def test_deterministic_fit_json(self, data_csv, tmp_path, capsys):
        """Everything except the wall-clock timing fields must be identical
        across two runs with the same seed."""
        payloads = []
        for d in ("a", "b"):
            out = tmp_path / d
            code, _ = _run(
                ["fit", "--data", str(data_csv), "--engine", "gibbs",
                 "--draws", "200", "--burnin", "20", "--knots", "1",
                 "--grid", "10", "--seed", "11", "--out", str(out)], capsys)
            assert code == 0
            fit = json.loads((out / "fit.json").read_text())
            fit.pop("sampling_seconds")
            fit.pop("timings")
            payloads.append(fit)
        assert payloads[0] == payloads[1]


class TestCurvesWriter:
    """cli._write_curves writes the bytes of the row-at-a-time oracle."""

    @pytest.mark.parametrize("options, bounds", [
        (["--engine", "wls"], False),
        (["--engine", "wls", "--boot", "30"], True),
        (["--engine", "gibbs", "--draws", "100", "--burnin", "10"], True),
    ], ids=["wls", "wls-boot", "gibbs"])
    def test_fit_matches_row_writer(self, data_csv, tmp_path, capsys, monkeypatch,
                                    options, bounds):
        calls = []
        write = cli._write_curves
        monkeypatch.setattr(cli, "_write_curves",
                            lambda *args: (calls.append(args), write(*args)))
        out = tmp_path / "fit"
        code, _ = _run(["fit", "--data", str(data_csv), *options, "--knots", "2",
                        "--grid", "37", "--seed", "5", "--out", str(out)], capsys)
        assert code == 0 and len(calls) == 1
        _, grid, curves = calls[0]
        # without draws the bounds are None and their cells empty
        assert all((lo is not None) == bounds for _, lo, _ in curves)
        write_curves_rows(tmp_path / "loop.csv", grid, curves)
        assert (out / "curves.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("bounds", [True, False], ids=["bounds", "no-bounds"])
    def test_awkward_values(self, tmp_path, bounds):
        """Signed zero, exponent-form reprs and a subnormal format as repr does."""
        grid = np.array([-0.0, 1e-05, 1e16, 5e-324])
        est = np.array([5e-324, -0.0, 1e-05, -1e16])
        lo, hi = (-est, 2 * est) if bounds else (None, None)
        curves = [(est, lo, hi), (grid.copy(), lo, hi)]
        cli._write_curves(tmp_path / "fast.csv", grid, curves)
        write_curves_rows(tmp_path / "loop.csv", grid, curves)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


# ---------------------------------------------------------------------------
# select / crossval / simulate
# ---------------------------------------------------------------------------


class TestOtherCommands:
    def test_select_reports_table(self, data_csv, tmp_path, capsys):
        out = tmp_path / "selection.json"
        code, payload = _run(
            ["select", "--data", str(data_csv), "--kmax", "3", "--out",
             str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["selected"] == payload["selected"]
        assert len(report["table"]) == 4

    def test_crossval_value(self, data_csv, tmp_path, capsys):
        out = tmp_path / "cv.json"
        code, payload = _run(
            ["crossval", "--data", str(data_csv), "--folds", "4", "--knots",
             "1", "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        assert payload["amse"] > 0
        assert json.loads(out.read_text())["amse"] == payload["amse"]
        again_code, again = _run(
            ["crossval", "--data", str(data_csv), "--folds", "4", "--knots",
             "1", "--seed", "5", "--out", str(out)], capsys)
        assert again["amse"] == payload["amse"]

    @pytest.mark.parametrize("extra", [1, 5000], ids=["one-above", "far-above"])
    def test_folds_above_observations_named(self, data_csv, tmp_path, capsys,
                                            extra):
        """--folds above the panel's N observations fails naming --folds,
        after ingest but before any knot search or fit, and writes nothing."""
        n_obs = ingest_csv(data_csv).n_obs
        folds = n_obs + extra
        code, payload = _run(
            ["crossval", "--data", str(data_csv), "--folds", str(folds),
             "--out", str(tmp_path / "cv.json")], capsys)
        assert code == 1
        assert payload == {
            "error": "ValueError",
            "message": f"--folds must be at most the {n_obs} observations, got {folds}"}
        assert not list(tmp_path.iterdir())

    def test_simulate_report_and_summary(self, tmp_path, capsys):
        prefix = tmp_path / "sim"
        code, payload = _run(
            ["simulate", "--scenario", "1", "--n", "8", "--reps", "2",
             "--engines", "wls", "--families", "radial", "--kmax", "2",
             "--level", "weak", "--shape", "trig", "--seed", "9",
             "--out-prefix", str(prefix)], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "sim_summary.json").read_text())
        assert summary["failures"] == 0
        cell = summary["cells"]["wls/radial"]
        assert cell["n_ok"] == 2
        report_rows = list(csv.DictReader(
            open(tmp_path / "sim_report.csv", newline="")))
        assert len(report_rows) == 2
        assert {r["status"] for r in report_rows} == {"ok"}

    def test_simulate_metric_deterministic(self, tmp_path, capsys):
        metrics = []
        for d in ("s1", "s2"):
            prefix = tmp_path / d / "sim"
            prefix.parent.mkdir()
            code, _ = _run(
                ["simulate", "--scenario", "2", "--n", "10", "--reps", "1",
                 "--engines", "wls", "--families", "radial", "--kmax", "1",
                 "--seed", "13", "--out-prefix", str(prefix)], capsys)
            assert code == 0
            rows = list(csv.DictReader(open(f"{prefix}_report.csv",
                                            newline="")))
            metrics.append([r["metric"] for r in rows])
        assert metrics[0] == metrics[1]

    def test_no_command_runs_qr(self, data_csv, tmp_path, capsys,
                                monkeypatch):
        """Every production fit solves from Gram statistics: with QR
        factorisation disabled, each command and engine still succeeds."""
        forbid_qr(monkeypatch)
        data = ["--data", str(data_csv)]
        sampler = ["--draws", "100", "--burnin", "10"]
        runs = [["fit", *data, "--engine", "wls", "--knots", "auto",
                 "--kmax", "3", "--boot", "50", "--out", "wls"],
                ["select", *data, "--kmax", "3", "--out", "select.json"],
                ["simulate", "--n", "8", "--reps", "1", "--kmax", "2",
                 "--engines", "wls,gibbs,vb", *sampler, "--out-prefix", "sim"]]
        for engine in ("gibbs", "vb"):
            runs.append(["fit", *data, "--engine", engine, "--knots", "1",
                         *sampler, "--out", engine])
        for engine in ("wls", "gibbs", "vb"):
            runs.append(["crossval", *data, "--engine", engine, "--knots",
                         "1", "--folds", "3", *sampler,
                         "--out", f"cv-{engine}.json"])
        for args in runs:
            args[-1] = str(tmp_path / args[-1])
            code, payload = _run(args, capsys)
            assert code == 0, (args, payload)
        summary = json.loads((tmp_path / "sim_summary.json").read_text())
        assert summary["failures"] == 0


# ---------------------------------------------------------------------------
# Option layering and errors
# ---------------------------------------------------------------------------


class TestOptionsAndErrors:
    def test_config_file_supplies_defaults(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"engine": "wls", "knots": "1",
                                   "grid": 15}))
        out = tmp_path / "cfgrun"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--config", str(cfg), "--out",
             str(out)], capsys)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["engine"] == "wls"
        assert manifest["options"]["grid"] == 15

    def test_explicit_flag_beats_config(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"engine": "gibbs", "draws": 100,
                                   "burnin": 10, "knots": "1", "grid": 10}))
        out = tmp_path / "flagwin"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--config", str(cfg),
             "--engine", "wls", "--out", str(out)], capsys)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["engine"] == "wls"

    def test_unknown_config_key_rejected(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"engin": "wls"}))
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--config", str(cfg)], capsys)
        assert code == 1
        assert payload["error"] == "ValueError"
        assert "engin" in payload["message"]

    @pytest.mark.parametrize("key, value", [("threads", 4),
                                            ("backend", "python")],
                             ids=["threads", "backend"])
    def test_removed_threads_key_rejected(self, data_csv, tmp_path, capsys,
                                          key, value):
        cfg = tmp_path / "removed.json"
        cfg.write_text(json.dumps({key: value}))
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--config", str(cfg)], capsys)
        assert code == 1
        assert payload["error"] == "ValueError"
        assert key in payload["message"]

    @pytest.mark.parametrize("engine_args", [
        ["--engine", "wls", "--boot", "10"],
        ["--engine", "gibbs", "--draws", "50", "--burnin", "10"],
        ["--engine", "vb", "--draws", "50"],
    ])
    def test_negative_seed_is_json_error(self, data_csv, tmp_path, capsys,
                                         engine_args):
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--knots", "1", "--seed", "-3",
             "--out", str(tmp_path / "neg"), *engine_args], capsys)
        assert code == 1
        assert payload["error"] == "ValueError"
        assert "-3" in payload["message"]

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, False],
                             ids=["fraction", "integral-float", "true",
                                  "false"])
    def test_non_integer_config_seed_rejected(self, data_csv, tmp_path,
                                              capsys, seed):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": seed}))
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--config", str(cfg),
             "--engine", "wls", "--knots", "1", "--out",
             str(tmp_path / "seed")], capsys)
        assert code == 1
        assert payload["error"] == "ValueError"
        assert f"seed must be an integer, got {seed!r}" == payload["message"]

    @pytest.mark.parametrize("source", ["config", "env"])
    @pytest.mark.parametrize("seed", ["abc", "1.5"])
    def test_bad_seed_string_names_value_and_source(self, data_csv, tmp_path,
                                                    capsys, monkeypatch,
                                                    source, seed):
        args = ["fit", "--data", str(data_csv), "--engine", "wls", "--knots",
                "1", "--out", str(tmp_path / "seed")]
        if source == "config":
            cfg = tmp_path / "seed.json"
            cfg.write_text(json.dumps({"seed": seed}))
            args += ["--config", str(cfg)]
            where = f"--config {cfg}"
        else:
            monkeypatch.setenv("TVCM_SEED", seed)
            where = "TVCM_SEED"
        code, payload = _run(args, capsys)
        assert code == 1
        assert payload == {
            "error": "ValueError",
            "message": f"seed must be an integer, got {seed!r} from {where}"}

    def test_integer_string_seed_accepted(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": "7"}))
        out = tmp_path / "strseed"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--config", str(cfg),
             "--engine", "wls", "--knots", "1", "--grid", "10", "--out",
             str(out)], capsys)
        assert code == 0
        assert json.loads((out / "fit.json").read_text())["seed"] == 7

    def test_integer_config_seed_used(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": 7}))
        out = tmp_path / "intseed"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--config", str(cfg),
             "--engine", "wls", "--knots", "1", "--grid", "10", "--out",
             str(out)], capsys)
        assert code == 0
        assert json.loads((out / "fit.json").read_text())["seed"] == 7

    def test_zero_bandwidth_is_json_error(self, data_csv, tmp_path, capsys):
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--bandwidth", "0", "--knots",
             "1", "--engine", "wls", "--out", str(tmp_path / "bw")], capsys)
        assert code == 1
        assert payload == {
            "error": "ValueError",
            "message": "--bandwidth must be positive and finite, got 0.0"}

    @pytest.mark.parametrize("args, named", [
        (["--time-domain", "0,1,2"], "--time-domain must be two numbers a,b, got '0,1,2'"),
        (["--time-domain", "x"], "--time-domain must be two numbers a,b, got 'x'"),
        (["--knots", "3,abc"], "--knots must be 'auto' or non-negative counts, got '3,abc'"),
        (["--knots", "-1"], "--knots must be 'auto' or non-negative counts, got '-1'"),
        (["--engine", "wls", "--boot", "-5"], "--boot must be non-negative, got -5"),
        (["--engine", "gibbs", "--boot", "-5"], "--boot must be non-negative, got -5"),
        (["--engine", "gibbs", "--draws", "-5"], "draws must be non-negative (0 means the "
                                                 "engine default), got -5"),
        (["--engine", "wls", "--draws", "-5"], "--draws must be non-negative (0 means the "
                                               "engine default), got -5"),
        (["--engine", "wls", "--burnin", "-3"], "--burnin must be non-negative, got -3"),
        (["--engine", "gibbs", "--burnin", "-3"], "--burnin must be non-negative, got -3"),
        (["--engine", "vb", "--tol", "0"], "--tol must be positive and finite, got 0.0"),
        (["--engine", "wls", "--tol", "-1"], "--tol must be positive and finite, got -1.0"),
        (["--engine", "vb", "--tol", "nan"], "--tol must be positive and finite, got nan"),
        (["--engine", "vb", "--tol", "inf"], "--tol must be positive and finite, got inf"),
        (["--grid", "0"], "--grid must be at least 1, got 0"),
        (["--grid", "-3"], "--grid must be at least 1, got -3"),
        (["--level", "1.5"], "--level must be in (0, 1), got 1.5"),
        (["--level", "0"], "--level must be in (0, 1), got 0.0"),
        (["--family", "tpower", "--bandwidth", "5"], "bandwidth 5.0 given, but family 'tpower' takes none"),
        (["--family", "tpower", "--bandwidth", "5", "--knots", "auto", "--kmax", "2"],
         "bandwidth 5.0 given, but family 'tpower' takes none"),
    ], ids=["domain-three-values", "domain-not-a-number", "knots-not-a-count",
            "knots-negative", "boot-negative", "boot-negative-gibbs", "draws-negative",
            "draws-negative-wls", "burnin-negative-wls", "burnin-negative-gibbs", "tol-zero-vb",
            "tol-negative-wls", "tol-nan-vb", "tol-inf", "grid-zero",
            "grid-negative", "level-above-one", "level-zero",
            "tpower-bandwidth", "tpower-bandwidth-auto"])
    def test_bad_option_names_the_option(self, data_csv, tmp_path, capsys,
                                         args, named):
        fixed = ["--knots", "1", "--engine", "wls"]
        code, payload = _run(
            ["fit", "--data", str(data_csv), "--out", str(tmp_path / "bad"),
             *fixed, *args], capsys)
        assert code == 1
        assert payload["error"] == "ValueError"
        assert named in payload["message"]

    @pytest.mark.parametrize("engine", ["wls", "gibbs", "vb"])
    @pytest.mark.parametrize("args, named", [
        (["--draws", "-5"], "--draws"), (["--burnin", "-3"], "--burnin"),
        (["--tol", "0"], "--tol"),
        (["--family", "tpower", "--bandwidth", "5"],
         "--bandwidth 5.0 given, but family 'tpower' takes none"),
    ])
    def test_sampler_options_checked_before_ingest(self, tmp_path, capsys,
                                                   engine, args, named):
        """A missing data file would be an OSError; the bad option or
        option pair is reported instead, whatever the engine."""
        code, payload = _run(
            ["fit", "--data", str(tmp_path / "missing.csv"), "--engine",
             engine, "--out", str(tmp_path / "bad"), *args], capsys)
        assert code == 1
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(named)

    @pytest.mark.parametrize("command, key, value, named", [
        (command, "time_domain", value, "--time-domain")
        for command in ("fit", "select", "crossval") for value in ([0, 1, 2], "1")
    ] + [(command, "knots", "3,abc", "--knots") for command in ("fit", "crossval")])
    def test_bad_config_value_names_the_option(self, data_csv, tmp_path,
                                               capsys, command, key, value,
                                               named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: value}))
        code, payload = _run(
            [command, "--data", str(data_csv), "--config", str(cfg),
             "--out", str(tmp_path / "bad-out")], capsys)
        assert code == 1
        assert payload["error"] == "ValueError"
        assert named in payload["message"] and repr(value) in payload["message"]

    @pytest.mark.parametrize("command, key, value, message", [
        ("fit", "grid", "5", "--grid must be an integer, got '5'"),
        ("fit", "grid", 5.0, "--grid must be an integer, got 5.0"),
        ("fit", "draws", True, "--draws must be an integer, got True"),
        ("fit", "level", False, "--level must be a number, got False"),
        ("fit", "tol", "1e-6", "--tol must be a number, got '1e-6'"),
        ("fit", "bandwidth", [2.0], "--bandwidth must be a number, got [2.0]"),
        ("fit", "family", "bogus", "--family must be one of radial, tpower, got 'bogus'"),
        ("fit", "engine", None, "--engine must be one of wls, gibbs, vb, got None"),
        ("select", "kmax", "3", "--kmax must be an integer, got '3'"),
        ("crossval", "strategy", "grid", "--strategy must be one of auto, full, coordinate, got 'grid'"),
        ("simulate", "scenario", True, "--scenario must be an integer, got True"),
        ("simulate", "scenario", 3, "--scenario must be one of 1, 2, got 3"),
        ("simulate", "level", "low", "--level must be one of weak, medium, high, got 'low'"),
    ])
    def test_config_value_type_and_choices(self, data_csv, tmp_path, capsys,
                                           command, key, value, message):
        """A config value its flag could not produce is a one-line error
        naming the option and the config file."""
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({key: value}))
        args = [command, "--config", str(cfg)]
        if command != "simulate":
            args += ["--data", str(data_csv)]
        code, payload = _run(args, capsys)
        assert code == 1
        assert payload == {"error": "ValueError",
                           "message": f"{message} from --config {cfg}"}

    def test_config_numbers_and_null_defaults_accepted(self, data_csv,
                                                       tmp_path, capsys):
        """An int passes for a float option, and null for an option whose
        default is null."""
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"engine": "wls", "knots": 1, "grid": 10,
                                   "tol": 1, "bandwidth": None,
                                   "time_domain": None, "family": "tpower"}))
        out = tmp_path / "typed-ok"
        code, _ = _run(["fit", "--data", str(data_csv), "--config", str(cfg),
                        "--out", str(out)], capsys)
        assert code == 0
        options = json.loads((out / "manifest.json").read_text())["options"]
        assert (options["tol"], options["bandwidth"], options["family"]) == (1, None, "tpower")

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        cli._parser.cache_clear()
        first = cli._parser()
        monkeypatch.setattr(cli, "build_parser",
                            lambda: pytest.fail("main built a second parser"))
        for _ in range(3):
            code, _ = _run(["fit", "--data", str(tmp_path / "missing.csv"),
                            "--grid", "0"], capsys)
            assert code == 1
        assert cli._parser() is first

    def test_seed_env_fallback(self, data_csv, tmp_path, capsys,
                               monkeypatch):
        monkeypatch.setenv("TVCM_SEED", "21")
        out = tmp_path / "envseed"
        code, _ = _run(
            ["fit", "--data", str(data_csv), "--engine", "wls", "--knots",
             "1", "--grid", "10", "--out", str(out)], capsys)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["seed"] == 21

    def test_missing_data_file_is_json_error(self, capsys):
        code, payload = _run(["fit", "--data", "/nonexistent/x.csv"], capsys)
        assert code == 1
        assert payload["error"] in ("FileNotFoundError", "OSError")

    def test_config_array_is_one_line_json_error(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "array.json"
        cfg.write_text(json.dumps([{"engine": "wls"}]))
        assert main(["fit", "--data", str(data_csv), "--config", str(cfg)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": f"{cfg}: config must be a JSON object"}

    @pytest.mark.parametrize("command", ["fit", "select", "crossval"])
    def test_missing_data_option_is_json_error(self, tmp_path, capsys, command):
        code, payload = _run([command, "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert payload == {"error": "ValueError", "message": f"{command} requires --data"}
        assert not (tmp_path / "out").exists()

    def test_knot_count_per_coefficient_mismatch(self, demo_csv, tmp_path, capsys):
        """Two --knots counts on the demo panel's three coefficients."""
        code, payload = _run(["fit", "--data", str(demo_csv), "--knots", "1,2",
                              "--out", str(tmp_path / "fit")], capsys)
        assert code == 1
        assert payload == {"error": "ValueError",
                           "message": "--knots lists 2 counts for 3 coefficients"}

    @pytest.mark.parametrize("where, row", [("header", 1), ("id", 3)])
    def test_cell_over_csv_field_limit_is_json_error(self, tmp_path, capsys,
                                                     where, row):
        """A cell longer than csv.field_size_limit() is a parse error naming
        its row, in the header and in the row loop a non-numeric cell
        sends the file to."""
        big = "s" * 200_000
        text = {"header": f"subject,time,y,{big}\na,0,1,2\n",
                "id": f"subject,time,y\na,0,1\n{big},1,2\nb,x,3\n"}[where]
        path = tmp_path / f"long-{where}.csv"
        path.write_text(text)
        code, payload = _run(["fit", "--data", str(path), "--out",
                              str(tmp_path / "long-out")], capsys)
        assert code == 1
        assert payload["error"] == "CsvParseError"
        assert payload["message"].startswith(f"{path}: row {row} cannot be read")

    @pytest.mark.parametrize("command", ["simulate", "crossval"])
    @pytest.mark.parametrize("engine", ["wls", "gibbs"])
    @pytest.mark.parametrize("args, named", [
        (["--burnin", "-3"], "--burnin must be non-negative, got -3"),
        (["--draws", "-5"], "--draws must be non-negative (0 means the "
                            "engine default), got -5"),
    ], ids=["burnin", "draws"])
    def test_count_options_checked_before_any_work(self, tmp_path, capsys,
                                                   command, engine, args,
                                                   named):
        """simulate and crossval check --draws and --burnin as fit does,
        before reading data (a missing file would be an OSError) or
        simulating, whatever the engine."""
        if command == "simulate":
            head = ["simulate", "--engines", engine,
                    "--out-prefix", str(tmp_path / "sim")]
        else:
            head = ["crossval", "--engine", engine, "--data",
                    str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "cv.json")]
        code, payload = _run([*head, *args], capsys)
        assert code == 1
        assert payload == {"error": "ValueError", "message": named}
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, args, named", [
        ("fit", ["--kmax", "-1"], "--kmax must be non-negative, got -1"),
        ("fit", ["--degree", "-1"], "--degree must be non-negative, got -1"),
        ("select", ["--kmax", "-1"], "--kmax must be non-negative, got -1"),
        ("select", ["--degree", "-1"], "--degree must be non-negative, got -1"),
        ("crossval", ["--kmax", "-1"], "--kmax must be non-negative, got -1"),
        ("crossval", ["--degree", "-1"], "--degree must be non-negative, got -1"),
        ("crossval", ["--folds", "1"], "--folds must be at least 2, got 1"),
        ("simulate", ["--kmax", "-1"], "--kmax must be non-negative, got -1"),
        ("simulate", ["--degree", "-1"], "--degree must be non-negative, got -1"),
        ("simulate", ["--reps", "0"], "--reps must be at least 1, got 0"),
        ("simulate", ["--n", "0"], "--n must be at least 1, got 0"),
        ("simulate", ["--families", "radial,bar"],
         "--families must be a comma list from radial,tpower, got 'radial,bar'"),
        ("simulate", ["--engines", "foo"],
         "--engines must be a comma list from wls,gibbs,vb, got 'foo'"),
        ("simulate", ["--engines", "wls,wls", "--families", "radial,radial", "--reps", "1"],
         "--engines lists wls more than once, got 'wls,wls'"),
        ("simulate", ["--families", "radial,tpower,radial"],
         "--families lists radial more than once, got 'radial,tpower,radial'"),
        ("fit", ["--bandwidth", "nan"], "--bandwidth must be positive and finite, got nan"),
        ("fit", ["--bandwidth", "0"], "--bandwidth must be positive and finite, got 0.0"),
        ("fit", ["--bandwidth", "-3"], "--bandwidth must be positive and finite, got -3.0"),
        ("fit", ["--bandwidth", "inf"], "--bandwidth must be positive and finite, got inf"),
        ("fit", ["--time-domain", "nan,200"], "--time-domain bounds must be finite, got 'nan,200'"),
        ("select", ["--time-domain=-inf,200"], "--time-domain bounds must be finite, got '-inf,200'"),
        ("crossval", ["--time-domain", "0,inf"], "--time-domain bounds must be finite, got '0,inf'"),
    ], ids=["fit-kmax", "fit-degree", "select-kmax", "select-degree",
            "crossval-kmax", "crossval-degree", "crossval-folds",
            "simulate-kmax", "simulate-degree", "simulate-reps", "simulate-n",
            "simulate-families", "simulate-engines", "simulate-engines-repeated",
            "simulate-families-repeated", "fit-bandwidth-nan",
            "fit-bandwidth-zero", "fit-bandwidth-negative", "fit-bandwidth-inf",
            "fit-domain-nan", "select-domain-minus-inf", "crossval-domain-inf"])
    def test_out_of_range_options_checked_before_any_work(self, tmp_path,
                                                          capsys, command,
                                                          args, named):
        """Each command names an out-of-range option before reading data (a
        missing file would be an OSError) or simulating."""
        if command == "simulate":
            head = ["simulate", "--out-prefix", str(tmp_path / "sim")]
        else:
            head = [command, "--data", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "out")]
        code, payload = _run([*head, *args], capsys)
        assert code == 1
        assert payload == {"error": "ValueError", "message": named}
        assert not list(tmp_path.iterdir())

    def test_negative_time_domain_bound_parses_as_a_value(self, demo_csv,
                                                          tmp_path, capsys):
        """--time-domain -1,130 reaches the domain parser as --time-domain=-1,130
        does, and writes the same select.json; fit, select and crossval each
        name a non-finite bound given either way."""
        outs = []
        for form in (["--time-domain", "-1,130"], ["--time-domain=-1,130"], []):
            outs.append(tmp_path / f"select{len(outs)}.json")
            code, _ = _run(["select", "--data", str(demo_csv), "--kmax", "2",
                            *form, "--out", str(outs[-1])], capsys)
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() != outs[2].read_bytes()
        for command in ("fit", "select", "crossval"):
            out = tmp_path / ("run" if command == "fit" else f"{command}.json")
            code, payload = _run([command, "--data", str(demo_csv), "--time-domain",
                                  "-inf,130", "--out", str(out)], capsys)
            assert code == 1
            assert payload == {"error": "ValueError",
                               "message": "--time-domain bounds must be finite, got '-inf,130'"}

    @pytest.mark.parametrize("command, args, named", [
        ("fit", ["--out", "{tmp}/file"], "--out '{tmp}/file' is not a directory and cannot be made one"),
        ("fit", ["--out", "{tmp}/file/run"],
         "--out '{tmp}/file/run' is not a directory and cannot be made one"),
        ("fit", ["--out", ""], "--out '' is not a directory and cannot be made one"),
        ("select", ["--out", "{tmp}/missing/select.json"],
         "--out '{tmp}/missing/select.json': directory '{tmp}/missing' does not exist"),
        ("select", ["--out", "{tmp}"], "--out '{tmp}' does not name a file"),
        ("select", ["--out", ""], "--out '' does not name a file"),
        ("crossval", ["--out", "{tmp}/missing/cv.json"],
         "--out '{tmp}/missing/cv.json': directory '{tmp}/missing' does not exist"),
        ("simulate", ["--out-prefix", "{tmp}/missing/sim", "--reps", "1"],
         "--out-prefix '{tmp}/missing/sim_report.csv': directory '{tmp}/missing' does not exist"),
    ], ids=["fit-file", "fit-under-file", "fit-empty", "select-missing-dir",
            "select-dir", "select-empty", "crossval-missing-dir",
            "simulate-missing-dir"])
    def test_unwritable_outputs_checked_before_any_work(self, tmp_path,
                                                        capsys, command,
                                                        args, named):
        """Each command names an output path it cannot write before reading
        data (a missing file would be an OSError) or simulating, and writes
        nothing."""
        (tmp_path / "file").write_text("kept\n")
        tmp = str(tmp_path)
        head = [command]
        if command != "simulate":
            head += ["--data", str(tmp_path / "missing.csv")]
        code, payload = _run([*head, *(a.format(tmp=tmp) for a in args)], capsys)
        assert code == 1
        assert payload == {"error": "ValueError", "message": named.format(tmp=tmp)}
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_singular_design_is_json_error(self, tmp_path, capsys):
        """Every engine refuses an underdetermined and a collinear design
        with the same typed error."""
        panels = {"tiny": ("a,0.5,1.0\na,0.5,2.0\n", "InsufficientDataError"),
                  "collinear": ("a,0.5,1.0\na,0.5,2.0\nb,0.5,3.0\n",
                                "SingularDesignError")}
        for name, (rows, error) in panels.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("subject,time,y\n" + rows)
            for engine in ("wls", "gibbs", "vb"):
                code, payload = _run(
                    ["fit", "--data", str(path), "--engine", engine,
                     "--knots", "0", "--degree", "1",
                     "--out", str(tmp_path / f"{name}-{engine}")], capsys)
                assert code == 1
                assert payload["error"] == error, (name, engine, payload)

    def test_domain_too_wide_is_typed_error(self, tmp_path, capsys):
        """Finite times whose span b - a overflows: select warns nothing
        and names the domain with a typed error."""
        path = tmp_path / "wide.csv"
        path.write_text("subject,time,y\na,-1e308,1.0\na,1e308,2.0\nb,-1e308,0.5\nb,1e308,1.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = _run(["select", "--data", str(path), "--degree", "0", "--kmax", "1",
                                  "--out", str(tmp_path / "select.json")], capsys)
        assert code == 1
        assert payload["error"] == "KnotError"
        assert "time domain (-1e+308, 1e+308) is too wide" in payload["message"]

    def test_fit_on_too_wide_domain_is_typed_error(self, tmp_path, capsys):
        """A fit that needs no knots on finite times whose span b - a
        overflows: the curve grid cannot be built, so fit warns nothing,
        writes no curves.csv and names the domain with a typed error."""
        path = tmp_path / "wide.csv"
        path.write_text("subject,time,y\na,-1e308,1.0\na,1e308,2.0\nb,-1e308,0.5\nb,1e308,1.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = _run(["fit", "--data", str(path), "--family", "tpower", "--degree", "0",
                                  "--knots", "0", "--engine", "wls", "--out", str(tmp_path / "fit")], capsys)
        assert code == 1
        assert payload["error"] == "KnotError"
        assert "time domain (-1e+308, 1e+308) is too wide" in payload["message"]
        assert not (tmp_path / "fit" / "curves.csv").exists()

    def test_overflowing_crossval_prints_one_line(self, tmp_path):
        """A degree-2 design on times near 1e200 overflows; every engine's
        crossval exits 1 with one typed JSON line and nothing else on fd 1."""
        rows = [f"s{i},{(j + 1) * 1e200!r},{(i + j) % 3 * 0.5!r}" for i in range(6) for j in range(4)]
        path = tmp_path / "huge.csv"
        path.write_text("subject,time,y\n" + "\n".join(rows) + "\n")
        for engine in ("wls", "gibbs", "vb"):
            proc = subprocess.run(
                [sys.executable, "-m", "tvcm.cli", "crossval", "--data", str(path), "--degree", "2",
                 "--knots", "0", "--engine", engine, "--out", str(tmp_path / "crossval.json")],
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 1, proc.stderr
            [line] = proc.stdout.splitlines()
            error = getattr(tvcm.errors, json.loads(line)["error"], None)
            assert isinstance(error, type) and issubclass(error, tvcm.errors.TvcmError), line

    def test_non_finite_number_writes_no_file(self, data_csv, tmp_path, capsys, monkeypatch):
        """A nan sigma2 exits 1 with a NumericalError naming fit.json, and
        fit.json is not written: no number is written as null in its place."""
        fit_engine = cli.fit_engine
        monkeypatch.setattr(cli, "fit_engine", lambda *args, **kwargs: dataclasses.replace(
            fit_engine(*args, **kwargs), sigma2_hat=float("nan")))
        out = tmp_path / "fit"
        code = main(["fit", "--data", str(data_csv), "--engine", "wls", "--knots", "1", "--out", str(out)])
        [line] = capsys.readouterr().out.splitlines()
        assert code == 1
        assert json.loads(line) == {
            "error": "NumericalError",
            "message": f"{out / 'fit.json'}: Out of range float values are not JSON compliant: nan"}
        assert not (out / "fit.json").exists()

    _SCALED_RUNS = {
        "fit-wls": ["fit", "--engine", "wls", "--knots", "2"],
        "fit-wls-boot": ["fit", "--engine", "wls", "--knots", "2", "--boot", "20"],
        "fit-gibbs": ["fit", "--engine", "gibbs", "--knots", "2", "--draws", "200", "--burnin", "20"],
        "fit-vb": ["fit", "--engine", "vb", "--knots", "2", "--draws", "200"],
        "select": ["select", "--kmax", "2"],
        "crossval": ["crossval", "--knots", "2"],
        "crossval-loo": ["crossval", "--knots", "2", "--folds", "1579"],
    }

    @staticmethod
    def _scaled_demo(demo_csv, path, c):
        """The demo panel with each response times c, written cell by cell:
        past the response bound no dataset can hold it."""
        with open(demo_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        y = rows[0].index("y")
        for row in rows[1:]:
            row[y] = repr(float(row[y]) * c)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    @pytest.mark.parametrize("c", [1e153, 1e154, 1e300])
    def test_responses_past_bound_are_data_errors(self, demo_csv, tmp_path, capsys, c):
        """max |y| = 28 c above sqrt(float max)/2: every command exits 1
        with one JSON line naming the responses, and writes nothing."""
        path = self._scaled_demo(demo_csv, tmp_path / "scaled.csv", c)
        for name, args in self._SCALED_RUNS.items():
            out = tmp_path / name
            code = main([*args, "--data", str(path), "--out", str(out)])
            [line] = capsys.readouterr().out.splitlines()
            assert code == 1, name
            payload = json.loads(line)
            assert payload["error"] == "DataError", (name, payload)
            assert payload["message"].startswith("responses must be at most 6.7e+153 in magnitude"), name
            assert not out.exists(), name

    @pytest.mark.parametrize("c", [1e152, 2e152])
    def test_responses_within_bound_give_finite_numbers(self, demo_csv, tmp_path, capsys, c):
        """max |y| = 28 c, up to 5.6e153, within the bound: every command
        exits 0, and its estimates, sigma2, PCV and AMSE are finite."""
        path = self._scaled_demo(demo_csv, tmp_path / "scaled.csv", c)
        for name, args in self._SCALED_RUNS.items():
            out = tmp_path / name
            code, payload = _run([*args, "--data", str(path), "--out", str(out)], capsys)
            assert code == 0, (name, payload)
            if args[0] == "fit":
                fit = json.loads((out / "fit.json").read_text())
                values = [v for block in fit["alpha"].values() for v in block]
                values += [fit["sigma2"], fit["wls_sigma2"], *fit.get("dic", {}).values()]
                values += [float(row["estimate"]) for row in _read_curves(out)]
            elif args[0] == "select":
                values = [row["pcv"] for row in json.loads(out.read_text())["table"]]
            else:
                values = [json.loads(out.read_text())["amse"]]
            assert all(isinstance(v, float) and np.isfinite(v) for v in values), name

    def test_module_entry_point(self, data_csv, tmp_path):
        """One true subprocess run through the installed console script."""
        out = tmp_path / "subproc"
        proc = subprocess.run(
            [sys.executable, "-m", "tvcm.cli", "fit", "--data",
             str(data_csv), "--engine", "wls", "--knots", "1", "--grid",
             "10", "--seed", "2", "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload["status"] == "ok"

    def test_runtime_imports_no_scipy(self, demo_csv, tmp_path):
        """Importing tvcm and running every engine and a simulate cell
        loads no SciPy module: the runtime needs NumPy only."""
        script = (
            "import json, sys\n"
            "import tvcm, tvcm.cli\n"
            "data, out = sys.argv[1], sys.argv[2]\n"
            "sampler = ['--draws', '100', '--burnin', '10']\n"
            "runs = [['fit', '--data', data, '--engine', e, '--knots', '2',\n"
            "         *sampler, '--out', f'{out}/{e}'] for e in ('wls', 'gibbs', 'vb')]\n"
            "runs.append(['simulate', '--n', '8', '--reps', '1', '--kmax', '2',\n"
            "             '--engines', 'wls', '--families', 'radial',\n"
            "             '--out-prefix', f'{out}/sim'])\n"
            "codes = [tvcm.cli.main(args) for args in runs]\n"
            "print(json.dumps({'codes': codes, 'scipy': sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))}))\n")
        src = str(pathlib.Path(tvcm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(demo_csv), str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload == {"codes": [0, 0, 0, 0], "scipy": []}


# ---------------------------------------------------------------------------
# Parser and defaults
# ---------------------------------------------------------------------------


class TestParserDefaults:
    _MODEL = {"family": "radial", "degree": 2, "kmax": 10, "strategy": "auto",
              "time_domain": None, "seed": 0, "data": "panel.csv"}

    @pytest.mark.parametrize("command, expected", [
        ("fit", {**_MODEL, "knots": "auto", "placement": "equal",
                 "bandwidth": None, "engine": "gibbs", "draws": 2000,
                 "burnin": 500, "boot": 0, "tol": 1e-6, "level": 0.95,
                 "grid": 200, "out": "."}),
        ("select", {**_MODEL, "out": "select.json"}),
        ("simulate", {"scenario": 1, "n": 25, "reps": 50, "engines": "wls",
                      "families": "radial,tpower", "degree": 2, "kmax": 5,
                      "draws": 0, "burnin": 500, "level": "weak",
                      "shape": "exp", "strategy": "auto",
                      "out_prefix": "sim", "seed": 0}),
        ("crossval", {**_MODEL, "knots": "auto", "folds": 5, "engine": "wls",
                      "draws": 0, "burnin": 500, "out": "crossval.json"}),
    ], ids=["fit", "select", "simulate", "crossval"])
    def test_resolved_defaults(self, monkeypatch, command, expected):
        """With only its required flags, each command resolves to these
        options: the defaults the parser declares, the seed and the data."""
        monkeypatch.delenv("TVCM_SEED", raising=False)
        argv = [command] + (["--data", "panel.csv"] if "data" in expected else [])
        args = cli._parser().parse_args(argv)
        assert cli._resolve(args, argv) == expected

    def test_fit_defaults_are_library_constants(self):
        """fit's sampler defaults are the library's, declared once."""
        args = cli._parser().parse_args(["fit", "--data", "panel.csv"])
        assert (args.draws, args.burnin, args.tol) == (mcmc.DEFAULT_DRAWS, mcmc.DEFAULT_BURNIN,
                                                       vb.DEFAULT_TOL)

    def test_model_options_shared(self):
        shared = ["data", "family", "degree", "kmax", "strategy", "time_domain"]
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        defaults = {}
        for command in ("fit", "select", "crossval"):
            parser = sub.choices[command]
            defaults[command] = [parser.get_default(k) for k in shared]
            assert set(shared) <= {a.dest for a in parser._actions}
        assert defaults["select"] == defaults["crossval"] == defaults["fit"]

    def test_simulate_rejects_data_key(self, tmp_path, capsys):
        """simulate takes no --data flag, so a config may not give one."""
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"data": "panel.csv"}))
        code, payload = _run(["simulate", "--config", str(cfg), "--n", "5",
                              "--reps", "1", "--kmax", "1", "--out-prefix",
                              str(tmp_path / "sim")], capsys)
        assert code == 1
        assert payload == {
            "error": "ValueError",
            "message": "unknown config key 'data' for command 'simulate'"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]

    @pytest.mark.parametrize("key", ["config", "help"])
    def test_config_and_help_keys_rejected(self, data_csv, tmp_path, capsys,
                                           key):
        cfg = tmp_path / "meta.json"
        cfg.write_text(json.dumps({key: "other.json"}))
        code, payload = _run(["fit", "--data", str(data_csv), "--config",
                              str(cfg)], capsys)
        assert code == 1
        assert payload == {
            "error": "ValueError",
            "message": f"unknown config key {key!r} for command 'fit'"}

    @pytest.mark.parametrize("command", ["select", "crossval"])
    @pytest.mark.parametrize("key", ["placement", "bandwidth"])
    def test_fit_only_keys_rejected(self, data_csv, tmp_path, capsys,
                                    command, key):
        cfg = tmp_path / "fit-only.json"
        cfg.write_text(json.dumps({key: "quantile" if key == "placement" else 5.0}))
        code, payload = _run(
            [command, "--data", str(data_csv), "--config", str(cfg),
             "--out", str(tmp_path / "x.json")], capsys)
        assert code == 1
        assert payload == {
            "error": "ValueError",
            "message": f"unknown config key {key!r} for command {command!r}"}


def _close(got, want, rel, abs_tol) -> bool:
    """Floats within rel relative (abs_tol absolute near zero); other values equal and of one type."""
    if isinstance(want, float) and isinstance(got, float):
        return got == pytest.approx(want, rel=rel, abs=abs_tol, nan_ok=True)
    return type(got) is type(want) and got == want


def test_artifacts_match_golden(demo_csv, tmp_path):
    """Every artifact of the runs in tests/golden/artifacts.json, written by
    scripts/make_goldens.py, has the recorded fingerprint: the same keys,
    integers, booleans and nulls equal, floats within make_goldens.py's
    artifacts.json tolerance, relative with an absolute floor near zero.
    That is loose enough for a change of BLAS summation order, and a number
    that moves by more fails the test."""
    want = json.loads((REPO_ROOT / "tests" / "golden" / "artifacts.json").read_text())
    script = golden_script()
    tolerance = script.TOLERANCES["artifacts.json"]
    got = script.artifact_records(tmp_path)
    assert got.keys() == want.keys()
    for name, record in want.items():
        assert got[name].keys() == record.keys(), name
        moved = {key: (got[name][key], value) for key, value in record.items()
                 if not _close(got[name][key], value, *tolerance)}
        assert not moved, f"{name}: {moved}"


def test_headroom_reads_drift_as_share_of_tolerance():
    """make_goldens.py --headroom's rule: the entry nearest its tolerance,
    with the absolute floor near zero; NaN against NaN, and inf against inf,
    is no drift; any other change of a non-float, a NaN or a key set is inf."""
    worst = golden_script().worst_drift
    want = {"a": 2.0, "b": 0.0, "c": [1, 2], "d": float("nan"), "e": float("inf")}
    assert worst(dict(want), want, 1e-9, 1e-12) == ("", 0.0, 0.0)
    key, drift, share = worst({**want, "a": 2.0 + 1e-9}, want, 1e-9, 1e-12)
    assert key == "a" and drift == pytest.approx(5e-10) and share == pytest.approx(0.5)
    assert worst({**want, "b": 5e-13}, want, 1e-9, 1e-12)[::2] == ("b", pytest.approx(0.5))
    for moved in ({"c": [1, 3]}, {"d": 1.0}, {"e": 1.0}, {"a": 2}):
        assert worst({**want, **moved}, want, 1e-9, 1e-12) == (next(iter(moved)), np.inf, np.inf)
    assert worst({"a": 2.0}, want, 1e-9, 1e-12) == ("<keys>", np.inf, np.inf)


# ---------------------------------------------------------------------------
# Any small panel and any options within their flags' types
# ---------------------------------------------------------------------------


@st.composite
def _cli_runs(draw):
    """(csv text, command, its arguments) for a 1-6 subject panel whose times
    may tie or be constant on a scale of 1e-3 to 1e3, or of 1e155 to 1e300,
    where powers of degree 2 and up overflow, whose responses are kept, or
    scaled by 1e-3 to 1e3, by 1e150 to 1e155, across the response bound, or
    by any power of ten from 1e-3 to 1e300, with constant covariates
    possible, and options of each flag's type for fit, select and crossval,
    the time domain's lower bound possibly negative."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    n_obs, n_cov = sum(counts), draw(st.integers(0, 2))
    scale = 10.0 ** draw(st.one_of(st.integers(-3, 3), st.integers(155, 300)))
    ticks = st.integers(0, 5) if draw(st.booleans()) else st.just(1)
    times = [scale * draw(ticks) for _ in range(n_obs)]
    cells = st.floats(-5, 5, allow_nan=False, width=16)
    y_scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-3, 3), st.integers(150, 155),
                                      st.integers(-3, 300)))
    columns = [[y_scale * y for y in draw(st.lists(cells, min_size=n_obs, max_size=n_obs))]]
    for _ in range(n_cov):
        columns.append([draw(cells)] * n_obs if draw(st.booleans())
                       else draw(st.lists(cells, min_size=n_obs, max_size=n_obs)))
    subjects = [f"s{i}" for i, c in enumerate(counts) for _ in range(c)]
    header = ",".join(["subject", "time", "y"] + [f"x{j + 1}" for j in range(n_cov)])
    rows = [",".join([sid, repr(t), *(repr(col[r]) for col in columns)])
            for r, (sid, t) in enumerate(zip(subjects, times))]
    command = draw(st.sampled_from(["fit", "select", "crossval"]))
    # now and then one option falls outside its range, as a typo would
    typo = draw(st.sampled_from(["--degree", "--kmax", "--draws", "--burnin", "--boot", "--grid", "--folds",
                                 "--level", "--bandwidth"])) if draw(st.integers(0, 9)) == 9 else None

    def option(flag, low, high, values=st.integers):
        return [flag, repr(low - 1 if flag == typo else draw(values(low, high)))]

    family = draw(st.sampled_from(["radial", "tpower"]))
    args = ["--family", family, *option("--degree", 0, 3), *option("--kmax", 0, 3),
            "--strategy", draw(st.sampled_from(["auto", "full", "coordinate"])),
            "--seed", str(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        low, high = -draw(st.integers(0, 3)), draw(st.integers(4, 7))
        args += ["--time-domain", f"{scale * low!r},{scale * high!r}"]
    knots = st.one_of(st.integers(0, 3).map(str), st.just("auto"),
                      st.lists(st.integers(0, 2).map(str), min_size=1, max_size=3).map(",".join))
    if command == "fit":
        args += ["--engine", draw(st.sampled_from(["wls", "gibbs", "vb"])), "--knots", draw(knots),
                 "--placement", draw(st.sampled_from(["equal", "quantile"])), *option("--draws", 0, 30),
                 *option("--burnin", 0, 10), *option("--boot", 0, 20), *option("--grid", 1, 12),
                 *option("--level", 0.05, 0.95, st.floats)]
        if family == "radial" and draw(st.booleans()) or typo == "--bandwidth":
            args += option("--bandwidth", 1e-5, 10.0, st.floats)
    elif command == "crossval":
        args += ["--engine", draw(st.sampled_from(["wls", "gibbs", "vb"])), "--knots", draw(knots),
                 *option("--folds", 2, 8), *option("--draws", 0, 10), *option("--burnin", 0, 5)]
    return "\n".join([header, *rows]) + "\n", command, args


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(run=_cli_runs())
def test_any_small_panel_exits_cleanly(run, tmp_path_factory):
    """fit, select and crossval either succeed (fit with finite alpha and
    sigma2 >= 0, crossval with a finite amse) or exit 1 with one JSON line
    naming a TvcmError, or a ValueError that names a --flag: never a
    traceback or another exception type."""
    text, command, args = run
    folder = tmp_path_factory.mktemp("panel")
    (folder / "panel.csv").write_text(text)
    out = folder / ("fit" if command == "fit" else f"{command}.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # calibrated_prior's zero-variance warning, overflow
        code = main([command, "--data", str(folder / "panel.csv"), *args, "--out", str(out)])
    [line] = stdout.getvalue().splitlines()
    payload = json.loads(line)
    if code == 0:
        if command == "fit":
            fit = json.loads((out / "fit.json").read_text())
            values = [v for block in fit["alpha"].values() for v in block] + [fit["sigma2"]]
            assert all(isinstance(v, float) and np.isfinite(v) for v in values), fit
            assert fit["sigma2"] >= 0, fit
        elif command == "crossval":
            assert isinstance(payload["amse"], float) and np.isfinite(payload["amse"]), payload
        return
    assert code == 1
    error = getattr(tvcm.errors, payload["error"], None)
    typed = isinstance(error, type) and issubclass(error, tvcm.errors.TvcmError)
    assert typed or (payload["error"] == "ValueError" and re.search(r"--[a-z]", payload["message"])), payload


def _numbers(value):
    """Every number in a parsed JSON value, None for null."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in _numbers(v)]
    if isinstance(value, list):
        return [n for v in value for n in _numbers(v)]
    return [value] if value is None or isinstance(value, (int, float)) else []


@st.composite
def _simulate_runs(draw):
    """simulate options of each flag's type: scenario 1 or 2, 1-6 subjects,
    one replicate, degree 0-12, --kmax 0-3, small --draws (0 is the engine
    default) and --burnin, every strategy, any engines and families; now
    and then one count falls below its range, as a typo would."""
    typo = draw(st.sampled_from(["--n", "--degree", "--kmax", "--draws", "--burnin"])) \
        if draw(st.integers(0, 9)) == 9 else None

    def option(flag, low, high):
        return [flag, str(low - 1 if flag == typo else draw(st.integers(low, high)))]

    def names(choices):
        return ",".join(draw(st.lists(st.sampled_from(choices), min_size=1, max_size=len(choices), unique=True)))

    return ["--scenario", str(draw(st.sampled_from([1, 2]))), *option("--n", 1, 6), "--reps", "1",
            *option("--degree", 0, 12), *option("--kmax", 0, 3), *option("--draws", 0, 20),
            *option("--burnin", 0, 5), "--strategy", draw(st.sampled_from(["auto", "full", "coordinate"])),
            "--engines", names(["wls", "gibbs", "vb"]), "--families", names(["radial", "tpower"]),
            "--seed", str(draw(st.integers(0, 3)))]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(args=_simulate_runs())
def test_any_small_simulate_exits_cleanly(args, tmp_path_factory):
    """simulate either succeeds, printing a summary whose numbers are finite
    or null, or exits 1 with one JSON line naming a TvcmError, or a
    ValueError that names a --flag: never a traceback or another exception type."""
    prefix = tmp_path_factory.mktemp("simulate") / "sim"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # calibrated_prior's zero-variance warning
        code = main(["simulate", *args, "--out-prefix", str(prefix)])
    [line] = stdout.getvalue().splitlines()
    payload = json.loads(line)
    if code == 0:
        assert all(v is None or np.isfinite(v) for v in _numbers(payload)), payload
        return
    assert code == 1
    error = getattr(tvcm.errors, payload["error"], None)
    typed = isinstance(error, type) and issubclass(error, tvcm.errors.TvcmError)
    assert typed or (payload["error"] == "ValueError" and re.search(r"--[a-z]", payload["message"])), payload
