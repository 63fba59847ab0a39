"""Tests for repro.io and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.state import Configuration
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import simulate
from repro.io.serialization import (
    from_jsonable,
    load_result_summary,
    load_rounds_npz,
    load_trajectory_npz,
    save_result_summary,
    save_rounds_npz,
    save_trajectory_npz,
    to_jsonable,
)
from repro.io.tables import render_kv, render_table


class TestSerialization:
    def test_result_summary_roundtrip(self, tmp_path):
        res = simulate(Configuration.all_distinct(32), seed=0)
        path = save_result_summary(res, tmp_path / "run.json")
        loaded = load_result_summary(path)
        assert loaded["n"] == 32
        assert loaded["consensus_reached"] is True
        assert loaded["consensus_round"] == res.consensus_round

    def test_trajectory_metrics_roundtrip(self, tmp_path):
        res = simulate(Configuration.all_distinct(32), seed=1, record=RecordLevel.METRICS)
        path = save_trajectory_npz(res.trajectory, tmp_path / "traj.npz")
        data = load_trajectory_npz(path)
        assert "support_size" in data and "minority" in data
        assert data["support_size"].shape[0] == res.rounds_executed + 1
        assert data["support_size"][-1] == 1

    def test_trajectory_full_roundtrip(self, tmp_path):
        res = simulate(Configuration.all_distinct(16), seed=2, record=RecordLevel.FULL)
        path = save_trajectory_npz(res.trajectory, tmp_path / "full.npz")
        data = load_trajectory_npz(path)
        assert data["configurations"].shape == (res.rounds_executed + 1, 16)

    def test_rounds_npz_roundtrip(self, tmp_path):
        rounds = {"n=64": np.array([10.0, 12.0]), "n=128/adv": np.array([20.0, np.nan])}
        path = save_rounds_npz(rounds, tmp_path / "rounds.npz")
        loaded = load_rounds_npz(path)
        assert set(loaded) == {"n=64", "n=128_adv"}
        assert np.array_equal(loaded["n=64"], rounds["n=64"])

    def test_summary_json_is_valid(self, tmp_path):
        res = simulate(Configuration.all_distinct(16), seed=3)
        path = save_result_summary(res, tmp_path / "x.json")
        json.loads(path.read_text())   # should not raise


class TestNonFiniteJson:
    """The explicit NaN/inf encoding convention of repro.io.serialization."""

    def test_roundtrip(self):
        value = {"a": float("nan"), "b": [1.5, float("inf"), float("-inf")],
                 "c": {"nested": np.float64("nan")}, "d": "text", "e": 3}
        encoded = to_jsonable(value)
        # strict JSON: no NaN/Infinity literals anywhere in the payload
        text = json.dumps(encoded, allow_nan=False)
        decoded = from_jsonable(json.loads(text))
        assert np.isnan(decoded["a"]) and np.isnan(decoded["c"]["nested"])
        assert decoded["b"] == [1.5, float("inf"), float("-inf")]
        assert decoded["d"] == "text" and decoded["e"] == 3

    def test_encoding_shape(self):
        assert to_jsonable(float("nan")) == {"__float__": "nan"}
        assert to_jsonable(float("inf")) == {"__float__": "inf"}
        assert to_jsonable(float("-inf")) == {"__float__": "-inf"}
        assert to_jsonable(1.25) == 1.25

    def test_nonfinite_array_roundtrips(self):
        arr = np.array([1.0, np.nan, np.inf])
        decoded = from_jsonable(json.loads(
            json.dumps(to_jsonable(arr), allow_nan=False)))
        assert decoded[0] == 1.0 and np.isnan(decoded[1]) and np.isinf(decoded[2])

    def test_nonconverged_summary_is_strict_json(self, tmp_path):
        # a run that cannot converge within the horizon has NaN metrics
        res = simulate(Configuration.all_distinct(64), seed=4, max_rounds=1)
        path = save_result_summary(res, tmp_path / "nf.json")
        # strict parse: reject any NaN/Infinity literal the encoder missed
        json.loads(path.read_text(),
                   parse_constant=lambda name: pytest.fail(name))
        loaded = load_result_summary(path)
        assert loaded["consensus_reached"] is False


class TestTables:
    def test_render_table(self):
        out = render_table([{"x": 1}, {"x": 2}])
        assert "| x" in out

    def test_render_kv(self):
        out = render_kv({"alpha": 1, "b": "two"}, title="stuff")
        assert "stuff" in out and "alpha" in out and "two" in out

    def test_render_kv_empty(self):
        assert render_kv({}) == "(empty)"


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--n", "64"])
        assert args.command == "simulate" and args.n == 64

    def test_no_command_shows_help(self, capsys):
        rc = main([])
        assert rc == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_rules_listing(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "median" in out and "balancing" in out and "uniform-random" in out

    def test_simulate_command(self, capsys):
        rc = main(["simulate", "--n", "64", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "consensus_reached" in out

    def test_simulate_with_adversary(self, capsys):
        rc = main(["simulate", "--n", "128", "--workload", "two-bins",
                   "--adversary", "balancing", "--budget", "2",
                   "--max-rounds", "300", "--seed", "2"])
        assert rc == 0
        assert "almost_stable" in capsys.readouterr().out

    def test_simulate_uniform_workload_with_m(self, capsys):
        rc = main(["simulate", "--n", "64", "--workload", "uniform-random",
                   "--m", "5", "--seed", "3"])
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["--rule", "nosuch"],
        ["--engine", "occupancy", "--rule", "mean"],
        ["--engine", "occupancy", "--n", "20001"],
        ["--workload", "blocks"],
        ["--n", "0"],
        ["--workload", "blocks", "--m", "0"],
        ["--adversary", "balancing", "--budget", "-1"],
        ["--max-rounds", "-5"],
        ["--seed", "-1"],
    ], ids=["unknown-rule", "rule-without-kernel", "support-too-wide",
            "workload-without-m", "no-processes", "blocks-without-values",
            "negative-budget", "negative-horizon", "negative-seed"])
    def test_simulate_refuses_bad_arguments_without_traceback(self, argv):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "repro", "simulate", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--runs", "0"],
        ["--scale", "-1"],
        ["--workers", "-2"],
        ["--store", "{store}", "--retries", "0"],
        ["--store", "{store}", "--deadline", "0"],
        ["--store", "{store}", "--sidecar-at", "-3"],
    ], ids=["no-runs", "negative-scale", "negative-workers", "no-retries",
            "no-deadline", "negative-sidecar"])
    def test_sweep_refuses_bad_arguments_without_traceback(self, argv, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        # the case's own --runs or --scale comes last, so it wins
        argv = ["--scale", "0.1", "--runs", "2",
                *(arg.format(store=tmp_path / "store") for arg in argv)]
        proc = subprocess.run([sys.executable, "-m", "repro", "sweep", "theorem1", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["store", "ls"],
        ["store", "info"],
        ["store", "gc"],
        ["sweep", "theorem1", "--scale", "0.1", "--runs", "2", "--from-store"],
    ], ids=["store-ls", "store-info", "store-gc", "sweep-from-store"])
    def test_read_only_commands_refuse_a_missing_store(self, argv, tmp_path,
                                                       capsys):
        missing = tmp_path / "missing"
        assert main([*argv, "--store", str(missing)]) == 2
        assert f"error: no result store at {missing}" in capsys.readouterr().err
        assert not missing.exists()

    def test_sweep_command_with_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        rc = main(["sweep", "theorem1", "--scale", "0.3", "--runs", "2",
                   "--json", str(json_path), "--csv", str(csv_path)])
        assert rc == 0
        assert json_path.exists() and csv_path.exists()
        out = capsys.readouterr().out
        assert "Scaling fits" in out

    def test_figure1_command(self, capsys):
        rc = main(["figure1", "--scale", "0.15", "--runs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst-case 2 bins" in out
