"""Tests for the order in which the backends start a sweep's cells.

The pool and the fleet workers start cells in descending
:func:`repro.experiments.runner.cell_work_bound` (ties in sweep order) through
:func:`repro.store.backends.longest_first`; the serial backend and the
runner's partition keep sweep order.  Reports are by sweep position either
way.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace

import pytest

import repro.store.backends as store_backends_mod
import repro.store.shard as shard_mod
from repro.core.consensus import default_max_rounds
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.figures import FIGURE_REGISTRY
from repro.experiments.runner import cell_work_bound, run_sweep
from repro.store import CachedSweepRunner, ResultStore, ShardWorker
from repro.store.backends import longest_first, recommended_workers


def _config(name, n, num_runs=3, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(name=name, workload="all-distinct",
                            workload_params={"n": n}, num_runs=num_runs,
                            seed=11, **kwargs)


def _longest_last() -> SweepConfig:
    """Three cells whose longest (by bound) comes last in sweep order."""
    sweep = SweepConfig(name="order", description="longest cell last")
    sweep.add(_config("short", 32))
    sweep.add(_config("middle", 48))
    sweep.add(_config("long", 64, num_runs=6))
    return sweep


class _Captured(Exception):
    def __init__(self, sweep: SweepConfig) -> None:
        super().__init__(sweep.name)
        self.sweep = sweep


class _Capture:
    """A sweep runner that runs nothing: it hands the sweep back."""

    def run(self, sweep):
        raise _Captured(sweep)


def _paper_cells():
    cells = []
    for figure_fn in FIGURE_REGISTRY.values():
        with pytest.raises(_Captured) as caught:
            figure_fn(runner=_Capture())
        cells += caught.value.sweep.cells
    return cells


def _recording(calls, real):
    def run_cell(cell):
        calls.append(cell.name)
        return real(cell)
    return run_cell


class TestWorkBound:
    def test_horizon_times_runs_times_round_size(self):
        value_space = _config("v", 64, num_runs=5)
        assert cell_work_bound(value_space) == default_max_rounds(64) * 5 * 64
        count_space = ExperimentConfig(
            name="c", workload="blocks", workload_params={"n": 4096, "m": 8},
            num_runs=4, max_rounds=70, engine="occupancy-fused")
        assert cell_work_bound(count_space) == 70 * 4 * 8

    def test_pure_function_of_the_config(self):
        for cell in _paper_cells():
            bound = cell_work_bound(cell)
            assert bound > 0
            assert cell_work_bound(ExperimentConfig.from_dict(cell.to_dict())) == bound
            assert cell_work_bound(replace(cell, name="relabelled")) == bound

    def test_voter_cell_ranks_first_of_the_paper_cells(self):
        cells = _paper_cells()
        assert len(cells) == 63
        order = longest_first(cells, range(len(cells)))
        assert sorted(order) == list(range(len(cells)))
        assert cells[order[0]].rule == "voter"
        assert cells[order[0]].name == "rule=voter"

    def test_equal_bounds_keep_sweep_order(self):
        cells = _paper_cells()
        order = longest_first(cells, range(len(cells)))
        bounds = [cell_work_bound(cells[i]) for i in order]
        assert bounds == sorted(bounds, reverse=True)
        for a, b in zip(order, order[1:]):
            if cell_work_bound(cells[a]) == cell_work_bound(cells[b]):
                assert a < b
        twins = [_config(f"twin{i}", 48) for i in range(4)]
        assert longest_first(twins, [3, 1, 2, 0]) == [0, 1, 2, 3]

    def test_refused_parameters_bound_zero(self):
        # the engine refuses a negative horizon at once; ordering must not
        assert cell_work_bound(_config("bad", 32, max_rounds=-1)) == 0
        cells = [_config("bad", 32, max_rounds=-1), _config("ok", 32)]
        assert longest_first(cells, [0, 1]) == [1, 0]


class TestDispatchOrder:
    def test_shard_worker_computes_longest_cell_first(self, tmp_path,
                                                      monkeypatch):
        calls = []
        monkeypatch.setattr(shard_mod, "run_cell",
                            _recording(calls, shard_mod.run_cell))
        sweep = _longest_last()
        results = ShardWorker(ResultStore(tmp_path / "store")).run(sweep)
        assert calls == ["long", "middle", "short"]
        assert [results[i].config.name for i in range(3)] == \
            ["short", "middle", "long"]

    def test_pool_submits_longest_cell_first(self, monkeypatch):
        submitted = []

        def submit(self, fn, *args):
            # in-process: record the order, start no worker process
            submitted.append(args[0].name)
            future = Future()
            future.set_result(fn(*args))
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        sweep = _longest_last()
        report = run_sweep(sweep, max_workers=2)
        assert submitted == ["long", "middle", "short"]
        assert [c.config.name for c in report.cells] == \
            ["short", "middle", "long"]
        assert report.cells == run_sweep(sweep, max_workers=0).cells

    def test_serial_and_partition_keep_sweep_order(self, tmp_path,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(store_backends_mod, "run_cell",
                            _recording(calls, store_backends_mod.run_cell))
        runner = CachedSweepRunner(ResultStore(tmp_path / "store"))
        sweep = _longest_last()
        hits, misses = runner.partition(sweep)
        assert not hits and misses == [0, 1, 2]
        runner.run(sweep)
        assert calls == ["short", "middle", "long"]


class TestRecommendedWorkers:
    @pytest.mark.parametrize("cpus, workers", [(1, 1), (8, 7)])
    def test_counts_the_cpus_this_process_may_run_on(self, monkeypatch,
                                                     cpus, workers):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert recommended_workers() == workers
