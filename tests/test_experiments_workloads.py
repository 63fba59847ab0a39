"""Tests for repro.experiments.workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.occupancy_state import OccupancyState
from repro.core.state import Configuration
from repro.engine.batch import BATCH_ENGINES
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_cell
from repro.experiments.workloads import (
    WORKLOAD_REGISTRY,
    all_distinct_workload,
    blocks_workload,
    make_occupancy_workload,
    make_workload,
    planted_majority_workload,
    two_bins_workload,
    uniform_random_workload,
    zipf_workload,
)


class TestRegistry:
    def test_all_names_present(self):
        for name in ("all-distinct", "two-bins", "uniform-random", "blocks",
                     "zipf", "planted-majority"):
            assert name in WORKLOAD_REGISTRY

    def test_make_workload_unknown(self):
        with pytest.raises(KeyError):
            make_workload("nope", n=10)

    def test_make_workload_dispatch(self):
        cfg = make_workload("all-distinct", n=12)
        assert isinstance(cfg, Configuration) and cfg.n == 12


class TestFixedWorkloads:
    def test_all_distinct(self):
        cfg = all_distinct_workload(20)
        assert cfg.num_values == 20

    def test_two_bins_default_balanced(self):
        cfg = two_bins_workload(20)
        assert cfg.count_value(0) == 10 and cfg.count_value(1) == 10

    def test_two_bins_custom(self):
        cfg = two_bins_workload(20, minority=3, low=5, high=9)
        assert cfg.count_value(5) == 3 and cfg.count_value(9) == 17

    @pytest.mark.parametrize("low, high", [(0, 1), (1, 0), (3, 3)])
    def test_two_bins_runs_on_every_engine(self, low, high):
        # the count form has the loads of the counted value form for any
        # pair, so a cell runs whatever engine it resolves to
        params = {"n": 64, "minority": 20, "low": low, "high": high}
        counted = OccupancyState.from_configuration(make_workload("two-bins", **params))
        assert make_occupancy_workload("two-bins", **params).loads == counted.loads
        for engine in BATCH_ENGINES:
            cell = ExperimentConfig(name=f"two-bins-{engine}", workload="two-bins",
                                    workload_params=params, num_runs=2,
                                    max_rounds=30, engine=engine)
            assert run_cell(cell).num_runs == 2

    def test_blocks_equal_loads(self):
        cfg = blocks_workload(100, 4)
        loads = list(cfg.loads.values())
        assert loads == [25, 25, 25, 25]

    def test_blocks_near_equal_when_not_divisible(self):
        cfg = blocks_workload(10, 3)
        loads = sorted(cfg.loads.values())
        assert sum(loads) == 10
        assert max(loads) - min(loads) <= 1

    def test_blocks_m_equals_n(self):
        cfg = blocks_workload(8, 8)
        assert cfg.num_values == 8

    def test_blocks_invalid_m(self):
        with pytest.raises(ValueError):
            blocks_workload(10, 0)
        with pytest.raises(ValueError):
            blocks_workload(10, 11)


class TestRandomWorkloads:
    def test_uniform_random_factory(self, rng):
        factory = uniform_random_workload(200, 6)
        cfg = factory(rng)
        assert cfg.n == 200
        assert set(cfg.support.tolist()) <= set(range(6))

    def test_uniform_random_loads_roughly_equal(self, rng):
        factory = uniform_random_workload(6000, 6)
        cfg = factory(rng)
        loads = np.array(list(cfg.loads.values()))
        assert np.all(np.abs(loads - 1000) < 200)

    def test_uniform_random_invalid_m(self):
        with pytest.raises(ValueError):
            uniform_random_workload(10, 0)

    def test_zipf_skewed_towards_small_values(self, rng):
        factory = zipf_workload(5000, 10, exponent=1.5)
        cfg = factory(rng)
        loads = cfg.loads
        assert loads.get(0, 0) > loads.get(9, 0)

    def test_zipf_invalid(self):
        with pytest.raises(ValueError):
            zipf_workload(10, 0)
        with pytest.raises(ValueError):
            zipf_workload(10, 3, exponent=0)

    def test_planted_majority_bias(self, rng):
        factory = planted_majority_workload(4000, 5, bias=0.5, planted_value=0)
        cfg = factory(rng)
        frac = cfg.count_value(0) / cfg.n
        assert 0.45 < frac < 0.75   # 0.5 planted + share of the uniform remainder

    def test_planted_majority_invalid(self):
        with pytest.raises(ValueError):
            planted_majority_workload(10, 1)
        with pytest.raises(ValueError):
            planted_majority_workload(10, 3, bias=1.5)

    def test_factories_differ_across_rngs(self):
        factory = uniform_random_workload(50, 4)
        a = factory(np.random.default_rng(1))
        b = factory(np.random.default_rng(2))
        assert a != b

    def test_factories_reproducible_for_same_rng_state(self):
        factory = uniform_random_workload(50, 4)
        a = factory(np.random.default_rng(3))
        b = factory(np.random.default_rng(3))
        assert a == b
