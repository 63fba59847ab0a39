"""Tests for repro.engine.batch: run_batch and the batch result record."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.strategies import BalancingAdversary
from repro.core.median_rule import MedianRule
from repro.core.multidim import VectorConfiguration, simulate_vector
from repro.core.state import Configuration
from repro.engine.asynchronous import simulate_asynchronous
from repro.engine.batch import BatchResult, run_batch
from repro.engine.occupancy import simulate_occupancy
from repro.engine.vectorized import simulate


class TestRunBatch:
    def test_fixed_initial_configuration(self):
        batch = run_batch(Configuration.all_distinct(64), num_runs=5, seed=1)
        assert batch.num_runs == 5
        assert batch.n == 64
        assert batch.convergence_fraction == 1.0
        assert np.all(batch.rounds[batch.converged] > 0)

    def test_factory_initial_configuration(self):
        def factory(rng):
            return Configuration.uniform_random(64, 5, rng)

        batch = run_batch(factory, num_runs=5, seed=2)
        assert batch.convergence_fraction == 1.0

    def test_reproducible_given_seed(self):
        a = run_batch(Configuration.all_distinct(64), num_runs=4, seed=3)
        b = run_batch(Configuration.all_distinct(64), num_runs=4, seed=3)
        assert np.array_equal(a.rounds, b.rounds, equal_nan=True)

    def test_runs_are_independent(self):
        batch = run_batch(Configuration.all_distinct(128), num_runs=8, seed=4)
        assert len(set(batch.rounds[batch.converged].tolist())) > 1

    def test_with_adversary_factory(self):
        batch = run_batch(
            Configuration.two_bins(256, minority=128),
            num_runs=4,
            adversary_factory=lambda: BalancingAdversary(budget=4),
            seed=5,
            max_rounds=500,
        )
        assert batch.convergence_fraction == 1.0

    def test_nonconvergent_runs_are_nan(self):
        # 2 rounds is not enough to reach consensus from all-distinct at n=128
        batch = run_batch(Configuration.all_distinct(128), num_runs=3, seed=7,
                          max_rounds=2)
        assert batch.convergence_fraction == 0.0
        assert np.all(np.isnan(batch.rounds))
        assert np.isnan(batch.mean_rounds)

    def test_invalid_num_runs(self):
        with pytest.raises(ValueError):
            run_batch(Configuration.all_distinct(8), num_runs=0)

    def test_summary_keys(self):
        batch = run_batch(Configuration.all_distinct(32), num_runs=3, seed=8)
        s = batch.summary()
        for key in ("n", "num_runs", "convergence_fraction", "mean_rounds",
                    "median_rounds", "p90_rounds", "max_rounds", "rule"):
            assert key in s

    def test_statistics_consistency(self):
        batch = run_batch(Configuration.all_distinct(64), num_runs=10, seed=9)
        assert batch.quantile(0.0) <= batch.median_rounds <= batch.quantile(1.0)
        assert batch.mean_rounds <= batch.max_rounds


@pytest.mark.parametrize("run", [
    pytest.param(lambda e: simulate(e), id="simulate"),
    pytest.param(lambda e: simulate_occupancy(e), id="simulate_occupancy"),
    pytest.param(lambda e: run_batch(e, 2), id="run_batch-vectorized"),
    pytest.param(lambda e: run_batch(e, 2, engine="occupancy"), id="run_batch-occupancy"),
    pytest.param(lambda e: run_batch(e, 2, engine="occupancy-fused"),
                 id="run_batch-occupancy-fused"),
    pytest.param(lambda e: simulate_asynchronous(e), id="simulate_asynchronous"),
    pytest.param(lambda e: simulate_vector(VectorConfiguration(e.values.reshape(0, 2))),
                 id="simulate_vector"),
])
def test_empty_population_is_rejected_up_front(run):
    empty = Configuration.from_values(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="cannot simulate an empty population"):
        run(empty)


class TestBatchResult:
    def test_empty_converged_statistics(self):
        br = BatchResult(n=10, num_runs=2, rounds=np.array([np.nan, np.nan]),
                         converged=np.array([False, False]))
        assert np.isnan(br.mean_rounds)
        assert np.isnan(br.median_rounds)
        assert np.isnan(br.quantile(0.5))
        assert br.convergence_fraction == 0.0

    def test_zero_runs(self):
        br = BatchResult(n=0, num_runs=0, rounds=np.array([]), converged=np.array([], dtype=bool))
        assert br.convergence_fraction == 0.0
