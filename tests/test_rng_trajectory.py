"""Tests for repro.engine.rng and repro.engine.trajectory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import Configuration
from repro.engine.rng import RngPool, make_rng, spawn_rngs, spawn_seeds
from repro.engine.trajectory import RecordLevel, Trajectory, TrajectoryRecorder


class TestRngHelpers:
    def test_make_rng_from_int(self):
        a = make_rng(1)
        b = make_rng(1)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_make_rng_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_make_rng_from_seedsequence(self):
        ss = np.random.SeedSequence(5)
        rng = make_rng(ss)
        assert isinstance(rng, np.random.Generator)

    def test_make_rng_none(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_spawn_seeds_count(self):
        assert len(spawn_seeds(0, 7)) == 7

    def test_spawn_seeds_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_spawned_rngs_are_independent_streams(self):
        rngs = spawn_rngs(42, 3)
        draws = [r.integers(0, 10**9) for r in rngs]
        assert len(set(draws)) == 3

    def test_spawned_rngs_reproducible(self):
        a = [r.integers(0, 10**9) for r in spawn_rngs(42, 3)]
        b = [r.integers(0, 10**9) for r in spawn_rngs(42, 3)]
        assert a == b

    def test_rng_pool_issues_and_counts(self):
        pool = RngPool(seed=1)
        r1 = pool.next()
        batch = pool.take(4)
        assert pool.issued == 5
        assert isinstance(r1, np.random.Generator)
        assert len(batch) == 4

    def test_rng_pool_reproducible_for_fixed_order(self):
        p1, p2 = RngPool(seed=9), RngPool(seed=9)
        a = [g.integers(0, 10**9) for g in (p1.next(), p1.next())]
        b = [g.integers(0, 10**9) for g in (p2.next(), p2.next())]
        assert a == b


class TestTrajectoryRecorder:
    def test_metrics_level_records_metrics_only(self):
        rec = TrajectoryRecorder(RecordLevel.METRICS)
        rec.record(np.array([0, 1, 1]), 0)
        rec.record(np.array([1, 1, 1]), 1)
        traj = rec.finish()
        assert len(traj.metrics) == 2
        assert traj.configurations == []
        assert traj.rounds == 1

    def test_full_level_records_configurations(self):
        rec = TrajectoryRecorder(RecordLevel.FULL)
        rec.record(np.array([0, 1]), 0)
        traj = rec.finish()
        assert len(traj.configurations) == 1
        assert traj.configurations[0] == Configuration.from_values([0, 1])
        assert len(traj.metrics) == 1

    def test_none_level_records_nothing(self):
        rec = TrajectoryRecorder(RecordLevel.NONE)
        rec.record(np.array([0, 1]), 0)
        traj = rec.finish()
        assert traj.metrics == [] and traj.configurations == []
        assert traj.rounds == 0


    def test_census_gives_the_same_records(self):
        values = np.array([4, 0, 4, 2, 0, 4])
        census = (np.array([0, 1, 2, 3, 4]), np.array([2, 0, 1, 0, 3]))  # empty bins
        for level in RecordLevel:
            plain, fed = TrajectoryRecorder(level), TrajectoryRecorder(level)
            plain.record(values, 3)
            fed.record(values, 3, census)
            assert fed.finish() == plain.finish()

    def test_census_without_values_below_full(self):
        rec = TrajectoryRecorder(RecordLevel.METRICS)
        rec.record(None, 1, (np.array([5, 7]), np.array([1, 2])))
        (m,) = rec.finish().metrics
        assert (m.round, m.support_size, m.agreement, m.median_value) == (1, 2, 2, 7)


class TestTrajectorySeries:
    def _make(self) -> Trajectory:
        rec = TrajectoryRecorder(RecordLevel.METRICS)
        rec.record(np.array([0, 1, 2, 2]), 0)
        rec.record(np.array([2, 2, 2, 1]), 1)
        rec.record(np.array([2, 2, 2, 2]), 2)
        return rec.finish()

    def test_support_series(self):
        traj = self._make()
        assert traj.support_series().tolist() == [3, 2, 1]

    def test_minority_series(self):
        traj = self._make()
        assert traj.minority_series().tolist() == [2, 1, 0]

    def test_agreement_fraction_series(self):
        traj = self._make()
        series = traj.series("agreement_fraction")
        assert series[-1] == pytest.approx(1.0)

    def test_unknown_series_name(self):
        with pytest.raises(KeyError):
            self._make().series("nonsense")

    def test_empty_trajectory_series(self):
        assert Trajectory().series("support_size").shape == (0,)
