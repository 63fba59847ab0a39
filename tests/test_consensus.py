"""Tests for repro.core.consensus: stable and almost-stable detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.consensus import (
    AlmostStableCriterion,
    consensus_value,
    detect_almost_stable_round,
    detect_consensus_round,
    is_consensus,
)
from repro.core.multidim import VectorConfiguration, simulate_vector
from repro.core.state import Configuration
from repro.engine.asynchronous import simulate_asynchronous
from repro.engine.batch import run_batch_fused_occupancy
from repro.engine.occupancy import simulate_occupancy
from repro.engine.vectorized import simulate
from repro.network.simulator import NetworkSimulator


class TestIsConsensus:
    def test_true(self):
        assert is_consensus(np.array([3, 3, 3]))

    def test_false(self):
        assert not is_consensus(np.array([3, 3, 4]))

    def test_empty_is_consensus(self):
        assert is_consensus(np.array([], dtype=np.int64))

    def test_configuration_input(self):
        assert is_consensus(Configuration.from_values([1, 1]))

    def test_consensus_value(self):
        assert consensus_value(np.array([5, 5])) == 5
        assert consensus_value(np.array([5, 6])) is None
        assert consensus_value(np.array([], dtype=np.int64)) is None


class TestAlmostStableCriterion:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlmostStableCriterion(tolerance=-1)
        with pytest.raises(ValueError):
            AlmostStableCriterion(window=0)

    def test_holds_within_tolerance(self):
        crit = AlmostStableCriterion(tolerance=2)
        assert crit.holds(np.array([1, 1, 1, 2, 3]), value=1)

    def test_fails_beyond_tolerance(self):
        crit = AlmostStableCriterion(tolerance=1)
        assert not crit.holds(np.array([1, 1, 1, 2, 3]), value=1)

    def test_zero_tolerance_is_exact_consensus(self):
        crit = AlmostStableCriterion(tolerance=0)
        assert crit.holds(np.array([1, 1]), value=1)
        assert not crit.holds(np.array([1, 2]), value=1)


class TestDetectConsensusRound:
    def test_detects_first_round(self):
        traj = [np.array([0, 1]), np.array([1, 1]), np.array([1, 1])]
        status = detect_consensus_round(traj)
        assert status.reached and status.round == 1 and status.value == 1

    def test_not_reached(self):
        traj = [np.array([0, 1]), np.array([1, 0])]
        status = detect_consensus_round(traj)
        assert not status.reached and status.round is None

    def test_initial_consensus_is_round_zero(self):
        status = detect_consensus_round([np.array([7, 7])])
        assert status.reached and status.round == 0 and status.value == 7

    def test_empty_trajectory(self):
        status = detect_consensus_round([])
        assert not status.reached


class TestDetectAlmostStableRound:
    def test_detects_trailing_run(self):
        traj = [
            np.array([0, 1, 0, 1]),
            np.array([1, 1, 0, 1]),
            np.array([1, 1, 1, 1]),
            np.array([1, 1, 1, 0]),  # still within tolerance 1
            np.array([1, 1, 1, 1]),
        ]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=1, window=3))
        assert status.reached
        assert status.round == 1       # from round 1 onwards, ≤1 process disagrees with 1
        assert status.value == 1

    def test_run_broken_in_middle_restarts(self):
        traj = [
            np.array([1, 1, 1, 1]),
            np.array([0, 0, 1, 1]),    # breaks the streak (2 disagree, tolerance 1)
            np.array([1, 1, 1, 1]),
            np.array([1, 1, 1, 1]),
        ]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=1, window=2))
        assert status.reached
        assert status.round == 2

    def test_window_longer_than_trailing_run(self):
        traj = [np.array([0, 1]), np.array([1, 1])]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=0, window=5))
        assert not status.reached

    def test_fails_if_final_state_not_agreeing(self):
        traj = [np.array([1, 1, 1]), np.array([0, 2, 1])]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=0, window=1))
        assert not status.reached

    def test_explicit_value_parameter(self):
        traj = [np.array([2, 2, 2, 9])] * 4
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=1, window=2),
                                            value=2)
        assert status.reached and status.value == 2

    def test_empty_trajectory(self):
        status = detect_almost_stable_round([], AlmostStableCriterion())
        assert not status.reached

    def test_accepts_configurations(self):
        traj = [Configuration.from_values([1, 1]), Configuration.from_values([1, 1])]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=0, window=2))
        assert status.reached and status.round == 0


AGREED = Configuration.from_values(np.full(40, 5, dtype=np.int64))


def _rounds_and_consensus(result):
    return result.rounds_executed, result.consensus_round


def _asynchronous(initial):
    result = simulate_asynchronous(initial, seed=0)
    assert result.activations_executed == 0
    return result.sweeps_executed, result.consensus_sweep


def _vector(initial):
    result = simulate_vector(VectorConfiguration(np.column_stack([initial.values] * 2)), seed=0)
    return result.rounds_executed, result.consensus_round


@pytest.mark.parametrize("run", [
    pytest.param(lambda c: _rounds_and_consensus(simulate(c, seed=0)), id="simulate"),
    pytest.param(lambda c: _rounds_and_consensus(simulate_occupancy(c, seed=0)),
                 id="simulate_occupancy"),
    pytest.param(lambda c: _rounds_and_consensus(NetworkSimulator(c, seed=0).run()),
                 id="NetworkSimulator.run"),
    pytest.param(_asynchronous, id="simulate_asynchronous"),
    pytest.param(_vector, id="simulate_vector"),
])
def test_run_starting_at_consensus_executes_no_round(run):
    # without an adversary consensus is a fixed point, so every simulator
    # stops before its first round
    assert run(AGREED) == (0, 0)


SPLIT = Configuration.two_bins(40, minority=20)


@pytest.mark.parametrize("run", [
    pytest.param(lambda c: simulate(c, seed=0, max_rounds=-3), id="simulate"),
    pytest.param(lambda c: simulate_occupancy(c, seed=0, max_rounds=-3),
                 id="simulate_occupancy"),
    pytest.param(lambda c: NetworkSimulator(c, seed=0).run(max_rounds=-3),
                 id="NetworkSimulator.run"),
    pytest.param(lambda c: run_batch_fused_occupancy(c, 2, seed=0, max_rounds=-3),
                 id="run_batch_fused_occupancy"),
    pytest.param(lambda c: simulate_asynchronous(c, seed=0, max_sweeps=-3),
                 id="simulate_asynchronous"),
    pytest.param(lambda c: simulate_vector(VectorConfiguration(np.column_stack([c.values] * 2)),
                                           seed=0, max_rounds=-3),
                 id="simulate_vector"),
])
def test_negative_horizon_is_rejected(run):
    # every simulator resolves its horizon through default_max_rounds
    with pytest.raises(ValueError, match="non-negative"):
        run(SPLIT)
