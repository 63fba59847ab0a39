"""Tests for repro.analysis.phases: Theorem 20 phase-structure detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.phases import (
    candidate_window,
    detect_phases,
    expected_phase_count,
)
from repro.core.state import Configuration
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import simulate
from repro.experiments.workloads import blocks_workload


class TestCandidateWindow:
    def test_consensus_window_is_single_value(self):
        cfg = Configuration.from_values([7] * 50)
        lo, hi = candidate_window(cfg)
        assert lo == hi == 7

    def test_window_contains_median_value(self, rng):
        cfg = Configuration.uniform_random(500, 9, rng)
        lo, hi = candidate_window(cfg)
        assert lo <= cfg.median_value() <= hi

    def test_dominant_bin_pins_window(self):
        # one bin holds 90% of the balls: the window collapses onto it
        values = np.array([5] * 900 + [0] * 50 + [9] * 50, dtype=np.int64)
        lo, hi = candidate_window(Configuration.from_values(values))
        assert lo == hi == 5

    def test_margin_widens_window(self, rng):
        cfg = Configuration.uniform_random(400, 15, rng)
        lo_s, hi_s = candidate_window(cfg, margin=1.0)
        lo_l, hi_l = candidate_window(cfg, margin=150.0)
        assert (hi_l - lo_l) >= (hi_s - lo_s)

    def test_balanced_two_bins_window_covers_both(self):
        cfg = Configuration.two_bins(1000, minority=500)
        lo, hi = candidate_window(cfg, margin=50.0)
        assert lo == 0 and hi == 1


class TestDetectPhases:
    def test_empty_trajectory(self):
        assert detect_phases([]) == []

    def test_phase_records_on_converging_run(self):
        init = blocks_workload(n=512, m=16)
        res = simulate(init, seed=1, record=RecordLevel.FULL)
        records = detect_phases(res.trajectory.configurations)
        assert records, "expected at least one phase halving"
        # phase indices increase and window sizes shrink to 1 by the end
        assert [r.phase_index for r in records] == list(range(1, len(records) + 1))
        assert records[-1].window_values == 1
        # rounds are non-decreasing
        rounds = [r.end_round for r in records]
        assert all(a <= b for a, b in zip(rounds, rounds[1:]))

    def test_phase_count_bounded_by_log_m(self):
        m = 16
        init = blocks_workload(n=512, m=m)
        res = simulate(init, seed=2, record=RecordLevel.FULL)
        records = detect_phases(res.trajectory.configurations)
        assert len(records) <= expected_phase_count(m) + 2

    def test_phases_at_n_1024_end_in_one_value_within_budget(self):
        """Theorem 20 phase structure at n = 1024, m = 16."""
        res = simulate(blocks_workload(1024, 16), seed=79, record=RecordLevel.FULL)
        records = detect_phases(res.trajectory.configurations)
        assert records and records[-1].window_values == 1
        assert len(records) <= expected_phase_count(16) + 2

    def test_consensus_trajectory_single_phase(self):
        traj = [Configuration.from_values([3] * 20)] * 5
        records = detect_phases(traj)
        assert len(records) >= 1
        assert records[0].window_values == 1


class TestExpectedPhaseCount:
    def test_values(self):
        assert expected_phase_count(2) == 2
        assert expected_phase_count(16) == 5
        assert expected_phase_count(1) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            expected_phase_count(0)
