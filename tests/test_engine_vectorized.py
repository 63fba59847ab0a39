"""Tests for repro.engine.vectorized.simulate and its stop rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import AdversaryTiming
from repro.adversary.strategies import BalancingAdversary, StickyAdversary
from repro.core.baseline_rules import MinimumRule
from repro.core.consensus import AlmostStableCriterion
from repro.core.median_rule import MedianRule
from repro.core.state import Configuration
from repro.engine.occupancy import simulate_occupancy
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import default_max_rounds, simulate


class TestDefaults:
    def test_default_max_rounds_scales_with_log(self):
        assert default_max_rounds(2) >= 200
        assert default_max_rounds(1 << 20) == int(np.ceil(40 * 20))

    def test_default_max_rounds_floor(self):
        assert default_max_rounds(1) == 200


class TestSimulateNoAdversary:
    def test_reaches_consensus_from_all_distinct(self):
        res = simulate(Configuration.all_distinct(128), seed=0)
        assert res.reached_consensus
        assert res.consensus_round is not None and res.consensus_round > 0
        assert res.final.is_consensus

    def test_reaches_consensus_from_4096_distinct_values(self):
        assert simulate(Configuration.all_distinct(4096), seed=1).reached_consensus

    def test_consensus_value_is_an_initial_value(self):
        init = Configuration.all_distinct(100)
        res = simulate(init, seed=1)
        assert res.winning_value in set(init.values.tolist())

    def test_deterministic_given_seed(self):
        init = Configuration.all_distinct(64)
        a = simulate(init, seed=42)
        b = simulate(init, seed=42)
        assert a.consensus_round == b.consensus_round
        assert a.winning_value == b.winning_value
        assert a.final == b.final

    def test_different_seeds_usually_differ(self):
        init = Configuration.all_distinct(64)
        results = {simulate(init, seed=s).winning_value for s in range(6)}
        assert len(results) > 1

    def test_already_consensus_input(self):
        res = simulate(Configuration.from_values([7] * 10), seed=0)
        assert res.reached_consensus and res.consensus_round == 0
        assert res.rounds_executed <= 1

    def test_stops_at_consensus_by_default(self):
        res = simulate(Configuration.all_distinct(128), seed=0)
        assert res.rounds_executed == res.consensus_round

    def test_run_to_horizon(self):
        res = simulate(Configuration.all_distinct(32), seed=0, max_rounds=50,
                       run_to_horizon=True)
        assert res.rounds_executed == 50

    def test_horizon_zero(self):
        init = Configuration.all_distinct(16)
        res = simulate(init, seed=0, max_rounds=0)
        assert res.rounds_executed == 0
        assert res.final == init

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate(Configuration.all_distinct(8), max_rounds=-1)

    def test_metrics_trajectory_recorded(self):
        res = simulate(Configuration.all_distinct(32), seed=0,
                       record=RecordLevel.METRICS)
        assert len(res.trajectory.metrics) == res.rounds_executed + 1
        # support size never increases for the median rule
        support = res.trajectory.support_series()
        assert np.all(np.diff(support) <= 0)

    def test_full_trajectory_recorded(self):
        res = simulate(Configuration.all_distinct(16), seed=0, record=RecordLevel.FULL)
        assert len(res.trajectory.configurations) == res.rounds_executed + 1
        assert res.trajectory.configurations[-1] == res.final

    def test_no_recording(self):
        res = simulate(Configuration.all_distinct(16), seed=0, record=RecordLevel.NONE)
        assert res.trajectory.metrics == []
        assert res.trajectory.configurations == []

    def test_accepts_raw_value_vector(self):
        res = simulate(np.arange(32), seed=3)
        assert res.reached_consensus

    def test_summary_is_flat_dict(self):
        res = simulate(Configuration.all_distinct(16), seed=0)
        summary = res.summary()
        assert summary["n"] == 16
        assert summary["rule"] == "median"
        assert summary["consensus_reached"] is True


class TestSimulateWithAdversary:
    def test_almost_stable_reached_with_weak_adversary(self):
        n = 512
        adv = BalancingAdversary(budget=4)
        res = simulate(Configuration.two_bins(n, minority=n // 2), adversary=adv,
                       seed=0, max_rounds=500)
        assert res.reached_almost_stable
        assert res.almost_stable_round is not None
        assert res.final_agreement_fraction > 0.9

    def test_budget_ledger_never_exceeded(self):
        adv = BalancingAdversary(budget=5)
        res = simulate(Configuration.two_bins(256, minority=128), adversary=adv,
                       seed=1, max_rounds=200)
        assert res.meta["budget_ledger_ok"] is True

    def test_default_criterion_derived_from_budget(self):
        adv = StickyAdversary(budget=3, pinned_value=1)
        res = simulate(Configuration.two_bins(128, minority=40), adversary=adv,
                       seed=2, max_rounds=300)
        assert res.criterion.tolerance == 12
        assert res.criterion.window == 10

    def test_sticky_adversary_keeps_minority_bounded(self):
        adv = StickyAdversary(budget=3, pinned_value=0)
        res = simulate(Configuration.two_bins(256, minority=40), adversary=adv,
                       seed=3, max_rounds=300)
        assert res.reached_almost_stable
        # the pinned processes keep disagreeing: no exact consensus expected
        assert res.final.num_values <= 2

    def test_custom_criterion(self):
        adv = StickyAdversary(budget=2, pinned_value=0)
        crit = AlmostStableCriterion(tolerance=2, window=5)
        res = simulate(Configuration.two_bins(128, minority=30), adversary=adv,
                       criterion=crit, seed=4, max_rounds=300)
        assert res.criterion is crit

    def test_after_sampling_timing(self):
        adv = BalancingAdversary(budget=4, timing=AdversaryTiming.AFTER_SAMPLING)
        res = simulate(Configuration.two_bins(256, minority=128), adversary=adv,
                       seed=5, max_rounds=400)
        assert res.meta["budget_ledger_ok"] is True
        assert res.reached_almost_stable

    def test_admissible_values_default_to_initial_support(self):
        adv = StickyAdversary(budget=2)   # pins to max admissible value
        init = Configuration.two_bins(64, minority=20, low=5, high=9)
        res = simulate(init, adversary=adv, seed=6, max_rounds=100)
        assert set(res.final.support.tolist()) <= {5, 9}

    def test_minimum_rule_destabilized_by_reviving_adversary(self):
        # the Section 1.1 counterexample in miniature: minimum rule + a late
        # re-introduction of the smallest value eventually drags everyone down
        from repro.adversary.strategies import RevivingAdversary

        n = 256
        init = Configuration.two_bins(n, minority=1, low=0, high=1)
        adv = RevivingAdversary(budget=1, delay=20, target_value=0)
        res = simulate(init, rule=MinimumRule(), adversary=adv, seed=7,
                       max_rounds=300, run_to_horizon=True)
        # by the end everyone has been dragged to 0 even though value 1 had
        # overwhelming majority at the start
        assert res.final.majority_value() == 0
        assert res.final.count_value(0) > n * 0.9

    def test_median_rule_absorbs_reviving_adversary(self):
        from repro.adversary.strategies import RevivingAdversary

        n = 256
        init = Configuration.two_bins(n, minority=1, low=0, high=1)
        adv = RevivingAdversary(budget=1, delay=20, target_value=0)
        res = simulate(init, rule=MedianRule(), adversary=adv, seed=8,
                       max_rounds=300, run_to_horizon=True)
        assert res.final.majority_value() == 1
        assert res.final.count_value(1) >= n - 4


class TestStopRules:
    """Exhaustive coverage of the engine's stop-rule matrix (ISSUE satellite)."""

    engine = staticmethod(simulate)

    def test_run_to_horizon_executes_exactly_max_rounds(self):
        res = self.engine(Configuration.all_distinct(64), seed=0, max_rounds=37,
                          run_to_horizon=True)
        assert res.rounds_executed == 37
        assert len(res.trajectory.metrics) == 38  # initial state + 37 rounds

    def test_run_to_horizon_overrides_stable_stop_with_adversary(self):
        # without run_to_horizon this run stops early once the almost-stable
        # window fires; with it, every round of the horizon must execute
        adv = BalancingAdversary(budget=4)
        early = self.engine(Configuration.two_bins(512, minority=256),
                            adversary=adv, seed=1, max_rounds=300)
        assert early.rounds_executed < 300
        adv2 = BalancingAdversary(budget=4)
        full = self.engine(Configuration.two_bins(512, minority=256),
                           adversary=adv2, seed=1, max_rounds=300,
                           run_to_horizon=True)
        assert full.rounds_executed == 300

    def test_trailing_streak_shorter_than_window_reports_not_reached(self):
        # the tolerance is met quickly, but the run ends long before the
        # streak can span the (deliberately huge) stability window
        adv = StickyAdversary(budget=2, pinned_value=0)
        crit = AlmostStableCriterion(tolerance=8, window=100)
        res = self.engine(Configuration.two_bins(256, minority=16), adversary=adv,
                          criterion=crit, seed=2, max_rounds=20, run_to_horizon=True)
        assert res.trajectory.minority_series()[-1] <= crit.tolerance
        assert not res.reached_almost_stable
        assert res.almost_stable_round is None

    def test_streak_broken_before_horizon_end_reports_not_reached(self):
        # a switching adversary strong enough to keep kicking the system out
        # of the tolerance band: any mid-run streak must not count
        from repro.adversary.strategies import SwitchingAdversary

        adv = SwitchingAdversary(budget=40)
        crit = AlmostStableCriterion(tolerance=2, window=5)
        res = self.engine(Configuration.two_bins(64, minority=32), adversary=adv,
                          criterion=crit, seed=3, max_rounds=30, run_to_horizon=True)
        if res.trajectory.minority_series()[-1] > crit.tolerance:
            assert not res.reached_almost_stable

    def test_max_rounds_zero_executes_nothing(self):
        init = Configuration.two_bins(64, minority=20)
        adv = BalancingAdversary(budget=3)
        res = self.engine(init, adversary=adv, seed=4, max_rounds=0)
        assert res.rounds_executed == 0
        assert res.final == init
        assert res.meta["budget_ledger_total"] == 0  # adversary never acted

    def test_max_rounds_zero_already_at_consensus(self):
        res = self.engine(Configuration.from_values([3] * 12), seed=5, max_rounds=0)
        assert res.rounds_executed == 0
        assert res.reached_consensus and res.consensus_round == 0

    def test_already_at_consensus_stops_immediately_without_adversary(self):
        res = self.engine(Configuration.from_values([9] * 30), seed=6, max_rounds=50)
        assert res.reached_consensus and res.consensus_round == 0
        assert res.rounds_executed <= 1

    def test_already_at_consensus_keeps_running_with_adversary(self):
        # with a positive budget the consensus stop rule must not fire: the
        # adversary can (and does) perturb the agreed state
        adv = BalancingAdversary(budget=4)
        res = self.engine(Configuration.from_values([1] * 128), adversary=adv,
                          seed=7, max_rounds=40, run_to_horizon=True,
                          admissible_values=np.array([0, 1]))
        assert res.consensus_round == 0
        assert res.rounds_executed == 40
        assert res.meta["budget_ledger_total"] > 0

    def test_stop_at_consensus_disabled_runs_to_horizon(self):
        res = self.engine(Configuration.all_distinct(32), seed=8, max_rounds=80,
                          run_to_horizon=True)
        assert res.reached_consensus
        assert res.rounds_executed == 80


class TestStopRulesOccupancy(TestStopRules):
    """The same stop-rule matrix on the count-space single-run engine."""

    engine = staticmethod(simulate_occupancy)
