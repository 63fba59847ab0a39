"""Tests for repro.engine.occupancy: kernels, round dynamics, adversaries.

The statistical pinning against the vectorized engine lives in
``test_engine_differential.py``; this module covers the exact algebra of the
transition matrices (against brute-force enumeration), conservation laws,
stop rules, adversary count edits, and the large-n contract.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from repro.adversary.base import AdversaryTiming, NullAdversary
from repro.adversary.strategies import (
    BalancingAdversary,
    RandomCorruptionAdversary,
    RevivingAdversary,
    StickyAdversary,
    SwitchingAdversary,
    TargetedMedianAdversary,
)
from repro.core.baseline_rules import MaximumRule, MinimumRule, VoterRule
from repro.core.consensus import AlmostStableCriterion
from repro.core.median_rule import (
    BestOfKMedianRule,
    MedianRule,
    MedianRuleWithoutReplacement,
)
from repro.core.occupancy_state import OccupancyState
from repro.core.rules import get_rule
from repro.core.state import Configuration
from repro.engine.batch import run_batch
from repro.engine.occupancy import (
    occupancy_round,
    occupancy_transition_matrix,
    simulate_occupancy,
)
from repro.engine.trajectory import RecordLevel
from repro.experiments.workloads import make_occupancy_workload


def _blocks_counts(n: int, m: int = 64) -> np.ndarray:
    return np.asarray(make_occupancy_workload("blocks", n=n, m=m).counts)


def _brute_force_with_replacement(p: np.ndarray, k: int) -> np.ndarray:
    """Enumerate all k-sample outcomes of the median-of-(k+1) rule."""
    m = p.shape[0]
    Q = np.zeros((m, m))
    for a in range(m):
        for combo in itertools.product(range(m), repeat=k):
            pool = sorted([a] + list(combo))
            b = pool[(len(pool) - 1) // 2]
            Q[a, b] += np.prod(p[list(combo)])
    return Q


class TestTransitionMatrices:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_median_matrix_matches_enumeration(self, k):
        counts = np.array([3, 5, 2, 4], dtype=np.int64)
        p = counts / counts.sum()
        Q = occupancy_transition_matrix(BestOfKMedianRule(k=k), counts)
        assert np.allclose(Q, _brute_force_with_replacement(p, k), atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 50, size=12)
        for rule in (MedianRule(), BestOfKMedianRule(k=5), VoterRule(),
                     MinimumRule(), MaximumRule(), MedianRuleWithoutReplacement()):
            Q = occupancy_transition_matrix(rule, counts)
            assert np.all(Q >= 0)
            assert np.allclose(Q.sum(axis=1), 1.0, atol=1e-12)

    def test_noreplace_matrix_matches_enumeration(self):
        counts = np.array([3, 5, 2, 4], dtype=np.int64)
        values = np.repeat(np.arange(4), counts)
        n = int(counts.sum())
        Q = occupancy_transition_matrix(MedianRuleWithoutReplacement(), counts)
        for a in range(4):
            self_idx = int(np.flatnonzero(values == a)[0])
            others = [i for i in range(n) if i != self_idx]
            q = np.zeros(4)
            total = 0
            for j in others:
                for k_ in others:
                    if k_ == j:
                        continue
                    b = sorted([a, values[j], values[k_]])[1]
                    q[b] += 1
                    total += 1
            assert np.allclose(q / total, Q[a], atol=1e-12)

    def test_noreplace_approaches_with_replacement_for_large_n(self):
        counts = np.array([40_000, 25_000, 35_000], dtype=np.int64)
        Q_wr = occupancy_transition_matrix(MedianRule(), counts)
        Q_nr = occupancy_transition_matrix(MedianRuleWithoutReplacement(), counts)
        assert np.allclose(Q_wr, Q_nr, atol=1e-4)  # they differ by O(1/n)

    def test_voter_rows_equal_fractions(self):
        counts = np.array([2, 6, 2], dtype=np.int64)
        Q = occupancy_transition_matrix(VoterRule(), counts)
        assert np.allclose(Q, np.tile(counts / counts.sum(), (3, 1)))

    def test_minimum_rule_never_moves_up(self):
        counts = np.array([4, 3, 3], dtype=np.int64)
        Q = occupancy_transition_matrix(MinimumRule(), counts)
        assert np.allclose(np.triu(Q, k=1), 0.0)

    def test_wide_support_rejected_with_clear_error(self):
        # m² memory would explode; the engine must fail fast, not OOM
        counts = np.ones(20_001, dtype=np.int64)
        with pytest.raises(ValueError, match="vectorized engine"):
            occupancy_transition_matrix(MedianRule(), counts)

    def test_unsupported_rule_raises(self):
        # the mean rule does not preserve values and has no count-space kernel
        rule = get_rule("mean")
        with pytest.raises(TypeError, match="occupancy"):
            occupancy_transition_matrix(rule, np.array([5, 5]))

    @pytest.mark.parametrize("name", ["three-majority", "two-choices-majority"])
    def test_majority_family_has_kernels(self, name):
        Q = occupancy_transition_matrix(get_rule(name), np.array([5, 5]))
        np.testing.assert_allclose(Q.sum(axis=1), 1.0)


class TestOccupancyRound:
    def test_population_is_conserved(self):
        rng = np.random.default_rng(1)
        counts = np.array([100, 200, 300], dtype=np.int64)
        for _ in range(25):
            counts = occupancy_round(counts, MedianRule(), rng)
            assert int(counts.sum()) == 600
            assert np.all(counts >= 0)

    def test_consensus_is_absorbing(self):
        rng = np.random.default_rng(2)
        counts = np.array([0, 500, 0], dtype=np.int64)
        out = occupancy_round(counts, MedianRule(), rng)
        assert out.tolist() == [0, 500, 0]

    def test_large_n_round_is_exactly_representable(self):
        rng = np.random.default_rng(3)
        counts = np.full(16, 10**8 // 16, dtype=np.int64)
        out = occupancy_round(counts, MedianRule(), rng)
        assert int(out.sum()) == 10**8

    @pytest.mark.parametrize("n", [10**4, 10**6], ids=["n=1e4", "n=1e6"])
    def test_blocks_round_conserves_population(self, n):
        out = occupancy_round(_blocks_counts(n), MedianRule(),
                              np.random.default_rng(0))
        assert int(out.sum()) == n

    def test_round_cost_flat_in_n(self):
        """Guard: at m = 64 the median round time at n = 10⁸ is at most 10×
        the one at n = 10⁴ (the code path is identical; the factor only
        absorbs timer noise on loaded machines)."""
        rule = MedianRule()

        def median_round_time(n: int, reps: int = 30) -> float:
            counts = _blocks_counts(n)
            rng = np.random.default_rng(42)
            occupancy_round(counts, rule, rng)  # warm-up
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                occupancy_round(counts, rule, rng)
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        t_small = median_round_time(10**4)
        t_huge = median_round_time(10**8)
        assert t_huge <= 10.0 * t_small, (
            f"occupancy round not flat in n: {t_small * 1e6:.0f}µs at n=1e4 vs "
            f"{t_huge * 1e6:.0f}µs at n=1e8")


class TestSimulateOccupancy:
    def test_reaches_consensus_two_bins(self):
        res = simulate_occupancy(Configuration.two_bins(1000, minority=400), seed=0)
        assert res.reached_consensus
        assert res.final.is_consensus
        assert res.winning_value in (0, 1)

    def test_deterministic_given_seed(self):
        init = Configuration.two_bins(512, minority=256)
        a = simulate_occupancy(init, seed=42)
        b = simulate_occupancy(init, seed=42)
        assert a.consensus_round == b.consensus_round
        assert a.winning_value == b.winning_value

    def test_accepts_occupancy_state_and_raw_values(self):
        st = OccupancyState.from_loads({0: 50, 1: 50})
        assert simulate_occupancy(st, seed=1).reached_consensus
        assert simulate_occupancy(np.array([0] * 30 + [1] * 30), seed=1).reached_consensus

    def test_already_consensus_input(self):
        res = simulate_occupancy(Configuration.from_values([7] * 10), seed=0)
        assert res.reached_consensus and res.consensus_round == 0
        assert res.rounds_executed <= 1

    def test_horizon_zero_and_run_to_horizon(self):
        init = Configuration.two_bins(64, minority=32)
        res0 = simulate_occupancy(init, seed=0, max_rounds=0)
        assert res0.rounds_executed == 0
        res = simulate_occupancy(init, seed=0, max_rounds=40, run_to_horizon=True)
        assert res.rounds_executed == 40

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate_occupancy(Configuration.two_bins(8, minority=4), max_rounds=-1)

    def test_metrics_trajectory_support_never_grows_without_adversary(self):
        res = simulate_occupancy(Configuration.from_values(list(range(32)) * 4),
                                 seed=0, record=RecordLevel.METRICS)
        assert len(res.trajectory.metrics) == res.rounds_executed + 1
        support = res.trajectory.support_series()
        assert np.all(np.diff(support) <= 0)

    def test_full_record_small_n(self):
        res = simulate_occupancy(Configuration.two_bins(32, minority=16), seed=0,
                                 record=RecordLevel.FULL)
        assert len(res.trajectory.configurations) == res.rounds_executed + 1
        assert res.trajectory.configurations[-1].loads == res.final.loads

    def test_full_record_refused_for_large_n(self):
        st = OccupancyState.from_loads({0: 10**7, 1: 10**7})
        with pytest.raises(ValueError, match="FULL"):
            simulate_occupancy(st, record=RecordLevel.FULL)

    def test_full_run_at_n_1e8_reaches_consensus(self):
        init = OccupancyState(support=np.arange(32, dtype=np.int64),
                              counts=_blocks_counts(10**8, 32))
        assert simulate_occupancy(init, seed=1).reached_consensus

    def test_large_n_result_not_materialized(self):
        st = OccupancyState.from_loads({0: 10**8, 1: 10**8 + 5})
        res = simulate_occupancy(st, seed=4)
        assert isinstance(res.final, OccupancyState)
        assert res.n == 2 * 10**8 + 5
        summary = res.summary()  # the analysis surface must keep working
        assert summary["consensus_reached"] is True
        assert summary["final_agreement_fraction"] == 1.0

    @pytest.mark.parametrize("n", [64, 10**6])
    def test_occupancy_input_stays_in_count_space(self, n):
        """Up to the materialize limit too, an occupancy input comes back as
        occupancy states."""
        st = OccupancyState.from_loads({0: n // 2, 1: n - n // 2})
        res = simulate_occupancy(st, seed=3)
        assert res.initial is st
        assert isinstance(res.final, OccupancyState)
        assert res.final.n == n and res.reached_consensus

    def test_configuration_input_comes_back_expanded(self):
        init = Configuration.two_bins(64, minority=32)
        res = simulate_occupancy(init, seed=3)
        assert res.initial is init
        assert isinstance(res.final, Configuration)
        assert res.final.n == 64 and res.reached_consensus

    def test_looped_count_space_cell_never_expands(self, monkeypatch):
        """``run_batch(engine="occupancy")`` reads only the convergence round,
        so the benchmark's looped n = 10^6 cell never builds a configuration."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        from workloads import count_space_cells

        cell = next(c for c in count_space_cells(0) if c.engine == "occupancy")

        def refuse(self, limit=None):
            raise AssertionError("expanded an occupancy state")

        monkeypatch.setattr(OccupancyState, "to_configuration", refuse)
        batch = run_batch(make_occupancy_workload(cell.workload,
                                                  **cell.workload_params),
                          num_runs=cell.num_runs, rule=get_rule(cell.rule),
                          seed=cell.seed, engine="occupancy")
        assert batch.num_runs == cell.num_runs == 16
        assert batch.convergence_fraction == 1.0

    def test_best_of_k_rule(self):
        res = simulate_occupancy(Configuration.two_bins(2000, minority=900),
                                 rule=BestOfKMedianRule(k=4), seed=6)
        assert res.reached_consensus

    def test_noreplace_rule(self):
        res = simulate_occupancy(Configuration.two_bins(2000, minority=900),
                                 rule=MedianRuleWithoutReplacement(), seed=7)
        assert res.reached_consensus

    def test_meta_declares_engine(self):
        res = simulate_occupancy(Configuration.two_bins(64, minority=32), seed=8)
        assert res.meta["engine"] == "occupancy"


class TestOccupancyAdversaries:
    def test_balancing_reaches_almost_stable(self):
        adv = BalancingAdversary(budget=8)
        res = simulate_occupancy(Configuration.two_bins(4096, minority=2048),
                                 adversary=adv, seed=0, max_rounds=500)
        assert res.reached_almost_stable
        assert res.meta["budget_ledger_ok"] is True

    def test_balancing_at_n_1e7_reaches_almost_stable(self):
        n = 10**7
        init = OccupancyState(support=np.array([0, 1], dtype=np.int64),
                              counts=np.array([n // 2, n - n // 2], dtype=np.int64))
        adv = BalancingAdversary(budget=int(np.sqrt(n) // 4))
        res = simulate_occupancy(init, adversary=adv, seed=2, max_rounds=400)
        assert res.reached_almost_stable
        assert res.meta["budget_ledger_ok"] is True

    def test_ledger_never_exceeds_budget(self):
        for adv in (BalancingAdversary(budget=5),
                    SwitchingAdversary(budget=5),
                    RandomCorruptionAdversary(budget=5),
                    TargetedMedianAdversary(budget=5),
                    RevivingAdversary(budget=5, delay=3)):
            res = simulate_occupancy(Configuration.two_bins(512, minority=256),
                                     adversary=adv, seed=1, max_rounds=120,
                                     run_to_horizon=True)
            assert res.meta["budget_ledger_ok"] is True, type(adv).__name__
            assert adv.ledger.max_in_round() <= 5, type(adv).__name__

    def test_after_sampling_timing(self):
        adv = BalancingAdversary(budget=4, timing=AdversaryTiming.AFTER_SAMPLING)
        res = simulate_occupancy(Configuration.two_bins(1024, minority=512),
                                 adversary=adv, seed=2, max_rounds=400)
        assert res.reached_almost_stable

    def test_reviving_adversary_reintroduces_extinct_value(self):
        # start at consensus on 1 but let the adversary write value 0 after
        # the round's sampling, so the write is visible in that round's record
        st = OccupancyState.from_loads({1: 500})
        adv = RevivingAdversary(budget=3, delay=0, target_value=0,
                                timing=AdversaryTiming.AFTER_SAMPLING)
        res = simulate_occupancy(st, adversary=adv, seed=3, max_rounds=30,
                                 run_to_horizon=True,
                                 admissible_values=np.array([0, 1]))
        minorities = res.trajectory.minority_series()
        assert minorities.max() > 0       # value 0 shows up in the occupancy
        assert adv.ledger.total > 0       # and the writes were ledgered

    def test_custom_identity_tracking_adversary_rejected(self):
        # shipped strategies all have count-space forms now; a *custom*
        # adversary without propose_counts must still fail fast
        from repro.adversary.base import Adversary, Corruption

        class IdentityOnly(Adversary):
            def propose(self, values, round_index, admissible_values, rng):
                return Corruption.empty()

        with pytest.raises(NotImplementedError, match="identities"):
            simulate_occupancy(Configuration.two_bins(128, minority=64),
                               adversary=IdentityOnly(budget=3), seed=4,
                               max_rounds=50)

    def test_sticky_adversary_runs_via_victim_occupancy(self):
        adv = StickyAdversary(budget=3, pinned_value=1)
        res = simulate_occupancy(Configuration.two_bins(128, minority=64),
                                 adversary=adv, seed=4, max_rounds=400)
        assert res.reached_almost_stable
        assert res.meta["budget_ledger_ok"] is True
        # every round rewrites all min(T, n) victims, exactly like the
        # vectorized enforcement ledger
        assert adv.ledger.total == 3 * res.rounds_executed

    def test_sticky_pins_a_minority_forever(self):
        # with AFTER_SAMPLING timing the re-pinned victims are visible in
        # every recorded round, so the round-boundary minority can never
        # drop below the pinned reservoir
        from repro.engine.trajectory import RecordLevel

        adv = StickyAdversary(budget=5, pinned_value=0,
                              timing=AdversaryTiming.AFTER_SAMPLING)
        res = simulate_occupancy(Configuration.two_bins(200, minority=20),
                                 adversary=adv, seed=6, max_rounds=40,
                                 run_to_horizon=True,
                                 record=RecordLevel.METRICS)
        minorities = res.trajectory.minority_series()
        assert np.all(minorities[1:] >= 5)
        assert res.meta["budget_ledger_ok"] is True

    def test_hiding_victim_occupancy_stays_in_sync(self):
        from repro.adversary.strategies import HidingAdversary

        adv = HidingAdversary(budget=4)
        res = simulate_occupancy(Configuration.two_bins(256, minority=128),
                                 adversary=adv, seed=7, max_rounds=200)
        assert res.reached_almost_stable
        # the tracked victim occupancy is a real subpopulation: non-negative
        # and totalling the budget on the run's support
        vic = adv.victim_counts(np.arange(2))
        assert vic is not None and np.all(vic >= 0) and int(vic.sum()) == 4

    def test_corrupt_counts_conserves_population(self):
        adv = BalancingAdversary(budget=10)
        adv.reset()
        rng = np.random.default_rng(0)
        support = np.array([0, 1, 2], dtype=np.int64)
        counts = np.array([70, 20, 10], dtype=np.int64)
        out = adv.corrupt_counts(support, counts, 1, support, rng)
        assert int(out.sum()) == 100
        assert np.all(out >= 0)
        # moved mass from the leader towards the runner-up, within budget
        assert out[0] >= 60 and counts[0] - out[0] <= 10

    def test_custom_criterion_respected(self):
        adv = BalancingAdversary(budget=2)
        crit = AlmostStableCriterion(tolerance=2, window=5)
        res = simulate_occupancy(Configuration.two_bins(256, minority=128),
                                 adversary=adv, criterion=crit, seed=5,
                                 max_rounds=300)
        assert res.criterion is crit

    def test_null_adversary_supports_counts(self):
        from repro.adversary.base import Adversary, Corruption
        from repro.adversary.strategies import HidingAdversary

        assert NullAdversary().supports_counts
        assert BalancingAdversary(budget=3).supports_counts
        # identity-tracking strategies support counts via victim occupancy
        assert StickyAdversary(budget=3).supports_counts
        assert HidingAdversary(budget=3).supports_counts

        class IdentityOnly(Adversary):
            def propose(self, values, round_index, admissible_values, rng):
                return Corruption.empty()

        assert not IdentityOnly(budget=3).supports_counts
