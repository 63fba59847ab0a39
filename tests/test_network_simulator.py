"""Tests for the agent-level NetworkSimulator and its agreement with the vectorized engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.strategies import BalancingAdversary, StickyAdversary
from repro.core.baseline_rules import MinimumRule, VoterRule
from repro.core.median_rule import MedianRule
from repro.core.state import Configuration
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import simulate
from repro.network.simulator import NetworkSimulator
from repro.network.topology import (
    CompleteTopology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)


class TestNetworkSimulatorBasics:
    def test_initial_values_preserved(self):
        init = Configuration.from_values([3, 1, 4, 1, 5])
        sim = NetworkSimulator(init, seed=0)
        assert np.array_equal(sim.values(), init.values)

    def test_step_returns_new_values(self):
        sim = NetworkSimulator(Configuration.all_distinct(16), seed=1)
        out = sim.step()
        assert out.shape == (16,)
        assert set(np.unique(out)) <= set(range(16))

    def test_step_at_256_processes_keeps_shape(self):
        sim = NetworkSimulator(Configuration.all_distinct(256), seed=3)
        assert sim.step().shape == (256,)

    def test_reaches_consensus(self):
        sim = NetworkSimulator(Configuration.all_distinct(48), seed=2)
        res = sim.run(max_rounds=400)
        assert res.reached_consensus
        assert res.final.is_consensus
        assert res.winning_value in range(48)

    def test_message_budget_two_requests_per_process_per_round(self):
        n = 32
        sim = NetworkSimulator(Configuration.all_distinct(n), seed=3)
        sim.step()
        assert sim.message_stats.requests_sent == 2 * n

    def test_messages_accounted_in_result_meta(self):
        sim = NetworkSimulator(Configuration.all_distinct(24), seed=4)
        res = sim.run(max_rounds=200)
        msgs = res.meta["messages"]
        assert msgs["requests_sent"] == 2 * 24 * res.rounds_executed
        assert msgs["responses_sent"] <= msgs["requests_sent"]

    def test_capacity_cap_causes_drops(self):
        # capacity 1 with 2 requests per process guarantees many drops
        sim = NetworkSimulator(Configuration.all_distinct(32), capacity=1, seed=5)
        sim.step()
        assert sim.message_stats.requests_dropped > 0

    def test_still_converges_with_tight_capacity(self):
        sim = NetworkSimulator(Configuration.all_distinct(32), capacity=1, seed=6)
        res = sim.run(max_rounds=600)
        assert res.reached_consensus

    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NetworkSimulator(Configuration.all_distinct(8), topology=CompleteTopology(9))

    def test_works_on_ring_topology(self):
        sim = NetworkSimulator(Configuration.from_values([0] * 8 + [1] * 8),
                               topology=ring_topology(16), seed=7)
        res = sim.run(max_rounds=800)
        # on a ring the rule still reaches agreement on one of the two values
        assert res.final.num_values <= 2
        assert res.final.agreement_fraction() >= 0.5

    def test_expander_and_torus_reach_high_agreement(self):
        """Sparse neighbourhoods at n = 121 from a 1/3 : 2/3 two-value start."""
        n = 121
        init = Configuration.two_bins(n, minority=n // 3)

        def run(topology):
            return NetworkSimulator(init, topology=topology, seed=5).run(max_rounds=600)

        assert run(None).reached_consensus
        expander = run(random_regular_topology(n, 8, seed=1))
        assert expander.final.agreement_fraction() > 0.95
        assert run(torus_topology(11)).final.agreement_fraction() > 0.75

    def test_alternative_rule(self):
        sim = NetworkSimulator(Configuration.from_values([5, 3, 9, 1, 7, 2, 8, 4]),
                               rule=MinimumRule(), seed=8)
        res = sim.run(max_rounds=300)
        assert res.reached_consensus
        assert res.winning_value == 1

    def test_voter_rule_runs(self):
        sim = NetworkSimulator(Configuration.from_values([0, 0, 1, 1]),
                               rule=VoterRule(), seed=9)
        res = sim.run(max_rounds=500)
        assert res.final.num_values <= 2

    def test_full_trajectory(self):
        sim = NetworkSimulator(Configuration.all_distinct(16), seed=10)
        res = sim.run(max_rounds=200, record=RecordLevel.FULL)
        assert len(res.trajectory.configurations) == res.rounds_executed + 1


class TestNetworkSimulatorWithAdversary:
    def test_budget_respected(self):
        adv = BalancingAdversary(budget=3)
        sim = NetworkSimulator(Configuration.two_bins(64, minority=32), adversary=adv, seed=11)
        res = sim.run(max_rounds=300)
        assert adv.ledger.verify()
        assert res.meta["adversary_budget"] == 3

    def test_almost_stable_with_sticky_adversary(self):
        adv = StickyAdversary(budget=2, pinned_value=0)
        sim = NetworkSimulator(Configuration.two_bins(96, minority=20), adversary=adv, seed=12)
        res = sim.run(max_rounds=400)
        assert res.reached_almost_stable
        assert res.final.agreement_fraction() > 0.9

    def test_budget_ledger_in_result_meta(self):
        sim = NetworkSimulator(Configuration.two_bins(64, minority=32),
                               adversary=BalancingAdversary(budget=3), seed=13)
        res = sim.run(max_rounds=300)
        assert res.meta["budget_ledger_ok"] is True
        assert res.meta["budget_ledger_total"] > 0

    def test_zero_rounds_spend_no_budget(self):
        sim = NetworkSimulator(Configuration.two_bins(64, minority=32),
                               adversary=BalancingAdversary(budget=3), seed=14)
        res = sim.run(max_rounds=0)
        assert res.rounds_executed == 0
        assert sim.round_index == 0
        assert res.meta["budget_ledger_total"] == 0

    def test_negative_max_rounds_rejected(self):
        sim = NetworkSimulator(Configuration.all_distinct(8), seed=15)
        with pytest.raises(ValueError):
            sim.run(max_rounds=-1)


class TestCrossSimulatorAgreement:
    def test_convergence_time_statistically_similar(self):
        """Agent-level and vectorized engines sample the same process."""
        n, runs = 48, 6
        init = Configuration.all_distinct(n)
        net_rounds = []
        vec_rounds = []
        for s in range(runs):
            net = NetworkSimulator(init, seed=100 + s).run(max_rounds=500)
            vec = simulate(init, seed=200 + s, max_rounds=500)
            assert net.reached_consensus and vec.reached_consensus
            net_rounds.append(net.consensus_round)
            vec_rounds.append(vec.consensus_round)
        # same distribution: means within a factor of two of each other
        assert 0.5 <= np.mean(net_rounds) / np.mean(vec_rounds) <= 2.0

    def test_both_respect_value_preservation(self):
        init = Configuration.from_values([2, 4, 6, 8] * 8)
        net = NetworkSimulator(init, seed=5).run(max_rounds=300)
        vec = simulate(init, seed=5, max_rounds=300)
        initial_values = set(init.values.tolist())
        assert set(net.final.support.tolist()) <= initial_values
        assert set(vec.final.support.tolist()) <= initial_values
