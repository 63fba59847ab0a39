"""Tests for the message-passing substrate: topology, messages, node, scheduler, sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.median_rule import MedianRule
from repro.network.messages import DroppedRequest, MessageStats, ValueRequest, ValueResponse
from repro.network.node import Process
from repro.network.sampling import choice_in_degrees, override_choices
from repro.network.scheduler import RoundScheduler, default_capacity
from repro.network.topology import (
    CompleteTopology,
    GraphTopology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)


class TestCompleteTopology:
    def test_neighbors_include_self(self):
        topo = CompleteTopology(5)
        assert topo.neighbors(2).tolist() == [0, 1, 2, 3, 4]
        assert topo.degree(2) == 5

    def test_neighbors_exclude_self(self):
        topo = CompleteTopology(5, include_self=False)
        assert topo.neighbors(2).tolist() == [0, 1, 3, 4]

    def test_sample_range(self, rng):
        topo = CompleteTopology(10)
        s = topo.sample_neighbors(3, 100, rng)
        assert s.min() >= 0 and s.max() < 10

    def test_sample_excluding_self_never_self(self, rng):
        topo = CompleteTopology(10, include_self=False)
        for p in range(10):
            s = topo.sample_neighbors(p, 200, rng)
            assert not np.any(s == p)

    def test_sample_all_shape(self, rng):
        topo = CompleteTopology(20)
        s = topo.sample_all(2, rng)
        assert s.shape == (20, 2)

    def test_sample_all_excluding_self(self, rng):
        topo = CompleteTopology(20, include_self=False)
        s = topo.sample_all(2, rng)
        assert not np.any(s == np.arange(20)[:, None])

    def test_invalid_process_index(self, rng):
        topo = CompleteTopology(5)
        with pytest.raises(IndexError):
            topo.neighbors(5)
        with pytest.raises(IndexError):
            topo.sample_neighbors(-1, 2, rng)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CompleteTopology(0)


class TestGraphTopologies:
    def test_ring_neighbors(self):
        topo = ring_topology(6)
        nbrs = set(topo.neighbors(0).tolist())
        assert nbrs == {5, 0, 1}

    def test_graph_samples_stay_in_neighborhood(self, rng):
        topo = ring_topology(8)
        for p in range(8):
            s = topo.sample_neighbors(p, 50, rng)
            assert set(s.tolist()) <= set(topo.neighbors(p).tolist())

    def test_random_regular(self):
        topo = random_regular_topology(12, degree=4, seed=0)
        assert topo.n == 12
        # every neighbourhood = own node + 4 neighbours
        assert all(topo.degree(i) == 5 for i in range(12))

    def test_torus_size(self):
        topo = torus_topology(4)
        assert topo.n == 16
        assert all(topo.degree(i) == 5 for i in range(16))

    def test_disconnected_graph_rejected(self):
        import networkx as nx
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            GraphTopology(g)

    def test_bad_labels_rejected(self):
        import networkx as nx
        g = nx.path_graph(3)
        g = nx.relabel_nodes(g, {0: "a"})
        with pytest.raises(ValueError):
            GraphTopology(g)


class TestMessages:
    def test_request_fields(self):
        req = ValueRequest(sender=1, destination=2, round=3)
        assert req.sender == 1 and req.destination == 2 and req.round == 3

    def test_request_ids_unique(self):
        a = ValueRequest(sender=0, destination=1, round=0)
        b = ValueRequest(sender=0, destination=1, round=0)
        assert a.request_id != b.request_id

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ValueRequest(sender=-1, destination=0, round=0)
        with pytest.raises(ValueError):
            ValueResponse(responder=0, destination=-2, round=0, value=1, request_id=0)

    def test_message_stats(self):
        stats = MessageStats()
        stats.record_request()
        stats.record_request()
        stats.record_response()
        stats.record_drop(3)
        assert stats.total_messages == 3
        assert stats.requests_dropped == 3
        assert stats.as_dict()["requests_sent"] == 2


class TestProcess:
    def test_private_numbering_is_a_permutation(self, rng):
        proc = Process(index=0, value=5, n=10, rule=MedianRule(), rng=rng)
        assert sorted(proc._ports.tolist()) == list(range(10))

    def test_choose_contacts_count(self, rng):
        proc = Process(index=0, value=5, n=10, rule=MedianRule(), rng=rng)
        contacts = proc.choose_contacts()
        assert contacts.shape == (2,)
        assert contacts.min() >= 0 and contacts.max() < 10

    def test_respond_reports_value(self, rng):
        proc = Process(index=0, value=7, n=5, rule=MedianRule(), rng=rng)
        assert proc.respond(round_index=1) == 7

    def test_update_applies_median(self, rng):
        proc = Process(index=0, value=10, n=5, rule=MedianRule(), rng=rng)
        proc.choose_contacts()
        proc.receive_value(12)
        proc.receive_value(100)
        assert proc.update() == 12

    def test_update_with_missing_responses_self_substitutes(self, rng):
        proc = Process(index=0, value=10, n=5, rule=MedianRule(), rng=rng)
        proc.choose_contacts()
        proc.receive_value(100)    # only one of two responses arrived
        # median(10, 100, 10) = 10
        assert proc.update() == 10

    def test_corrupt_overwrites_value(self, rng):
        proc = Process(index=0, value=10, n=5, rule=MedianRule(), rng=rng)
        proc.corrupt(3)
        assert proc.value == 3


class TestScheduler:
    def test_default_capacity_logarithmic(self):
        assert default_capacity(2) >= 2
        assert default_capacity(1024) == int(np.ceil(4 * np.log2(1024)))

    def test_delivery_without_overload(self, rng):
        sched = RoundScheduler(n=4, capacity=3)
        reqs = [ValueRequest(sender=0, destination=1, round=1),
                ValueRequest(sender=2, destination=1, round=1)]
        responses, dropped = sched.deliver(reqs, values=[9, 7, 5, 3], round_index=1, rng=rng)
        assert len(responses) == 2 and not dropped
        assert all(r.value == 7 for r in responses)
        assert {r.destination for r in responses} == {0, 2}

    def test_overload_drops_excess(self, rng):
        sched = RoundScheduler(n=10, capacity=2)
        reqs = [ValueRequest(sender=s, destination=0, round=1) for s in range(1, 7)]
        responses, dropped = sched.deliver(reqs, values=list(range(10)), round_index=1, rng=rng)
        assert len(responses) == 2
        assert len(dropped) == 4
        assert sched.stats.requests_dropped == 4

    def test_adversarial_drop_selector(self, rng):
        # the adversary keeps only requests from even senders
        def selector(dest, requests, capacity, rng):
            return [r for r in requests if r.sender % 2 == 0][:capacity]

        sched = RoundScheduler(n=10, capacity=2, drop_selector=selector)
        reqs = [ValueRequest(sender=s, destination=0, round=1) for s in range(1, 7)]
        responses, dropped = sched.deliver(reqs, values=list(range(10)), round_index=1, rng=rng)
        assert all(r.destination % 2 == 0 for r in responses)

    def test_selector_output_clipped_to_capacity(self, rng):
        def greedy(dest, requests, capacity, rng):
            return requests  # tries to keep everything

        sched = RoundScheduler(n=10, capacity=2, drop_selector=greedy)
        reqs = [ValueRequest(sender=s, destination=0, round=1) for s in range(1, 7)]
        responses, _ = sched.deliver(reqs, values=list(range(10)), round_index=1, rng=rng)
        assert len(responses) == 2

    def test_invalid_destination_rejected(self, rng):
        sched = RoundScheduler(n=3)
        with pytest.raises(ValueError):
            sched.deliver([ValueRequest(sender=0, destination=7, round=1)],
                          values=[1, 2, 3], round_index=1, rng=rng)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RoundScheduler(n=0)
        with pytest.raises(ValueError):
            RoundScheduler(n=5, capacity=0)


class TestSampling:
    def test_k_choices(self, rng):
        s = CompleteTopology(30).sample_all(5, rng)
        assert s.shape == (30, 5)
        with pytest.raises(ValueError):
            CompleteTopology(0).sample_all(2, rng)

    def test_in_degrees_total(self, rng):
        s = CompleteTopology(100).sample_all(2, rng)
        deg = choice_in_degrees(s, 100)
        assert deg.sum() == 200

    def test_in_degrees_mean_is_k(self, rng):
        topo = CompleteTopology(50)
        totals = np.zeros(50)
        for _ in range(200):
            totals += choice_in_degrees(topo.sample_all(2, rng), 50)
        assert totals.mean() / 200 == pytest.approx(2.0, rel=0.05)

    def test_override_choices(self, rng):
        s = CompleteTopology(10).sample_all(2, rng)
        out = override_choices(s, victims=np.array([3, 7]),
                               new_choices=np.array([[0, 0], [1, 1]]))
        assert out[3].tolist() == [0, 0]
        assert out[7].tolist() == [1, 1]
        assert np.array_equal(out[np.array([0, 1, 2, 4, 5, 6, 8, 9])],
                              s[np.array([0, 1, 2, 4, 5, 6, 8, 9])])
        # original untouched
        assert not np.array_equal(s[3], [0, 0]) or not np.array_equal(s[7], [1, 1])

    def test_override_shape_mismatch(self, rng):
        s = CompleteTopology(10).sample_all(2, rng)
        with pytest.raises(ValueError):
            override_choices(s, victims=np.array([1]), new_choices=np.array([[0, 0], [1, 1]]))


class TestSeedReproducibility:
    """rng-discipline pins: seeded draws are bitwise repeatable and seedless
    draws never touch the ``random`` module's process-global state."""

    def test_random_regular_same_seed_same_edges(self):
        t1 = random_regular_topology(24, degree=4, seed=7)
        t2 = random_regular_topology(24, degree=4, seed=7)
        assert sorted(t1.graph.edges) == sorted(t2.graph.edges)

    def test_random_regular_accepts_generator(self):
        g1 = np.random.default_rng(11)
        g2 = np.random.default_rng(11)
        t1 = random_regular_topology(24, degree=4, seed=g1)
        t2 = random_regular_topology(24, degree=4, seed=g2)
        assert sorted(t1.graph.edges) == sorted(t2.graph.edges)

    def test_seedless_draw_leaves_global_random_alone(self):
        import random as stdlib_random

        stdlib_random.seed(123)
        before = stdlib_random.getstate()
        random_regular_topology(24, degree=4)
        assert stdlib_random.getstate() == before

    def test_simulator_trajectory_repeats_on_graph_topology(self):
        from repro.core.state import Configuration
        from repro.network.simulator import NetworkSimulator

        def trajectory():
            topo = random_regular_topology(16, degree=4, seed=3)
            sim = NetworkSimulator(Configuration.all_distinct(16),
                                   topology=topo, seed=5)
            return [sim.step().tolist() for _ in range(6)]

        assert trajectory() == trajectory()
