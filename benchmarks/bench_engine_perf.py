"""ENGINE — throughput of the simulation substrates (ours, not from the paper).

Micro-benchmarks of the three execution surfaces so regressions in the hot
path are visible:

* one vectorized median-rule round at large n;
* a full vectorized run to consensus at moderate n;
* a batch of runs;
* the agent-level message-passing simulator (per-round cost, small n).

These use pytest-benchmark's normal repetition (not pedantic single shots)
because they are genuine micro-benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.median_rule import MedianRule
from repro.core.state import Configuration
from repro.engine.batch import run_batch
from repro.engine.vectorized import simulate
from repro.network.simulator import NetworkSimulator


@pytest.mark.benchmark(group="engine-perf")
def test_perf_single_vectorized_round(benchmark):
    n = 1 << 16
    rule = MedianRule()
    values = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(0)

    def one_round():
        return rule.step(values, rng)

    out = benchmark(one_round)
    assert out.shape == (n,)


@pytest.mark.benchmark(group="engine-perf")
def test_perf_full_run_to_consensus(benchmark):
    init = Configuration.all_distinct(4096)

    def full_run():
        return simulate(init, seed=1)

    res = benchmark(full_run)
    assert res.reached_consensus


@pytest.mark.benchmark(group="engine-perf")
def test_perf_fused_batch(benchmark):
    init = Configuration.all_distinct(1024)

    def batch():
        return run_batch(init, 8, seed=2)

    out = benchmark(batch)
    assert out.convergence_fraction == 1.0


@pytest.mark.benchmark(group="engine-perf")
def test_perf_network_simulator_round(benchmark):
    sim = NetworkSimulator(Configuration.all_distinct(256), seed=3)

    def one_round():
        return sim.step()

    out = benchmark(one_round)
    assert out.shape == (256,)
