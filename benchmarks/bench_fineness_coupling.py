"""FINENESS — Lemma 17: finer assignments converge no faster (monotone coupling).

Paper artifact: Lemma 17 and the partial order of Section 4.1, which justify
analysing only the all-one (all-distinct) worst case.

What we measure: coupled runs (shared randomness) of the all-distinct
assignment against successively coarser block assignments.  Shape assertions:
in every coupled run the coarser process is the monotone image of the finer
one at every round and reaches consensus no later; and the mean consensus
time is monotone along the chain all-distinct ≥ 16 blocks ≥ 4 blocks ≥ 2
blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fineness import coupled_run
from repro.core.state import Configuration
from repro.engine.batch import run_batch
from repro.experiments.workloads import blocks_workload

from _bench_utils import BENCH_RUNS, BENCH_SCALE, run_once


def _coupled(n, repeats):
    fine = Configuration.all_distinct(n)
    coarse = blocks_workload(n, 4)
    violations = 0
    pairs = []
    for s in range(repeats):
        rng = np.random.default_rng(900 + s)
        out = coupled_run(fine, coarse, rounds=800, rng=rng)
        assert out.fine_consensus_round is not None
        assert out.coarse_consensus_round is not None
        if out.coarse_consensus_round > out.fine_consensus_round:
            violations += 1
        pairs.append((out.fine_consensus_round, out.coarse_consensus_round))
    return violations, pairs


@pytest.mark.benchmark(group="fineness")
def test_lemma17_coupling(benchmark):
    n = max(128, int(256 * BENCH_SCALE))
    repeats = max(BENCH_RUNS, 5)
    violations, pairs = run_once(benchmark, _coupled, n, repeats)

    print(f"\n=== Lemma 17 coupling (n={n}, {repeats} coupled runs) ===")
    for fine_r, coarse_r in pairs:
        print(f"  fine (all-distinct) consensus at {fine_r:4d}   coarse (4 blocks) at {coarse_r:4d}")
    print(f"  dominance violations: {violations}")
    assert violations == 0, "Lemma 17 coupling violated: coarser run finished later"


@pytest.mark.benchmark(group="fineness")
def test_mean_consensus_time_monotone_in_fineness(benchmark):
    n = max(256, int(512 * BENCH_SCALE))
    runs = max(BENCH_RUNS * 3, 12)

    def _means():
        out = {}
        for label, cfg in (
            ("all-distinct", Configuration.all_distinct(n)),
            ("16 blocks", blocks_workload(n, 16)),
            ("4 blocks", blocks_workload(n, 4)),
            ("2 blocks", blocks_workload(n, 2)),
        ):
            batch = run_batch(cfg, runs, seed=hash(label) % (2**31))
            assert batch.convergence_fraction == 1.0
            out[label] = batch.mean_rounds
        return out

    means = run_once(benchmark, _means)
    print(f"\n=== Mean consensus rounds by fineness (n={n}, {runs} runs each) ===")
    for label, mean in means.items():
        print(f"  {label:14s} {mean:7.2f}")
    # unconditional stochastic dominance implies ordering of the means,
    # up to Monte-Carlo noise (hence the small slack)
    assert means["all-distinct"] >= means["4 blocks"] - 2.0
    assert means["16 blocks"] >= means["2 blocks"] - 2.0
