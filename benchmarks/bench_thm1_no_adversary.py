"""THM1 — Theorem 1: stable consensus in O(log n) rounds, no adversary.

Paper artifact: Theorem 1 (worst-case initial state = all-distinct values).

What we measure: mean consensus round of the median rule from the all-one
assignment for a geometric ladder of n, fitted against log n, sqrt n and
linear n.  Shape assertions: every run converges, the log-n predictor wins
the fit, and doubling n adds far less than 2× to the rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.statistics import compare_predictors, growth_ratio
from repro.core.state import Configuration
from repro.engine.batch import run_batch

from _bench_utils import BENCH_RUNS, BENCH_SCALE, run_once


def _measure(ns, runs):
    means = []
    for n in ns:
        batch = run_batch(Configuration.all_distinct(n), runs, seed=1000 + n)
        assert batch.convergence_fraction == 1.0
        means.append(batch.mean_rounds)
    return means


@pytest.mark.benchmark(group="theorem1")
def test_theorem1_log_n_scaling(benchmark):
    base = (128, 256, 512, 1024, 2048, 4096)
    ns = [max(64, int(n * BENCH_SCALE)) for n in base]
    runs = max(BENCH_RUNS, 5)
    means = run_once(benchmark, _measure, ns, runs)

    print("\n=== Theorem 1: consensus rounds vs n (all-distinct start, no adversary) ===")
    for n, mean in zip(ns, means):
        print(f"  n={n:6d}   mean rounds={mean:7.2f}   rounds/log2(n)={mean / np.log2(n):.2f}")

    fits = compare_predictors(ns, [2] * len(ns), means, ["log_n", "sqrt_n", "linear_n"])
    print("  best-fit predictor:", fits[0].predictor_name,
          f"(R^2={fits[0].r_squared:.4f})")
    assert fits[0].predictor_name == "log_n"

    ratios = [r for _, _, r in growth_ratio(ns, means)]
    print("  doubling ratios:", [round(r, 2) for r in ratios])
    assert all(r < 1.6 for r in ratios), "rounds nearly double when n doubles — not logarithmic"
