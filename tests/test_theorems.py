"""Statistical integration tests of the paper's headline claims (small scale).

These are the "does the reproduction actually reproduce the paper" tests:
each theorem's qualitative claim is checked at sizes small enough for the
test-suite (seconds, not minutes).  The full-scale versions live in the
benchmark harness (``benchmarks/``) and EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.strategies import BalancingAdversary, RevivingAdversary
from repro.analysis.statistics import compare_predictors, fit_scaling
from repro.core.baseline_rules import MinimumRule, VoterRule
from repro.core.median_rule import MedianRule
from repro.core.state import Configuration
from repro.engine.batch import run_batch
from repro.engine.vectorized import simulate
from repro.experiments.workloads import blocks_workload, uniform_random_workload


class TestTheorem1LogNConvergence:
    """Theorem 1: O(log n) consensus from any state, no adversary."""

    def test_consensus_always_reached(self):
        for n in (64, 256, 1024):
            batch = run_batch(Configuration.all_distinct(n), 10, seed=n)
            assert batch.convergence_fraction == 1.0

    def test_rounds_grow_logarithmically(self):
        ns = [64, 128, 256, 512, 1024, 2048]
        means = []
        for n in ns:
            batch = run_batch(Configuration.all_distinct(n), 12, seed=n)
            means.append(batch.mean_rounds)
        fits = compare_predictors(ns, [2] * len(ns), means, ["log_n", "linear_n", "sqrt_n"])
        assert fits[0].predictor_name == "log_n"
        # doubling n adds roughly a constant number of rounds, far from doubling time
        assert means[-1] < 2.0 * means[0]

    def test_rounds_are_small_in_absolute_terms(self):
        batch = run_batch(Configuration.all_distinct(1024), 10, seed=3)
        # ~2-4x log2(n) in practice
        assert batch.mean_rounds < 6 * np.log2(1024)


class TestTheorem10TwoBinsWithAdversary:
    """Theorem 10: two bins + sqrt(n)-bounded adversary, O(log n) to n-O(sqrt n) agreement."""

    def test_almost_stable_despite_balancing_adversary(self):
        n = 1024
        budget = int(0.25 * np.sqrt(n))
        batch = run_batch(
            Configuration.two_bins(n, minority=n // 2),
            num_runs=6,
            adversary_factory=lambda: BalancingAdversary(budget=budget),
            seed=1,
            max_rounds=600,
        )
        assert batch.convergence_fraction == 1.0

    def test_agreement_reaches_n_minus_O_sqrt_n(self):
        n = 1024
        budget = int(0.25 * np.sqrt(n))
        res = simulate(Configuration.two_bins(n, minority=n // 2),
                       adversary=BalancingAdversary(budget=budget), seed=2,
                       max_rounds=600)
        assert res.reached_almost_stable
        assert res.final.agreement_fraction() >= 1.0 - 8 * np.sqrt(n) / n

    def test_stronger_adversary_slows_convergence(self):
        # the sqrt(n) threshold: larger T (as a multiple of sqrt n) takes longer
        n = 1024
        means = []
        for c in (0.1, 0.25, 0.5):
            budget = max(1, int(c * np.sqrt(n)))
            batch = run_batch(
                Configuration.two_bins(n, minority=n // 2),
                num_runs=5,
                adversary_factory=lambda b=budget: BalancingAdversary(budget=b),
                seed=3,
                max_rounds=2000,
            )
            assert batch.convergence_fraction == 1.0
            means.append(batch.mean_rounds)
        assert means[0] <= means[-1]


class TestMinimumRuleCounterexample:
    """Section 1.1: the minimum rule is not stabilizing; the median rule is."""

    def test_minimum_rule_flipped_by_one_corruption(self):
        n = 256
        init = Configuration.two_bins(n, minority=1, low=0, high=1)
        adv = RevivingAdversary(budget=1, delay=25, target_value=0)
        res = simulate(init, rule=MinimumRule(), adversary=adv, seed=4,
                       max_rounds=300, run_to_horizon=True)
        assert res.final.count_value(0) > 0.9 * n

    def test_median_rule_unaffected_by_same_attack(self):
        n = 256
        init = Configuration.two_bins(n, minority=1, low=0, high=1)
        adv = RevivingAdversary(budget=1, delay=25, target_value=0)
        res = simulate(init, rule=MedianRule(), adversary=adv, seed=4,
                       max_rounds=300, run_to_horizon=True)
        assert res.final.count_value(1) >= n - 4


class TestAverageCaseOddEven:
    """Theorems 4/21: odd m converges faster than even m in the average case."""

    def test_odd_m_faster_than_even_m(self):
        n, runs = 2048, 8
        mean_rounds = {}
        for m in (8, 9):
            batch = run_batch(uniform_random_workload(n, m), num_runs=runs, seed=50 + m)
            assert batch.convergence_fraction == 1.0
            mean_rounds[m] = batch.mean_rounds
        # odd m has a guaranteed middle-bin head start; even m must break a tie
        assert mean_rounds[9] < mean_rounds[8]

    def test_even_m_comparable_to_two_bin_case(self):
        n, runs = 2048, 6
        even = run_batch(uniform_random_workload(n, 8), num_runs=runs, seed=60)
        two = run_batch(Configuration.two_bins(n, minority=n // 2), num_runs=runs, seed=61)
        assert even.convergence_fraction == two.convergence_fraction == 1.0
        # both are Θ(log n): within a small constant factor of each other
        assert 0.2 <= even.mean_rounds / two.mean_rounds <= 5.0


class TestPowerOfTwoChoices:
    """The headline: two choices (median) vastly outperform one choice (voter)."""

    def test_median_beats_voter_from_many_values(self):
        n = 256
        init = blocks_workload(n, 16)
        median_batch = run_batch(init, num_runs=4, rule=MedianRule(), seed=70,
                                 max_rounds=400)
        voter_batch = run_batch(init, num_runs=4, rule=VoterRule(), seed=71,
                                max_rounds=400)
        assert median_batch.convergence_fraction == 1.0
        # the voter model needs Θ(n) rounds; at n=256 it should usually miss a
        # 400-round horizon or at the very least be far slower
        if voter_batch.convergence_fraction == 1.0:
            assert voter_batch.mean_rounds > 3 * median_batch.mean_rounds
        else:
            assert voter_batch.convergence_fraction < 1.0


class TestTheorem3ManyValuesWithAdversary:
    """Theorem 3: m values under a sqrt(n)-bounded adversary still stabilize."""

    def test_converges_for_moderate_m(self):
        n, m = 1024, 16
        budget = max(1, int(0.25 * np.sqrt(n)))
        batch = run_batch(
            blocks_workload(n, m),
            num_runs=5,
            adversary_factory=lambda: BalancingAdversary(budget=budget),
            seed=80,
            max_rounds=800,
        )
        assert batch.convergence_fraction == 1.0

    def test_rounds_grow_slowly_in_m(self):
        n = 1024
        budget = max(1, int(0.25 * np.sqrt(n)))
        means = []
        for m in (4, 16, 64):
            batch = run_batch(
                blocks_workload(n, m),
                num_runs=4,
                adversary_factory=lambda: BalancingAdversary(budget=budget),
                seed=90 + m,
                max_rounds=800,
            )
            assert batch.convergence_fraction == 1.0
            means.append(batch.mean_rounds)
        # multiplying m by 16 should far less than double-digit-multiply the rounds
        assert means[-1] < 4 * means[0] + 20
