"""Statistical integration tests of the paper's headline claims.

These are the "does the reproduction actually reproduce the paper" tests:
each theorem's qualitative claim is checked at sizes small enough for the
test-suite (seconds, not minutes).  Besides the small spot checks, each
class asserts its claim's shape over the data series of the paper artifact
(the sweep ladders at half their default sizes, 5 runs per cell).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adversary.base import AdversaryTiming
from repro.adversary.strategies import BalancingAdversary, RevivingAdversary
from repro.analysis.markov import expected_absorption_time
from repro.analysis.statistics import compare_predictors, growth_ratio
from repro.core.baseline_rules import (
    MeanRule,
    MinimumRule,
    TwoChoicesMajorityRule,
    VoterRule,
)
from repro.core.median_rule import MedianRule, MedianRuleWithoutReplacement
from repro.core.state import Configuration
from repro.engine.batch import run_batch
from repro.engine.vectorized import simulate
from repro.experiments.figures import reproduce_figure1
from repro.experiments.runner import run_sweep
from repro.experiments.sweep import theorem2_sweep, theorem3_sweep, theorem4_sweep
from repro.experiments.workloads import blocks_workload, uniform_random_workload

LOG_FIRST = ["log_n", "sqrt_n", "linear_n"]


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

    def test_doubling_n_multiplies_rounds_by_under_1_6(self):
        """Theorem 1 data series: all-distinct start, n from 64 to 2048."""
        ns = [64, 128, 256, 512, 1024, 2048]
        means = []
        for n in ns:
            batch = run_batch(Configuration.all_distinct(n), 5, seed=1000 + n)
            assert batch.convergence_fraction == 1.0
            means.append(batch.mean_rounds)
        fits = compare_predictors(ns, [2] * len(ns), means, LOG_FIRST)
        assert fits[0].predictor_name == "log_n"
        assert all(r < 1.6 for _, _, r in growth_ratio(ns, means))


class TestTheorem2ConstantValuesWithAdversary:
    """Theorem 2: constant m under a sqrt(n)-bounded adversary, O(log n) rounds."""

    def test_rounds_grow_slower_than_sqrt_n(self):
        """Theorem 2 data series: m in {2, 4}, n from 128 to 2048."""
        report = run_sweep(theorem2_sweep(ns=(128, 512, 2048), ms=(2, 4),
                                          num_runs=5, seed=202))
        by_n = {}
        for cell in report.cells:
            assert cell.convergence_fraction == 1.0
            by_n.setdefault(cell.n, []).append(cell.mean_rounds)
        growth = np.mean(by_n[2048]) / np.mean(by_n[128])
        assert growth < 0.75 * np.sqrt(2048 / 128)


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

    def test_ladder_reaches_n_minus_8_sqrt_n_in_log_n_rounds(self):
        """Theorem 10 data series: balanced two bins, n from 128 to 2048."""
        ns = [128, 512, 2048]
        means = []
        for n in ns:
            budget = max(1, int(0.25 * np.sqrt(n)))
            init = Configuration.two_bins(n, minority=n // 2)
            batch = run_batch(
                init, num_runs=5,
                adversary_factory=lambda b=budget: BalancingAdversary(budget=b),
                seed=505 + n, max_rounds=1500)
            assert batch.convergence_fraction == 1.0
            means.append(batch.mean_rounds)
            res = simulate(init, adversary=BalancingAdversary(budget=budget),
                           seed=9999 + n, max_rounds=1500)
            assert res.final.agreement_fraction() >= 1.0 - 8 * np.sqrt(n) / n
        fits = compare_predictors(ns, [2] * len(ns), means, LOG_FIRST)
        assert fits[0].predictor_name == "log_n"

    def test_exact_chain_time_grows_logarithmically(self):
        """Theorem 10 without adversary, exactly: doubling n from 16 to 128
        multiplies the expected absorption time by under 1.6."""
        times = [expected_absorption_time(n, n // 2) for n in (16, 32, 64, 128)]
        assert all(b / a < 1.6 for a, b in zip(times, times[1:]))


class TestAdversaryThreshold:
    """Remark after Theorem 2: the sqrt(n) bound on T is essentially tight."""

    def test_weak_adversaries_lose_and_a_4_sqrt_n_one_pins_the_state(self):
        """Balanced two bins at n = 2048 against T = c·sqrt(n), 800 rounds."""
        n = 2048
        batches = {}
        for c in (0.0, 0.1, 0.25, 4.0):
            budget = int(round(c * math.sqrt(n)))
            batches[c] = run_batch(
                Configuration.two_bins(n, minority=n // 2), num_runs=5,
                adversary_factory=(lambda b=budget: BalancingAdversary(budget=b))
                if budget else None,
                seed=707, max_rounds=800)
        for c in (0.0, 0.1, 0.25):
            assert batches[c].convergence_fraction == 1.0
        m0, m1, m2 = (batches[c].mean_rounds for c in (0.0, 0.1, 0.25))
        assert m0 <= m1 * 1.2 + 5 and m1 <= m2 * 1.2 + 5
        assert batches[4.0].convergence_fraction < 1.0


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

    def test_attack_flips_minimum_in_every_run_and_median_in_none(self):
        """Section 1.1 counterexample at n = 512 over 5 runs."""
        n, runs = 512, 5

        def attack(rule):
            finals = [simulate(Configuration.two_bins(n, minority=1, low=0, high=1),
                               rule=rule,
                               adversary=RevivingAdversary(budget=1, delay=30,
                                                           target_value=0),
                               seed=606 + s, max_rounds=400,
                               run_to_horizon=True).final
                      for s in range(runs)]
            flipped = sum(f.majority_value() == 0 for f in finals)
            return flipped, np.mean([f.count_value(1) / n for f in finals])

        flipped, share_of_1 = attack(MinimumRule())
        assert flipped == runs and share_of_1 < 0.1
        flipped, share_of_1 = attack(MedianRule())
        assert flipped == 0 and share_of_1 > 0.98


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

    def test_odd_beats_even_on_average_with_and_without_adversary(self):
        """Theorem 4 / 21 / Corollary 22 data series at n = 2048."""
        for with_adversary, seed in ((False, 404), (True, 405)):
            report = run_sweep(theorem4_sweep(
                n=2048, ms=(4, 5, 8, 9, 16, 17), with_adversary=with_adversary,
                num_runs=5, seed=seed))
            assert all(c.convergence_fraction == 1.0 for c in report.cells)
            odd = [c.mean_rounds for c in report.cells if c.m % 2]
            even = [c.mean_rounds for c in report.cells if not c.m % 2]
            assert np.mean(odd) < np.mean(even), f"adversary={with_adversary}"


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

    def test_two_choice_rules_converge_and_voter_is_5x_slower(self):
        """Ablation: median and 3-majority vs the voter rule (horizon 12n)."""
        n = 256
        init = blocks_workload(n, 16)
        median = run_batch(init, num_runs=5, rule=MedianRule(), seed=111,
                           max_rounds=400)
        majority = run_batch(init, num_runs=5, rule=TwoChoicesMajorityRule(),
                             seed=111, max_rounds=400)
        voter = run_batch(init, num_runs=5, rule=VoterRule(), seed=111,
                          max_rounds=12 * n)
        assert median.convergence_fraction == 1.0
        assert majority.convergence_fraction == 1.0
        if voter.convergence_fraction == 1.0:
            assert voter.mean_rounds > 5 * median.mean_rounds


class TestAblations:
    """Design choices around the median rule the paper argues for."""

    def test_mean_rule_leaves_the_initial_values(self):
        init = Configuration.from_values(np.repeat(np.array([0, 10]), 128))
        median = simulate(init, rule=MedianRule(), seed=22, max_rounds=600)
        mean = simulate(init, rule=MeanRule(), seed=22, max_rounds=600)
        assert median.reached_consensus and median.winning_value in (0, 10)
        # the mean rule contracts towards ~5, which is not an initial value
        if mean.reached_consensus:
            assert mean.winning_value not in (0, 10)
        else:
            assert not set(mean.final.support.tolist()) <= {0, 10}

    def test_sampling_without_replacement_changes_little(self):
        init = Configuration.all_distinct(512)
        with_self = run_batch(init, num_runs=5, rule=MedianRule(), seed=33)
        without = run_batch(init, num_runs=5, rule=MedianRuleWithoutReplacement(),
                            seed=34)
        assert with_self.mean_rounds == pytest.approx(without.mean_rounds, rel=0.4)

    def test_adversary_before_or_after_sampling_changes_little(self):
        """Section 1.1 vs Section 3 placement of a T = 5 balancing adversary."""
        n = 512
        means = []
        for timing in (AdversaryTiming.BEFORE_SAMPLING,
                       AdversaryTiming.AFTER_SAMPLING):
            batch = run_batch(
                Configuration.two_bins(n, minority=n // 2), num_runs=5,
                adversary_factory=lambda t=timing: BalancingAdversary(budget=5,
                                                                      timing=t),
                seed=44, max_rounds=1200)
            assert batch.convergence_fraction == 1.0
            means.append(batch.mean_rounds)
        assert means[0] == pytest.approx(means[1], rel=0.75)


class TestFigure1Table:
    """Figure 1: every cell of the 2x3 table of bounds, at scale 0.5."""

    def test_cells_converge_within_12_log2_n_plus_40_rounds(self):
        report = reproduce_figure1(scale=0.5, num_runs=5, seed=808).report
        bound = 12 * np.log2(report.cells[0].n) + 40
        for cell in report.cells:
            assert cell.convergence_fraction == 1.0, cell.config.name
            assert cell.mean_rounds <= bound, cell.config.name
        # no-adversary cells are not slower than their adversarial twins
        for prefix in ("worst-2bins", "avg-"):
            rounds = {suffix: [c.mean_rounds for c in report.cells
                               if c.config.name.startswith(prefix)
                               and c.config.name.endswith(suffix)]
                      for suffix in ("/noadv", "/adv")}
            assert np.mean(rounds["/noadv"]) <= np.mean(rounds["/adv"]) * 1.5 + 10


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

    def test_m_and_n_ladders_grow_slowly(self):
        """Theorem 3 / 20 data series: m from 2 to 64 at n = 1024, and n
        from 256 to 2048 at m = 16."""
        report = run_sweep(theorem3_sweep(n=1024, ms=(2, 8, 32, 64),
                                          ns=(256, 512, 1024, 2048),
                                          m_for_n_sweep=16, num_runs=5, seed=303))
        assert all(c.convergence_fraction == 1.0 for c in report.cells)
        by_m = {c.m: c.mean_rounds for c in report.cells
                if c.config.name.startswith("m-sweep")}
        by_n = {c.n: c.mean_rounds for c in report.cells
                if c.config.name.startswith("n-sweep")}
        assert by_m[64] < 6 * by_m[2] + 20
        assert by_n[2048] / by_n[256] < 0.75 * np.sqrt(2048 / 256)
        means = [c.mean_rounds for c in report.cells]
        assert max(means) < 4 * min(means) + 20
