"""Tests for repro.core.fineness: the partial order and the Lemma 17 coupling."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.fineness import (
    coupled_run,
    coupled_step,
    is_finer,
    refine_configuration,
    refinement_map,
    sorted_loads,
)
from repro.core.median_rule import MedianRule
from repro.core.state import Configuration
from repro.engine.batch import run_batch
from repro.experiments.workloads import blocks_workload


class TestRefinementMap:
    def test_simple_grouping(self):
        # fine loads [1,1,1,1] grouped into coarse [2,2]
        assert refinement_map([1, 1, 1, 1], [2, 2]) == [0, 0, 1, 1]

    def test_identity(self):
        assert refinement_map([3, 2], [3, 2]) == [0, 1]

    def test_all_into_one(self):
        assert refinement_map([1, 2, 3], [6]) == [0, 0, 0]

    def test_impossible_split(self):
        # cannot split a fine bin across coarse bins
        assert refinement_map([3, 3], [2, 4]) is None

    def test_total_mismatch(self):
        assert refinement_map([1, 1], [3]) is None

    def test_coarse_finer_than_fine_fails(self):
        assert refinement_map([4], [2, 2]) is None


class TestIsFiner:
    def test_all_one_finer_than_everything(self, rng):
        fine = Configuration.all_distinct(30)
        coarse = Configuration.uniform_random(30, 4, rng)
        assert is_finer(fine, coarse)

    def test_reflexive(self, rng):
        cfg = Configuration.uniform_random(30, 4, rng)
        assert is_finer(cfg, cfg)

    def test_antisymmetric_except_equal_loads(self):
        a = Configuration.from_values([0, 0, 1, 2])   # loads 2,1,1
        b = Configuration.from_values([0, 0, 0, 1])   # loads 3,1
        assert is_finer(a, b)
        assert not is_finer(b, a)

    def test_not_finer_when_grouping_impossible(self):
        a = Configuration.from_values([0, 0, 0, 1, 1])   # loads 3,2
        b = Configuration.from_values([0, 0, 1, 1, 1])   # loads 2,3
        assert not is_finer(a, b)
        assert not is_finer(b, a)

    def test_accepts_load_sequences(self):
        assert is_finer([1, 1, 2], [2, 2])
        assert not is_finer([2, 2], [1, 1, 2])

    def test_sorted_loads(self):
        cfg = Configuration.from_values([5, 5, 1, 9])
        assert sorted_loads(cfg) == [1, 2, 1]


class TestRefineConfiguration:
    def test_maps_fine_bins_to_coarse_values(self):
        fine = Configuration.from_values([0, 1, 2, 3])
        assignment = [0, 0, 1, 1]
        out = refine_configuration(fine, coarse_support=[10, 20], assignment=assignment)
        assert out.values.tolist() == [10, 10, 20, 20]

    def test_wrong_assignment_length(self):
        fine = Configuration.from_values([0, 1])
        with pytest.raises(ValueError):
            refine_configuration(fine, coarse_support=[0], assignment=[0, 0, 0])


class TestCoupling:
    def test_coupled_step_commutes_with_monotone_map(self, rng):
        # Lemma 17 core fact: running the rule then mapping == mapping then running,
        # for the same samples.
        n = 80
        fine = Configuration.all_distinct(n)
        # coarse: group values into 4 blocks of 20 via the monotone map v -> v // 20
        coarse_vals = fine.values // 20
        rule = MedianRule()
        samples = rule.sample_contacts(n, rng)
        fine_next, coarse_next = coupled_step(fine.copy_values(),
                                              coarse_vals.astype(np.int64), samples, rule)
        assert np.array_equal(coarse_next, fine_next // 20)

    def test_coupled_run_coarse_is_image_of_fine(self, rng):
        n = 60
        fine = Configuration.all_distinct(n)
        coarse = Configuration.from_values(np.repeat(np.arange(3), 20))
        out = coupled_run(fine, coarse, rounds=40, rng=rng)
        # at every recorded round, the coarse run equals fine // 20
        for f_cfg, c_cfg in zip(out.fine, out.coarse):
            assert np.array_equal(c_cfg.values, f_cfg.values // 20)

    def test_coarse_converges_no_later_than_fine(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 60
            fine = Configuration.all_distinct(n)
            coarse = Configuration.from_values(np.repeat(np.arange(4), 15))
            out = coupled_run(fine, coarse, rounds=400, rng=rng)
            assert out.fine_consensus_round is not None
            assert out.coarse_consensus_round is not None
            assert out.coarse_consensus_round <= out.fine_consensus_round

    def test_four_blocks_never_finish_after_all_distinct(self):
        """Lemma 17 coupling at n = 128 over 5 coupled runs."""
        fine = Configuration.all_distinct(128)
        coarse = blocks_workload(128, 4)
        for s in range(5):
            out = coupled_run(fine, coarse, rounds=800,
                              rng=np.random.default_rng(900 + s))
            assert out.fine_consensus_round is not None
            assert out.coarse_consensus_round is not None
            assert out.coarse_consensus_round <= out.fine_consensus_round

    def test_mean_consensus_time_monotone_in_fineness(self):
        """Lemma 17 in the mean: all-distinct >= 4 blocks and 16 blocks >=
        2 blocks at n = 256 over 15 runs, up to 2 rounds of noise."""
        means = {}
        for label, cfg in (("all-distinct", Configuration.all_distinct(256)),
                           ("16 blocks", blocks_workload(256, 16)),
                           ("4 blocks", blocks_workload(256, 4)),
                           ("2 blocks", blocks_workload(256, 2))):
            batch = run_batch(cfg, 15, seed=zlib.crc32(label.encode()))
            assert batch.convergence_fraction == 1.0
            means[label] = batch.mean_rounds
        assert means["all-distinct"] >= means["4 blocks"] - 2.0
        assert means["16 blocks"] >= means["2 blocks"] - 2.0

    def test_mismatched_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            coupled_run(Configuration.all_distinct(10), Configuration.all_distinct(12),
                        rounds=5, rng=rng)

    def test_not_finer_rejected(self, rng):
        a = Configuration.from_values([0, 0, 0, 1, 1])
        b = Configuration.from_values([0, 0, 1, 1, 1])
        with pytest.raises(ValueError):
            coupled_run(a, b, rounds=5, rng=rng)

    def test_already_consensus_round_zero(self, rng):
        fine = Configuration.from_values([0, 1, 2, 3])
        coarse = Configuration.from_values([5, 5, 5, 5])
        out = coupled_run(fine, coarse, rounds=50, rng=rng)
        assert out.coarse_consensus_round == 0
