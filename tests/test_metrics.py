"""Tests for repro.core.metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import (
    agreement_count,
    bin_loads_array,
    configuration_metrics,
    imbalance,
    labelled_imbalance,
    minority_count,
    superbin_split,
    support_size,
    two_bin_stats,
)
from repro.core.state import Configuration


class TestTwoBinStats:
    def test_balanced(self):
        stats = two_bin_stats(Configuration.two_bins(100, minority=50))
        assert stats.minority == 50
        assert stats.majority == 50
        assert stats.imbalance == 0.0
        assert stats.labelled_imbalance == 0.0
        assert stats.delta_fraction == 0.0

    def test_unbalanced(self):
        stats = two_bin_stats(Configuration.two_bins(100, minority=30))
        assert stats.minority == 30
        assert stats.majority == 70
        assert stats.imbalance == 20.0
        # left bin (value 0) holds 30 → labelled imbalance (R-L)/2 = +20
        assert stats.labelled_imbalance == 20.0

    def test_labelled_sign(self):
        # majority on the smaller value → negative labelled imbalance
        stats = two_bin_stats(Configuration.two_bins(100, minority=70))
        assert stats.labelled_imbalance == -20.0
        assert stats.imbalance == 20.0

    def test_single_value_degenerate(self):
        stats = two_bin_stats(Configuration.from_values([5, 5, 5, 5]))
        assert stats.left == 4
        assert stats.right == 0
        assert stats.imbalance == 2.0

    def test_rejects_three_values(self):
        with pytest.raises(ValueError):
            two_bin_stats(Configuration.from_values([0, 1, 2]))

    def test_imbalance_helpers(self):
        cfg = Configuration.two_bins(60, minority=20)
        assert imbalance(cfg) == 10.0
        assert labelled_imbalance(cfg) == 10.0

    def test_accepts_raw_arrays(self):
        assert imbalance(np.array([0, 0, 1, 1, 1, 1])) == 1.0


class TestCountMetrics:
    def test_support_size(self):
        assert support_size(Configuration.from_values([1, 1, 2, 9])) == 3

    def test_agreement_and_minority(self):
        cfg = Configuration.from_values([2, 2, 2, 7, 9])
        assert agreement_count(cfg) == 3
        assert minority_count(cfg) == 2

    def test_consensus_minority_zero(self):
        cfg = Configuration.from_values([4, 4, 4])
        assert minority_count(cfg) == 0
        assert agreement_count(cfg) == 3

    def test_bin_loads_array_default(self):
        bins, loads = bin_loads_array(Configuration.from_values([3, 1, 3]))
        assert bins.tolist() == [1, 3]
        assert loads.tolist() == [1, 2]

    def test_bin_loads_array_fixed_bins(self):
        bins, loads = bin_loads_array(Configuration.from_values([3, 1, 3]), bins=[0, 1, 2, 3])
        assert bins.tolist() == [0, 1, 2, 3]
        assert loads.tolist() == [0, 1, 0, 2]

    def test_loads_sum_to_n(self, rng):
        cfg = Configuration.uniform_random(123, 7, rng)
        _, loads = bin_loads_array(cfg)
        assert loads.sum() == 123


class TestSuperbinSplit:
    def test_split_counts(self):
        cfg = Configuration.from_values([0, 1, 1, 2, 2, 2, 5])
        left, mid, right = superbin_split(cfg, threshold=2)
        assert (left, mid, right) == (3, 3, 1)

    def test_split_sums_to_n(self, rng):
        cfg = Configuration.uniform_random(200, 11, rng)
        left, mid, right = superbin_split(cfg, threshold=5)
        assert left + mid + right == 200

    def test_threshold_below_all(self):
        cfg = Configuration.from_values([3, 4, 5])
        assert superbin_split(cfg, threshold=0) == (0, 0, 3)

    def test_threshold_above_all(self):
        cfg = Configuration.from_values([3, 4, 5])
        assert superbin_split(cfg, threshold=9) == (3, 0, 0)


class TestConfigurationMetrics:
    def test_fields(self):
        cfg = Configuration.from_values([1, 1, 2, 3])
        m = configuration_metrics(cfg, round_index=7)
        assert m.round == 7
        assert m.support_size == 3
        assert m.agreement == 2
        assert m.minority == 2
        assert m.majority_value == 1
        assert m.median_value in (1, 2)

    def test_agreement_fraction(self):
        cfg = Configuration.from_values([1, 1, 1, 2])
        m = configuration_metrics(cfg)
        assert m.agreement_fraction == pytest.approx(0.75)

    def test_accepts_raw_values(self):
        m = configuration_metrics(np.array([0, 0, 1]), round_index=2)
        assert m.round == 2
        assert m.agreement == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_fields_match_the_single_metric_functions(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 10, 64, 65):
            for m in (1, 2, 3, 9):
                values = rng.integers(-4, -4 + m, size=n) * 3
                cfg = Configuration.from_values(values)
                metrics = configuration_metrics(values, round_index=n)
                assert metrics.round == n
                assert metrics.support_size == support_size(cfg)
                assert metrics.agreement == agreement_count(cfg)
                assert metrics.minority == minority_count(cfg)
                assert metrics.median_value == cfg.median_value()
                assert metrics.majority_value == cfg.majority_value()

    def test_ties_and_even_n(self):
        # even n: the lower of the two central balls; tied majority: smaller value
        metrics = configuration_metrics(np.array([5, 9, 9, 5, 1, 7]))
        assert metrics.median_value == 5
        assert metrics.majority_value == 5
        metrics = configuration_metrics(np.array([8, 2, 8, 2]))
        assert (metrics.median_value, metrics.majority_value) == (2, 2)
        assert (metrics.support_size, metrics.agreement, metrics.minority) == (2, 2, 2)
