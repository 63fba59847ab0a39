"""Tests for repro.core.occupancy_state: the O(m) state representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import configuration_metrics
from repro.core.occupancy_state import (
    OccupancyState,
    occupancy_from_values,
    occupancy_metrics,
)
from repro.core.state import Configuration


class TestConstruction:
    def test_from_values_counts(self):
        st = OccupancyState.from_values([3, 1, 3, 3, 7])
        assert st.support.tolist() == [1, 3, 7]
        assert st.counts.tolist() == [1, 3, 1]
        assert st.n == 5

    def test_from_configuration_roundtrip(self):
        cfg = Configuration.from_values([5, 5, 2, 9, 2, 2])
        st = OccupancyState.from_configuration(cfg)
        assert st.loads == cfg.loads
        back = st.to_configuration()
        assert back.loads == cfg.loads

    def test_from_loads_keeps_zero_bins(self):
        st = OccupancyState.from_loads({0: 4, 1: 0, 2: 6})
        assert st.num_bins == 3
        assert st.num_values == 2
        assert st.n == 10

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            OccupancyState(support=np.array([3, 1]), counts=np.array([1, 1]))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            OccupancyState(support=np.array([1, 2]), counts=np.array([1, -1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            OccupancyState(support=np.array([1, 2]), counts=np.array([1]))

    def test_arrays_are_read_only(self):
        st = OccupancyState.from_values([1, 2, 2])
        with pytest.raises(ValueError):
            st.counts[0] = 99


class TestConfigurationCompatibleQueries:
    """OccupancyState must answer every query exactly like the expanded
    Configuration — that is what makes SimulationResult substrate-agnostic."""

    @pytest.mark.parametrize("values", [
        [0],
        [7, 7, 7],
        [0, 1],
        [0, 0, 1, 1],
        [5, 3, 3, 9, 9, 9, 1],
        list(range(10)),
        [2, 2, 2, 8, 8, 8],          # tie in loads
        [-5, -5, 0, 3, 3],           # negative values
    ])
    def test_matches_configuration(self, values):
        cfg = Configuration.from_values(values)
        st = OccupancyState.from_configuration(cfg)
        assert st.n == cfg.n
        assert st.num_values == cfg.num_values
        assert st.loads == cfg.loads
        assert st.is_consensus == cfg.is_consensus
        assert st.median_value() == cfg.median_value()
        assert st.majority_value() == cfg.majority_value()
        assert st.agreement_fraction() == pytest.approx(cfg.agreement_fraction())
        for v in set(values) | {12345}:
            assert st.count_value(v) == cfg.count_value(v)

    @pytest.mark.parametrize("values", [
        [0, 1, 1], [4, 4, 2, 2, 7, 0, 0, 0], [1, 2, 3, 4, 5],
    ])
    def test_metrics_match_configuration_metrics(self, values):
        st = occupancy_from_values(values)
        assert occupancy_metrics(st, 3) == configuration_metrics(np.array(values), 3)

    def test_metrics_of_an_all_zero_state_raise(self):
        with pytest.raises(ValueError, match="empty histogram"):
            occupancy_metrics(OccupancyState.from_loads({1: 0}))
        with pytest.raises(ValueError, match="empty histogram"):
            occupancy_metrics(OccupancyState.from_loads({0: 0, 3: 0}), 2)

    def test_zero_bins_do_not_disturb_queries(self):
        dense = OccupancyState.from_values([1, 1, 5])
        padded = dense.with_support([0, 1, 2, 5, 9])
        assert padded.num_bins == 5
        assert padded.num_values == dense.num_values
        assert padded.loads == dense.loads
        assert padded.median_value() == dense.median_value()
        assert padded.majority_value() == dense.majority_value()
        assert padded == dense  # equality compares compacted states


class TestTransformations:
    def test_with_support_rejects_dropping_nonempty_bins(self):
        st = OccupancyState.from_values([1, 2])
        with pytest.raises(ValueError):
            st.with_support([1, 3])

    def test_compacted_drops_empty_bins(self):
        st = OccupancyState.from_loads({0: 2, 1: 0, 5: 3})
        c = st.compacted()
        assert c.support.tolist() == [0, 5]
        assert c.counts.tolist() == [2, 3]

    def test_fractions_sum_to_one(self):
        st = OccupancyState.from_values([0, 0, 1, 2, 2, 2])
        assert st.fractions.sum() == pytest.approx(1.0)

    def test_to_configuration_expands_sorted_across_empty_bins(self):
        st = OccupancyState.from_loads({0: 4, 1: 0, 2: 6})
        values = st.to_configuration().values
        assert values.dtype == np.int64
        assert values.tolist() == [0] * 4 + [2] * 6

    def test_to_configuration_refuses_huge_n(self):
        st = OccupancyState(support=np.array([0, 1]),
                            counts=np.array([10**9, 10**9]))
        with pytest.raises(ValueError, match="materialize"):
            st.to_configuration()

    def test_huge_n_queries_stay_cheap(self):
        # the whole point: O(m) queries at n = 2·10⁹ without materializing
        st = OccupancyState(support=np.array([0, 1, 2]),
                            counts=np.array([10**9, 10**9, 17]))
        assert st.n == 2 * 10**9 + 17
        assert st.median_value() == 1
        assert st.majority_value() == 0
        assert st.minority_count() == 10**9 + 17
