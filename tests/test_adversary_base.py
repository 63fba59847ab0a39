"""Tests for repro.adversary.base and budget enforcement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import (
    Adversary,
    AdversaryTiming,
    Corruption,
    CountCorruption,
    NullAdversary,
)
from repro.adversary.budget import BudgetLedger


class GreedyAdversary(Adversary):
    """Test helper: proposes to rewrite *every* process (over budget on purpose)."""

    def __init__(self, budget: int, target: int = 99) -> None:
        super().__init__(budget=budget)
        self.target = target

    def propose(self, values, round_index, admissible_values, rng):
        idx = np.arange(values.shape[0])
        return Corruption(indices=idx, values=np.full(idx.shape[0], self.target))


class OutOfRangeAdversary(Adversary):
    """Test helper: proposes invalid indices and inadmissible values."""

    def propose(self, values, round_index, admissible_values, rng):
        idx = np.array([-5, 0, 10_000, 1])
        vals = np.array([0, 12345, 0, int(admissible_values[0])])
        return Corruption(indices=idx, values=vals)


class TestCorruption:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Corruption(indices=np.array([1, 2]), values=np.array([3]))

    def test_empty(self):
        c = Corruption.empty()
        assert c.count == 0

    def test_count(self):
        c = Corruption(indices=np.array([1, 2, 3]), values=np.array([0, 0, 0]))
        assert c.count == 3


class TestAdversaryEnforcement:
    def test_budget_clipping(self, rng):
        adv = GreedyAdversary(budget=3, target=1)
        values = np.zeros(20, dtype=np.int64)
        out = adv.corrupt(values, 1, np.array([0, 1]), rng)
        assert int(np.count_nonzero(out != values)) <= 3

    def test_inadmissible_values_filtered(self, rng):
        adv = GreedyAdversary(budget=5, target=99)   # 99 not admissible
        values = np.zeros(10, dtype=np.int64)
        out = adv.corrupt(values, 1, np.array([0, 1]), rng)
        assert np.array_equal(out, values)

    def test_out_of_range_indices_dropped(self, rng):
        adv = OutOfRangeAdversary(budget=10)
        values = np.zeros(5, dtype=np.int64)
        out = adv.corrupt(values, 1, np.array([0, 7]), rng)
        # only indices 0 and 1 are in range; of those, only admissible values kept
        changed = np.flatnonzero(out != values)
        assert set(changed.tolist()) <= {0, 1}

    def test_input_never_mutated(self, rng):
        adv = GreedyAdversary(budget=5, target=1)
        values = np.zeros(10, dtype=np.int64)
        _ = adv.corrupt(values, 1, np.array([0, 1]), rng)
        assert np.all(values == 0)

    def test_zero_budget_never_changes_anything(self, rng):
        adv = NullAdversary()
        values = np.arange(10)
        out = adv.corrupt(values, 1, np.arange(10), rng)
        assert np.array_equal(out, values)

    def test_ledger_records_every_round(self, rng):
        adv = GreedyAdversary(budget=2, target=1)
        values = np.zeros(10, dtype=np.int64)
        for t in range(1, 6):
            values = adv.corrupt(values, t, np.array([0, 1]), rng)
        assert adv.ledger.verify()
        assert set(adv.ledger.per_round) == {1, 2, 3, 4, 5}
        assert adv.ledger.max_in_round() <= 2

    def test_reset_clears_ledger(self, rng):
        adv = GreedyAdversary(budget=2, target=1)
        adv.corrupt(np.zeros(5, dtype=np.int64), 1, np.array([0, 1]), rng)
        adv.reset()
        assert adv.ledger.total == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            NullAdversary.__init__.__wrapped__ if False else GreedyAdversary(budget=-1)

    def test_duplicate_indices_deduplicated(self, rng):
        class DupAdversary(Adversary):
            def propose(self, values, round_index, admissible_values, rng):
                return Corruption(indices=np.array([2, 2, 2]),
                                  values=np.array([1, 1, 1]))

        adv = DupAdversary(budget=3)
        values = np.zeros(5, dtype=np.int64)
        out = adv.corrupt(values, 1, np.array([0, 1]), rng)
        assert adv.ledger.per_round[1] == 1
        assert out[2] == 1

    def test_timing_default(self):
        adv = GreedyAdversary(budget=1)
        assert adv.timing is AdversaryTiming.BEFORE_SAMPLING


class _ScriptedAdversary(Adversary):
    """Test helper: proposes fixed writes and records the palette it was shown."""

    def __init__(self, budget, indices, values):
        super().__init__(budget=budget)
        self.indices, self.values, self.seen = indices, values, []

    def propose(self, values, round_index, admissible_values, rng):
        self.seen.append(np.array(admissible_values))
        return Corruption(indices=np.array(self.indices), values=np.array(self.values))


class TestPalette:
    def test_unsorted_palette_with_duplicates_is_honoured(self, rng):
        adv = _ScriptedAdversary(budget=4, indices=[0, 1, 2, 3], values=[9, 7, 5, 1])
        out = adv.corrupt(np.zeros(6, dtype=np.int64), 1, np.array([9, 5, 5, 1, 9]), rng)
        assert out.tolist() == [9, 0, 5, 1, 0, 0]   # 7 is not admissible
        assert adv.seen[0].tolist() == [1, 5, 9]    # strategies see it normalised
        assert adv.ledger.per_round[1] == 3

    def test_different_palette_on_a_later_call_is_honoured(self, rng):
        adv = _ScriptedAdversary(budget=3, indices=[0, 1, 2], values=[1, 2, 3])
        values = np.zeros(4, dtype=np.int64)
        assert adv.corrupt(values, 1, np.array([0, 1, 2]), rng).tolist() == [1, 2, 0, 0]
        assert adv.corrupt(values, 2, np.array([3, 2]), rng).tolist() == [0, 2, 3, 0]
        assert adv.corrupt(values, 3, np.array([1, 3]), rng).tolist() == [1, 0, 3, 0]
        assert [p.tolist() for p in adv.seen] == [[0, 1, 2], [2, 3], [1, 3]]

    def test_count_edits_honour_an_unsorted_palette(self, rng):
        class Mover(Adversary):
            def propose(self, values, round_index, admissible_values, rng):
                return Corruption.empty()

            def propose_counts(self, support, counts, round_index,
                               admissible_values, rng):
                return CountCorruption(src_values=[0, 0], dst_values=[2, 1],
                                       amounts=[1, 1])

        adv = Mover(budget=2)
        support = np.array([0, 1, 2])
        out = adv.corrupt_counts(support, np.array([4, 0, 0]), 1, np.array([2, 0, 2]), rng)
        assert out.tolist() == [3, 0, 1]            # 1 is not admissible
        out = adv.corrupt_counts(support, np.array([4, 0, 0]), 2, np.array([1, 0]), rng)
        assert out.tolist() == [3, 1, 0]            # ... on this call 2 is not


class TestBudgetLedger:
    def test_record_and_totals(self):
        ledger = BudgetLedger(budget=5)
        ledger.record(1, 3)
        ledger.record(2, 5)
        ledger.record(3, 0)
        assert ledger.total == 8
        assert ledger.rounds_active == 2
        assert ledger.max_in_round() == 5
        assert ledger.verify()

    def test_history_dense(self):
        ledger = BudgetLedger(budget=5)
        ledger.record(0, 1)
        ledger.record(3, 2)
        assert ledger.history() == [1, 0, 0, 2]

    def test_over_budget_raises(self):
        ledger = BudgetLedger(budget=2)
        with pytest.raises(ValueError):
            ledger.record(1, 3)

    def test_cumulative_over_budget_raises(self):
        ledger = BudgetLedger(budget=2)
        ledger.record(1, 2)
        with pytest.raises(ValueError):
            ledger.record(1, 1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger(budget=2).record(0, -1)

    def test_empty_history(self):
        assert BudgetLedger(budget=1).history() == []
