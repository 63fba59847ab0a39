"""Per-round budget accounting for T-bounded adversaries.

Every call to :meth:`repro.adversary.base.Adversary.corrupt` records how many
processes it actually rewrote.  The ledger lets tests assert the T-bound was
never exceeded and lets experiments report how much of its budget an
adversary actually used (several strategies — e.g. the balancing adversary —
spend far less than ``T`` on most rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["BudgetLedger"]


@dataclass
class BudgetLedger:
    """Audit trail of adversarial writes, one entry per round."""

    budget: int
    per_round: Dict[int, int] = field(default_factory=dict)

    def record(self, round_index: int, count: int) -> None:
        """Record that ``count`` processes were rewritten in ``round_index``.

        Raises
        ------
        ValueError
            If the recorded count exceeds the budget (this indicates a bug in
            the enforcement wrapper, never in a strategy, since strategies are
            clipped before recording).
        """
        if count < 0:
            raise ValueError(f"round {round_index}: corruption count {count} cannot be negative")
        if count > self.budget:
            raise ValueError(
                f"round {round_index}: recorded {count} corruptions exceeding budget {self.budget}"
            )
        self.per_round[int(round_index)] = self.per_round.get(int(round_index), 0) + int(count)
        if self.per_round[int(round_index)] > self.budget:
            raise ValueError(
                f"round {round_index}: cumulative corruptions "
                f"{self.per_round[int(round_index)]} exceed budget {self.budget}"
            )

    @property
    def total(self) -> int:
        """Total number of adversarial writes across all rounds."""
        return sum(self.per_round.values())

    @property
    def rounds_active(self) -> int:
        """Number of rounds in which at least one process was rewritten."""
        return sum(1 for c in self.per_round.values() if c > 0)

    def max_in_round(self) -> int:
        """Largest number of writes used in any single round (0 if none)."""
        return max(self.per_round.values(), default=0)

    def history(self) -> List[int]:
        """Writes per round as a dense list indexed by round (missing → 0)."""
        if not self.per_round:
            return []
        horizon = max(self.per_round) + 1
        return [self.per_round.get(t, 0) for t in range(horizon)]

    def verify(self) -> bool:
        """Return True iff no round exceeded the budget."""
        return all(c <= self.budget for c in self.per_round.values())
