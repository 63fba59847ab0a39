"""Phase-structure detection for the Theorem 20 argument.

Theorem 20 divides a run with ``m`` initial values and a √n-bounded adversary
into ``log m + 1`` phases.  At the end of phase ``i`` there is a small set
``S_i`` of at most ``m/2^i + 1`` *candidate bins* such that both the total
load of ``S_i``-and-everything-to-its-left and of ``S_i``-and-everything-to-
its-right exceed ``n/2 + C·sqrt(n log n)`` — i.e. the eventual winner is
already known to lie inside ``S_i``, and ``S_i`` halves every phase.

:func:`candidate_window` computes, for a single configuration, the smallest
contiguous window of values satisfying that two-sided load condition;
:func:`detect_phases` tracks the window width along a trajectory and reports
when it halves, giving an empirical view of the phase structure (the number
of detected phases should be ≈ log2(m), each lasting ≈ O(log log n) rounds —
``tests/test_analysis_phases.py`` checks this shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.state import Configuration

__all__ = ["candidate_window", "PhaseRecord", "detect_phases", "expected_phase_count"]


def candidate_window(config: Configuration, margin: Optional[float] = None
                     ) -> Tuple[int, int]:
    """Smallest contiguous value window [lo, hi] satisfying the Theorem 20 condition.

    The condition: the balls with value ≤ hi number at least
    ``n/2 + margin`` and the balls with value ≥ lo number at least
    ``n/2 + margin`` (so the "winner bin" provably lies in [lo, hi] if the
    margin exceeds the adversary's per-round influence).  ``margin`` defaults
    to ``sqrt(n · log n)``.

    Returns the (lo, hi) pair of values; for a consensus configuration the
    window is the single agreed value.
    """
    n = config.n
    if margin is None:
        margin = math.sqrt(n * math.log(max(n, 2)))
    target = n / 2.0 + margin

    values = np.sort(config.values)
    uniq = np.unique(values)
    # cumulative counts: how many balls have value <= v  /  >= v
    counts = np.searchsorted(values, uniq, side="right")          # <= v
    counts_ge = n - np.searchsorted(values, uniq, side="left")    # >= v

    # hi = smallest value with at least `target` balls <= hi (clip to max value)
    hi_candidates = np.flatnonzero(counts >= target)
    hi = int(uniq[hi_candidates[0]]) if hi_candidates.size else int(uniq[-1])
    # lo = largest value with at least `target` balls >= lo (clip to min value)
    lo_candidates = np.flatnonzero(counts_ge >= target)
    lo = int(uniq[lo_candidates[-1]]) if lo_candidates.size else int(uniq[0])
    if lo > hi:
        # margins overlap past each other — the winner is pinned to one value
        lo = hi = int(config.median_value())
    return lo, hi


@dataclass(frozen=True)
class PhaseRecord:
    """One detected phase: the round it ended and the candidate-window size then."""

    phase_index: int
    end_round: int
    window_values: int
    window_lo: int
    window_hi: int


def detect_phases(trajectory: Sequence[Configuration],
                  margin: Optional[float] = None) -> List[PhaseRecord]:
    """Detect the rounds at which the candidate window (in distinct values) halves.

    Parameters
    ----------
    trajectory:
        Full configuration snapshots (``RecordLevel.FULL`` trajectories).
    margin:
        Two-sided load margin; default ``sqrt(n log n)`` as in the paper.

    Returns
    -------
    list of PhaseRecord
        One record per halving of the candidate-window size, in order.  The
        number of records is ≈ log2(initial window size).
    """
    if not trajectory:
        return []
    records: List[PhaseRecord] = []
    lo, hi = candidate_window(trajectory[0], margin)
    support0 = trajectory[0].support
    current_size = int(np.count_nonzero((support0 >= lo) & (support0 <= hi)))
    current_size = max(current_size, 1)
    threshold = max(current_size // 2, 1)
    phase = 0

    for t, cfg in enumerate(trajectory):
        lo, hi = candidate_window(cfg, margin)
        support = cfg.support
        size = int(np.count_nonzero((support >= lo) & (support <= hi)))
        size = max(size, 1)
        while size <= threshold and threshold >= 1:
            phase += 1
            records.append(PhaseRecord(phase_index=phase, end_round=t,
                                       window_values=size, window_lo=lo, window_hi=hi))
            if threshold == 1:
                return records
            threshold = max(threshold // 2, 1)
    return records


def expected_phase_count(m: int) -> int:
    """The Theorem 20 phase budget, ``log2(m) + 1``."""
    if m < 1:
        raise ValueError("m must be positive")
    return int(math.ceil(math.log2(max(m, 2)))) + 1
