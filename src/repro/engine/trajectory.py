"""Trajectory recording for simulation runs.

A :class:`Trajectory` stores per-round snapshots and/or derived series of one
run.  Recording every full configuration is memory-heavy for large ``n``, so
the recorder supports three levels:

* ``RecordLevel.NONE``    — nothing but the final configuration;
* ``RecordLevel.METRICS`` — per-round scalar metrics (agreement, support
  size, minority count, median value) — the default, O(rounds) memory;
* ``RecordLevel.FULL``    — every configuration snapshot, O(rounds · n)
  memory; used by coupling tests and small-n visualisation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import ConfigurationMetrics, configuration_metrics, histogram_metrics
from repro.core.state import Configuration

__all__ = ["RecordLevel", "Trajectory", "TrajectoryRecorder"]


class RecordLevel(enum.Enum):
    """How much of a run to record."""

    NONE = "none"
    METRICS = "metrics"
    FULL = "full"


@dataclass
class Trajectory:
    """Recorded data of a single run.

    Attributes
    ----------
    metrics:
        Per-round :class:`~repro.core.metrics.ConfigurationMetrics` (empty
        for ``RecordLevel.NONE``).
    configurations:
        Per-round :class:`~repro.core.state.Configuration` snapshots (only
        for ``RecordLevel.FULL``).
    """

    metrics: List[ConfigurationMetrics] = field(default_factory=list)
    configurations: List[Configuration] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # derived series (vectorized views over the metric records)
    # ------------------------------------------------------------------ #
    def series(self, name: str) -> np.ndarray:
        """Extract a named per-round series from the metric records.

        Valid names: ``support_size``, ``agreement``, ``minority``,
        ``median_value``, ``majority_value``, ``agreement_fraction``.
        """
        if not self.metrics:
            return np.empty(0)
        if name == "agreement_fraction":
            return np.array([m.agreement_fraction for m in self.metrics], dtype=np.float64)
        if not hasattr(self.metrics[0], name):
            raise KeyError(f"unknown metric series {name!r}")
        return np.array([getattr(m, name) for m in self.metrics])

    @property
    def rounds(self) -> int:
        """Number of recorded rounds (excluding the initial state)."""
        if self.metrics:
            return len(self.metrics) - 1
        if self.configurations:
            return len(self.configurations) - 1
        return 0

    def support_series(self) -> np.ndarray:
        return self.series("support_size")

    def minority_series(self) -> np.ndarray:
        return self.series("minority")


class TrajectoryRecorder:
    """Incremental recorder used by the simulation engines."""

    def __init__(self, level: RecordLevel = RecordLevel.METRICS) -> None:
        self.level = level
        self.trajectory = Trajectory()

    def record(self, values: Optional[np.ndarray], round_index: int,
               census: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> None:
        """Record one round's state according to the configured level.

        ``census`` is the round's ``(support, counts)`` histogram when the
        caller already holds it (empty bins allowed); the metrics are then
        built from it instead of from ``values``, which only ``FULL`` needs.
        """
        if self.level is RecordLevel.NONE:
            return
        if self.level is RecordLevel.FULL:
            self.trajectory.configurations.append(Configuration.from_values(values))
        self.trajectory.metrics.append(
            configuration_metrics(values, round_index) if census is None
            else histogram_metrics(*census, round_index))

    def finish(self) -> Trajectory:
        """Return the completed trajectory."""
        return self.trajectory
