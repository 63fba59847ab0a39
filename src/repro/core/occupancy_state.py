"""Occupancy-vector state: counts over the value support instead of per-ball values.

The median-rule dynamics (and every other anonymous, symmetric rule in this
library) depend on a configuration only through its *occupancy vector*: how
many of the ``n`` processes hold each of the ``m`` distinct values.  Storing
one count per value instead of one value per process turns the state from
O(n) to O(m) memory, which is what makes n = 10⁸–10⁹ simulations feasible —
see :mod:`repro.engine.occupancy` for the matching O(m²)-per-round engine.

:class:`OccupancyState` deliberately mirrors the query API of
:class:`~repro.core.state.Configuration` (``n``, ``num_values``, ``support``,
``loads``, ``is_consensus``, ``median_value()``, ``majority_value()``,
``agreement_fraction()``, ``count_value()``) so that result records and
analysis code can hold either representation without caring which substrate
produced it.  Unlike ``Configuration``, an occupancy state may carry *empty*
bins: the engine keeps the support fixed over a run (initial support ∪
admissible adversary values) so that the adversary can re-introduce extinct
values by pure count edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.core.metrics import ConfigurationMetrics, histogram_median, histogram_metrics
from repro.core.state import Configuration

__all__ = [
    "OccupancyState",
    "occupancy_from_values",
    "occupancy_metrics",
]

#: Above this many processes, expanding an occupancy state to a per-process
#: value vector is considered a mistake (8 bytes/process: 10⁸ ≈ 800 MB).
MATERIALIZE_LIMIT_DEFAULT = 1_000_000


@dataclass(frozen=True)
class OccupancyState:
    """Counts over a sorted value support: ``counts[i]`` balls hold ``support[i]``.

    Parameters
    ----------
    support:
        Strictly increasing 1-D int64 array of value labels (bins).
    counts:
        Non-negative int64 array of the same length; ``counts[i]`` is the
        number of processes currently holding ``support[i]``.  Zero entries
        are allowed (empty bins kept for adversary re-introduction).
    """

    support: np.ndarray = field()
    counts: np.ndarray = field()

    def __post_init__(self) -> None:
        sup = np.ascontiguousarray(np.asarray(self.support, dtype=np.int64))
        cnt = np.ascontiguousarray(np.asarray(self.counts, dtype=np.int64))
        if sup.ndim != 1 or cnt.ndim != 1:
            raise ValueError("support and counts must be 1-D arrays")
        if sup.shape[0] != cnt.shape[0]:
            raise ValueError(
                f"support ({sup.shape[0]}) and counts ({cnt.shape[0]}) lengths differ"
            )
        if sup.shape[0] > 1 and np.any(np.diff(sup) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(cnt < 0):
            raise ValueError("counts must be non-negative")
        sup.setflags(write=False)
        cnt.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "counts", cnt)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_configuration(cls, config: Configuration) -> "OccupancyState":
        """Count the bin loads of a per-process configuration."""
        uniq, counts = np.unique(config.values, return_counts=True)
        return cls(support=uniq, counts=counts)

    @classmethod
    def from_values(cls, values: Sequence[int] | np.ndarray) -> "OccupancyState":
        """Count the bin loads of a raw per-process value vector."""
        uniq, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
        return cls(support=uniq, counts=counts)

    @classmethod
    def from_loads(cls, loads: Mapping[int, int]) -> "OccupancyState":
        """Build from a ``{value: count}`` mapping (zero counts are kept)."""
        items = sorted((int(v), int(c)) for v, c in loads.items())
        support = np.array([v for v, _ in items], dtype=np.int64)
        counts = np.array([c for _, c in items], dtype=np.int64)
        return cls(support=support, counts=counts)

    # ------------------------------------------------------------------ #
    # Configuration-compatible queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of processes (balls)."""
        return int(self.counts.sum())

    @property
    def num_bins(self) -> int:
        """Number of tracked bins, including empty ones."""
        return int(self.support.shape[0])

    @property
    def num_values(self) -> int:
        """Number of *non-empty* bins (distinct values currently present)."""
        return int(np.count_nonzero(self.counts))

    @property
    def loads(self) -> Dict[int, int]:
        """Bin loads ``{value: count}`` over non-empty bins."""
        nz = np.flatnonzero(self.counts)
        return {int(self.support[i]): int(self.counts[i]) for i in nz}

    @property
    def is_consensus(self) -> bool:
        """True iff at most one bin is non-empty."""
        return self.num_values <= 1

    @property
    def fractions(self) -> np.ndarray:
        """Load fractions ``counts / n`` (the mean-field state)."""
        n = self.n
        if n == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts.astype(np.float64) / float(n)

    def count_value(self, value: int) -> int:
        """Number of processes currently holding ``value``."""
        idx = np.searchsorted(self.support, int(value))
        if idx < self.support.shape[0] and self.support[idx] == int(value):
            return int(self.counts[idx])
        return 0

    def median_value(self) -> int:
        """The value of the median ball (lower of the two central balls)."""
        if self.n == 0:
            raise ValueError("median of an empty occupancy state")
        return histogram_median(self.support, self.counts)

    def majority_value(self) -> int:
        """The most loaded value (ties broken towards the smaller value)."""
        if self.n == 0:
            raise ValueError("majority of an empty occupancy state")
        return int(self.support[int(np.argmax(self.counts))])

    def agreement_count(self) -> int:
        """Load of the most populated bin."""
        return int(self.counts.max()) if self.counts.size else 0

    def minority_count(self) -> int:
        """Number of balls outside the most populated bin."""
        return self.n - self.agreement_count()

    def agreement_fraction(self) -> float:
        """Fraction of processes holding the most loaded value."""
        n = self.n
        return float(self.agreement_count()) / float(n) if n else 0.0

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def with_counts(self, counts: np.ndarray) -> "OccupancyState":
        """Same support, new counts (engine round updates)."""
        return OccupancyState(support=self.support, counts=np.asarray(counts))

    def with_support(self, support: Sequence[int] | np.ndarray) -> "OccupancyState":
        """Re-align to a superset support (new bins start empty)."""
        new_sup = np.unique(np.asarray(support, dtype=np.int64))
        missing = np.setdiff1d(self.support[self.counts > 0], new_sup)
        if missing.size:
            raise ValueError(f"new support drops non-empty bins {missing.tolist()}")
        new_cnt = np.zeros(new_sup.shape[0], dtype=np.int64)
        pos = np.searchsorted(new_sup, self.support)
        keep = (pos < new_sup.shape[0])
        keep &= new_sup[np.minimum(pos, new_sup.shape[0] - 1)] == self.support
        new_cnt[pos[keep]] = self.counts[keep]
        return OccupancyState(support=new_sup, counts=new_cnt)

    def compacted(self) -> "OccupancyState":
        """Drop empty bins."""
        nz = self.counts > 0
        return OccupancyState(support=self.support[nz], counts=self.counts[nz])

    def to_configuration(self, limit: int = MATERIALIZE_LIMIT_DEFAULT) -> Configuration:
        """Expand to a per-process :class:`Configuration` (sorted ball order).

        Refuses to materialize more than ``limit`` processes — expanding an
        n = 10⁹ state would defeat the point of the representation.  Pass a
        larger ``limit`` explicitly if you really want the array.
        """
        n = self.n
        if n > limit:
            raise ValueError(
                f"refusing to materialize n={n} processes (limit {limit}); "
                "raise `limit` explicitly if this is intentional"
            )
        return Configuration(values=np.repeat(self.support, self.counts))

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OccupancyState):
            return NotImplemented
        a, b = self.compacted(), other.compacted()
        return bool(np.array_equal(a.support, b.support)
                    and np.array_equal(a.counts, b.counts))

    def __hash__(self) -> int:
        c = self.compacted()
        return hash((c.support.tobytes(), c.counts.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        loads = self.loads
        if len(loads) > 6:
            head = dict(list(loads.items())[:6])
            return f"OccupancyState(n={self.n}, bins={self.num_values}, loads~{head}...)"
        return f"OccupancyState(n={self.n}, loads={loads})"


def occupancy_from_values(values: Sequence[int] | np.ndarray) -> OccupancyState:
    """Convenience alias for :meth:`OccupancyState.from_values`."""
    return OccupancyState.from_values(values)


def occupancy_metrics(state: OccupancyState, round_index: int = 0) -> ConfigurationMetrics:
    """The standard per-round metrics record, computed in O(m) from counts.

    Produces exactly the same :class:`ConfigurationMetrics` as
    :func:`repro.core.metrics.configuration_metrics` would on the expanded
    configuration, without ever materializing it.
    """
    return histogram_metrics(state.support, state.counts, round_index)
