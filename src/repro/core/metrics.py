"""Quantities tracked by the paper's analysis.

Section 3 works with the two-bin quantities

* ``L_t`` / ``R_t``      — loads of the left and right bin,
* ``X_t = min(L, R)``, ``Y_t = max(L, R)``,
* the *imbalance*        ``Δ_t = (Y_t − X_t) / 2``,
* the *labelled imbalance* ``Ψ_t = (R_t − L_t) / 2``;

Section 4 adds, for general configurations,

* the number of non-empty bins (support size),
* the load of the bin containing the *median ball* ``m_t``,
* the *gravity* ``g(i)`` of each ball (see :mod:`repro.core.gravity`), and
* superbin consolidations (merging a contiguous range of bins into one),
  used in the proofs of Theorems 1, 20 and 21.

This module computes all of these from a value vector or
:class:`~repro.core.state.Configuration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.state import Configuration

__all__ = [
    "TwoBinStats",
    "two_bin_stats",
    "imbalance",
    "labelled_imbalance",
    "support_size",
    "bin_loads_array",
    "agreement_count",
    "minority_count",
    "superbin_split",
    "ConfigurationMetrics",
    "configuration_metrics",
    "histogram_metrics",
    "histogram_median",
]


@dataclass(frozen=True)
class TwoBinStats:
    """Loads and imbalances of a two-value configuration.

    Attributes mirror the notation of Section 3: ``left``/``right`` are the
    loads of the smaller-value and larger-value bins, ``minority``/``majority``
    are ``X_t``/``Y_t``, ``imbalance`` is ``Δ_t`` and ``labelled_imbalance``
    is ``Ψ_t`` (positive when the right/larger-value bin leads).
    """

    n: int
    left_value: int
    right_value: int
    left: int
    right: int

    @property
    def minority(self) -> int:
        return min(self.left, self.right)

    @property
    def majority(self) -> int:
        return max(self.left, self.right)

    @property
    def imbalance(self) -> float:
        """``Δ_t = (Y_t − X_t)/2``."""
        return (self.majority - self.minority) / 2.0

    @property
    def labelled_imbalance(self) -> float:
        """``Ψ_t = (R_t − L_t)/2`` (sign carries which bin leads)."""
        return (self.right - self.left) / 2.0

    @property
    def delta_fraction(self) -> float:
        """``δ_t = Δ_t / n`` as used in Lemma 12."""
        return self.imbalance / self.n


def two_bin_stats(values: np.ndarray | Configuration) -> TwoBinStats:
    """Compute :class:`TwoBinStats` for a configuration with ≤ 2 distinct values.

    If only one value is present the "other" bin is reported with load zero
    and the same value label (so ``imbalance == n/2`` only when two real bins
    exist; a consensus state reports imbalance ``n/2`` with a degenerate
    right bin).
    """
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    uniq, counts = np.unique(vals, return_counts=True)
    if uniq.shape[0] > 2:
        raise ValueError(f"two_bin_stats needs at most 2 distinct values, got {uniq.shape[0]}")
    n = int(vals.shape[0])
    if uniq.shape[0] == 1:
        return TwoBinStats(n=n, left_value=int(uniq[0]), right_value=int(uniq[0]),
                           left=n, right=0)
    return TwoBinStats(
        n=n,
        left_value=int(uniq[0]),
        right_value=int(uniq[1]),
        left=int(counts[0]),
        right=int(counts[1]),
    )


def imbalance(values: np.ndarray | Configuration) -> float:
    """``Δ_t`` for a ≤2-value configuration (see :class:`TwoBinStats`)."""
    return two_bin_stats(values).imbalance


def labelled_imbalance(values: np.ndarray | Configuration) -> float:
    """``Ψ_t`` for a ≤2-value configuration (see :class:`TwoBinStats`)."""
    return two_bin_stats(values).labelled_imbalance


def support_size(values: np.ndarray | Configuration) -> int:
    """Number of distinct values (non-empty bins)."""
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    return int(np.unique(vals).shape[0])


def bin_loads_array(values: np.ndarray | Configuration,
                    bins: Sequence[int] | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(bin_labels, loads)`` arrays, optionally over a fixed bin list.

    When ``bins`` is given, the returned load array is aligned to it (zero for
    bins with no balls); otherwise only non-empty bins are listed.
    """
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    uniq, counts = np.unique(vals, return_counts=True)
    if bins is None:
        return uniq.astype(np.int64), counts.astype(np.int64)
    bins_arr = np.asarray(bins, dtype=np.int64)
    loads = np.zeros(bins_arr.shape[0], dtype=np.int64)
    lookup = {int(v): int(c) for v, c in zip(uniq, counts)}
    for i, b in enumerate(bins_arr):
        loads[i] = lookup.get(int(b), 0)
    return bins_arr, loads


def agreement_count(values: np.ndarray | Configuration) -> int:
    """Load of the most populated bin (``n`` at consensus)."""
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    _, counts = np.unique(vals, return_counts=True)
    return int(counts.max())


def minority_count(values: np.ndarray | Configuration) -> int:
    """Number of balls *outside* the most populated bin (0 at consensus).

    This is the quantity that must drop to ``O(T)`` (and stay there) for an
    almost stable consensus.
    """
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    return int(vals.shape[0]) - agreement_count(vals)


def superbin_split(values: np.ndarray | Configuration,
                   threshold: int) -> Tuple[int, int, int]:
    """Consolidate bins into (left superbin, middle bin, right superbin) loads.

    ``threshold`` is the value of the dividing bin: the middle "bin" is the
    set of balls with value exactly ``threshold``, the left superbin holds all
    balls with smaller values and the right superbin all balls with larger
    values.  This is the superbin consolidation used in the proofs of
    Theorem 1 (cases on the position of the median ball) and Theorem 21.

    Returns
    -------
    (left_load, middle_load, right_load)
    """
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    left = int(np.count_nonzero(vals < threshold))
    mid = int(np.count_nonzero(vals == threshold))
    right = int(np.count_nonzero(vals > threshold))
    return left, mid, right


@dataclass(frozen=True)
class ConfigurationMetrics:
    """A per-round metrics record stored in trajectories."""

    round: int
    support_size: int
    agreement: int
    minority: int
    median_value: int
    majority_value: int

    @property
    def agreement_fraction(self) -> float:
        return self.agreement / max(self.agreement + self.minority, 1)


def histogram_median(support: np.ndarray, counts: np.ndarray) -> int:
    """The median ball's value, ``np.sort(values)[(n - 1) // 2]``, from a histogram.

    ``counts[i]`` is the load of ``support[i]`` (ascending support; empty
    bins allowed — ``searchsorted`` lands on the first bin whose cumulative
    load passes the median position, and that bin is never empty).
    """
    cum = np.cumsum(counts)
    return int(support[int(np.searchsorted(cum, (int(cum[-1]) - 1) // 2 + 1))])


def histogram_metrics(support: np.ndarray, counts: np.ndarray, round_index: int
                      ) -> ConfigurationMetrics:
    """The standard per-round metrics record of a histogram.

    ``counts[i]`` is the load of ``support[i]`` (ascending support; empty
    bins allowed).  Majority ties go to the smaller value, as in
    :meth:`Configuration.majority_value`.
    """
    n = int(counts.sum())
    if n == 0:
        raise ValueError("metrics of an empty histogram")
    top = int(np.argmax(counts))
    agreement = int(counts[top])
    return ConfigurationMetrics(
        round=int(round_index),
        support_size=int(np.count_nonzero(counts)),
        agreement=agreement,
        minority=n - agreement,
        median_value=histogram_median(support, counts),
        majority_value=int(support[top]),
    )


def configuration_metrics(values: np.ndarray | Configuration, round_index: int = 0
                          ) -> ConfigurationMetrics:
    """Compute the standard per-round metrics for a configuration (one sort)."""
    cfg = values if isinstance(values, Configuration) else Configuration.from_values(values)
    return histogram_metrics(*np.unique(cfg.values, return_counts=True), round_index)
