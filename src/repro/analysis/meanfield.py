"""Deterministic mean-field model of the median-rule load dynamics.

In the limit ``n → ∞`` with bin-load *fractions* ``p_1, ..., p_m`` (in value
order), one round of the median rule updates the fractions deterministically:
a process currently in bin ``v`` with cumulative mass ``L = Σ_{w<v} p_w``
below it and ``R = Σ_{w>v} p_w`` above it leaves downwards iff both samples
fall strictly below (probability ``L²``) and leaves upwards iff both fall
strictly above (``R²``); a process outside bin ``v`` enters it iff one sample
lands in ``v``-or-below and the other in ``v``-or-above in the right pattern.
Working with the cumulative distribution ``F_v = Σ_{w ≤ v} p_w`` the whole
round collapses to the remarkably clean map

    F'_v  =  F_v² · (3 − 2·F_v)

applied independently to every prefix (the same cubic that appears in the
proof of Lemma 11 for the two-bin case: ``p ↦ p²(3−2p)``).

This module provides the exact map, its fixed-point analysis (0, 1/2, 1 with
1/2 unstable), trajectory iteration, a convergence-time predictor, and a
validation helper against the stochastic engine.  It is the deterministic
skeleton of the paper's drift arguments and is checked against simulation
in ``tests/test_meanfield_async_plots.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.state import Configuration

__all__ = [
    "cdf_map",
    "loads_to_cdf",
    "cdf_to_loads",
    "step_fractions",
    "iterate_fractions",
    "MeanFieldTrajectory",
    "predict_convergence_rounds",
    "fixed_points",
    "compare_with_simulation",
]


def cdf_map(F: np.ndarray) -> np.ndarray:
    """One mean-field round applied to a cumulative load-fraction vector.

    ``F'_v = F_v² (3 − 2 F_v)`` — each prefix mass evolves like the two-bin
    minority fraction of Lemma 11/12 (it is exactly the probability that the
    median of one old-prefix member and two uniform samples stays in the
    prefix, integrated over the prefix).
    """
    F = np.asarray(F, dtype=np.float64)
    if np.any(F < -1e-12) or np.any(F > 1 + 1e-12):
        raise ValueError("cumulative fractions must lie in [0, 1]")
    out = F * F * (3.0 - 2.0 * F)
    # enforce monotonicity / range against floating-point drift
    np.clip(out, 0.0, 1.0, out=out)
    return np.maximum.accumulate(out)


def loads_to_cdf(fractions: Sequence[float]) -> np.ndarray:
    """Cumulative sums of per-bin load fractions (must sum to 1)."""
    p = np.asarray(fractions, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a non-empty 1-D fraction vector")
    if np.any(p < -1e-12):
        raise ValueError("fractions must be non-negative")
    total = p.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"fractions must sum to 1 (got {total})")
    return np.cumsum(p)


def cdf_to_loads(F: np.ndarray) -> np.ndarray:
    """Per-bin fractions from a cumulative vector."""
    F = np.asarray(F, dtype=np.float64)
    return np.diff(np.concatenate([[0.0], F]))


def step_fractions(fractions: Sequence[float]) -> np.ndarray:
    """One mean-field round on per-bin fractions."""
    return cdf_to_loads(cdf_map(loads_to_cdf(fractions)))


@dataclass
class MeanFieldTrajectory:
    """Deterministic trajectory of per-bin load fractions."""

    fractions: List[np.ndarray]

    @property
    def rounds(self) -> int:
        return len(self.fractions) - 1

    def winner(self) -> int:
        """Index of the bin holding (almost) all mass at the end."""
        return int(np.argmax(self.fractions[-1]))

    def support_sizes(self, threshold: float = 1e-6) -> List[int]:
        """Number of bins above ``threshold`` mass, per round."""
        return [int(np.count_nonzero(p > threshold)) for p in self.fractions]


def iterate_fractions(fractions: Sequence[float], rounds: Optional[int] = None,
                      tolerance: float = 1e-9) -> MeanFieldTrajectory:
    """Iterate the mean-field map until one bin holds ``1 − tolerance`` of the mass.

    ``rounds`` caps the iteration count (default: 10·log2(1/tolerance) + 50,
    ample for any non-tied start).  Exactly tied starts (a prefix mass of
    exactly 1/2) sit on the unstable fixed point and never move — mirroring
    the Θ(log n) even-m lower bound, where only stochastic fluctuations break
    the tie.
    """
    p = np.asarray(fractions, dtype=np.float64)
    horizon = rounds if rounds is not None else int(10 * np.log2(1.0 / tolerance)) + 50
    traj = [p.copy()]
    for _ in range(horizon):
        if np.max(p) >= 1.0 - tolerance:
            break
        new_p = step_fractions(p)
        if np.allclose(new_p, p, atol=1e-15):
            # stalled on the unstable fixed point (exactly tied prefix mass):
            # the deterministic map cannot break the tie, stop iterating
            break
        p = new_p
        traj.append(p.copy())
    return MeanFieldTrajectory(fractions=traj)


def fixed_points() -> Tuple[float, float, float]:
    """Fixed points of the scalar map ``x ↦ x²(3−2x)``: 0 and 1 stable, 1/2 unstable."""
    return 0.0, 0.5, 1.0


def predict_convergence_rounds(fractions: Sequence[float], n: int) -> float:
    """Mean-field estimate of the rounds until the winning bin holds all but O(1) of n balls.

    Iterates the deterministic map until the winner's mass exceeds
    ``1 − 1/(2n)`` (below half a ball of mass).  For exactly tied prefixes the
    map never moves, so the estimate adds the Θ(log n) tie-breaking time of
    the stochastic process (with the empirical constant 2 from THM1) — this
    mirrors the paper's even-m analysis.
    """
    if n <= 1:
        return 0.0
    p = np.asarray(fractions, dtype=np.float64)
    F = loads_to_cdf(p)
    tie = np.any(np.isclose(F[:-1], 0.5, atol=1e-12))
    tolerance = 1.0 / (2.0 * n)
    traj = iterate_fractions(p, rounds=int(40 * np.log2(n)) + 50, tolerance=tolerance)
    rounds = traj.rounds
    if tie:
        rounds += 2.0 * np.log2(n)
    return float(rounds)


def compare_with_simulation(fractions: Sequence[float], n: int, num_runs: int,
                            seed: int = 0) -> Tuple[float, float]:
    """(mean-field prediction, simulated mean rounds) for a block workload of ``n`` balls.

    Builds the deterministic block configuration with loads proportional to
    ``fractions`` and runs the stochastic engine; used by tests and the
    mean-field ablation to check the deterministic skeleton tracks the
    stochastic process.
    """
    from repro.engine.batch import run_batch

    p = np.asarray(fractions, dtype=np.float64)
    counts = np.floor(p * n).astype(int)
    counts[0] += n - counts.sum()          # assign rounding remainder to bin 0
    values = np.repeat(np.arange(counts.size), counts)
    cfg = Configuration.from_values(values)
    batch = run_batch(cfg, num_runs=num_runs, seed=seed)
    return predict_convergence_rounds(p, n), batch.mean_rounds
