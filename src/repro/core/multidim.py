"""Higher-dimensional median rules (the paper's future-work direction).

The conclusion of the paper singles out one open problem: "It would be very
interesting though probably very challenging to prove a time bound of
O(log n) also for higher dimensions."  This module provides the natural
higher-dimensional generalisations so the question can at least be explored
empirically:

* :class:`CoordinatewiseMedianRule` — values are integer vectors in Z^d; a
  process samples two others and takes the *coordinate-wise* median.  Each
  coordinate evolves exactly as a 1-D median process (driven by the same
  contact choices), so convergence per coordinate is O(log n); however the
  agreed vector need not be one of the initial vectors (only each coordinate
  is an initial coordinate value), which is the precise sense in which the
  1-D consensus guarantee is lost.
* :class:`TukeyMedianRule` — picks, among the three candidate vectors
  {own, sample 1, sample 2}, the one minimising the sum of L1 distances to
  the other two (the 1-D median's variational characterisation).  This rule
  *does* preserve the initial value set, at the cost of weaker contraction.

Both operate on a :class:`VectorConfiguration` (an ``(n, d)`` integer array)
and are exercised by the ``examples`` and ``tests/test_multidim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.consensus import default_max_rounds

__all__ = [
    "VectorConfiguration",
    "CoordinatewiseMedianRule",
    "TukeyMedianRule",
    "simulate_vector",
    "VectorSimulationResult",
]


@dataclass(frozen=True)
class VectorConfiguration:
    """A snapshot of the d-dimensional process: one integer vector per process."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"expected an (n, d) value matrix, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def random(cls, n: int, d: int, low: int, high: int,
               rng: np.random.Generator) -> "VectorConfiguration":
        """Each process draws a uniform integer vector in ``[low, high)^d``."""
        if n <= 0 or d <= 0:
            raise ValueError("n and d must be positive")
        if high <= low:
            raise ValueError("high must exceed low")
        return cls(values=rng.integers(low, high, size=(n, d)))

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def d(self) -> int:
        return int(self.values.shape[1])

    @property
    def is_consensus(self) -> bool:
        """All processes hold the same vector."""
        return bool(np.all(self.values == self.values[0]))

    def agreement_fraction(self) -> float:
        """Fraction of processes holding the most common vector."""
        _, counts = np.unique(self.values, axis=0, return_counts=True)
        return float(counts.max()) / self.n

    def distinct_vectors(self) -> int:
        """Number of distinct vectors present."""
        return int(np.unique(self.values, axis=0).shape[0])

    def contains_vector(self, vector: Sequence[int]) -> bool:
        """Is ``vector`` currently held by some process?"""
        target = np.asarray(vector, dtype=np.int64)
        return bool(np.any(np.all(self.values == target, axis=1)))

    def copy_values(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int64)


class CoordinatewiseMedianRule:
    """Coordinate-wise median of {own vector, two sampled vectors}.

    Every coordinate performs the 1-D median rule with shared contacts, so
    each coordinate converges in O(log n) rounds; the limit vector mixes
    coordinates from different initial vectors, so the rule solves
    *coordinate-wise* consensus but not vector consensus.
    """

    name = "median-coordinatewise"
    preserves_vectors = False

    def step(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One synchronous round on an ``(n, d)`` matrix."""
        values = np.asarray(values, dtype=np.int64)
        n = values.shape[0]
        samples = rng.integers(0, n, size=(n, 2))
        vj = values[samples[:, 0]]
        vk = values[samples[:, 1]]
        lo = np.minimum(values, vj)
        hi = np.maximum(values, vj)
        return np.maximum(lo, np.minimum(hi, vk))


class TukeyMedianRule:
    """Pick the candidate vector minimising the total L1 distance to the others.

    Among the three vectors ``{v_i, v_j, v_k}`` the rule adopts
    ``argmin_x Σ_y ||x − y||_1`` (ties broken towards the process's own
    vector, then the first sample).  In one dimension this *is* the median;
    in higher dimensions it always outputs one of the three input vectors, so
    the reachable set never grows — the property the coordinate-wise rule
    gives up.
    """

    name = "median-tukey"
    preserves_vectors = True

    def step(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        n = values.shape[0]
        samples = rng.integers(0, n, size=(n, 2))
        a = values
        b = values[samples[:, 0]]
        c = values[samples[:, 1]]
        dist_ab = np.abs(a - b).sum(axis=1)
        dist_ac = np.abs(a - c).sum(axis=1)
        dist_bc = np.abs(b - c).sum(axis=1)
        cost_a = dist_ab + dist_ac
        cost_b = dist_ab + dist_bc
        cost_c = dist_ac + dist_bc
        costs = np.stack([cost_a, cost_b, cost_c], axis=1)
        choice = np.argmin(costs, axis=1)          # ties -> smallest index (own first)
        out = np.where(choice[:, None] == 0, a, np.where(choice[:, None] == 1, b, c))
        return np.ascontiguousarray(out)


@dataclass
class VectorSimulationResult:
    """Outcome of a d-dimensional run."""

    initial: VectorConfiguration
    final: VectorConfiguration
    rounds_executed: int
    consensus_round: Optional[int]

    @property
    def reached_consensus(self) -> bool:
        return self.consensus_round is not None

    @property
    def final_vector(self) -> Optional[Tuple[int, ...]]:
        if not self.final.is_consensus:
            return None
        return tuple(int(x) for x in self.final.values[0])


def simulate_vector(
    initial: VectorConfiguration,
    rule: CoordinatewiseMedianRule | TukeyMedianRule | None = None,
    *,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> VectorSimulationResult:
    """Run a d-dimensional median-rule variant to consensus or the horizon.

    The horizon is :func:`~repro.core.consensus.default_max_rounds`'s; a run
    that starts at consensus executes no round.  An empty population or a
    negative horizon raises ``ValueError``.
    """
    if initial.n == 0:
        raise ValueError("cannot simulate an empty population")
    rule = rule or CoordinatewiseMedianRule()
    rng = np.random.default_rng(seed)
    horizon = default_max_rounds(initial.n, max_rounds)

    values = initial.copy_values()
    consensus_round: Optional[int] = 0 if initial.is_consensus else None
    rounds = 0
    for t in range(1, horizon + 1):
        if consensus_round is not None:
            break
        values = rule.step(values, rng)
        rounds = t
        if bool(np.all(values == values[0])):
            consensus_round = t

    return VectorSimulationResult(
        initial=initial,
        final=VectorConfiguration(values=values),
        rounds_executed=rounds,
        consensus_round=consensus_round,
    )
