"""Fineness partial order and the monotone coupling of Lemma 17 (Section 4.1).

An assignment with bin loads ``(k_i)`` is *finer* than one with loads
``(k~_i)`` if there is a monotone map ``f`` of bins to bins with
``k~_i = sum_{j in f^{-1}(i)} k_j``.  The all-one assignment (every ball in
its own bin) is finer than every other assignment.

Lemma 17 couples two runs of the median rule started from a finer and a
coarser assignment using the *same* random choices: because a monotone map
commutes with the median, the coarser run is at every round the image of the
finer run under ``f``, so the finer run's convergence time point-wise
dominates the coarser one's.  This module provides

* :func:`is_finer` / :func:`refinement_map` — decide the partial order and
  construct a witnessing monotone map;
* :func:`refine_configuration` — apply a refinement map to a configuration;
* :func:`coupled_step` / :func:`coupled_run` — execute the shared-randomness
  coupling of Lemma 17, returning both trajectories; the test-suite
  verifies that the coarser state remains the image of the finer one and
  that it reaches consensus no later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.median_rule import MedianRule
from repro.core.rules import Rule
from repro.core.state import Configuration

__all__ = [
    "sorted_loads",
    "is_finer",
    "refinement_map",
    "refine_configuration",
    "CoupledTrajectories",
    "coupled_step",
    "coupled_run",
]


def sorted_loads(config: Configuration) -> List[int]:
    """Bin loads listed in increasing bin (value) order, non-empty bins only."""
    return [count for _, count in sorted(config.loads.items())]


def refinement_map(fine: Sequence[int], coarse: Sequence[int]) -> Optional[List[int]]:
    """Find a monotone grouping of ``fine`` loads that produces ``coarse`` loads.

    Both arguments are load sequences in bin order (non-empty bins).  Returns
    a list ``assignment`` with ``assignment[j] = i`` meaning fine bin ``j``
    maps to coarse bin ``i`` (0-based, monotone non-decreasing), or ``None``
    if no such map exists.

    The greedy left-to-right scan is correct because a monotone map must send
    a *prefix* of fine bins onto each coarse bin, and prefix sums are
    uniquely determined.
    """
    fine = [int(x) for x in fine]
    coarse = [int(x) for x in coarse]
    if sum(fine) != sum(coarse):
        return None
    assignment: List[int] = []
    j = 0
    for i, target in enumerate(coarse):
        acc = 0
        while acc < target:
            if j >= len(fine):
                return None
            acc += fine[j]
            assignment.append(i)
            j += 1
        if acc != target:
            return None
        if target == 0:
            # a coarse bin with zero load absorbs no fine bins; nothing to do
            continue
    if j != len(fine):
        return None
    return assignment


def is_finer(fine: Configuration | Sequence[int], coarse: Configuration | Sequence[int]) -> bool:
    """Is the first assignment finer than the second (Section 4.1)?

    Arguments may be :class:`Configuration` objects or load sequences in bin
    order.  Every assignment is finer than itself (the identity map is
    monotone), making this a partial order.
    """
    fine_loads = sorted_loads(fine) if isinstance(fine, Configuration) else list(fine)
    coarse_loads = sorted_loads(coarse) if isinstance(coarse, Configuration) else list(coarse)
    return refinement_map(fine_loads, coarse_loads) is not None


def refine_configuration(fine: Configuration, coarse_support: Sequence[int],
                         assignment: Sequence[int]) -> Configuration:
    """Map a fine configuration onto coarse bins via a bin-to-bin assignment.

    ``assignment[j] = i`` sends the ``j``-th non-empty fine bin (in value
    order) to coarse value ``coarse_support[i]``.  Used to construct the
    coupled coarse run of Lemma 17 from the fine run.
    """
    fine_support = sorted(int(v) for v in fine.support)
    if len(assignment) != len(fine_support):
        raise ValueError("assignment length must equal the number of fine bins")
    mapping = {fine_support[j]: int(coarse_support[int(assignment[j])])
               for j in range(len(fine_support))}
    return fine.mapped(mapping)


@dataclass(frozen=True)
class CoupledTrajectories:
    """Result of a shared-randomness coupled run (Lemma 17).

    Attributes
    ----------
    fine / coarse:
        Per-round configurations of the two coupled processes.
    fine_consensus_round / coarse_consensus_round:
        First round of exact consensus (``None`` if not reached within the
        horizon).  Lemma 17 guarantees ``coarse <= fine`` whenever both are
        defined, and that ``fine`` reaching consensus forces ``coarse`` to
        have reached it too.
    """

    fine: Tuple[Configuration, ...]
    coarse: Tuple[Configuration, ...]
    fine_consensus_round: Optional[int]
    coarse_consensus_round: Optional[int]


def coupled_step(fine_values: np.ndarray, coarse_values: np.ndarray,
                 samples: np.ndarray, rule: Rule) -> Tuple[np.ndarray, np.ndarray]:
    """Advance both coupled configurations one round with shared samples."""
    rng = np.random.default_rng(0)  # rules used here are deterministic given samples
    return (rule.apply_vectorized(fine_values, samples, rng),
            rule.apply_vectorized(coarse_values, samples, rng))


def coupled_run(
    fine: Configuration,
    coarse: Configuration,
    rounds: int,
    rng: np.random.Generator,
    rule: Rule | None = None,
) -> CoupledTrajectories:
    """Run the Lemma 17 coupling for ``rounds`` rounds.

    Both configurations must have the same number of processes, and ``fine``
    must be finer than ``coarse`` for the lemma's guarantees to apply (this is
    validated).  The same contact samples drive both runs each round.
    """
    if fine.n != coarse.n:
        raise ValueError("coupled configurations must have the same number of processes")
    if not is_finer(fine, coarse):
        raise ValueError("first configuration is not finer than the second")
    rule = rule or MedianRule()

    fine_vals = fine.copy_values()
    coarse_vals = coarse.copy_values()
    fine_traj = [Configuration.from_values(fine_vals)]
    coarse_traj = [Configuration.from_values(coarse_vals)]

    fine_round: Optional[int] = 0 if fine.is_consensus else None
    coarse_round: Optional[int] = 0 if coarse.is_consensus else None

    for t in range(1, rounds + 1):
        samples = rule.sample_contacts(fine.n, rng)
        fine_vals, coarse_vals = coupled_step(fine_vals, coarse_vals, samples, rule)
        fine_traj.append(Configuration.from_values(fine_vals))
        coarse_traj.append(Configuration.from_values(coarse_vals))
        if fine_round is None and fine_traj[-1].is_consensus:
            fine_round = t
        if coarse_round is None and coarse_traj[-1].is_consensus:
            coarse_round = t
        if fine_round is not None and coarse_round is not None:
            break

    return CoupledTrajectories(
        fine=tuple(fine_traj),
        coarse=tuple(coarse_traj),
        fine_consensus_round=fine_round,
        coarse_consensus_round=coarse_round,
    )
