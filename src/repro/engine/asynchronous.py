"""Asynchronous (sequential-activation) execution model.

The paper assumes fully synchronous rounds.  A standard robustness question —
part of the "robustness of the protocol deserves further studies" the
conclusion calls for — is whether the median rule survives *asynchronous*
scheduling, where processes are activated one at a time (uniformly at random,
or by an adversarial scheduler) and immediately apply their update against
the *current* values of two sampled processes.

This module provides that execution model:

* :func:`simulate_asynchronous` — runs the median (or any registered) rule
  under sequential activation.  Time is counted in *sweeps*: one sweep is
  ``n`` activations, the natural unit comparable to one synchronous round.
* activation orders: ``"uniform"`` (each activation picks a uniformly random
  process — the standard asynchronous model), ``"shuffle"`` (random
  permutation per sweep, every process activated exactly once per sweep) and
  ``"adversarial-lifo"`` (always activate the process that deviates most from
  the current plurality — a scheduler trying to slow convergence down).

The asynchronous-vs-synchronous comparison is exercised by the tests
(``tests/test_meanfield_async_plots.py``); empirically the median rule
converges in O(log n) sweeps under all three schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.consensus import ConsensusStatus, default_max_rounds, is_consensus
from repro.core.median_rule import MedianRule
from repro.core.rules import Rule, require_uniform_contacts
from repro.core.state import Configuration
from repro.engine.rng import make_rng

__all__ = ["AsyncResult", "simulate_asynchronous", "ACTIVATION_ORDERS"]

ACTIVATION_ORDERS = ("uniform", "shuffle", "adversarial-lifo")


@dataclass
class AsyncResult:
    """Outcome of an asynchronous run (time measured in sweeps of n activations)."""

    initial: Configuration
    final: Configuration
    sweeps_executed: int
    activations_executed: int
    consensus: ConsensusStatus

    @property
    def reached_consensus(self) -> bool:
        return self.consensus.reached

    @property
    def consensus_sweep(self) -> Optional[int]:
        return self.consensus.round


def _activation_sequence(order: str, n: int, values: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Indices of the processes activated during one sweep."""
    if order == "uniform":
        return rng.integers(0, n, size=n)
    if order == "shuffle":
        return rng.permutation(n)
    if order == "adversarial-lifo":
        # activate minority-value holders last so their values linger longest:
        # plurality holders first, then the rest (a scheduler trying to keep
        # stragglers alive as long as possible).
        uniq, counts = np.unique(values, return_counts=True)
        plurality = uniq[int(np.argmax(counts))]
        majority_idx = np.flatnonzero(values == plurality)
        minority_idx = np.flatnonzero(values != plurality)
        rng.shuffle(majority_idx)
        rng.shuffle(minority_idx)
        return np.concatenate([majority_idx, minority_idx])
    raise ValueError(f"unknown activation order {order!r}; choose from {ACTIVATION_ORDERS}")


def simulate_asynchronous(
    initial: Configuration | np.ndarray,
    rule: Rule | None = None,
    *,
    order: str = "uniform",
    seed: Optional[int | np.random.Generator] = None,
    max_sweeps: Optional[int] = None,
) -> AsyncResult:
    """Run a rule under sequential (asynchronous) activation.

    Parameters
    ----------
    initial:
        Initial configuration.
    rule:
        Update rule (default: median rule).  Each activation applies
        ``rule.apply_single`` against the current values of freshly sampled
        contacts.
    order:
        Activation schedule per sweep (see :data:`ACTIVATION_ORDERS`).
    max_sweeps:
        Horizon in sweeps (:func:`~repro.core.consensus.default_max_rounds`).
        A run stops at consensus, so one that starts there executes no sweep.

    Raises
    ------
    ValueError
        For an empty population, a negative horizon, or a rule with its own
        contact law (see :func:`~repro.core.rules.require_uniform_contacts`).
    """
    cfg = initial if isinstance(initial, Configuration) else Configuration.from_values(initial)
    if cfg.n == 0:
        raise ValueError("cannot simulate an empty population")
    rule = rule or MedianRule()
    require_uniform_contacts(rule, "simulate_asynchronous")
    rng = make_rng(seed)
    n = cfg.n
    horizon = default_max_rounds(n, max_sweeps)

    values = cfg.copy_values()
    consensus = ConsensusStatus(reached=False, round=None, value=None)
    if is_consensus(values):
        consensus = ConsensusStatus(reached=True, round=0, value=int(values[0]))

    sweeps = 0
    activations = 0
    for sweep in range(1, horizon + 1):
        if consensus.reached:
            break
        schedule = _activation_sequence(order, n, values, rng)
        for i in schedule:
            contacts = rng.integers(0, n, size=rule.num_choices)
            sampled = [int(values[c]) for c in contacts]
            values[i] = rule.apply_single(int(values[i]), sampled, rng)
            activations += 1
        sweeps = sweep
        if is_consensus(values):
            consensus = ConsensusStatus(reached=True, round=sweep, value=int(values[0]))

    return AsyncResult(
        initial=cfg,
        final=Configuration.from_values(values),
        sweeps_executed=sweeps,
        activations_executed=activations,
        consensus=consensus,
    )
