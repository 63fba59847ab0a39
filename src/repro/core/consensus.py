"""Consensus and almost-stable-consensus detection.

The paper distinguishes two notions:

* **Stable consensus** (no adversary): a round ``t`` at which
  ``b_{t,1} = ... = b_{t,n}``.  Because every rule in this library that sets
  ``preserves_values`` can only output one of its input values, such a state
  is a fixed point — once reached the process never leaves it.

* **Almost stable consensus** (with a T-bounded adversary): a round ``r`` and
  value ``v`` such that *for every round after* ``r``, all but up to
  ``O(T)`` processes hold ``v``.  The "for every round after" clause is what
  rules out the minimum-rule pathology (a configuration that looks agreed but
  will later be flipped by the adversary).

A simulation of finite length can only certify the second notion up to its
horizon; :class:`AlmostStableCriterion` therefore checks the condition over a
trailing *stability window* and reports the earliest round from which it held
through the end of the observed trajectory.

Every engine takes its run settings from here:

* the horizon, :func:`default_max_rounds`;
* the default criterion for an adversary of budget T,
  :meth:`AlmostStableCriterion.for_budget`;
* the stop rule: a run with T = 0 stops at exact consensus (checked before
  round 1 as well), a run with T > 0 once its criterion has held for a full
  window, and a run with ``run_to_horizon`` only at its horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.state import Configuration

__all__ = [
    "is_consensus",
    "consensus_value",
    "ConsensusStatus",
    "AlmostStableCriterion",
    "detect_consensus_round",
    "detect_almost_stable_round",
    "default_max_rounds",
]


def default_max_rounds(n: int, max_rounds: Optional[int] = None) -> int:
    """The horizon of a run over ``n`` processes: ``max_rounds``, or by
    default ``max(200, 40 · log2 n)`` rounds.

    The paper's bounds are O(log n)–O(log m log log n + log n); a horizon of
    ~40·log2(n) rounds leaves ample slack while keeping worst-case sweeps
    bounded.  A negative ``max_rounds`` raises ``ValueError``.
    """
    if max_rounds is not None:
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        return max_rounds
    if n <= 1:
        return 200
    return max(200, int(np.ceil(40.0 * np.log2(n))))


def is_consensus(values: np.ndarray | Configuration) -> bool:
    """True iff all processes hold the same value."""
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    if vals.shape[0] == 0:
        return True
    return bool(np.all(vals == vals[0]))


def consensus_value(values: np.ndarray | Configuration) -> Optional[int]:
    """The agreed value if at consensus, else ``None``."""
    vals = values.values if isinstance(values, Configuration) else np.asarray(values)
    if vals.shape[0] == 0:
        return None
    if np.all(vals == vals[0]):
        return int(vals[0])
    return None


@dataclass(frozen=True)
class ConsensusStatus:
    """Outcome of consensus detection on a trajectory.

    Attributes
    ----------
    reached:
        Whether the criterion was satisfied within the observed horizon.
    round:
        The first round at which the criterion held (and kept holding until
        the end of the trajectory), or ``None``.
    value:
        The winning value, or ``None`` if not reached / ambiguous.
    """

    reached: bool
    round: Optional[int]
    value: Optional[int]


@dataclass(frozen=True)
class AlmostStableCriterion:
    """Parameters of the almost-stable-consensus check.

    Parameters
    ----------
    tolerance:
        Maximum number of disagreeing processes allowed (the paper's
        ``O(T)``; callers typically pass ``c * T`` for a small constant c, or
        ``0`` to require exact consensus).
    window:
        Number of trailing rounds over which the condition must hold
        continuously for the detection to fire.  ``window=1`` reduces to a
        point-in-time check.
    """

    tolerance: int = 0
    window: int = 1

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.window < 1:
            raise ValueError("window must be at least 1")

    @classmethod
    def for_budget(cls, budget: int) -> AlmostStableCriterion:
        """The default criterion against a T-bounded adversary.

        Tolerance ``4·T`` (a concrete stand-in for the paper's ``O(T)``) over
        a 10-round window; without an adversary (T = 0), exact consensus over
        one round.
        """
        if budget > 0:
            return cls(tolerance=4 * budget, window=10)
        return cls()

    def holds(self, values: np.ndarray | Configuration, value: int) -> bool:
        """Does the configuration have ≤ tolerance processes not holding ``value``?"""
        vals = values.values if isinstance(values, Configuration) else np.asarray(values)
        return int(np.count_nonzero(vals != int(value))) <= self.tolerance


def detect_consensus_round(trajectory: Sequence[np.ndarray | Configuration]) -> ConsensusStatus:
    """First round of exact consensus in a trajectory of configurations.

    The trajectory is indexed by round, with index 0 the initial state.
    """
    for t, cfg in enumerate(trajectory):
        v = consensus_value(cfg)
        if v is not None:
            return ConsensusStatus(reached=True, round=t, value=v)
    return ConsensusStatus(reached=False, round=None, value=None)


def detect_almost_stable_round(
    trajectory: Sequence[np.ndarray | Configuration],
    criterion: AlmostStableCriterion,
    value: Optional[int] = None,
) -> ConsensusStatus:
    """Earliest round from which the almost-stable criterion holds to the end.

    Parameters
    ----------
    trajectory:
        Configurations indexed by round (index 0 = initial state).
    criterion:
        Tolerance and stability-window parameters.
    value:
        The value agreement is measured against.  If ``None``, the plurality
        value of the final configuration is used (the natural candidate for
        the stabilized value).

    Returns
    -------
    ConsensusStatus
        ``round`` is the first index ``r`` such that the criterion holds at
        every round in ``[r, end]`` and the trailing window is at least
        ``criterion.window`` rounds long.  If the window is longer than the
        trajectory the status is "not reached".
    """
    configs = [c if isinstance(c, Configuration) else Configuration.from_values(c)
               for c in trajectory]
    if not configs:
        return ConsensusStatus(reached=False, round=None, value=None)

    if value is None:
        value = configs[-1].majority_value()
    value = int(value)

    ok = np.array([criterion.holds(c, value) for c in configs], dtype=bool)
    if not ok[-1]:
        return ConsensusStatus(reached=False, round=None, value=None)

    # walk backwards to find the start of the trailing run of True
    start = len(ok) - 1
    while start > 0 and ok[start - 1]:
        start -= 1
    run_length = len(ok) - start
    if run_length < criterion.window:
        return ConsensusStatus(reached=False, round=None, value=None)
    return ConsensusStatus(reached=True, round=start, value=value)
