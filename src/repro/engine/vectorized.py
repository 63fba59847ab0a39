"""Vectorized single-run simulation engine.

This is the hot path of the library: one synchronous round of the protocol is
executed as a handful of NumPy array operations (draw an ``(n, k)`` contact
matrix, gather values, apply the rule's ufunc kernel, optionally apply the
adversary's writes).  No Python-level loop over processes exists anywhere in
this module — following the performance guides, the only loop is over rounds.

The entry point is :func:`simulate`, which produces a
:class:`~repro.engine.run.SimulationResult`.  Its horizon, default criterion
and stop rule are :mod:`repro.core.consensus`'s; ``run_to_horizon=True``
always runs the full horizon, which experiments use when they need complete
trajectories.

The stop rule, the consensus and almost-stable bookkeeping and the result
are owned by one private round loop, which
:class:`~repro.network.simulator.NetworkSimulator` drives with its
message-passing round in place of the vectorized one.  That loop takes one
*census* of the values per round — their histogram, a bounded
``np.bincount`` over a value range fixed once per run — and reads the
consensus latch, the almost-stable streak, the final plurality and the next
round's before-sampling adversary input off it; no round sorts the values.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.adversary.base import Adversary, AdversaryTiming, Census, NullAdversary
from repro.core.consensus import AlmostStableCriterion, ConsensusStatus, default_max_rounds
from repro.core.median_rule import MedianRule
from repro.core.rules import Rule
from repro.core.state import Configuration
from repro.engine.rng import make_rng
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel, TrajectoryRecorder

__all__ = ["simulate", "default_max_rounds"]

#: The census is a bounded ``np.bincount`` while the run's value range is at
#: most this many times n wide (``np.unique`` beyond).
_CENSUS_SPAN_PER_PROCESS = 4


def simulate(
    initial: Configuration | np.ndarray,
    rule: Rule | None = None,
    adversary: Adversary | None = None,
    *,
    seed: Optional[int | np.random.Generator] = None,
    max_rounds: Optional[int] = None,
    criterion: Optional[AlmostStableCriterion] = None,
    record: RecordLevel = RecordLevel.METRICS,
    run_to_horizon: bool = False,
    admissible_values: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Simulate one run of a consensus rule, optionally under an adversary.

    Parameters
    ----------
    initial:
        Initial configuration (or raw value vector).
    rule:
        Update rule; defaults to the paper's :class:`MedianRule`.
    adversary:
        T-bounded adversary; defaults to :class:`NullAdversary`.
    seed:
        Integer seed or an existing ``numpy.random.Generator``.
    max_rounds:
        Round horizon (:func:`~repro.core.consensus.default_max_rounds`).
    criterion:
        Almost-stable criterion; ``None`` selects
        :meth:`AlmostStableCriterion.for_budget` of the adversary's budget.
    record:
        Trajectory record level.
    run_to_horizon:
        Ignore the stop rule (:mod:`repro.core.consensus`) and always
        execute the full horizon.
    admissible_values:
        The set of initial values the adversary may write.  Defaults to the
        support of ``initial`` (the paper's ``{v_1, ..., v_n}``).

    Returns
    -------
    SimulationResult

    Raises
    ------
    ValueError
        For an empty population or a negative horizon.
    """
    cfg = initial if isinstance(initial, Configuration) else Configuration.from_values(initial)
    if cfg.n == 0:
        raise ValueError("cannot simulate an empty population")
    rule = rule or MedianRule()
    adversary = adversary or NullAdversary()
    rng = make_rng(seed)
    # the palette is normalised once per run (sorted, distinct)
    admissible = cfg.support if admissible_values is None \
        else np.unique(np.asarray(admissible_values, dtype=np.int64))
    n = cfg.n
    before = adversary.budget > 0 and adversary.timing is AdversaryTiming.BEFORE_SAMPLING
    after = adversary.budget > 0 and adversary.timing is AdversaryTiming.AFTER_SAMPLING

    def step(values: np.ndarray, t: int, census: Census) -> np.ndarray:
        if before:  # the adversary acts at the beginning of the round
            values = adversary.corrupt(values, t, admissible, rng, census=census)
        values = rule.apply_vectorized(values, rule.sample_contacts(n, rng), rng)
        if after:  # ... or after the random choices (Section 3 variant)
            values = adversary.corrupt(values, t, admissible, rng)
        return values

    return _value_loop(
        cfg, cfg.copy_values(), step, adversary, rule, admissible,
        max_rounds=max_rounds, criterion=criterion, record=record,
        run_to_horizon=run_to_horizon,
    )


def _unique_census(values: np.ndarray) -> Census:
    return np.unique(values, return_counts=True)


def _census_of(start: np.ndarray, palette: np.ndarray, rule: Rule
               ) -> Callable[[np.ndarray], Census]:
    """The run's census: ``values -> np.unique(values, return_counts=True)``.

    A value-preserving rule keeps every round inside the range of the
    starting values and the adversary's palette, fixed here once per run;
    within it the census is one bounded ``np.bincount``.  ``np.unique`` is
    the fallback for a rule that creates values (``mean``), for a range
    wider than ``_CENSUS_SPAN_PER_PROCESS · n``, and for a round whose
    values leave the range (a custom rule breaking its ``preserves_values``
    promise).
    """
    lo, hi = int(start.min()), int(start.max())
    if palette.size:
        lo, hi = min(lo, int(palette.min())), max(hi, int(palette.max()))
    width = hi - lo + 1
    if not rule.preserves_values or width > _CENSUS_SPAN_PER_PROCESS * start.shape[0]:
        return _unique_census

    def census(values: np.ndarray) -> Census:
        if values.dtype != np.int64:
            return _unique_census(values)
        shifted = values - lo if lo else values
        # one reduction checks both ends: below lo wraps to a huge unsigned
        if np.maximum.reduce(shifted.view(np.uint64)) >= width:
            return _unique_census(values)
        loads = np.bincount(shifted, minlength=width)
        present = loads.nonzero()[0]
        return present + lo, loads[present]

    return census


def _value_loop(
    initial: Configuration,
    values: np.ndarray,
    step: Callable[[np.ndarray, int, Census], np.ndarray],
    adversary: Adversary,
    rule: Rule,
    palette: np.ndarray,
    *,
    max_rounds: Optional[int],
    criterion: Optional[AlmostStableCriterion],
    record: RecordLevel,
    run_to_horizon: bool,
) -> SimulationResult:
    """The value-space round loop of :func:`simulate` and the network simulator.

    The run starts from ``values`` (``initial`` is only reported), and
    ``step(values, t, census)`` executes round ``t`` — adversary placement
    plus the protocol round — returning the new values; ``census`` is the
    histogram of the ``values`` it is handed, for a before-sampling
    adversary.  ``palette`` is the adversary's sorted admissible values.
    Everything else is here once: trajectory recording, the census, the
    consensus latch, the almost-stable streak, the stop rule and the result;
    the horizon and the default criterion come from
    :mod:`repro.core.consensus`.
    """
    horizon = default_max_rounds(initial.n, max_rounds)
    if criterion is None:
        criterion = AlmostStableCriterion.for_budget(adversary.budget)

    adversary.reset()
    recorder = TrajectoryRecorder(level=record)

    n = values.shape[0]
    census_of = _census_of(values, palette, rule)
    support, counts = census = census_of(values)
    recorder.record(values, 0, census)
    consensus = ConsensusStatus(reached=False, round=None, value=None)
    if support.shape[0] == 1:
        consensus = ConsensusStatus(reached=True, round=0, value=int(support[0]))

    # almost-stable bookkeeping: length of the trailing streak of rounds
    # within the tolerance, and the round that streak started in
    streak = 1 if n - int(counts.max()) <= criterion.tolerance else 0
    first_stable: Optional[int] = 0 if streak else None

    # the stop rule, off with run_to_horizon: exact consensus without an
    # adversary (a fixed point, so checked before round 1 too), and a full
    # almost-stable window with one
    stop_consensus = not run_to_horizon and adversary.budget == 0
    stop_stable = not run_to_horizon and adversary.budget > 0
    rounds_executed = 0
    for t in range(1, horizon + 1):
        if stop_consensus and consensus.reached:
            break
        values = step(values, t, census)
        rounds_executed = t
        support, counts = census = census_of(values)
        recorder.record(values, t, census)
        if not consensus.reached and support.shape[0] == 1:
            consensus = ConsensusStatus(reached=True, round=t, value=int(support[0]))
        if n - int(counts.max()) <= criterion.tolerance:
            if streak == 0:
                first_stable = t
            streak += 1
        else:
            streak = 0
            first_stable = None
        if stop_stable and streak >= criterion.window:
            break

    # a trailing streak shorter than the window does not certify stability;
    # the stable value is the plurality of the final configuration
    almost = ConsensusStatus(reached=False, round=None, value=None)
    if first_stable is not None and streak >= criterion.window:
        almost = ConsensusStatus(reached=True, round=first_stable,
                                 value=int(support[int(np.argmax(counts))]))

    return SimulationResult(
        initial=initial,
        final=Configuration.from_values(values),
        rounds_executed=rounds_executed,
        consensus=consensus,
        almost_stable=almost,
        trajectory=recorder.finish(),
        rule_name=rule.name,
        adversary_name=type(adversary).__name__,
        criterion=criterion,
        meta={
            "adversary_budget": adversary.budget,
            "horizon": horizon,
            "budget_ledger_total": adversary.ledger.total,
            "budget_ledger_ok": adversary.ledger.verify(),
        },
    )
