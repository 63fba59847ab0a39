"""Batched Monte-Carlo simulation.

Experiments need distributions of convergence times, not single runs.  Two
batching strategies are provided:

* :func:`run_batch` — repeat a single-run engine
  (:func:`repro.engine.vectorized.simulate` or
  :func:`repro.engine.occupancy.simulate_occupancy`) over independent seeds.
  Flexible (any rule, any adversary) but pays the per-run Python overhead —
  which *dominates* for the occupancy engine, whose round (O(m) compiled,
  O(m²) on NumPy) is far cheaper than one interpreter round trip.

* :func:`run_batch_fused_occupancy` — the multi-run analogue of the occupancy
  engine: state is one ``(R, m)`` count tensor, each round draws every run's
  scatter in a single seam call (on NumPy all ``R·m`` multinomials of the
  stacked ``(R, m, m)`` outcome tensor, on the compiled kernel the banded
  walker, which builds no matrix), and the adversaries of all runs act in
  one step.  O(R·m) per round compiled, O(R·m²) on NumPy, **independent of
  n**, so convergence-round distributions at n = 10⁶–10⁹ cost the same as
  at n = 10⁴.  The only work left per run is the adversaries' own random
  victim draws and each run's budget-ledger entry.  Selected as
  ``run_batch(engine="occupancy-fused")``.

Both return a :class:`BatchResult` with convergence-round statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.adversary.base import Adversary, AdversaryTiming, NullAdversary, _CountBatch
from repro.adversary.strategies import ADVERSARY_REGISTRY
from repro.core.consensus import AlmostStableCriterion, default_max_rounds
from repro.core.median_rule import MedianRule
from repro.core.occupancy_state import OccupancyState
from repro.core.rules import Rule
from repro.core.state import Configuration
from repro.engine.occupancy import (
    MAX_SUPPORT_DEFAULT,
    OCCUPANCY_RULES,
    _as_occupancy,
    _RoundProgram,
    occupancy_round_batch,
    occupancy_round_batch_split,
    simulate_occupancy,
)
from repro.engine.rng import spawn_rngs
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import simulate

__all__ = [
    "BatchResult",
    "run_batch",
    "run_batch_fused_occupancy",
    "fused_occupancy_cell_supported",
    "ENGINES",
    "BATCH_ENGINES",
    "COUNT_ADVERSARIES",
]

#: Single-run engines selectable by name (``run_batch(engine=...)``,
#: ``ExperimentConfig.engine``, ``repro-consensus simulate --engine``).
ENGINES = {
    "vectorized": simulate,
    "occupancy": simulate_occupancy,
}

#: Engine names accepted by the *batch* layer (``run_batch`` /
#: ``ExperimentConfig`` / ``repro-consensus sweep --engine``): the single-run
#: engines plus the fused multi-run occupancy engine, which has no single-run
#: form.
BATCH_ENGINES = tuple(ENGINES) + ("occupancy-fused",)

#: Adversary registry names with an exact count-space (``corrupt_counts``)
#: form — the ones able to drive the occupancy engines.  Classified by the
#: same override check :attr:`~repro.adversary.base.Adversary.supports_counts`
#: uses (no instantiation, so constructors with extra required arguments stay
#: importable).  Every shipped strategy qualifies: the identity-tracking ones
#: (sticky, hiding) through their exact victim-*occupancy* form (the engines
#: scatter the victim subpopulation separately each round); only custom
#: adversaries without a ``propose_counts`` override fall out.
COUNT_ADVERSARIES = frozenset(
    name for name, cls in ADVERSARY_REGISTRY.items()
    if cls is None or cls.propose_counts is not Adversary.propose_counts
)


def fused_occupancy_cell_supported(rule_name: str, adversary_name: str = "null",
                                   n: Optional[int] = None,
                                   m: Optional[int] = None) -> bool:
    """Whether a cell asking for ``engine="occupancy-fused"`` runs on it.

    The one engine decision for a cell, asked by
    :func:`repro.experiments.runner.resolve_cell_engine` *before* any work is
    spent: False sends the cell to ``"vectorized"``.  True iff the
    rule/adversary registry pair has a count-space form and, when the
    cell's geometry ``n``, ``m`` is given, its support is narrow enough for
    count space to win: the occupancy substrate costs O(m²) per round
    versus the vectorized engine's O(n), so wide supports (``m² ≫ n``, e.g.
    the all-distinct workload where m = n, or ``m > MAX_SUPPORT_DEFAULT``)
    go to value space even where a count-space kernel could run them.
    """
    if rule_name not in OCCUPANCY_RULES or adversary_name not in COUNT_ADVERSARIES:
        return False
    if m is not None and m > 0:
        if m > MAX_SUPPORT_DEFAULT:
            return False
        if n is not None and m * m > 4 * n:
            return False
    return True


@dataclass
class BatchResult:
    """Aggregate of a batch of independent runs.

    ``rounds`` holds one entry per run: the convergence round (exact consensus
    round without an adversary, almost-stable round with one), or ``NaN`` if
    the run did not converge within its horizon.
    """

    n: int
    num_runs: int
    rounds: np.ndarray
    converged: np.ndarray
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def convergence_fraction(self) -> float:
        """Fraction of runs that converged within the horizon."""
        return float(np.mean(self.converged)) if self.num_runs else 0.0

    @property
    def mean_rounds(self) -> float:
        """Mean convergence round over converged runs (NaN if none)."""
        vals = self.rounds[self.converged]
        return float(np.mean(vals)) if vals.size else float("nan")

    @property
    def median_rounds(self) -> float:
        vals = self.rounds[self.converged]
        return float(np.median(vals)) if vals.size else float("nan")

    @property
    def max_rounds(self) -> float:
        vals = self.rounds[self.converged]
        return float(np.max(vals)) if vals.size else float("nan")

    def quantile(self, q: float) -> float:
        """Convergence-round quantile over converged runs."""
        vals = self.rounds[self.converged]
        return float(np.quantile(vals, q)) if vals.size else float("nan")

    def summary(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "num_runs": self.num_runs,
            "convergence_fraction": self.convergence_fraction,
            "mean_rounds": self.mean_rounds,
            "median_rounds": self.median_rounds,
            "p90_rounds": self.quantile(0.90),
            "max_rounds": self.max_rounds,
            **self.meta,
        }


def run_batch(
    initial_factory: Callable[[np.random.Generator], Configuration] | Configuration,
    num_runs: int,
    *,
    rule: Rule | None = None,
    adversary_factory: Callable[[], Adversary] | None = None,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    criterion: Optional[AlmostStableCriterion] = None,
    engine: str = "vectorized",
) -> BatchResult:
    """Run ``num_runs`` independent simulations and aggregate their outcomes.

    Each run has the horizon (:func:`~repro.core.consensus.default_max_rounds`),
    default criterion (:meth:`AlmostStableCriterion.for_budget`) and stop
    rule of :mod:`repro.core.consensus`, and records nothing per round.  For per-run
    :class:`~repro.engine.run.SimulationResult` records, call
    ``ENGINES[engine]`` on each child stream of ``spawn_rngs(seed, num_runs)``,
    as the looped batch does.

    Parameters
    ----------
    initial_factory:
        Either a fixed :class:`Configuration` used for every run, or a
        callable ``rng -> Configuration`` drawing a fresh initial state per
        run (used for average-case experiments).
    adversary_factory:
        Zero-argument callable building a fresh adversary per run (adversaries
        carry per-run state such as victim sets); ``None`` means no adversary.
    engine:
        Which engine executes the batch: ``"vectorized"`` (O(n) per round per
        run) or ``"occupancy"`` (O(m) compiled, O(m²) on NumPy, independent
        of n) loop the runs in Python; ``"occupancy-fused"`` runs the whole
        batch as :func:`run_batch_fused_occupancy` (one (R, m) count tensor,
        no per-run loop).  All are statistically equivalent.  The batch runs on
        the engine named: like ``"occupancy"``, the fused engine refuses a
        rule without a count-space kernel (``TypeError``) and an adversary
        without a count-space form (``NotImplementedError``).  Choosing the
        engine for a cell is
        :func:`repro.experiments.runner.resolve_cell_engine`'s job.
    """
    if num_runs <= 0:
        raise ValueError("num_runs must be positive")
    if engine not in BATCH_ENGINES:
        raise KeyError(f"unknown engine {engine!r}; available: {sorted(BATCH_ENGINES)}")
    rule = rule or MedianRule()
    if engine == "occupancy-fused":
        return run_batch_fused_occupancy(
            initial_factory,
            num_runs,
            rule=rule,
            adversary_factory=adversary_factory,
            seed=seed,
            max_rounds=max_rounds,
            criterion=criterion,
        )
    simulate_fn = ENGINES[engine]
    rngs = spawn_rngs(seed, num_runs)

    rounds = np.full(num_runs, np.nan)
    converged = np.zeros(num_runs, dtype=bool)
    n_ref: Optional[int] = None

    for i, rng in enumerate(rngs):
        if isinstance(initial_factory, (Configuration, OccupancyState)):
            init = initial_factory
        else:
            init = initial_factory(rng)
        if isinstance(init, OccupancyState) and engine == "vectorized":
            raise ValueError(
                f"an OccupancyState initial requires an occupancy engine, "
                f"not {engine!r} (occupancy states cannot be expanded implicitly)"
            )
        n_ref = init.n if n_ref is None else n_ref
        adversary = adversary_factory() if adversary_factory is not None else NullAdversary()
        res = simulate_fn(
            init,
            rule=rule,
            adversary=adversary,
            seed=rng,
            max_rounds=max_rounds,
            criterion=criterion,
            record=RecordLevel.NONE,
        )
        r = res.convergence_round()
        if r is not None:
            rounds[i] = r
            converged[i] = True

    return BatchResult(
        n=int(n_ref or 0),
        num_runs=num_runs,
        rounds=rounds,
        converged=converged,
        meta={"rule": rule.name, "engine": engine},
    )


# ---------------------------------------------------------------------- #
# fused multi-run engine in occupancy (count) space
# ---------------------------------------------------------------------- #
def _corrupt_live(batch: _CountBatch, timing: np.ndarray, live: np.ndarray,
                  support: np.ndarray, cur: np.ndarray, t: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The live runs' counts after the adversaries of this ``timing`` acted."""
    step = timing[live]
    if step.all():
        return batch.corrupt_counts(support, cur, t, batch.select(live), rng)
    if step.any():
        cur[step] = batch.corrupt_counts(support, cur[step], t, batch.select(live[step]), rng)
    return cur


class _LoopOutcome(NamedTuple):
    """Where :func:`_occupancy_loop` left each run (arrays are per run)."""

    counts: np.ndarray           #: final ``(R, m)`` occupancy over ``support``
    support: np.ndarray          #: final support (fewer bins if compacted)
    consensus_round: np.ndarray  #: first exact-consensus round, -1 if none
    consensus_value: np.ndarray  #: the value agreed on (where latched)
    stable_round: np.ndarray     #: first round of the trailing streak that
                                 #: satisfies the criterion, -1 if none
    tol: np.ndarray              #: almost-stable tolerance
    window: np.ndarray           #: almost-stable window
    horizon: int
    rounds_executed: int


def _occupancy_loop(
    counts: np.ndarray,
    support: np.ndarray,
    rule: Rule,
    adversaries: Sequence[Adversary],
    admissibles: Sequence[np.ndarray],
    rng: np.random.Generator,
    max_rounds: Optional[int],
    *,
    criterion: Optional[AlmostStableCriterion] = None,
    run_to_horizon: bool = False,
    observe: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> _LoopOutcome:
    """The count-space round loop of every occupancy engine.

    ``counts`` is the ``(R, m)`` initial occupancy of ``R`` independent runs
    of one population size over the shared fixed ``support``.  Run ``r`` has
    its own count-capable adversary ``adversaries[r]`` (reset here; its
    budget ledger is its own) and admissible palette ``admissibles[r]``.
    Each round advances every running run as one fused program on ``rng``:
    one adversary step for the runs acting before sampling, one scatter, one
    step for those acting after.  The step is a private batch of the runs'
    adversaries (``repro.adversary.base._CountBatch``), which holds their
    state while the loop runs and hands it back to each adversary at the end.
    A round's fixed cost is paid once, before round 1: the multinomial
    backend is resolved and the rule's outcome recipe and ``(R, m)``
    profile buffers are set up (``repro.engine.occupancy._RoundProgram``).

    A run's almost-stable criterion is ``criterion``, or by default
    :meth:`AlmostStableCriterion.for_budget` of its own budget; its horizon
    (:func:`~repro.core.consensus.default_max_rounds`) and stop rule are
    :mod:`repro.core.consensus`'s, as in the single-run engines.
    ``observe(t, support, counts)`` is handed the running runs' counts after
    each round ``t`` and the initial counts as ``t = 0``.
    """
    counts = np.array(counts, dtype=np.int64)
    R = counts.shape[0]
    n = int(counts[0].sum())
    budgets = np.array([adv.budget for adv in adversaries], dtype=np.int64)
    for adv in adversaries:
        if adv.budget > 0 and not adv.supports_counts:
            raise NotImplementedError(
                f"{type(adv).__name__} tracks process identities and cannot "
                "drive the occupancy engine; use the vectorized engine instead"
            )
        adv.reset()
    horizon = default_max_rounds(n, max_rounds)
    criteria = [criterion or AlmostStableCriterion.for_budget(adv.budget)
                for adv in adversaries]
    tol = np.array([c.tolerance for c in criteria], dtype=np.int64)
    window = np.array([c.window for c in criteria], dtype=np.int64)
    any_adversary = bool(budgets.max() > 0)
    # one adversary step per round and timing for every run it steps
    batch = _CountBatch(adversaries, admissibles, support) if any_adversary else None
    timing = [adv.timing for adv in adversaries]
    before = (budgets > 0) & np.array([x is AdversaryTiming.BEFORE_SAMPLING for x in timing])
    after = (budgets > 0) & np.array([x is AdversaryTiming.AFTER_SAMPLING for x in timing])
    stop_consensus = (budgets == 0) & (not run_to_horizon)
    stop_stable = (budgets > 0) & (not run_to_horizon)

    minority = n - counts.max(axis=1)
    consensus_round = np.where(minority == 0, 0, -1)
    consensus_value = support[counts.argmax(axis=1)]
    # a run's trailing streak within its tolerance starts after last_bad
    last_bad = np.where(minority <= tol, -1, 0)
    end = np.zeros(R, dtype=np.int64)       # last round each run executed
    if observe is not None:
        observe(0, support, counts)
    done = stop_consensus & (minority == 0)
    retired_occupied = counts[done].any(axis=0)
    live = np.flatnonzero(~done)             # the runs still going
    cur = counts[live]                       # ... their counts
    need_live = n - tol[live]                # ... and the agreement each needs

    program = _RoundProgram(rule, R) if live.size and horizon else None
    rounds_executed = 0
    for t in range(1, horizon + 1):
        if live.size == 0:
            break
        rounds_executed = t
        victims = None
        if batch is not None:
            cur = _corrupt_live(batch, before, live, support, cur, t, rng)
            # runs whose adversary tracks a victim occupancy (sticky, hiding)
            # get their victims scattered as a separate — exactly equivalent —
            # multinomial program, and learn the victims' new occupancy
            victims = batch.victim_rows(support, live)
        if victims is None:
            cur = occupancy_round_batch(cur, rule, rng, _program=program)
        else:
            cur, new_victims = occupancy_round_batch_split(cur, victims, rule, rng,
                                                           _program=program)
            batch.observe_victim_rows(support, live, new_victims)
        if batch is not None:
            cur = _corrupt_live(batch, after, live, support, cur, t, rng)
        if observe is not None:
            observe(t, support, cur)

        agreement = cur.max(axis=1)
        bad = agreement < need_live          # minority above the tolerance
        if bad.all():
            last_bad[live] = t
        else:
            # a run can only be at consensus or stable within its tolerance
            last_bad[live[bad]] = t
            fresh = (agreement == n) & (consensus_round[live] < 0)
            consensus_round[live[fresh]] = t
            consensus_value[live[fresh]] = support[cur[fresh].argmax(axis=1)]
            done = fresh & stop_consensus[live]
            done |= stop_stable[live] & (t - last_bad[live] >= window[live])
            if done.any():
                counts[live[done]] = cur[done]
                end[live[done]] = t
                retired_occupied |= cur[done].any(axis=0)
                live, cur = live[~done], cur[~done]
                need_live = n - tol[live]

        # compact bins that are empty in every run: the rules only ever output
        # present values, so without an adversary such bins can never refill
        # (with one, the admissible palettes must stay addressable)
        if not any_adversary and live.size and not cur.all():
            occupied = cur.any(axis=0) | retired_occupied
            if not occupied.all():
                support = support[occupied]
                cur = np.ascontiguousarray(cur[:, occupied])
                counts = counts[:, occupied]
                retired_occupied = retired_occupied[occupied]

    counts[live] = cur
    end[live] = rounds_executed
    if batch is not None:
        batch.write_back(support)
    stable_round = np.where(end - last_bad >= window, last_bad + 1, -1)
    return _LoopOutcome(counts, support, consensus_round, consensus_value,
                        stable_round, tol, window, horizon, rounds_executed)


def run_batch_fused_occupancy(
    initial_factory: Union[Configuration, OccupancyState,
                           Callable[[np.random.Generator], Configuration],
                           Callable[[np.random.Generator], OccupancyState]],
    num_runs: int,
    *,
    rule: Rule | None = None,
    adversary_factory: Callable[[], Adversary] | None = None,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    criterion: Optional[AlmostStableCriterion] = None,
) -> BatchResult:
    """Simulate ``num_runs`` independent runs as one count-tensor program.

    The multi-run form of :func:`repro.engine.occupancy.simulate_occupancy`:
    both run the same round loop, here with the batch state an ``(R, m)`` int64 tensor of bin
    counts over a shared value support.  Each round draws every run's
    scatter in one seam call and detects convergence in count space
    (``n − counts.max(axis=1)``, O(m) per run).  Per-round cost is O(R·m)
    compiled, O(R·m²) on NumPy, independent of n.  The adversaries of all
    runs act in one :meth:`~repro.adversary.base.Adversary.corrupt_counts`
    call per round and timing; only their random victim draws, and each
    run's ledger entry, are made run by run.

    Semantics match ``run_batch(engine="occupancy")`` run for run, in
    distribution: per-run initial draws use the same spawned seed streams,
    adversaries act through their exact count-edit form
    (:meth:`~repro.adversary.base.Adversary.corrupt_counts`, one fresh
    adversary per run with its own budget ledger), convergence is the exact
    consensus round without an adversary and the first round of the trailing
    ``criterion.window`` with minority ≤ ``criterion.tolerance`` with one
    (exact consensus, if a run ever latches it, takes precedence — exactly
    like :meth:`~repro.engine.run.SimulationResult.convergence_round`).

    Parameters
    ----------
    initial_factory:
        Fixed :class:`Configuration`/:class:`OccupancyState` used by every
        run, or a per-run factory ``rng -> Configuration | OccupancyState``.
        All runs must share the same population size n; the batch support is
        the union of the runs' initial values, while each run's adversary
        palette remains that run's *own* initial values (a sibling run's
        values are never admissible).
    adversary_factory:
        Zero-argument callable building a fresh count-capable adversary per
        run; ``None`` disables corruption.  The identity-tracking strategies
        (sticky, hiding) run through their exact victim-occupancy form: their
        runs' victim subpopulations are scattered as a separate multinomial
        program each round (still one fused pass over the batch).  Custom
        adversaries without a count-space form are rejected.
    criterion:
        Almost-stable criterion; ``None`` selects
        :meth:`AlmostStableCriterion.for_budget` of each run's budget.
        Without an adversary runs still stop only at exact consensus, but a
        caller-supplied criterion is honored at the horizon: runs whose
        trailing streak satisfies it report the streak's first round.

    Per-round working memory is O(R·m) on the compiled backend; NumPy's
    dense round is drawn in run blocks
    (:data:`repro.engine.occupancy.DENSE_BLOCK_ELEMS`).
    """
    if num_runs <= 0:
        raise ValueError("num_runs must be positive")
    rule = rule or MedianRule()

    # one child stream per run for the initial draw (aligning run_batch's
    # spawning discipline) plus one batch-wide stream for the dynamics
    streams = spawn_rngs(seed, num_runs + 1)
    rng = streams[-1]

    if isinstance(initial_factory, (Configuration, OccupancyState)):
        # fixed initial: convert/count once, share across the batch
        states: List[OccupancyState] = [_as_occupancy(initial_factory)] * num_runs
    else:
        states = [_as_occupancy(initial_factory(streams[i])) for i in range(num_runs)]

    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("fused occupancy batch requires a uniform population size n")
    if n == 0:
        raise ValueError("cannot simulate an empty population")

    adversaries: List[Adversary] = [
        adversary_factory() if adversary_factory is not None else NullAdversary()
        for _ in range(num_runs)
    ]

    # shared fixed support: union of every run's initial values.  Each run's
    # adversary palette stays that run's *own* initial values (count edits may
    # revive extinct values, but never values from a sibling run).
    if states[0] is states[-1]:  # fixed initial: one alignment, tiled
        shared_palette = states[0].support[states[0].counts > 0]
        admissibles = [shared_palette] * num_runs
        support = shared_palette.copy()
        counts = np.tile(states[0].with_support(support).counts, (num_runs, 1))
    else:
        admissibles = [s.support[s.counts > 0] for s in states]
        support = reduce(np.union1d, admissibles)
        counts = np.stack([s.with_support(support).counts for s in states])

    out = _occupancy_loop(counts, support, rule, adversaries, admissibles, rng,
                          max_rounds, criterion=criterion)
    rounds = np.where(out.consensus_round >= 0, out.consensus_round,
                      out.stable_round).astype(np.float64)
    converged = rounds >= 0
    rounds[~converged] = np.nan

    return BatchResult(
        n=n,
        num_runs=num_runs,
        rounds=rounds,
        converged=converged,
        meta={
            "rule": rule.name,
            "engine": "occupancy-fused",
            "fused": True,
            "adversary_budget": int(max(adv.budget for adv in adversaries)),
            "tolerance": int(out.tol.max()),
            "window": int(out.window.max()),
            "horizon": out.horizon,
            "num_bins": int(support.shape[0]),
            "rounds_executed": out.rounds_executed,
            "budget_ledger_ok": all(adv.ledger.verify() for adv in adversaries),
        },
    )
