"""Batched Monte-Carlo simulation.

Experiments need distributions of convergence times, not single runs.  Two
batching strategies are provided:

* :func:`run_batch` — repeat a single-run engine
  (:func:`repro.engine.vectorized.simulate` or
  :func:`repro.engine.occupancy.simulate_occupancy`) over independent seeds.
  Flexible (any rule, any adversary) but pays the per-run Python overhead —
  which *dominates* for the occupancy engine, whose O(m²) kernel is far
  cheaper than one interpreter round trip.

* :func:`run_batch_fused_occupancy` — the multi-run analogue of the occupancy
  engine: state is one ``(R, m)`` count tensor, each round builds the stacked
  ``(R, m, m)`` outcome tensor and draws all ``R·m`` multinomials in a single
  reshaped call, and the adversaries of all runs act in one step.  O(R·m²)
  per round with **no dependence on n**, so convergence-round distributions
  at n = 10⁶–10⁹ cost the same as at n = 10⁴.  The only work left per run is
  the adversaries' own random victim draws and each run's budget-ledger
  entry.  Selected as ``run_batch(engine="occupancy-fused")``.

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
    OCCUPANCY_KERNEL_RULE_TYPES,
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
    """Name-level support check for the fused occupancy batch engine.

    True iff a cell with this rule/adversary registry pair can run on
    ``engine="occupancy-fused"`` — used by the sweep builders and the runner
    to fall back to the looped :func:`run_batch` path *before* any work is
    spent.  When the cell's geometry is known, pass ``n`` and ``m``: the
    occupancy substrate costs O(m²) per round versus the vectorized engine's
    O(n), so wide supports (``m² ≫ n``, e.g. the all-distinct workload where
    m = n) are reported unsupported even though the kernels exist — and
    ``m > MAX_SUPPORT_DEFAULT`` would refuse to allocate its transition
    tensor outright.
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
        run) or ``"occupancy"`` (O(m²) per round, independent of n) loop the
        runs in Python; ``"occupancy-fused"`` routes the whole batch through
        :func:`run_batch_fused_occupancy` (one (R, m) count tensor, no
        per-run loop) whenever the rule/adversary pair supports it, and
        through the vectorized loop when the pair has no count-space form
        (a value-form initial is then required — occupancy states cannot be
        expanded implicitly).  All are statistically equivalent.
    """
    if num_runs <= 0:
        raise ValueError("num_runs must be positive")
    if engine not in BATCH_ENGINES:
        raise KeyError(f"unknown engine {engine!r}; available: {sorted(BATCH_ENGINES)}")
    rule = rule or MedianRule()
    if engine == "occupancy-fused":
        probe = adversary_factory() if adversary_factory is not None else None
        if probe is not None:
            # hand the probe to run 0 so a stateful factory sees exactly one
            # call per run, whichever path executes the batch
            pending, original_factory = [probe], adversary_factory

            def adversary_factory() -> Adversary:
                return pending.pop() if pending else original_factory()

        if _fused_occupancy_supported(rule, probe):
            return run_batch_fused_occupancy(
                initial_factory,
                num_runs,
                rule=rule,
                adversary_factory=adversary_factory,
                seed=seed,
                max_rounds=max_rounds,
                criterion=criterion,
            )
        # neither occupancy substrate can run this pair — only the
        # vectorized loop can
        engine = "vectorized"
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
#: Per-round working-set cap for the fused occupancy engine, in float64
#: elements of the (block, m, m) outcome tensor (2**24 ≈ 134 MB).  Rounds over
#: batches wider than this are processed in run blocks of that size.  Read at
#: every round, so a test can lower it to force the blocked path.
FUSED_OCCUPANCY_BLOCK_ELEMS = 2 ** 24


def _fused_occupancy_supported(rule: Rule, adversary: Optional[Adversary]) -> bool:
    """Object-level twin of :func:`fused_occupancy_cell_supported`."""
    if adversary is not None and adversary.budget > 0 and not adversary.supports_counts:
        return False
    if callable(getattr(rule, "occupancy_kernel", None)):
        return True
    return isinstance(rule, OCCUPANCY_KERNEL_RULE_TYPES)


def _occupancy_round_blocked(counts: np.ndarray,
                             victims: Optional[np.ndarray], rule: Rule,
                             rng: np.random.Generator, support: np.ndarray,
                             program: _RoundProgram
                             ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One fused round, chunked over runs so peak memory stays bounded.

    With ``victims`` (one victim-occupancy row per run, zero for runs that
    track none) each block's round is split
    (:func:`~repro.engine.occupancy.occupancy_round_batch_split`) and the new
    victim rows come back second; without, the second item is ``None``.
    Every block runs on the loop's round ``program``.
    """
    R, m = counts.shape
    block = max(1, FUSED_OCCUPANCY_BLOCK_ELEMS // max(m * m, 1))
    parts = []
    for s in range(0, R, block):
        if victims is None:
            parts.append((occupancy_round_batch(counts[s:s + block], rule, rng,
                                                support=support, _program=program),
                          None))
        else:
            parts.append(occupancy_round_batch_split(
                counts[s:s + block], victims[s:s + block], rule, rng,
                support=support, _program=program))
    if len(parts) == 1:
        return parts[0]
    new_victims = None if victims is None else np.concatenate(
        [part[1] for part in parts])
    return np.concatenate([part[0] for part in parts]), new_victims


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
        cur, new_victims = _occupancy_round_blocked(cur, victims, rule, rng, support,
                                                    program)
        if victims is not None:
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
    (``n − counts.max(axis=1)``, O(m) per run).  Per-round cost is O(R·m²)
    independent of n.  The adversaries of all runs act in one
    :meth:`~repro.adversary.base.Adversary.corrupt_counts` call per round and
    timing; only their random victim draws, and each run's ledger entry, are
    made run by run.

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

    Per-round working memory is capped by :data:`FUSED_OCCUPANCY_BLOCK_ELEMS`.
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
