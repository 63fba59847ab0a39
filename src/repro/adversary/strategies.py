"""Concrete T-bounded adversary strategies.

Each strategy implements a counter-strategy discussed (or implied) by the
paper:

* :class:`BalancingAdversary` — tries to keep the two leading values in
  perfect balance by moving processes from the leading value to the trailing
  one.  This is the strategy behind the paper's remark that ``T = Ω~(sqrt n)``
  would prevent stabilization ("the adversary could keep two groups of
  processes with equal values in perfect balance").  With ``T ≤ sqrt(n)`` the
  median rule beats it (Theorems 2, 3, 10).
* :class:`RevivingAdversary` — re-introduces an extinct (usually extreme)
  value; this is exactly the attack that breaks the minimum rule (Section
  1.1) and that the median rule shrugs off.
* :class:`HidingAdversary` — parks a reservoir of processes on a value and
  keeps re-asserting it every round ("hiding values for an unbounded amount
  of time", Section 1.2): sticky under its paper name.
* :class:`SwitchingAdversary` — alternates the corrupted processes between
  the two extreme initial values each round ("switching values").
* :class:`RandomCorruptionAdversary` — rewrites T uniformly random processes
  to uniformly random admissible values (a noise baseline).
* :class:`TargetedMedianAdversary` — always drags processes that currently
  hold the median value to the farthest extreme, attacking the rule's pivot.
* :class:`StickyAdversary` — picks T fixed victim processes once and pins
  them to a fixed value forever (models Byzantine processes that simply never
  update).

All strategies only *propose*; :class:`~repro.adversary.base.Adversary`
enforces the budget and the initial-value-set constraint.

Five of them — balancing, reviving, switching, random, targeted-median — are
*histogram strategies*: their rewrite depends on the configuration only
through its ``(support, counts)`` histogram.  Each states its move once
(``_decide``), for a stack of histograms, and :class:`_HistogramMixin`
realizes that move in both spaces: ``propose`` decides on the round's one
census and draws the victims from the value vector; in count space the same
decision covers every run the round loop steps, and becomes count edits.
The identity-tracking strategy (sticky, and hiding as its paper name) drives
the occupancy engines exactly by tracking its victims' *occupancy* instead
of their identities.

In count space each strategy keeps its runs' state in arrays, one row per
run (``Adversary._state_of``): the budgets, balancing's remembered runner-up,
reviving's delay and target, the sticky victim occupancy.  The only draws
made run by run, in run order, are the victims of reviving, switching and
random, random's choice of value for them, and sticky's first-round victim
choice.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.adversary.base import (
    _NO_VALUE,
    _ROW0,
    Adversary,
    AdversaryTiming,
    Census,
    Corruption,
    CountCorruption,
    _locate,
    _Palette,
    _RowMoves,
)

__all__ = [
    "BalancingAdversary",
    "RevivingAdversary",
    "HidingAdversary",
    "SwitchingAdversary",
    "RandomCorruptionAdversary",
    "TargetedMedianAdversary",
    "StickyAdversary",
    "ADVERSARY_REGISTRY",
    "make_adversary",
]


#: numpy's ``multivariate_hypergeometric`` (and the scalar draw) refuse
#: populations of 10⁹ and beyond; at or above this total the victims are
#: drawn as distinct uniform positions instead (see ``_victims_per_bin``).
_MVH_POPULATION_LIMIT = 1_000_000_000


def _victims_per_bin(counts: np.ndarray, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """How many of ``size`` uniformly-drawn distinct victims fall in each bin.

    Drawing T victim processes uniformly without replacement and grouping
    them by current value is exactly a multivariate hypergeometric draw over
    the bin loads — the count-space twin of ``rng.choice(n, T, replace=False)``.

    numpy's sampler refuses populations ≥ 10⁹ (exactly the regime the
    occupancy engine exists for).  Beyond that the victims are sampled as
    distinct uniform *positions* in ``[0, total)`` — all ``size`` uniforms
    drawn at once, collisions rejected and redrawn (a uniformly random
    ``size``-subset, i.e. the identical law; with ``size ≤ T ≪ n`` the
    expected number of redraw passes is ~1) — and grouped with a single
    ``searchsorted`` over the cumulative loads, instead of an O(size·m)
    per-victim loop recomputing the cumsum.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    size = min(int(size), total)
    if size <= 0:
        return np.zeros(counts.shape[0], dtype=np.int64)
    if total < _MVH_POPULATION_LIMIT:
        return rng.multivariate_hypergeometric(counts, size).astype(np.int64)
    positions = np.unique(rng.integers(0, total, size=size))
    while positions.shape[0] < size:
        extra = rng.integers(0, total, size=size - positions.shape[0])
        positions = np.unique(np.concatenate([positions, extra]))
    bins = np.searchsorted(np.cumsum(counts), positions, side="right")
    return np.bincount(bins, minlength=counts.shape[0]).astype(np.int64)


class _Moves(NamedTuple):
    """One round's decision of a histogram strategy, one entry per row.

    Row ``r`` rewrites ``amount[r]`` processes (none at 0) to ``dst[r]``.
    The victims hold ``src[r]``, or — with ``src`` ``None`` — are drawn from
    every process (sparing the holders of ``dst[r]`` when the strategy
    ``_spares_dst``).  A ``dst`` of ``None`` sends each victim to an
    independent uniform admissible value.
    """

    amount: np.ndarray
    dst: Optional[np.ndarray]
    src: Optional[np.ndarray] = None


class _HistogramMixin:
    """Both realizations of a histogram strategy's ``_decide``.

    ``_decide(state, rows, support, counts, round_index, palette)`` returns
    the round's :class:`_Moves` for the ``(L, m)`` histograms ``counts`` over
    ``support`` (empty bins allowed), reading and updating the runs' state
    at ``rows`` of the stacked ``state`` (see ``Adversary._state_of``).  In
    value space it decides for one row, the census, and the victims are a
    uniform draw without replacement from the source's processes.  In count
    space it decides for a block of runs at once: a one-value source is an
    exact mass transfer, and an every-process source is split over the bins
    by a multivariate hypergeometric draw (:func:`_victims_per_bin`, per row
    in run order) — the same law, so the two forms stay distributionally
    equivalent by construction.
    """

    #: whether ``_decide`` reads the histogram; the others are handed
    #: ``None`` for it, so a round without a census sorts nothing for them
    _reads_histogram = False
    #: whether victims drawn from every process spare the holders of ``dst``
    _spares_dst = False

    def _histogram(self, values: np.ndarray) -> Census:
        """The census ``_decide`` reads, for a round the engine gave none."""
        return np.unique(values, return_counts=True) if self._reads_histogram \
            else (None, None)

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator,
                census: Optional[Census] = None) -> Corruption:
        support, counts = self._histogram(values) if census is None else census
        state = self._state_of([self], None)
        move = self._decide(state, _ROW0, support, None if counts is None else counts[None],
                            round_index, _Palette.of(admissible_values))
        self._restore(state, 0, None)
        amount = int(move.amount[0])
        if amount <= 0:
            return Corruption.empty()
        src = None if move.src is None else int(move.src[0])
        dst = None if move.dst is None else int(move.dst[0])
        if src is None and not self._spares_dst:
            # every process: draw indices directly, O(T) for T << n
            victims = rng.choice(values.shape[0], size=min(amount, values.shape[0]),
                                 replace=False)
        else:
            pool = np.flatnonzero(values == src if src is not None else values != dst)
            if pool.shape[0] == 0:
                return Corruption.empty()
            victims = rng.choice(pool, size=min(amount, pool.shape[0]), replace=False)
        if dst is None:
            writes = rng.choice(admissible_values, size=victims.shape[0], replace=True)
        else:
            writes = np.full(victims.shape[0], dst, dtype=np.int64)
        return Corruption(indices=victims, values=writes)

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        return self._row_step(np.asarray(support, dtype=np.int64),
                              np.asarray(counts, dtype=np.int64)[None], round_index,
                              _Palette.of(admissible_values), rng).proposal()

    @classmethod
    def _count_rows(cls, state: Dict[str, np.ndarray], rows: np.ndarray,
                    support: np.ndarray, counts: np.ndarray, round_index: int,
                    palette: _Palette, rng: np.random.Generator) -> _RowMoves:
        move = cls._decide(state, rows, support, counts, round_index, palette)
        if move.src is not None:
            # which holders get rewritten is irrelevant in count space
            go = np.flatnonzero(move.amount > 0)
            return _RowMoves(go, move.src[go], move.dst[go], move.amount[go])
        pool = np.where(support == move.dst[:, None], 0, counts) if cls._spares_dst \
            else counts
        per_bin = np.zeros_like(counts)
        draws = []
        for j in np.flatnonzero(move.amount > 0):   # each run's draws, in run order
            per_bin[j] = _victims_per_bin(pool[j], move.amount[j], rng)
            hit = np.flatnonzero(per_bin[j]) if move.dst is None else ()
            if len(hit):
                # each victim independently picks a uniform admissible value,
                # exactly as in the per-process proposal
                cols = np.flatnonzero(palette.mask[j])
                split = np.zeros((hit.shape[0], palette.values.shape[0]), dtype=np.int64)
                split[:, cols] = rng.multinomial(per_bin[j, hit],
                                                 np.full(cols.shape[0], 1.0 / cols.shape[0]))
                draws.append((np.full(hit.shape[0], j), hit, split))
        if move.dst is not None:
            j, b = np.nonzero(per_bin)
            return _RowMoves(j, support[b], move.dst[j], per_bin[j, b])
        if not draws:
            return _RowMoves.concat([])
        rows_of, bins, split = (np.concatenate(part) for part in zip(*draws))
        i, v = np.nonzero(split)
        return _RowMoves(rows_of[i], support[bins[i]], palette.values[v], split[i, v])


class BalancingAdversary(_HistogramMixin, Adversary):
    """Keep the top two values as balanced as possible.

    Each round the strategy finds the two most loaded values, computes their
    gap, and moves up to ``min(T, ceil(gap/2))`` processes from the leading
    value to the trailing one.  When only one value remains it spends the
    budget re-seeding the second-most-recent value (so a consensus can never
    be *exact*, only almost stable — matching the paper's definition).
    """

    _reads_histogram = True

    def __init__(self, budget: int,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        self._last_runner_up: Optional[int] = None

    def reset(self) -> None:
        super().reset()
        self._last_runner_up = None

    @classmethod
    def _state_of(cls, adversaries, support):
        state = super()._state_of(adversaries, support)
        state["runner_up"] = np.array(
            [_NO_VALUE if adv._last_runner_up is None else adv._last_runner_up
             for adv in adversaries], dtype=np.int64)
        return state

    def _restore(self, state, k, support):
        runner_up = int(state["runner_up"][k])
        self._last_runner_up = None if runner_up == _NO_VALUE else runner_up

    @classmethod
    def _decide(cls, state, rows, support, counts, round_index, palette):
        L, m = counts.shape
        j = np.arange(L)
        order = np.argsort(-counts, axis=1, kind="stable")
        lead, lead_load = order[:, 0], counts[j, order[:, 0]]
        second = order[:, min(1, m - 1)]
        second_load = counts[j, second] if m > 1 else np.zeros(L, dtype=np.int64)
        leader, runner_up = support[lead], support[second]
        budget = state["budget"][rows]
        two = second_load > 0
        amount = np.where(two, np.minimum(budget, (lead_load - second_load + 1) // 2), 0)
        memory = state["runner_up"]
        memory[rows[two]] = runner_up[two]
        if not two.all() and palette.values.shape[0]:
            # consensus reached: re-seed a different admissible value — the
            # remembered runner-up while it still is one
            consensus = (lead_load > 0) & ~two
            others = palette.mask & (palette.values != leader[:, None])
            recall = memory[rows]
            reseed = np.where((recall != leader) & palette.holds(recall), recall,
                              palette.values[others.argmax(axis=1)])
            runner_up = np.where(consensus, reseed, runner_up)
            amount = np.where(consensus & others.any(axis=1), budget, amount)
        return _Moves(amount, runner_up, src=leader)


class RevivingAdversary(_HistogramMixin, Adversary):
    """Re-introduce an extinct value once agreement looks settled.

    The strategy waits ``delay`` rounds, then every round flips up to ``T``
    uniformly chosen processes not holding ``target_value`` (by default the
    smallest admissible value — the one the minimum rule would irreversibly
    chase) to it.  Against the minimum rule one such write eventually flips
    the whole system; against the median rule the write is absorbed.
    """

    _spares_dst = True

    def __init__(self, budget: int, delay: int = 0, target_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = int(delay)
        self.target_value = target_value

    @classmethod
    def _state_of(cls, adversaries, support):
        state = super()._state_of(adversaries, support)
        state["delay"] = np.array([adv.delay for adv in adversaries], dtype=np.int64)
        state["target"] = np.array(
            [_NO_VALUE if adv.target_value is None else adv.target_value
             for adv in adversaries], dtype=np.int64)
        return state

    @classmethod
    def _decide(cls, state, rows, support, counts, round_index, palette):
        target = state["target"][rows]
        target = np.where(target == _NO_VALUE, palette.lo(), target)
        return _Moves(np.where(round_index < state["delay"][rows], 0, state["budget"][rows]),
                      target)


class SwitchingAdversary(_HistogramMixin, Adversary):
    """Alternate corrupted processes between the two extreme initial values.

    On even rounds the victims are written to the smallest admissible value,
    on odd rounds to the largest ("switching values" of Section 1.2).  Fresh
    victims are drawn every round.
    """

    @classmethod
    def _decide(cls, state, rows, support, counts, round_index, palette):
        target = palette.lo() if round_index % 2 == 0 else palette.hi()
        return _Moves(state["budget"][rows], target)


class RandomCorruptionAdversary(_HistogramMixin, Adversary):
    """Rewrite T uniformly random processes to uniformly random admissible values."""

    @classmethod
    def _decide(cls, state, rows, support, counts, round_index, palette):
        return _Moves(state["budget"][rows], None)


class TargetedMedianAdversary(_HistogramMixin, Adversary):
    """Attack the pivot: push processes holding the current median value outward.

    Every round the strategy identifies the median value of the current
    configuration and rewrites up to T of its holders to whichever admissible
    extreme (min or max) is farther from the median, trying to destabilize
    the quantity the rule converges around.
    """

    _reads_histogram = True

    def _histogram(self, values: np.ndarray) -> Census:
        # only the median's bin, from one sort
        ranked = np.sort(values)
        median = ranked[(ranked.shape[0] - 1) // 2]
        holders = ranked.searchsorted(median, "right") - ranked.searchsorted(median, "left")
        return np.array([median]), np.array([holders])

    @classmethod
    def _decide(cls, state, rows, support, counts, round_index, palette):
        # the median ball's bin: the first whose cumulative load passes (n - 1) // 2
        cum = np.cumsum(counts, axis=1)
        at = (cum <= ((cum[:, -1] - 1) // 2)[:, None]).sum(axis=1)
        median = support[at]
        lo, hi = palette.lo(), palette.hi()
        target = np.where(hi - median >= median - lo, hi, lo)
        holders = counts[np.arange(at.shape[0]), at]
        return _Moves(np.minimum(state["budget"][rows], holders), target, src=median)


class StickyAdversary(Adversary):
    """T fixed Byzantine processes that never update and always assert one value.

    Victims are chosen once (uniformly at random) on the first round and then
    pinned to ``pinned_value`` (default: the largest admissible value) in
    every round; they are re-drawn only if their number no longer equals
    ``min(T, n)``.  This models crash-into-stuck / classic Byzantine
    behaviour rather than an adaptive attacker.

    Count-space form: a fixed victim set re-pinned to one value every round
    depends on process identities only through the victims' current
    *occupancy*.  The initial uniform victim choice is a
    multivariate-hypergeometric split of the bin loads, each corruption is
    the deterministic count edit "move every victim to the pinned value", and
    between corruptions the victims' occupancy evolves by the same per-class
    scatter as everyone else's.  The occupancy engines realize that last step
    exactly by scattering the victim subpopulation separately
    (:func:`repro.engine.occupancy.occupancy_round_split`) and reporting the
    victims' new occupancy back — so the count-space form is equal in law to
    the vectorized one, not an approximation.  Its state is the victims'
    occupancy over a support (``None`` before the victims are chosen); the
    count-space loop keeps every run's as one row of an ``(R, m)`` array.
    """

    _tracks_victims = True

    def __init__(self, budget: int, pinned_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        self.pinned_value = pinned_value
        self._victims: Optional[np.ndarray] = None
        self._victim_occupancy: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def reset(self) -> None:
        super().reset()
        self._victims = None
        self._victim_occupancy = None

    @property
    def _victim_loads(self) -> Optional[Dict[int, int]]:
        """The victims' occupancy as ``{value: count}`` (``None`` before they are chosen)."""
        if self._victim_occupancy is None:
            return None
        return {int(v): int(c) for v, c in zip(*self._victim_occupancy) if c > 0}

    def _target(self, admissible_values: np.ndarray) -> int:
        return int(admissible_values.max()) if self.pinned_value is None \
            else int(self.pinned_value)

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        size = min(self.budget, values.shape[0])
        if self._victims is None or self._victims.shape[0] != size:
            self._victims = rng.choice(values.shape[0], size=size, replace=False)
        return Corruption(indices=self._victims,
                          values=np.full(size, self._target(admissible_values),
                                         dtype=np.int64))

    propose_counts = _HistogramMixin.propose_counts

    @classmethod
    def _state_of(cls, adversaries, support):
        state = super()._state_of(adversaries, support)
        state["pinned"] = np.array(
            [_NO_VALUE if adv.pinned_value is None else adv.pinned_value
             for adv in adversaries], dtype=np.int64)
        state["chosen"] = np.array([adv._victim_occupancy is not None for adv in adversaries])
        state["victims"] = np.zeros((len(adversaries), support.shape[0]), dtype=np.int64)
        for k in np.flatnonzero(state["chosen"]):
            state["victims"][k] = adversaries[k].victim_counts(support)
        return state

    def _restore(self, state, k, support):
        self._victim_occupancy = (support, state["victims"][k].copy()) \
            if state["chosen"][k] else None

    @classmethod
    def _count_rows(cls, state, rows, support, counts, round_index, palette, rng):
        victims, chosen = state["victims"], state["chosen"]
        for j in np.flatnonzero(~chosen[rows]):
            # victims are chosen once, uniformly among all processes — the
            # count-space twin of rng.choice(n, T, replace=False)
            victims[rows[j]] = _victims_per_bin(counts[j], state["budget"][rows[j]], rng)
        chosen[rows] = True
        pinned = state["pinned"][rows]
        target = np.where(pinned == _NO_VALUE, palette.hi(), pinned)
        at, there = _locate(support, target)
        # an inadmissible target, or one without a bin, leaves the victims
        # tracked but unpinned: the enforcement would drop every write (the
        # vectorized path filters inadmissible values the same way)
        pin = np.flatnonzero(palette.holds(target) & there)
        block = victims[rows[pin]]
        j, b = np.nonzero(block)
        moves = _RowMoves(pin[j], support[b], target[pin[j]], block[j, b])
        victims[rows[pin]] = 0
        victims[rows[pin], at[pin]] = block.sum(axis=1)
        return moves

    def victim_counts(self, support: np.ndarray) -> Optional[np.ndarray]:
        if self._victim_occupancy is None:
            return None
        values, loads = self._victim_occupancy
        support = np.asarray(support, dtype=np.int64)
        out = np.zeros(support.shape[0], dtype=np.int64)
        if support.shape[0]:
            at, there = _locate(support, values)
            out[at[there]] = loads[there]
        return out

    def observe_victim_scatter(self, support: np.ndarray,
                               victim_counts: np.ndarray) -> None:
        if self._victim_occupancy is None:
            return  # victims not chosen yet (e.g. first round, AFTER_SAMPLING)
        self._victim_occupancy = (np.array(support, dtype=np.int64),
                                  np.array(victim_counts, dtype=np.int64))


class HidingAdversary(StickyAdversary):
    """Maintain a hidden reservoir of processes pinned to a chosen value.

    The same ``T`` victim processes are re-pinned every round to
    ``hidden_value`` (default: the largest admissible value), modelling the
    "hiding values for an unbounded amount of time" counter-strategy — the
    sticky strategy under its paper name.
    """

    def __init__(self, budget: int, hidden_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, pinned_value=hidden_value, timing=timing)

    @property
    def hidden_value(self) -> Optional[int]:
        return self.pinned_value


#: Registry of adversary strategies by name (for experiment configuration).
ADVERSARY_REGISTRY = {
    "null": None,  # handled specially by make_adversary
    "balancing": BalancingAdversary,
    "reviving": RevivingAdversary,
    "hiding": HidingAdversary,
    "switching": SwitchingAdversary,
    "random": RandomCorruptionAdversary,
    "targeted-median": TargetedMedianAdversary,
    "sticky": StickyAdversary,
}


def make_adversary(name: str, budget: int = 0, **kwargs) -> Adversary:
    """Instantiate an adversary by registry name.

    ``make_adversary("null")`` (or any name with ``budget=0``) returns a
    :class:`~repro.adversary.base.NullAdversary`.
    """
    from repro.adversary.base import NullAdversary

    if name not in ADVERSARY_REGISTRY:
        raise KeyError(f"unknown adversary {name!r}; available: {sorted(ADVERSARY_REGISTRY)}")
    if name == "null" or budget == 0:
        return NullAdversary()
    cls = ADVERSARY_REGISTRY[name]
    return cls(budget=budget, **kwargs)
