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
(``_decide``), and :class:`_HistogramMixin` realizes that move in both
spaces: ``propose`` draws the victims from a value vector, ``propose_counts``
turns the same move into count edits for the occupancy engines.  The
identity-tracking strategy (sticky, and hiding as its paper name) drives the
occupancy engines exactly by tracking its victims' *occupancy* instead of
their identities.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.adversary.base import (
    Adversary,
    AdversaryTiming,
    Census,
    Corruption,
    CountCorruption,
)
from repro.core.metrics import histogram_median

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


class _Move(NamedTuple):
    """One decision of a histogram strategy: rewrite ``amount`` processes to ``dst``.

    The victims hold ``src``, or — with ``src`` ``None`` — are drawn from
    every process (sparing the holders of ``dst`` when ``spare``).  A ``dst``
    of ``None`` sends each victim to an independent uniform admissible value.
    """

    amount: int
    dst: Optional[int]
    src: Optional[int] = None
    spare: bool = False


class _HistogramMixin:
    """Both realizations of a histogram strategy's ``_decide``.

    ``_decide(support, counts, round_index, admissible_values)`` returns the
    round's :class:`_Move` (or ``None``); the histogram may carry empty bins.
    In value space the victims are a uniform draw without replacement from
    the source's processes; in count space a one-value source is an exact
    mass transfer and an every-process source is split over the bins by a
    multivariate hypergeometric draw (:func:`_victims_per_bin`) — the same
    law, so the two forms stay distributionally equivalent by construction.
    """

    #: whether ``_decide`` reads the histogram; the others are handed
    #: ``None`` for it, so a round without a census sorts nothing for them
    _reads_histogram = False

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator,
                census: Optional[Census] = None) -> Corruption:
        if census is None:
            census = np.unique(values, return_counts=True) if self._reads_histogram \
                else (None, None)
        move = self._decide(*census, round_index, admissible_values)
        if move is None:
            return Corruption.empty()
        if move.src is None and not move.spare:
            # every process: draw indices directly, O(T) for T << n
            victims = rng.choice(values.shape[0], size=min(move.amount, values.shape[0]),
                                 replace=False)
        else:
            pool = np.flatnonzero(values == move.src if move.src is not None
                                  else values != move.dst)
            if pool.shape[0] == 0:
                return Corruption.empty()
            victims = rng.choice(pool, size=min(move.amount, pool.shape[0]), replace=False)
        if move.dst is None:
            writes = rng.choice(admissible_values, size=victims.shape[0], replace=True)
        else:
            writes = np.full(victims.shape[0], move.dst, dtype=np.int64)
        return Corruption(indices=victims, values=writes)

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        move = self._decide(support, counts, round_index, admissible_values)
        if move is None:
            return CountCorruption.empty()
        if move.src is not None:
            # which holders get rewritten is irrelevant in count space
            return CountCorruption(src_values=[move.src], dst_values=[move.dst],
                                   amounts=[move.amount])
        pool = np.where(support == move.dst, 0, counts) if move.spare else counts
        per_bin = _victims_per_bin(pool, move.amount, rng)
        hit = np.flatnonzero(per_bin)
        if move.dst is not None:
            return CountCorruption(src_values=support[hit],
                                   dst_values=np.full(hit.shape[0], move.dst, dtype=np.int64),
                                   amounts=per_bin[hit])
        uniform = np.full(admissible_values.shape[0], 1.0 / admissible_values.shape[0])
        src, dst, amounts = [], [], []
        for i in hit:
            # each victim from this bin independently picks a uniform
            # admissible value, exactly as in the per-process proposal
            split = rng.multinomial(int(per_bin[i]), uniform)
            for j in np.flatnonzero(split):
                src.append(int(support[i]))
                dst.append(int(admissible_values[j]))
                amounts.append(int(split[j]))
        return CountCorruption(src_values=src, dst_values=dst, amounts=amounts)


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

    def _decide(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                admissible_values: np.ndarray) -> Optional[_Move]:
        nz = np.flatnonzero(counts)
        if nz.shape[0] == 0:
            return None
        order = nz[np.argsort(-counts[nz], kind="stable")]
        leader = int(support[order[0]])
        if order.shape[0] >= 2:
            runner_up = int(support[order[1]])
            self._last_runner_up = runner_up
            amount = min(self.budget, (int(counts[order[0]]) - int(counts[order[1]]) + 1) // 2)
        else:
            # consensus reached: re-seed a different admissible value
            others = admissible_values[admissible_values != leader]
            if others.shape[0] == 0:
                return None
            if self._last_runner_up is not None and self._last_runner_up in others:
                runner_up = self._last_runner_up
            else:
                runner_up = int(others[0])
            amount = self.budget
        return _Move(amount, runner_up, src=leader) if amount > 0 else None


class RevivingAdversary(_HistogramMixin, Adversary):
    """Re-introduce an extinct value once agreement looks settled.

    The strategy waits ``delay`` rounds, then every round flips up to ``T``
    uniformly chosen processes not holding ``target_value`` (by default the
    smallest admissible value — the one the minimum rule would irreversibly
    chase) to it.  Against the minimum rule one such write eventually flips
    the whole system; against the median rule the write is absorbed.
    """

    def __init__(self, budget: int, delay: int = 0, target_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = int(delay)
        self.target_value = target_value

    def _decide(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                admissible_values: np.ndarray) -> Optional[_Move]:
        if round_index < self.delay:
            return None
        target = int(admissible_values.min()) if self.target_value is None \
            else int(self.target_value)
        return _Move(self.budget, target, spare=True)


class SwitchingAdversary(_HistogramMixin, Adversary):
    """Alternate corrupted processes between the two extreme initial values.

    On even rounds the victims are written to the smallest admissible value,
    on odd rounds to the largest ("switching values" of Section 1.2).  Fresh
    victims are drawn every round.
    """

    def _decide(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                admissible_values: np.ndarray) -> Optional[_Move]:
        target = int(admissible_values.min()) if round_index % 2 == 0 \
            else int(admissible_values.max())
        return _Move(self.budget, target)


class RandomCorruptionAdversary(_HistogramMixin, Adversary):
    """Rewrite T uniformly random processes to uniformly random admissible values."""

    def _decide(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                admissible_values: np.ndarray) -> Optional[_Move]:
        return _Move(self.budget, None)


class TargetedMedianAdversary(_HistogramMixin, Adversary):
    """Attack the pivot: push processes holding the current median value outward.

    Every round the strategy identifies the median value of the current
    configuration and rewrites up to T of its holders to whichever admissible
    extreme (min or max) is farther from the median, trying to destabilize
    the quantity the rule converges around.
    """

    _reads_histogram = True

    def _decide(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                admissible_values: np.ndarray) -> Optional[_Move]:
        median = histogram_median(support, counts)
        lo, hi = int(admissible_values.min()), int(admissible_values.max())
        target = hi if (hi - median) >= (median - lo) else lo
        holders = int(counts[np.searchsorted(support, median)])
        return _Move(min(self.budget, holders), target, src=median)


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
    victims' new occupancy back through :meth:`observe_victim_scatter` — so
    the count-space form is equal in law to the vectorized one, not an
    approximation.  Its state is a ``{value: victim count}`` mapping
    (``None`` before the victims are chosen).
    """

    def __init__(self, budget: int, pinned_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        self.pinned_value = pinned_value
        self._victims: Optional[np.ndarray] = None
        self._victim_loads: Optional[Dict[int, int]] = None

    def reset(self) -> None:
        super().reset()
        self._victims = None
        self._victim_loads = None

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

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        target = self._target(admissible_values)
        if self._victim_loads is None:
            # victims are chosen once, uniformly among all processes — the
            # count-space twin of rng.choice(n, T, replace=False)
            per_bin = _victims_per_bin(counts, self.budget, rng)
            self._victim_loads = {int(v): int(c)
                                  for v, c in zip(support, per_bin) if c > 0}
        else:
            per_bin = self.victim_counts(support)
        if target not in admissible_values:
            # the enforcement wrapper would drop every write (matching the
            # vectorized path, where inadmissible values are filtered); the
            # victims stay tracked but unpinned
            return CountCorruption.empty()
        total = int(per_bin.sum())
        if total > 0:
            self._victim_loads = {target: total}
        mask = per_bin > 0
        src = np.asarray(support, dtype=np.int64)[mask]
        return CountCorruption(
            src_values=src,
            dst_values=np.full(src.shape[0], target, dtype=np.int64),
            amounts=per_bin[mask])

    def victim_counts(self, support: np.ndarray) -> Optional[np.ndarray]:
        if self._victim_loads is None:
            return None
        support = np.asarray(support, dtype=np.int64)
        out = np.zeros(support.shape[0], dtype=np.int64)
        for value, cnt in self._victim_loads.items():
            i = int(np.searchsorted(support, value))
            if i < support.shape[0] and support[i] == value:
                out[i] = cnt
        return out

    def observe_victim_scatter(self, support: np.ndarray,
                               victim_counts: np.ndarray) -> None:
        if self._victim_loads is None:
            return  # victims not chosen yet (e.g. first round, AFTER_SAMPLING)
        victim_counts = np.asarray(victim_counts, dtype=np.int64)
        self._victim_loads = {int(v): int(c)
                              for v, c in zip(support, victim_counts) if c > 0}


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
