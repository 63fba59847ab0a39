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
  of time", Section 1.2).
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

Every strategy also carries a count-space form (``propose_counts``) able to
drive the occupancy engines; the identity-tracking pair (sticky, hiding)
does so exactly by tracking its victims' *occupancy* instead of their
identities (:class:`_VictimOccupancyMixin`).
"""

from __future__ import annotations

from typing import Dict, Optional

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


class BalancingAdversary(Adversary):
    """Keep the top two values as balanced as possible.

    Each round the strategy finds the two most loaded values, computes their
    gap, and moves up to ``min(T, ceil(gap/2))`` processes from the leading
    value to the trailing one.  When only one value remains it spends the
    budget re-seeding the second-most-recent value (so a consensus can never
    be *exact*, only almost stable — matching the paper's definition).
    """

    def __init__(self, budget: int,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        self._last_runner_up: Optional[int] = None

    def reset(self) -> None:
        super().reset()
        self._last_runner_up = None

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator,
                census: Optional[Census] = None) -> Corruption:
        uniq, counts = np.unique(values, return_counts=True) if census is None else census
        order = np.argsort(-counts, kind="stable")
        leader = int(uniq[order[0]])

        if uniq.shape[0] >= 2:
            runner_up = int(uniq[order[1]])
            self._last_runner_up = runner_up
            gap = int(counts[order[0]]) - int(counts[order[1]])
            want = min(self.budget, max((gap + 1) // 2, 0))
        else:
            # consensus reached: re-seed a different admissible value
            others = admissible_values[admissible_values != leader]
            if others.shape[0] == 0:
                return Corruption.empty()
            if self._last_runner_up is not None and self._last_runner_up in others:
                runner_up = self._last_runner_up
            else:
                runner_up = int(others[0])
            want = self.budget

        if want <= 0:
            return Corruption.empty()
        leaders = np.flatnonzero(values == leader)
        if leaders.shape[0] == 0:
            return Corruption.empty()
        victims = rng.choice(leaders, size=min(want, leaders.shape[0]), replace=False)
        return Corruption(indices=victims,
                          values=np.full(victims.shape[0], runner_up, dtype=np.int64))


    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        # Mirrors `propose` exactly: which holders of the leader get rewritten
        # is irrelevant in count space, so the move is a deterministic mass
        # transfer from the leader bin to the runner-up bin.
        nz = np.flatnonzero(counts > 0)
        if nz.shape[0] == 0:
            return CountCorruption.empty()
        order = nz[np.argsort(-counts[nz], kind="stable")]
        leader = int(support[order[0]])

        if order.shape[0] >= 2:
            runner_up = int(support[order[1]])
            self._last_runner_up = runner_up
            gap = int(counts[order[0]]) - int(counts[order[1]])
            want = min(self.budget, max((gap + 1) // 2, 0))
        else:
            others = admissible_values[admissible_values != leader]
            if others.shape[0] == 0:
                return CountCorruption.empty()
            if self._last_runner_up is not None and self._last_runner_up in others:
                runner_up = self._last_runner_up
            else:
                runner_up = int(others[0])
            want = self.budget

        if want <= 0:
            return CountCorruption.empty()
        return CountCorruption(src_values=[leader], dst_values=[runner_up],
                               amounts=[want])


class RevivingAdversary(Adversary):
    """Re-introduce an extinct value once agreement looks settled.

    The strategy waits ``delay`` rounds, then every round flips up to ``T``
    processes of the current plurality value to ``target_value`` (by default
    the smallest admissible value — the one the minimum rule would
    irreversibly chase).  Against the minimum rule one such write eventually
    flips the whole system; against the median rule the write is absorbed.
    """

    def __init__(self, budget: int, delay: int = 0, target_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = int(delay)
        self.target_value = target_value

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        if round_index < self.delay:
            return Corruption.empty()
        target = int(admissible_values.min()) if self.target_value is None \
            else int(self.target_value)
        candidates = np.flatnonzero(values != target)
        if candidates.shape[0] == 0:
            return Corruption.empty()
        victims = rng.choice(candidates, size=min(self.budget, candidates.shape[0]),
                             replace=False)
        return Corruption(indices=victims,
                          values=np.full(victims.shape[0], target, dtype=np.int64))

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        if round_index < self.delay:
            return CountCorruption.empty()
        target = int(admissible_values.min()) if self.target_value is None \
            else int(self.target_value)
        # victims are uniform among processes *not* holding the target
        candidate_counts = np.where(support == target, 0, counts)
        per_bin = _victims_per_bin(candidate_counts, self.budget, rng)
        src = support[per_bin > 0]
        amounts = per_bin[per_bin > 0]
        return CountCorruption(src_values=src,
                               dst_values=np.full(src.shape[0], target, dtype=np.int64),
                               amounts=amounts)


class _VictimOccupancyMixin:
    """Count-space form of the identity-tracking strategies (sticky, hiding).

    A fixed victim set re-pinned to one value every round depends on process
    identities only through the victims' current *occupancy*: the initial
    uniform victim choice is a multivariate-hypergeometric split of the bin
    loads, each corruption is the deterministic count edit "move every victim
    to the pinned value", and between corruptions the victims' occupancy
    evolves by the same per-class scatter as everyone else's.  The occupancy
    engines realize that last step exactly by scattering the victim
    subpopulation separately (:func:`repro.engine.occupancy.occupancy_round_split`)
    and reporting the victims' new occupancy back through
    :meth:`observe_victim_scatter` — so the count-space form is equal in law
    to the vectorized one, not an approximation.

    State is a ``{value: victim count}`` mapping (``None`` before the victims
    are chosen); subclasses call :meth:`_propose_pinned_counts` from their
    ``propose_counts``.
    """

    _victim_loads: Optional[Dict[int, int]] = None

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

    def _propose_pinned_counts(self, support: np.ndarray, counts: np.ndarray,
                               target: int, admissible_values: np.ndarray,
                               rng: np.random.Generator) -> CountCorruption:
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
            self._victim_loads = {int(target): total}
        mask = per_bin > 0
        src = np.asarray(support, dtype=np.int64)[mask]
        return CountCorruption(
            src_values=src,
            dst_values=np.full(src.shape[0], target, dtype=np.int64),
            amounts=per_bin[mask])


class HidingAdversary(_VictimOccupancyMixin, Adversary):
    """Maintain a hidden reservoir of processes pinned to a chosen value.

    The same ``T`` victim processes are re-pinned every round to
    ``hidden_value`` (default: the largest admissible value), modelling the
    "hiding values for an unbounded amount of time" counter-strategy.
    """

    def __init__(self, budget: int, hidden_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        self.hidden_value = hidden_value
        self._victims: Optional[np.ndarray] = None

    def reset(self) -> None:
        super().reset()
        self._victims = None
        self._victim_loads = None

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        target = int(admissible_values.max()) if self.hidden_value is None \
            else int(self.hidden_value)
        if self._victims is None or self._victims.shape[0] != min(self.budget, values.shape[0]):
            self._victims = rng.choice(values.shape[0],
                                       size=min(self.budget, values.shape[0]),
                                       replace=False)
        return Corruption(indices=self._victims,
                          values=np.full(self._victims.shape[0], target, dtype=np.int64))

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        target = int(admissible_values.max()) if self.hidden_value is None \
            else int(self.hidden_value)
        return self._propose_pinned_counts(support, counts, target,
                                           admissible_values, rng)


class SwitchingAdversary(Adversary):
    """Alternate corrupted processes between the two extreme initial values.

    On even rounds the victims are written to the smallest admissible value,
    on odd rounds to the largest ("switching values" of Section 1.2).  Fresh
    victims are drawn every round.
    """

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        target = int(admissible_values.min()) if round_index % 2 == 0 \
            else int(admissible_values.max())
        victims = rng.choice(values.shape[0], size=min(self.budget, values.shape[0]),
                             replace=False)
        return Corruption(indices=victims,
                          values=np.full(victims.shape[0], target, dtype=np.int64))

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        target = int(admissible_values.min()) if round_index % 2 == 0 \
            else int(admissible_values.max())
        per_bin = _victims_per_bin(counts, self.budget, rng)
        src = support[per_bin > 0]
        amounts = per_bin[per_bin > 0]
        return CountCorruption(src_values=src,
                               dst_values=np.full(src.shape[0], target, dtype=np.int64),
                               amounts=amounts)


class RandomCorruptionAdversary(Adversary):
    """Rewrite T uniformly random processes to uniformly random admissible values."""

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        victims = rng.choice(values.shape[0], size=min(self.budget, values.shape[0]),
                             replace=False)
        new_vals = rng.choice(admissible_values, size=victims.shape[0], replace=True)
        return Corruption(indices=victims, values=new_vals)

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        per_bin = _victims_per_bin(counts, self.budget, rng)
        uniform = np.full(admissible_values.shape[0],
                          1.0 / admissible_values.shape[0])
        src_list, dst_list, amount_list = [], [], []
        for i in np.flatnonzero(per_bin):
            # each victim from this bin independently picks a uniform
            # admissible value, exactly as in the per-process proposal
            split = rng.multinomial(int(per_bin[i]), uniform)
            for j in np.flatnonzero(split):
                src_list.append(int(support[i]))
                dst_list.append(int(admissible_values[j]))
                amount_list.append(int(split[j]))
        return CountCorruption(src_values=src_list, dst_values=dst_list,
                               amounts=amount_list)


class TargetedMedianAdversary(Adversary):
    """Attack the pivot: push processes holding the current median value outward.

    Every round the strategy identifies the median value of the current
    configuration and rewrites up to T of its holders to whichever admissible
    extreme (min or max) is farther from the median, trying to destabilize
    the quantity the rule converges around.
    """

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator,
                census: Optional[Census] = None) -> Corruption:
        if census is None:
            median_val = int(np.sort(values)[(values.shape[0] - 1) // 2])
        else:
            median_val = histogram_median(*census)
        lo, hi = int(admissible_values.min()), int(admissible_values.max())
        target = hi if (hi - median_val) >= (median_val - lo) else lo
        holders = np.flatnonzero(values == median_val)
        if holders.shape[0] == 0:
            holders = np.arange(values.shape[0])
        victims = rng.choice(holders, size=min(self.budget, holders.shape[0]), replace=False)
        return Corruption(indices=victims,
                          values=np.full(victims.shape[0], target, dtype=np.int64))

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        cum = np.cumsum(counts)
        n = int(cum[-1])
        # searchsorted can only land on a bin whose count is positive (a zero
        # bin repeats the previous cumulative value), so holders > 0 always
        med_idx = int(np.searchsorted(cum, (n - 1) // 2 + 1))
        median_val = int(support[med_idx])
        lo, hi = int(admissible_values.min()), int(admissible_values.max())
        target = hi if (hi - median_val) >= (median_val - lo) else lo
        holders = int(counts[med_idx])
        return CountCorruption(src_values=[median_val], dst_values=[target],
                               amounts=[min(self.budget, holders)])


class StickyAdversary(_VictimOccupancyMixin, Adversary):
    """T fixed Byzantine processes that never update and always assert one value.

    Victims are chosen once (uniformly at random) on the first round and then
    pinned to ``pinned_value`` (default: the largest admissible value) in
    every round.  This models crash-into-stuck / classic Byzantine behaviour
    rather than an adaptive attacker.
    """

    def __init__(self, budget: int, pinned_value: Optional[int] = None,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        super().__init__(budget=budget, timing=timing)
        self.pinned_value = pinned_value
        self._victims: Optional[np.ndarray] = None

    def reset(self) -> None:
        super().reset()
        self._victims = None
        self._victim_loads = None

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        target = int(admissible_values.max()) if self.pinned_value is None \
            else int(self.pinned_value)
        if self._victims is None:
            self._victims = rng.choice(values.shape[0],
                                       size=min(self.budget, values.shape[0]),
                                       replace=False)
        return Corruption(indices=self._victims,
                          values=np.full(self._victims.shape[0], target, dtype=np.int64))

    def propose_counts(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                       admissible_values: np.ndarray, rng: np.random.Generator
                       ) -> CountCorruption:
        target = int(admissible_values.max()) if self.pinned_value is None \
            else int(self.pinned_value)
        return self._propose_pinned_counts(support, counts, target,
                                           admissible_values, rng)


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
