"""Each histogram strategy's one decision, realized in both spaces, against reference forms.

Balancing, reviving, switching, random and targeted-median state their move
once and realize it as a value-space ``propose`` and a count-space
``propose_counts``; hiding is sticky under its paper name.  The references
below write every form separately — the five strategies as one function per
space, hiding as a class of its own — and share no decision code with
``repro.adversary.strategies`` (only the count-space victim draw
``_victims_per_bin``).  Each case asserts that a form returns the reference's
``Corruption`` / ``CountCorruption``, leaves the same strategy state and
leaves the generator in the same state: no random draw moved, was added or
was dropped.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Dict, Optional

import numpy as np
import pytest

from repro.adversary.base import Corruption, CountCorruption
from repro.adversary.strategies import (
    BalancingAdversary,
    HidingAdversary,
    RandomCorruptionAdversary,
    RevivingAdversary,
    StickyAdversary,
    SwitchingAdversary,
    TargetedMedianAdversary,
    _victims_per_bin,
)
from repro.core.metrics import histogram_median


# ---------------------------------------------------------------------- #
# reference forms: functions of the strategy's state (``self``)
# ---------------------------------------------------------------------- #
def balancing_propose(self, values, round_index, admissible_values, rng, census=None):
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


def balancing_propose_counts(self, support, counts, round_index, admissible_values, rng):
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
    return CountCorruption(src_values=[leader], dst_values=[runner_up], amounts=[want])


def reviving_propose(self, values, round_index, admissible_values, rng):
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


def reviving_propose_counts(self, support, counts, round_index, admissible_values, rng):
    if round_index < self.delay:
        return CountCorruption.empty()
    target = int(admissible_values.min()) if self.target_value is None \
        else int(self.target_value)
    candidate_counts = np.where(support == target, 0, counts)
    per_bin = _victims_per_bin(candidate_counts, self.budget, rng)
    src = support[per_bin > 0]
    amounts = per_bin[per_bin > 0]
    return CountCorruption(src_values=src,
                           dst_values=np.full(src.shape[0], target, dtype=np.int64),
                           amounts=amounts)


def switching_propose(self, values, round_index, admissible_values, rng):
    target = int(admissible_values.min()) if round_index % 2 == 0 \
        else int(admissible_values.max())
    victims = rng.choice(values.shape[0], size=min(self.budget, values.shape[0]),
                         replace=False)
    return Corruption(indices=victims,
                      values=np.full(victims.shape[0], target, dtype=np.int64))


def switching_propose_counts(self, support, counts, round_index, admissible_values, rng):
    target = int(admissible_values.min()) if round_index % 2 == 0 \
        else int(admissible_values.max())
    per_bin = _victims_per_bin(counts, self.budget, rng)
    src = support[per_bin > 0]
    amounts = per_bin[per_bin > 0]
    return CountCorruption(src_values=src,
                           dst_values=np.full(src.shape[0], target, dtype=np.int64),
                           amounts=amounts)


def random_propose(self, values, round_index, admissible_values, rng):
    victims = rng.choice(values.shape[0], size=min(self.budget, values.shape[0]),
                         replace=False)
    new_vals = rng.choice(admissible_values, size=victims.shape[0], replace=True)
    return Corruption(indices=victims, values=new_vals)


def random_propose_counts(self, support, counts, round_index, admissible_values, rng):
    per_bin = _victims_per_bin(counts, self.budget, rng)
    uniform = np.full(admissible_values.shape[0], 1.0 / admissible_values.shape[0])
    src_list, dst_list, amount_list = [], [], []
    for i in np.flatnonzero(per_bin):
        split = rng.multinomial(int(per_bin[i]), uniform)
        for j in np.flatnonzero(split):
            src_list.append(int(support[i]))
            dst_list.append(int(admissible_values[j]))
            amount_list.append(int(split[j]))
    return CountCorruption(src_values=src_list, dst_values=dst_list, amounts=amount_list)


def targeted_median_propose(self, values, round_index, admissible_values, rng, census=None):
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


def targeted_median_propose_counts(self, support, counts, round_index, admissible_values,
                                   rng):
    cum = np.cumsum(counts)
    n = int(cum[-1])
    med_idx = int(np.searchsorted(cum, (n - 1) // 2 + 1))
    median_val = int(support[med_idx])
    lo, hi = int(admissible_values.min()), int(admissible_values.max())
    target = hi if (hi - median_val) >= (median_val - lo) else lo
    holders = int(counts[med_idx])
    return CountCorruption(src_values=[median_val], dst_values=[target],
                           amounts=[min(self.budget, holders)])


class ReferenceHiding:
    """Hiding as a class of its own: T victims drawn once, re-pinned every round."""

    def __init__(self, budget: int, hidden_value: Optional[int] = None) -> None:
        self.budget = budget
        self.hidden_value = hidden_value
        self._victims: Optional[np.ndarray] = None
        self._victim_loads: Optional[Dict[int, int]] = None

    def propose(self, values, round_index, admissible_values, rng):
        target = int(admissible_values.max()) if self.hidden_value is None \
            else int(self.hidden_value)
        if self._victims is None or self._victims.shape[0] != min(self.budget, values.shape[0]):
            self._victims = rng.choice(values.shape[0],
                                       size=min(self.budget, values.shape[0]),
                                       replace=False)
        return Corruption(indices=self._victims,
                          values=np.full(self._victims.shape[0], target, dtype=np.int64))

    def victim_counts(self, support):
        if self._victim_loads is None:
            return None
        support = np.asarray(support, dtype=np.int64)
        out = np.zeros(support.shape[0], dtype=np.int64)
        for value, cnt in self._victim_loads.items():
            i = int(np.searchsorted(support, value))
            if i < support.shape[0] and support[i] == value:
                out[i] = cnt
        return out

    def observe_victim_scatter(self, support, victim_counts):
        if self._victim_loads is None:
            return
        victim_counts = np.asarray(victim_counts, dtype=np.int64)
        self._victim_loads = {int(v): int(c)
                              for v, c in zip(support, victim_counts) if c > 0}

    def propose_counts(self, support, counts, round_index, admissible_values, rng):
        target = int(admissible_values.max()) if self.hidden_value is None \
            else int(self.hidden_value)
        if self._victim_loads is None:
            per_bin = _victims_per_bin(counts, self.budget, rng)
            self._victim_loads = {int(v): int(c)
                                  for v, c in zip(support, per_bin) if c > 0}
        else:
            per_bin = self.victim_counts(support)
        if target not in admissible_values:
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


# ---------------------------------------------------------------------- #
# the grid
# ---------------------------------------------------------------------- #
#: name -> (support, counts); every count-space case also carries the
#: palette's values as empty bins
HISTOGRAMS = {
    "zero-bins": ([0, 1, 2, 3, 4, 5], [0, 7, 0, 12, 5, 0]),
    "consensus": ([0, 1, 2], [0, 20, 0]),
    "two-bins": ([2, 5], [9, 14]),
    "balanced": ([1, 4], [10, 10]),
    "symmetric": ([1, 3, 5], [4, 5, 4]),   # median equidistant from the extremes
    "many-bins": ([0, 1, 2, 3, 4, 5, 6, 7], [3, 1, 4, 1, 5, 9, 2, 6]),
}
BUDGETS = (1, 3, 1000)           # one, about half a gap, above n
ROUNDS = (1, 2, 5)               # odd before the delay, even at it, odd after
SEEDS = (0, 1)
DELAY = 2

STRATEGIES = {
    "balancing": (BalancingAdversary, {}, balancing_propose, balancing_propose_counts),
    "reviving": (RevivingAdversary, {"delay": DELAY},
                 reviving_propose, reviving_propose_counts),
    "reviving-target": (RevivingAdversary, {"target_value": 4},
                        reviving_propose, reviving_propose_counts),
    "switching": (SwitchingAdversary, {}, switching_propose, switching_propose_counts),
    "random": (RandomCorruptionAdversary, {}, random_propose, random_propose_counts),
    "targeted-median": (TargetedMedianAdversary, {},
                        targeted_median_propose, targeted_median_propose_counts),
}


def _histogram(name):
    support, counts = (np.asarray(a, dtype=np.int64) for a in HISTOGRAMS[name])
    present = counts > 0
    return support, counts, support[present], counts[present]


def _palettes(present):
    return {
        "default": present,
        "wider": np.arange(-1, 10, dtype=np.int64),
        "narrower": present[:-1] if present.shape[0] > 1 else present,
    }


def _values(support, counts):
    """A shuffled value vector with exactly this (empty-bin-free) histogram."""
    return np.random.default_rng(99).permutation(np.repeat(support, counts))


def _same_corruption(a, b):
    return np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)


def _same_count_corruption(a, b):
    return (np.array_equal(a.src_values, b.src_values)
            and np.array_equal(a.dst_values, b.dst_values)
            and np.array_equal(a.amounts, b.amounts))


def _runner_up(adversary):
    return getattr(adversary, "_last_runner_up", None)


def _with_palette_bins(support, counts, palette):
    """The histogram over ``support ∪ palette``, as the occupancy engines keep it."""
    full = np.union1d(support, palette)
    full_counts = np.zeros(full.shape[0], dtype=np.int64)
    full_counts[np.searchsorted(full, support)] = counts
    return full, full_counts


@pytest.mark.parametrize("histogram", list(HISTOGRAMS))
@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_histogram_strategy_matches_reference_forms(strategy, histogram):
    cls, kwargs, ref_propose, ref_propose_counts = STRATEGIES[strategy]
    # the enforcement wrapper hands the census only to a propose declaring it
    takes_census = "census" in inspect.signature(ref_propose).parameters
    support, counts, present, loads = _histogram(histogram)
    values = _values(present, loads)
    for pname, palette in _palettes(present).items():
        full, full_counts = _with_palette_bins(support, counts, palette)
        # balancing's memory of the runner-up decides its re-seed at consensus
        primes = (None, int(palette[-1]), 99) if cls is BalancingAdversary else (None,)
        for budget, t, seed, prime, form in itertools.product(
                BUDGETS, ROUNDS, SEEDS, primes, ("census", "no census", "counts")):
            where = f"{strategy} {histogram} {pname} T={budget} t={t} s={seed} {prime} {form}"
            adversary, reference = cls(budget, **kwargs), cls(budget, **kwargs)
            if prime is not None:
                adversary._last_runner_up = reference._last_runner_up = prime
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            if form == "counts":
                got = adversary.propose_counts(full, full_counts, t, palette, rng)
                want = ref_propose_counts(reference, full, full_counts, t, palette, ref_rng)
                assert _same_count_corruption(got, want), where
            else:
                census = (present, loads) if form == "census" else None
                got = adversary.propose(values, t, palette, rng, census=census)
                extra = {"census": census} if takes_census else {}
                want = ref_propose(reference, values, t, palette, ref_rng, **extra)
                assert _same_corruption(got, want), where
            assert _runner_up(adversary) == _runner_up(reference), where
            assert rng.bit_generator.state == ref_rng.bit_generator.state, where


@pytest.mark.parametrize("histogram", list(HISTOGRAMS))
@pytest.mark.parametrize("cls,keyword", [(HidingAdversary, "hidden_value"),
                                         (StickyAdversary, "pinned_value")])
def test_pinning_strategy_matches_reference_hiding(cls, keyword, histogram):
    support, counts, present, loads = _histogram(histogram)
    values = _values(present, loads)
    for pname, palette in _palettes(present).items():
        full, full_counts = _with_palette_bins(support, counts, palette)
        for hidden in (None, int(present[0]), 99):
            for budget in BUDGETS:
                for seed in SEEDS:
                    where = f"{cls.__name__} {histogram} {pname} v={hidden} T={budget} s={seed}"
                    adversary = cls(budget, **{keyword: hidden})
                    assert getattr(adversary, keyword) == hidden
                    reference = ReferenceHiding(budget, hidden_value=hidden)
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    for t in (1, 2, 3):
                        got = adversary.propose(values, t, palette, rng)
                        want = reference.propose(values, t, palette, ref_rng)
                        assert _same_corruption(got, want), where
                        assert np.array_equal(adversary._victims, reference._victims), where
                        assert rng.bit_generator.state == ref_rng.bit_generator.state, where

                    adversary.reset()
                    reference = ReferenceHiding(budget, hidden_value=hidden)
                    for t in (1, 2, 3):
                        got = adversary.propose_counts(full, full_counts, t, palette, rng)
                        want = reference.propose_counts(full, full_counts, t, palette, ref_rng)
                        assert _same_count_corruption(got, want), where
                        assert adversary._victim_loads == reference._victim_loads, where
                        assert rng.bit_generator.state == ref_rng.bit_generator.state, where
                        # the engines report where the round's scatter took the victims
                        scattered = np.roll(reference.victim_counts(full), t)
                        adversary.observe_victim_scatter(full, scattered)
                        reference.observe_victim_scatter(full, scattered)
                        assert np.array_equal(adversary.victim_counts(full),
                                              reference.victim_counts(full)), where


def test_targeted_median_without_census_builds_no_histogram(monkeypatch):
    # after sampling, or for a direct caller, the strategy needs only the
    # median's bin: one sort, not np.unique over the whole value vector
    _, _, present, loads = _histogram("many-bins")
    values, palette = _values(present, loads), np.arange(8, dtype=np.int64)
    want = targeted_median_propose(TargetedMedianAdversary(3), values, 1, palette,
                                   np.random.default_rng(0))

    def whole_histogram(*args, **kwargs):
        raise AssertionError("np.unique called for a census-less targeted-median round")

    monkeypatch.setattr(np, "unique", whole_histogram)
    got = TargetedMedianAdversary(3).propose(values, 1, palette, np.random.default_rng(0))
    assert _same_corruption(got, want)
