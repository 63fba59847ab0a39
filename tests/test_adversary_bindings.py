"""What an adversary binds once per run, and what it still checks every round.

The engines hand an adversary one palette array per run and reset it when a
run starts.  The adversary normalises that palette once and keeps its
strategy state as one row of the row form, so a value-space round neither
re-sorts the palette nor stacks and restores the state; the count-space
batch sets up the facts of its stepped runs once per live set.  None of
that may loosen the model: every round is still clipped to the budget and
the palette, a ledger entry above its ledger's budget still raises in its
round, a new palette array is honoured, and custom strategies run as before.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.adversary.base as base_module
from repro.adversary.base import Adversary, AdversaryTiming, Corruption, CountCorruption
from repro.adversary.budget import BudgetLedger
from repro.adversary.strategies import (
    BalancingAdversary,
    RandomCorruptionAdversary,
    StickyAdversary,
    SwitchingAdversary,
    make_adversary,
)
from repro.core.occupancy_state import OccupancyState
from repro.core.rules import get_rule
from repro.core.state import Configuration
from repro.engine.batch import _occupancy_loop, run_batch_fused_occupancy
from repro.engine.occupancy import simulate_occupancy
from repro.engine.vectorized import simulate
from repro.network.simulator import NetworkSimulator

BLOCKS = Configuration.from_values(np.repeat(np.arange(4), (300, 250, 150, 100)))


class _Counter:
    """Wraps ``owner.name`` and counts its calls."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


# ---------------------------------------------------------------------- #
# (a) setup once per run, once per live set
# ---------------------------------------------------------------------- #
def test_value_run_normalises_palette_and_builds_state_once(monkeypatch):
    palettes = _Counter(monkeypatch, base_module._Palette, "of")
    fresh = _Counter(monkeypatch, BalancingAdversary, "_fresh_row")
    stacks = _Counter(monkeypatch, Adversary, "_state_of")
    restores = _Counter(monkeypatch, Adversary, "_restore")
    adversary = BalancingAdversary(12)
    result = simulate(BLOCKS, adversary=adversary, seed=3, max_rounds=200,
                      run_to_horizon=True)
    assert result.rounds_executed == 200
    assert len(adversary.ledger.per_round) == 200
    assert palettes.calls == 1
    assert fresh.calls == 1
    assert stacks.calls == 0 and restores.calls == 0


def test_fused_loop_sets_up_once_per_live_set(monkeypatch):
    setups = []
    select = base_module._CountBatch.select

    def watched(self, runs):
        out = select(self, runs)
        if not setups or setups[-1] is not self._setup:
            setups.append(self._setup)
        return out

    monkeypatch.setattr(base_module._CountBatch, "select", watched)
    live_sizes = []

    def observe(t, support, counts):
        if t > 0:
            live_sizes.append(counts.shape[0])

    R = 12
    budgets = [4 + 3 * (r % 5) for r in range(R)]
    adversaries = [BalancingAdversary(b) for b in budgets]
    counts = np.tile([520, 480], (R, 1))
    support = np.arange(2, dtype=np.int64)
    out = _occupancy_loop(counts, support, get_rule("median"), adversaries, [support] * R,
                          np.random.default_rng(5), 300, observe=observe)
    sets = len(set(live_sizes))
    assert sets > 2, "the runs should retire in several rounds"
    assert len(setups) == sets
    assert out.rounds_executed == len(live_sizes)


# ---------------------------------------------------------------------- #
# (b) a new palette array is honoured
# ---------------------------------------------------------------------- #
def _writes(monkeypatch):
    """Record every value ``Adversary.corrupt`` writes."""
    written = []
    corrupt = Adversary.corrupt

    def recorded(self, values, *args, **kwargs):
        out = corrupt(self, values, *args, **kwargs)
        written.append(out[out != np.asarray(values)])
        return out

    monkeypatch.setattr(Adversary, "corrupt", recorded)
    return written


@pytest.mark.parametrize("make", [lambda: RandomCorruptionAdversary(6),
                                  lambda: SwitchingAdversary(6)])
def test_reused_adversary_writes_the_second_palette_through_simulate(monkeypatch, make):
    written = _writes(monkeypatch)
    adversary = make()
    simulate(BLOCKS, adversary=adversary, seed=1, max_rounds=20, run_to_horizon=True,
             admissible_values=np.array([0, 1]))
    first = np.concatenate(written)
    assert set(first.tolist()) <= {0, 1} and first.size
    del written[:]
    simulate(BLOCKS, adversary=adversary, seed=1, max_rounds=20, run_to_horizon=True,
             admissible_values=np.array([2, 3]))
    second = np.concatenate(written)
    assert set(second.tolist()) <= {2, 3} and second.size


def test_reused_adversary_writes_the_second_palette_through_the_network(monkeypatch):
    written = _writes(monkeypatch)
    adversary = SwitchingAdversary(3)
    NetworkSimulator(np.repeat([0, 1], 20), adversary=adversary, seed=2).run(max_rounds=8)
    assert set(np.concatenate(written).tolist()) <= {0, 1}
    del written[:]
    NetworkSimulator(np.repeat([5, 7], 20), adversary=adversary, seed=2).run(max_rounds=8)
    second = np.concatenate(written)
    assert set(second.tolist()) <= {5, 7} and second.size


# ---------------------------------------------------------------------- #
# (c) a direct call still normalises its palette
# ---------------------------------------------------------------------- #
class _Scripted(Adversary):
    """Proposes fixed writes and keeps the palettes it was shown."""

    def __init__(self, budget, indices, values):
        super().__init__(budget=budget)
        self.indices, self.values, self.seen = indices, values, []

    def propose(self, values, round_index, admissible_values, rng):
        self.seen.append(np.array(admissible_values))
        return Corruption(indices=np.array(self.indices), values=np.array(self.values))


def test_direct_call_normalises_an_unsorted_palette_each_time_it_is_new():
    rng = np.random.default_rng(0)
    adversary = _Scripted(4, [0, 1, 2, 3], [9, 7, 5, 1])
    palette = np.array([9, 5, 5, 1, 9])
    for t in (1, 2):   # the same array twice: bound on the first call
        out = adversary.corrupt(np.zeros(6, dtype=np.int64), t, palette, rng)
        assert out.tolist() == [9, 0, 5, 1, 0, 0]
    out = adversary.corrupt(np.zeros(6, dtype=np.int64), 3, np.array([7, 7]), rng)
    assert out.tolist() == [0, 7, 0, 0, 0, 0]
    assert [p.tolist() for p in adversary.seen] == [[1, 5, 9], [1, 5, 9], [7]]
    # a histogram strategy reads the normalised palette's extremes
    switching = SwitchingAdversary(2)
    out = switching.corrupt(np.full(5, 5, dtype=np.int64), 1, np.array([9, 5, 5, 1]), rng)
    assert sorted(set(out.tolist()) - {5}) == [9]


# ---------------------------------------------------------------------- #
# (d) the model is enforced every round, in both spaces
# ---------------------------------------------------------------------- #
class _Greedy(Adversary):
    """Every round, proposes every process twice over, to values outside the
    palette (99, which has no bin, and 3, which has one) and to one in it."""

    def propose(self, values, round_index, admissible_values, rng):
        idx = np.concatenate([np.arange(values.shape[0])[::-1]] * 2)
        vals = np.array([99, 3, admissible_values[-1]])[np.arange(idx.shape[0]) % 3]
        return Corruption(indices=np.concatenate([[-1, values.shape[0]], idx]),
                          values=np.concatenate([[0, 0], vals]))

    def propose_counts(self, support, counts, round_index, admissible_values, rng):
        # out of every bin: into each value outside the palette, then into one in it
        dst = np.append(np.setdiff1d(np.append(support, 99), admissible_values),
                        admissible_values[-1])
        return CountCorruption(src_values=support.repeat(dst.shape[0]),
                               dst_values=np.tile(dst, support.shape[0]),
                               amounts=np.full(support.shape[0] * dst.shape[0],
                                               int(counts.sum())))


def _count_steps(monkeypatch):
    """Record every count-space step's support, counts in and counts out."""
    steps = []
    corrupt_counts = Adversary.corrupt_counts

    def watched(self, support, counts, *args, **kwargs):
        out = corrupt_counts(self, support, counts, *args, **kwargs)
        steps.append((np.asarray(support), np.asarray(counts).reshape(out.shape), out))
        return out

    monkeypatch.setattr(Adversary, "corrupt_counts", watched)
    return steps


@pytest.mark.parametrize("engine", ["vectorized", "occupancy"])
def test_every_round_is_clipped_to_the_budget_and_palette(monkeypatch, engine):
    seen = _writes(monkeypatch)
    steps = _count_steps(monkeypatch)
    adversary = _Greedy(5)
    simulator = simulate if engine == "vectorized" else simulate_occupancy
    result = simulator(BLOCKS, adversary=adversary, seed=0, max_rounds=25,
                       run_to_horizon=True, admissible_values=np.array([0, 1, 2]))
    assert result.rounds_executed == 25
    assert sorted(adversary.ledger.per_round) == list(range(1, 26))
    assert set(adversary.ledger.per_round.values()) == {5}
    assert len(seen if engine == "vectorized" else steps) == 25
    for written in seen:         # value space: five writes, all admissible
        assert written.shape[0] <= 5 and set(written.tolist()) <= {0, 1, 2}
    for support, before, after in steps:   # count space: bin 3 never gains
        moved = np.maximum(before - after, 0).sum(axis=1)
        assert (moved <= 5).all() and (after[:, support == 3] <= before[:, support == 3]).all()


def test_fused_rows_are_clipped_to_their_own_palettes(monkeypatch):
    steps = _count_steps(monkeypatch)
    support = np.arange(4, dtype=np.int64)
    palettes = [np.array(p) for p in ([0, 1, 2], [1, 2, 3], [0, 3], [0, 1, 2, 3])]
    adversaries = [_Greedy(5) for _ in palettes]
    counts = np.tile([300, 250, 150, 100], (len(palettes), 1))     # BLOCKS' loads
    out = _occupancy_loop(counts, support, get_rule("median"), adversaries, palettes,
                          np.random.default_rng(7), 25, run_to_horizon=True)
    assert out.rounds_executed == 25 and len(steps) == 25
    outside = np.array([~np.isin(support, p) for p in palettes])
    for _, before, after in steps:   # one row per run, in run order
        assert not ((after > before) & outside).any()
        assert (np.maximum(before - after, 0).sum(axis=1) <= 5).all()
    for adversary in adversaries:
        assert adversary.ledger.per_round == {t: 5 for t in range(1, 26)}


class _ShortLedger(BalancingAdversary):
    """Its ledger believes the budget is one less than the enforcement's."""

    def reset(self):
        super().reset()
        self.ledger = BudgetLedger(budget=self.budget - 1)


@pytest.mark.parametrize("engine", ["vectorized", "occupancy", "fused"])
def test_ledger_entry_above_its_ledgers_budget_raises_in_its_round(engine):
    # balancing moves min(4, ceil(50 / 2)) = 4 processes in round 1
    with pytest.raises(ValueError, match="^round 1: recorded 4 corruptions exceeding budget 3"):
        if engine == "fused":
            run_batch_fused_occupancy(OccupancyState.from_configuration(BLOCKS), 3,
                                      adversary_factory=lambda: _ShortLedger(4), seed=0,
                                      max_rounds=10)
        else:
            simulator = simulate if engine == "vectorized" else simulate_occupancy
            simulator(BLOCKS, adversary=_ShortLedger(4), seed=0, max_rounds=10)


def test_count_ledger_entry_above_budget_raises_in_its_round(monkeypatch):
    enforce = base_module._enforce_rows
    calls = []

    def tampered(support, block, moves, budgets, allowed):
        spent = enforce(support, block, moves, budgets, allowed)
        calls.append(None)
        if len(calls) == 4:
            spent[0] = budgets[0] + 1
        return spent

    monkeypatch.setattr(base_module, "_enforce_rows", tampered)
    adversary = BalancingAdversary(6)
    with pytest.raises(ValueError, match="^round 4: .*exceeding budget 6"):
        simulate_occupancy(BLOCKS, adversary=adversary, seed=0, max_rounds=10)
    assert sorted(adversary.ledger.per_round) == [1, 2, 3]


# ---------------------------------------------------------------------- #
# (e) custom strategies run as before
# ---------------------------------------------------------------------- #
class LeaderThief(Adversary):
    """README's census-reading strategy: move leaders to the next admissible value."""

    def __init__(self, budget, **kwargs):
        super().__init__(budget, **kwargs)
        self.censuses = []

    def propose(self, values, round_index, admissible_values, rng, census=None):
        self.censuses.append(census)
        support, counts = np.unique(values, return_counts=True) if census is None else census
        leader = support[np.argmax(counts)]
        others = admissible_values[admissible_values != leader]
        victims = np.flatnonzero(values == leader)[: self.budget]
        return Corruption(indices=victims, values=np.full(victims.shape[0], others[0]))


@pytest.mark.parametrize("timing", list(AdversaryTiming), ids=lambda t: t.value)
def test_census_reading_custom_strategy(timing):
    adversary = LeaderThief(4, timing=timing)
    result = simulate(BLOCKS, adversary=adversary, seed=4, max_rounds=15, run_to_horizon=True)
    assert result.meta["budget_ledger_ok"] and adversary.ledger.total == 4 * 15
    given = [c is not None for c in adversary.censuses]
    assert all(given) if timing is AdversaryTiming.BEFORE_SAMPLING else not any(given)
    out = adversary.corrupt(BLOCKS.values, 16, BLOCKS.support, np.random.default_rng(0))
    assert adversary.censuses[-1] is None and (out != BLOCKS.values).sum() == 4


def test_four_argument_propose_and_a_propose_counts_override():
    class Mover(Adversary):
        def propose(self, values, round_index, admissible_values, rng):
            victims = np.flatnonzero(values == admissible_values[0])[:3]
            return Corruption(indices=victims, values=np.full(victims.shape[0],
                                                              admissible_values[-1]))

        def propose_counts(self, support, counts, round_index, admissible_values, rng):
            return CountCorruption(src_values=[admissible_values[0]],
                                   dst_values=[admissible_values[-1]], amounts=[3])

    for simulator in (simulate, simulate_occupancy):
        adversary = Mover(3)
        result = simulator(BLOCKS, adversary=adversary, seed=0, max_rounds=12,
                           run_to_horizon=True)
        assert result.meta["budget_ledger_ok"]
        assert sorted(adversary.ledger.per_round) == list(range(1, 13))
    made = []

    def factory():
        made.append(Mover(3))
        return made[-1]

    run_batch_fused_occupancy(OccupancyState.from_configuration(BLOCKS), 3,
                              adversary_factory=factory, seed=0, max_rounds=12)
    assert all(sorted(adv.ledger.per_round) == list(range(1, len(adv.ledger.per_round) + 1))
               and adv.ledger.per_round for adv in made)


def test_fused_batch_mixing_classes():
    made = []

    def factory():
        name = ("balancing", "sticky", "switching", "null")[len(made) % 4]
        made.append(make_adversary(name, budget=5))
        return made[-1]

    result = run_batch_fused_occupancy(OccupancyState.from_configuration(BLOCKS), 8,
                                       adversary_factory=factory, seed=2, max_rounds=60)
    assert result.meta["budget_ledger_ok"]
    for adv in made:
        rounds = sorted(adv.ledger.per_round)
        assert rounds == (list(range(1, len(rounds) + 1)) if adv.budget else [])
        assert all(0 <= c <= 5 for c in adv.ledger.per_round.values())
    assert all(adv._victim_loads is not None for adv in made if isinstance(adv, StickyAdversary))
