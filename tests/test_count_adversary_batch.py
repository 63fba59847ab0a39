"""The count-space loop's one adversary step per round, against the per-run steps it replaced.

The occupancy round loop (``repro.engine.batch._occupancy_loop``) steps the
adversaries of all its runs in one ``Adversary.corrupt_counts`` call per
round and timing.  The reference below is the per-run form that call
replaced, written out on the test side: each selected run, in run order,
proposes through the reference ``propose_counts`` forms of
``test_adversary_decisions`` (which share no decision code with
``repro.adversary.strategies``), is enforced move by move, and is recorded
in its own ledger; sticky and hiding report and receive their victim
occupancy one run at a time.  Swapped into the same loop, the reference must
leave the same counts, consensus and stable rounds, ledgers, strategy state
and generator state as the batched step, for every strategy, timing, batch
width, palette, rule and seed.

A count outside the model (below 0 or above a run's budget) is refused by
the run's own ledger in the round it happens.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import repro.adversary.base as base_module
import repro.engine.batch as batch_module
from repro.adversary.base import Adversary, AdversaryTiming, NullAdversary
from repro.adversary.budget import BudgetLedger
from repro.adversary.strategies import (
    BalancingAdversary,
    HidingAdversary,
    RandomCorruptionAdversary,
    RevivingAdversary,
    StickyAdversary,
    SwitchingAdversary,
    TargetedMedianAdversary,
    make_adversary,
)
from repro.core.occupancy_state import OccupancyState
from repro.core.rules import get_rule
from repro.engine.batch import _occupancy_loop, run_batch_fused_occupancy
from test_adversary_decisions import (
    ReferenceHiding,
    balancing_propose_counts,
    random_propose_counts,
    reviving_propose_counts,
    switching_propose_counts,
    targeted_median_propose_counts,
)

REFERENCE_FORMS = {
    BalancingAdversary: balancing_propose_counts,
    RevivingAdversary: reviving_propose_counts,
    SwitchingAdversary: switching_propose_counts,
    RandomCorruptionAdversary: random_propose_counts,
    TargetedMedianAdversary: targeted_median_propose_counts,
}


def reference_enforce(support, counts, proposal, budget, admissible):
    """Clip a proposal to the model one move at a time; returns ``(counts, spent)``."""
    out = np.array(counts)
    spent = 0
    for src, dst, amount in zip(proposal.src_values, proposal.dst_values,
                                proposal.amounts):
        if spent >= budget or amount <= 0 or dst not in admissible:
            continue
        si = int(np.searchsorted(support, src))
        di = int(np.searchsorted(support, dst))
        if si >= support.shape[0] or support[si] != src:
            continue
        if di >= support.shape[0] or support[di] != dst:
            continue
        move = int(min(amount, budget - spent, out[si]))
        if move <= 0:
            continue
        out[si] -= move
        out[di] += move
        spent += move
    return out, spent


def reference_state(adversary):
    """A run's strategy state, outside the class under test."""
    if isinstance(adversary, StickyAdversary):
        return ReferenceHiding(adversary.budget, hidden_value=adversary.pinned_value)
    return SimpleNamespace(budget=adversary.budget, _last_runner_up=None,
                           delay=getattr(adversary, "delay", 0),
                           target_value=getattr(adversary, "target_value", None))


class ReferenceBatch:
    """The per-run adversary steps, behind the loop's batch interface."""

    def __init__(self, adversaries, admissibles, support):
        self.adversaries = adversaries
        self.admissibles = admissibles
        self.states = [reference_state(adv) for adv in adversaries]
        self.ledgers = [BudgetLedger(budget=adv.budget) for adv in adversaries]
        self.runs = None
        self.tracked = []

    def select(self, runs):
        self.runs = runs
        return None

    def corrupt_counts(self, support, counts, round_index, _palettes, rng):
        out = np.array(counts)
        for j, r in enumerate(self.runs):
            state, admissible = self.states[r], self.admissibles[r]
            if state.budget == 0 or admissible.shape[0] == 0:
                self.ledgers[r].record(round_index, 0)
                continue
            if isinstance(state, ReferenceHiding):
                proposal = state.propose_counts(support, out[j], round_index, admissible, rng)
            else:
                form = REFERENCE_FORMS[type(self.adversaries[r])]
                proposal = form(state, support, out[j], round_index, admissible, rng)
            out[j], spent = reference_enforce(support, out[j], proposal, state.budget,
                                              admissible)
            self.ledgers[r].record(round_index, spent)
        return out

    def victim_rows(self, support, runs):
        block, self.tracked = None, []
        for j, r in enumerate(runs):
            state = self.states[r]
            counts = state.victim_counts(support) \
                if isinstance(state, ReferenceHiding) and state.budget > 0 else None
            if counts is not None:
                if block is None:
                    block = np.zeros((runs.shape[0], support.shape[0]), dtype=np.int64)
                block[j] = counts
                self.tracked.append((j, r))
        return block

    def observe_victim_rows(self, support, runs, block):
        for j, r in self.tracked:
            self.states[r].observe_victim_scatter(support, block[j])

    def write_back(self, support):
        pass


STRATEGIES = {
    "balancing": lambda timing: BalancingAdversary(4, timing=timing),
    "reviving": lambda timing: RevivingAdversary(4, delay=2, timing=timing),
    "switching": lambda timing: SwitchingAdversary(4, timing=timing),
    "random": lambda timing: RandomCorruptionAdversary(4, timing=timing),
    "targeted-median": lambda timing: TargetedMedianAdversary(4, timing=timing),
    "sticky": lambda timing: StickyAdversary(4, timing=timing),
    "hiding": lambda timing: HidingAdversary(4, hidden_value=1, timing=timing),
}
N = 120
VALUES = np.arange(6, dtype=np.int64)


def _initial(R, seed):
    """``R`` runs over ``VALUES`` with their own, partly empty, occupancies."""
    gen = np.random.default_rng(1000 + seed)
    counts = np.stack([gen.multinomial(N, gen.dirichlet(np.ones(VALUES.shape[0])))
                       for _ in range(R)])
    counts[:, gen.integers(0, VALUES.shape[0])] = 0
    counts[:, 0] += N - counts.sum(axis=1)
    return counts


def _palettes(counts, wider):
    own = [VALUES[row > 0] for row in counts]
    if not wider:
        return VALUES, own
    extra = np.array([-1, 9], dtype=np.int64)
    return np.union1d(VALUES, extra), [np.union1d(p, extra) for p in own]


def _run(counts, support, palettes, rule, adversaries, seed, reference):
    built = []
    batched = batch_module._CountBatch

    def build(*args):
        built.append((ReferenceBatch if reference else batched)(*args))
        return built[-1]

    rng = np.random.default_rng(seed)
    full = np.zeros((counts.shape[0], support.shape[0]), dtype=np.int64)
    full[:, np.searchsorted(support, VALUES)] = counts
    batch_module._CountBatch = build
    try:
        out = _occupancy_loop(full, support, get_rule(rule), adversaries, palettes, rng, 40)
    finally:
        batch_module._CountBatch = batched
    if reference:
        ledgers = [ledger.per_round for ledger in built[0].ledgers]
        states = [_state_view(state) for state in built[0].states]
    else:
        ledgers = [adv.ledger.per_round for adv in adversaries]
        states = [_state_view(adv) for adv in adversaries]
    return {"counts": out.counts.tolist(), "consensus": out.consensus_round.tolist(),
            "stable": out.stable_round.tolist(), "ledgers": ledgers, "states": states,
            "rng": rng.bit_generator.state}


def _state_view(state):
    return {"runner_up": getattr(state, "_last_runner_up", None),
            "victims": getattr(state, "_victim_loads", None)}


def _compare(make, R, wider, rule, seed):
    """Run ``R`` runs with adversaries ``make(r)`` batched and per run; compare."""
    counts = _initial(R, seed)
    support, palettes = _palettes(counts, wider)
    got = _run(counts, support, palettes, rule, [make(r) for r in range(R)], seed, False)
    want = _run(counts, support, palettes, rule, [make(r) for r in range(R)], seed, True)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("timing", list(AdversaryTiming), ids=lambda t: t.value)
@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_batched_step_matches_per_run_reference(strategy, timing):
    for R, wider, rule, seed in itertools.product((1, 3, 17), (False, True),
                                                  ("median", "three-majority"), (0, 1)):
        _compare(lambda r: STRATEGIES[strategy](timing), R, wider, rule, seed)


@pytest.mark.parametrize("make", [
    lambda r: HidingAdversary(3) if r % 2 == 0 else BalancingAdversary(3),
    lambda r: NullAdversary() if r % 2 == 0 else BalancingAdversary(4),
    # different budgets and both timings, one class or several: the runs
    # stabilise and retire in different rounds
    lambda r: BalancingAdversary((1, 3, 0, 5, 2, 8)[r % 6],
                                 timing=list(AdversaryTiming)[r % 2]),
    lambda r: make_adversary(("balancing", "sticky", "random", "null", "switching")[r % 5],
                             budget=(2, 4, 1, 0, 3)[r % 5],
                             timing=list(AdversaryTiming)[r % 3 % 2]),
], ids=["mixed-class", "mixed-budget", "mixed-budget-timing", "mixed-all"])
@pytest.mark.parametrize("seed", (0, 1))
def test_mixed_batches_match_per_run_reference(make, seed):
    for R, wider in itertools.product((3, 17), (False, True)):
        _compare(make, R, wider, "median", seed)


def test_one_adversary_call_per_round(monkeypatch):
    calls = []
    step = Adversary.corrupt_counts

    def counted(self, *args, **kwargs):
        calls.append(type(self))
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Adversary, "corrupt_counts", counted)
    res = run_batch_fused_occupancy(
        OccupancyState.from_loads({0: 6000, 1: 4000}), 64,
        adversary_factory=lambda: make_adversary("sticky", budget=20), seed=5,
        max_rounds=40)
    assert res.meta["rounds_executed"] > 1
    assert len(calls) == res.meta["rounds_executed"]


@pytest.mark.parametrize("bad", ["negative", "over-budget"])
def test_a_count_outside_the_model_raises_in_its_round(monkeypatch, bad):
    """An enforcement returning a count below 0 or above a run's budget is
    refused in the round it happens, by the run's own ledger."""
    enforce = base_module._enforce_rows
    calls = []

    def tampered(support, block, moves, budgets, palette):
        spent = enforce(support, block, moves, budgets, palette)
        calls.append(None)
        if len(calls) == 3:   # every run acts before sampling: round 3
            spent[1] = -1 if bad == "negative" else budgets[1] + 1
        return spent

    monkeypatch.setattr(base_module, "_enforce_rows", tampered)
    adversaries = [BalancingAdversary(4) for _ in range(4)]
    counts = np.tile([60, 60], (4, 1))
    support = np.arange(2, dtype=np.int64)
    with pytest.raises(ValueError, match="^round 3: ") as raised:
        _occupancy_loop(counts, support, get_rule("median"), adversaries,
                        [support] * 4, np.random.default_rng(0), 10)
    assert ("negative" if bad == "negative" else "exceeding budget 4") in str(raised.value)
    # the rows before the refused one were recorded, the rest were not
    assert [3 in adv.ledger.per_round for adv in adversaries] == [True, False, False, False]
    assert all(max(adv.ledger.per_round) <= 3 for adv in adversaries)
