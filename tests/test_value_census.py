"""The value-space round loop's census against the per-round bookkeeping it replaced.

``engine/vectorized.py::_value_loop`` takes one histogram (census) of the
values per round and reads the consensus latch, the almost-stable streak,
the final plurality and the before-sampling adversary's input off it.  The
reference here recomputes each of those the way the loop did before the
census existed — ``is_consensus``, ``minority_count``, a plurality from
``np.unique``, and an enforcement wrapper whose strategies sort the values
themselves — sharing no code with the census, and the two must agree bit
for bit, the generator's final state included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.adversary.base import AdversaryTiming
from repro.adversary.strategies import make_adversary
from repro.core.consensus import AlmostStableCriterion, is_consensus
from repro.core.metrics import minority_count
from repro.core.rules import get_rule
from repro.core.state import Configuration
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import _census_of, _unique_census, simulate
from repro.network.simulator import NetworkSimulator

# --------------------------------------------------------------------------- #
# reference: the bookkeeping before the census
# --------------------------------------------------------------------------- #


def _reference_corrupt(adversary, values, t, admissible_values, rng):
    """Enforcement as before: the palette, membership and de-duplication
    each sorted per call, and a strategy that computes its own histogram."""
    values = np.asarray(values, dtype=np.int64)
    admissible = np.unique(np.asarray(admissible_values, dtype=np.int64))
    if adversary.budget == 0 or admissible.shape[0] == 0:
        adversary.ledger.record(t, 0)
        return np.array(values)
    proposal = adversary.propose(values, t, admissible, rng)
    idx, val = proposal.indices, proposal.values
    if idx.shape[0]:
        keep = (idx >= 0) & (idx < values.shape[0]) & np.isin(val, admissible)
        idx, val = idx[keep], val[keep]
        _, first = np.unique(idx, return_index=True)
        first.sort()
        idx, val = idx[first][: adversary.budget], val[first][: adversary.budget]
    out = np.array(values)
    out[idx] = val
    adversary.ledger.record(t, int(idx.shape[0]))
    return out


def _reference_loop(values, step, adversary, *, max_rounds, criterion,
                    stop_at_consensus=True, stop_when_stable=True):
    if criterion is None:
        criterion = AlmostStableCriterion(
            tolerance=4 * adversary.budget, window=10 if adversary.budget > 0 else 1)
    adversary.reset()
    consensus = (True, 0, int(values[0])) if is_consensus(values) else (False, None, None)
    streak = 1 if minority_count(values) <= criterion.tolerance else 0
    first_stable: Optional[int] = 0 if streak else None
    rounds = 0
    for t in range(1, max_rounds + 1):
        values = step(values, t)
        rounds = t
        if not consensus[0] and is_consensus(values):
            consensus = (True, t, int(values[0]))
        if minority_count(values) <= criterion.tolerance:
            if streak == 0:
                first_stable = t
            streak += 1
        else:
            streak, first_stable = 0, None
        if stop_at_consensus and consensus[0] and adversary.budget == 0:
            break
        if stop_when_stable and adversary.budget > 0 and streak >= criterion.window:
            break
    almost = (False, None, None)
    if first_stable is not None and streak >= criterion.window:
        uniq, counts = np.unique(values, return_counts=True)
        almost = (True, first_stable, int(uniq[int(np.argmax(counts))]))
    return {"rounds": rounds, "consensus": consensus, "almost": almost,
            "final": np.asarray(values, dtype=np.int64).tolist(),
            "ledger_total": adversary.ledger.total,
            "ledger_ok": adversary.ledger.verify()}


def _reference_simulate(cfg, rule, adversary, *, seed, max_rounds, criterion,
                        admissible_values=None):
    rng = np.random.default_rng(seed)
    admissible = np.asarray(
        cfg.support if admissible_values is None else admissible_values, dtype=np.int64)
    timing = adversary.timing if adversary.budget > 0 else None

    def step(values, t):
        if timing is AdversaryTiming.BEFORE_SAMPLING:
            values = _reference_corrupt(adversary, values, t, admissible, rng)
        values = rule.apply_vectorized(values, rule.sample_contacts(cfg.n, rng), rng)
        if timing is AdversaryTiming.AFTER_SAMPLING:
            values = _reference_corrupt(adversary, values, t, admissible, rng)
        return values

    out = _reference_loop(cfg.copy_values(), step, adversary,
                          max_rounds=max_rounds, criterion=criterion)
    out["rng"] = rng.bit_generator.state
    return out


def _observed(result, rng):
    return {"rounds": result.rounds_executed,
            "consensus": (result.consensus.reached, result.consensus.round,
                          result.consensus.value),
            "almost": (result.almost_stable.reached, result.almost_stable.round,
                       result.almost_stable.value),
            "final": result.final.values.tolist(),
            "ledger_total": result.meta["budget_ledger_total"],
            "ledger_ok": result.meta["budget_ledger_ok"],
            "rng": rng.bit_generator.state}


# --------------------------------------------------------------------------- #
# the grid
# --------------------------------------------------------------------------- #

RULES = [("median", {}), ("median-k", {"k": 4}), ("voter", {}), ("minimum", {}),
         ("three-majority", {}), ("mean", {})]
ADVERSARIES = [("null", None)] + [
    (name, timing)
    for name in ("balancing", "targeted-median", "reviving", "sticky", "random")
    for timing in AdversaryTiming]

#: (label, initial configuration, admissible palette or None)
INITIAL_STATES = [
    ("two-bins", Configuration.two_bins(48, 18), None),
    ("blocks", Configuration.from_values(np.repeat(np.arange(6) * 2, 8)), None),
    ("all-distinct", Configuration.all_distinct(40), None),
    # a range no bounded bincount should hold: the census falls back
    ("wide-range", Configuration.from_values(np.tile([0, 10**12], 20)), None),
    # the adversary may write values outside the initial range
    ("palette-outside", Configuration.from_values(np.repeat([3, 4, 5], 12)),
     np.array([-4, 3, 4, 5, 30])),
]
CRITERIA = [None, AlmostStableCriterion(tolerance=3, window=4)]


@pytest.mark.parametrize("adversary_name,timing", ADVERSARIES,
                         ids=[f"{a}-{t.value if t else 'none'}" for a, t in ADVERSARIES])
@pytest.mark.parametrize("rule_name,rule_params", RULES, ids=[r for r, _ in RULES])
def test_simulate_matches_reference_bookkeeping(rule_name, rule_params,
                                                adversary_name, timing):
    for label, cfg, palette in INITIAL_STATES:
        for criterion in CRITERIA:
            for seed in (0, 1):
                def fresh():
                    if timing is None:
                        return make_adversary("null")
                    return make_adversary(adversary_name, budget=3, timing=timing)

                rng = np.random.default_rng(seed)
                result = simulate(cfg, get_rule(rule_name, **rule_params), fresh(),
                                  seed=rng, max_rounds=30, criterion=criterion,
                                  admissible_values=palette, record=RecordLevel.NONE)
                expected = _reference_simulate(
                    cfg, get_rule(rule_name, **rule_params), fresh(), seed=seed,
                    max_rounds=30, criterion=criterion, admissible_values=palette)
                assert _observed(result, rng) == expected, (label, criterion, seed)


@pytest.mark.parametrize("rule_name", ["median", "voter"])
@pytest.mark.parametrize("adversary_name,timing", [
    ("null", None),
    ("balancing", AdversaryTiming.BEFORE_SAMPLING),
    ("balancing", AdversaryTiming.AFTER_SAMPLING),
    ("targeted-median", AdversaryTiming.BEFORE_SAMPLING),
])
def test_network_run_matches_reference_bookkeeping(rule_name, adversary_name, timing):
    for cfg in (Configuration.two_bins(24, 9),
                Configuration.from_values(np.repeat(np.arange(4), 6))):
        for seed in (0, 1):
            def fresh():
                adversary = None if timing is None else \
                    make_adversary(adversary_name, budget=2, timing=timing)
                return NetworkSimulator(cfg, get_rule(rule_name), adversary, seed=seed)

            sim = fresh()
            result = sim.run(max_rounds=25)
            # the reference drives the public step(), which hands the
            # adversary no census: strategies sort the values themselves
            ref = fresh()
            expected = _reference_loop(ref.values(), lambda values, t: ref.step(),
                                       ref.adversary, max_rounds=25, criterion=None)
            observed = _observed(result, sim.rng)
            assert observed.pop("rng") == ref.rng.bit_generator.state
            assert observed == expected
            assert result.meta["messages"] == ref.message_stats.as_dict()


# --------------------------------------------------------------------------- #
# the census itself
# --------------------------------------------------------------------------- #


def _assert_is_unique(census, values):
    support, counts = census
    uniq, ucounts = np.unique(values, return_counts=True)
    assert support.dtype == uniq.dtype and counts.dtype == ucounts.dtype
    assert np.array_equal(support, uniq) and np.array_equal(counts, ucounts)


class TestCensus:
    def test_bincount_census_equals_np_unique(self):
        rng = np.random.default_rng(5)
        start = rng.integers(-7, 20, size=200)
        census = _census_of(start, np.array([-9, 0, 25]), get_rule("median"))
        assert census is not _unique_census
        for _ in range(20):
            values = rng.choice(np.arange(-9, 26), size=200)
            _assert_is_unique(census(values), values)
        _assert_is_unique(census(np.full(200, 25)), np.full(200, 25))

    def test_values_leaving_the_range_fall_back(self):
        for lo in (0, 5):
            census = _census_of(np.arange(lo, lo + 10), np.array([lo, lo + 9]),
                                get_rule("median"))
            assert census is not _unique_census
            for values in (np.array([lo, 3, 10**15]), np.array([lo - 1, lo + 4, lo + 4]),
                           np.array([-(2**63), lo]), np.array([2**63 - 1, lo]),
                           np.arange(lo, lo + 10, dtype=np.int32)):
                _assert_is_unique(census(values), values)

    def test_value_creating_rule_and_wide_range_use_np_unique(self):
        narrow = np.arange(8)
        assert _census_of(narrow, narrow, get_rule("mean")) is _unique_census
        wide = np.array([0, 5 * 8])
        assert _census_of(np.tile(wide, 4), wide, get_rule("median")) is _unique_census


class TestCensusOptIn:
    class Recorder:
        """Mixin: remember what census each round handed the strategy."""

        def propose(self, values, round_index, admissible_values, rng, census=None):
            self.handed.append(census)
            if census is not None:
                _assert_is_unique(census, values)
            return super().propose(values, round_index, admissible_values, rng)

    def _recording(self, timing):
        from repro.adversary.strategies import RevivingAdversary

        class RecordingReviver(self.Recorder, RevivingAdversary):
            pass

        adversary = RecordingReviver(budget=2, timing=timing)
        adversary.handed = []
        return adversary

    def test_before_sampling_strategy_receives_the_census(self):
        adversary = self._recording(AdversaryTiming.BEFORE_SAMPLING)
        result = simulate(Configuration.from_values(np.repeat(np.arange(4), 10)),
                          adversary=adversary, seed=3, max_rounds=15)
        assert len(adversary.handed) == result.rounds_executed
        assert all(census is not None for census in adversary.handed)

    def test_after_sampling_strategy_and_direct_callers_get_none(self):
        adversary = self._recording(AdversaryTiming.AFTER_SAMPLING)
        simulate(Configuration.from_values(np.repeat(np.arange(4), 10)),
                 adversary=adversary, seed=3, max_rounds=15)
        adversary.corrupt(np.zeros(5, dtype=np.int64), 1, np.array([0, 1]),
                          np.random.default_rng(0))
        assert adversary.handed and all(census is None for census in adversary.handed)

    def test_network_before_sampling_strategy_receives_the_census(self):
        adversary = self._recording(AdversaryTiming.BEFORE_SAMPLING)
        sim = NetworkSimulator(Configuration.two_bins(20, 8), adversary=adversary, seed=1)
        sim.step()                       # the public round has no census
        result = sim.run(max_rounds=6)   # the loop hands its own to every round
        assert adversary.handed[0] is None
        assert len(adversary.handed) == 1 + result.rounds_executed
        assert all(census is not None for census in adversary.handed[1:])
