"""Differential tests: the occupancy engines and the network simulator are
pinned to the vectorized engine.

The occupancy engines claim *statistical exactness*: for any initial
configuration, rule and (count-expressible) adversary, the distribution of
every occupancy-measurable statistic is identical to the vectorized engine's.
The machinery — paired-run mean/variance/KS checks over convergence rounds,
mean minority trajectories, and one-round exact-flow (L1/TV) checks — lives
in :mod:`equivalence` so every kernel is certified by the same harness; this
module declares the scenario grid:

* the median family (MedianRule, BestOfKMedianRule) with and without a
  balancing adversary, at n ∈ {100, 1000} — the original coverage;
* the majority family (three-majority, two-choices-majority) and the
  identity-tracking adversaries (sticky, hiding, in their exact
  victim-occupancy count form), crossed over ``engine="occupancy"`` *and*
  ``engine="occupancy-fused"`` — the scenarios the paper contrasts against
  the median rule, previously forced onto the O(n) vectorized path;
* the agent-level network simulator (``engine="network"`` in the harness,
  request cap n·k so nothing is dropped), median rule with and without a
  balancing adversary at n = 64.

Seeds are fixed, so these tests are deterministic; the tolerances are sized
so a correct implementation passes with wide margin while an off-by-one in a
transition CDF (e.g. using ``F_a`` where ``F_{a-1}`` belongs) fails
immediately.
"""

from __future__ import annotations

import contextlib

import pytest

from equivalence import (
    EquivalenceScenario,
    assert_means_close,
    assert_one_round_flows_match,
    assert_rounds_equivalent,
    collect_convergence_rounds,
    collect_minority_trajectories,
)
from repro.adversary.strategies import (
    BalancingAdversary,
    HidingAdversary,
    StickyAdversary,
)
from repro.core.baseline_rules import TwoChoicesMajorityRule, TwoChoicesRule
from repro.core.median_rule import BestOfKMedianRule, MedianRule

RUNS = 200
TRAJ_ROUNDS = 12


def _balancing(budget):
    return lambda: BalancingAdversary(budget=budget)


def _sticky(budget):
    return lambda: StickyAdversary(budget=budget)


def _hiding(budget):
    return lambda: HidingAdversary(budget=budget)


#: The original median-family grid (vectorized vs looped occupancy).
MEDIAN_SCENARIOS = [
    EquivalenceScenario("median/n=100/noadv", 100, 4, MedianRule),
    EquivalenceScenario("median/n=100/adv", 100, 4, MedianRule, _balancing(2)),
    EquivalenceScenario("median-k3/n=100/noadv", 100, 4,
                        lambda: BestOfKMedianRule(k=3)),
    EquivalenceScenario("median-k3/n=100/adv", 100, 4,
                        lambda: BestOfKMedianRule(k=3), _balancing(2)),
    EquivalenceScenario("median/n=1000/noadv", 1000, 8, MedianRule),
    EquivalenceScenario("median/n=1000/adv", 1000, 8, MedianRule, _balancing(6)),
    EquivalenceScenario("median-k3/n=1000/noadv", 1000, 8,
                        lambda: BestOfKMedianRule(k=3)),
    EquivalenceScenario("median-k3/n=1000/adv", 1000, 8,
                        lambda: BestOfKMedianRule(k=3), _balancing(6)),
]

#: The widened coverage: majority-family kernels × identity-tracking
#: adversaries (count-space victim-occupancy forms), certified against the
#: vectorized engine through the looped *and* the fused occupancy engine.
MAJORITY_SCENARIOS = [
    EquivalenceScenario("three-majority/noadv", 600, 4, TwoChoicesMajorityRule),
    EquivalenceScenario("three-majority/sticky", 600, 4, TwoChoicesMajorityRule,
                        _sticky(4)),
    EquivalenceScenario("three-majority/hiding", 600, 4, TwoChoicesMajorityRule,
                        _hiding(4)),
    EquivalenceScenario("two-choices/noadv", 600, 4, TwoChoicesRule),
    EquivalenceScenario("two-choices/sticky", 600, 4, TwoChoicesRule, _sticky(4)),
    EquivalenceScenario("two-choices/hiding", 600, 4, TwoChoicesRule, _hiding(4)),
    EquivalenceScenario("median/sticky", 600, 4, MedianRule, _sticky(4)),
    EquivalenceScenario("median/hiding", 600, 4, MedianRule, _hiding(4)),
]


@pytest.mark.parametrize("sc", MEDIAN_SCENARIOS, ids=lambda sc: sc.name)
def test_convergence_round_statistics_match(sc: EquivalenceScenario):
    vect = collect_convergence_rounds("vectorized", sc, RUNS, seed_base=10_000)
    occ = collect_convergence_rounds("occupancy", sc, RUNS, seed_base=20_000)
    assert_rounds_equivalent(vect, occ, sc.name)


@pytest.mark.parametrize("engine", ["occupancy", "occupancy-fused"])
@pytest.mark.parametrize("sc", MAJORITY_SCENARIOS, ids=lambda sc: sc.name)
def test_majority_and_victim_adversary_statistics_match(sc: EquivalenceScenario,
                                                        engine: str):
    vect = collect_convergence_rounds("vectorized", sc, RUNS, seed_base=110_000)
    fast = collect_convergence_rounds(engine, sc, RUNS, seed_base=120_000)
    assert_rounds_equivalent(vect, fast, f"{sc.name} via {engine}")


@pytest.mark.parametrize("sc", [MEDIAN_SCENARIOS[0], MEDIAN_SCENARIOS[1],
                                MEDIAN_SCENARIOS[4], MEDIAN_SCENARIOS[5]],
                         ids=lambda sc: sc.name)
def test_minority_trajectory_statistics_match(sc: EquivalenceScenario):
    vect = collect_minority_trajectories("vectorized", sc, RUNS,
                                         seed_base=30_000, rounds=TRAJ_ROUNDS)
    occ = collect_minority_trajectories("occupancy", sc, RUNS,
                                        seed_base=40_000, rounds=TRAJ_ROUNDS)
    assert vect.shape == occ.shape
    for t in range(TRAJ_ROUNDS + 1):
        assert_means_close(vect[:, t], occ[:, t],
                           f"{sc.name} minority at round {t}")


@pytest.mark.parametrize("sc", [
    EquivalenceScenario("three-majority/sticky/traj", 500, 4,
                        TwoChoicesMajorityRule, _sticky(4)),
    EquivalenceScenario("two-choices/hiding/traj", 500, 4,
                        TwoChoicesRule, _hiding(4)),
], ids=lambda sc: sc.name)
def test_majority_minority_trajectories_match(sc: EquivalenceScenario):
    vect = collect_minority_trajectories("vectorized", sc, RUNS,
                                         seed_base=130_000, rounds=TRAJ_ROUNDS)
    occ = collect_minority_trajectories("occupancy", sc, RUNS,
                                        seed_base=140_000, rounds=TRAJ_ROUNDS)
    for t in range(TRAJ_ROUNDS + 1):
        assert_means_close(vect[:, t], occ[:, t],
                           f"{sc.name} minority at round {t}")


#: One-round exact-flow grid at tiny n: the complete next-occupancy law of
#: one *engine* round (including corruption placement and the victim-
#: occupancy split-scatter) must match between the substrates.
ONE_ROUND_SCENARIOS = [
    EquivalenceScenario("median/noadv/1round", 12, 3, MedianRule),
    EquivalenceScenario("median/sticky/1round", 12, 3, MedianRule, _sticky(3)),
    EquivalenceScenario("three-majority/noadv/1round", 12, 3,
                        TwoChoicesMajorityRule),
    EquivalenceScenario("three-majority/sticky/1round", 12, 3,
                        TwoChoicesMajorityRule, _sticky(3)),
    EquivalenceScenario("two-choices/noadv/1round", 12, 3, TwoChoicesRule),
    EquivalenceScenario("two-choices/hiding/1round", 12, 3, TwoChoicesRule,
                        _hiding(3)),
]


@pytest.mark.parametrize("sc", ONE_ROUND_SCENARIOS, ids=lambda sc: sc.name)
def test_one_round_occupancy_distribution_matches_exactly(sc: EquivalenceScenario):
    assert_one_round_flows_match(sc, trials=3000, seed_base=50_000)


#: The agent-level network simulator, with a request cap no round can reach,
#: against the vectorized engine it shares its round loop with.
NETWORK_SCENARIOS = [
    EquivalenceScenario("median/n=64/noadv", 64, 4, MedianRule),
    EquivalenceScenario("median/n=64/adv", 64, 4, MedianRule, _balancing(2)),
]


@pytest.mark.parametrize("sc", NETWORK_SCENARIOS, ids=lambda sc: sc.name)
def test_network_simulator_statistics_match(sc: EquivalenceScenario):
    vect = collect_convergence_rounds("vectorized", sc, RUNS, seed_base=60_000)
    net = collect_convergence_rounds("network", sc, RUNS, seed_base=70_000)
    assert_rounds_equivalent(vect, net, f"{sc.name} via network")


# --------------------------------------------------------------------------- #
# Compiled-kernel certification: the same harness, with the compiled
# multinomial backend forced.  One scenario line per seam entry point:
#
#   * dense scatter + banded round   — median, looped occupancy engine;
#   * fused per-round path           — median, occupancy-fused engine;
#   * split-scatter (victim split)   — sticky adversary, both engines;
#   * one-round exact flow law       — tiny-n L1/TV check.
#
# Skipped wholesale when no compiled provider exists on the host (the
# numpy backend is already certified by every test above, since it is the
# bit-identical legacy path).
# --------------------------------------------------------------------------- #
from repro.engine import resolve_multinomial_backend, set_multinomial_backend

HAS_COMPILED = resolve_multinomial_backend("compiled").resolved == "compiled"

needs_compiled = pytest.mark.skipif(
    not HAS_COMPILED, reason="no compiled multinomial provider on this host")


@contextlib.contextmanager
def _compiled_kernel():
    set_multinomial_backend("compiled")
    try:
        yield
    finally:
        set_multinomial_backend(None)


COMPILED_SCENARIOS = [
    ("occupancy", EquivalenceScenario("median/n=1000/noadv/compiled", 1000, 8,
                                      MedianRule)),
    ("occupancy-fused", EquivalenceScenario("median/n=1000/noadv/compiled",
                                            1000, 8, MedianRule)),
    ("occupancy", EquivalenceScenario("median/sticky/compiled", 600, 4,
                                      MedianRule, _sticky(4))),
    ("occupancy-fused", EquivalenceScenario("three-majority/sticky/compiled",
                                            600, 4, TwoChoicesMajorityRule,
                                            _sticky(4))),
]


@needs_compiled
@pytest.mark.parametrize("engine,sc", COMPILED_SCENARIOS,
                         ids=lambda v: v if isinstance(v, str) else v.name)
def test_compiled_kernel_statistics_match(engine: str, sc: EquivalenceScenario):
    vect = collect_convergence_rounds("vectorized", sc, RUNS, seed_base=210_000)
    with _compiled_kernel():
        fast = collect_convergence_rounds(engine, sc, RUNS, seed_base=220_000)
    assert_rounds_equivalent(vect, fast, f"{sc.name} via {engine}")


@needs_compiled
@pytest.mark.parametrize("sc", [
    EquivalenceScenario("median/noadv/1round/compiled", 12, 3, MedianRule),
    EquivalenceScenario("median/sticky/1round/compiled", 12, 3, MedianRule,
                        _sticky(3)),
], ids=lambda sc: sc.name)
def test_compiled_kernel_one_round_flows_match(sc: EquivalenceScenario):
    with _compiled_kernel():
        assert_one_round_flows_match(sc, trials=3000, seed_base=250_000)
