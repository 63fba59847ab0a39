"""Differential tests: the fused occupancy batch engine is pinned to the
looped occupancy engine.

``run_batch_fused_occupancy`` claims to be *statistically indistinguishable*
from looping :func:`repro.engine.occupancy.simulate_occupancy` over the runs
(``run_batch(engine="occupancy")``): same initial-draw seed discipline, same
count-space adversary semantics, same convergence bookkeeping — only the
randomness consumption differs (one batch stream vs per-run streams), so the
two are compared in distribution over paired batches:

* mean convergence round within a 6-sigma Welch tolerance (plus small
  absolute slack), for the median rule, the voter rule and the best-of-k
  median rule, with and without a balancing adversary;
* variance of the convergence round within the sampling tolerance of a
  ~200-run variance estimate;
* the one-round *flow distribution* exactly: each row of
  :func:`repro.engine.occupancy.occupancy_round_batch` must follow the same
  law as :func:`repro.engine.occupancy.occupancy_round` on that row (L1
  distance over complete occupancy outcomes at tiny n, and exact algebraic
  equality of the stacked transition tensor).

Also covered: the ``engine="occupancy-fused"`` dispatch in ``run_batch`` and
its refusals, NumPy's run-blocked dense round, the per-cell engine
resolution in ``SweepConfig.with_engine``, the wall-clock guard that fused
stays ≥ 2× faster than the looped engine, and large cells (n = 10⁶) that
must converge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from repro.adversary.strategies import (
    BalancingAdversary,
    StickyAdversary,
    make_adversary,
)
from repro.analysis.drift import measure_empirical_occupancy_drift
from repro.core.baseline_rules import MaximumRule, MinimumRule, VoterRule
from repro.core.median_rule import (
    BestOfKMedianRule,
    MedianRule,
    MedianRuleWithoutReplacement,
)
from repro.core.rules import Rule, get_rule
from repro.core.state import Configuration
from repro.engine.batch import (
    BATCH_ENGINES,
    fused_occupancy_cell_supported,
    run_batch,
    run_batch_fused_occupancy,
)
from repro.engine._multinomial import set_multinomial_backend
from repro.engine.occupancy import (
    occupancy_round,
    occupancy_round_batch,
    occupancy_transition_matrix,
)
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.workloads import (
    blocks_workload,
    make_occupancy_workload,
    make_workload_for_engine,
)

RUNS = 200


@pytest.fixture
def numpy_kernel():
    """Pin NumPy's dense round: the one drawn in run blocks."""
    set_multinomial_backend("numpy")
    yield
    set_multinomial_backend(None)


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    m: int
    rule_factory: Callable[[], Rule]
    budget: int  # 0 → no adversary
    horizon: int = 400

    def adversary_factory(self) -> Optional[Callable[[], BalancingAdversary]]:
        if self.budget == 0:
            return None
        return lambda: BalancingAdversary(budget=self.budget)


SCENARIOS = [
    Scenario("median/noadv", 1000, 8, MedianRule, 0),
    Scenario("median/adv", 1000, 8, MedianRule, 6),
    Scenario("median-k3/noadv", 1000, 8, lambda: BestOfKMedianRule(k=3), 0),
    Scenario("median-k3/adv", 1000, 8, lambda: BestOfKMedianRule(k=3), 6),
    # the voter rule needs O(n) rounds, so pin it at small n with a long leash
    Scenario("voter/noadv", 60, 3, VoterRule, 0, horizon=4000),
]


def _looped_rounds(sc: Scenario, seed: int) -> np.ndarray:
    batch = run_batch(
        blocks_workload(sc.n, sc.m),
        num_runs=RUNS,
        rule=sc.rule_factory(),
        adversary_factory=sc.adversary_factory(),
        seed=seed,
        max_rounds=sc.horizon,
        engine="occupancy",
    )
    return batch.rounds


def _fused_rounds(sc: Scenario, seed: int) -> np.ndarray:
    batch = run_batch_fused_occupancy(
        blocks_workload(sc.n, sc.m),
        RUNS,
        rule=sc.rule_factory(),
        adversary_factory=sc.adversary_factory(),
        seed=seed,
        max_rounds=sc.horizon,
    )
    assert batch.meta["engine"] == "occupancy-fused"
    assert batch.meta["budget_ledger_ok"] is True
    return batch.rounds


def _assert_means_close(a: np.ndarray, b: np.ndarray, label: str,
                        sigmas: float = 6.0, abs_slack: float = 0.75) -> None:
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    assert a.size and b.size, f"{label}: an engine never converged"
    se = float(np.sqrt(np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size))
    diff = abs(float(np.mean(a)) - float(np.mean(b)))
    assert diff <= sigmas * se + abs_slack, (
        f"{label}: means {np.mean(a):.3f} vs {np.mean(b):.3f} "
        f"differ by {diff:.3f} > {sigmas}·SE + {abs_slack} = {sigmas * se + abs_slack:.3f}"
    )


def _assert_variances_close(a: np.ndarray, b: np.ndarray, label: str,
                            factor: float = 2.5, abs_slack: float = 1.5) -> None:
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    assert va <= factor * vb + abs_slack and vb <= factor * va + abs_slack, (
        f"{label}: variances {va:.3f} vs {vb:.3f} differ beyond "
        f"factor {factor} + {abs_slack}"
    )


@pytest.mark.parametrize("sc", SCENARIOS, ids=lambda sc: sc.name)
def test_convergence_round_statistics_match_looped_engine(sc: Scenario):
    looped = _looped_rounds(sc, seed=70_000)
    fused = _fused_rounds(sc, seed=80_000)
    assert np.isnan(looped).mean() <= 0.02, f"{sc.name}: looped rarely converged"
    assert np.isnan(fused).mean() <= 0.02, f"{sc.name}: fused rarely converged"
    _assert_means_close(looped, fused, f"{sc.name} convergence round")
    _assert_variances_close(looped, fused, f"{sc.name} convergence round")


# ---------------------------------------------------------------------- #
# exact per-round checks
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rule", [MedianRule(), BestOfKMedianRule(k=4),
                                  MedianRuleWithoutReplacement(), VoterRule(),
                                  MinimumRule(), MaximumRule()],
                         ids=lambda r: r.name)
def test_batched_transition_tensor_equals_stacked_single_matrices(rule):
    rng = np.random.default_rng(7)
    counts = rng.multinomial(240, np.full(6, 1 / 6), size=12).astype(np.int64)
    Qb = occupancy_transition_matrix(rule, counts)
    assert Qb.shape == (12, 6, 6)
    for i in range(counts.shape[0]):
        np.testing.assert_allclose(Qb[i], occupancy_transition_matrix(rule, counts[i]),
                                   atol=1e-12)


def test_one_round_flow_distribution_matches_exactly():
    """Each row of a fused one-round update follows the single-run law: the
    empirical distributions over complete occupancy outcomes agree within the
    L1 sampling noise of identical laws (same bound as the engine-differential
    suite: E[L1] ≲ 0.8·sqrt(2K/trials))."""
    counts = np.array([5, 4, 3], dtype=np.int64)
    rule = MedianRule()
    trials = 40_000
    chunk = 500

    rng_s = np.random.default_rng(90_000)
    rng_b = np.random.default_rng(91_000)
    hist_s: dict = {}
    hist_b: dict = {}
    for _ in range(trials):
        out = occupancy_round(counts, rule, rng_s)
        key = tuple(int(c) for c in out)
        hist_s[key] = hist_s.get(key, 0) + 1
    tiled = np.tile(counts, (chunk, 1))
    for _ in range(trials // chunk):
        out = occupancy_round_batch(tiled, rule, rng_b)
        for row in out:
            key = tuple(int(c) for c in row)
            hist_b[key] = hist_b.get(key, 0) + 1
    keys = set(hist_s) | set(hist_b)
    l1 = sum(abs(hist_s.get(k, 0) - hist_b.get(k, 0)) for k in keys) / trials
    noise = 0.8 * np.sqrt(2 * len(keys) / trials)
    assert l1 < max(3 * noise, 0.05), (
        f"one-round fused laws differ: L1 {l1:.4f} over {len(keys)} outcomes "
        f"(noise scale {noise:.4f})"
    )


def test_rows_evolve_independently():
    """Runs in one batch must not influence each other: a batch of identical
    rows produces (statistically) independent outcomes, so outcome rows are
    not all equal after one round from a high-entropy state."""
    rng = np.random.default_rng(1)
    counts = np.tile(np.full(8, 16, dtype=np.int64), (64, 1))
    out = occupancy_round_batch(counts, MedianRule(), rng)
    assert out.shape == (64, 8)
    assert np.all(out.sum(axis=1) == 128)
    assert np.unique(out, axis=0).shape[0] > 1


# ---------------------------------------------------------------------- #
# engine bookkeeping and dispatch
# ---------------------------------------------------------------------- #
class TestRunBatchFusedOccupancy:
    def test_reproducible_given_seed(self):
        init = Configuration.two_bins(500, minority=250)
        a = run_batch_fused_occupancy(init, 12, seed=5)
        b = run_batch_fused_occupancy(init, 12, seed=5)
        assert np.array_equal(a.rounds, b.rounds, equal_nan=True)

    def test_initial_consensus_reports_round_zero(self):
        init = Configuration.from_values(np.zeros(64, dtype=np.int64))
        batch = run_batch_fused_occupancy(init, 4, seed=6)
        assert batch.convergence_fraction == 1.0
        assert np.all(batch.rounds == 0.0)

    def test_factory_initials_and_uniform_n_enforced(self):
        def factory(rng):
            return Configuration.uniform_random(128, 4, rng)

        batch = run_batch_fused_occupancy(factory, 8, seed=7)
        assert batch.n == 128
        assert batch.convergence_fraction == 1.0

        sizes = iter([64, 65, 64, 64])

        def bad_factory(rng):
            return Configuration.uniform_random(next(sizes), 4, rng)

        with pytest.raises(ValueError, match="uniform population"):
            run_batch_fused_occupancy(bad_factory, 4, seed=8)

    def test_short_horizon_leaves_nan(self):
        batch = run_batch_fused_occupancy(blocks_workload(4096, 32), 6, seed=9,
                                          max_rounds=2)
        assert batch.convergence_fraction == 0.0
        assert np.all(np.isnan(batch.rounds))

    def test_invalid_num_runs(self):
        with pytest.raises(ValueError):
            run_batch_fused_occupancy(blocks_workload(64, 4), 0)

    def test_custom_identity_tracking_adversary_rejected(self):
        from repro.adversary.base import Adversary, Corruption

        class IdentityOnly(Adversary):
            def propose(self, values, round_index, admissible_values, rng):
                return Corruption.empty()

        with pytest.raises(NotImplementedError, match="identities"):
            run_batch_fused_occupancy(
                Configuration.two_bins(128, minority=64), 4, seed=10,
                adversary_factory=lambda: IdentityOnly(budget=3))

    def test_sticky_adversary_runs_fused_via_victim_occupancy(self):
        batch = run_batch_fused_occupancy(
            Configuration.two_bins(256, minority=128), 8, seed=10,
            adversary_factory=lambda: StickyAdversary(budget=3),
            max_rounds=400)
        assert batch.meta["engine"] == "occupancy-fused"
        assert batch.convergence_fraction == 1.0
        assert batch.meta["budget_ledger_ok"] is True

    def test_mixed_tracking_and_plain_adversaries_in_one_batch(self):
        from repro.adversary.strategies import HidingAdversary

        sequence = []

        def alternating_factory():
            adv = HidingAdversary(budget=3) if len(sequence) % 2 == 0 \
                else BalancingAdversary(budget=3)
            sequence.append(adv)
            return adv

        batch = run_batch_fused_occupancy(
            Configuration.two_bins(256, minority=128), 8, seed=11,
            adversary_factory=alternating_factory, max_rounds=500)
        assert batch.convergence_fraction == 1.0
        assert batch.meta["budget_ledger_ok"] is True

    def test_adversary_tolerance_default(self):
        batch = run_batch_fused_occupancy(
            Configuration.two_bins(256, minority=128), 4, seed=11,
            adversary_factory=lambda: BalancingAdversary(budget=2),
            max_rounds=400)
        assert batch.meta["tolerance"] == 8
        assert batch.meta["window"] == 10

    def test_blocked_rounds_match_unblocked_statistics(self, monkeypatch,
                                                       numpy_kernel):
        # force run-chunking with a tiny working-set cap; the chunked path
        # must stay the same program, just sliced
        init = blocks_workload(512, 16)
        with monkeypatch.context() as patched:
            patched.setattr("repro.engine.occupancy.DENSE_BLOCK_ELEMS", 16 * 16)
            small = run_batch_fused_occupancy(init, 24, seed=12)
        big = run_batch_fused_occupancy(init, 24, seed=12)
        assert small.convergence_fraction == 1.0
        assert big.convergence_fraction == 1.0
        assert abs(small.mean_rounds - big.mean_rounds) < 6.0

    @pytest.mark.parametrize("budget", [0, 3], ids=["null", "balancing"])
    def test_blocked_dense_round_is_bit_identical_without_victims(
            self, monkeypatch, numpy_kernel, budget):
        # blocks draw their runs in order on one stream, so without victim
        # tracking (whose civilian and victim scatters interleave per block)
        # the blocked round is the unblocked one, bit for bit
        init = blocks_workload(512, 16)

        def run():
            return run_batch_fused_occupancy(
                init, 24, seed=12, max_rounds=300,
                adversary_factory=lambda: BalancingAdversary(budget=budget))

        with monkeypatch.context() as patched:
            patched.setattr("repro.engine.occupancy.DENSE_BLOCK_ELEMS", 16 * 16 * 5)
            blocked = run()
        whole = run()
        np.testing.assert_array_equal(blocked.rounds, whole.rounds)
        assert blocked.meta == whole.meta


class TestEngineDispatch:
    def test_batch_engines_registry(self):
        assert "occupancy-fused" in BATCH_ENGINES
        assert fused_occupancy_cell_supported("median", "balancing")
        assert fused_occupancy_cell_supported("voter")
        # the majority family and identity-tracking adversaries gained
        # count-space forms; only kernel-less rules remain unsupported
        assert fused_occupancy_cell_supported("three-majority")
        assert fused_occupancy_cell_supported("two-choices-majority", "hiding")
        assert fused_occupancy_cell_supported("median", "sticky")
        assert not fused_occupancy_cell_supported("mean")
        # geometry guard: count space loses (or outright refuses) wide supports
        assert fused_occupancy_cell_supported("median", "null", n=10**6, m=64)
        assert not fused_occupancy_cell_supported("median", "null", n=2048, m=2048)
        assert not fused_occupancy_cell_supported("median", "null", n=10**9, m=20000)

    def test_all_distinct_cells_resolve_to_vectorized(self):
        # all-distinct implies m = n: O(m^2)-per-round count space is the
        # wrong substrate, and m > 10^4 would refuse its transition tensor
        from repro.experiments.runner import resolve_cell_engine
        from repro.experiments.sweep import theorem1_sweep

        assert all(c.engine == "vectorized" for c in theorem1_sweep(ns=(512, 16384)))
        assert resolve_cell_engine("median", "null", "occupancy-fused",
                                   "all-distinct", {"n": 16384}) == "vectorized"
        assert resolve_cell_engine("median", "null", "occupancy-fused",
                                   "two-bins", {"n": 16384}) == "occupancy-fused"

    def test_run_batch_routes_to_fused(self):
        batch = run_batch(blocks_workload(1024, 8), num_runs=6, seed=13,
                          engine="occupancy-fused")
        assert batch.meta["engine"] == "occupancy-fused"
        assert batch.convergence_fraction == 1.0

    def test_experiment_config_accepts_fused_engine(self):
        cfg = ExperimentConfig(name="c", workload="blocks",
                               workload_params={"n": 64, "m": 4},
                               engine="occupancy-fused")
        assert cfg.engine == "occupancy-fused"
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentConfig(name="c", workload="blocks",
                             workload_params={"n": 64, "m": 4},
                             engine="occupancy-fused-typo")

    def test_run_batch_fused_refuses_unsupported_pairs(self):
        # run_batch runs the engine it is given; choosing one for a cell is
        # resolve_cell_engine's job
        from repro.adversary.base import Adversary, Corruption
        from repro.core.rules import get_rule

        class IdentityOnly(Adversary):
            def propose(self, values, round_index, admissible_values, rng):
                return Corruption.empty()

        with pytest.raises(TypeError, match="supported rules are"):
            run_batch(blocks_workload(128, 4), num_runs=2, seed=15,
                      rule=get_rule("mean"), engine="occupancy-fused")
        with pytest.raises(NotImplementedError, match="identities"):
            run_batch(Configuration.two_bins(128, minority=64), num_runs=2,
                      seed=15, adversary_factory=lambda: IdentityOnly(budget=3),
                      engine="occupancy-fused")

    def test_run_batch_routes_majority_family_to_fused(self):
        from repro.core.rules import get_rule

        batch = run_batch(blocks_workload(512, 4), num_runs=4, seed=15,
                          rule=get_rule("three-majority"),
                          adversary_factory=lambda: StickyAdversary(budget=3),
                          engine="occupancy-fused", max_rounds=400)
        assert batch.meta["engine"] == "occupancy-fused"
        assert batch.convergence_fraction == 1.0

    def test_probe_does_not_consume_an_extra_factory_call(self):
        calls = []

        def counting_factory():
            calls.append(1)
            return BalancingAdversary(budget=2)

        run_batch(Configuration.two_bins(128, minority=64), num_runs=3,
                  seed=16, adversary_factory=counting_factory,
                  engine="occupancy-fused", max_rounds=200)
        assert len(calls) == 3

    def test_custom_criterion_honored_without_adversary(self):
        from repro.core.consensus import AlmostStableCriterion

        # horizon far too short for exact consensus, but the minority drops
        # under the tolerance almost immediately — both engines must report
        # the almost-stable round instead of NaN
        crit = AlmostStableCriterion(tolerance=700, window=2)
        init = blocks_workload(1000, 8)
        fused = run_batch_fused_occupancy(init, 40, seed=17, max_rounds=8,
                                          criterion=crit)
        looped = run_batch(init, 40, seed=18, engine="occupancy",
                           max_rounds=8, criterion=crit)
        assert fused.convergence_fraction >= 0.9
        assert looped.convergence_fraction >= 0.9
        assert np.nanmax(fused.rounds) <= 8
        _assert_means_close(fused.rounds, looped.rounds,
                            "custom criterion almost-stable round")

    def test_mixed_budget_factory_keeps_per_run_semantics(self):
        from repro.adversary.base import NullAdversary

        sequence = []

        def alternating_factory():
            adv = NullAdversary() if len(sequence) % 2 == 0 \
                else BalancingAdversary(budget=4)
            sequence.append(adv)
            return adv

        batch = run_batch_fused_occupancy(
            Configuration.two_bins(512, minority=256), 8, seed=19,
            adversary_factory=alternating_factory, max_rounds=500)
        assert batch.convergence_fraction == 1.0
        assert batch.meta["adversary_budget"] == 4
        # the adversary-free runs must have reached *exact* consensus within
        # the horizon (they never stop on the almost-stable criterion)
        assert np.all(batch.rounds[::2] >= 1)

    def test_with_engine_keeps_plain_occupancy_requests_verbatim(self):
        sweep = SweepConfig(name="plain")
        sweep.add(ExperimentConfig(name="no-kernel", workload="blocks",
                                   workload_params={"n": 64, "m": 4},
                                   rule="mean"))
        resolved = sweep.with_engine("occupancy")
        assert resolved.cells[0].engine == "occupancy"

    def test_with_engine_resolves_unsupported_cells(self):
        sweep = SweepConfig(name="mix")
        sweep.add(ExperimentConfig(name="ok", workload="blocks",
                                   workload_params={"n": 64, "m": 4}))
        sweep.add(ExperimentConfig(name="no-kernel", workload="blocks",
                                   workload_params={"n": 64, "m": 4},
                                   rule="mean"))
        # majority-family rules and identity-tracking adversaries now have
        # count-space forms, so these cells stay on the fused engine
        sweep.add(ExperimentConfig(name="majority", workload="blocks",
                                   workload_params={"n": 64, "m": 4},
                                   rule="three-majority"))
        sweep.add(ExperimentConfig(name="victims", workload="blocks",
                                   workload_params={"n": 64, "m": 4},
                                   adversary="sticky", adversary_budget=2))
        resolved = sweep.with_engine("occupancy-fused")
        engines = {c.name: c.engine for c in resolved}
        assert engines == {"ok": "occupancy-fused",
                           "no-kernel": "vectorized",
                           "majority": "occupancy-fused",
                           "victims": "occupancy-fused"}


# ---------------------------------------------------------------------- #
# wall-clock guard and large cells
# ---------------------------------------------------------------------- #
def test_fused_beats_looped_occupancy_by_2x():
    """Guard: at n = 10⁵, m = 16, R = 96 (blocks), where interpreter overhead
    dominates, fused is ≥ 2× faster than looping the single-run engine
    (~40× on a 2-vCPU Xeon; the floor only absorbs timer noise)."""
    init = make_workload_for_engine("blocks", "occupancy", n=10**5, m=16)
    t0 = time.perf_counter()
    looped = run_batch(init, 96, seed=1234, engine="occupancy")
    t1 = time.perf_counter()
    fused = run_batch_fused_occupancy(init, 96, seed=1235)
    t2 = time.perf_counter()
    assert looped.convergence_fraction == 1.0
    assert fused.convergence_fraction == 1.0
    assert t1 - t0 >= 2.0 * (t2 - t1), (
        f"fused {t2 - t1:.4f}s vs looped {t1 - t0:.4f}s")


def test_fused_converges_at_n_1e6_m32():
    init = make_workload_for_engine("blocks", "occupancy", n=10**6, m=32)
    assert run_batch_fused_occupancy(init, 64, seed=7).convergence_fraction == 1.0


def test_three_majority_with_sticky_adversary_at_n_1e6():
    """The majority-family kernels and the victim-occupancy form of sticky:
    n = 10⁶, m = 16, R = 128, T = 250.  Every run converges within 1200
    rounds with a clean budget ledger, and the rule's exact one-round drift
    matches Monte Carlo within CLT bounds (max z ≤ 6)."""
    rule = get_rule("three-majority")
    init = make_occupancy_workload("blocks", n=10**6, m=16)
    batch = run_batch_fused_occupancy(
        init, 128, rule=rule,
        adversary_factory=lambda: make_adversary("sticky", budget=250),
        seed=4321, max_rounds=1200)
    assert batch.convergence_fraction == 1.0
    assert batch.meta["budget_ledger_ok"] is True
    drift = measure_empirical_occupancy_drift(
        rule, np.asarray(init.counts), samples=2000,
        rng=np.random.default_rng(4328))
    z = np.abs(drift["mean"] - drift["predicted"]) / np.maximum(
        drift["standard_error"], 1e-9)
    assert float(z.max()) <= 6.0
