"""Chaos certification: fault injection, retry policy, degradation ladder.

The randomized trials (:class:`TestRandomizedChaos`) drive real sharded
sweeps through ``tests/chaos.py`` under seed-derived fault schedules; the
remaining classes pin each robustness mechanism individually — fault-plan
plumbing, retry/backoff policy, read-time integrity quarantine, torn-log
tolerance, budgeted failure-marker retries, and every rung of the
shard→pool→serial degradation ladder.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import Counter

import pytest

from chaos import (
    CHAOS_RETRY,
    assert_chaos_invariants,
    chaos_sweep,
    clean_reference,
    run_chaos_trial,
)
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.robustness import (
    Deadline,
    DegradedExecutionWarning,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryExhausted,
    RetryPolicy,
    StoreIntegrityWarning,
    TornLogWarning,
    activate,
    active_plan,
    call_with_retry,
    classify_error,
    deactivate,
    fault_point,
    maybe_torn,
    read_fault_journal,
)
from repro.robustness import faults as faults_mod
from repro.store import (
    CachedSweepRunner,
    LeaseManager,
    ResultStore,
    ShardBackend,
    ShardWorker,
    failed_markers,
    read_execution_log,
)


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Every test leaves the process with no plan armed and no env handoff."""
    yield
    deactivate()


def _solo_sweep() -> SweepConfig:
    sweep = SweepConfig(name="solo", description="one-cell chaos probe")
    sweep.add(ExperimentConfig(name="solo", workload="all-distinct",
                               workload_params={"n": 32}, num_runs=2, seed=7))
    return sweep


# ---------------------------------------------------------------------- #
# fault-plan plumbing
# ---------------------------------------------------------------------- #
class TestFaultPlan:
    def test_random_plans_are_seed_deterministic(self):
        assert FaultPlan.random(7).to_json() == FaultPlan.random(7).to_json()
        assert FaultPlan.random(7).to_json() != FaultPlan.random(8).to_json()

    def test_random_plans_stay_inside_chaos_envelope(self):
        for seed in range(50):
            plan = FaultPlan.random(seed)
            assert 2 <= len(plan.specs) <= 4
            shapes = [s.shape for s in plan.specs]
            assert shapes.count("stale-clock") <= 1
            assert shapes.count("kill-worker") <= 1
            for spec in plan.specs:
                assert spec.shape in FaultPlan.CHAOS_SEAMS[spec.seam]
                assert 1 <= spec.times <= 2

    def test_json_roundtrip_and_file_load(self, tmp_path):
        plan = FaultPlan(specs=[FaultSpec("lease.acquire", "raise", times=2)],
                         seed=3, journal=str(tmp_path / "j.jsonl"))
        assert FaultPlan.load(plan.to_json()).specs == plan.specs
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(path).specs == plan.specs

    def test_unknown_seam_or_shape_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("no.such.seam", "raise")
        with pytest.raises(ValueError):
            FaultSpec("lease.acquire", "no-such-shape")

    def test_unarmed_seams_are_noops(self):
        deactivate()
        assert active_plan() is None
        assert fault_point("worker.compute") is None
        assert maybe_torn("store.payload_write", "payload") == "payload"

    def test_times_budget_then_heal(self):
        plan = FaultPlan(specs=[FaultSpec("worker.compute", "raise", times=2)])
        activate(plan, export_env=False)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                fault_point("worker.compute")
        assert fault_point("worker.compute") is None   # healed

    def test_worker_only_skip_does_not_consume_budget(self, monkeypatch):
        plan = FaultPlan(specs=[
            FaultSpec("worker.compute", "raise", worker_only=True)])
        injector = activate(plan, export_env=False)
        assert fault_point("worker.compute") is None   # coordinator: skipped
        assert injector.fired_counts() == [0]
        monkeypatch.setattr(faults_mod, "_IS_WORKER", True)
        with pytest.raises(InjectedFault):
            fault_point("worker.compute")              # worker: fires

    def test_env_handoff_arms_fresh_process_state(self, monkeypatch):
        plan = FaultPlan(specs=[FaultSpec("lease.acquire", "raise")], seed=9)
        activate(plan)   # exports REPRO_FAULT_PLAN
        # simulate a spawned child: unresolved module state + inherited env
        monkeypatch.setattr(faults_mod, "_INJECTOR", faults_mod._UNRESOLVED)
        resolved = active_plan()
        assert resolved is not None and resolved.seed == 9

    def test_malformed_env_plan_is_ignored_with_warning(self, monkeypatch):
        monkeypatch.setenv(faults_mod.ENV_VAR, "{not json")
        monkeypatch.setattr(faults_mod, "_INJECTOR", faults_mod._UNRESOLVED)
        with pytest.warns(UserWarning, match="malformed"):
            assert active_plan() is None

    def test_journal_records_firings(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        plan = FaultPlan(specs=[FaultSpec("lease.reclaim", "delay",
                                          delay_s=0.0)],
                         journal=str(journal))
        activate(plan, export_env=False)
        fault_point("lease.reclaim", key="k1")
        records = read_fault_journal(journal)
        assert [r["seam"] for r in records] == ["lease.reclaim"]
        assert records[0]["ctx"] == {"key": "k1"}


# ---------------------------------------------------------------------- #
# retry policy
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_classification(self):
        assert classify_error("KeyError: 'no-such-rule'") == "permanent"
        assert classify_error(ValueError("bad shape")) == "permanent"
        assert classify_error("OSError: disk on fire") == "transient"
        assert classify_error(InjectedFault("lease.acquire")) == "transient"
        # a transient error *mentioning* a permanent type stays transient
        assert classify_error("OSError: ValueError inside") == "transient"

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=0.4)
        for attempt in (1, 2, 3, 4):
            a = policy.backoff_s(attempt, token="cell-a")
            assert a == policy.backoff_s(attempt, token="cell-a")
            assert 0.0 <= a <= 0.4 * (1.0 + policy.jitter)
        # jitter decorrelates cells at the same attempt number
        assert policy.backoff_s(2, token="cell-a") != \
            policy.backoff_s(2, token="cell-b")

    def test_call_with_retry_heals_transient(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient hiccup")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        assert call_with_retry(flaky, policy, label="flaky") == "ok"
        assert len(calls) == 3

    def test_call_with_retry_permanent_raises_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("deterministic bug")

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(ValueError):
            call_with_retry(broken, policy)
        assert len(calls) == 1

    def test_call_with_retry_exhaustion_counts_prior_attempts(self):
        def always_down():
            raise OSError("still down")

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0)
        with pytest.raises(RetryExhausted) as exc_info:
            call_with_retry(always_down, policy, label="cell",
                            prior_attempts=2)
        assert exc_info.value.attempts == 4
        assert "OSError" in exc_info.value.error

    def test_default_policy_is_historical_no_retry(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_deadline_pickles_as_wall_clock_expiry(self, monkeypatch):
        # worker processes receive the sweep deadline pickled, and their
        # monotonic clock may count from another origin: the expiry must
        # travel as wall-clock time to expire with the parent's
        data = pickle.dumps(Deadline(30.0))
        real = time.monotonic
        with monkeypatch.context() as m:
            m.setattr(time, "monotonic", lambda: real() + 1000.0)
            clone = pickle.loads(data)
            assert clone.seconds == 30.0
            assert 29.0 < clone.remaining() <= 30.0
        assert pickle.loads(pickle.dumps(Deadline(None))).remaining() is None


# ---------------------------------------------------------------------- #
# the sweep deadline: one rule on every backend
# ---------------------------------------------------------------------- #
class TestSweepDeadline:
    #: every retry would start 3 s after its failure, past the 1 s deadline
    POLICY = RetryPolicy(max_attempts=50, base_delay_s=3, max_delay_s=3,
                         jitter=0, deadline_s=1)

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 0), ("pool", 2), ("shard", 0), ("shard", 2)])
    def test_attempts_are_journaled_computes_within_deadline(
            self, tmp_path, backend, workers):
        sweep = SweepConfig(name="deadline", description="always raising")
        for n in (16, 32):
            sweep.add(ExperimentConfig(name=f"n={n}", workload="all-distinct",
                                       workload_params={"n": n}, num_runs=2,
                                       seed=11))
        journal = tmp_path / "journal.jsonl"
        activate(FaultPlan(specs=[FaultSpec("worker.compute", "raise",
                                            times=100)],
                           journal=str(journal)))
        try:
            runner = CachedSweepRunner(ResultStore(tmp_path / "store"),
                                       backend=backend, max_workers=workers,
                                       retry=self.POLICY)
            t0 = time.monotonic()
            report = runner.run(sweep)
            elapsed = time.monotonic() - t0
        finally:
            deactivate()
        # no backend sleeps past the deadline
        assert elapsed <= self.POLICY.deadline_s + 0.5, elapsed
        # a record's attempts are the times run_cell ran for its cell
        fired = Counter(r["ctx"]["cell"] for r in read_fault_journal(journal))
        failures = report.meta["failures"]
        assert [f["cell"] for f in failures] == ["n=16", "n=32"]
        for failure in failures:
            assert failure["attempts"] == fired[failure["cell"]], \
                (failure, fired)
            if failure["attempts"] == 0:   # never started
                assert failure["error"].startswith("SweepDeadlineError")


# ---------------------------------------------------------------------- #
# read-time integrity verification
# ---------------------------------------------------------------------- #
class TestReadTimeIntegrity:
    def _cold_run(self, root, **store_kwargs):
        store = ResultStore(root / "store", **store_kwargs)
        runner = CachedSweepRunner(store, backend="serial")
        return store, runner, runner.run(_solo_sweep())

    def test_torn_payload_write_is_quarantined_and_recomputed(self, tmp_path):
        activate(FaultPlan(specs=[
            FaultSpec("store.payload_write", "torn-write")]),
            export_env=False)
        store, runner, cold = self._cold_run(tmp_path)
        deactivate()
        with pytest.warns(StoreIntegrityWarning):
            warm = CachedSweepRunner(store, backend="serial").run(_solo_sweep())
        assert warm == cold
        assert list(store.quarantine_dir.glob("*.json"))
        assert store.get(store.key_for(_solo_sweep().cells[0])) is not None

    def test_torn_sidecar_write_is_quarantined_and_recomputed(self, tmp_path):
        activate(FaultPlan(specs=[
            FaultSpec("store.sidecar_write", "torn-write")]),
            export_env=False)
        store, runner, cold = self._cold_run(tmp_path, rounds_sidecar_at=1)
        deactivate()
        with pytest.warns(StoreIntegrityWarning):
            warm = CachedSweepRunner(store, backend="serial").run(_solo_sweep())
        assert warm == cold
        record = store.get(store.key_for(_solo_sweep().cells[0]))
        assert record is not None and record.result.rounds


# ---------------------------------------------------------------------- #
# torn-log tolerance
# ---------------------------------------------------------------------- #
class TestTornLogs:
    def test_read_execution_log_skips_torn_lines(self, tmp_path):
        log = tmp_path / "shard" / "executions.jsonl"
        log.parent.mkdir(parents=True)
        good = json.dumps({"key": "k1", "cell": "a", "attempts": 1})
        torn = json.dumps({"key": "k2", "cell": "b"})[:11]   # no newline
        glued = json.dumps({"key": "k3", "cell": "c", "attempts": 1})
        log.write_text(good + "\n" + torn + glued + "\n" + good + "\n")
        with pytest.warns(TornLogWarning, match="1 undecodable"):
            records = read_execution_log(tmp_path)
        assert [r["key"] for r in records] == ["k1", "k1"]

    def test_injected_torn_append_undercounts_not_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        activate(FaultPlan(specs=[
            FaultSpec("shard.log_append", "torn-write")]), export_env=False)
        ShardWorker(store).run(chaos_sweep())
        deactivate()
        with pytest.warns(TornLogWarning):
            records = read_execution_log(store.root)
        # the torn line (glued onto its successor) is skipped, the rest read
        assert 0 < len(records) < len(chaos_sweep().cells)
        assert len(store) == len(chaos_sweep().cells)   # payloads unaffected


# ---------------------------------------------------------------------- #
# budgeted failure-marker retries
# ---------------------------------------------------------------------- #
class TestFailureMarkerBudget:
    def test_exhausted_marker_retried_by_worker_with_budget(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = _solo_sweep()
        activate(FaultPlan(specs=[
            FaultSpec("worker.compute", "raise", times=3)]), export_env=False)

        fast = RetryPolicy(max_attempts=2, base_delay_s=0.001, jitter=0.0)
        first = ShardWorker(store, worker="w1", retry=fast).run(sweep)
        assert first[0].extra.get("failed")
        assert first[0].extra["attempts"] == 2
        assert first[0].extra["kind"] == "transient-exhausted"
        markers = failed_markers(store.root)
        assert len(markers) == 1 and markers[0]["attempts"] == 2
        assert markers[0]["kind"] == "transient-exhausted"

        # a later worker ("restart") with more budget inherits the 2 spent
        # attempts: attempt 3 still faults, attempt 4 heals and succeeds
        wide = RetryPolicy(max_attempts=4, base_delay_s=0.001, jitter=0.0)
        second = ShardWorker(store, worker="w2", retry=wide).run(sweep)
        deactivate()
        assert not second[0].extra.get("failed")
        assert failed_markers(store.root) == []
        log = read_execution_log(store.root)
        assert len(log) == 1 and log[0]["attempts"] == 4

    def test_permanent_marker_never_retried(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = SweepConfig(name="poison", description="deterministic bug")
        sweep.add(ExperimentConfig(name="bad", workload="all-distinct",
                                   workload_params={"n": 32}, num_runs=2,
                                   seed=7, rule="no-such-rule"))
        wide = RetryPolicy(max_attempts=5, base_delay_s=0.001, jitter=0.0)
        result = ShardWorker(store, retry=wide).run(sweep)[0]
        assert result.extra["kind"] == "permanent"
        assert result.extra["attempts"] == 1   # budget not burned on a bug
        again = ShardWorker(store, retry=wide).run(sweep)[0]
        assert again.extra["attempts"] == 1

    def test_store_info_surfaces_attempt_counts(self, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path / "store")
        LeaseManager(store.root, worker="w").mark_failed(
            "deadbeef", "n=64", "OSError: flaky disk", attempts=3,
            kind="transient-exhausted")
        assert main(["store", "info", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "failed_cells" in out
        assert "3 attempt(s)" in out and "transient-exhausted" in out


# ---------------------------------------------------------------------- #
# degradation ladder
# ---------------------------------------------------------------------- #
class TestDegradationLadder:
    def test_shard_degrades_to_pool_without_lease_infra(self, tmp_path):
        clean = clean_reference(tmp_path)
        store = ResultStore(tmp_path / "store")
        (store.root / "shard").write_text("not a directory")   # mkdir fails
        runner = CachedSweepRunner(store, backend=ShardBackend(workers=0))
        with pytest.warns(DegradedExecutionWarning, match="lease"):
            report = runner.run(chaos_sweep())
        assert report == clean
        assert len(store) == len(chaos_sweep().cells)   # pool still persisted

    def test_pool_degrades_to_serial_when_spawn_fails(self, tmp_path):
        clean = clean_reference(tmp_path)
        store = ResultStore(tmp_path / "store")
        activate(FaultPlan(specs=[FaultSpec("subprocess.spawn", "raise")]),
                 export_env=False)
        runner = CachedSweepRunner(store, backend="pool", max_workers=2)
        with pytest.warns(DegradedExecutionWarning, match="serial"):
            report = runner.run(chaos_sweep())
        deactivate()
        assert report == clean
        assert len(store) == len(chaos_sweep().cells)

    def test_unwritable_store_returns_results_unpersisted(self, tmp_path,
                                                          monkeypatch):
        clean = clean_reference(tmp_path)
        store = ResultStore(tmp_path / "store")

        def refuse(*args, **kwargs):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(store, "put", refuse)
        runner = CachedSweepRunner(store, backend="serial")
        with pytest.warns(DegradedExecutionWarning, match="not persisted"):
            report = runner.run(chaos_sweep())
        assert report == clean
        assert runner.last_stats.executed == []
        assert len(store) == 0

    def test_kernel_compile_fault_degrades_to_numpy(self):
        from repro.engine import _multinomial as mnk

        mnk._reset_for_testing()
        activate(FaultPlan(specs=[
            FaultSpec("kernel.compile", "raise", times=10)]),
            export_env=False)
        try:
            with pytest.warns(mnk.MultinomialKernelWarning):
                info = mnk.resolve_multinomial_backend("cc")
            assert info.provider == "numpy" and info.requested == "cc"
            assert "injected fault" in info.detail
        finally:
            deactivate()
            mnk._reset_for_testing()


# ---------------------------------------------------------------------- #
# pool-backend SIGKILL certification (shard equivalent lives in test_shard)
# ---------------------------------------------------------------------- #
class TestPoolWorkerKill:
    def test_kill_pool_workers_mid_sweep_completes_serially(self, tmp_path):
        clean = clean_reference(tmp_path)
        journal = tmp_path / "journal.jsonl"
        plan = FaultPlan(specs=[FaultSpec("worker.compute", "kill-worker")],
                         journal=str(journal))
        store = ResultStore(tmp_path / "store")
        activate(plan)   # pool children inherit the armed plan
        try:
            runner = CachedSweepRunner(store, backend="pool", max_workers=2)
            with pytest.warns(DegradedExecutionWarning):
                report = runner.run(chaos_sweep())
        finally:
            deactivate()
        assert report == clean
        kills = [r for r in read_fault_journal(journal)
                 if r["shape"] == "kill-worker"]
        assert kills and all(r["worker"] for r in kills)
        # every cell persisted by the serial completion: warm run is all hits
        warm_runner = CachedSweepRunner(store, backend="serial")
        assert warm_runner.run(chaos_sweep()) == clean
        assert warm_runner.last_stats.misses == 0
        assert warm_runner.last_stats.hits == len(chaos_sweep().cells)


# ---------------------------------------------------------------------- #
# randomized chaos certification (the acceptance gate)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def chaos_clean(tmp_path_factory):
    return clean_reference(tmp_path_factory.mktemp("chaos-ref"))


class TestRandomizedChaos:
    @pytest.mark.parametrize("seed", range(21))
    def test_seeded_schedule_preserves_report(self, seed, tmp_path,
                                              chaos_clean):
        outcome = run_chaos_trial(tmp_path, seed, workers=2,
                                  clean=chaos_clean)
        assert_chaos_invariants(outcome, budget=CHAOS_RETRY)
