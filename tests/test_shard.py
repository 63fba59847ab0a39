"""Tests for sharded store-routed execution, backends, offline replay and
NPZ sidecars (repro.store.shard / repro.store.backends + satellites)."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult
from repro.store import (
    CachedSweepRunner,
    CoordinatorServer,
    HttpBackend,
    LeaseManager,
    PoolBackend,
    ResultStore,
    SerialBackend,
    ShardBackend,
    ShardWorker,
    StoreMissError,
    read_execution_log,
    resolve_backend,
    run_sweep_sharded,
)
from repro.store.backends import recommended_workers


def _config(name="cell", n=48, **kwargs) -> ExperimentConfig:
    defaults = dict(name=name, workload="all-distinct",
                    workload_params={"n": n}, num_runs=3, seed=11)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _sweep(ns=(32, 48), name="mini", **kwargs) -> SweepConfig:
    sweep = SweepConfig(name=name, description="shard test sweep")
    for n in ns:
        sweep.add(_config(name=f"n={n}", n=n, **kwargs))
    return sweep


def _poisoned_sweep() -> SweepConfig:
    sweep = SweepConfig(name="poison", description="one bad cell")
    sweep.add(_config(name="ok-32", n=32))
    sweep.add(_config(name="bad", n=32, rule="no-such-rule"))
    sweep.add(_config(name="ok-48", n=48))
    return sweep


@contextlib.contextmanager
def _runner(store, backend, workers):
    """A runner on ``store``; ``http`` serves it from a live coordinator."""
    if backend != "http":
        yield CachedSweepRunner(store, backend=backend, max_workers=workers)
        return
    with CoordinatorServer(store) as server:
        yield CachedSweepRunner(store,
                                backend=HttpBackend(server.url, workers=workers))


# ---------------------------------------------------------------------- #
# child-process entry points (module-level so they pickle/fork cleanly)
# ---------------------------------------------------------------------- #
def _worker_main(store_root, sweep_dict, worker, delay):
    """Run one shard worker, optionally slowing each cell by ``delay``."""
    import repro.store.shard as shard_mod

    if delay:
        real_run_cell = shard_mod.run_cell

        def slow_run_cell(cell):
            time.sleep(delay)
            return real_run_cell(cell)

        shard_mod.run_cell = slow_run_cell
    store = ResultStore(store_root)
    sweep = SweepConfig.from_dict(sweep_dict)
    ShardWorker(store, worker=worker, poll_interval=0.02).run(sweep)


def _start_worker(store_root, sweep, worker, delay=0.0):
    proc = multiprocessing.Process(
        target=_worker_main,
        args=(str(store_root), sweep.to_dict(), worker, delay), daemon=True)
    proc.start()
    return proc


def _join_all(procs, timeout=120.0):
    deadline = time.monotonic() + timeout
    for proc in procs:
        proc.join(max(0.1, deadline - time.monotonic()))
        assert not proc.is_alive(), "shard worker did not finish in time"


# ---------------------------------------------------------------------- #
# lease protocol
# ---------------------------------------------------------------------- #
class TestLeaseManager:
    def test_acquire_is_exclusive(self, tmp_path):
        a = LeaseManager(tmp_path, worker="a")
        b = LeaseManager(tmp_path, worker="b")
        assert a.acquire("k1")
        assert not b.acquire("k1")          # exactly one winner
        assert b.acquire("k2")              # other cells unaffected
        a.release("k1")
        assert b.acquire("k1")              # released leases are takeable

    def test_peek_and_live_lease_not_stale(self, tmp_path):
        manager = LeaseManager(tmp_path, worker="me")
        manager.acquire("k")
        lease = manager.peek("k")
        assert lease["state"] == "running" and lease["pid"] == os.getpid()
        # our own pid is alive, so the lease is not stale no matter its age
        assert not manager.is_stale("k", lease)

    def test_dead_pid_lease_is_stale_and_reclaimable(self, tmp_path):
        manager = LeaseManager(tmp_path, worker="crash")
        manager.acquire("k")
        # forge the recorded pid to a dead one (fork+exit gives a real,
        # definitely-dead pid without guessing)
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()
        path = manager._path("k")
        lease = json.loads(path.read_text())
        lease["pid"] = proc.pid
        path.write_text(json.dumps(lease))
        observer = LeaseManager(tmp_path, worker="other")
        observed = observer.peek("k")
        assert observer.is_stale("k", observed)
        assert observer.reclaim("k", observed)
        assert observer.peek("k") is None   # gone: the cell is pending again
        assert observer.acquire("k")

    @staticmethod
    def _forge_dead_pid(manager, key):
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()
        path = manager._path(key)
        lease = json.loads(path.read_text())
        lease["pid"] = proc.pid
        path.write_text(json.dumps(lease))

    def test_reclaim_races_have_one_winner(self, tmp_path):
        manager = LeaseManager(tmp_path, worker="crash")
        manager.acquire("k")
        self._forge_dead_pid(manager, "k")
        observed = manager.peek("k")
        claimers = [LeaseManager(tmp_path, worker=f"w{i}") for i in range(4)]
        wins = [c.reclaim("k", observed) for c in claimers]
        assert sum(wins) == 1

    def test_reclaim_refuses_live_and_foreign_leases(self, tmp_path):
        # re-verification under the reclaim mutex: a lease whose owner is
        # alive, or whose path was re-acquired by someone else since the
        # observation, must never be deleted
        manager = LeaseManager(tmp_path, worker="alive")
        manager.acquire("k")
        observed = manager.peek("k")
        other = LeaseManager(tmp_path, worker="other")
        assert not other.reclaim("k", observed)      # owner pid is alive
        assert manager.peek("k")["worker"] == "alive"
        # now simulate observe → reclaim-by-someone-else → re-acquire
        self._forge_dead_pid(manager, "k")
        stale = other.peek("k")
        assert other.reclaim("k", stale)
        third = LeaseManager(tmp_path, worker="third")
        assert third.acquire("k")                    # fresh lease on the path
        assert not other.reclaim("k", stale)         # stale view: refused
        assert other.peek("k")["worker"] == "third"  # fresh lease untouched

    def test_foreign_host_lease_uses_age(self, tmp_path):
        manager = LeaseManager(tmp_path, worker="w", stale_after=0.05)
        manager.acquire("k")
        path = manager._path("k")
        lease = json.loads(path.read_text())
        lease["host"] = "some-other-host"
        path.write_text(json.dumps(lease))
        fresh = manager.peek("k")
        assert not manager.is_stale("k", fresh)       # younger than horizon
        old = time.time() - 10
        os.utime(path, (old, old))
        assert manager.is_stale("k", manager.peek("k"))

    def test_failed_marker_round_trip(self, tmp_path):
        manager = LeaseManager(tmp_path, worker="w")
        manager.acquire("k")
        manager.mark_failed("k", "cell-7", "ValueError: boom")
        lease = manager.peek("k")
        assert lease["state"] == "failed" and lease["error"] == "ValueError: boom"
        assert not manager.is_stale("k", lease)       # failures never expire
        assert not manager.acquire("k")               # still occupied
        manager.clear_failure("k")
        assert manager.acquire("k")

    def test_execution_log_append(self, tmp_path):
        manager = LeaseManager(tmp_path, worker="w")
        manager.log_execution("k1", "cell-1")
        manager.log_execution("k2", "cell-2")
        log = read_execution_log(tmp_path)
        assert [r["key"] for r in log] == ["k1", "k2"]
        assert all(r["worker"] == "w" for r in log)


# ---------------------------------------------------------------------- #
# lease liveness (regressions: pid reuse, clock skew, identity stability)
# ---------------------------------------------------------------------- #
class TestLeaseLiveness:
    @staticmethod
    def _rewrite(manager, key, **fields):
        path = manager._path(key)
        lease = json.loads(path.read_text())
        lease.update(fields)
        path.write_text(json.dumps(lease))
        return json.loads(path.read_text())

    def test_worker_identity_is_memoized_per_process(self):
        from repro.store.shard import process_nonce, worker_identity

        # regression: identity used to mint a fresh uuid4 per call, so two
        # call sites comparing identities always disagreed
        assert worker_identity() == worker_identity()
        assert worker_identity().endswith(process_nonce())
        assert worker_identity().split(":")[1] == str(os.getpid())

    def test_worker_identity_differs_across_processes(self):
        from repro.store.shard import worker_identity

        with multiprocessing.Pool(1) as pool:
            child = pool.apply(worker_identity)
        assert child != worker_identity()

    def test_recycled_pid_lease_is_stale(self, tmp_path):
        # regression: a same-host lease whose recorded pid was recycled by
        # an unrelated process used to be immortal (pid alive → live).
        # A live process *started after the lease was acquired* cannot be
        # the lease's owner — incarnation check declares it stale.
        manager = LeaseManager(tmp_path, worker="crash")
        manager.acquire("k")
        victim = subprocess.Popen([sys.executable, "-c",
                                   "import time; time.sleep(60)"])
        try:
            self._rewrite(manager, "k", pid=victim.pid, nonce="dead0000",
                          acquired_at=time.time() - 60)
            observer = LeaseManager(tmp_path, worker="other")
            observed = observer.peek("k")
            assert observer.is_stale("k", observed)
            assert observer.reclaim("k", observed)
            assert observer.acquire("k")
        finally:
            victim.kill()
            victim.wait()

    def test_plausible_same_start_lease_stays_live(self, tmp_path):
        # the other side of the incarnation check: a live pid whose start
        # time predates the lease acquisition is (as far as the observer
        # can tell) the true owner — never stale
        manager = LeaseManager(tmp_path, worker="w")
        victim = subprocess.Popen([sys.executable, "-c",
                                   "import time; time.sleep(60)"])
        try:
            time.sleep(0.1)
            manager.acquire("k")   # acquired after the victim started
            lease = self._rewrite(manager, "k", pid=victim.pid,
                                  nonce="f0e1d2c3")
            assert not manager.is_stale("k", lease)
        finally:
            victim.kill()
            victim.wait()

    def test_own_pid_foreign_nonce_is_stale(self, tmp_path):
        # same host, same pid, different nonce: a previous incarnation of
        # *this* pid slot — the nonce comparison needs no /proc at all
        manager = LeaseManager(tmp_path, worker="w")
        manager.acquire("k")
        lease = self._rewrite(manager, "k", nonce="00000000")
        assert manager.is_stale("k", lease)

    def test_future_dated_foreign_lease_is_stale(self, tmp_path):
        # regression: age = now - mtime went negative for a foreign host
        # with a fast clock, so the lease never crossed the TTL.  Mtimes
        # beyond the plausibility slack are treated as stale immediately.
        manager = LeaseManager(tmp_path, worker="w", stale_after=0.05)
        manager.acquire("k")
        path = manager._path("k")
        future = time.time() + 900
        self._rewrite(manager, "k", host="fast-clock-host")
        os.utime(path, (future, future))
        assert manager.is_stale("k", manager.peek("k"))

    def test_slightly_future_foreign_lease_stays_live(self, tmp_path):
        # ordinary NFS-grade skew (seconds) must not trip the clamp
        manager = LeaseManager(tmp_path, worker="w", stale_after=30.0)
        manager.acquire("k")
        path = manager._path("k")
        near = time.time() + 5
        self._rewrite(manager, "k", host="slightly-fast-host")
        os.utime(path, (near, near))
        assert not manager.is_stale("k", manager.peek("k"))

    def test_release_refuses_foreign_lease(self, tmp_path):
        # late release after a reclaim + re-acquire: the old owner must not
        # clobber the new owner's lease
        old = LeaseManager(tmp_path, worker="old")
        new = LeaseManager(tmp_path, worker="new")
        old.acquire("k")
        old._path("k").unlink()     # reclaimed from under the old owner
        new.acquire("k")
        old.release("k")            # ownership check: not ours, no unlink
        assert new.peek("k")["worker"] == "new"
        new.release("k")
        assert new.peek("k") is None

    def test_negative_skew_chaos_schedule(self, tmp_path):
        # the stale-clock seam with *negative* skew future-dates a lease
        # (acquired_at and mtime pushed past now): before the clamp this
        # lease was unreclaimable and the sweep hung until the kill-worker
        # budget drained.  The pinned plan proves reclaim + exactly-once
        # now survive it.
        from chaos import assert_chaos_invariants, run_chaos_trial
        from repro.robustness import FaultPlan, FaultSpec

        plan = FaultPlan(specs=[
            FaultSpec("lease.acquire", "stale-clock", skew_s=-900.0),
            FaultSpec("worker.compute", "kill-worker"),
        ], seed=4242, journal=str(tmp_path / "journal.jsonl"))
        outcome = run_chaos_trial(tmp_path, seed=4242, workers=2, plan=plan)
        assert_chaos_invariants(outcome)
        fired = outcome.fired_seams()
        assert fired["lease.acquire"], "stale-clock fault never fired"
        assert fired["worker.compute"], "kill-worker fault never fired"


# ---------------------------------------------------------------------- #
# sharded execution
# ---------------------------------------------------------------------- #
class TestShardedExecution:
    def test_single_worker_resolves_sweep(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = _sweep(ns=(32, 48, 64))
        resolved = ShardWorker(store).run(sweep)
        assert set(resolved) == {0, 1, 2}
        assert len(store) == 3
        assert len(read_execution_log(store.root)) == 3
        assert not any(store.root.joinpath("shard", "leases").iterdir())

    def test_duplicate_cells_computed_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = _sweep(ns=(32, 32, 48))      # two cells share one key
        resolved = ShardWorker(store).run(sweep)
        assert set(resolved) == {0, 1, 2}
        assert len(read_execution_log(store.root)) == 2
        assert resolved[0] == resolved[1]

    def test_two_concurrent_workers_overlapping_sweeps(self, tmp_path):
        """Acceptance: overlapping sweeps, two live workers — every cell
        computed exactly once, merged report == cold serial report."""
        ns = (32, 40, 48, 56, 64, 72, 80, 96)
        union = _sweep(ns=ns, name="union")
        sweep_a = _sweep(ns=ns[:6], name="union")     # cells 0..5
        sweep_b = _sweep(ns=ns[2:], name="union")     # cells 2..7 (overlap)
        store = ResultStore(tmp_path / "store")
        store.cells_dir.mkdir(parents=True, exist_ok=True)
        procs = [_start_worker(store.root, sweep_a, "worker-a", delay=0.05),
                 _start_worker(store.root, sweep_b, "worker-b", delay=0.05)]
        _join_all(procs)

        log_keys = [r["key"] for r in read_execution_log(store.root)]
        assert sorted(log_keys) == sorted(set(log_keys))   # exactly once
        assert set(log_keys) == {store.key_for(c) for c in union.cells}

        merged = CachedSweepRunner(
            store, backend=ShardBackend(workers=0)).run(union)
        cold = CachedSweepRunner(ResultStore(tmp_path / "fresh"),
                                 backend="serial").run(union)
        assert merged == cold

    def test_kill_one_worker_mid_sweep_then_restart(self, tmp_path):
        """Satellite: SIGKILL one of two live workers mid-sweep, restart it;
        every cell still computed exactly once and the report == cold serial."""
        ns = (32, 40, 48, 56, 64, 72, 80, 96)
        sweep = _sweep(ns=ns, name="killer")
        store = ResultStore(tmp_path / "store")
        store.cells_dir.mkdir(parents=True, exist_ok=True)

        victim = _start_worker(store.root, sweep, "victim", delay=0.25)
        survivor = _start_worker(store.root, sweep, "survivor", delay=0.25)
        # wait until the fleet is demonstrably mid-sweep, then kill one
        deadline = time.monotonic() + 60
        while len(read_execution_log(store.root)) < 2:
            assert time.monotonic() < deadline, "workers made no progress"
            time.sleep(0.01)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()

        replacement = _start_worker(store.root, sweep, "victim-2", delay=0.0)
        _join_all([survivor, replacement])

        log_keys = [r["key"] for r in read_execution_log(store.root)]
        assert sorted(log_keys) == sorted(set(log_keys))   # exactly once
        assert set(log_keys) == {store.key_for(c) for c in sweep.cells}
        assert not any(store.root.joinpath("shard", "leases").iterdir())

        resumed = CachedSweepRunner(
            store, backend=ShardBackend(workers=0)).run(sweep)
        cold = CachedSweepRunner(ResultStore(tmp_path / "fresh"),
                                 backend="serial").run(sweep)
        assert resumed == cold

    def test_shard_backend_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store, backend="shard", max_workers=2)
        cold = runner.run(_sweep(ns=(32, 48, 64)))
        assert runner.last_stats.misses == 3
        warm = runner.run(_sweep(ns=(32, 48, 64)))
        assert runner.last_stats.hits == 3 and runner.last_stats.misses == 0
        assert warm == cold
        assert len(read_execution_log(store.root)) == 3

    def test_run_sweep_sharded_convenience(self, tmp_path):
        report = run_sweep_sharded(_sweep(), tmp_path / "store", workers=2)
        assert len(report) == 2
        assert len(ResultStore(tmp_path / "store")) == 2

    def test_shard_rerun_recomputes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CachedSweepRunner(store, backend="shard", max_workers=0).run(_sweep())
        runner = CachedSweepRunner(store, rerun=True, backend="shard",
                                   max_workers=0)
        runner.run(_sweep())
        assert runner.last_stats.misses == 2
        # the log shows both generations: each key computed twice overall
        log_keys = [r["key"] for r in read_execution_log(store.root)]
        assert len(log_keys) == 4 and len(set(log_keys)) == 2


# ---------------------------------------------------------------------- #
# backend plumbing & failure semantics
# ---------------------------------------------------------------------- #
class TestBackends:
    def test_resolve_backend_names(self):
        assert isinstance(resolve_backend(None, 0), SerialBackend)
        assert isinstance(resolve_backend(None, None), PoolBackend)
        assert isinstance(resolve_backend(None, 4), PoolBackend)
        assert isinstance(resolve_backend("serial", 4), SerialBackend)
        assert isinstance(resolve_backend("pool", 0), PoolBackend)
        assert isinstance(resolve_backend("shard", 2), ShardBackend)
        backend = SerialBackend()
        assert resolve_backend(backend, 0) is backend
        with pytest.raises(ValueError):
            resolve_backend("warp-drive", 0)

    def test_recommended_workers_at_least_one(self):
        assert recommended_workers() >= 1

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 0), ("pool", 2), ("shard", 2), ("http", 2)])
    def test_poisoned_cell_surfaces_per_cell(self, tmp_path, backend, workers):
        """Satellite: a raising cell must surface (label + error) instead of
        aborting or vanishing — and must not be persisted as a result."""
        store = ResultStore(tmp_path / backend)
        with _runner(store, backend, workers) as runner:
            report = runner.run(_poisoned_sweep())
        assert runner.last_stats.failures == 1
        assert "failures=1" in runner.last_stats.summary()
        failures = report.meta["failures"]
        assert len(failures) == 1
        assert failures[0]["cell"] == "bad"
        assert "no-such-rule" in failures[0]["error"]
        by_name = {c.config.name: c for c in report.cells}
        assert by_name["bad"].extra["failed"]
        assert by_name["bad"].num_runs == 0
        assert by_name["ok-32"].convergence_fraction == 1.0
        assert len(store) == 2               # the poisoned cell is not cached

    def test_poisoned_reports_equal_across_backends(self, tmp_path):
        """Satellite pin: serial ≡ pool ≡ shard ≡ http on a poisoned sweep."""
        reports = {}
        for backend, workers in (("serial", 0), ("pool", 2), ("shard", 2),
                                 ("http", 2)):
            with _runner(ResultStore(tmp_path / backend), backend,
                         workers) as runner:
                reports[backend] = runner.run(_poisoned_sweep())
        assert reports["serial"] == reports["pool"] == reports["shard"] \
            == reports["http"]

    def test_failed_marker_survives_and_dedups_workers(self, tmp_path,
                                                       monkeypatch):
        """Regression: the failure marker must outlive the worker's lease
        release, so a second worker reports the same failure WITHOUT
        re-executing the poisoned cell."""
        import repro.store.shard as shard_mod

        calls = []
        real_run_cell = shard_mod.run_cell
        monkeypatch.setattr(
            shard_mod, "run_cell",
            lambda cell: calls.append(cell.name) or real_run_cell(cell))

        store = ResultStore(tmp_path / "store")
        first = ShardWorker(store).run(_poisoned_sweep())
        assert calls.count("bad") == 1
        marker_names = [p.name for p in
                        store.root.joinpath("shard", "leases").iterdir()]
        assert len(marker_names) == 1            # exactly the failure marker
        second = ShardWorker(store).run(_poisoned_sweep())
        assert calls.count("bad") == 1           # not re-executed
        assert second == first                   # same failure reported

    def test_failed_cells_retry_on_next_coordinated_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store, backend="shard", max_workers=0)
        runner.run(_poisoned_sweep())
        assert runner.last_stats.failures == 1
        # second coordinated run: good cells hit, the bad one retries (fails
        # again) instead of being served a stale failure marker blindly
        runner.run(_poisoned_sweep())
        assert runner.last_stats.hits == 2 and runner.last_stats.misses == 1
        assert runner.last_stats.failures == 1

    def test_plain_run_sweep_captures_failures_both_paths(self):
        from repro.experiments.runner import run_sweep

        serial = run_sweep(_poisoned_sweep(), max_workers=0)
        pooled = run_sweep(_poisoned_sweep(), max_workers=2)
        assert serial == pooled
        assert serial.meta["failures"][0]["cell"] == "bad"

    def test_pooled_cells_now_equal_serial_cells(self):
        """Pooled summaries carry per-run rounds + serial-identical extra, so
        whole reports are backend-equal (the store-seam defect this PR fixes:
        a cache populated by pooled execution used to serve different cells
        than a serially-populated one)."""
        from repro.experiments.runner import run_sweep

        serial = run_sweep(_sweep(), max_workers=0)
        pooled = run_sweep(_sweep(), max_workers=2)
        assert serial == pooled
        assert pooled.cells[0].rounds == serial.cells[0].rounds != []


# ---------------------------------------------------------------------- #
# offline (zero-recompute) replay
# ---------------------------------------------------------------------- #
class TestOfflineReplay:
    def test_offline_miss_raises_store_miss_error(self, tmp_path):
        runner = CachedSweepRunner(ResultStore(tmp_path / "s"), offline=True)
        with pytest.raises(StoreMissError) as exc_info:
            runner.run(_sweep())
        assert "n=32" in str(exc_info.value)

    def test_offline_warm_runs_zero_simulation(self, tmp_path, monkeypatch):
        """Acceptance: warm offline replay == cold report with zero
        simulation, pinned by the execution counter AND a poisoned
        run_cell."""
        import repro.store.backends as backends_mod
        from repro.experiments import runner as exr

        store = ResultStore(tmp_path / "s")
        cold = CachedSweepRunner(store).run(_sweep())
        monkeypatch.setattr(
            backends_mod, "run_cell",
            lambda cell: pytest.fail("offline replay executed a cell"))
        before = exr.EXECUTION_STATS["run_cell_calls"]
        warm = CachedSweepRunner(store, offline=True).run(_sweep())
        assert exr.EXECUTION_STATS["run_cell_calls"] == before
        assert warm == cold

    def test_regenerate_figure_from_store(self, tmp_path, monkeypatch):
        """Acceptance: reproduce_* tables regenerate purely from the store."""
        import repro.store.backends as backends_mod
        from repro.experiments import runner as exr
        from repro.experiments.figures import (
            regenerate_from_store,
            reproduce_theorem1,
        )

        store = ResultStore(tmp_path / "s")
        cold = reproduce_theorem1(scale=0.02, num_runs=2,
                                  runner=CachedSweepRunner(store))
        monkeypatch.setattr(
            backends_mod, "run_cell",
            lambda cell: pytest.fail("figure regeneration executed a cell"))
        before = exr.EXECUTION_STATS["run_cell_calls"]
        warm = regenerate_from_store("theorem1", store, scale=0.02, num_runs=2)
        assert exr.EXECUTION_STATS["run_cell_calls"] == before
        assert warm.report == cold.report
        assert warm.table == cold.table

    def test_regenerate_unknown_figure(self, tmp_path):
        from repro.experiments.figures import regenerate_from_store

        with pytest.raises(KeyError):
            regenerate_from_store("figure99", tmp_path / "s")


# ---------------------------------------------------------------------- #
# NPZ rounds sidecars
# ---------------------------------------------------------------------- #
def _big_result(config, runs=1000, seed=3) -> CellResult:
    rng = np.random.default_rng(seed)
    rounds = (rng.integers(1, 60, size=runs) + rng.random(runs)).tolist()
    return CellResult(config=config, num_runs=runs, convergence_fraction=1.0,
                      mean_rounds=float(np.mean(rounds)),
                      median_rounds=float(np.median(rounds)),
                      p90_rounds=float(np.quantile(rounds, 0.9)),
                      max_rounds=float(np.max(rounds)), rounds=rounds)


class TestRoundsSidecar:
    def test_round_trip_bit_exact_at_large_r(self, tmp_path):
        """Acceptance: NPZ sidecar preserves per-run rounds bit-exactly at
        R >= 1000."""
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=1000)
        cfg = _config(num_runs=1000)
        result = _big_result(cfg, runs=1000)
        key = store.put(cfg, result)
        assert store._sidecar_path(key).exists()
        payload = json.loads(store._payload_path(key).read_text())
        assert payload["result"]["rounds"] == []          # JSON stays lean
        ref = payload["result"]["rounds_ref"]
        assert ref["format"] == "npz" and ref["count"] == 1000
        loaded = store.get(cfg).result
        assert loaded.rounds == result.rounds             # bit-exact
        assert loaded == result

    def test_below_threshold_stays_inline(self, tmp_path):
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=1000)
        cfg = _config(num_runs=999)
        key = store.put(cfg, _big_result(cfg, runs=999))
        assert not store._sidecar_path(key).exists()
        payload = json.loads(store._payload_path(key).read_text())
        assert "rounds_ref" not in payload["result"]
        assert len(payload["result"]["rounds"]) == 999

    def test_reader_without_threshold_still_loads_sidecar(self, tmp_path):
        writer = ResultStore(tmp_path / "s", rounds_sidecar_at=10)
        cfg = _config(num_runs=50)
        result = _big_result(cfg, runs=50)
        writer.put(cfg, result)
        reader = ResultStore(tmp_path / "s")        # no sidecar config at all
        assert reader.get(cfg).result.rounds == result.rounds

    def test_missing_sidecar_quarantines_payload(self, tmp_path):
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=10)
        cfg = _config(num_runs=20)
        key = store.put(cfg, _big_result(cfg, runs=20))
        store._sidecar_path(key).unlink()
        assert store.get(cfg) is None               # miss, not a crash
        assert not store._payload_path(key).exists()
        assert (store.quarantine_dir / f"{key}.json").exists()

    def test_corrupt_sidecar_quarantines_both(self, tmp_path):
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=10)
        cfg = _config(num_runs=20)
        key = store.put(cfg, _big_result(cfg, runs=20))
        store._sidecar_path(key).write_bytes(b"not an npz")
        assert store.get(cfg) is None
        assert (store.quarantine_dir / f"{key}.json").exists()
        assert (store.quarantine_dir / f"{key}.npz").exists()

    def test_overwrite_below_threshold_drops_sidecar(self, tmp_path):
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=10)
        cfg = _config(num_runs=20)
        key = store.put(cfg, _big_result(cfg, runs=20))
        assert store._sidecar_path(key).exists()
        small = ResultStore(tmp_path / "s", rounds_sidecar_at=None)
        small.put(cfg, _big_result(cfg, runs=20))
        assert not store._sidecar_path(key).exists()
        assert store.get(cfg).result.num_runs == 20

    def test_gc_validates_sidecars_and_sweeps_orphans(self, tmp_path):
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=10)
        cfg = _config(name="big", n=32, num_runs=20)
        key = store.put(cfg, _big_result(cfg, runs=20))
        ok = _config(name="ok", n=48)
        store.put(ok, _big_result(ok, runs=5))      # inline, no sidecar
        orphan = store.cells_dir / ("a" * 64 + ".npz")
        orphan.write_bytes(b"zombie sidecar")
        counts = store.gc()
        assert counts["kept"] == 2
        assert counts["orphan_sidecars"] == 1
        assert not orphan.exists()
        assert (store.quarantine_dir / orphan.name).exists()
        assert store._sidecar_path(key).exists()    # referenced one survives
        # now break the referenced sidecar: gc must quarantine the pair
        store._sidecar_path(key).write_bytes(b"broken")
        counts = store.gc()
        assert counts["kept"] == 1 and counts["quarantined"] == 1
        assert not store._payload_path(key).exists()

    def test_cached_sweep_with_sidecars_equals_cold(self, tmp_path):
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=3)
        runner = CachedSweepRunner(store)
        cold = runner.run(_sweep())                 # num_runs=3 → sidecars
        assert len(list(store.cells_dir.glob("*.npz"))) == 2
        warm = runner.run(_sweep())
        assert runner.last_stats.hits == 2
        assert warm == cold

    def test_info_counts_sidecars(self, tmp_path):
        store = ResultStore(tmp_path / "s", rounds_sidecar_at=10)
        cfg = _config(num_runs=20)
        store.put(cfg, _big_result(cfg, runs=20))
        info = store.info()
        assert info["sidecars"] == 1 and info["sidecar_bytes"] > 0


# ---------------------------------------------------------------------- #
# gc: dangling artifact records (satellite regression test)
# ---------------------------------------------------------------------- #
class TestGcDanglingArtifacts:
    def test_gc_flags_and_unflags_dangling_artifacts(self, tmp_path):
        from repro.store import ArtifactRegistry

        store = ResultStore(tmp_path / "s")
        cfg_a, cfg_b = _config(name="a", n=32), _config(name="b", n=48)
        runner = CachedSweepRunner(store)
        runner.run(_sweep(ns=(32, 48)))
        key_a, key_b = store.key_for(cfg_a), store.key_for(cfg_b)
        artifact = tmp_path / "report.json"
        artifact.write_text("{}")
        registry = ArtifactRegistry(store.root / "artifacts.json")
        registry.register(artifact, kind="test",
                          cell_keys={"a": key_a, "b": key_b})

        assert store.gc()["dangling_artifacts"] == 0

        store._payload_path(key_a).unlink()         # drop one input cell
        counts = store.gc()
        assert counts["dangling_artifacts"] == 1
        record = registry.records()[0]
        assert record["dangling_cell_keys"] == [key_a]

        runner.run(_sweep(ns=(32, 48)))             # recompute the cell
        counts = store.gc()
        assert counts["dangling_artifacts"] == 0
        assert "dangling_cell_keys" not in registry.records()[0]

    def test_quarantined_payload_also_dangles(self, tmp_path):
        from repro.store import ArtifactRegistry

        store = ResultStore(tmp_path / "s")
        runner = CachedSweepRunner(store)
        runner.run(_sweep(ns=(32,)))
        key = store.keys()[0]
        artifact = tmp_path / "bench.json"
        artifact.write_text("{}")
        ArtifactRegistry(store.root / "artifacts.json").register(
            artifact, kind="bench", cell_keys=[key])
        (store.cells_dir / f"{key}.json").write_text("garbage")
        counts = store.gc()
        assert counts["quarantined"] == 1
        assert counts["dangling_artifacts"] == 1


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestShardCli:
    def test_backend_shard_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                "--store", str(tmp_path / "store"),
                "--backend", "shard", "--workers", "2"]
        assert main(argv) == 0
        assert "misses=6" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hits=6 misses=0" in capsys.readouterr().out
        # 6 sweep cells, 5 unique keys: exactly-once is per content hash
        assert len(read_execution_log(tmp_path / "store")) == 5

    def test_worker_attach_mode(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                "--store", str(tmp_path / "store"), "--worker"]
        assert main(argv) == 0
        assert "misses=6" in capsys.readouterr().out

    def test_from_store_cold_fails_warm_succeeds(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        base = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                "--store", store_dir]
        assert main(base + ["--from-store"]) == 1          # cold: refuse
        assert "not in the store" in capsys.readouterr().err
        assert main(base) == 0                             # populate
        capsys.readouterr()
        assert main(base + ["--from-store"]) == 0          # warm: replay
        assert "hits=6 misses=0" in capsys.readouterr().out

    def test_store_only_flags_require_store(self, capsys):
        from repro.cli import main

        assert main(["sweep", "theorem1", "--backend", "shard"]) == 2
        assert "--store" in capsys.readouterr().err
        assert main(["sweep", "theorem1", "--worker"]) == 2
        assert main(["sweep", "theorem1", "--from-store"]) == 2

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.experiments import figures

        def poisoned_reproduce(runner=None, **kwargs):
            report = (runner.run(_poisoned_sweep()) if runner is not None
                      else __import__("repro.experiments.runner",
                                      fromlist=["run_sweep"]
                                      ).run_sweep(_poisoned_sweep()))
            return figures.FigureResult(report=report, fits=[],
                                        table="(poisoned)")

        monkeypatch.setitem(figures.FIGURE_REGISTRY, "theorem1",
                            poisoned_reproduce)
        assert main(["sweep", "theorem1",
                     "--store", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err
        assert "bad" in err and "no-such-rule" in err

    def test_sidecar_at_cli(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        assert main(["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                     "--store", str(store_dir), "--sidecar-at", "1"]) == 0
        capsys.readouterr()
        assert len(list((store_dir / "cells").glob("*.npz"))) == 5
        # gc keeps the referenced sidecars and reports cleanly
        assert main(["store", "gc", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "orphan_sidecars=0" in out and "dangling_artifacts=0" in out
