"""Coordinator-backed fleet transport: HTTP lease protocol + result push.

Covers the wire round-trips (store surface, claim / complete), the request
budget (a computed cell costs a claim and a complete), the NPZ sidecar pin
(rounds travel inline, the *server's* sidecar policy lands them on its
disk), the fleet guarantee — N workers on disjoint filesystems compute
every cell exactly once and the merged report equals cold serial — and the
outage pin: the coordinator killed mid-sweep, restarted on the same port,
with the budgeted client retries and the worker poll loop finishing the
sweep bit-identically.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from chaos import CHAOS_RETRY, chaos_sweep
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.runner import run_cell
from repro.robustness import DegradedExecutionWarning
from repro.store import (
    CachedSweepRunner,
    CoordinatorClient,
    CoordinatorError,
    CoordinatorServer,
    CoordinatorStore,
    HttpBackend,
    HttpLeaseClient,
    LeaseManager,
    ResultStore,
    cell_key,
    read_execution_log,
)
from repro.robustness.retry import RetryPolicy, classify_error

REPO_ROOT = Path(__file__).resolve().parent.parent

_FAST = RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02)


def _config(name="cell", n=32, **kwargs) -> ExperimentConfig:
    defaults = dict(name=name, workload="all-distinct",
                    workload_params={"n": n}, num_runs=2, seed=11)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------- #
# transport round-trips
# ---------------------------------------------------------------------- #
class TestTransport:
    def test_store_round_trip(self, tmp_path):
        with CoordinatorServer(tmp_path / "store") as server:
            store = CoordinatorStore(server.url)
            cfg = _config()
            assert store.get(cfg) is None and not store.contains(cfg)
            result = run_cell(cfg)
            key = store.put(cfg, result, {"note": "rt"})
            assert key == store.key_for(cfg)
            record = store.get(cfg)
            # bit-identical through JSON: stats, rounds, extra, provenance
            assert record.result.to_dict() == result.to_dict()
            assert record.provenance["note"] == "rt"
            # and the payload really lives in the server's store directory
            local = ResultStore(tmp_path / "store")
            assert local.get(key).result.to_dict() == result.to_dict()

    def test_lease_surface_round_trip(self, tmp_path):
        with CoordinatorServer(tmp_path / "store") as server:
            leases = HttpLeaseClient(server.url)
            rival = HttpLeaseClient(server.url, worker="rival")
            disk = LeaseManager(tmp_path / "store", worker="inspector")
            assert leases.claim("k").state == "acquired"
            assert rival.claim("k").state == "busy"      # exactly one winner
            lease = disk.peek("k")
            assert lease["worker"] == leases.worker
            assert lease["state"] == "running"
            assert not disk.is_stale("k", lease)
            rival.release("k")                # ownership check: not rival's
            assert disk.peek("k") is not None
            leases.release("k")
            assert disk.peek("k") is None
            leases.mark_failed("k", "cell", "ValueError: boom", attempts=2)
            marker = disk.peek("k")
            assert marker["state"] == "failed" and marker["attempts"] == 2
            # a permanent error or a spent budget reports the marker; a
            # transient one with budget left is claimed once, inheriting
            # the marker's attempts
            permanent = leases.claim("k", max_attempts=3)
            assert permanent.state == "failed"
            assert permanent.marker["attempts"] == 2
            leases.mark_failed("k", "cell", "OSError: flaky disk", attempts=2)
            assert leases.claim("k", max_attempts=2).state == "failed"
            claimed = leases.claim("k", max_attempts=3)
            assert claimed.state == "acquired" and claimed.prior_attempts == 2
            assert rival.claim("k", max_attempts=3).state == "busy"
            leases.release("k")
            leases.mark_failed("k", "cell", "ValueError: boom", attempts=2)
            assert leases.clear_failures(["k"]) == 1
            assert leases.clear_failures(["k"]) == 0

    def test_claim_returns_stored_record(self, tmp_path):
        with CoordinatorServer(tmp_path / "store") as server:
            cfg = _config()
            result = run_cell(cfg)
            key = CoordinatorStore(server.url).put(cfg, result, {})
            claim = HttpLeaseClient(server.url).claim(key)
            assert claim.state == "done"
            assert claim.record.result.to_dict() == result.to_dict()
            # a done cell takes no lease
            assert LeaseManager(tmp_path / "store").peek(key) is None

    def test_claim_reclaims_stale_foreign_lease(self, tmp_path):
        with CoordinatorServer(tmp_path / "store", stale_after=2.0) as server:
            disk = LeaseManager(tmp_path / "store", worker="ghost")
            assert disk.acquire("k", identity={
                "worker": "ghost", "pid": 1, "host": "elsewhere",
                "nonce": "0"})
            leases = HttpLeaseClient(server.url)
            assert leases.claim("k").state == "busy"     # fresh: still live
            backdated = time.time() - 60.0
            os.utime(disk.leases_dir / "k.json", (backdated, backdated))
            assert leases.claim("k").state == "acquired"
            assert disk.peek("k")["worker"] == leases.worker

    def test_claim_replaces_own_abandoned_lease(self, tmp_path):
        # a claim whose acknowledgement was lost leaves the caller's own
        # lease behind; the next claim releases it and acquires afresh
        with CoordinatorServer(tmp_path / "store") as server:
            disk = LeaseManager(tmp_path / "store", worker="inspector")
            leases = HttpLeaseClient(server.url)
            assert leases.claim("k").state == "acquired"
            first = disk.peek("k")["acquired_at"]
            assert leases.claim("k").state == "acquired"
            lease = disk.peek("k")
            assert lease["worker"] == leases.worker
            assert lease["acquired_at"] > first

    def test_execution_ledger_dedups_lost_ack_retries(self, tmp_path):
        with CoordinatorServer(tmp_path / "store") as server:
            leases = HttpLeaseClient(server.url)
            other = HttpLeaseClient(server.url, worker="other")
            cfg = _config()
            key, result = cell_key(cfg), run_cell(cfg)
            provenance = {"attempts": 1}
            assert leases.claim(key).state == "acquired"
            assert leases.complete(cfg, key, result, provenance)
            # retried lost ack: dropped
            assert leases.complete(cfg, key, result, provenance)
            # genuine recompute: recorded
            assert other.complete(cfg, key, result, provenance)
            ledger = read_execution_log(tmp_path / "store")
            assert [r["worker"] for r in ledger] == [leases.worker, "other"]
            assert LeaseManager(tmp_path / "store").peek(key) is None

    def test_mismatched_key_is_rejected(self, tmp_path):
        with CoordinatorServer(tmp_path / "store") as server:
            client = CoordinatorClient(server.url, retry=_FAST)
            cfg = _config()
            with pytest.raises(ValueError, match="hashes to"):
                client.request("PUT", "/api/v1/cells/" + "0" * 64, {
                    "config": cfg.to_dict(),
                    "result": run_cell(cfg).to_dict(),
                    "provenance": {},
                })

    def test_unreachable_coordinator_classifies_transient(self):
        client = CoordinatorClient("http://127.0.0.1:9", timeout=0.2,
                                   retry=_FAST)
        with pytest.raises(CoordinatorError) as excinfo:
            client.request("GET", "/api/v1/ping")
        # the whole outage-recovery story hangs on this classification:
        # worker loops keep the cell pending instead of dying
        assert isinstance(excinfo.value, (ConnectionError, OSError))
        assert classify_error(excinfo.value) == "transient"

    def test_sidecar_policy_is_server_side(self, tmp_path):
        # rounds travel inline over the wire; the server's own sidecar
        # policy (rounds_sidecar_at=1) lands them as NPZ next to the JSON
        local = ResultStore(tmp_path / "store", rounds_sidecar_at=1)
        with CoordinatorServer(local) as server:
            store = CoordinatorStore(server.url)
            cfg = _config()
            result = run_cell(cfg)
            key = store.put(cfg, result, {})
            sidecars = list((tmp_path / "store" / "cells").glob("*.npz"))
            assert [p.stem for p in sidecars] == [key]
            # and a remote get re-inlines them bit-identically
            assert store.get(cfg).result.rounds == result.rounds != []


# ---------------------------------------------------------------------- #
# fleet execution: disjoint filesystems, exactly once, == cold serial
# ---------------------------------------------------------------------- #
class TestHttpFleet:
    def test_two_workers_exactly_once_equals_serial(self, tmp_path):
        sweep = chaos_sweep()
        baseline = CachedSweepRunner(ResultStore(tmp_path / "serial"),
                                     backend="serial").run(sweep)
        with CoordinatorServer(tmp_path / "coord", stale_after=2.0) as server:
            runner = CachedSweepRunner(
                CoordinatorStore(server.url),
                backend=HttpBackend(server.url, workers=2,
                                    poll_interval=0.02))
            report = runner.run(sweep)
            assert report == baseline
            assert runner.last_stats.misses == 4
            ledger = read_execution_log(tmp_path / "coord")
            assert len(ledger) == len({r["key"] for r in ledger}) == 4
            # no lease or marker files survive the run
            leases_dir = tmp_path / "coord" / "shard" / "leases"
            assert list(leases_dir.glob("*.json")) == []
            # warm pass: all hits, ledger untouched
            warm = CachedSweepRunner(
                CoordinatorStore(server.url),
                backend=HttpBackend(server.url, workers=2,
                                    poll_interval=0.02))
            assert warm.run(sweep) == baseline
            assert warm.last_stats.hits == 4 and warm.last_stats.misses == 0
            assert len(read_execution_log(tmp_path / "coord")) == 4

    def test_store_less_cli_workers_cooperate(self, tmp_path):
        # the real disjoint-filesystem shape: two CLI processes with *no*
        # --store at all, attached purely through the coordinator URL
        with CoordinatorServer(tmp_path / "coord", stale_after=5.0) as server:
            cmd = [sys.executable, "-m", "repro", "sweep", "theorem1",
                   "--scale", "0.1", "--runs", "2",
                   "--worker", "--coordinator", server.url]
            procs = [subprocess.Popen(cmd, cwd=str(REPO_ROOT),
                                      env={"PYTHONPATH": str(REPO_ROOT / "src"),
                                           "PATH": "/usr/bin:/bin"},
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True)
                     for _ in range(2)]
            outs = [p.communicate(timeout=240)[0] for p in procs]
            assert all(p.returncode == 0 for p in procs), outs
            ledger = read_execution_log(tmp_path / "coord")
            # theorem1 at scale 0.1 dedups its 6 cells to 5 unique keys
            assert len(ledger) == len({r["key"] for r in ledger}) == 5

    def test_unreachable_coordinator_degrades_to_pool(self, tmp_path):
        sweep = chaos_sweep()
        baseline = CachedSweepRunner(ResultStore(tmp_path / "serial"),
                                     backend="serial").run(sweep)
        dead = "http://127.0.0.1:9"
        backend = HttpBackend(dead, workers=2, timeout=0.2)
        runner = CachedSweepRunner(CoordinatorStore(
            CoordinatorClient(dead, timeout=0.2, retry=_FAST)),
            backend=backend)
        with pytest.warns(DegradedExecutionWarning):
            report = runner.run(sweep)
        # results computed anyway (pool), just not persisted anywhere
        assert report == baseline


# ---------------------------------------------------------------------- #
# request budget: one coordinator request per fleet step
# ---------------------------------------------------------------------- #
class TestRequestBudget:
    def test_fleet_makes_at_most_four_requests_per_computed_cell(
            self, tmp_path, monkeypatch):
        # ping, partition, clears, claims, completes and the mop-up, all
        # in: a computed cell costs a claim and a complete, and each worker
        # probes the cells the other one holds
        handled = []
        real_handle = CoordinatorServer.handle

        def counting_handle(self, method, path, body):
            handled.append(f"{method} {re.sub('[0-9a-f]{64}$', '<key>', path)}")
            return real_handle(self, method, path, body)

        monkeypatch.setattr(CoordinatorServer, "handle", counting_handle)
        sweep = SweepConfig(name="budget", description="request budget")
        for n in range(16, 80, 2):
            sweep.add(_config(name=f"n={n}", n=n))
        with CoordinatorServer(tmp_path / "coord") as server:
            runner = CachedSweepRunner(
                CoordinatorStore(server.url),
                backend=HttpBackend(server.url, workers=2))
            report = runner.run(sweep)
        assert not report.meta.get("failures")
        computed = len(read_execution_log(tmp_path / "coord"))
        assert computed == len(sweep.cells) == 32
        assert len(handled) <= 4 * computed, Counter(handled)


# ---------------------------------------------------------------------- #
# the outage pin: coordinator killed mid-sweep, fleet retries and finishes
# ---------------------------------------------------------------------- #
class TestCoordinatorOutage:
    def test_outage_mid_sweep_recovers_exactly_once(self, tmp_path):
        sweep = chaos_sweep()
        baseline = CachedSweepRunner(ResultStore(tmp_path / "serial"),
                                     backend="serial").run(sweep)
        server = CoordinatorServer(tmp_path / "coord", stale_after=2.0)
        server.start()
        port = int(server.url.rsplit(":", 1)[1])
        runner = CachedSweepRunner(
            CoordinatorStore(server.url),
            backend=HttpBackend(server.url, workers=2, poll_interval=0.02),
            retry=CHAOS_RETRY)
        box = {}

        def coordinate():
            box["report"] = runner.run(sweep)

        thread = threading.Thread(target=coordinate)
        thread.start()
        try:
            # wait for the fleet to make real progress...
            deadline = time.time() + 60
            while time.time() < deadline \
                    and not read_execution_log(tmp_path / "coord"):
                time.sleep(0.02)
            assert read_execution_log(tmp_path / "coord"), \
                "fleet made no progress before the injected outage"
            # ...then yank the coordinator out from under it
            server.stop()
            time.sleep(0.3)   # transport budgets drain, cells go pending
            server = CoordinatorServer(tmp_path / "coord", port=port,
                                       stale_after=2.0).start()
            thread.join(timeout=180)
            assert not thread.is_alive(), "fleet never finished after outage"
        finally:
            server.stop()
            thread.join(timeout=10)

        assert box["report"] == baseline
        ledger = read_execution_log(tmp_path / "coord")
        assert len(ledger) == len({r["key"] for r in ledger}) == 4, ledger
        leases_dir = tmp_path / "coord" / "shard" / "leases"
        assert list(leases_dir.glob("*.json")) == []


# ---------------------------------------------------------------------- #
# CLI argument surface
# ---------------------------------------------------------------------- #
class TestHttpCli:
    def test_http_backend_requires_coordinator_or_serve(self, capsys):
        from repro.cli import main

        assert main(["sweep", "theorem1", "--backend", "http"]) == 2
        assert "--coordinator" in capsys.readouterr().err

    def test_serve_requires_local_store(self, capsys):
        from repro.cli import main

        assert main(["sweep", "theorem1", "--serve"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_serve_conflicts_with_coordinator(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "theorem1", "--store", str(tmp_path / "s"),
                     "--serve", "--coordinator",
                     "http://127.0.0.1:1"]) == 2
        assert "cannot also attach" in capsys.readouterr().err

    def test_coordinator_implies_http_backend(self, capsys):
        from repro.cli import main

        assert main(["sweep", "theorem1", "--coordinator",
                     "http://127.0.0.1:1", "--backend", "shard"]) == 2
        assert "imply --backend http" in capsys.readouterr().err

    def test_serve_rerun_recomputes_warm_store(self, tmp_path, capsys):
        # --rerun under --serve must drop the stale payloads of the *local*
        # store the coordinator serves, or the fleet recomputes nothing
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        argv = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                "--store", store_dir]
        assert main(argv) == 0                     # warm the store serially
        before = len(read_execution_log(store_dir))
        assert main(argv + ["--serve", "127.0.0.1:0", "--workers", "0",
                            "--rerun"]) == 0
        assert "misses=6" in capsys.readouterr().out
        # one ledger line per distinct cell (6 cells, 5 unique keys)
        assert len(read_execution_log(store_dir)) - before == 5

    def test_http_workers_start_by_spawn(self):
        # forked children would inherit the coordinator's listening socket
        assert HttpBackend("http://127.0.0.1:1").start_method == "spawn"

    def test_serve_runs_sweep_through_coordinator(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        argv = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                "--store", store_dir, "--serve", "127.0.0.1:0",
                "--workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "coordinator: http://127.0.0.1:" in out
        assert "misses=6" in out
        ledger = read_execution_log(store_dir)
        assert len(ledger) == len({r["key"] for r in ledger}) == 5
