"""Structured telemetry: spans, metrics, per-process shards, merged traces.

Covers the observability acceptance contract:

* disarmed tracing is a true no-op — shared noop span, no files, no ``obs/``
  directory, and a report byte-identical to a traced run's;
* deterministic span ids — same (name, key) in every process and across
  worker restarts;
* a traced 2-worker sharded chaos run (pinned fault plan, SIGKILL included)
  yields a well-formed merged span tree whose counters reconcile exactly
  with the shard execution ledger and the cache statistics, tolerating
  shards torn by killed workers;
* warnings raised inside the sweep stack dual-emit as structured trace
  events, visible from worker subprocesses;
* the CLI surface: ``sweep --trace``, ``obs summarize``/``validate``,
  ``store info --json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from chaos import CHAOS_RETRY, chaos_sweep, clean_reference
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import merge_trace, read_trace, validate_trace
from repro.obs.trace import NOOP_SPAN, span_id_for
from repro.robustness import FaultPlan, FaultSpec, StoreIntegrityWarning
from repro.robustness import activate as faults_activate
from repro.robustness import deactivate as faults_deactivate
from repro.store import (
    CachedSweepRunner,
    CoordinatorServer,
    CoordinatorStore,
    HttpBackend,
    ResultStore,
    ShardBackend,
    read_execution_log,
)


@pytest.fixture(autouse=True)
def _disarm_everything():
    """Leave no tracer, fault plan, or env handoff behind — ever."""
    yield
    obs_trace.deactivate()
    faults_deactivate()
    os.environ.pop(obs_trace.ENV_VAR, None)
    os.environ.pop(obs_trace.PARENT_ENV_VAR, None)


def _sweep(name="obs-mini", ns=(24, 32, 40)) -> SweepConfig:
    sweep = SweepConfig(name=name, description="obs test sweep")
    for n in ns:
        sweep.add(ExperimentConfig(name=f"n={n}", workload="all-distinct",
                                   workload_params={"n": n}, num_runs=2,
                                   seed=11))
    return sweep


# ---------------------------------------------------------------------- #
# span identity and the disabled path
# ---------------------------------------------------------------------- #
class TestTraceCore:
    def test_span_ids_deterministic_across_processes_and_restarts(self):
        a = span_id_for("cell.compute", "deadbeef" * 8)
        b = span_id_for("cell.compute", "deadbeef" * 8)
        assert a == b and len(a) == 16
        assert a != span_id_for("cell.compute", "cafef00d" * 8)
        assert a != span_id_for("sweep", "deadbeef" * 8)

    def test_volatile_attrs_never_enter_the_id(self, tmp_path):
        tracer = obs_trace.activate(tmp_path / "obs", export_env=False)
        with tracer.span("cell.compute", key="k1", backend="serial") as s1:
            s1.set(outcome="computed", attempts=3)
        with tracer.span("cell.compute", key="k1", backend="shard") as s2:
            s2.set(outcome="failed")
        assert s1.span_id == s2.span_id == span_id_for("cell.compute", "k1")

    def test_disarmed_span_is_the_shared_noop(self):
        obs_trace.deactivate()
        assert not obs_trace.enabled()
        assert obs_trace.span("cell.compute", key="x") is NOOP_SPAN
        with obs_trace.span("anything") as s:
            assert s.set(outcome="ignored") is NOOP_SPAN
        # events and metrics are silent no-ops, even for bogus names
        obs_trace.event("whatever")
        obs_metrics.count("not.a.metric")
        obs_metrics.observe("also.not.a.metric", 1.0)

    def test_armed_metrics_reject_uncataloged_names(self, tmp_path):
        obs_trace.activate(tmp_path / "obs", export_env=False)
        with pytest.raises(ValueError, match="uncataloged"):
            obs_metrics.count("not.a.metric")
        with pytest.raises(ValueError, match="histogram"):
            obs_metrics.count("cell.elapsed_s")   # histogram via count()

    def test_activate_exports_env_and_deactivate_clears_it(self, tmp_path):
        obs_trace.activate(tmp_path / "obs")
        assert os.environ[obs_trace.ENV_VAR] == str(tmp_path / "obs")
        obs_trace.deactivate()
        assert obs_trace.ENV_VAR not in os.environ
        assert not obs_trace.enabled()

    def test_nonfinite_attrs_serialize_and_validate(self, tmp_path):
        obs_trace.activate(tmp_path / "obs", export_env=False)
        with obs_trace.span("sweep", key="s", bad=float("nan")):
            obs_trace.event("probe", inf=float("inf"), obj=object())
        obs_trace.deactivate()
        stats = validate_trace(tmp_path / "obs")
        assert stats["torn"] == 0 and stats["span"] == 1

    def test_broken_sink_never_raises_into_the_host(self, tmp_path):
        sink_parent = tmp_path / "blocked"
        sink_parent.write_text("a file, not a directory")
        obs_trace.activate(sink_parent / "obs", export_env=False)
        with obs_trace.span("sweep", key="s"):
            obs_trace.event("probe")
            obs_metrics.count("cells.computed")


# ---------------------------------------------------------------------- #
# disabled path: no files, byte-identical report
# ---------------------------------------------------------------------- #
class TestDisabledPath:
    def test_untraced_sweep_writes_no_obs_dir_and_identical_report(
            self, tmp_path):
        sweep = _sweep()

        traced_store = ResultStore(tmp_path / "traced")
        obs_trace.activate(tmp_path / "traced" / "obs")
        try:
            traced = CachedSweepRunner(traced_store,
                                       backend="serial").run(sweep)
        finally:
            obs_trace.deactivate()

        plain_store = ResultStore(tmp_path / "plain")
        plain = CachedSweepRunner(plain_store, backend="serial").run(sweep)

        assert (tmp_path / "traced" / "obs").is_dir()
        assert not (tmp_path / "plain" / "obs").exists()
        assert not list((tmp_path / "plain").rglob("trace-*.jsonl"))

        # tracing is observational only: the reports are byte-identical
        traced.save_json(tmp_path / "traced.json")
        plain.save_json(tmp_path / "plain.json")
        assert (tmp_path / "traced.json").read_bytes() == \
            (tmp_path / "plain.json").read_bytes()

    def test_empty_trace_dir_reads_as_empty(self, tmp_path):
        records, stats = read_trace(tmp_path / "nowhere")
        assert records == [] and stats == {"files": 0, "lines": 0, "torn": 0}


# ---------------------------------------------------------------------- #
# traced serial execution: tree shape + counter reconciliation
# ---------------------------------------------------------------------- #
class TestTracedSerial:
    def test_counters_reconcile_and_tree_is_well_formed(self, tmp_path):
        sweep = _sweep()
        store = ResultStore(tmp_path / "store")
        obs_trace.activate(tmp_path / "store" / "obs")
        try:
            runner = CachedSweepRunner(store, backend="serial")
            runner.run(sweep)     # cold: all misses
            runner.run(sweep)     # warm: all hits
        finally:
            obs_trace.deactivate()

        stats = validate_trace(tmp_path / "store" / "obs")
        assert stats["torn"] == 0 and stats["span"] >= 5

        merged = merge_trace(tmp_path / "store" / "obs")
        c = merged.counters
        assert c["cache.hits"] + c["cache.misses"] == 2 * len(sweep)
        assert c["cells.computed"] == len(sweep)
        assert c["store.put"] == len(sweep)
        assert c["store.get.hit"] == len(sweep)
        assert "cells.failed" not in c

        sweeps = merged.spans_named("sweep")
        assert len(sweeps) == 2
        cold = next(s for s in sweeps if s.children)
        assert len(cold.children) == len(sweep)
        for node in cold.children:
            assert node.name == "cell.compute"
            assert node.attrs["outcome"] == "computed"
            key = node.attrs["cell"]
            assert node.span_id == span_id_for("cell.compute", key)
            assert key == store.key_for(
                next(cell for cell in sweep
                     if cell.name == node.attrs["cell_label"]))
        assert merged.histograms["cell.elapsed_s"]["count"] == len(sweep)

    def test_tree_lines_render_every_root(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        obs_trace.activate(tmp_path / "store" / "obs")
        try:
            CachedSweepRunner(store, backend="serial").run(_sweep(ns=(24,)))
        finally:
            obs_trace.deactivate()
        lines = merge_trace(tmp_path / "store" / "obs").tree_lines()
        assert any(line.startswith("sweep ") for line in lines)
        assert any("cell.compute" in line and "[computed]" in line
                   for line in lines)


class TestTracedBackends:
    def test_serial_shard_and_http_each_count_their_computations(self, tmp_path):
        """One trace over cold serial, shard and http runs of a two-cell
        sweep: the merged counters see each backend compute both cells,
        including the spawned http workers that inherit the trace."""
        sweep = SweepConfig(name="backends", description="traced backends")
        for n in (256, 512):
            sweep.add(ExperimentConfig(name=f"n={n}", workload="uniform-random",
                                       workload_params={"n": n, "m": 8},
                                       num_runs=4, seed=1234,
                                       engine="vectorized"))
        obs_trace.activate(tmp_path / "obs")
        try:
            for backend in ("serial", "shard"):
                CachedSweepRunner(ResultStore(tmp_path / backend),
                                  backend=backend, max_workers=2).run(sweep)
            with CoordinatorServer(ResultStore(tmp_path / "http")) as server:
                CachedSweepRunner(CoordinatorStore(server.url),
                                  backend=HttpBackend(server.url, workers=2)
                                  ).run(sweep)
        finally:
            obs_trace.deactivate()
        assert merge_trace(tmp_path / "obs").counters["cells.computed"] == 6


# ---------------------------------------------------------------------- #
# the acceptance gate: traced 2-worker sharded chaos run
# ---------------------------------------------------------------------- #
class TestTracedShardChaos:
    #: Pinned schedule: transient raises, a lease hiccup and one SIGKILL —
    #: but no shard.log_append faults, so the execution ledger stays exact
    #: and the computed-cell reconciliation below can demand equality.
    def _plan(self, journal: Path) -> FaultPlan:
        return FaultPlan(specs=[
            FaultSpec("worker.compute", "raise", times=2),
            FaultSpec("lease.acquire", "raise", times=1),
            FaultSpec("worker.compute", "kill-worker", times=1),
        ], seed=1234, journal=str(journal))

    def test_traced_chaos_run_reconciles_exactly(self, tmp_path):
        sweep = chaos_sweep()
        clean = clean_reference(tmp_path)          # before tracing arms
        store = ResultStore(tmp_path / "store", rounds_sidecar_at=1)
        trace_dir = store.root / "obs"

        obs_trace.activate(trace_dir)
        faults_activate(self._plan(tmp_path / "journal.jsonl"))
        try:
            runner = CachedSweepRunner(
                store,
                backend=ShardBackend(workers=2, stale_after=2.0,
                                     poll_interval=0.02),
                retry=CHAOS_RETRY)
            report = runner.run(sweep)
        finally:
            faults_deactivate()
            obs_trace.deactivate()

        assert report == clean   # telemetry never changes what is reported

        stats = validate_trace(trace_dir)          # every line, full schema
        assert stats["torn"] == 0

        merged = merge_trace(trace_dir)
        c = merged.counters
        ledger = read_execution_log(store.root)

        # computed-cell events reconcile 1:1 with the execution ledger
        assert c["cells.computed"] == len(ledger) == len(sweep)
        # hit/miss partition covers the sweep
        assert c.get("cache.hits", 0) + c["cache.misses"] == len(sweep)
        # the faulted run healed: nothing failed terminally
        assert "cells.failed" not in c
        # the lease protocol balanced its books
        assert c["lease.acquired"] >= len(sweep)
        assert c["lease.released"] + c.get("lease.reclaimed", 0) >= \
            c["lease.acquired"] - 1   # a SIGKILLed holder never releases

        # coordinator + 2 workers at least (a killed worker is replaced by
        # lease reclaim, not process respawn, so exactly 3 here)
        assert len(merged.processes) >= 3

        # every retry event carries the canonical cell hash
        retries = merged.events_named("retry")
        assert retries, "pinned raise faults must produce retry events"
        keys = {record["key"] for record in ledger}
        for event in retries:
            assert event["attrs"]["cell"] in keys

        # fault firings are correlated by cell identity: compute seams carry
        # the cell label, lease seams the canonical cell hash
        fired = merged.events_named("fault.fired")
        assert fired, "pinned plan must trace its firings"
        labels = {cell.name for cell in sweep}
        compute_faults = [e for e in fired
                          if e["attrs"]["seam"] == "worker.compute"]
        assert compute_faults
        for event in compute_faults:
            assert event["attrs"]["cell"] in labels
        lease_faults = [e for e in fired
                        if e["attrs"]["seam"] == "lease.acquire"]
        assert lease_faults
        for event in lease_faults:
            assert event["attrs"]["key"] in keys

        # the merged tree: one sweep root spanning the whole fleet, every
        # surviving cell.compute attached under it with a stable id
        roots = [n for n in merged.roots if n.name == "sweep"]
        assert len(roots) == 1
        cell_nodes = [n for n in roots[0].walk() if n.name == "cell.compute"]
        assert cell_nodes
        for node in cell_nodes:
            assert node.span_id == span_id_for("cell.compute",
                                               node.attrs["cell"])
        # the SIGKILLed attempt wrote no span record; the recomputing
        # worker's span for that cell carries the same deterministic id
        assert {n.attrs["cell"] for n in cell_nodes
                if n.attrs.get("outcome") == "computed"} == keys

    def test_merge_tolerates_torn_trace_shards(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        obs_trace.activate(store.root / "obs")
        try:
            CachedSweepRunner(store, backend="serial").run(_sweep())
        finally:
            obs_trace.deactivate()

        merged = merge_trace(store.root / "obs")
        baseline = dict(merged.counters)

        # tear the shard the way a SIGKILL mid-append would: a truncated
        # JSON line and stray bytes with no newline discipline
        shard = next((store.root / "obs").glob("trace-*.jsonl"))
        with shard.open("a") as fh:
            fh.write('{"schema": 1, "kind": "metric", "met')
            fh.write("\n\x00garbage\n")

        from repro.robustness import TornLogWarning
        with pytest.warns(TornLogWarning, match="undecodable"):
            torn = merge_trace(store.root / "obs")
        assert torn.stats["torn"] == 2
        assert torn.counters == baseline   # surviving lines unaffected
        with pytest.warns(TornLogWarning):
            stats = validate_trace(store.root / "obs")
        assert stats["torn"] == 2

    def test_orphan_spans_surface_as_flagged_roots(self, tmp_path):
        obs_trace.activate(tmp_path / "obs", export_env=False)
        tracer = obs_trace.active_tracer()
        # child span whose parent record is never written (killed parent)
        tracer.write({"kind": "span", "name": "cell.compute",
                      "span": span_id_for("cell.compute", "k1"),
                      "parent": "feedfacedeadbeef", "at": 1.0,
                      "dur_s": 0.5, "attrs": {"cell": "k1"}})
        obs_trace.deactivate()
        merged = merge_trace(tmp_path / "obs")
        assert len(merged.roots) == 1
        assert merged.roots[0].orphan


# ---------------------------------------------------------------------- #
# warnings dual-emitted as structured events
# ---------------------------------------------------------------------- #
class TestWarningEvents:
    def test_store_quarantine_emits_structured_warning(self, tmp_path):
        sweep = _sweep(ns=(24,))
        store = ResultStore(tmp_path / "store")
        faults_activate(FaultPlan(specs=[
            FaultSpec("store.payload_write", "torn-write")]),
            export_env=False)
        CachedSweepRunner(store, backend="serial").run(sweep)
        faults_deactivate()

        obs_trace.activate(store.root / "obs")
        try:
            with pytest.warns(StoreIntegrityWarning):
                warm = CachedSweepRunner(store, backend="serial").run(sweep)
        finally:
            obs_trace.deactivate()
        assert warm.cells[0].mean_rounds is not None

        merged = merge_trace(store.root / "obs")
        warnings_ = merged.events_named("warning")
        categories = {e["attrs"]["category"] for e in warnings_}
        assert "StoreIntegrityWarning" in categories
        quarantine = next(e for e in warnings_
                          if e["attrs"]["category"] == "StoreIntegrityWarning")
        assert quarantine["attrs"]["cell"] == store.key_for(sweep.cells[0])
        assert merged.counters["store.quarantine"] == 1

    def test_shard_to_pool_degradation_emits_structured_warning(
            self, tmp_path):
        from repro.robustness import DegradedExecutionWarning

        store = ResultStore(tmp_path / "store")
        (store.root / "shard").write_text("not a directory")
        obs_trace.activate(store.root / "obs")
        try:
            runner = CachedSweepRunner(store,
                                       backend=ShardBackend(workers=0))
            with pytest.warns(DegradedExecutionWarning, match="lease"):
                runner.run(_sweep(ns=(24,)))
        finally:
            obs_trace.deactivate()

        merged = merge_trace(store.root / "obs")
        degraded = [e for e in merged.events_named("warning")
                    if e["attrs"]["category"] == "DegradedExecutionWarning"]
        assert degraded and degraded[0]["attrs"]["rung"] == "shard-to-pool"
        assert merged.counters["degraded"] == 1
        assert merged.counter_labels["degraded"] == {
            json.dumps({"rung": "shard-to-pool"}): 1}


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestCLI:
    def _run_traced_sweep(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "st"
        code = main(["sweep", "theorem1", "--scale", "0.05", "--runs", "2",
                     "--store", str(store), "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace: {store / 'obs'}" in out
        return store

    def test_sweep_trace_auto_requires_store(self, capsys):
        from repro.cli import main

        assert main(["sweep", "theorem1", "--trace"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_sweep_trace_then_obs_summarize_and_validate(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        store = self._run_traced_sweep(tmp_path, capsys)
        assert main(["obs", "validate", "--trace", str(store / "obs")]) == 0
        assert "metric" in capsys.readouterr().out

        assert main(["obs", "summarize", "--trace", str(store / "obs")]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "cell.compute" in out
        assert "counter.cells.computed" in out

        assert main(["obs", "summarize", "--trace", str(store / "obs"),
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counters"]["cells.computed"] >= 1
        assert summary["schema"] == obs_trace.TRACE_SCHEMA_VERSION
        # the CLI left this process disarmed
        assert not obs_trace.enabled()

    def test_obs_summarize_empty_dir_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "summarize",
                     "--trace", str(tmp_path / "nothing")]) == 1
        assert main(["obs", "validate",
                     "--trace", str(tmp_path / "nothing")]) == 1

    def test_store_info_json_summary_and_record(self, tmp_path, capsys):
        from repro.cli import main

        store = self._run_traced_sweep(tmp_path, capsys)
        assert main(["store", "info", "--store", str(store), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] >= 1
        assert info["trace_files"] >= 1
        assert info["failed_cells"] == []

        key = ResultStore(store).keys()[0]
        assert main(["store", "info", "--store", str(store), key,
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["key"] == key
        assert isinstance(record["config"], dict)
        assert isinstance(record["provenance"], dict)

    def test_store_info_plain_shows_trace_aggregates(self, tmp_path, capsys):
        from repro.cli import main

        store = self._run_traced_sweep(tmp_path, capsys)
        assert main(["store", "info", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "trace_lines" in out and "trace_counters" in out
        assert "cells.computed=" in out
