"""Tests for repro.store: hashing, ResultStore, CachedSweepRunner, artifacts."""

from __future__ import annotations

import json
import math

import pytest

import repro.store.backends as store_backends_mod
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult, ExperimentReport
from repro.experiments.runner import run_sweep
from repro.store import (
    ArtifactRegistry,
    CachedSweepRunner,
    ResultStore,
    build_provenance,
    canonical_cell_dict,
    cell_key,
    run_sweep_cached,
)
from repro.store.store import STORE_SCHEMA_VERSION


def _config(name="cell", n=48, engine="vectorized", **kwargs) -> ExperimentConfig:
    defaults = dict(name=name, workload="all-distinct",
                    workload_params={"n": n}, num_runs=3, seed=11,
                    engine=engine)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _sweep(ns=(32, 48), **kwargs) -> SweepConfig:
    sweep = SweepConfig(name="mini", description="store test sweep")
    for n in ns:
        sweep.add(_config(name=f"n={n}", n=n, **kwargs))
    return sweep


def _result(config: ExperimentConfig, mean=10.0) -> CellResult:
    return CellResult(config=config, num_runs=config.num_runs,
                      convergence_fraction=1.0, mean_rounds=mean,
                      median_rounds=mean, p90_rounds=mean + 1,
                      max_rounds=mean + 2, rounds=[mean] * config.num_runs)


class TestCellKey:
    def test_stable_across_dict_ordering(self):
        a = ExperimentConfig(name="x", workload="uniform-random",
                             workload_params={"n": 64, "m": 4},
                             rule_params={"k": 3, "j": 1}, num_runs=2, seed=1)
        b = ExperimentConfig(name="x", workload="uniform-random",
                             workload_params={"m": 4, "n": 64},
                             rule_params={"j": 1, "k": 3}, num_runs=2, seed=1)
        assert cell_key(a) == cell_key(b)

    def test_engine_independent(self):
        keys = {cell_key(_config(engine=e))
                for e in ("vectorized", "occupancy", "occupancy-fused")}
        assert len(keys) == 1

    def test_name_independent(self):
        assert cell_key(_config(name="a")) == cell_key(_config(name="renamed"))

    def test_zero_budget_adversary_normalized_to_null(self):
        armed = _config(adversary="balancing", adversary_budget=0)
        null = _config(adversary="null", adversary_budget=0)
        assert cell_key(armed) == cell_key(null)
        assert canonical_cell_dict(armed)["adversary"] == "null"

    def test_budget_matters(self):
        a = _config(adversary="balancing", adversary_budget=2)
        b = _config(adversary="balancing", adversary_budget=3)
        assert cell_key(a) != cell_key(b)

    def test_seed_and_runs_are_key_material(self):
        assert cell_key(_config(seed=1)) != cell_key(_config(seed=2))
        assert cell_key(_config(num_runs=3)) != cell_key(_config(num_runs=4))

    def test_key_excludes_only_name_and_engine(self):
        dropped = set(_config().to_dict()) - set(canonical_cell_dict(_config()))
        assert dropped == {"name", "engine"}


class TestResultStore:
    def test_put_get_contains(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = _config()
        assert not store.contains(cfg)
        key = store.put(cfg, _result(cfg), {"engine": "vectorized", "seed": 11})
        assert store.contains(cfg) and store.contains(key)
        record = store.get(cfg)
        assert record.key == key
        assert record.schema == STORE_SCHEMA_VERSION
        assert record.result.mean_rounds == 10.0
        assert record.provenance["engine"] == "vectorized"
        assert record.config["name"] == cfg.name

    def test_nonfinite_metrics_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = _config()
        res = _result(cfg)
        res.mean_rounds = float("nan")
        res.rounds = [3.0, float("inf")]
        store.put(cfg, res)
        # the payload must be strict JSON (no NaN/Infinity literals)
        payload = (store.cells_dir / f"{store.key_for(cfg)}.json").read_text()
        json.loads(payload, parse_constant=lambda _: pytest.fail("non-strict"))
        loaded = store.get(cfg).result
        assert math.isnan(loaded.mean_rounds)
        assert loaded.rounds == [3.0, float("inf")]

    def test_corrupted_entry_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = _config()
        key = store.put(cfg, _result(cfg))
        payload = store.cells_dir / f"{key}.json"
        payload.write_text("{ this is not json")
        assert store.get(cfg) is None            # miss, not an exception
        assert not payload.exists()              # moved aside ...
        assert (store.quarantine_dir / payload.name).exists()   # ... not lost
        assert not store.contains(cfg)           # stays a miss afterwards

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = _config()
        key = store.put(cfg, _result(cfg))
        payload = store.cells_dir / f"{key}.json"
        raw = json.loads(payload.read_text())
        raw["schema"] = STORE_SCHEMA_VERSION + 1
        payload.write_text(json.dumps(raw))
        assert store.get(cfg) is None
        assert not store.contains(cfg)
        assert payload.exists()                  # not quarantined, just stale

    def test_newer_result_schema_is_a_miss_not_corruption(self, tmp_path):
        # a record written by a future package version is intact data: it
        # must read as a miss and must never be destructively quarantined
        from repro.experiments.results import RESULT_SCHEMA_VERSION

        store = ResultStore(tmp_path / "store")
        cfg = _config()
        key = store.put(cfg, _result(cfg))
        payload = store.cells_dir / f"{key}.json"
        raw = json.loads(payload.read_text())
        raw["result"]["schema"] = RESULT_SCHEMA_VERSION + 1
        payload.write_text(json.dumps(raw))
        assert store.get(cfg) is None
        assert payload.exists()                  # still in cells/, untouched
        counts = store.gc()
        assert counts["quarantined"] == 0        # gc agrees: stale, not corrupt
        assert payload.exists()
        counts = store.gc(drop_schema_mismatch=True)
        assert counts["dropped"] == 1 and not payload.exists()

    def test_legacy_aggregate_pooled_record_is_stale_not_served(self, tmp_path):
        # records written by the pre-backend-unification pooled path carried
        # aggregate metrics only (extra {"parallel": true}, rounds []);
        # serving them as hits would make warm reports depend on which
        # backend populated the store — they must read as stale misses and
        # be recomputed in place, never quarantined as corruption
        store = ResultStore(tmp_path / "store")
        cfg = _config()
        key = store.put(cfg, _result(cfg))
        payload = store.cells_dir / f"{key}.json"
        raw = json.loads(payload.read_text())
        raw["result"]["rounds"] = []
        raw["result"]["extra"] = {"parallel": True}
        payload.write_text(json.dumps(raw))
        assert store.get(cfg) is None
        assert payload.exists()                  # stale, not damaged
        assert store.gc()["quarantined"] == 0
        runner = CachedSweepRunner(store)
        runner.run(_sweep(ns=(48,)))
        assert runner.last_stats.misses == 1     # recomputed once...
        assert store.get(cfg).result.rounds != []   # ...store upgraded
        # and drop-schema-mismatch clears legacy records without recompute
        payload.write_text(json.dumps(raw))
        assert store.gc(drop_schema_mismatch=True)["dropped"] == 1

    def test_gc_counts_and_index_rebuild(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for n in (32, 48):
            cfg = _config(name=f"n={n}", n=n)
            store.put(cfg, _result(cfg))
        bad = store.cells_dir / ("f" * 64 + ".json")
        bad.write_text("garbage")
        assert not store.index_path.exists()     # put() never writes the index
        counts = store.gc()
        assert counts == {"kept": 2, "quarantined": 1, "dropped": 0,
                          "orphan_sidecars": 0, "dangling_artifacts": 0}
        assert len(store.ls_rows()) == 2
        counts = store.gc(drop_quarantine=True)
        assert counts["dropped"] == 1

    def test_info(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = _config()
        store.put(cfg, _result(cfg))
        info = store.info()
        assert info["entries"] == 1 and info["payload_bytes"] > 0


class TestCachedSweepRunner:
    def test_partition_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = _sweep(ns=(32, 48, 64))
        first = sweep.cells[0]
        store.put(first, _result(first))
        hits, misses = CachedSweepRunner(store).partition(sweep)
        assert set(hits) == {0} and misses == [1, 2]

    def test_rerun_forces_all_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = _sweep()
        for cell in sweep:
            store.put(cell, _result(cell))
        hits, misses = CachedSweepRunner(store, rerun=True).partition(sweep)
        assert not hits and misses == [0, 1]

    def test_warm_rerun_executes_zero_cells_and_report_equal(
            self, tmp_path, monkeypatch):
        """Acceptance: identical sweep vs populated store => 0 executions,
        report == cold-run report."""
        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store)
        cold = runner.run(_sweep())
        assert runner.last_stats.misses == 2

        calls = []
        real_run_cell = store_backends_mod.run_cell
        monkeypatch.setattr(store_backends_mod, "run_cell",
                            lambda cell: calls.append(cell) or real_run_cell(cell))
        warm = runner.run(_sweep())
        assert calls == []                       # zero recomputation
        assert runner.last_stats.hits == 2 and runner.last_stats.misses == 0
        assert warm == cold                      # full dataclass equality

    def test_cross_engine_hit(self, tmp_path):
        """Engines are equal in distribution: a sweep retargeted to another
        engine must keep its cache hits."""
        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store)
        runner.run(_sweep(engine="vectorized"))
        runner.run(_sweep(engine="occupancy"))
        assert runner.last_stats.hits == 2 and runner.last_stats.misses == 0

    def test_resume_after_interrupt(self, tmp_path, monkeypatch):
        """Acceptance: a sweep killed halfway resumes with only the
        unfinished cells executed, and the resumed report equals a cold run."""
        sweep = _sweep(ns=(32, 48, 64, 96))
        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store)

        real_run_cell = store_backends_mod.run_cell
        executed = []

        def dying_run_cell(cell):
            if len(executed) == 2:
                raise KeyboardInterrupt("simulated mid-sweep kill")
            executed.append(cell.name)
            return real_run_cell(cell)

        monkeypatch.setattr(store_backends_mod, "run_cell", dying_run_cell)
        with pytest.raises(KeyboardInterrupt):
            runner.run(sweep)
        assert executed == ["n=32", "n=48"]      # first two cells persisted
        assert len(store) == 2

        def counting_run_cell(cell):
            executed.append(cell.name)
            return real_run_cell(cell)

        monkeypatch.setattr(store_backends_mod, "run_cell", counting_run_cell)
        resumed = runner.run(sweep)
        assert executed == ["n=32", "n=48", "n=64", "n=96"]   # no re-execution
        assert runner.last_stats.hits == 2 and runner.last_stats.misses == 2

        cold = CachedSweepRunner(ResultStore(tmp_path / "fresh")).run(sweep)
        assert resumed == cold

    def test_corrupted_entry_recomputed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store)
        runner.run(_sweep())
        key = store.keys()[0]
        (store.cells_dir / f"{key}.json").write_text("oops")
        runner.run(_sweep())
        assert runner.last_stats.misses == 1     # only the corrupted cell
        assert store.contains(key)               # re-persisted

    def test_matches_plain_run_sweep(self, tmp_path):
        report = run_sweep_cached(_sweep(), tmp_path / "store")
        plain = run_sweep(_sweep())
        for a, b in zip(report.cells, plain.cells):
            assert a.rounds == b.rounds
            assert a.mean_rounds == pytest.approx(b.mean_rounds)

    def test_pooled_execution_persists(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store)
        pooled = runner.run(_sweep(), max_workers=2)
        assert runner.last_stats.misses == 2 and len(store) == 2
        runner.run(_sweep(), max_workers=2)
        assert runner.last_stats.hits == 2
        serial = run_sweep(_sweep())
        for a, b in zip(pooled.cells, serial.cells):
            assert a.mean_rounds == pytest.approx(b.mean_rounds)

    def test_explicit_none_means_default_pool(self, tmp_path):
        # run_sweep's convention: max_workers=None requests the default-size
        # pool; it must not be silently coerced to serial execution
        report = run_sweep_cached(_sweep(), tmp_path / "store",
                                  max_workers=None)
        assert len(report) == 2
        assert len(ResultStore(tmp_path / "store")) == 2

    def test_pooled_results_persist_incrementally(self, tmp_path, monkeypatch):
        """Pooled misses are persisted one by one in completion order (the
        interrupt-resume property), not in a single post-barrier batch."""
        import repro.store.runner as mod

        store = ResultStore(tmp_path / "store")
        runner = CachedSweepRunner(store)
        sizes_at_persist = []
        real_persist = CachedSweepRunner._persist

        def tracking_persist(self, cell, result, elapsed):
            sizes_at_persist.append(len(self.store))
            return real_persist(self, cell, result, elapsed)

        monkeypatch.setattr(CachedSweepRunner, "_persist", tracking_persist)
        runner.run(_sweep(ns=(32, 48, 64)), max_workers=2)
        # each persist saw exactly the cells persisted before it: 0, 1, 2
        assert sizes_at_persist == [0, 1, 2]

    def test_provenance_records_resolved_engine(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        # all-distinct (m = n) resolves occupancy-fused back to vectorized
        CachedSweepRunner(store).run(_sweep(engine="occupancy-fused"))
        record = store.get(store.keys()[0])
        assert record.provenance["engine"] == "vectorized"
        assert record.provenance["elapsed_s"] > 0
        assert record.provenance["package_version"]

    def test_never_converging_cell_reports_compare_equal(self, tmp_path):
        """A cell that never converges carries NaN rounds and means; equal
        reports must still compare equal (reruns and warm replays)."""
        sweep = SweepConfig(name="stuck", description="never converges")
        sweep.add(ExperimentConfig(
            name="stuck", workload="two-bins",
            workload_params={"n": 256, "minority": 128},
            adversary="balancing", adversary_budget=40, max_rounds=5,
            seed=3))
        first, second = run_sweep(sweep), run_sweep(sweep)
        assert math.isnan(first.cells[0].mean_rounds)
        assert first == second
        runner = CachedSweepRunner(ResultStore(tmp_path / "store"))
        cold = runner.run(sweep)
        assert runner.run(sweep) == cold

    def test_store_keys_in_report_meta(self, tmp_path):
        report = run_sweep_cached(_sweep(), tmp_path / "store")
        keys = report.meta["store"]["keys"]
        assert set(keys) == {"n=32", "n=48"}
        assert all(len(k) == 64 for k in keys.values())


class TestMajorityFamilyKeysAndReproducibility:
    """Cell-key stability and execution determinism for the widened
    rule × adversary support (majority-family kernels, victim-occupancy
    adversaries): keys stay engine-independent, pinned against drift, and a
    cell's results are bit-identical for the same seed whether it executes
    serially, fused, or through the process pool."""

    @staticmethod
    def _cell(rule="three-majority", adversary="sticky",
              engine="occupancy-fused", name=None) -> ExperimentConfig:
        return ExperimentConfig(
            name=name or f"{rule}+{adversary}", workload="blocks",
            workload_params={"n": 256, "m": 4}, rule=rule,
            adversary=adversary, adversary_budget=3, num_runs=4,
            max_rounds=400, seed=21, engine=engine)

    def test_keys_engine_independent_for_new_configs(self):
        for rule in ("three-majority", "two-choices-majority"):
            for adversary in ("sticky", "hiding"):
                keys = {cell_key(self._cell(rule, adversary, engine=e))
                        for e in ("vectorized", "occupancy", "occupancy-fused")}
                assert len(keys) == 1, (rule, adversary)

    def test_keys_distinct_across_rule_adversary_grid(self):
        cells = [self._cell(rule, adversary)
                 for rule in ("median", "three-majority", "two-choices-majority")
                 for adversary in ("balancing", "sticky", "hiding")]
        keys = {cell_key(c) for c in cells}
        assert len(keys) == len(cells)

    def test_golden_keys_pinned_against_drift(self):
        # canonical hashes are the store's address space: a silent
        # canonicalization change would orphan every stored cell, so the
        # new configs' keys are pinned verbatim
        golden = {
            ("three-majority", "sticky"):
                "cc174a77e1db23ce33a7b7e6d2f9a3f511d6afe79e74a634b22a8ee1315779ac",
            ("three-majority", "hiding"):
                "cb9c32b9f667c8326ccf77ad5b6de2e35acf732c6c8ba5516ff3411fc497e9f1",
            ("two-choices-majority", "sticky"):
                "50ea4a8245b7de626c6315dbef0c3548d4e11b863c578b4856612ad69d5b2ceb",
            ("two-choices-majority", "hiding"):
                "b7e87cebd5f6db27b289cfe4c4f27f1c1cec7458de63b21483fae330eecb0424",
        }
        for (rule, adversary), expected in golden.items():
            assert cell_key(self._cell(rule, adversary)) == expected

    @pytest.mark.parametrize("engine", ["occupancy", "occupancy-fused"])
    def test_run_cell_deterministic_per_engine(self, engine):
        from repro.experiments.runner import run_cell

        a = run_cell(self._cell(engine=engine))
        b = run_cell(self._cell(engine=engine))
        assert a.extra["engine"] == engine  # supported: no fallback happened
        assert a.rounds == b.rounds
        assert a.mean_rounds == b.mean_rounds

    def test_serial_and_pooled_sweeps_agree_bitwise(self):
        sweep = SweepConfig(name="majority-mini")
        for rule in ("three-majority", "two-choices-majority"):
            sweep.add(self._cell(rule, "sticky"))
        serial = run_sweep(sweep, max_workers=0)
        pooled = run_sweep(sweep, max_workers=2)
        for cs, cp in zip(serial.cells, pooled.cells):
            assert cs.config.name == cp.config.name
            assert cs.num_runs == cp.num_runs
            assert cs.mean_rounds == cp.mean_rounds
            assert cs.convergence_fraction == cp.convergence_fraction
            assert cs.extra["engine"] == cp.extra["engine"] == "occupancy-fused"

    def test_store_round_trip_for_new_configs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = self._cell()
        store.put(cfg, _result(cfg))
        assert store.contains(cfg)
        # retargeting the engine keeps the cache hit (cross-engine key)
        from dataclasses import replace

        assert store.contains(replace(cfg, engine="vectorized"))


class TestKernelBackendScopedReproducibility:
    """Seed-reproducibility contract of the multinomial-kernel seam.

    Cell *keys* are kernel-independent (the backend is provenance, never key
    material), bitwise equality of results is promised only *within* a
    backend, the two backends agree in distribution, and every stored record
    says which kernel produced it."""

    @staticmethod
    def _cell(num_runs=4, seed=21, name="kernel-cell") -> ExperimentConfig:
        return ExperimentConfig(
            name=name, workload="blocks", workload_params={"n": 256, "m": 4},
            rule="median", num_runs=num_runs, max_rounds=400, seed=seed,
            engine="occupancy-fused")

    @staticmethod
    def _backends():
        from repro.engine import resolve_multinomial_backend

        out = ["numpy"]
        if resolve_multinomial_backend("compiled").resolved == "compiled":
            out.append("compiled")
        return out

    @staticmethod
    def _pinned(backend):
        import contextlib

        from repro.engine import set_multinomial_backend

        @contextlib.contextmanager
        def cm():
            set_multinomial_backend(backend)
            try:
                yield
            finally:
                set_multinomial_backend(None)

        return cm()

    def test_cell_keys_are_kernel_independent(self):
        keys = set()
        for backend in self._backends():
            with self._pinned(backend):
                keys.add(cell_key(self._cell()))
        assert len(keys) == 1

    def test_bitwise_determinism_within_each_backend(self):
        from repro.experiments.runner import run_cell

        for backend in self._backends():
            with self._pinned(backend):
                a = run_cell(self._cell())
                b = run_cell(self._cell())
            assert a.rounds == b.rounds, backend
            assert a.mean_rounds == b.mean_rounds, backend

    def test_cross_backend_statistical_equality(self):
        # backends are different bit streams drawing the same law: mean
        # convergence rounds over a seed ensemble must agree within a
        # Monte-Carlo band (two-sample z on 60 runs per backend)
        backends = self._backends()
        if len(backends) < 2:
            pytest.skip("no compiled multinomial provider on this host")
        from repro.experiments.runner import run_cell

        stats = {}
        for backend in backends:
            with self._pinned(backend):
                res = run_cell(self._cell(num_runs=60, seed=77))
            rounds = [float(r) for r in res.rounds]
            stats[backend] = (sum(rounds) / len(rounds), rounds)
        mean_np, rounds_np = stats["numpy"]
        mean_cc, rounds_cc = stats["compiled"]

        def var(xs, mu):
            return sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)

        se = math.sqrt(var(rounds_np, mean_np) / len(rounds_np)
                       + var(rounds_cc, mean_cc) / len(rounds_cc))
        assert abs(mean_np - mean_cc) <= max(4.0 * se, 0.75), (
            f"numpy={mean_np:.2f} compiled={mean_cc:.2f} se={se:.3f}")

    def test_provenance_records_multinomial_kernel(self, tmp_path):
        from repro.engine import multinomial_kernel_id

        for backend in self._backends():
            store = ResultStore(tmp_path / f"store-{backend}")
            with self._pinned(backend):
                sweep = SweepConfig(name=f"kernel-{backend}")
                sweep.add(self._cell(name=f"cell-{backend}"))
                CachedSweepRunner(store).run(sweep)
                expected = multinomial_kernel_id()
            record = store.get(store.keys()[0])
            assert record.provenance["multinomial_kernel"] == expected
            if backend == "numpy":
                assert expected == "numpy"
            else:
                assert expected.startswith("compiled:")
            # surfaced by store.info() aggregation as well
            assert any(expected in part
                       for part in store.info()["multinomial_kernels"].split(","))


class TestArtifacts:
    def test_build_provenance_shape(self):
        prov = build_provenance({"cell": "abc"}, extra={"note": "x"})
        assert prov["cell_keys"] == {"cell": "abc"}
        assert prov["note"] == "x"
        assert "package_version" in prov and "created_at" in prov

    def test_registry_register_and_replace(self, tmp_path):
        ledger = tmp_path / "artifacts.json"
        artifact = tmp_path / "out.json"
        artifact.write_text("{}")
        registry = ArtifactRegistry(ledger)
        registry.register(artifact, kind="test", cell_keys=["k1"])
        registry.register(artifact, kind="test", cell_keys=["k1", "k2"])
        records = registry.records()
        assert len(records) == 1                 # same path replaced, not dup
        assert records[0]["provenance"]["cell_keys"] == ["k1", "k2"]
        assert records[0]["sha256"]
        assert records[0]["path"] == "out.json"  # ledger-relative


class TestStoreCli:
    def test_sweep_store_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        argv = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                "--store", store_dir]
        assert main(argv) == 0
        assert "misses=6" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hits=6 misses=0" in capsys.readouterr().out

    def test_sweep_no_cache_bypasses_store(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        argv = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                "--store", store_dir, "--no-cache"]
        assert main(argv) == 0
        assert "cache:" not in capsys.readouterr().out
        assert not (tmp_path / "store" / "cells").exists() or \
            len(list((tmp_path / "store" / "cells").glob("*.json"))) == 0

    def test_store_subcommands(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        main(["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
              "--store", store_dir])
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "all-distinct" in out
        assert main(["store", "info", "--store", store_dir]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["store", "gc", "--store", store_dir]) == 0
        assert "kept=5" in capsys.readouterr().out

    def test_store_info_single_record(self, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path / "store")
        cfg = _config()
        key = store.put(cfg, _result(cfg), {"engine": "vectorized"})
        assert main(["store", "info", "--store", str(store.root), key[:10]]) == 0
        out = capsys.readouterr().out
        assert key in out and "provenance.engine" in out

    def test_json_artifact_registered(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        json_path = tmp_path / "report.json"
        assert main(["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
                     "--store", str(store_dir), "--json", str(json_path)]) == 0
        records = ArtifactRegistry(store_dir / "artifacts.json").records()
        assert len(records) == 1
        assert records[0]["kind"] == "sweep-report-json"
        # theorem1 at scale 0.1 clamps two cells to n=16, so 5 unique names
        assert len(records[0]["provenance"]["cell_keys"]) == 5
