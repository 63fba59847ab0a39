"""The benchmark's four workloads.

Each workload is a closed loop with one client: a unit of work starts only
after the previous one finished, in one benchmark process.  Every unit
checks its own outputs.  See ``perfbench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.

``cli``          six fresh-process CLI invocations a researcher would type
``paper``        the nine paper figures, cold and serial, then a warm replay
                 (its traced run also runs them through a 2-worker shard fleet)
``paper-http``   the same 63 cells as one sweep through a 2-worker
                 HTTP-coordinator fleet
``count-space``  six large-population count-space cells at n = 10^6
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import harness
from harness import ALL_CPUS, PINNED, Clock, WORK


def canonical(obj) -> str:
    """Canonical strict JSON (NaN-aware: non-finite floats are tagged)."""
    from repro.io.serialization import to_jsonable

    return json.dumps(to_jsonable(obj), sort_keys=True, allow_nan=False)


@dataclass
class Run:
    """What one run of a workload collects."""

    seed: int
    kernel_id: str
    units: List[float] = field(default_factory=list)   # reference seconds
    raw: List[float] = field(default_factory=list)     # raw seconds
    probe_s: List[float] = field(default_factory=list)  # sampled probe time
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)
        return ok


class Workload:
    name = ""
    #: Modules a fresh interpreter imports before this workload can start.
    modules: Tuple[str, ...] = ()
    #: Fewest timed units per run, however long they take.
    min_units = 2
    #: Sampler probes resembling the unit's work (see ``harness``).
    probes: Tuple[str, ...] = ("vector", "binomial")
    #: Traced runs set this: a workload that starts interpreters calls the
    #: program in-process instead.
    in_process = False

    def __init__(self, run: Run) -> None:
        self.run = run
        self.scratch = WORK / "runs" / self.name
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"u{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def prepare(self) -> None:
        """Untimed set-up of inputs (and reference outputs)."""

    def unit(self, clock: Clock) -> None:
        """One unit of work, its timed sections run through ``clock``."""
        raise NotImplementedError

    def traced_extras(self, rec) -> Dict[str, float]:
        """Per-layer figures only this workload can give (traced unit)."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# ---------------------------------------------------------------------- #
# cli
# ---------------------------------------------------------------------- #
class CliWorkload(Workload):
    """Six sequential fresh-process invocations; inputs are fixed because
    the CLI takes no seed."""

    name = "cli"
    modules = ("repro.cli",)
    min_units = 1
    probes = harness.PROBES   # interpreter start-up, imports and main()

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.main_s: List[float] = []
        self.warm_s = 0.0

    @staticmethod
    def commands(store: Path) -> List[List[str]]:
        fig = ["sweep", "figure1", "--store", str(store)]
        return [
            ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
             "--no-cache"],
            fig,                       # cold
            fig,                       # warm
            fig + ["--from-store"],    # offline replay
            ["store", "info", "--store", str(store)],
            ["rules"],
        ]

    def prepare(self) -> None:
        if self.in_process:
            # what main() imports, so the timed calls measure main() alone
            import repro.cli  # noqa: F401
            import repro.store  # noqa: F401

    def _invoke(self, argv: List[str]) -> Tuple[int, str]:
        if not self.in_process:
            proc = harness.run_child([sys.executable, "-m", "repro", *argv])
            return proc.returncode, proc.stdout
        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    def unit(self, clock: Clock) -> None:
        run = self.run
        store = self.fresh_dir()
        self.main_s = []
        outputs = []
        for argv in self.commands(store):
            (code, out), raw = clock.time(
                lambda argv=argv: self._invoke(argv))
            clock.end_unit()   # each invocation is a unit of its own
            self.main_s.append(raw)
            run.attempted += 1
            if not run.check(code == 0, f"`{' '.join(argv[:2])}` exited "
                                        f"{code}"):
                run.failed += 1
            outputs.append(out)
        self.warm_s = self.main_s[2]
        self._check(outputs)
        shutil.rmtree(store, ignore_errors=True)

    def _check(self, outputs: List[str]) -> None:
        run = self.run

        def table_and_cache(out: str) -> Tuple[str, str]:
            table, _, tail = out.partition("\ncache: ")
            return table, tail.split(" (store:", 1)[0]

        cold, warm, offline = (table_and_cache(o) for o in outputs[1:4])
        cells = cold[1].split("misses=", 1)[-1]
        run.check(cold[1] == f"hits=0 misses={cells}" and cells.isdigit()
                  and int(cells) > 0, f"cold sweep printed {cold[1]!r}")
        run.check(warm[1] == f"hits={cells} misses=0",
                  f"warm sweep printed {warm[1]!r}")
        run.check(offline[1] == f"hits={cells} misses=0",
                  f"offline replay printed {offline[1]!r}")
        run.check(cold[0] == warm[0] == offline[0],
                  "cold, warm and offline tables differ")
        run.check("kernel_this_process" in outputs[4]
                  and run.kernel_id in outputs[4],
                  "store info reports another kernel than the run's")
        run.check("median" in outputs[5], "rules does not list the median "
                                          "rule")
        run.check("Scaling fits" in outputs[0], "theorem1 printed no fits")

    def traced_extras(self, rec) -> Dict[str, float]:
        return {"cli.main_s": statistics.median(self.main_s),
                "store.warm_replay_s": self.warm_s}


# ---------------------------------------------------------------------- #
# paper: the nine FIGURE_REGISTRY sweeps
# ---------------------------------------------------------------------- #
class _Capture:
    """A sweep runner that remembers every sweep it ran."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.sweeps = []

    def run(self, sweep):
        self.sweeps.append(sweep)
        return self.inner.run(sweep)


def _check_kernels(run: Run, store_root: Path, expected: int) -> None:
    """Every stored cell ran on the run's kernel; ``expected`` cells."""
    payloads = sorted((store_root / "cells").glob("*.json"))
    run.check(len(payloads) == expected,
              f"store holds {len(payloads)} cells, expected {expected}")
    for path in payloads:
        record = json.loads(path.read_text())
        kid = record.get("provenance", {}).get("multinomial_kernel")
        if not run.check(kid == run.kernel_id,
                         f"cell {path.stem[:12]} ran on kernel {kid!r}, "
                         f"run kernel is {run.kernel_id!r}"):
            return


def _compute_seconds(store_root: Path) -> float:
    """Σ stored provenance ``elapsed_s`` (compute time inside workers)."""
    total = 0.0
    for path in (store_root / "cells").glob("*.json"):
        total += json.loads(path.read_text())["provenance"]["elapsed_s"]
    return total


class PaperWorkload(Workload):
    """The nine figures through ``CachedSweepRunner`` on a fresh store, as
    ``repro sweep NAME --store`` runs them minus import; then a warm replay
    that must compute nothing and reproduce every report.

    The figures run with their own built-in seeds, exactly as the CLI runs
    them (it takes no seed), so the inputs are fixed whatever ``--seed``.
    """

    name = "paper"
    modules = ("repro.experiments.figures", "repro.store")
    probes = harness.PROBES   # per-round Python as much as NumPy and C

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.warm_s = 0.0

    def unit(self, clock: Clock) -> None:
        from repro.experiments.figures import FIGURE_REGISTRY
        from repro.experiments.runner import EXECUTION_STATS
        from repro.store import CachedSweepRunner, ResultStore

        run = self.run
        root = self.fresh_dir()
        runner = CachedSweepRunner(ResultStore(root))
        cold = []
        for figure_fn in FIGURE_REGISTRY.values():
            figure, _raw = clock.time(
                lambda figure_fn=figure_fn: figure_fn(runner=runner))
            cold.append(figure)
        cells = sum(len(f.report.cells) for f in cold)
        run.attempted += cells
        for figure in cold:
            failures = figure.report.meta.get("failures", [])
            run.failed += len(failures)
            run.check(not failures, f"{figure.report.name}: {failures[:1]}")
        _check_kernels(run, root, cells)

        # warm replay: a new runner on the populated store
        warm_runner = CachedSweepRunner(ResultStore(root))
        computed = EXECUTION_STATS["run_cell_calls"]
        t0 = time.perf_counter()
        warm = []
        for name, figure_fn in FIGURE_REGISTRY.items():
            warm.append(figure_fn(runner=warm_runner))
            run.check(warm_runner.last_stats.misses == 0,
                      f"warm {name}: {warm_runner.last_stats.summary()}")
        self.warm_s = time.perf_counter() - t0
        run.attempted += cells
        run.check(EXECUTION_STATS["run_cell_calls"] == computed,
                  "warm replay computed cells")
        for a, b in zip(cold, warm):
            run.check(canonical(a.report.to_dict())
                      == canonical(b.report.to_dict()) and a.table == b.table,
                      f"warm replay of {a.report.name} differs from cold")
        shutil.rmtree(root, ignore_errors=True)

    def traced_extras(self, rec) -> Dict[str, float]:
        """Warm replay time, and one untraced, checked run of the same
        cells through a 2-worker shard fleet (forked workers)."""
        shard = ShardFleetWorkload(self.run)
        clock = Clock(ALL_CPUS)
        try:
            shard.prepare()
            shard.unit(clock)
            metrics = shard.traced_extras(rec)
        finally:
            shard.close()
        start, end = clock.sections[-1]
        return {"store.warm_replay_s": self.warm_s,
                "shard.fleet_s": end - start, **metrics}


class FleetWorkload(Workload):
    """The paper's 63 cells as one cold sweep through a 2-worker fleet,
    checked cell by cell against a serial reference computed untimed."""

    modules = ("repro.store",)
    workers = 2

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.sweep = None
        self.reference: List[str] = []
        self.root: Optional[Path] = None
        self.started = (0.0, 0.0)   # (perf_counter, time) at run()

    def prepare(self) -> None:
        from repro.experiments.config import SweepConfig
        from repro.experiments.figures import FIGURE_REGISTRY
        from repro.store import CachedSweepRunner, ResultStore

        root = self.fresh_dir()
        capture = _Capture(CachedSweepRunner(ResultStore(root)))
        self.sweep = SweepConfig(name="paper",
                                 description="the nine paper figures")
        for figure_fn in FIGURE_REGISTRY.values():
            figure = figure_fn(runner=capture)
            self.reference += [canonical(c.to_dict())
                               for c in figure.report.cells]
        for sweep in capture.sweeps:
            for cell in sweep.cells:
                self.sweep.add(cell)
        shutil.rmtree(root, ignore_errors=True)

    def fleet(self, root: Path):
        """Context manager yielding the fleet's sweep runner on ``root``."""
        raise NotImplementedError

    def _run(self, runner):
        self.started = (time.perf_counter(), time.time())
        return runner.run(self.sweep)

    def unit(self, clock: Clock) -> None:
        from repro.store import read_execution_log

        run = self.run
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        self.root = root = self.fresh_dir()
        with self.fleet(root) as runner:
            report, _raw = clock.time(lambda: self._run(runner))
        cells = len(self.sweep.cells)
        run.attempted += cells
        failures = report.meta.get("failures", [])
        run.failed += len(failures)
        run.check(not failures, f"{self.name}: {failures[:1]}")
        got = [canonical(c.to_dict()) for c in report.cells]
        run.check(got == self.reference,
                  f"{self.name} report differs from the serial report")
        keys = [r["key"] for r in read_execution_log(root)]
        duplicates = len(keys) - len(set(keys))
        run.failed += duplicates
        run.check(duplicates == 0 and len(keys) == cells,
                  f"{self.name} ledger: {len(keys)} executions of "
                  f"{len(set(keys))} cells, expected {cells}")
        _check_kernels(run, root, cells)

    def ledger_metrics(self, prefix: str) -> Dict[str, float]:
        from repro.store import read_execution_log

        keys = [r["key"] for r in read_execution_log(self.root)]
        return {
            f"{prefix}.executions": len(keys),
            f"{prefix}.duplicates": len(keys) - len(set(keys)),
            f"{prefix}.compute_s": _compute_seconds(self.root),
        }


class ShardFleetWorkload(FleetWorkload):
    """Forked lease-based workers sharing the store directory (run once per
    traced ``paper`` run)."""

    name = "paper-shard"

    @contextlib.contextmanager
    def fleet(self, root: Path):
        from repro.store import CachedSweepRunner, ResultStore

        yield CachedSweepRunner(ResultStore(root), backend="shard",
                                max_workers=self.workers)

    def traced_extras(self, rec) -> Dict[str, float]:
        from repro.store import read_execution_log

        first = min(r["at"] for r in read_execution_log(self.root))
        return {**self.ledger_metrics("shard"),
                "shard.first_result_s": first - self.started[1]}


class HttpFleetWorkload(FleetWorkload):
    """Spawned store-less workers leasing from a localhost coordinator."""

    name = "paper-http"
    min_units = 3
    probes = harness.PROBES   # worker start-up and numeric compute

    @contextlib.contextmanager
    def fleet(self, root: Path):
        from repro.store import (CachedSweepRunner, CoordinatorServer,
                                 CoordinatorStore, HttpBackend, ResultStore)

        with CoordinatorServer(ResultStore(root)) as server:
            yield CachedSweepRunner(
                CoordinatorStore(server.url),
                backend=HttpBackend(server.url, workers=self.workers))

    def traced_extras(self, rec) -> Dict[str, float]:
        from tracing import coordinator_metrics

        return {**self.ledger_metrics("coordinator"),
                **coordinator_metrics(rec, self.started[0])}


# ---------------------------------------------------------------------- #
# count-space
# ---------------------------------------------------------------------- #
COUNT_SPACE_N = 10 ** 6


def count_space_cells(seed: int):
    from repro.experiments.config import ExperimentConfig

    n = COUNT_SPACE_N
    spec = [
        ("median blocks m=8", "blocks", 8, "median", "null", 0,
         "occupancy-fused", 256),
        ("median uniform m=64", "uniform-random", 64, "median", "null", 0,
         "occupancy-fused", 256),
        ("three-majority blocks m=64", "blocks", 64, "three-majority",
         "null", 0, "occupancy-fused", 256),
        ("two-choices blocks m=64", "blocks", 64, "two-choices-majority",
         "null", 0, "occupancy-fused", 256),
        ("median sticky T=1000 blocks m=8", "blocks", 8, "median", "sticky",
         1000, "occupancy-fused", 256),
        ("median looped blocks m=64", "blocks", 64, "median", "null", 0,
         "occupancy", 16),
    ]
    return [ExperimentConfig(name=name, workload=workload,
                             workload_params={"n": n, "m": m}, rule=rule,
                             adversary=adversary, adversary_budget=budget,
                             engine=engine, num_runs=runs,
                             seed=100 * seed + i)
            for i, (name, workload, m, rule, adversary, budget, engine, runs)
            in enumerate(spec)]


class CountSpaceWorkload(Workload):
    """Large-population cells straight through ``run_cell``: no store, no
    value-space engine."""

    name = "count-space"
    modules = ("repro.experiments.runner",)

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.cells = count_space_cells(run.seed)
        self.first: Optional[List[str]] = None

    def unit(self, clock: Clock) -> None:
        import repro.experiments.runner as runner

        run = self.run
        results = []
        for cell in self.cells:
            run.attempted += 1
            try:
                result, _raw = clock.time(
                    lambda cell=cell: runner.run_cell(cell))
            except Exception as exc:   # noqa: BLE001 — counted, reported
                run.failed += 1
                run.check(False, f"{cell.name}: {type(exc).__name__}: {exc}")
                continue
            results.append(canonical(result.to_dict()))
            if cell.adversary == "null":
                run.check(result.convergence_fraction == 1.0,
                          f"{cell.name}: converged in "
                          f"{result.convergence_fraction:.0%} of runs")
        if self.first is None:
            self.first = results
        run.check(results == self.first,
                  "count-space results differ between passes of one seed")


WORKLOADS: Dict[str, Callable[[Run], Workload]] = {
    "cli": CliWorkload,
    "paper": PaperWorkload,
    "paper-http": HttpFleetWorkload,
    "count-space": CountSpaceWorkload,
}

#: CPUs each workload's timed units run on: single-threaded work on one
#: pinned CPU, the 2-worker fleet on all of them.
CPUS = {name: ALL_CPUS if name == "paper-http" else PINNED
        for name in WORKLOADS}
