"""Command-line interface: ``repro-consensus`` / ``python -m repro``.

Subcommands
-----------

``simulate``
    Run a single simulation and print its summary.

``sweep``
    Run one of the named experiment sweeps (theorem1, theorem3, figure1, ...)
    and print its table; optionally save JSON/CSV.  With ``--store DIR`` the
    sweep runs through :class:`repro.store.CachedSweepRunner`: each cell is
    keyed by a canonical hash of its config (workload/rule/adversary/params/
    runs/seed — *not* its label or engine, which are equal in distribution),
    already-stored cells are served from the cache, and every freshly
    executed cell is persisted as it completes, so an interrupted sweep
    resumes from the last finished cell.  Escape hatches: ``--no-cache``
    ignores the store for this invocation; ``--rerun`` recomputes every cell
    and overwrites its store entry (use after semantics-changing code edits).

    Execution backends (``--backend {serial,pool,shard,http}``, with
    ``--workers K``): ``serial`` runs misses in-process, ``pool`` uses the
    process pool, and ``shard`` launches K worker processes that *lease*
    pending cells from the store (atomic lease files, stale-lease reclaim),
    so several invocations — even from different terminals, even with
    overlapping sweeps — cooperate on one store and compute every cell
    exactly once.  ``http`` is the same lease protocol served over the
    wire: ``--serve [ADDR]`` hosts the local ``--store`` behind a
    coordinator (stdlib HTTP) while running the sweep through it, and
    ``--coordinator URL`` points a store-less invocation at a running
    coordinator, so workers on *disjoint filesystems* cooperate through
    canonical cell hashes and push results back over HTTP.
    ``--worker`` attaches this process as one extra worker to a live store
    (or, with ``--coordinator``, to a remote coordinator) instead of
    coordinating its own fleet; ``--from-store`` replays the
    sweep offline (zero recomputation — a missing cell is an error, exit 1).
    A cell that fails is reported per-cell (label + error, exit code 3)
    instead of aborting the sweep.  ``--sidecar-at R`` stores per-run rounds
    of large cells (≥ R runs) as NPZ sidecars next to the JSON payloads.

    ``--trace [DIR]`` records structured telemetry (spans, events, metric
    increments — one JSONL shard per process, workers included) into DIR,
    defaulting to ``STORE/obs``; see the ``obs`` subcommand.

``store``
    Inspect and maintain a result store: ``ls`` (table of cached cells),
    ``info`` (aggregate facts or one full record; ``--json`` for
    machine-readable output), ``gc`` (validate payloads, quarantine
    corrupted ones, rebuild the index).

``obs``
    Inspect recorded traces: ``summarize`` merges the per-process shards
    into one span tree plus aggregate counters/histograms (``--json`` for
    machine-readable output); ``validate`` checks every line against the
    trace schema (the CI traced-sweep leg).

``figure1``
    Regenerate the paper's Figure 1 summary table.

``rules``
    List the registered update rules and adversary strategies.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.adversary.strategies import ADVERSARY_REGISTRY, make_adversary
from repro.core.rules import available_rules, get_rule
from repro.engine.batch import BATCH_ENGINES, ENGINES
from repro.engine.occupancy import MAX_SUPPORT_DEFAULT, OCCUPANCY_RULES
from repro.store.backends import BACKEND_NAMES
from repro.experiments import figures
from repro.experiments.reporting import format_report
from repro.experiments.workloads import (
    WORKLOAD_REGISTRY,
    implied_support_width,
    make_workload_for_engine,
)
from repro.io.tables import render_kv

__all__ = ["main", "build_parser"]

#: Named sweeps, shared with :func:`repro.experiments.figures.regenerate_from_store`.
_SWEEPS = figures.FIGURE_REGISTRY


def _number(kind: type, low: float, what: str):
    """An argparse ``type=``: a finite ``kind`` value of at least ``low``
    (above it, for a float)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (low <= value < math.inf) or (kind is float and value == low):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_positive_int = _number(int, 1, "a positive integer")
_non_negative_int = _number(int, 0, "a non-negative integer")
_positive_float = _number(float, 0, "a positive number")


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-consensus",
        description="Stabilizing consensus with the power of two choices "
                    "(Doerr et al., SPAA 2011) — reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run a single simulation")
    sim.add_argument("--n", type=_positive_int, default=1024, help="number of processes")
    sim.add_argument("--workload", default="all-distinct", choices=sorted(WORKLOAD_REGISTRY))
    sim.add_argument("--m", type=int, default=None, help="number of initial values "
                                                         "(workloads that take m)")
    sim.add_argument("--rule", default="median", choices=sorted(available_rules()),
                     help="update rule name")
    sim.add_argument("--adversary", default="null", choices=sorted(ADVERSARY_REGISTRY))
    sim.add_argument("--budget", type=_non_negative_int, default=0,
                     help="adversary budget T")
    sim.add_argument("--max-rounds", type=_non_negative_int, default=None)
    sim.add_argument("--seed", type=_non_negative_int, default=0)
    sim.add_argument("--engine", default="vectorized", choices=sorted(ENGINES),
                     help="simulation substrate: 'vectorized' is O(n) per round, "
                          "'occupancy' is O(m^2) per round independent of n")

    swp = sub.add_parser("sweep", help="run a named experiment sweep")
    swp.add_argument("name", choices=sorted(_SWEEPS))
    swp.add_argument("--scale", type=_positive_float, default=1.0,
                     help="problem-size scale factor (use <1 for quick runs)")
    swp.add_argument("--runs", type=_positive_int, default=None, help="runs per cell")
    swp.add_argument("--engine", default=None, choices=sorted(BATCH_ENGINES),
                     help="simulation substrate for every cell of the sweep: "
                          "'vectorized' (O(n)/round), 'occupancy' (O(m^2)/round, "
                          "n-independent), or 'occupancy-fused' (all runs of a "
                          "cell as one count tensor; a cell it cannot run or "
                          "win runs vectorized). Default: each sweep's own, in "
                          "effect occupancy-fused for theorem10, figure1 and "
                          "adversary-threshold, vectorized for the rest")
    swp.add_argument("--json", type=Path, default=None, help="save report as JSON")
    swp.add_argument("--csv", type=Path, default=None, help="save report as CSV")
    swp.add_argument("--store", type=Path, default=None,
                     help="result-store directory: serve cached cells from it "
                          "and persist fresh cells as they complete "
                          "(resumable; prints hits/misses)")
    swp.add_argument("--no-cache", action="store_true",
                     help="ignore --store for this invocation (recompute "
                          "everything, write nothing)")
    swp.add_argument("--rerun", action="store_true",
                     help="recompute every cell and overwrite its store entry")
    swp.add_argument("--backend", default=None,
                     choices=sorted(BACKEND_NAMES),
                     help="how missing cells execute (requires --store or "
                          "--coordinator): 'serial' in-process, 'pool' "
                          "process pool, 'shard' lease-based multi-worker "
                          "processes that dedup through the store (safe to "
                          "launch concurrently), 'http' the same lease "
                          "protocol against a coordinator URL")
    swp.add_argument("--workers", type=_non_negative_int, default=None,
                     help="worker count for --backend pool/shard/http "
                          "(default: one less than the CPUs this process "
                          "may run on)")
    swp.add_argument("--worker", action="store_true",
                     help="attach this process as one extra shard worker to "
                          "a live store (or, with --coordinator, to a "
                          "remote coordinator) — no fleet of its own")
    swp.add_argument("--coordinator", default=None, metavar="URL",
                     help="coordinate through a running lease coordinator "
                          "instead of a local --store: cells are leased "
                          "from (and results pushed to) the coordinator's "
                          "store over HTTP (implies --backend http)")
    swp.add_argument("--serve", nargs="?", const="127.0.0.1:8765",
                     default=None, metavar="ADDR",
                     help="host the local --store behind an HTTP lease "
                          "coordinator on ADDR (default 127.0.0.1:8765, "
                          "port 0 picks a free port) while running this "
                          "sweep through it; other hosts attach with "
                          "--worker --coordinator URL")
    swp.add_argument("--from-store", action="store_true",
                     help="offline replay: assemble the report purely from "
                          "cached cells, never simulating (a missing cell "
                          "is an error; requires --store)")
    swp.add_argument("--sidecar-at", type=_positive_int, default=None, metavar="R",
                     help="store per-run rounds as a compressed NPZ sidecar "
                          "for cells with at least R runs (JSON payload "
                          "stays canonical and references the sidecar)")
    swp.add_argument("--retries", type=_positive_int, default=None, metavar="N",
                     help="per-cell attempt budget for transient failures "
                          "(requires --store; default 1 = no retry); "
                          "permanent errors never retry, exhausted cells "
                          "surface as kind=transient-exhausted failures")
    swp.add_argument("--deadline", type=_positive_float, default=None, metavar="S",
                     help="wall-clock budget for the whole sweep in seconds "
                          "(requires --store): expired retries surface as "
                          "failures instead of hanging the fleet")
    swp.add_argument("--fault-plan", default=None, metavar="PLAN",
                     help="arm a deterministic fault-injection plan (inline "
                          "JSON or a path to a JSON file; see "
                          "repro.robustness.FaultPlan) — chaos testing the "
                          "execution stack; workers inherit the plan")
    swp.add_argument("--trace", nargs="?", const="auto", default=None,
                     metavar="DIR",
                     help="record structured telemetry (spans/events/metrics, "
                          "one JSONL shard per process; workers inherit via "
                          "REPRO_TRACE): with no DIR traces into "
                          "STORE/obs (requires --store); inspect with "
                          "'obs summarize'")

    fig = sub.add_parser("figure1", help="regenerate the paper's Figure 1 table")
    fig.add_argument("--scale", type=_positive_float, default=1.0)
    fig.add_argument("--runs", type=_positive_int, default=10)

    sub.add_parser("rules", help="list registered rules, adversaries and workloads")

    sto = sub.add_parser("store", help="inspect / maintain a result store")
    sto_sub = sto.add_subparsers(dest="store_command")
    sto_ls = sto_sub.add_parser("ls", help="list cached cells")
    sto_ls.add_argument("--store", type=Path, required=True)
    sto_info = sto_sub.add_parser("info", help="store summary, or one record")
    sto_info.add_argument("--store", type=Path, required=True)
    sto_info.add_argument("key", nargs="?", default=None,
                          help="full or unambiguous-prefix cell key")
    sto_info.add_argument("--json", action="store_true",
                          help="machine-readable output (non-finite floats "
                               "use the tagged encoding of repro.io."
                               "serialization)")
    sto_gc = sto_sub.add_parser("gc", help="validate payloads, rebuild index")
    sto_gc.add_argument("--store", type=Path, required=True)
    sto_gc.add_argument("--drop-schema-mismatch", action="store_true",
                        help="delete records written under another schema "
                             "version")
    sto_gc.add_argument("--drop-quarantine", action="store_true",
                        help="delete previously quarantined payloads")

    obs = sub.add_parser("obs", help="inspect structured telemetry traces")
    obs_sub = obs.add_subparsers(dest="obs_command")
    obs_sum = obs_sub.add_parser(
        "summarize", help="merged span tree + aggregate metrics of a trace")
    obs_sum.add_argument("--trace", type=Path, required=True, metavar="DIR",
                         help="trace directory (e.g. STORE/obs)")
    obs_sum.add_argument("--json", action="store_true",
                         help="machine-readable summary")
    obs_val = obs_sub.add_parser(
        "validate", help="check every trace line against the trace schema")
    obs_val.add_argument("--trace", type=Path, required=True, metavar="DIR")

    lnt = sub.add_parser(
        "lint", help="run the AST-based invariant checker over the package")
    lnt.add_argument("--format", choices=("text", "json"), default="text",
                     help="output shape: human text (default) or the "
                          "schema-versioned JSON report document")
    lnt.add_argument("--root", type=Path, default=None,
                     help="package directory to scan (default: the "
                          "installed repro package)")
    lnt.add_argument("--baseline", type=Path, default=None,
                     help="baseline file (default: lint-baseline.json at "
                          "the repository root); a missing file is an "
                          "empty baseline")
    lnt.add_argument("--write-baseline", action="store_true",
                     help="grandfather the current findings into the "
                          "baseline file and exit clean — the only "
                          "sanctioned way to regenerate after ratcheting "
                          "debt down")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = {"n": args.n}
    if args.m is not None:
        params["m"] = args.m
    if args.m is None and implied_support_width(args.workload, params) == 0:
        print(f"error: workload {args.workload!r} needs --m (its number of "
              f"initial values)", file=sys.stderr)
        return 2
    if args.engine == "occupancy":
        if args.rule not in OCCUPANCY_RULES:
            print(f"error: rule {args.rule!r} has no occupancy-space kernel; "
                  f"supported rules are {', '.join(sorted(OCCUPANCY_RULES))}",
                  file=sys.stderr)
            return 2
        m = implied_support_width(args.workload, params)
        if m > MAX_SUPPORT_DEFAULT:
            print(f"error: simulate takes --engine occupancy only up to "
                  f"{MAX_SUPPORT_DEFAULT} initial values, where count space "
                  f"stops paying off; this workload has m={m}, so use "
                  f"--engine vectorized", file=sys.stderr)
            return 2
    rng = np.random.default_rng(args.seed)
    try:
        workload = make_workload_for_engine(args.workload, args.engine,
                                            **params)
        initial = workload(rng) if callable(workload) else workload
    except (TypeError, ValueError) as exc:
        print(f"error: workload {args.workload!r} with "
              f"{', '.join(f'--{k} {v}' for k, v in params.items())}: {exc}",
              file=sys.stderr)
        return 2
    rule = get_rule(args.rule)
    adversary = make_adversary(args.adversary, budget=args.budget)
    simulate_fn = ENGINES[args.engine]
    result = simulate_fn(initial, rule=rule, adversary=adversary, seed=args.seed,
                         max_rounds=args.max_rounds)
    print(render_kv(result.summary(), title="simulation result"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    kwargs = {"scale": args.scale, "engine": args.engine}
    if args.runs is not None:
        kwargs["num_runs"] = args.runs

    if args.serve is not None and args.coordinator is not None:
        print("error: --serve hosts its own coordinator; it cannot also "
              "attach to --coordinator", file=sys.stderr)
        return 2
    if args.backend == "http" and args.coordinator is None \
            and args.serve is None:
        print("error: --backend http requires --coordinator URL (or "
              "--serve to host one on the local --store)", file=sys.stderr)
        return 2
    if (args.coordinator is not None or args.serve is not None) \
            and args.backend not in (None, "http"):
        print(f"error: --coordinator/--serve imply --backend http, not "
              f"{args.backend!r}", file=sys.stderr)
        return 2

    has_store = args.store is not None and not args.no_cache
    # these only need *a* result store — local directory or coordinator URL
    store_features = [flag for flag, on in
                      (("--backend", args.backend is not None),
                       ("--worker", args.worker),
                       ("--from-store", args.from_store),
                       ("--retries", args.retries is not None),
                       ("--deadline", args.deadline is not None)) if on]
    if store_features and not has_store and args.coordinator is None:
        print(f"error: {', '.join(store_features)} require(s) --store "
              f"without --no-cache (or --coordinator URL)", file=sys.stderr)
        return 2
    # these touch the store *directory*, so a URL cannot satisfy them
    local_features = [flag for flag, on in
                      (("--sidecar-at", args.sidecar_at is not None),
                       ("--serve", args.serve is not None)) if on]
    if local_features and not has_store:
        print(f"error: {', '.join(local_features)} require(s) --store "
              f"without --no-cache", file=sys.stderr)
        return 2

    trace_dir: Optional[Path] = None
    if args.trace is not None:
        if args.trace == "auto":
            if args.store is None or args.no_cache:
                print("error: --trace without a directory requires --store "
                      "without --no-cache (traces into STORE/obs)",
                      file=sys.stderr)
                return 2
            trace_dir = Path(args.store) / "obs"
        else:
            trace_dir = Path(args.trace)

    if args.fault_plan is not None:
        from repro.robustness import FaultPlan, activate
        try:
            activate(FaultPlan.load(args.fault_plan))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"error: unusable --fault-plan: {exc}", file=sys.stderr)
            return 2

    if trace_dir is None:
        return _sweep_body(args, kwargs)
    from repro.obs import trace as obs_trace
    obs_trace.activate(trace_dir)
    try:
        return _sweep_body(args, kwargs, trace_dir=trace_dir)
    finally:
        obs_trace.deactivate()


def _sweep_body(args: argparse.Namespace, kwargs: dict,
                trace_dir: Optional[Path] = None) -> int:
    from repro.store import (
        ArtifactRegistry,
        CachedSweepRunner,
        ResultStore,
        ShardBackend,
        StoreMissError,
    )

    func = _SWEEPS[args.name]
    runner = None
    store = None
    server = None
    store_label = args.store
    retry = None
    if args.retries is not None or args.deadline is not None:
        from repro.robustness import RetryPolicy
        retry = RetryPolicy(
            max_attempts=args.retries if args.retries is not None else 1,
            deadline_s=args.deadline)
    if args.coordinator is not None:
        # fleet attach over HTTP: the coordinator's store is the store —
        # this process needs no local filesystem store at all
        from repro.store.coordinator import CoordinatorStore, HttpBackend

        remote = CoordinatorStore(args.coordinator)
        store_label = args.coordinator
        backend = HttpBackend(args.coordinator,
                              workers=0 if args.worker else args.workers)
        runner = CachedSweepRunner(remote, rerun=args.rerun, backend=backend,
                                   offline=args.from_store, retry=retry)
        kwargs["runner"] = runner
    elif args.store is not None and not args.no_cache:
        if args.from_store and _no_store_at(args.store):
            return 2
        store = ResultStore(args.store, rounds_sidecar_at=args.sidecar_at)
        backend = args.backend
        if args.worker:
            # attach mode: this process becomes one extra shard worker on
            # the live store — no child fleet of its own
            backend = ShardBackend(workers=0)
        if args.serve is not None:
            # host the local store behind a coordinator and run this very
            # sweep through it, so remote --worker --coordinator attachers
            # cooperate with the fleet we spawn here
            from repro.store.coordinator import CoordinatorServer, HttpBackend

            host, _, port = args.serve.partition(":")
            server = CoordinatorServer(store, host=host or "127.0.0.1",
                                       port=int(port or 0)).start()
            print(f"coordinator: {server.url} (serving {args.store}; attach "
                  f"with: --worker --coordinator {server.url})")
            backend = HttpBackend(server.url, workers=args.workers)
        runner = CachedSweepRunner(
            store, rerun=args.rerun, backend=backend,
            max_workers=args.workers if args.workers is not None
            else (0 if backend is None else None),
            offline=args.from_store, retry=retry)
        kwargs["runner"] = runner

    try:
        figure = func(**kwargs)
    except StoreMissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            server.stop()
    print(figure.table)
    if figure.fits:
        print("\nScaling fits (best first):")
        for fit in figure.fits:
            print(f"  {fit.predictor_name}: slope={fit.slope:.3f}, "
                  f"intercept={fit.intercept:.3f}, R^2={fit.r_squared:.4f}")
    if runner is not None:
        print(f"\ncache: {runner.last_stats.summary()} "
              f"(store: {store_label})")
    if trace_dir is not None:
        print(f"trace: {trace_dir} (inspect with: repro-consensus obs "
              f"summarize --trace {trace_dir})")

    cell_keys = figure.report.meta.get("store", {}).get("keys", {})
    if args.json is not None:
        figure.report.save_json(args.json)
        print(f"\nsaved JSON report to {args.json}")
        if store is not None:
            ArtifactRegistry(store.root / "artifacts.json").register(
                args.json, kind="sweep-report-json", cell_keys=cell_keys,
                extra={"sweep": args.name})
    if args.csv is not None:
        figure.report.save_csv(args.csv)
        print(f"saved CSV report to {args.csv}")
        if store is not None:
            ArtifactRegistry(store.root / "artifacts.json").register(
                args.csv, kind="sweep-report-csv", cell_keys=cell_keys,
                extra={"sweep": args.name})
    failures = figure.report.meta.get("failures", [])
    if failures:
        print(f"\n{len(failures)} cell(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure['cell']}: {failure['error']}", file=sys.stderr)
        return 3
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.io.tables import render_table
    from repro.store import ResultStore

    if args.store_command is None:
        print("usage: repro-consensus store {ls,info,gc} --store DIR")
        return 1
    if _no_store_at(args.store):
        return 2
    store = ResultStore(args.store)
    if args.store_command == "ls":
        rows = store.ls_rows()
        print(render_table(rows) if rows else "(empty store)")
        return 0
    if args.store_command == "info":
        if args.key is None:
            from repro.engine.rng import multinomial_kernel_id
            from repro.store.shard import failed_markers
            info = {
                **store.info(),
                "kernel_this_process": multinomial_kernel_id(),
            }
            markers = failed_markers(store.root)
            if args.json:
                info["failed_cells"] = markers
                _print_json(info)
                return 0
            if markers:
                # per-cell attempt counts from the shard failure markers, so
                # a fleet operator can see which cells are burning budget
                info["failed_cells"] = "; ".join(
                    f"{m.get('cell', '?')}: {m.get('attempts', 1)} attempt(s)"
                    f" [{m.get('kind', 'unclassified')}] {m.get('error', '')}"
                    for m in markers)
            print(render_kv(info, title=f"store {store.root}"))
            return 0
        matches = [k for k in store.keys() if k.startswith(args.key)]
        if len(matches) != 1:
            print(f"key {args.key!r}: "
                  f"{'no match' if not matches else f'{len(matches)} matches'}",
                  file=sys.stderr if args.json else sys.stdout)
            return 1
        record = store.get(matches[0])
        if record is None:
            print(f"key {matches[0]} is unreadable (quarantined)",
                  file=sys.stderr if args.json else sys.stdout)
            return 1
        if args.json:
            _print_json({
                "key": record.key,
                "cell": record.config.get("name", ""),
                "schema": record.schema,
                "config": record.config,
                "provenance": record.provenance,
                "mean_rounds": record.result.mean_rounds,
                "convergence_fraction": record.result.convergence_fraction,
            })
            return 0
        print(render_kv({
            "key": record.key,
            "cell": record.config.get("name", ""),
            "schema": record.schema,
            **{f"config.{k}": v for k, v in sorted(record.config.items())},
            **{f"provenance.{k}": v for k, v in sorted(record.provenance.items())},
            "mean_rounds": record.result.mean_rounds,
            "convergence_fraction": record.result.convergence_fraction,
        }, title="store record"))
        return 0
    if args.store_command == "gc":
        counts = store.gc(drop_schema_mismatch=args.drop_schema_mismatch,
                          drop_quarantine=args.drop_quarantine)
        print(f"gc: kept={counts['kept']} quarantined={counts['quarantined']} "
              f"dropped={counts['dropped']} "
              f"orphan_sidecars={counts['orphan_sidecars']} "
              f"dangling_artifacts={counts['dangling_artifacts']}")
        return 0
    return 1


def _no_store_at(root: Path) -> bool:
    """True, said on stderr, when ``root`` holds no result store (no
    ``cells/``): read-only commands must not create one."""
    if (root / "cells").is_dir():
        return False
    print(f"error: no result store at {root}", file=sys.stderr)
    return True


def _print_json(payload) -> None:
    """Machine-readable CLI output (repro.io.serialization conventions)."""
    import json

    from repro.io.serialization import to_jsonable

    print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True,
                     allow_nan=False))


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.export import merge_trace, validate_trace

    if args.obs_command is None:
        print("usage: repro-consensus obs {summarize,validate} --trace DIR")
        return 1
    if args.obs_command == "validate":
        try:
            stats = validate_trace(args.trace)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not stats.get("lines"):
            print(f"error: no trace lines under {args.trace}", file=sys.stderr)
            return 1
        print(render_kv(stats, title=f"trace {args.trace}"))
        return 0
    merged = merge_trace(args.trace)
    if args.json:
        _print_json(merged.summary())
        return 0 if merged.records else 1
    if not merged.records:
        print(f"(no trace records under {args.trace})")
        return 1
    print(f"trace {args.trace} — {len(merged.processes)} process(es), "
          f"{merged.stats['lines']} line(s), {merged.stats['torn']} torn\n")
    for line in merged.tree_lines():
        print(line)
    summary = merged.summary()
    flat = {}
    for name, agg in sorted(summary["spans"].items()):
        flat[f"span.{name}"] = (f"count={agg['count']} "
                                f"total={agg['total_s']:.3f}s")
    flat["events"] = summary["events"]
    flat["warnings"] = summary["warnings"]
    for name, value in summary["counters"].items():
        flat[f"counter.{name}"] = value
    for name, h in sorted(summary["histograms"].items()):
        flat[f"hist.{name}"] = (f"count={h['count']} mean={h['mean']:.4g} "
                                f"p50={h['p50']:.4g} p90={h['p90']:.4g} "
                                f"max={h['max']:.4g}")
    print()
    print(render_kv(flat, title="aggregate telemetry"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import render_json, render_text, run_lint

    try:
        run = run_lint(root=args.root, baseline_path=args.baseline,
                       write_baseline=args.write_baseline)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if run.wrote_baseline:
        count = len(run.result.findings)
        print(f"wrote baseline with {count} grandfathered finding(s) to "
              f"{run.baseline_path}")
    try:
        if args.format == "json":
            print(render_json(run.result, run.outcome, run.exit_code))
        else:
            print(render_text(run.result, run.outcome, run.exit_code))
    except BrokenPipeError:
        pass  # downstream pager/head closed the pipe; exit code still stands
    return run.exit_code


def _cmd_figure1(args: argparse.Namespace) -> int:
    figure = figures.reproduce_figure1(scale=args.scale, num_runs=args.runs)
    print("Figure 1 (empirical mean convergence rounds):\n")
    print(figure.table)
    return 0


def _cmd_rules(_: argparse.Namespace) -> int:
    print("Update rules:")
    for name in sorted(available_rules()):
        print(f"  - {name}")
    print("\nAdversary strategies:")
    for name in sorted(ADVERSARY_REGISTRY):
        print(f"  - {name}")
    print("\nWorkloads:")
    for name in sorted(WORKLOAD_REGISTRY):
        print(f"  - {name}")
    print("\nEngines (single-run):")
    for name in sorted(ENGINES):
        print(f"  - {name}")
    print("\nEngines (batch/sweep):")
    for name in sorted(BATCH_ENGINES):
        print(f"  - {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "figure1":
        return _cmd_figure1(args)
    if args.command == "rules":
        return _cmd_rules(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "lint":
        return _cmd_lint(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
