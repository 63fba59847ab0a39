"""Experiment execution: run a cell or a sweep and collect results.

:func:`run_cell` executes one :class:`~repro.experiments.config.ExperimentConfig`
(``num_runs`` independent simulations) and returns a
:class:`~repro.experiments.results.CellResult`; it is the only compute
function on every execution backend.  :func:`run_sweep` maps it over a
:class:`~repro.experiments.config.SweepConfig` through the one sweep driver,
:class:`repro.store.CachedSweepRunner`, without a store — in-process, or on
a process pool for the independent cells.

Engine routing is delegated to :func:`repro.engine.batch.run_batch`: cells
with ``engine="occupancy-fused"`` advance all their runs as one (R, m) count
tensor (no per-run Python loop) when the rule/adversary pair supports it and
fall back to the looped occupancy path otherwise; the workload is built in
the matching representation by
:func:`~repro.experiments.workloads.make_workload_for_engine`.

Caching
-------
:func:`run_sweep` always recomputes.  The same runner over a
:class:`~repro.store.ResultStore` serves cells from the store by their
canonical hash (:mod:`repro.store.hashing` — engine- and label-independent)
and persists fresh ones as they complete; the CLI exposes this as
``sweep --store DIR`` with ``--no-cache`` (bypass the store entirely) and
``--rerun`` (recompute and overwrite) as the escape hatches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversary.strategies import make_adversary
from repro.core.rules import get_rule
from repro.core.state import Configuration
from repro.engine.batch import fused_occupancy_cell_supported, run_batch
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult, ExperimentReport
from repro.experiments.workloads import (
    implied_support_width,
    make_workload_for_engine,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness.faults import fault_point
from repro.robustness.retry import classify_error

__all__ = [
    "EXECUTION_STATS",
    "resolve_cell_engine",
    "run_cell",
    "run_sweep",
    "failed_cell_result",
]

#: Per-process count of in-process cell executions (``run_cell`` calls).
#: The zero-recompute assertions (warm figure regeneration, offline store
#: replay) read this to prove no simulation happened; pooled/sharded child
#: processes keep their own counters, which is exactly the right scope for
#: "this process computed nothing".
EXECUTION_STATS = {"run_cell_calls": 0}


def resolve_cell_engine(rule: str, adversary: str, engine: str,
                        workload: Optional[str] = None,
                        workload_params: Optional[dict] = None) -> str:
    """The engine a cell actually executes on.

    ``"occupancy-fused"`` cells whose rule/adversary pair has no count-space
    form — or whose support is too wide for count space to win (m² ≫ n,
    e.g. the all-distinct workload where m = n) — fall back to
    ``"vectorized"`` *before* a workload is built in the wrong
    representation.
    """
    if engine != "occupancy-fused":
        return engine
    n = m = None
    if workload_params:
        n = int(workload_params.get("n", 0)) or None
        m = implied_support_width(workload or "", workload_params) or None
    if not fused_occupancy_cell_supported(rule, adversary, n=n, m=m):
        return "vectorized"
    return engine


def run_cell(config: ExperimentConfig) -> CellResult:
    """Execute one experiment cell in-process and summarize it."""
    EXECUTION_STATS["run_cell_calls"] += 1
    fault_point("worker.compute", cell=config.name)
    if obs_trace.enabled():
        from repro.engine._multinomial import DRAW_STATS

        draws_before = dict(DRAW_STATS)
    else:
        draws_before = None
    rule = get_rule(config.rule, **config.rule_params)
    engine = resolve_cell_engine(config.rule, config.adversary, config.engine,
                                 config.workload, config.workload_params)
    workload = make_workload_for_engine(config.workload, engine,
                                        **config.workload_params)

    adversary_factory = None
    if config.adversary_budget > 0 and config.adversary != "null":
        def adversary_factory():
            return make_adversary(config.adversary, budget=config.adversary_budget,
                                  **config.adversary_params)

    batch = run_batch(
        workload,
        num_runs=config.num_runs,
        rule=rule,
        adversary_factory=adversary_factory,
        seed=config.seed,
        max_rounds=config.max_rounds,
        engine=engine,
    )
    if draws_before is not None:
        # traced: attribute this batch's engine work (and, by the deltas,
        # its multinomial traffic) to the cell; ``engine.rounds`` sums the
        # finite (converged) per-run round counts
        obs_metrics.count("engine.runs", batch.num_runs)
        rounds = int(sum(r for r in batch.rounds if np.isfinite(r)))
        if rounds:
            obs_metrics.count("engine.rounds", rounds)
        calls = DRAW_STATS["calls"] - draws_before["calls"]
        rows = DRAW_STATS["rows"] - draws_before["rows"]
        if calls:
            obs_metrics.count("engine.multinomial_calls", calls)
        if rows:
            obs_metrics.count("engine.multinomial_rows", rows)
    return CellResult(
        config=config,
        num_runs=batch.num_runs,
        convergence_fraction=batch.convergence_fraction,
        mean_rounds=batch.mean_rounds,
        median_rounds=batch.median_rounds,
        p90_rounds=batch.quantile(0.9),
        max_rounds=batch.max_rounds,
        rounds=[float(r) for r in batch.rounds],
        extra={"rule": config.rule, "adversary": config.adversary,
               "engine": engine},
    )


def failed_cell_result(cell: ExperimentConfig, error: str,
                       attempts: int = 1,
                       kind: Optional[str] = None) -> CellResult:
    """The canonical record of a cell whose execution raised.

    The metrics use ``inf`` (the existing "did not converge" value — and,
    unlike NaN, equal to itself) so failure-carrying reports compare equal
    across backends; the error string (exception type + message, see
    :func:`repro.robustness.format_cell_error`) rides in ``extra``
    together with the attempt count and the failure *kind* —
    ``"permanent"`` (a deterministic error, never retried) or
    ``"transient-exhausted"`` (a transient error that survived every
    attempt the :class:`~repro.robustness.RetryPolicy` budget allowed).
    Every backend derives these identically from the error string, so
    failure-carrying reports stay equal across backends.
    """
    if kind is None:
        kind = ("permanent" if classify_error(error) == "permanent"
                else "transient-exhausted")
    return CellResult(
        config=cell,
        num_runs=0,
        convergence_fraction=0.0,
        mean_rounds=float("inf"),
        median_rounds=float("inf"),
        p90_rounds=float("inf"),
        max_rounds=float("inf"),
        rounds=[],
        extra={"failed": True, "error": error, "attempts": int(attempts),
               "kind": kind},
    )


def run_sweep(sweep: SweepConfig, max_workers: Optional[int] = 0) -> ExperimentReport:
    """Execute every cell of a sweep (no store: always recomputes).

    Parameters
    ----------
    sweep:
        The sweep definition.
    max_workers:
        ``0``/``1`` → serial in-process execution (default; deterministic and
        test-friendly); ``None`` or >1 → a process pool over cells.

    Returns
    -------
    ExperimentReport
        A cell that raises during execution is *not* fatal on either path: it
        becomes a :func:`failed_cell_result` in its sweep position and is
        listed in ``report.meta["failures"]`` (label + error), so a poisoned
        cell can never abort a sweep or silently vanish from its report.
    """
    # imported here: repro.store builds on this module
    from repro.store.runner import CachedSweepRunner

    return CachedSweepRunner(None, max_workers=max_workers).run(sweep)
