"""Execution backends for store-routed sweeps, and the one per-cell step.

:class:`~repro.store.runner.CachedSweepRunner` partitions a sweep into cache
hits and misses.  Every miss is computed by one :class:`CellStep` — the only
place a cell is computed: :func:`~repro.experiments.runner.run_cell` under
:func:`~repro.robustness.call_with_retry`, persisted with the cell's
provenance, counted (``cells.computed`` / ``cells.failed``) and traced
(``cell.compute``), or turned into the canonical
:func:`~repro.experiments.runner.failed_cell_result`.  An
:class:`ExecutionBackend` only decides how the misses map onto that step:

``serial`` (:class:`SerialBackend`)
    An in-process loop, one cell at a time.

``pool`` (:class:`PoolBackend`)
    A process pool over the cells' configs: each child makes one cell's
    first attempt and returns the :class:`CellResult` that ``run_cell``
    builds (or its error string); the parent hands it to the step in
    completion order, which persists it — the interrupt-resume property —
    and makes any retries in-process.

``shard`` / ``http`` (:class:`~repro.store.shard.ShardBackend` /
:class:`~repro.store.coordinator.HttpBackend`)
    One fleet loop of lease-driven worker processes that compute every
    cell exactly once, sharing the store directory (:mod:`repro.store.shard`)
    or, on disjoint filesystems, a coordinator URL
    (:mod:`repro.store.coordinator`; callers construct
    ``HttpBackend(url, workers)`` directly).

Every backend returns the fresh results by sweep position.  A cell that
raises is returned as its failure record (and is *not* persisted), so a
poisoned cell surfaces per-cell in the report instead of aborting the sweep
or silently vanishing — identically on every backend.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Union

from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult
from repro.experiments.runner import failed_cell_result, run_cell
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness import warn_degraded
from repro.robustness.faults import fault_point, mark_worker_process
from repro.robustness.retry import (
    DEFAULT_RETRY_POLICY,
    CellError,
    Deadline,
    RetryExhausted,
    RetryPolicy,
    SweepDeadlineError,
    call_with_retry,
    format_cell_error,
)
from repro.store.artifacts import build_provenance
from repro.store.hashing import cell_key

if TYPE_CHECKING:   # pragma: no cover — typing only, avoids an import cycle
    from repro.store.runner import CachedSweepRunner

__all__ = ["CellStep", "ExecutionBackend", "SerialBackend", "PoolBackend",
           "recommended_workers", "resolve_backend", "BACKEND_NAMES"]


def recommended_workers() -> int:
    """A conservative worker count: ``cpu_count - 1`` with a floor of 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def _kernel_id() -> str:
    """Resolved multinomial-kernel id for provenance; never raises."""
    try:
        from repro.engine.rng import multinomial_kernel_id
        return multinomial_kernel_id()
    except Exception:
        return "unknown"


@dataclass
class CellStep:
    """The one per-cell step every backend maps cells onto.

    A call computes one cell with ``compute`` under the retry policy —
    transient errors retried with jittered backoff until the attempt budget
    or the sweep deadline runs out, permanent errors failing at once —
    persisting each successful attempt (so a failed write re-runs the cell,
    like the shard protocol's payload-exists-means-done recovery).  It
    returns the computed result, or the failure record whose ``attempts``
    is the number of times ``compute`` ran for the cell; a cell the deadline
    stopped before it started is a ``SweepDeadlineError`` failure.

    ``persist(cell, key, result, provenance)`` stores one computed cell
    (``None``: a store-less run, which builds no provenance either).
    ``compute`` defaults to this module's ``run_cell``, looked up at call
    time (tests and benchmarks patch it).  ``worker`` (shard and http
    workers) lands in the provenance and the ``cell.compute`` span next to
    ``backend``.
    """

    backend: str
    persist: Optional[Callable[..., None]]
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    deadline: Optional[Deadline] = None
    compute: Optional[Callable[[ExperimentConfig], CellResult]] = None
    worker: Optional[str] = None

    def __call__(self, cell: ExperimentConfig, key: Optional[str] = None,
                 first: Union[CellResult, str, None] = None,
                 prior_attempts: int = 0) -> CellResult:
        """Compute ``cell``; ``first`` is a first attempt made elsewhere.

        A pool child's attempt arrives as ``first`` (its result, or its
        canonical error string) and counts as attempt one.
        ``prior_attempts`` charges attempts an earlier worker spent on the
        cell (a shard failure marker) against the budget.
        """
        key = key or cell_key(cell)
        who = {} if self.worker is None else {"worker": self.worker}
        ran = 0

        def attempt() -> CellResult:
            nonlocal ran
            ran += 1
            elapsed: Optional[float] = None
            if ran > 1 or first is None:
                t0 = time.perf_counter()
                result = (self.compute or run_cell)(cell)
                elapsed = time.perf_counter() - t0
            elif isinstance(first, str):
                raise CellError(first)
            else:
                result = first
            if self.persist is not None:
                provenance = build_provenance(extra={
                    "seed": cell.seed,
                    "engine": result.extra.get("engine", cell.engine),
                    "elapsed_s": (None if elapsed is None
                                  else round(elapsed, 6)),
                    "attempts": prior_attempts + ran,
                    # which exact-multinomial kernel drew this cell: cached
                    # results stay attributable across the backend-scoped
                    # bit streams
                    "multinomial_kernel": _kernel_id(),
                    "backend": self.backend,
                    **who,
                })
                provenance.pop("cell_keys", None)   # not derived from cells
                self.persist(cell, key, result, provenance)
            return result

        t_cell = time.perf_counter()
        # span identity is the canonical cell hash, so a rerun of the same
        # cell — any process, any backend — shares its span id
        with obs_trace.span("cell.compute", key=key, cell=key,
                            cell_label=cell.name, backend=self.backend,
                            **who) as cell_span:
            try:
                if (first is None and self.deadline is not None
                        and self.deadline.expired()):
                    raise self.deadline.error(cell.name)
                result = call_with_retry(attempt, self.retry, label=cell.name,
                                         deadline=self.deadline,
                                         prior_attempts=prior_attempts,
                                         key=key)
            except Exception as exc:   # noqa: BLE001 — per-cell isolation
                error = (exc.error if isinstance(exc, RetryExhausted)
                         else format_cell_error(exc))
                failed = failed_cell_result(cell, error,
                                            attempts=prior_attempts + ran)
                cell_span.set(
                    outcome=("deadline" if isinstance(exc, SweepDeadlineError)
                             else "failed"),
                    attempts=prior_attempts + ran, kind=failed.extra["kind"])
                obs_metrics.count("cells.failed")
                return failed
            cell_span.set(outcome="computed", attempts=prior_attempts + ran)
            # after persist on purpose: for shard workers, persisting
            # appends the ledger line ``cells.computed`` reconciles with
            obs_metrics.count("cells.computed")
            obs_metrics.observe("cell.elapsed_s", time.perf_counter() - t_cell)
        return result


class ExecutionBackend(Protocol):
    """The contract every miss-execution strategy implements.

    ``execute`` runs the cells of ``sweep`` at positions ``misses`` through
    one :class:`CellStep` and returns ``{position: CellResult}`` covering
    every miss — failed cells as
    :func:`~repro.experiments.runner.failed_cell_result`, never persisted.
    """

    name: str

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner: "CachedSweepRunner") -> Dict[int, CellResult]: ...


class SerialBackend:
    """Execute misses in-process, one cell at a time."""

    name = "serial"

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner: "CachedSweepRunner") -> Dict[int, CellResult]:
        step = runner.cell_step(self.name)
        return {i: step(sweep.cells[i]) for i in misses}


def _first_attempt(cell: ExperimentConfig, deadline: Optional[Deadline]
                   ) -> Union[CellResult, str, None]:
    """Pool-child entry: one cell's first attempt, or ``None`` when the
    sweep deadline passed before it could start.

    A raising cell returns its canonical error string instead of raising:
    the string crosses the process boundary intact, and one poisoned cell
    never aborts the pool.
    """
    if deadline is not None and deadline.expired():
        return None
    try:
        return run_cell(cell)
    except Exception as exc:   # noqa: BLE001 — per-cell isolation
        return format_cell_error(exc)


class PoolBackend:
    """Execute misses on a process pool, persisting in completion order.

    ``max_workers``: ``None`` → :func:`recommended_workers`, ``0``/``1`` (or
    a single miss) → in-process.  A pool that cannot start (sandbox) or
    breaks mid-sweep (a SIGKILLed worker) degrades to completing the sweep
    in-process — never re-running a cell the pool already finished.
    """

    name = "pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner: "CachedSweepRunner") -> Dict[int, CellResult]:
        step = runner.cell_step(self.name)
        workers = (recommended_workers() if self.max_workers is None
                   else int(self.max_workers))
        fresh: Dict[int, CellResult] = {}
        if workers > 1 and len(misses) > 1:
            try:
                fault_point("subprocess.spawn", backend="pool")
                with ProcessPoolExecutor(max_workers=workers,
                                         initializer=mark_worker_process) as pool:
                    futures = {pool.submit(_first_attempt, sweep.cells[i],
                                           step.deadline): i for i in misses}
                    for future in as_completed(futures):
                        i = futures[future]
                        # a future poisoned by a dead worker raises here,
                        # leaving its cell for the in-process completion
                        fresh[i] = step(sweep.cells[i], first=future.result())
            except (OSError, ValueError, RuntimeError) as exc:
                warn_degraded(f"process pool unavailable "
                              f"({type(exc).__name__}: {exc}); "
                              f"completing the sweep serially in-process",
                              rung="pool-to-serial")
        for i in misses:
            if i not in fresh:
                fresh[i] = step(sweep.cells[i])
        return fresh


#: CLI-facing backend names (see :func:`resolve_backend`).
BACKEND_NAMES = ("serial", "pool", "shard", "http")


def resolve_backend(backend: Union[str, ExecutionBackend, None],
                    max_workers: Optional[int] = 0,
                    coordinator: Optional[str] = None) -> ExecutionBackend:
    """Turn a backend spec (name, instance or ``None``) into a backend.

    ``None`` keeps the historical ``max_workers`` convention of
    :func:`~repro.experiments.runner.run_sweep`: ``0``/``1`` → serial,
    ``None``/>1 → pool.  For ``"shard"``, ``max_workers`` is the number of
    worker processes (``None`` → :func:`recommended_workers`, ``0`` → run
    the worker loop in the calling process — the ``--worker`` attach mode).
    ``"http"`` additionally needs ``coordinator`` (the coordinator URL);
    ``max_workers`` follows the shard convention.
    """
    if backend is None:
        return SerialBackend() if max_workers in (0, 1) \
            else PoolBackend(max_workers)
    if not isinstance(backend, str):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "pool":
        return PoolBackend(max_workers)
    if backend == "shard":
        from repro.store.shard import ShardBackend

        return ShardBackend(workers=max_workers)
    if backend == "http":
        if coordinator is None:
            raise ValueError(
                "backend 'http' needs a coordinator URL: pass "
                "coordinator=... (CLI: --coordinator URL) or construct "
                "repro.store.coordinator.HttpBackend directly")
        from repro.store.coordinator import HttpBackend

        return HttpBackend(coordinator, workers=max_workers)
    raise ValueError(f"unknown execution backend {backend!r}; "
                     f"available: {BACKEND_NAMES}")
