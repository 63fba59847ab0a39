"""Cache-aware, resumable sweep execution on top of a :class:`ResultStore`.

:class:`CachedSweepRunner` is the one sweep driver —
:func:`repro.experiments.runner.run_sweep` is this runner without a store —
and executes a sweep through a hit/miss partition:

1. every cell of the sweep is hashed (:func:`repro.store.hashing.cell_key` —
   engine- and label-independent);
2. cells whose key already has a valid store record are *hits* and are not
   executed;
3. the remaining *misses* run through a pluggable
   :class:`~repro.store.backends.ExecutionBackend` — in-process ``serial``,
   a process ``pool``, or the lease-driven ``shard``/``http`` worker fleets
   of :mod:`repro.store.shard` — each mapping the cells onto the one
   per-cell :class:`~repro.store.backends.CellStep`.  Every backend
   persists each finished cell the moment it completes, so a sweep killed
   halfway resumes from the already-completed cells instead of restarting;
4. the final :class:`~repro.experiments.results.ExperimentReport` is
   assembled in sweep order from cached + fresh results.  A cell that raised
   is included as the canonical failure record and listed in
   ``report.meta["failures"]`` — identically on every backend.

Cache-assembled cells reuse the *requesting* sweep's config, so re-running an
identical sweep yields a report equal (``==``) to the cold run's; the config
the record was originally written under stays available in the store record's
provenance.  Volatile execution facts (hit/miss counts, elapsed times) are
deliberately kept out of ``report.meta`` for the same reason — read them from
:attr:`CachedSweepRunner.last_stats`.

``offline=True`` turns the runner into a zero-recompute replayer: a miss
raises :class:`StoreMissError` instead of executing, which is how warm
figure/table regeneration proves it simulated nothing (see
``repro-consensus sweep --from-store``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult, ExperimentReport
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness import warn_degraded
from repro.robustness.retry import DEFAULT_RETRY_POLICY, Deadline, RetryPolicy
from repro.store.backends import (
    CellStep,
    ExecutionBackend,
    _kernel_id,
    resolve_backend,
)
from repro.store.store import ResultStore, StoreRecord

__all__ = ["CacheStats", "CachedSweepRunner", "StoreMissError",
           "run_sweep_cached"]

#: Sentinel distinguishing "argument omitted" from an explicit ``None``
#: (which, per the run_sweep convention, requests the default-size pool).
_UNSET: object = object()


class StoreMissError(LookupError):
    """An offline (zero-recompute) run hit a cell the store does not hold."""

    def __init__(self, missing: List[str]) -> None:
        self.missing = list(missing)
        preview = ", ".join(self.missing[:5])
        more = f" (+{len(self.missing) - 5} more)" if len(self.missing) > 5 else ""
        super().__init__(
            f"offline run: {len(self.missing)} cell(s) not in the store: "
            f"{preview}{more}; run the sweep with --store first")


@dataclass
class CacheStats:
    """Hit/miss accounting of one cached sweep execution."""

    hits: int = 0
    misses: int = 0
    failures: int = 0
    executed: List[str] = field(default_factory=list)   # keys actually run

    @property
    def total(self) -> int:
        return self.hits + self.misses

    def summary(self) -> str:
        base = f"hits={self.hits} misses={self.misses}"
        if self.failures:
            base += f" failures={self.failures}"
        return base


class CachedSweepRunner:
    """Execute sweeps through a :class:`ResultStore`, skipping cached cells.

    Parameters
    ----------
    store:
        The backing result store (created on first write if the directory is
        empty), or ``None`` for a store-less run that computes every cell
        and persists nothing (:func:`~repro.experiments.runner.run_sweep`).
    rerun:
        ``True`` forces every cell to execute even on a hit, overwriting the
        stored records — the ``--rerun`` escape hatch for invalidating
        results after a semantics-changing code edit.
    max_workers:
        Default worker count for :meth:`run` (same convention as
        :func:`~repro.experiments.runner.run_sweep`: ``0``/``1`` serial,
        ``None``/>1 a process pool over the missing cells).  For the shard
        backend this is the number of worker processes.
    backend:
        Miss-execution strategy: a name (``"serial"``, ``"pool"``,
        ``"shard"``), an :class:`~repro.store.backends.ExecutionBackend`
        instance, or ``None`` for the historical ``max_workers`` convention
        (the only choice without a store).
    offline:
        ``True`` forbids execution entirely: any miss raises
        :class:`StoreMissError`.  The zero-recompute mode behind
        ``sweep --from-store`` figure/table regeneration.
    retry:
        The :class:`~repro.robustness.RetryPolicy` every backend executes
        misses under (attempt budget, jittered backoff, per-sweep
        deadline).  The default — ``max_attempts=1``, no deadline — is
        exactly the historical no-retry behavior.  Exhausted transient
        cells and permanent errors both surface as canonical failures,
        distinguished by ``kind`` in ``report.meta["failures"]``.
    """

    def __init__(self, store: Optional[ResultStore], rerun: bool = False,
                 max_workers: Optional[int] = 0,
                 backend: Union[str, ExecutionBackend, None] = None,
                 offline: bool = False,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.store = store
        self.rerun = rerun
        self.max_workers = max_workers
        self.backend = backend
        self.offline = offline
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.last_stats = CacheStats()
        self._deadline: Optional[Deadline] = None
        self._persist_degraded = False

    # ------------------------------------------------------------------ #
    def partition(self, sweep: SweepConfig
                  ) -> Tuple[Dict[int, StoreRecord], List[int]]:
        """Split sweep cells (by position) into cache hits and misses.

        Returns ``(hits, misses)`` where ``hits`` maps cell index → loaded
        :class:`StoreRecord` and ``misses`` lists the indices to execute.
        Duplicate cells (same key appearing twice in one sweep) are all
        treated as misses on a cold store; the last execution wins the slot.

        Degradation ladder: a store that cannot be *read* (unreadable
        directory, unreachable coordinator) turns every cell into a miss
        with one :class:`DegradedExecutionWarning` — the sweep computes
        everything instead of dying, the mirror image of
        :meth:`persist_fresh`'s unwritable-store rung.
        """
        hits: Dict[int, StoreRecord] = {}
        misses: List[int] = []
        records: List[Optional[StoreRecord]] = [None] * len(sweep.cells)
        if not self.rerun and self.store is not None:
            try:
                # one batched read: the coordinator's store answers it in
                # one request, a local store with one get per cell
                records = self.store.get_many(sweep.cells)
            except OSError as exc:
                warn_degraded(f"store {self.store.root} is not readable "
                              f"({exc}); treating every cell as a miss",
                              rung="store-unreadable")
        for i, record in enumerate(records):
            if record is None:
                misses.append(i)
            else:
                hits[i] = record
        return hits, misses

    # ------------------------------------------------------------------ #
    def run(self, sweep: SweepConfig,
            max_workers: object = _UNSET) -> ExperimentReport:
        """Execute a sweep, serving cached cells from the store.

        ``max_workers`` follows the :func:`~repro.experiments.runner.run_sweep`
        convention (``0``/``1`` serial, ``None`` default-size pool, >1 pool of
        that size); when omitted, the runner's constructor default applies.
        The execution backend is resolved from the constructor's ``backend``
        (see :func:`repro.store.backends.resolve_backend`).
        """
        if max_workers is _UNSET:
            max_workers = self.max_workers
        # the sweep span is the root of the whole fleet's trace: worker
        # processes spawned while it is open parent their spans under it
        with obs_trace.span("sweep", key=sweep.name, sweep=sweep.name,
                            cells=len(sweep.cells),
                            offline=self.offline) as sweep_span:
            hits, misses = self.partition(sweep)
            self.last_stats = CacheStats(hits=len(hits), misses=len(misses))
            if obs_trace.enabled():
                # resolving the kernel costs a library load: traced runs only
                sweep_span.set(kernel=_kernel_id())
                if hits:
                    obs_metrics.count("cache.hits", len(hits))
                if misses:
                    obs_metrics.count("cache.misses", len(misses))

            fresh: Dict[int, CellResult] = {}
            if misses and self.offline:
                raise StoreMissError([sweep.cells[i].name for i in misses])
            if misses:
                # one wall-clock deadline for the whole sweep; every
                # backend's step (and the fleet workers, which receive it
                # as a spawn argument) checks it so an unlucky fleet cannot
                # hang past its budget
                self._deadline = Deadline(self.retry.deadline_s)
                backend = resolve_backend(self.backend, max_workers)
                sweep_span.set(backend=backend.name)
                try:
                    fresh = backend.execute(sweep, misses, self)
                finally:
                    self._deadline = None

            report = ExperimentReport(name=sweep.name,
                                      description=sweep.description)
            for i, cell in enumerate(sweep):
                # serve cached metrics under the requesting cell's config
                report.add(fresh[i] if i in fresh
                           else replace(hits[i].result, config=cell))
            if self.store is not None:
                report.meta["store"] = {
                    "keys": {c.name: self.store.key_for(c) for c in sweep},
                    "schema": 1}
            # written only when a cell failed, so clean reports keep their
            # historical shape (and their equality with stored ones)
            failures = [{"cell": c.config.name,
                         "error": str(c.extra.get("error", "")),
                         "attempts": int(c.extra.get("attempts", 1)),
                         "kind": str(c.extra.get("kind", ""))}
                        for c in report.cells if c.extra.get("failed")]
            if failures:
                report.meta["failures"] = failures
            self.last_stats.failures = len(failures)
            if self.last_stats.failures:
                obs_metrics.count("cache.failures", self.last_stats.failures)
            sweep_span.set(hits=self.last_stats.hits,
                           misses=self.last_stats.misses,
                           failures=self.last_stats.failures)
        return report

    # ------------------------------------------------------------------ #
    def cell_step(self, backend: str) -> CellStep:
        """The per-cell step the in-process backends run misses through."""
        return CellStep(backend,
                        None if self.store is None else self.persist_fresh,
                        self.retry, self._deadline)

    def persist_fresh(self, cell: ExperimentConfig, key: str,
                      result: CellResult, provenance: Dict[str, Any]) -> None:
        """Persist one freshly computed cell (the step calls this per cell).

        Degradation ladder, last rung: when the store directory is not
        writable the computed result is still returned to the report — it
        just is not cached.  One :class:`DegradedExecutionWarning` is
        emitted per runner, and the key is *not* counted as executed-and-
        stored in :attr:`last_stats.executed`.
        """
        try:
            self._persist(cell, result, provenance)
        except OSError as exc:
            if not self._persist_degraded:
                self._persist_degraded = True
                warn_degraded(f"store {self.store.root} is not writable "
                              f"({exc}); results are returned but not "
                              f"persisted", rung="store-unwritable", cell=key)
            return
        self.last_stats.executed.append(key)

    def _persist(self, cell: ExperimentConfig, result: CellResult,
                 provenance: Dict[str, Any]) -> str:
        return self.store.put(cell, result, provenance)


def run_sweep_cached(sweep: SweepConfig, store: ResultStore | str,
                     rerun: bool = False,
                     max_workers: Optional[int] = 0,
                     backend: Union[str, ExecutionBackend, None] = None,
                     ) -> ExperimentReport:
    """One-shot convenience wrapper around :class:`CachedSweepRunner`.

    ``max_workers`` uses the :func:`~repro.experiments.runner.run_sweep`
    convention, including ``None`` for a default-size process pool;
    ``backend`` picks the execution backend by name or instance.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    return CachedSweepRunner(store, rerun=rerun, backend=backend).run(
        sweep, max_workers=max_workers)
