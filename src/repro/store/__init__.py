"""repro.store — content-addressed result store and cache-aware sweeps.

The persistence substrate for sweep traffic: cells are keyed by a canonical,
engine-independent hash of their :class:`~repro.experiments.config.ExperimentConfig`
(:mod:`repro.store.hashing`), executed results live in a directory-backed
:class:`ResultStore` (:mod:`repro.store.store`, with optional NPZ rounds
sidecars for large R), sweeps run through the resumable
:class:`CachedSweepRunner` (:mod:`repro.store.runner`) on a pluggable
execution backend (:mod:`repro.store.backends`: ``serial``, ``pool``, the
lease-based multi-worker ``shard`` backend of :mod:`repro.store.shard`, or
the coordinator-backed ``http`` backend of :mod:`repro.store.coordinator`
for workers on disjoint filesystems), and
derived outputs (figure tables, saved reports) record their input keys
and git revision via :mod:`repro.store.artifacts`.

Execution robustness (payload/sidecar integrity verification on read with
auto-quarantine, per-cell retry budgets with backoff, shard→pool→serial
degradation, deterministic fault injection) is built on
:mod:`repro.robustness` — see the README "Robustness" section.

CLI surface: ``repro-consensus sweep --store DIR [--no-cache|--rerun]
[--backend {serial,pool,shard,http}] [--workers K] [--worker] [--from-store]
[--retries N] [--deadline S] [--fault-plan PLAN] [--serve [ADDR]]
[--coordinator URL]``
and ``repro-consensus store {ls,info,gc}``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.store.artifacts": (
        "ArtifactRegistry",
        "build_provenance",
        "git_sha",
    ),
    "repro.store.backends": (
        "BACKEND_NAMES",
        "ExecutionBackend",
        "PoolBackend",
        "SerialBackend",
        "resolve_backend",
    ),
    "repro.store.coordinator": (
        "CoordinatorClient",
        "CoordinatorError",
        "CoordinatorServer",
        "CoordinatorStore",
        "HttpBackend",
        "HttpLeaseClient",
    ),
    "repro.store.hashing": ("canonical_cell_dict", "cell_key", "short_key"),
    "repro.store.runner": (
        "CachedSweepRunner",
        "CacheStats",
        "StoreMissError",
        "run_sweep_cached",
    ),
    "repro.store.shard": (
        "LeaseManager",
        "ShardBackend",
        "ShardWorker",
        "failed_markers",
        "read_execution_log",
        "run_sweep_sharded",
    ),
    "repro.store.store": (
        "STORE_SCHEMA_VERSION",
        "ResultStore",
        "StoreRecord",
    ),
})
