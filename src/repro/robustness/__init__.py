"""Fault injection, retry policy, and degradation warnings.

The robustness substrate for the execution stack, in three parts:

1. :mod:`repro.robustness.faults` — a deterministic, seed-driven
   :class:`FaultPlan`/:class:`FaultInjector` arming named seams across the
   store, lease, worker, and kernel layers (``REPRO_FAULT_PLAN`` env or
   in-process :func:`activate`; zero overhead unarmed).
2. :mod:`repro.robustness.retry` — one :class:`RetryPolicy` (attempt
   budget, jittered exponential backoff, per-sweep deadline) threaded
   through every execution backend, with permanent/transient error
   classification shared by the serial, pool, and shard paths.
3. Degradation warnings — each rung of the degradation ladder (corrupt
   entry quarantined on read, unreadable store, shard/http→pool→serial
   backend downgrade, unwritable store) announces itself exactly once per
   incident through a typed warning below, so degraded runs are visible
   without being fatal.

See the README "Robustness" section for the seam catalog and the policy
knobs, and ``tests/chaos.py`` for the harness that certifies the
invariants under randomized fault schedules.
"""

from __future__ import annotations

import warnings
from typing import Any

from .faults import (
    ENV_VAR,
    SEAMS,
    SHAPES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    activate,
    active_plan,
    deactivate,
    fault_point,
    in_worker_process,
    mark_worker_process,
    maybe_torn,
    read_fault_journal,
)
from .retry import (
    DEFAULT_RETRY_POLICY,
    PERMANENT_ERROR_TYPES,
    CellError,
    Deadline,
    RetryExhausted,
    RetryPolicy,
    SweepDeadlineError,
    call_with_retry,
    classify_error,
    format_cell_error,
)

__all__ = [
    # faults
    "ENV_VAR", "SEAMS", "SHAPES", "FaultInjector", "FaultPlan", "FaultSpec",
    "InjectedFault", "activate", "active_plan", "deactivate", "fault_point",
    "in_worker_process", "mark_worker_process", "maybe_torn",
    "read_fault_journal",
    # retry
    "DEFAULT_RETRY_POLICY", "PERMANENT_ERROR_TYPES", "CellError", "Deadline",
    "RetryExhausted", "RetryPolicy", "SweepDeadlineError", "call_with_retry",
    "classify_error", "format_cell_error",
    # degradation warnings
    "DegradedExecutionWarning", "StoreIntegrityWarning", "TornLogWarning",
    "warn_degraded",
]


class DegradedExecutionWarning(UserWarning):
    """Execution continued on a lower rung of the degradation ladder.

    Emitted once per incident by :func:`warn_degraded`, labelled with its
    rung:

    ``store-unreadable``  the store cannot be read; every cell is a miss
    ``shard-to-pool``     shard lease infrastructure is not writable
    ``http-to-pool``      the http coordinator is unreachable
    ``pool-to-serial``    pool worker processes cannot start or broke
    ``store-unwritable``  results are returned but not persisted
    """


class StoreIntegrityWarning(UserWarning):
    """A stored entry failed sha256/parse verification on read.

    The damaged payload (and sidecar, if any) was quarantined and the cell
    will be recomputed transparently on the next coordinated run.
    """


class TornLogWarning(UserWarning):
    """An append-only JSONL log contained undecodable lines (torn append).

    The damaged lines were skipped; the surviving records are returned.
    """


def warn_degraded(message: str, rung: str, **attrs: Any) -> None:
    """Announce one step down the degradation ladder, labelled by ``rung``.

    Issues the :class:`DegradedExecutionWarning`, emits its structured twin
    (visible in the merged trace even from worker processes) and counts
    ``degraded{rung}``.  :mod:`repro.obs` is imported lazily: the ladder is
    a cold path, and this package never depends on it at module level.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    warnings.warn(message, DegradedExecutionWarning, stacklevel=3)
    obs_trace.warning_event("DegradedExecutionWarning", message, rung=rung,
                            **attrs)
    obs_metrics.count("degraded", rung=rung)
