"""Sharded sweep execution: independent workers leasing cells from a store.

The content-addressed cell key (:mod:`repro.store.hashing`) is the dedup
point for distributed execution: any process that can see the store directory
can pick up pending cells, and two workers can never compute the same cell
concurrently because computing requires holding the cell's *lease*.

Disk layout (inside a :class:`~repro.store.store.ResultStore` directory)::

    <store_dir>/shard/
        leases/<key>.json     # at most one per cell; see states below
        executions.jsonl      # append-only log: one line per completed compute

A lease file is created atomically (``O_CREAT | O_EXCL`` — exactly one
winner per path) and carries::

    {"key", "worker", "pid", "host", "acquired_at", "state": "running"}

Lease lifecycle: **claim** → compute → **complete**.

* :meth:`LeaseManager.claim` is the whole pre-compute decision in one
  operation: the payload check, the failure-marker budget check (and the
  marker claim), the release of the caller's own abandoned lease, stale
  reclaim, the ``O_CREAT | O_EXCL`` acquire and the winner's double check.
  It answers *done* (with the stored record), *failed* (the spent marker),
  *busy*, or *acquired* (with the attempts earlier workers spent).
  :meth:`LeaseManager.complete` is the whole post-compute step: store the
  payload, append the execution log line, release (unlink) the lease.
  Once the payload exists, the payload itself marks the cell done; the
  lease only guards the in-flight window.
* the rules run where the lease files live: in the worker process for the
  shared-directory ``shard`` backend, and inside the coordinator for the
  ``http`` backend (:mod:`repro.store.coordinator`), which calls the same
  two methods on a remote worker's behalf — one request each.
* a cell that **raises** rewrites its lease to ``state: "failed"`` (with the
  cell label, the canonical error string, the attempt count consumed so far
  and the permanent/transient classification) instead of persisting a
  payload.  Under the default :class:`~repro.robustness.RetryPolicy`
  (``max_attempts=1``) other workers treat a failed lease as "done
  (failed)" — the cell is not retried within the run, and every worker
  reports the same failure.  With a larger budget, transient failures are
  retried: in place by the leasing worker (jittered backoff, lease held),
  and — when a worker died between attempts — by any later worker, which
  *claims* the marker (atomic unlink) and inherits its spent attempts, so
  the budget holds across worker restarts.  Once the sweep deadline has
  passed, workers only report markers — they claim none and start no cell.
  A new coordinated run (:class:`ShardBackend`) clears failed leases for
  its cells first, so failures are retryable across runs.
* a worker that **dies** leaves a ``running`` lease behind.  Stale-lease
  reclaim rules: a lease whose recorded host equals the local host is stale
  iff its owner process is gone — the pid must be alive (``kill(pid, 0)``)
  *and* belong to the same incarnation that acquired the lease (our own pid
  is verified against the process nonce the lease carries; a foreign live
  pid is verified via its ``/proc`` start time, which must predate the
  lease's ``acquired_at`` — a recycled pid necessarily started later).
  Same-host leases whose liveness cannot be verified, and leases from other
  hosts, are stale once their file mtime is older than ``stale_after``
  seconds (so for cross-host stores, ``stale_after`` must exceed the
  longest cell); an mtime implausibly far in the *future* (broken foreign
  clock) is treated as stale outright instead of carrying a negative age
  that never crosses the TTL.  Reclaimers serialize on a
  ``flock`` mutex (``shard/reclaim.lock``) and re-verify under it that the
  on-disk lease is still the exact stale lease they observed before
  unlinking it, so a concurrent reclaim + re-acquire can never be clobbered;
  the cell then goes back to pending and the normal ``O_CREAT | O_EXCL``
  acquire decides the new owner.

Cells are executed by the same per-cell step as every other backend
(:class:`~repro.store.backends.CellStep`: ``run_cell`` under the retry
policy, persisted with the serial provenance plus the worker identity), so a
report assembled from a sharded run equals a cold serial run of the same
sweep.  :class:`ShardBackend` is the one fleet loop, which the
coordinator's :class:`~repro.store.coordinator.HttpBackend` runs over HTTP.

``executions.jsonl`` is the store-level compute counter: exactly one line is
appended per completed cell computation (after its payload is persisted), so
"every cell computed exactly once" is directly checkable after any number of
workers, crashes and restarts.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import time
import uuid
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult
from repro.experiments.runner import failed_cell_result, run_cell
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness import TornLogWarning, warn_degraded
from repro.robustness.faults import (
    InjectedFault,
    fault_point,
    mark_worker_process,
    maybe_torn,
)
from repro.robustness.retry import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    RetryPolicy,
    classify_error,
    format_cell_error,
)
from repro.store.backends import (CellStep, PoolBackend, longest_first,
                                  recommended_workers)
from repro.store.store import ResultStore, StoreRecord

__all__ = ["Claim", "LeaseManager", "ShardWorker", "ShardBackend",
           "read_execution_log", "failed_markers", "run_sweep_sharded",
           "worker_identity", "process_nonce"]

#: Default staleness horizon for leases whose owner liveness cannot be
#: verified directly (foreign hosts, unreadable /proc), in seconds.
DEFAULT_STALE_AFTER = 300.0

#: Default sleep between passes while waiting on other workers' leases.
DEFAULT_POLL_INTERVAL = 0.05

#: Same-host pid-liveness slack: a live pid whose /proc start time is later
#: than the lease's ``acquired_at`` by more than this is a *recycled* pid
#: (the dead owner's number reassigned), not the owner come back to life.
PID_START_SLACK = 2.0

#: Plausibility horizon for lease mtimes.  Anything further in the future
#: than this is a broken clock (or an adversarial skew) and the lease is
#: treated as stale — the alternative is a negative age that never crosses
#: ``stale_after``, leaving the lease unreclaimable forever.
FUTURE_MTIME_SLACK = 30.0

_IDENTITY: Optional[Tuple[int, str]] = None


def worker_identity() -> str:
    """A unique worker id ``host:pid:nonce``, memoized per process.

    The nonce distinguishes process *incarnations* sharing a (recycled)
    pid.  It is minted once and cached against the pid — every call site in
    one process (and in a fork, which re-mints under the child's pid)
    therefore agrees on one identity, as the lease protocol's ownership
    comparisons require.
    """
    global _IDENTITY
    pid = os.getpid()
    if _IDENTITY is None or _IDENTITY[0] != pid:
        _IDENTITY = (pid,
                     f"{socket.gethostname()}:{pid}:{uuid.uuid4().hex[:8]}")
    return _IDENTITY[1]


def process_nonce() -> str:
    """The per-process nonce component of :func:`worker_identity`."""
    return worker_identity().rsplit(":", 1)[1]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True   # exists but owned by someone else / unknown: assume live
    return True


_BOOT_TIME: Optional[float] = None


def _proc_start_time(pid: int) -> Optional[float]:
    """Epoch start time of a live process via ``/proc``, ``None`` off-Linux."""
    global _BOOT_TIME
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        # field 22 (starttime, clock ticks since boot); fields 3+ follow the
        # last ')' so a comm with embedded spaces cannot shift the split
        ticks = float(stat.rsplit(")", 1)[1].split()[19])
        if _BOOT_TIME is None:
            for line in Path("/proc/stat").read_text().splitlines():
                if line.startswith("btime "):
                    _BOOT_TIME = float(line.split()[1])
                    break
        if _BOOT_TIME is None:
            return None
        return _BOOT_TIME + ticks / float(os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return None


@dataclass(frozen=True)
class Claim:
    """What :meth:`LeaseManager.claim` decided for one cell.

    ``state`` is ``"done"`` (``record`` is the stored payload), ``"failed"``
    (``marker`` is a failure marker whose budget is spent), ``"busy"``
    (another worker holds the cell, or won the race for it) or
    ``"acquired"`` (the caller holds the lease and computes the cell;
    ``prior_attempts`` are the attempts an earlier worker spent on it).
    """

    state: str
    record: Optional[StoreRecord] = None
    marker: Optional[Dict[str, Any]] = None
    prior_attempts: int = 0


_BUSY = Claim("busy")


class LeaseManager:
    """Atomic per-cell lease files under ``<store>/shard/leases/``.

    ``store`` is the result store :meth:`claim` checks for payloads and
    :meth:`complete` writes to (default: a :class:`ResultStore` on
    ``store_root``).
    """

    def __init__(self, store_root: str | Path, worker: Optional[str] = None,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 store: Optional[ResultStore] = None) -> None:
        self.root = Path(store_root) / "shard"
        self.leases_dir = self.root / "leases"
        self.log_path = self.root / "executions.jsonl"
        self.worker = worker or worker_identity()
        self.stale_after = float(stale_after)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        self.store = store if store is not None else ResultStore(store_root)

    def _path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.json"

    def identity(self) -> Dict[str, Any]:
        """This manager's full lease identity: worker, pid, host, nonce.

        The coordinator transport (:mod:`repro.store.coordinator`) passes a
        *remote* worker's identity into :meth:`claim`, :meth:`complete` and
        :meth:`mark_failed` so the one server-side :class:`LeaseManager`
        writes leases and ledger lines on the remote caller's behalf.
        """
        return {"worker": self.worker, "pid": os.getpid(),
                "host": socket.gethostname(), "nonce": process_nonce()}

    # ------------------------------------------------------------------ #
    # the two fleet steps: claim before a compute, complete after it
    # ------------------------------------------------------------------ #
    def claim(self, key: str, start: bool = True, max_attempts: int = 1,
              identity: Optional[Dict[str, Any]] = None) -> Claim:
        """Decide one cell for the caller (``identity``, default this
        manager's worker); see :class:`Claim` for the four answers.

        ``start=False`` (the sweep deadline passed) only reports what is
        stored: a payload, or a failure marker whatever budget it has left.
        A marker whose ``attempts`` are under ``max_attempts`` (and not
        ``permanent``) is claimed — its unlink is the atomic claim point,
        one winner among racing workers — and its attempts carry over.
        """
        record = self.store.get(key)
        if record is not None:
            return Claim("done", record=record)
        who = identity or self.identity()
        worker = who.get("worker", self.worker)
        prior_attempts = 0
        lease = self.peek(key)
        if lease is not None and lease.get("state") == "failed":
            attempts = int(lease.get("attempts", 1) or 1)
            if (not start or lease.get("kind") == "permanent"
                    or attempts >= max_attempts):
                # budget exhausted (or deterministic error): done (failed)
                return Claim("failed", marker=lease)
            if not self.clear_failure(key):
                return _BUSY   # another worker claimed it; poll again
            prior_attempts = attempts
        elif not start:
            return _BUSY
        elif lease is not None:
            if lease.get("worker") == worker:
                # our own abandoned running lease — e.g. a claim whose
                # acknowledgement was lost over the coordinator transport.
                # Liveness says "live" (we are), so staleness would wait the
                # full TTL; the ownership-checked release drops it and the
                # normal acquire below takes a fresh lease.
                self.release(key, worker=worker)
            elif self.is_stale(key, lease):
                self.reclaim(key, lease)
            else:
                return _BUSY   # live worker owns it; poll again later
        if not self.acquire(key, identity=who):
            return _BUSY       # lost the acquire race; poll again later
        try:
            # the winner double-checks: the previous holder may have
            # persisted the payload and released since the first check
            record = self.store.get(key)
        except BaseException:
            self.release(key, worker=worker)
            raise
        if record is None:
            return Claim("acquired", prior_attempts=prior_attempts)
        self.release(key, worker=worker)
        return Claim("done", record=record)

    def complete(self, cell: ExperimentConfig, key: str, result: CellResult,
                 provenance: Dict[str, Any],
                 identity: Optional[Dict[str, Any]] = None,
                 dedup: bool = False) -> bool:
        """Store a computed cell, append its ledger line, drop its lease.

        Returns whether the lease was released; a release that failed is
        left to the caller, which holds the lease and retries it (the
        payload and the ledger line are already in place, so a retry must
        not recompute).  ``dedup`` is for callers that retry a whole
        ``complete`` whose acknowledgement was lost (the coordinator): the
        put overwrites the same payload, the ledger books a (key, worker)
        pair once, and the release is ownership-checked.
        """
        who = identity or self.identity()
        worker = who.get("worker", self.worker)
        self.store.put(cell, result, provenance)
        self.log_execution(key, cell.name, attempts=provenance["attempts"],
                           worker=worker, pid=who.get("pid"), dedup=dedup)
        try:
            self.release(key, worker=worker)
        except (InjectedFault, OSError):
            return False
        return True

    # ------------------------------------------------------------------ #
    # lease lifecycle
    # ------------------------------------------------------------------ #
    def acquire(self, key: str,
                identity: Optional[Dict[str, Any]] = None) -> bool:
        """Try to take the lease for ``key``; exactly one caller wins.

        The ``lease.acquire`` fault seam fires *before* the file is created:
        an injected raise therefore never leaves an orphan lease owned by a
        live pid (which same-host reclaim would be blind to).  The
        cooperative ``stale-clock`` shape backdates the freshly won lease
        and records a foreign host, making this live owner look reclaimable
        — the adversarial input to the stale-lease protocol.  ``identity``
        overrides the owner recorded in the lease (the coordinator acquiring
        on behalf of a remote worker).
        """
        who = identity or self.identity()
        spec = fault_point("lease.acquire", key=key,
                           worker=who.get("worker", self.worker))
        payload = json.dumps({
            "key": key,
            "worker": who.get("worker", self.worker),
            "pid": who.get("pid"),
            "host": who.get("host"),
            "acquired_at": time.time(),
            "state": "running",
            "nonce": who.get("nonce"),
        }, allow_nan=False)
        try:
            fd = os.open(self._path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            obs_metrics.count("lease.acquire_lost")
            return False
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        obs_metrics.count("lease.acquired")
        if spec is not None and spec.shape == "stale-clock":
            self._apply_stale_clock(key, spec.skew_s)
        return True

    def _apply_stale_clock(self, key: str, skew_s: float) -> None:
        """Make this worker's live lease look stale (fault cooperation).

        Rewrites the lease with a foreign hostname (so pid liveness does not
        apply) and backdates its mtime past ``stale_after``, then relies on
        the production reclaim protocol to steal it mid-compute.
        """
        path = self._path(key)
        try:
            lease = json.loads(path.read_text())
            lease["host"] = f"fault-injected-{lease.get('host', '')}"
            lease["acquired_at"] = time.time() - skew_s
            # deliberately non-atomic: this is the stale-clock fault's
            # *cooperation* path, rewriting a live lease in place to model
            # a skewed peer
            path.write_text(json.dumps(
                lease, allow_nan=False))  # repro-lint: disable=atomic-write-discipline
            back = time.time() - skew_s
            os.utime(path, (back, back))
        except (OSError, json.JSONDecodeError):
            pass   # cooperation is best-effort; the run must stay correct

    def release(self, key: str, worker: Optional[str] = None) -> None:
        """Drop a lease ``worker`` holds (after persisting, or on skip).

        A failed release is retried a few times before giving up: an
        unreleased lease owned by a *live* process is invisible to same-host
        reclaim, so release is the one lifecycle step where retrying in
        place is the only self-healing option (if the process dies instead,
        pid-liveness reclaim takes over).

        The unlink is ownership-checked against the *full* worker identity:
        a lease that was reclaimed and re-acquired by someone else in the
        meantime is never clobbered by the old owner's late release.
        """
        worker = worker or self.worker
        for attempt in range(3):
            try:
                fault_point("lease.release", key=key, worker=worker)
                break
            except InjectedFault:
                if attempt == 2:
                    raise
                time.sleep(0.01)
        current = self.peek(key)
        if current is None:
            return   # reclaimed from under us; the payload still marks us done
        if current.get("worker") != worker:
            return   # re-acquired by a new owner: not ours to unlink anymore
        try:
            self._path(key).unlink()
            obs_metrics.count("lease.released")
        except FileNotFoundError:
            pass   # reclaimed between peek and unlink: same story as above

    def mark_failed(self, key: str, cell_name: str, error: str,
                    attempts: int = 1, kind: Optional[str] = None,
                    identity: Optional[Dict[str, Any]] = None) -> None:
        """Replace this worker's lease with a run-scoped failure marker.

        The marker records how many attempts the cell has consumed and the
        permanent / transient-exhausted classification, so a worker started
        later in the same run can tell whether the retry budget allows it to
        pick the cell back up (see :meth:`ShardWorker._resolve_one`).
        ``identity`` overrides the recorded owner (coordinator on behalf of
        a remote worker).
        """
        if kind is None:
            kind = ("permanent" if classify_error(error) == "permanent"
                    else "transient-exhausted")
        who = identity or self.identity()
        path = self._path(key)
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps({
            "key": key,
            "worker": who.get("worker", self.worker),
            "pid": who.get("pid"),
            "host": who.get("host"),
            "nonce": who.get("nonce"),
            "acquired_at": time.time(),
            "state": "failed",
            "cell": cell_name,
            "error": error,
            "attempts": int(attempts),
            "kind": kind,
        }, allow_nan=False))
        os.replace(tmp, path)

    def clear_failure(self, key: str) -> bool:
        """Remove a failed marker; ``True`` iff this caller removed it.

        Coordinators call this to allow retries on a fresh run; workers call
        it to *claim* an in-run retry when the marker's attempt count is
        still under budget — the unlink is the atomic claim point (exactly
        one of several racing workers gets ``True``), after which the normal
        ``O_CREAT | O_EXCL`` acquire decides ownership.
        """
        lease = self.peek(key)
        if lease is None or lease.get("state") != "failed":
            return False
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def clear_failures(self, keys: Iterable[str]) -> int:
        """:meth:`clear_failure` for each key (a new coordinated run clears
        its misses' markers in one call); returns how many were removed."""
        return sum(self.clear_failure(key) for key in keys)

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """The current lease record for ``key``, or ``None``."""
        path = self._path(key)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError):
            # half-written by a crashed acquire: treat as a stale running
            # lease with no liveness info so age-based reclaim applies
            return {"key": key, "state": "running", "pid": None, "host": None}

    def is_stale(self, key: str, lease: Dict[str, Any]) -> bool:
        """Whether a ``running`` lease's owner is gone (see module rules)."""
        if lease.get("state") != "running":
            return False
        pid = lease.get("pid")
        if lease.get("host") == socket.gethostname() and isinstance(pid, int):
            if not _pid_alive(pid):
                return True
            same = self._same_incarnation(pid, lease)
            if same is not None:
                return not same
            # liveness unverifiable (no /proc, legacy lease): age decides
        return self._age_stale(key)

    def _same_incarnation(self, pid: int,
                          lease: Dict[str, Any]) -> Optional[bool]:
        """Whether live ``pid`` is the same process that wrote ``lease``.

        ``kill(pid, 0)`` proves only that *some* process holds the pid
        today — after pid recycling, an unrelated process would keep a dead
        worker's lease immortal.  Our own pid is checked against the
        per-process nonce the lease carries; any other live pid is checked
        via its ``/proc`` start time, which must predate the lease's
        ``acquired_at`` (a recycled pid's process necessarily started after
        the dead owner acquired).  ``None`` = unverifiable (non-Linux,
        parse failure, no usable fields): the caller falls back to the
        mtime-age TTL.
        """
        if pid == os.getpid():
            nonce = lease.get("nonce")
            if nonce is None:
                return True   # legacy lease without a nonce, held by our pid
            return nonce == process_nonce()
        started = _proc_start_time(pid)
        acquired = lease.get("acquired_at")
        if started is None or not isinstance(acquired, (int, float)):
            return None
        return started <= float(acquired) + PID_START_SLACK

    def _age_stale(self, key: str) -> bool:
        """Mtime-age staleness with a clamp against future-dated leases.

        A lease whose mtime sits implausibly far in the future (foreign
        fast clock, ``stale-clock`` fault with negative skew) would
        otherwise carry a *negative* age forever and never cross the TTL —
        unreclaimable.  Such leases are stale outright; skews inside
        :data:`FUTURE_MTIME_SLACK` still count as fresh.
        """
        try:
            mtime = self._path(key).stat().st_mtime
        except FileNotFoundError:
            return False   # already gone — nothing to reclaim
        now = time.time()
        if mtime > now + FUTURE_MTIME_SLACK:
            return True
        return (now - mtime) > self.stale_after

    @contextlib.contextmanager
    def _reclaim_mutex(self):
        """Serialize reclaimers via ``flock`` on ``shard/reclaim.lock``.

        The critical section is tiny (re-read + unlink).  Where ``fcntl`` is
        unavailable the reclaim degrades to best-effort (the re-verification
        below still runs, just without mutual exclusion).
        """
        try:
            import fcntl
        except ImportError:   # pragma: no cover — non-POSIX fallback
            yield
            return
        # the flock mutex file is content-free: truncating it is harmless
        with open(self.root / "reclaim.lock",
                  "w") as fh:  # repro-lint: disable=atomic-write-discipline
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def reclaim(self, key: str, observed: Dict[str, Any]) -> bool:
        """Remove a lease observed stale; at most one reclaimer succeeds.

        Reclaimers serialize on a host-wide ``flock`` mutex and re-verify —
        under the mutex — that the lease on disk is still the same stale
        lease this worker observed (same owner, still ``running``, still
        stale) before unlinking it.  A lease that was already reclaimed and
        re-acquired by someone else therefore can never be deleted or
        clobbered; the unlinked cell simply returns to pending, where the
        normal ``O_CREAT | O_EXCL`` acquire decides the new owner.  (The
        mutex is per filesystem-view; for cross-host stores on NFS-like
        mounts the re-verification still guards correctness best-effort.)
        """
        fault_point("lease.reclaim", key=key, worker=self.worker)
        path = self._path(key)
        with self._reclaim_mutex():
            current = self.peek(key)
            if current is None or current.get("state") != "running":
                return False   # already reclaimed, released, or failed
            if current.get("worker") != observed.get("worker"):
                return False   # a fresh lease took the path: not ours to touch
            if not self.is_stale(key, current):
                return False   # owner came back to life (or clock skew)
            try:
                path.unlink()
            except FileNotFoundError:
                return False
            obs_metrics.count("lease.reclaimed")
            obs_trace.event("lease.reclaimed", cell=key,
                            from_worker=str(observed.get("worker", "")))
            return True

    # ------------------------------------------------------------------ #
    # execution log (store-level compute counter)
    # ------------------------------------------------------------------ #
    def log_execution(self, key: str, cell_name: str, attempts: int = 1,
                      worker: Optional[str] = None, pid: Optional[int] = None,
                      dedup: bool = False) -> None:
        """Append one ledger line for a completed compute.

        With ``dedup`` a (key, worker) pair is booked at most once, so a
        retried request cannot double-book a compute; a genuine same-worker
        recompute (quarantined payload) is then under-counted, the ledger's
        documented safe direction.
        """
        worker = worker or self.worker
        if dedup and any(record.get("key") == key
                         and record.get("worker") == worker
                         for record in read_execution_log(self.root.parent)):
            return
        line = json.dumps({"key": key, "cell": cell_name,
                           "worker": worker,
                           "pid": os.getpid() if pid is None else int(pid),
                           "attempts": int(attempts),
                           "at": time.time()}, allow_nan=False) + "\n"
        # fault seam: ``torn-write`` appends half a line (no newline), the
        # torn half and the next append glue into one undecodable line —
        # exactly what a worker killed mid-append leaves behind
        line = maybe_torn("shard.log_append", line, key=key)
        # O_APPEND single small write: atomic on POSIX, no interleaving
        with open(self.log_path, "a") as fh:
            fh.write(line)


def read_execution_log(store_root: str | Path) -> List[Dict[str, Any]]:
    """All completed-compute records (one per executed cell, append order).

    A worker killed mid-append leaves a truncated trailing line (which the
    next append then glues onto).  Undecodable lines are *skipped* with one
    :class:`TornLogWarning` — the ledger under-counts those computes rather
    than refusing to read at all, which is the safe direction for its
    "no cell computed more than its budget" invariant.
    """
    path = Path(store_root) / "shard" / "executions.jsonl"
    if not path.exists():
        return []
    records = []
    damaged = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            damaged += 1
    if damaged:
        warnings.warn(
            f"execution log {path} contained {damaged} undecodable line(s) "
            f"(torn append); skipped", TornLogWarning, stacklevel=2)
    return records


def failed_markers(store_root: str | Path) -> List[Dict[str, Any]]:
    """All ``state:"failed"`` lease markers currently on disk.

    Each marker carries ``cell``, ``error``, ``attempts`` and ``kind`` (see
    :meth:`LeaseManager.mark_failed`); ``repro store info`` surfaces them as
    per-cell attempt counts.  Undecodable marker files are skipped.
    """
    leases_dir = Path(store_root) / "shard" / "leases"
    if not leases_dir.exists():
        return []
    markers = []
    for path in sorted(leases_dir.glob("*.json")):
        try:
            lease = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            continue
        if isinstance(lease, dict) and lease.get("state") == "failed":
            markers.append(lease)
    return markers


class ShardWorker:
    """One worker loop: lease pending cells of a sweep, compute, persist.

    Any number of workers — in any mix of processes, launched at any time,
    with identical or merely overlapping sweeps — can run against the same
    store; the lease protocol guarantees each cell is computed once.  ``run``
    returns only when every cell of *this worker's* sweep is resolved
    (payload present or failure marker present), waiting on other workers'
    in-flight leases when necessary, so its result set is always complete.
    """

    def __init__(self, store: ResultStore, worker: Optional[str] = None,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[Deadline] = None,
                 leases: Optional[LeaseManager] = None,
                 backend_label: str = "shard") -> None:
        self.store = store
        # ``leases`` lets a transport swap the lease implementation (the
        # coordinator's HttpLeaseClient speaks the same surface over HTTP);
        # the default is the shared-filesystem LeaseManager
        self.leases = leases if leases is not None else LeaseManager(
            store.root, worker=worker, stale_after=stale_after, store=store)
        self.poll_interval = float(poll_interval)
        # ``run_cell`` is looked up here at call time: tests patch this
        # module's name to count or slow down worker computes
        self.step = CellStep(backend_label, self._persist,
                             retry or DEFAULT_RETRY_POLICY, deadline,
                             compute=lambda cell: run_cell(cell),
                             worker=self.leases.worker)
        self._released = False

    # ------------------------------------------------------------------ #
    def run(self, sweep: SweepConfig) -> Dict[int, CellResult]:
        """Resolve every cell of ``sweep``; returns results by position.

        Each pass reads every pending cell's payload in one batched call,
        then claims the cells still missing one by one, longest first
        (:func:`~repro.store.backends.longest_first`).  Lease-layer
        hiccups (an injected fault or a transient ``OSError`` from the
        claim/complete/release plumbing) leave the affected cell *pending*
        for the next pass instead of killing the worker — the store
        protocol is already built so that any interrupted step is
        recoverable, so the loop simply goes around again.  Once the
        sweep's wall-clock deadline has passed, one last pass reports every
        payload and failure marker, and cells still unresolved surface as
        never-started deadline failures instead of hanging the fleet.
        """
        cells = list(sweep.cells)
        keys = [self.store.key_for(cell) for cell in cells]
        deadline = self.step.deadline
        resolved: Dict[int, CellResult] = {}
        pending = longest_first(cells, range(len(cells)))
        while pending:
            expired = deadline is not None and deadline.expired()
            progressed = False
            still_pending: List[int] = []
            try:
                records = self.store.get_many([keys[i] for i in pending])
            except (InjectedFault, OSError):
                records = [None] * len(pending)   # the claims check again
            for i, record in zip(pending, records):
                if record is not None:
                    result = replace(record.result, config=cells[i])
                else:
                    try:
                        result = self._resolve_one(cells[i], keys[i],
                                                   start=not expired)
                    except (InjectedFault, OSError):
                        result = None   # lease-layer hiccup: retry next pass
                if result is None:
                    still_pending.append(i)
                else:
                    resolved[i] = result
                    progressed = True
            pending = still_pending
            if pending and expired:
                for i in pending:
                    resolved[i] = failed_cell_result(
                        cells[i], format_cell_error(
                            deadline.error(cells[i].name)), attempts=0)
                break
            if pending and not progressed:
                obs_metrics.observe("lease.wait_s", self.poll_interval)
                time.sleep(self.poll_interval)
        return resolved

    def _resolve_one(self, cell: ExperimentConfig, key: str,
                     start: bool = True) -> Optional[CellResult]:
        """One claim on one cell: ``None`` means blocked on another worker.

        ``start=False`` (the deadline passed) only reports what is stored
        (see :meth:`LeaseManager.claim`).  Stored results are served under
        the requesting sweep's config: an overlapping sweep may have
        persisted the cell under a different label.
        """
        claim = self.leases.claim(key, start=start,
                                  max_attempts=self.step.retry.max_attempts)
        if claim.record is not None:
            return replace(claim.record.result, config=cell)
        if claim.marker is not None:
            marker = claim.marker
            return failed_cell_result(
                cell, str(marker.get("error", "")),
                attempts=int(marker.get("attempts", 1) or 1),
                kind=str(marker.get("kind", "")) or None)
        if claim.state != "acquired":
            return None
        self._released = False
        failed = False
        try:
            result = self.step(cell, key, prior_attempts=claim.prior_attempts)
            failed = bool(result.extra.get("failed"))
            if failed:
                self.leases.mark_failed(key, cell.name, result.extra["error"],
                                        attempts=result.extra["attempts"],
                                        kind=result.extra["kind"])
            return result
        finally:
            # ``complete`` released the lease with the payload; a failed
            # compute rewrote it into the run-scoped failure marker —
            # releasing would delete it and let every other worker
            # re-execute the poisoned cell
            if not failed and not self._released:
                self.leases.release(key)

    def _persist(self, cell: ExperimentConfig, key: str, result: CellResult,
                 provenance: Dict[str, Any]) -> None:
        """Complete one computed cell: payload, ledger line, lease release."""
        self._released = self.leases.complete(cell, key, result, provenance)


def _fleet_worker_main(backend: "ShardBackend", store: Any,
                       sweep: SweepConfig, worker: str, retry: RetryPolicy,
                       deadline: Optional[Deadline]) -> None:
    """Child-process entry point (top-level so it pickles under spawn)."""
    mark_worker_process()   # worker_only faults (kill-worker) may fire here
    backend.worker(store, worker, retry, deadline).run(sweep)


class ShardBackend:
    """The ``shard`` execution backend — and the one fleet loop.

    ``workers`` follows :func:`repro.store.backends.resolve_backend`:
    ``None`` → :func:`~repro.store.backends.recommended_workers`, ``0`` →
    no child processes (the calling process runs the worker loop itself —
    the CLI ``--worker`` attach mode), K ≥ 1 → K children plus a final
    in-process mop-up pass that also assembles the results (and
    transparently runs everything where processes cannot be started).

    The transport is three hooks: :meth:`connect` (the start-up probe,
    returning the lease client; an ``OSError`` degrades to the pool backend
    on the ``rung`` of the ladder), :meth:`worker`, and the children's
    ``start_method``.  Here they are the shared store directory and fork;
    :class:`~repro.store.coordinator.HttpBackend` overrides them to run the
    same loop through a coordinator.
    """

    name = "shard"
    rung = "shard-to-pool"
    start_method = "fork"

    def __init__(self, workers: Optional[int] = None,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 poll_interval: float = DEFAULT_POLL_INTERVAL) -> None:
        self.workers = workers
        self.stale_after = float(stale_after)
        self.poll_interval = float(poll_interval)

    def connect(self, store: Any) -> Any:
        manager = LeaseManager(store.root, stale_after=self.stale_after,
                               store=store)
        # probe: leases must be creatable, or no worker can make progress
        probe = manager.leases_dir / f".probe.{os.getpid()}"
        # content-free writability probe, deleted immediately
        probe.write_text("")  # repro-lint: disable=atomic-write-discipline
        probe.unlink()
        return manager

    def unavailable(self, store: Any, exc: OSError) -> str:
        return (f"shard backend: lease infrastructure unavailable under "
                f"{store.root} ({exc}); degrading to pool execution")

    def worker(self, store: Any, worker: str, retry: RetryPolicy,
               deadline: Optional[Deadline]) -> ShardWorker:
        return ShardWorker(store, worker=worker, stale_after=self.stale_after,
                           poll_interval=self.poll_interval, retry=retry,
                           deadline=deadline)

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner) -> Dict[int, CellResult]:
        store = runner.store
        keys = [store.key_for(cell) for cell in sweep.cells]
        try:
            leases = self.connect(store)
        except OSError as exc:
            # without lease infrastructure no worker can make progress;
            # the pool still computes everything in-process-tree and the
            # runner persists what it can
            warn_degraded(self.unavailable(store, exc), rung=self.rung)
            return PoolBackend(self.workers).execute(sweep, misses, runner)
        # a fresh coordinated run retries cells that failed previously
        leases.clear_failures([keys[i] for i in misses])
        if runner.rerun:
            # --rerun promises recomputation: drop the stale payloads so
            # the payload-exists-means-done protocol recomputes them
            for i in misses:
                store.delete(keys[i])

        workers = recommended_workers() if self.workers is None \
            else int(self.workers)
        procs = []
        if workers >= 1 and misses:
            try:
                fault_point("subprocess.spawn", backend=self.name)
                import multiprocessing

                ctx = multiprocessing.get_context(self.start_method)
                for w in range(workers):
                    proc = ctx.Process(
                        target=_fleet_worker_main,
                        args=(self, store, sweep, f"{worker_identity()}#w{w}",
                              runner.retry, runner._deadline),
                        daemon=True)
                    proc.start()
                    procs.append(proc)
            except (ImportError, OSError, ValueError, RuntimeError):
                procs = []   # sandboxed: the mop-up pass runs everything
        for proc in procs:
            proc.join()

        # Mop-up + assembly: resolves anything the children left behind
        # (crashes, sandboxes) and reads every resolved cell back, waiting
        # on still-live foreign workers when sweeps overlap.
        resolved = self.worker(store, worker_identity(), runner.retry,
                               runner._deadline).run(sweep)
        # a cell resolved without failure was read back from its payload
        runner.last_stats.executed.extend(
            keys[i] for i in misses if not resolved[i].extra.get("failed"))
        return {i: resolved[i] for i in misses}


def run_sweep_sharded(sweep: SweepConfig, store: ResultStore | str,
                      workers: Optional[int] = None,
                      stale_after: float = DEFAULT_STALE_AFTER,
                      poll_interval: float = DEFAULT_POLL_INTERVAL):
    """One-shot sharded execution of a sweep (see :class:`ShardBackend`)."""
    from repro.store.runner import run_sweep_cached

    return run_sweep_cached(sweep, store, backend=ShardBackend(
        workers=workers, stale_after=stale_after,
        poll_interval=poll_interval))
