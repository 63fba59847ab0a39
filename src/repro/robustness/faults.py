"""Deterministic, seed-driven fault injection for the execution stack.

The paper's headline claim is *robustness*: the dynamics converge despite
adversarial corruption.  The execution stack that reproduces it (store,
leases, shard workers, compiled kernels) deserves the same treatment — every
failure seam injectable on demand, so recovery paths are certified by tests
instead of discovered in production.  This module makes the fault a
first-class input:

* a :class:`FaultPlan` names *seams* (fixed points in the stack, see
  :data:`SEAMS`) and arms each with a *shape* (:data:`SHAPES`) for a bounded
  number of firings (``times`` — the repeat-N-then-heal contract, so every
  plan eventually heals and a retried sweep completes);
* a :class:`FaultInjector` holds an active plan.  Instrumented call sites
  invoke :func:`fault_point` (and writers :func:`maybe_torn`); with no plan
  armed this is a single module-global ``None`` check — zero overhead on
  the hot path;
* activation is either in-process (:func:`activate` / :func:`deactivate`)
  or via the ``REPRO_FAULT_PLAN`` environment variable (inline JSON or a
  path to a JSON file), which child worker processes inherit — the same
  plan therefore arms an entire shard fleet;
* every firing is appended to the plan's optional *journal* file (JSONL),
  so a chaos harness can assert that faults actually fired (a chaos run in
  which nothing failed certifies nothing).

Seam catalog
------------
=========================  ====================================================
``store.payload_write``    :meth:`ResultStore.put` JSON payload write
``store.sidecar_write``    NPZ rounds-sidecar write
``store.index_rebuild``    ``index.json`` regeneration
``store.artifact_write``   :class:`ArtifactRegistry` ledger write
``lease.acquire``          :meth:`LeaseManager.acquire` (before file creation)
``lease.release``          :meth:`LeaseManager.release`
``lease.reclaim``          :meth:`LeaseManager.reclaim` (stale-lease path)
``shard.log_append``       ``executions.jsonl`` append
``worker.compute``         per-cell compute entry (``run_cell``, on every
                           backend)
``kernel.compile``         compiled-multinomial provider build/load
``subprocess.spawn``       pool / shard worker-process creation
=========================  ====================================================

Fault shapes
------------
``raise``
    Raise :class:`InjectedFault` (a ``RuntimeError``, so existing
    degradation paths that already catch ``RuntimeError`` treat it exactly
    like the real failure it models).
``torn-write``
    The cooperating writer truncates its payload mid-write
    (:func:`maybe_torn`), modeling a crash between ``write`` and ``fsync``.
``delay``
    Sleep ``delay_s`` seconds (models a slow disk / loaded host).
``stale-clock``
    The cooperating lease writer backdates its lease file by ``skew_s``
    seconds and records a foreign hostname, making a *live* lease look
    reclaimable — the adversarial input to the stale-lease protocol.
``kill-worker``
    ``SIGKILL`` the current process.  Only fires in processes marked via
    :func:`mark_worker_process` (shard/pool children), never in a
    coordinator.

Counters are **per process**: a ``times=1`` fault fires once in each process
that reaches the seam.  Firing order within a plan is deterministic given
the call sequence, and :meth:`FaultPlan.random` derives the whole schedule
from one integer seed, so a chaos failure reproduces from its seed alone.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "SEAMS",
    "SHAPES",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "activate",
    "deactivate",
    "active_plan",
    "fault_point",
    "maybe_torn",
    "mark_worker_process",
    "in_worker_process",
    "read_fault_journal",
]

#: Environment variable carrying a serialized plan (inline JSON when the
#: value starts with ``{``, otherwise a path to a JSON file).  Set by
#: :func:`activate` so spawned worker processes inherit the armed plan.
ENV_VAR = "REPRO_FAULT_PLAN"

SEAMS = (
    "store.payload_write",
    "store.sidecar_write",
    "store.index_rebuild",
    "store.artifact_write",
    "lease.acquire",
    "lease.release",
    "lease.reclaim",
    "shard.log_append",
    "worker.compute",
    "kernel.compile",
    "subprocess.spawn",
)

SHAPES = ("raise", "torn-write", "delay", "stale-clock", "kill-worker")

#: Shapes that require the seam's cooperation (the injector returns the spec
#: and the call site applies it); the rest are applied inside ``fire``.
_COOPERATIVE_SHAPES = ("torn-write", "stale-clock")


class InjectedFault(RuntimeError):
    """A deterministic fault raised at an armed seam.

    Subclasses ``RuntimeError`` on purpose: the degradation paths that
    already catch ``RuntimeError`` for the *real* failure (sandboxed
    process spawn, broken pools, compile errors) handle the injected one
    identically, so the fault exercises the production recovery code, not
    a parallel test-only path.
    """

    def __init__(self, seam: str, message: str = "") -> None:
        self.seam = seam
        super().__init__(message or f"injected fault at seam {seam!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a seam, a shape, and a firing budget.

    Attributes
    ----------
    seam / shape:
        Where and what (see :data:`SEAMS` / :data:`SHAPES`).
    times:
        Fire on the first ``times`` matching invocations *per process*,
        then heal permanently (repeat-N-then-heal).
    delay_s:
        Sleep duration for the ``delay`` shape.
    skew_s:
        How far into the past a ``stale-clock`` lease is backdated.
    worker_only:
        Fire only in processes marked by :func:`mark_worker_process`
        (forced ``True`` for ``kill-worker`` — a coordinator must never
        kill itself).  A skipped coordinator invocation does *not* consume
        the budget.
    """

    seam: str
    shape: str
    times: int = 1
    delay_s: float = 0.02
    skew_s: float = 900.0
    worker_only: bool = False

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise ValueError(f"unknown fault seam {self.seam!r}; "
                             f"choose from {SEAMS}")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown fault shape {self.shape!r}; "
                             f"choose from {SHAPES}")
        if self.shape == "kill-worker" and not self.worker_only:
            object.__setattr__(self, "worker_only", True)


@dataclass
class FaultPlan:
    """A named, serializable schedule of armed faults.

    ``seed`` identifies the plan (and, for :meth:`random` plans, fully
    determines it); ``journal`` is an optional JSONL path receiving one
    record per firing, shared by every process running under the plan.
    """

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0
    journal: Optional[str] = None

    # -- serialization -------------------------------------------------- #
    def to_json(self) -> str:
        return json.dumps({"schema": 1, "seed": self.seed,
                           "journal": self.journal,
                           "specs": [asdict(s) for s in self.specs]},
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(specs=[FaultSpec(**s) for s in data.get("specs", [])],
                   seed=int(data.get("seed", 0)),
                   journal=data.get("journal"))

    @classmethod
    def load(cls, source: str | Path) -> "FaultPlan":
        """Parse a plan from inline JSON or a JSON file path."""
        text = str(source)
        if text.lstrip().startswith("{"):
            return cls.from_json(text)
        return cls.from_json(Path(text).read_text())

    # -- seeded randomized schedules ------------------------------------ #
    #: Seams (with their allowed shapes) eligible for randomized chaos
    #: schedules.  ``kernel.compile`` is deliberately excluded: a mid-sweep
    #: kernel fallback switches the bit stream (reproducibility is
    #: backend-scoped), which would break report-equality invariants —
    #: it gets its own dedicated certification instead.  ``lease.release``
    #: and ``store.index_rebuild`` are restricted to ``delay``: a raising
    #: release is covered by the dedicated release-retry test, and the
    #: index is rebuilt lazily after plans heal.
    CHAOS_SEAMS: ClassVar[Dict[str, Tuple[str, ...]]] = {
        "store.payload_write": ("raise", "torn-write", "delay"),
        "store.sidecar_write": ("raise", "torn-write", "delay"),
        "store.index_rebuild": ("delay",),
        "lease.acquire": ("raise", "stale-clock", "delay"),
        "lease.release": ("delay",),
        "lease.reclaim": ("raise", "delay"),
        "shard.log_append": ("raise", "torn-write", "delay"),
        "worker.compute": ("raise", "delay", "kill-worker"),
        "subprocess.spawn": ("raise",),
    }

    @classmethod
    def random(cls, seed: int, max_faults: int = 4, max_times: int = 2,
               journal: Optional[str | Path] = None) -> "FaultPlan":
        """A deterministic randomized schedule derived entirely from ``seed``.

        Draws 2–``max_faults`` specs over :data:`CHAOS_SEAMS`, at most one
        ``stale-clock`` and one ``kill-worker`` per plan (each multiplies
        the worst-case compute count of one cell), every spec bounded by
        ``times <= max_times`` so the plan always heals.
        """
        rng = random.Random(int(seed))
        n_faults = rng.randint(2, max(2, int(max_faults)))
        specs: List[FaultSpec] = []
        used_singletons = set()
        seams = sorted(cls.CHAOS_SEAMS)
        for _ in range(n_faults):
            seam = rng.choice(seams)
            shape = rng.choice(cls.CHAOS_SEAMS[seam])
            if shape in ("stale-clock", "kill-worker"):
                if shape in used_singletons:
                    shape = "delay" if "delay" in cls.CHAOS_SEAMS[seam] \
                        else "raise"
                else:
                    used_singletons.add(shape)
            times = 1 if shape in ("stale-clock", "kill-worker") \
                else rng.randint(1, max(1, int(max_times)))
            specs.append(FaultSpec(seam=seam, shape=shape, times=times,
                                   delay_s=round(rng.uniform(0.005, 0.04), 4)))
        return cls(specs=specs, seed=int(seed),
                   journal=None if journal is None else str(journal))


class FaultInjector:
    """Evaluates an armed :class:`FaultPlan` at each instrumented seam."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired = [0] * len(plan.specs)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def fire(self, seam: str,
             ctx: Optional[Dict[str, Any]] = None) -> Optional[FaultSpec]:
        """Apply the first armed spec matching ``seam`` (if any).

        Self-applying shapes (``raise``, ``delay``, ``kill-worker``) are
        executed here; cooperative shapes (``torn-write``,
        ``stale-clock``) are returned for the call site to apply.
        Returns ``None`` when no fault fires.
        """
        spec = self._claim(seam)
        if spec is None:
            return None
        self._journal(spec, ctx)
        self._trace(spec, ctx)
        if spec.shape == "delay":
            time.sleep(spec.delay_s)
            return None
        if spec.shape == "raise":
            raise InjectedFault(seam)
        if spec.shape == "kill-worker":
            os.kill(os.getpid(), signal.SIGKILL)
            return None   # pragma: no cover — the line above does not return
        return spec       # cooperative shape: the caller applies it

    def _claim(self, seam: str) -> Optional[FaultSpec]:
        with self._lock:
            for i, spec in enumerate(self.plan.specs):
                if spec.seam != seam or self._fired[i] >= spec.times:
                    continue
                if spec.worker_only and not _IS_WORKER:
                    continue   # budget not consumed: the fault waits for a worker
                self._fired[i] += 1
                return spec
        return None

    def fired_counts(self) -> List[int]:
        """Per-spec firing counts (this process only)."""
        with self._lock:
            return list(self._fired)

    def _trace(self, spec: FaultSpec, ctx: Optional[Dict[str, Any]]) -> None:
        """Mirror a firing into the armed trace (lazy import: firings are
        rare, and :mod:`repro.robustness` must not import :mod:`repro.obs`
        at module level).  ``kill-worker`` traces *before* the SIGKILL —
        metric lines are flushed per write, so even a death is recorded."""
        try:
            from repro.obs import metrics as obs_metrics
            from repro.obs import trace as obs_trace
        except ImportError:   # pragma: no cover — partial install
            return
        if not obs_trace.enabled():
            return
        # seam ctx keys win over the injector's own fields (a lease seam's
        # ctx carries worker=<name>, which must not collide)
        attrs = {"seam": spec.seam, "shape": spec.shape,
                 "in_worker": _IS_WORKER}
        attrs.update((str(k), str(v)) for k, v in (ctx or {}).items())
        obs_trace.event("fault.fired", **attrs)
        obs_metrics.count("fault.fired", seam=spec.seam, shape=spec.shape)

    def _journal(self, spec: FaultSpec, ctx: Optional[Dict[str, Any]]) -> None:
        if not self.plan.journal:
            return
        line = json.dumps({"seam": spec.seam, "shape": spec.shape,
                           "pid": os.getpid(), "worker": _IS_WORKER,
                           "ctx": {k: str(v) for k, v in (ctx or {}).items()},
                           "at": time.time()}, allow_nan=False) + "\n"
        try:
            # kill-worker journals *before* the SIGKILL, so even a death
            # leaves its record; O_APPEND single write — no interleaving
            with open(self.plan.journal, "a") as fh:
                fh.write(line)
        except OSError:   # journaling must never break the injected run
            pass


# ---------------------------------------------------------------------- #
# process-global activation state
# ---------------------------------------------------------------------- #
_UNRESOLVED = object()   # env not consulted yet (spawned child processes)
_INJECTOR: Any = _UNRESOLVED
_IS_WORKER = False


def mark_worker_process() -> None:
    """Mark this process as a worker: ``worker_only`` faults may fire here.

    Called by shard worker children and pool initializers — never by a
    coordinating process, so ``kill-worker`` can only take down processes
    the stack already knows how to replace.
    """
    global _IS_WORKER
    _IS_WORKER = True


def in_worker_process() -> bool:
    """Whether this process was marked via :func:`mark_worker_process`."""
    return _IS_WORKER


def activate(plan: FaultPlan, export_env: bool = True) -> FaultInjector:
    """Arm a plan in this process (and, via env, in future child processes)."""
    global _INJECTOR
    _INJECTOR = FaultInjector(plan)
    if export_env:
        os.environ[ENV_VAR] = plan.to_json()
    return _INJECTOR


def deactivate() -> None:
    """Disarm fault injection and clear the environment handoff."""
    global _INJECTOR
    _INJECTOR = None
    os.environ.pop(ENV_VAR, None)


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, resolving the env handoff if needed."""
    injector = _resolve()
    return None if injector is None else injector.plan


def _resolve() -> Optional[FaultInjector]:
    global _INJECTOR
    if _INJECTOR is _UNRESOLVED:
        raw = os.environ.get(ENV_VAR)
        if not raw:
            _INJECTOR = None
        else:
            try:
                _INJECTOR = FaultInjector(FaultPlan.load(raw))
            except (OSError, ValueError, TypeError, KeyError) as exc:
                # lazy import: the package __init__ defines the warning
                # classes *after* importing this module
                from repro.robustness import DegradedExecutionWarning

                warnings.warn(f"ignoring malformed {ENV_VAR}: {exc} — "
                              f"running without fault injection",
                              DegradedExecutionWarning, stacklevel=3)
                _INJECTOR = None
    return _INJECTOR


def fault_point(seam: str, **ctx: Any) -> Optional[FaultSpec]:
    """The seam hook: apply any armed fault for ``seam``.

    With no plan armed this is one global load and an ``is None`` check —
    the zero-overhead contract that lets seams live on hot paths.
    Returns a cooperative :class:`FaultSpec` (``torn-write`` /
    ``stale-clock``) for the call site to apply, else ``None``.
    """
    injector = _INJECTOR
    if injector is _UNRESOLVED:
        injector = _resolve()
    if injector is None:
        return None
    return injector.fire(seam, ctx or None)


def maybe_torn(seam: str, data, **ctx: Any):
    """Writer cooperation: return ``data``, torn in half if the seam fires.

    ``data`` may be ``str`` or ``bytes``; a torn payload keeps at least one
    unit so the write is partial, never empty (an empty file is a different
    failure than a torn one).
    """
    spec = fault_point(seam, **ctx)
    if spec is not None and spec.shape == "torn-write":
        return data[:max(1, len(data) // 2)]
    return data


def read_fault_journal(path: str | Path) -> List[Dict[str, Any]]:
    """All journaled firings; tolerates a torn trailing line like any JSONL."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue   # torn by a kill mid-append: the record is lost, not the file
    return records
