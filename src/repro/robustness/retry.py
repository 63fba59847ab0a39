"""Retry, backoff, and failure-classification policy for sweep execution.

One :class:`RetryPolicy` is threaded through :class:`CachedSweepRunner` into
the one per-cell step every execution backend runs, so every path from
"cell raised" to "cell failed" obeys the same three knobs:

* **per-cell attempt budget** (``max_attempts``) — a cell is computed at
  most this many times across the whole coordinated run, including
  attempts recorded in an earlier run's ``state:"failed"`` marker (the
  shard backend persists attempt counts in the marker, so budgets survive
  worker restarts);
* **jittered exponential backoff** (``base_delay_s``/``max_delay_s``/
  ``jitter``) — deterministic per ``(label, attempt)``, so two workers
  retrying the same cell do not thunder in lockstep yet a chaos run
  reproduces exactly from its seed;
* **per-sweep deadline** (``deadline_s``) — a wall-clock budget for the
  entire sweep; no backoff sleeps past it, and when it expires, remaining
  retries are abandoned and the affected cells surface as ordinary
  failures rather than hanging a fleet.

Errors are classified by *type name* (:func:`classify_error`): programming
and configuration errors (``KeyError: no-such-rule`` …) are **permanent**
and never retried — retrying a deterministic bug burns the budget and
delays the report without changing the outcome.  Everything else
(``OSError``, :class:`InjectedFault`, crashes, …) is **transient** and
retried until the budget is exhausted, at which point the failure
escalates with ``kind="transient-exhausted"`` so ``report.meta["failures"]``
distinguishes "this cell is wrong" from "this cell was unlucky".
Classification operates on the ``"ExcType: message"`` strings produced by
:func:`format_cell_error`, so an error that crossed a process boundary
(a pool child's :class:`CellError`, a shard failure marker) classifies
identically to one raised in-process.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "PERMANENT_ERROR_TYPES",
    "CellError",
    "format_cell_error",
    "classify_error",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "RetryExhausted",
    "SweepDeadlineError",
    "Deadline",
    "call_with_retry",
]

#: Exception type names treated as permanent (deterministic) failures.
#: Matched against the leading ``ExcType`` of a formatted cell error.
PERMANENT_ERROR_TYPES: Tuple[str, ...] = (
    "KeyError",
    "ValueError",
    "TypeError",
    "AttributeError",
    "NotImplementedError",
    "AssertionError",
)


class CellError(Exception):
    """A cell error carried as its canonical ``"ExcType: message"`` string.

    How a failure crosses a process boundary (a pool child hands its
    attempt back as a string): re-raised in the parent, it formats and
    classifies exactly like the exception it stands for.
    """


def format_cell_error(exc: BaseException) -> str:
    """The canonical per-cell failure string: exception type + message.

    Deliberately excludes the traceback, which differs between in-process
    and pooled execution — the same poisoned cell must produce the same
    string on every backend so failure-carrying reports stay backend-equal.
    """
    if isinstance(exc, CellError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def classify_error(error: "str | BaseException") -> str:
    """``"permanent"`` or ``"transient"`` for an error (string or exception).

    Only the leading type name of the :func:`format_cell_error` string is
    consulted, so a transient error whose *message* mentions ``ValueError``
    is still transient.
    """
    if isinstance(error, BaseException):
        error = format_cell_error(error)
    name = error.split(":", 1)[0].strip()
    return "permanent" if name in PERMANENT_ERROR_TYPES else "transient"


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + backoff schedule for one sweep.

    The default (``max_attempts=1``) is *no retry* — exactly the behavior
    the stack had before this policy existed, so nothing changes unless a
    caller opts in (``CachedSweepRunner(..., retry=RetryPolicy(3))`` or
    ``python -m repro sweep ... --retries 3``).
    """

    max_attempts: int = 1
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Deterministic jittered delay before retry number ``attempt``.

        ``attempt`` counts completed attempts (1 → delay before the 2nd
        try).  Exponential in ``attempt`` and capped at ``max_delay_s``;
        the jitter fraction is drawn from a ``Random`` seeded on
        ``token#attempt`` so the schedule is reproducible per cell, not
        synchronized across cells.
        """
        base = min(self.max_delay_s, self.base_delay_s * (2.0 ** (attempt - 1)))
        if self.jitter <= 0:
            return base
        frac = random.Random(f"{token}#{attempt}").uniform(
            -self.jitter, self.jitter)
        return max(0.0, base * (1.0 + frac))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-friendly) form of the policy."""
        return {"max_attempts": self.max_attempts,
                "base_delay_s": self.base_delay_s,
                "max_delay_s": self.max_delay_s,
                "jitter": self.jitter,
                "deadline_s": self.deadline_s}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RetryPolicy":
        return cls(**data)


DEFAULT_RETRY_POLICY = RetryPolicy()


class RetryExhausted(RuntimeError):
    """A transient error survived every attempt the budget allowed."""

    def __init__(self, label: str, error: str, attempts: int) -> None:
        self.label = label
        self.error = error
        self.attempts = attempts
        super().__init__(
            f"{label}: transient error persisted through {attempts} "
            f"attempt(s): {error}")


class SweepDeadlineError(RuntimeError):
    """The per-sweep wall-clock deadline expired before a cell could start."""


class Deadline:
    """A monotonic-clock deadline shared by every retry loop of one sweep.

    Pickling hands the expiry over as wall-clock time, so a worker process
    that spends a second importing still expires with its parent.
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self._expires: Optional[float] = (
            None if seconds is None else time.monotonic() + seconds)

    def __getstate__(self) -> Dict[str, Any]:
        remaining = self.remaining()
        return {"seconds": self.seconds,
                "at": None if remaining is None else time.time() + remaining}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.seconds = state["seconds"]
        at = state["at"]
        self._expires = (None if at is None
                         else time.monotonic() + (at - time.time()))

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires

    def remaining(self) -> Optional[float]:
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())

    def error(self, label: str = "sweep") -> SweepDeadlineError:
        """The error of ``label`` stopped by this deadline."""
        return SweepDeadlineError(
            f"{label}: sweep deadline of {self.seconds}s expired")


def call_with_retry(fn: Callable[[], Any], policy: RetryPolicy,
                    label: str = "", deadline: Optional[Deadline] = None,
                    prior_attempts: int = 0,
                    key: Optional[str] = None) -> Any:
    """Run ``fn`` under ``policy``, retrying transient errors.

    ``prior_attempts`` charges attempts already spent on this label (e.g.
    recorded in a ``state:"failed"`` marker by an earlier run) against the
    budget.  Permanent errors re-raise immediately; a transient error on
    the final allowed attempt raises :class:`RetryExhausted` carrying the
    formatted error and the total attempt count.  ``deadline`` bounds the
    retries: no backoff sleeps past it, and a transient error once it has
    expired is final (:class:`RetryExhausted`, attempts as made) — whether
    ``fn`` may *start* at all is the caller's check.  ``key`` is the cell's
    canonical store hash, attached to retry trace events (telemetry only —
    it does not affect the schedule, which is keyed on ``label``).
    """
    attempt = prior_attempts
    while True:
        attempt += 1
        try:
            return fn()
        except Exception as exc:   # noqa: BLE001 — classification decides
            error = format_cell_error(exc)
            if classify_error(error) == "permanent":
                raise
            if attempt >= policy.max_attempts:
                raise RetryExhausted(label or "cell", error, attempt) from exc
            delay = policy.backoff_s(attempt, token=label)
            remaining = None if deadline is None else deadline.remaining()
            if remaining is not None:
                delay = min(delay, remaining)
            # cold path (a transient failure with budget left), so repro.obs
            # is imported here: this package never depends on it at import
            from repro.obs import metrics as obs_metrics
            from repro.obs import trace as obs_trace

            if obs_trace.enabled():
                obs_trace.event("retry", cell=key or label, label=label,
                                attempt=attempt, backoff_s=round(delay, 6),
                                error=error)
                obs_metrics.count("retry.attempts")
                obs_metrics.observe("retry.backoff_s", delay)
            if delay > 0:
                time.sleep(delay)
            if deadline is not None and deadline.expired():
                raise RetryExhausted(label or "cell", error, attempt) from exc
