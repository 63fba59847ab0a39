"""In-memory spans around the program's layer functions, for traced runs.

A traced run wraps public functions where their callers look them up
(``repro.store.backends.run_cell``, ``repro.engine.batch.ENGINES[...]``,
``ResultStore.put``, ...), records one span per call (name, start, end,
parent, thread) in memory, and derives per-layer counts, busy time and self
time after the run.  Busy time is the sum of span durations; self time
subtracts the part covered by direct child spans.  Nothing is written while
the run is measured, and every wrapper is removed afterwards.

Forked fleet workers inherit the wrappers, but their spans stay in their
own memory and are dropped; fleets are measured from outside (coordinator
request spans, the execution ledger and stored provenance).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: int = 0
    label: Any = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Records spans of wrapped callables; :meth:`restore` unwraps them."""

    spans: List[Span] = field(default_factory=list)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, name: str, func: Callable,
                 label: Optional[Callable[..., str]]) -> Callable:
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            tag = label(*args, **kwargs) if label else ""
            span = Span(name, time.perf_counter(),
                        parent=stack[-1] if stack else -1,
                        thread=threading.get_ident(), label=tag)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()

        traced.__wrapped__ = func
        return traced

    def wrap(self, owner: Any, attr: str, name: str,
             label: Optional[Callable[..., str]] = None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrapper(name, original, label)
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self._wrapper(name, original, label))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- derived figures ------------------------------------------------ #
    def named(self, name: str, main_thread_only: bool = True) -> List[Span]:
        main = threading.main_thread().ident
        return [s for s in self.spans if s.name == name and s.end
                and (not main_thread_only or s.thread == main)]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_time(self, name: str) -> float:
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0 and span.end:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.duration)
        main = threading.main_thread().ident
        return sum(s.duration - child_time.get(i, 0.0)
                   for i, s in enumerate(self.spans)
                   if s.name == name and s.end and s.thread == main)

    def root_busy(self, sections: List[Tuple[float, float]]) -> float:
        """Time top-level main-thread spans cover inside ``sections``."""
        main = threading.main_thread().ident
        return sum(s.duration for s in self.spans
                   if s.parent < 0 and s.end and s.thread == main
                   and any(a <= s.start <= b for a, b in sections))


def _handle_label(_self, method, path, _body=None) -> str:
    return f"{method} {path}"


def _put_bytes(_self, _config, result, *_args, **_kwargs) -> int:
    """Size of the result a ``ResultStore.put`` writes (provenance aside,
    which carries timings and so differs between runs)."""
    from repro.io.serialization import to_jsonable

    return len(json.dumps(to_jsonable(result.to_dict()), indent=2,
                          allow_nan=False))


def instrument(recorder: Recorder) -> None:
    """Wrap every layer function the benchmark attributes time to."""
    import repro.adversary.base as adversary_base
    import repro.engine._multinomial as mnk
    import repro.engine.batch as batch
    import repro.engine.occupancy as occupancy
    import repro.experiments.figures as figures
    import repro.experiments.runner as exp_runner
    import repro.store.backends as backends
    import repro.store.coordinator as coordinator
    import repro.store.runner as store_runner
    import repro.store.shard as shard
    import repro.store.store as store

    for name in list(figures.FIGURE_REGISTRY):
        recorder.wrap(figures.FIGURE_REGISTRY, name, "figures")
    recorder.wrap(store_runner.CachedSweepRunner, "run", "runner.run")
    recorder.wrap(store_runner.CachedSweepRunner, "partition",
                  "runner.partition")
    for module in (backends, shard, exp_runner):
        recorder.wrap(module, "run_cell", "runner.run_cell")
    recorder.wrap(batch.ENGINES, "vectorized", "vectorized.run")
    recorder.wrap(batch.ENGINES, "occupancy", "occupancy.looped")
    recorder.wrap(batch, "run_batch_fused_occupancy", "batch.fused")
    for attr in ("occupancy_round_batch", "occupancy_round_batch_split"):
        recorder.wrap(batch, attr, "occupancy.round")
    for attr in ("occupancy_round", "occupancy_round_split"):
        recorder.wrap(occupancy, attr, "occupancy.round")
    recorder.wrap(occupancy, "occupancy_outcome_profiles",
                  "occupancy.profiles")
    for attr in ("sample_flows", "scatter_column_sums",
                 "scatter_column_sums_batch", "sample_scatter_banded"):
        recorder.wrap(mnk, attr, "multinomial")
    for attr in ("corrupt", "corrupt_counts"):
        recorder.wrap(adversary_base.Adversary, attr, "adversary")
    recorder.wrap(store.ResultStore, "put", "store.put", label=_put_bytes)
    recorder.wrap(store.ResultStore, "get", "store.get")
    recorder.wrap(coordinator.CoordinatorServer, "handle",
                  "coordinator.handle", label=_handle_label)


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer counts and times of one traced pass (main thread)."""
    rounds = rec.named("occupancy.round")
    return {
        "runner.cells": rec.count("runner.run_cell"),
        "runner.run_cell_s": rec.busy("runner.run_cell"),
        "runner.partition_s": rec.busy("runner.partition"),
        "figures.self_s": rec.self_time("figures"),
        "vectorized.runs": rec.count("vectorized.run"),
        "vectorized.busy_s": rec.busy("vectorized.run"),
        "batch.fused_cells": rec.count("batch.fused"),
        "batch.busy_s": rec.busy("batch.fused"),
        "batch.self_s": rec.self_time("batch.fused"),
        "occupancy.rounds": len(rounds),
        "occupancy.round_s": sum(s.duration for s in rounds),
        "occupancy.profiles_s": rec.busy("occupancy.profiles"),
        "occupancy.looped_runs": rec.count("occupancy.looped"),
        "occupancy.looped_s": rec.busy("occupancy.looped"),
        "multinomial.busy_s": rec.busy("multinomial"),
        "adversary.calls": rec.count("adversary"),
        "adversary.busy_s": rec.busy("adversary"),
        "store.puts": rec.count("store.put"),
        "store.put_bytes": sum(s.label for s in rec.named("store.put")),
        "store.put_s": rec.busy("store.put"),
        "store.gets": rec.count("store.get"),
        "store.get_s": rec.busy("store.get"),
    }


def coordinator_metrics(rec: Recorder, run_start: float
                        ) -> Dict[str, float]:
    """Request spans the coordinator's server threads recorded."""
    handled = rec.named("coordinator.handle", main_thread_only=False)
    acquires = [s.start for s in handled if s.label.endswith("/acquire")]
    return {
        "coordinator.requests": len(handled),
        "coordinator.request_s": (sum(s.duration for s in handled)
                                  / len(handled)) if handled else 0.0,
        "coordinator.first_lease_s": (min(acquires) - run_start)
        if acquires else 0.0,
    }


# ---------------------------------------------------------------------- #
# interpreter start-up, from ``python -X importtime``
# ---------------------------------------------------------------------- #
def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds spent importing ``repro`` and, by self time, its heavy
    dependencies (scipy, networkx, numpy)."""
    totals = {"import_s": 0.0, "scipy_s": 0.0, "networkx_s": 0.0,
              "numpy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        try:
            self_us, cumulative_us, name = line[len("import time:"):]\
                .split("|", 2)
            self_s = int(self_us) / 1e6
            cumulative_s = int(cumulative_us) / 1e6
        except ValueError:
            continue   # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        module = name.strip()
        top = module.split(".", 1)[0]
        if depth == 0 and top == "repro":
            totals["import_s"] += cumulative_s
        if top in ("scipy", "networkx", "numpy"):
            totals[f"{top}_s"] += self_s
    return totals
