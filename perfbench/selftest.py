"""Sensitivity self-test: the benchmark must catch two injected slowdowns.

Run from the root of a checkout (takes about ten minutes)::

    python3 perfbench/selftest.py

1. ``--inject-put-delay 0.01`` sleeps 10 ms in every ``ResultStore.put``.
   ``paper`` ``wall_s`` must rise by more than its bound, and the traced
   run must put the rise in ``store.put_s``.
2. ``--inject-startup-delay 0.5`` puts a ``sitecustomize`` that sleeps
   0.5 s on the children's ``PYTHONPATH``.  ``cli`` ``wall_s`` and
   ``setup_s`` must rise by more than their bounds; ``count-space``
   ``wall_s`` must not move by more than its bound.

Each comparison takes the median of several alternating runs per side.
Exit code 0 means both slowdowns were caught as predicted.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

PUT_DELAY_S = 0.01
STARTUP_DELAY_S = 0.5
REPEATS = 3
SPEC = json.loads(Path("BENCHMARK.json").read_text())


def bench(workload: str, trace: int, inject: List[str]) -> Dict[str, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace), *inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def compare(workload: str, inject: List[str], repeats: int = REPEATS):
    """Medians of alternating baseline and injected runs, per metric."""
    base: List[Dict[str, float]] = []
    slow: List[Dict[str, float]] = []
    for _ in range(repeats):
        base.append(bench(workload, 0, []))
        slow.append(bench(workload, 0, inject))

    def median(runs, name):
        return statistics.median(r[name] for r in runs)

    return {name: (median(base, name), median(slow, name))
            for name in base[0]}


def report(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}", flush=True)
    return ok


def main() -> int:
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True

    # 1. a slower store write: caught by paper wall_s, attributed to store.put
    put = ["--inject-put-delay", str(PUT_DELAY_S)]
    paper = compare("paper", put)
    before, after = paper["wall_s"]
    rise = after / before - 1
    ok &= report("put delay moves paper wall_s", rise > bound["wall_s"],
                 f"{before:.3f} s -> {after:.3f} s (+{rise:.1%}, bound "
                 f"{bound['wall_s']:.0%})")
    plain, traced = bench("paper", 1, []), bench("paper", 1, put)
    injected = traced["store.puts"] * PUT_DELAY_S
    put_rise = traced["store.put_s"] - plain["store.put_s"]
    wall_rise = traced["trace.wall_s"] - plain["trace.wall_s"]
    ok &= report("put delay attributed to store.put_s",
                 put_rise >= 0.9 * injected and put_rise > 0.5 * wall_rise,
                 f"store.put_s +{put_rise:.3f} s of {injected:.3f} s "
                 f"injected; traced wall +{wall_rise:.3f} s")

    # 2. a slower interpreter start: caught by cli wall_s and setup_s only
    start = ["--inject-startup-delay", str(STARTUP_DELAY_S)]
    cli = compare("cli", start, repeats=2)
    for name in ("wall_s", "setup_s"):
        before, after = cli[name]
        rise = after / before - 1
        ok &= report(f"start-up delay moves cli {name}",
                     rise > bound[name],
                     f"{before:.3f} s -> {after:.3f} s (+{rise:.1%}, bound "
                     f"{bound[name]:.0%})")
    count = compare("count-space", start, repeats=2)
    before, after = count["wall_s"]
    change = after / before - 1
    ok &= report("start-up delay leaves count-space wall_s",
                 abs(change) <= bound["wall_s"],
                 f"{before:.3f} s -> {after:.3f} s ({change:+.1%}, bound "
                 f"{bound['wall_s']:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
