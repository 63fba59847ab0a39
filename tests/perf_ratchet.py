"""Performance ratchet: a change's perfbench medians against its base's.

Run with two checkouts, the base and the change (head)::

    python tests/perf_ratchet.py BASE HEAD

For each of the workloads that run the engines (``WORKLOADS``) the ratchet
runs each tree's own ``perfbench/run.py``, from that tree's root, at seed
``SEED``, with ``--trace 0`` and for ``BENCHMARK.json``'s ``run_seconds``,
in ``PAIRS`` alternating pairs (odd pairs base first, even pairs head
first), and reads the JSON result on the last line of each run's standard
output.  It exits 1 when, on any workload,

* the head's median ``wall_s``, ``setup_s`` or ``peak_rss_mb`` exceeds the
  base's by more than that metric's relative ``bound`` in
  ``BENCHMARK.json`` (0.15 is +15%), or
* a head run reports ``"correct": false`` or ``failed > 0``.

A metric whose base runs spread (max − min over the median) wider than its
bound cannot be judged at that bound: it is reported as unresolved, not as
a failure.

When ``perfbench/`` or ``BENCHMARK.json`` differ between the two trees the
runs would not measure the same thing: the ratchet says so and compares
nothing (exit 0).  A benchmark change is its own change.

Like ``canonical_outputs.py`` this is a helper module that pytest does not
collect; ``tests/test_perf_ratchet.py`` covers the comparison.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The perfbench workloads compared, alternating pairs per workload, and seed.
WORKLOADS = ("paper", "count-space")
PAIRS = 3
SEED = 0


def _spec(tree: Path) -> dict:
    return json.loads((tree / "BENCHMARK.json").read_text())


def bounds(tree: Path) -> Dict[str, float]:
    """``{metric: bound}`` of the end-to-end metrics ``BENCHMARK.json`` declares."""
    return {metric["name"]: float(metric["bound"]) for metric in _spec(tree)["end_to_end"]}


def _benchmark_files(tree: Path) -> List[str]:
    files = [path.relative_to(tree).as_posix()
             for path in (tree / "perfbench").rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    return sorted(files + ["BENCHMARK.json"])


def benchmark_differences(base: Path, head: Path) -> List[str]:
    """The benchmark files (``perfbench/``, ``BENCHMARK.json``) that are not
    byte-identical in the two trees."""
    names = sorted(set(_benchmark_files(base)) | set(_benchmark_files(head)))
    return [name for name in names
            if not ((base / name).is_file() and (head / name).is_file()
                    and filecmp.cmp(base / name, head / name, shallow=False))]


def parse_result(stdout: str) -> Optional[dict]:
    """The JSON result on the last line of a ``perfbench/run.py`` run, if any."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_once(tree: Path, workload: str, seconds: float) -> Optional[dict]:
    """One ``--trace 0`` run of ``tree``'s own benchmark; ``None`` if it
    printed no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result = parse_result(proc.stdout)
    if result is None:
        print(f"{tree}: {' '.join(cmd)} exited {proc.returncode} without a "
              f"result:\n{proc.stderr[-2000:]}", file=sys.stderr)
    return result


def compare(base_runs: Sequence[Optional[dict]], head_runs: Sequence[Optional[dict]],
            bound: Dict[str, float]) -> Tuple[List[str], List[str]]:
    """What makes the head fail against the base, and the metrics the base
    runs spread too widely to judge; both empty when the head passes."""
    problems, unresolved = [], []
    for i, run in enumerate(head_runs):
        if run is None:
            problems.append(f"head run {i + 1} printed no result")
        elif run.get("correct") is not True or run.get("failed", 0) > 0:
            problems.append(f"head run {i + 1}: correct={run.get('correct')}, "
                            f"failed={run.get('failed')}")
    base_ok = [run for run in base_runs if run is not None]
    head_ok = [run for run in head_runs if run is not None]
    if not base_ok or not head_ok:
        return problems + ["no complete runs to compare"], unresolved
    for name, limit in bound.items():
        values = [run["metrics"][name]["value"] for run in base_ok]
        before = statistics.median(values)
        after = statistics.median(run["metrics"][name]["value"] for run in head_ok)
        change = f"{name} median {before:.4g} -> {after:.4g} ({after / before - 1:+.1%}"
        spread = (max(values) - min(values)) / before
        if spread > limit:
            unresolved.append(f"{change}; base runs spread {spread:.0%}, "
                              f"wider than the bound {limit:.0%})")
        elif after > before * (1.0 + limit):
            problems.append(f"{change}, bound +{limit:.0%})")
    return problems, unresolved


def ratchet(base: Path, head: Path) -> int:
    """Run and compare every workload; the exit code."""
    differing = benchmark_differences(base, head)
    if differing:
        print("the benchmark differs between the trees "
              f"({', '.join(differing)}); nothing compared")
        return 0
    bound, seconds = bounds(head), float(_spec(head)["run_seconds"])
    failed = False
    for workload in WORKLOADS:
        runs: Dict[str, List[Optional[dict]]] = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(base if side == "base" else head,
                                           workload, seconds))
        for side, side_runs in runs.items():
            print(f"{workload} {side}: " + ", ".join(
                "no result" if run is None else
                " ".join(f"{name}={run['metrics'][name]['value']:.4g}"
                         for name in bound)
                for run in side_runs))
        problems, unresolved = compare(runs["base"], runs["head"], bound)
        for line in unresolved:
            print(f"UNRESOLVED {workload}: {line}")
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        if not problems:
            print(f"PASS {workload}")
        failed |= bool(problems)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the base")
    parser.add_argument("head", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    return ratchet(args.base.resolve(), args.head.resolve())


if __name__ == "__main__":
    sys.exit(main())
