"""The performance ratchet (``tests/perf_ratchet.py``) on synthetic results.

A head whose medians stay within the ``BENCHMARK.json`` bounds passes; one a
little beyond any bound fails, as does a head run that reports
``correct: false`` or failed cells; a metric whose base runs spread wider
than its bound is unresolved, not failed; runs alternate at the benchmark's
own run length; and trees whose benchmark differs are not compared at all.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import perf_ratchet

REPO_ROOT = Path(__file__).resolve().parent.parent
BOUND = perf_ratchet.bounds(REPO_ROOT)
BASE = {"wall_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 50.0}


def result(correct=True, failed=0, **values):
    """One ``perfbench/run.py`` result line's object."""
    metrics = {**BASE, **values}
    return {"correct": correct, "attempted": 63, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in metrics.items()}}


def test_bounds_are_read_from_benchmark_json():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert BOUND == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert set(BOUND) == {"wall_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("metric", sorted(BASE))
def test_within_the_bound_passes_and_just_beyond_fails(metric):
    base = [result(), result(), result()]
    limit = BASE[metric] * (1.0 + BOUND[metric])
    within = [result(**{metric: limit * 0.999}) for _ in range(3)]
    assert perf_ratchet.compare(base, within, BOUND) == ([], [])
    beyond = [result(), result(**{metric: limit * 1.001}),
              result(**{metric: limit * 1.002})]
    problems, unresolved = perf_ratchet.compare(base, beyond, BOUND)
    assert len(problems) == 1 and problems[0].startswith(f"{metric} median")
    assert unresolved == []


@pytest.mark.parametrize("metric", sorted(BASE))
def test_a_base_spread_wider_than_the_bound_is_unresolved(metric):
    low, high = BASE[metric] * 0.9, BASE[metric] * (1.0 + BOUND[metric])
    base = [result(**{metric: low}), result(), result(**{metric: high})]
    beyond = [result(**{metric: high * 1.1}) for _ in range(3)]
    problems, unresolved = perf_ratchet.compare(base, beyond, BOUND)
    assert problems == []
    assert len(unresolved) == 1 and unresolved[0].startswith(f"{metric} median")


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_an_incorrect_head_run_fails(bad):
    base = [result()] * 3
    assert perf_ratchet.compare(base, [result(), result(**bad), result()], BOUND)[0]
    # the base's own failures are not the change's
    assert perf_ratchet.compare([result(**bad)] * 3, base, BOUND) == ([], [])


def test_a_run_without_a_result_fails():
    assert perf_ratchet.parse_result("provenance {}\nTraceback ...") is None
    line = json.dumps(result())
    assert perf_ratchet.parse_result(f"provenance {{}}\n{line}\n") == result()
    assert perf_ratchet.compare([result()] * 3, [result(), None, result()], BOUND)[0]


def _trees(tmp_path):
    trees = []
    for side in ("base", "head"):
        tree = tmp_path / side
        shutil.copytree(REPO_ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO_ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
        trees.append(tree)
    return trees


def test_runs_alternate_for_the_benchmark_run_length(tmp_path, monkeypatch, capsys):
    base, head = _trees(tmp_path)
    seconds = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    calls = []

    def fake_run(tree, workload, run_seconds):
        calls.append((tree.name, workload, run_seconds))
        slow = tree == head and workload == "count-space"
        return result(wall_s=BASE["wall_s"] * (2.0 if slow else 1.0))

    monkeypatch.setattr(perf_ratchet, "run_once", fake_run)
    assert perf_ratchet.ratchet(base, head) == 1
    pairs = perf_ratchet.PAIRS
    assert calls == [(side, workload, seconds)
                     for workload in perf_ratchet.WORKLOADS for pair in range(pairs)
                     for side in (("base", "head") if pair % 2 == 0 else ("head", "base"))]
    out = capsys.readouterr().out
    assert "PASS paper" in out and "FAIL count-space: wall_s median" in out


def test_a_changed_benchmark_is_not_compared(tmp_path, monkeypatch, capsys):
    base, head = _trees(tmp_path)
    assert perf_ratchet.benchmark_differences(base, head) == []
    (head / "perfbench" / "workloads.py").write_text("# changed\n")

    def must_not_run(*args):
        raise AssertionError("a changed benchmark was run")

    monkeypatch.setattr(perf_ratchet, "run_once", must_not_run)
    assert perf_ratchet.benchmark_differences(base, head) == ["perfbench/workloads.py"]
    assert perf_ratchet.ratchet(base, head) == 0
    assert "nothing compared" in capsys.readouterr().out
