"""BATCH-FUSED — the batch-engine speedup matrix, recorded as a JSON artifact.

Times the three ways this library produces a convergence-round distribution —

* ``run_batch`` looping the vectorized engine (O(R·n) per round),
* ``run_batch(engine="occupancy")`` looping the occupancy engine
  (O(R·m²) per round plus R interpreter round trips per round),
* ``run_batch_fused_occupancy`` (the (R, m) count-tensor program) —

across an (n, m, R) grid, and writes ``BENCH_batch_fused.json`` at the repo
root so later PRs can diff kernel regressions against a committed baseline.

Run modes
---------
``python benchmarks/bench_batch_fused.py``            full grid (~1 min)
``python benchmarks/bench_batch_fused.py --reduced``  one small cell; asserts
    the fused occupancy engine beats the looped occupancy path by ≥2× so CI
    fails fast when the fused kernels regress (the real margin there is >20×).

What to expect (and why): the fused occupancy engine removes the per-run
*interpreter* overhead, which dominates the looped path whenever the O(m²)
kernel is cheap — at m ≤ 32 the measured speedup is well beyond 10×.  At
m = 64, n = 10⁶ the cost of both engines is dominated by the *same* exact
multinomial sampling (~R·m² elementary binomial draws per dense round, a few
hundred ms of C time that fusion cannot remove), so the ratio compresses to
~4–5×.  The JSON records both regimes; the acceptance cell (R=256, m=64,
n=10⁶) carries the measured ratio plus the sampling-bound context.

The pytest entry points below follow the repo's benchmark idiom
(``pytest benchmarks/bench_batch_fused.py``): one pytest-benchmark group plus
a wall-clock speedup assertion sized for loaded CI machines.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.batch import run_batch, run_batch_fused_occupancy
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import make_workload_for_engine
from repro.store.artifacts import ArtifactRegistry, build_provenance
from repro.store.hashing import cell_key

REPO_ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_batch_fused.json"
#: provenance ledger of repo-root bench artifacts (repro.store.artifacts)
REGISTRY = REPO_ROOT / "ARTIFACTS.json"
#: base seed of every timed cell (engines use small offsets from it)
BASE_SEED = 1234

#: the looped value-space engine costs O(R·n) per round; skip it beyond this
VALUE_SPACE_ELEM_LIMIT = 2 ** 24

#: (n, m, R) cells of the full grid; the (10**6, 64, 256) row is the
#: acceptance cell tracked by ISSUE 2
FULL_GRID: List[Tuple[int, int, int]] = [
    (10 ** 4, 16, 64),
    (10 ** 4, 64, 64),
    (10 ** 5, 32, 128),
    (10 ** 6, 8, 256),
    (10 ** 6, 16, 256),
    (10 ** 6, 64, 256),
    (10 ** 8, 64, 256),
]

REDUCED_GRID: List[Tuple[int, int, int]] = [
    (10 ** 5, 16, 96),
]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def bench_cell(n: int, m: int, R: int, seed: int = 1234,
               include_value_space: bool = True) -> Dict[str, object]:
    """Time every applicable batch engine on one (n, m, R) cell.

    ``include_value_space=False`` restricts the cell to the two occupancy
    engines (the pair whose ratio the smoke asserts) — the value-space
    engine costs O(R·n) per round and would dominate a reduced-mode run.
    """
    times: Dict[str, float] = {}
    mean_rounds: Dict[str, float] = {}

    def record(name: str, secs: float, batch) -> None:
        times[name] = round(secs, 4)
        mean_rounds[name] = round(float(batch.mean_rounds), 2)
        assert batch.convergence_fraction == 1.0, (
            f"{name} at (n={n}, m={m}, R={R}): "
            f"only {batch.convergence_fraction:.2f} of runs converged"
        )

    occ_init = make_workload_for_engine("blocks", "occupancy", n=n, m=m)
    secs, batch = _timed(run_batch, occ_init, R, seed=seed, engine="occupancy")
    record("occupancy", secs, batch)

    secs, batch = _timed(run_batch_fused_occupancy, occ_init, R, seed=seed + 1)
    record("occupancy-fused", secs, batch)

    if include_value_space and n * R <= VALUE_SPACE_ELEM_LIMIT:
        vec_init = make_workload_for_engine("blocks", "vectorized", n=n, m=m)
        secs, batch = _timed(run_batch, vec_init, R, seed=seed + 2,
                             engine="vectorized")
        record("vectorized", secs, batch)

    cell: Dict[str, object] = {
        "n": n,
        "m": m,
        "R": R,
        "workload": "blocks",
        "rule": "median",
        "times_s": times,
        "mean_rounds": mean_rounds,
        "speedup_fused_occupancy_vs_occupancy": round(
            times["occupancy"] / times["occupancy-fused"], 2),
    }
    if "vectorized" in times:
        cell["speedup_fused_occupancy_vs_vectorized"] = round(
            times["vectorized"] / times["occupancy-fused"], 2)
    return cell


def run_grid(grid: List[Tuple[int, int, int]], mode: str) -> Dict[str, object]:
    cells = []
    for n, m, R in grid:
        cell = bench_cell(n, m, R, include_value_space=(mode == "full"))
        cells.append(cell)
        print(f"n={n:>10,} m={m:>3} R={R:>4}: "
              + "  ".join(f"{k}={v:.3f}s" for k, v in cell["times_s"].items())
              + f"  [occ-fused vs occ: {cell['speedup_fused_occupancy_vs_occupancy']}x]")

    report: Dict[str, object] = {
        "bench": "batch_fused",
        "schema": 1,
        "mode": mode,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": cells,
    }
    acceptance = next((c for c in cells
                       if (c["n"], c["m"], c["R"]) == (10 ** 6, 64, 256)), None)
    if acceptance is not None:
        report["acceptance"] = {
            "cell": {"n": 10 ** 6, "m": 64, "R": 256},
            "target_speedup_vs_occupancy": 10.0,
            "measured_speedup_vs_occupancy":
                acceptance["speedup_fused_occupancy_vs_occupancy"],
            "note": (
                "At m=64 both occupancy engines are bound by the same exact "
                "multinomial sampling (~R*m^2 elementary binomial draws per "
                "dense round); fusion removes the interpreter overhead, which "
                "dominates only for m <= 32 — see the m=8/16 rows for the "
                ">=10x regime."
            ),
        }
    return report


def bench_cell_config(n: int, m: int, R: int) -> ExperimentConfig:
    """The experiment-cell description of one timed (n, m, R) bench point."""
    return ExperimentConfig(
        name=f"bench:n={n},m={m},R={R}",
        workload="blocks",
        workload_params={"n": int(n), "m": int(m)},
        rule="median",
        num_runs=int(R),
        seed=BASE_SEED,
    )


def stamp_report(report: Dict[str, object]) -> Dict[str, object]:
    """Attach store keys + git provenance to a bench report (in place).

    Each timed (n, m, R) point maps to the content-addressed key of its
    experiment cell (:func:`repro.store.hashing.cell_key` — engine excluded
    by construction, so one key covers all engines timed on the cell), and
    the report records the git SHA / package version that produced the
    numbers, making every perf trajectory traceable to an exact config.
    """
    keys = {}
    for cell in report["cells"]:
        cfg = bench_cell_config(cell["n"], cell["m"], cell["R"])
        key = cell_key(cfg)
        cell["cell_key"] = key
        keys[cfg.name] = key
    report["provenance"] = build_provenance(
        keys, extra={"base_seed": BASE_SEED,
                     "seed_note": "engines are timed with per-engine offsets "
                                  "(base_seed .. base_seed+2)"})
    return report


def write_artifact(report: Dict[str, object], path: Path = ARTIFACT) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")
    if report.get("mode") == "full":
        # only the committed full-grid baseline enters the committed ledger;
        # reduced-mode CI smoke artifacts are ephemeral
        ArtifactRegistry(REGISTRY).register(
            path, kind="benchmark",
            cell_keys=report.get("provenance", {}).get("cell_keys", {}),
            extra={"bench": report.get("bench"), "mode": report.get("mode")})
        print(f"wrote {path} (registered in {REGISTRY.name})")
    else:
        print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reduced", action="store_true",
                        help="small single-cell mode for CI kernel-regression "
                             "smoke (asserts fused >= 2x looped occupancy)")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact path (default: repo-root "
                             "BENCH_batch_fused.json; reduced mode writes "
                             "BENCH_batch_fused.reduced.json so the committed "
                             "full-grid baseline is never clobbered)")
    parser.add_argument("--stamp-only", action="store_true",
                        help="re-stamp an existing artifact with cell keys + "
                             "git provenance without re-timing anything")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (ARTIFACT.with_suffix(".reduced.json") if args.reduced
                    else ARTIFACT)

    if args.stamp_only:
        report = json.loads(args.out.read_text())
        write_artifact(stamp_report(report), args.out)
        return 0
    if args.reduced:
        report = run_grid(REDUCED_GRID, mode="reduced")
        speedup = report["cells"][0]["speedup_fused_occupancy_vs_occupancy"]
        assert speedup >= 2.0, (
            f"fused occupancy kernel regression: only {speedup}x over the "
            "looped occupancy path (expected >=2x, typically >20x)"
        )
        print(f"reduced-mode smoke ok: {speedup}x >= 2x")
    else:
        report = run_grid(FULL_GRID, mode="full")
    write_artifact(stamp_report(report), args.out)
    return 0


# ---------------------------------------------------------------------- #
# pytest entry points (collected by the CI benchmark smoke)
# ---------------------------------------------------------------------- #
def test_perf_fused_occupancy_batch(benchmark):
    """pytest-benchmark row: the fused engine at a mid-size cell."""
    init = make_workload_for_engine("blocks", "occupancy", n=10 ** 6, m=32)

    def fused():
        return run_batch_fused_occupancy(init, 64, seed=7)

    batch = benchmark.pedantic(fused, rounds=1, iterations=1)
    assert batch.convergence_fraction == 1.0


def test_fused_occupancy_beats_looped_occupancy():
    """The headline claim as an assertion, at a cell where interpreter
    overhead dominates: fused must beat the looped occupancy path by a wide
    margin (real ratio >20x; the 2x floor only absorbs CI timer noise)."""
    cell = bench_cell(10 ** 5, 16, 96, include_value_space=False)
    assert cell["speedup_fused_occupancy_vs_occupancy"] >= 2.0, cell


if __name__ == "__main__":
    sys.exit(main())
