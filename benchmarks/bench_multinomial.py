"""MULTINOMIAL — the exact-multinomial kernel seam, timed and recorded.

Both occupancy engines bottom out in exact multinomial scatters, drawn
through one seam (:mod:`repro.engine._multinomial`) with a ``numpy`` backend
(``Generator.multinomial``, the historical bit stream) and a ``compiled``
backend (C-kernel conditional-binomial cascade plus the pooled *banded*
O(m)-draw sampler for built-in rules).  This benchmark measures what the
seam buys at the m = 64 wall, two ways:

* **kernel micro-bench** — one dense batched scatter (R·m multinomial rows
  through a real median-rule outcome tensor) per backend, plus the banded
  sampler, at the acceptance cell's shape;
* **engine-level** — full convergence batches through ``run_batch`` /
  ``run_batch_fused_occupancy`` with the backend pinned per timing, so the
  recorded ratio is end-to-end wall clock, not a kernel best case.

The headline number (``acceptance`` block): compiled-backend fused engine
vs the *looped occupancy engine on the numpy backend* at (n=10⁶, m=64,
R=256) — the cell where ``BENCH_batch_fused.json`` (PR 2) recorded the
honest ~3–4× wall.  Results land in ``BENCH_multinomial.json`` at the repo
root (ARTIFACTS.json-stamped), same idiom as the other bench artifacts.

Run modes
---------
``python benchmarks/bench_multinomial.py``            full grid (~2 min)
``python benchmarks/bench_multinomial.py --reduced``  one small m=64 cell;
    **fails** if the resolved backend is not compiled (catching CI legs
    where the compiled provider silently fell back) and asserts the fused
    compiled engine beats the looped numpy path by ≥3× (the real margin is
    far larger; the floor only absorbs CI timer noise).  Set
    ``REPRO_MULTINOMIAL_KERNEL=numpy`` legs should simply not run this.
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

from repro.engine import _multinomial as mnk
from repro.engine.batch import run_batch, run_batch_fused_occupancy
from repro.engine.occupancy import (
    occupancy_outcome_profiles,
    occupancy_transition_matrix_batch,
)
from repro.core.median_rule import MedianRule
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import make_workload_for_engine
from repro.store.artifacts import ArtifactRegistry, build_provenance
from repro.store.hashing import cell_key

REPO_ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_multinomial.json"
REGISTRY = REPO_ROOT / "ARTIFACTS.json"
BASE_SEED = 20260808

#: (n, m, R) grid; the (10**6, 64, 256) row is ISSUE 6's acceptance cell.
FULL_GRID: List[Tuple[int, int, int]] = [
    (10 ** 6, 16, 256),
    (10 ** 6, 64, 256),
    (10 ** 8, 64, 256),
]

REDUCED_GRID: List[Tuple[int, int, int]] = [
    (10 ** 5, 64, 64),
]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _with_backend(backend: str, fn, *args, **kwargs):
    mnk.set_multinomial_backend(backend)
    try:
        return fn(*args, **kwargs)
    finally:
        mnk.set_multinomial_backend(None)


# ---------------------------------------------------------------------- #
# kernel micro-bench: one dense round's sampling, isolated from the engine
# ---------------------------------------------------------------------- #
def bench_kernel(n: int, m: int, R: int, reps: int = 3) -> Dict[str, object]:
    """Time one batched scatter through a real median outcome tensor."""
    rng = np.random.default_rng(BASE_SEED)
    # a plausible mid-run occupancy: all bins occupied, blocks-like skew
    counts = rng.multinomial(n, rng.dirichlet(np.ones(m)), size=R)
    rule = MedianRule()
    Q = occupancy_transition_matrix_batch(rule, counts)
    lo, hi, diag = occupancy_outcome_profiles(rule, counts)

    out: Dict[str, object] = {"reps": reps}
    for backend in ("numpy", "compiled"):
        secs = []
        for rep in range(reps):
            t, _ = _timed(mnk.scatter_column_sums_batch, counts, Q,
                          np.random.default_rng(BASE_SEED + rep),
                          backend=backend)
            secs.append(t)
        out[f"dense_{backend}_s"] = round(min(secs), 4)
    secs = []
    for rep in range(reps):
        t, _ = _timed(mnk.sample_scatter_banded, counts, lo, hi, diag,
                      np.random.default_rng(BASE_SEED + rep),
                      backend="compiled")
        secs.append(t)
    out["banded_compiled_s"] = round(min(secs), 4)
    out["dense_speedup_compiled_vs_numpy"] = round(
        out["dense_numpy_s"] / out["dense_compiled_s"], 2)
    out["banded_speedup_vs_numpy_dense"] = round(
        out["dense_numpy_s"] / out["banded_compiled_s"], 2)
    return out


# ---------------------------------------------------------------------- #
# engine-level: full convergence batches, backend pinned per timing
# ---------------------------------------------------------------------- #
def bench_cell(n: int, m: int, R: int, seed: int = BASE_SEED
               ) -> Dict[str, object]:
    times: Dict[str, float] = {}
    mean_rounds: Dict[str, float] = {}

    def record(name: str, secs: float, batch) -> None:
        times[name] = round(secs, 4)
        mean_rounds[name] = round(float(batch.mean_rounds), 2)
        assert batch.convergence_fraction == 1.0, (
            f"{name} at (n={n}, m={m}, R={R}): "
            f"only {batch.convergence_fraction:.2f} of runs converged"
        )

    init = make_workload_for_engine("blocks", "occupancy", n=n, m=m)

    secs, batch = _with_backend(
        "numpy", _timed, run_batch, init, R, seed=seed, engine="occupancy")
    record("occupancy/numpy", secs, batch)
    secs, batch = _with_backend(
        "numpy", _timed, run_batch_fused_occupancy, init, R, seed=seed + 1)
    record("occupancy-fused/numpy", secs, batch)

    if mnk.use_compiled("compiled"):
        secs, batch = _with_backend(
            "compiled", _timed, run_batch, init, R, seed=seed + 2,
            engine="occupancy")
        record("occupancy/compiled", secs, batch)
        secs, batch = _with_backend(
            "compiled", _timed, run_batch_fused_occupancy, init, R,
            seed=seed + 3)
        record("occupancy-fused/compiled", secs, batch)

    cell: Dict[str, object] = {
        "n": n,
        "m": m,
        "R": R,
        "workload": "blocks",
        "rule": "median",
        "times_s": times,
        "mean_rounds": mean_rounds,
    }
    if "occupancy-fused/compiled" in times:
        cell["speedup_fused_compiled_vs_looped_numpy"] = round(
            times["occupancy/numpy"] / times["occupancy-fused/compiled"], 2)
        cell["speedup_fused_compiled_vs_fused_numpy"] = round(
            times["occupancy-fused/numpy"] / times["occupancy-fused/compiled"],
            2)
        cell["speedup_looped_compiled_vs_looped_numpy"] = round(
            times["occupancy/numpy"] / times["occupancy/compiled"], 2)
    return cell


def run_grid(grid: List[Tuple[int, int, int]], mode: str) -> Dict[str, object]:
    resolved = mnk.resolve_multinomial_backend("compiled")
    cells = []
    for n, m, R in grid:
        cell = bench_cell(n, m, R)
        cells.append(cell)
        ratio = cell.get("speedup_fused_compiled_vs_looped_numpy", "n/a")
        print(f"n={n:>10,} m={m:>3} R={R:>4}: "
              + "  ".join(f"{k}={v:.3f}s" for k, v in cell["times_s"].items())
              + f"  [fused-compiled vs looped-numpy: {ratio}x]")

    report: Dict[str, object] = {
        "bench": "multinomial",
        "schema": 1,
        "mode": mode,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiled_kernel": resolved.kernel_id,
        "cells": cells,
    }
    if mode == "full":
        n, m, R = FULL_GRID[1]
        report["kernel_micro"] = {"n": n, "m": m, "R": R,
                                  **bench_kernel(n, m, R)}
    acceptance = next((c for c in cells
                       if (c["n"], c["m"], c["R"]) == (10 ** 6, 64, 256)), None)
    if acceptance is not None:
        report["acceptance"] = {
            "cell": {"n": 10 ** 6, "m": 64, "R": 256},
            "target_speedup_vs_looped_occupancy": 10.0,
            "measured_speedup_vs_looped_occupancy":
                acceptance.get("speedup_fused_compiled_vs_looped_numpy"),
            "compiled_kernel": resolved.kernel_id,
            "note": (
                "Both engines draw the same exact multinomial law; the "
                "compiled backend replaces ~R*m^2 sequential binomial draws "
                "per dense round (Generator.multinomial) with the banded "
                "O(m)-draw pooled sampler, which is what breaks the m=64 "
                "wall recorded honestly in BENCH_batch_fused.json."
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

    Cell keys are kernel-independent by construction (the backend is
    provenance, not key material), so one key covers every backend timed on
    the cell.
    """
    keys = {}
    for cell in report["cells"]:
        cfg = bench_cell_config(cell["n"], cell["m"], cell["R"])
        key = cell_key(cfg)
        cell["cell_key"] = key
        keys[cfg.name] = key
    report["provenance"] = build_provenance(
        keys, extra={"base_seed": BASE_SEED,
                     "seed_note": "engine/backend timings use per-timing "
                                  "offsets (base_seed .. base_seed+3)"})
    return report


def write_artifact(report: Dict[str, object], path: Path = ARTIFACT) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")
    if report.get("mode") == "full":
        ArtifactRegistry(REGISTRY).register(
            path, kind="benchmark",
            cell_keys=report.get("provenance", {}).get("cell_keys", {}),
            extra={"bench": report.get("bench"), "mode": report.get("mode"),
                   "compiled_kernel": report.get("compiled_kernel")})
        print(f"wrote {path} (registered in {REGISTRY.name})")
    else:
        print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reduced", action="store_true",
                        help="small single-cell smoke: fails if the compiled "
                             "backend silently fell back to numpy, and "
                             "asserts fused-compiled >= 3x looped-numpy")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact path (default: repo-root "
                             "BENCH_multinomial.json; reduced mode writes "
                             "BENCH_multinomial.reduced.json so the committed "
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
        resolved = mnk.resolve_multinomial_backend("compiled")
        assert resolved.resolved == "compiled", (
            "compiled multinomial backend silently fell back to numpy "
            f"({resolved.detail or 'no provider'}) — this CI leg expects a "
            "working compiled kernel"
        )
        report = run_grid(REDUCED_GRID, mode="reduced")
        speedup = report["cells"][0]["speedup_fused_compiled_vs_looped_numpy"]
        assert speedup >= 3.0, (
            f"compiled multinomial kernel regression: only {speedup}x over "
            "the looped numpy-backend occupancy path (expected >=3x)"
        )
        print(f"reduced-mode smoke ok: kernel={resolved.kernel_id}, "
              f"{speedup}x >= 3x")
    else:
        report = run_grid(FULL_GRID, mode="full")
    write_artifact(stamp_report(report), args.out)
    return 0


# ---------------------------------------------------------------------- #
# pytest entry points (collected by the CI benchmark smoke)
# ---------------------------------------------------------------------- #
def test_perf_compiled_fused_occupancy(benchmark):
    """pytest-benchmark row: the fused engine, compiled backend, m=64."""
    if not mnk.use_compiled("compiled"):
        import pytest
        pytest.skip("no compiled multinomial backend available")
    init = make_workload_for_engine("blocks", "occupancy", n=10 ** 6, m=64)

    def fused():
        return _with_backend("compiled", run_batch_fused_occupancy,
                             init, 64, seed=7)

    batch = benchmark.pedantic(fused, rounds=1, iterations=1)
    assert batch.convergence_fraction == 1.0


def test_compiled_beats_looped_numpy_at_m64():
    """The headline claim as an assertion (wide floor for loaded CI boxes)."""
    if not mnk.use_compiled("compiled"):
        import pytest
        pytest.skip("no compiled multinomial backend available")
    cell = bench_cell(10 ** 5, 64, 64)
    assert cell["speedup_fused_compiled_vs_looped_numpy"] >= 3.0, cell


if __name__ == "__main__":
    sys.exit(main())
