"""Regeneration of the paper's Figure 1 table and per-theorem data series.

The paper is a theory paper whose only "evaluation artifact" is the Figure 1
summary table of asymptotic bounds; the theorems themselves define the data
series a reproduction must produce (convergence round vs n, vs m, odd vs even
m, with vs without adversary).  This module provides one function per
artifact, each returning an :class:`~repro.experiments.results.ExperimentReport`
plus, where appropriate, the scaling fits that turn raw measurements into the
"grows like ..." statements of the theorems.

All functions accept a ``scale`` knob so that tests can run them at
laptop-friendly sizes while the CLI can run the full grid, and an optional
``runner`` — any object with a ``run(sweep) -> ExperimentReport`` method,
typically :class:`repro.store.CachedSweepRunner` — so the same figure
functions serve cold recomputation and cache-backed resumable execution
(the CLI wires this up for ``sweep --store DIR``).  ``engine=None`` keeps
the sweep builder's engines; a name retargets every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.analysis.statistics import ScalingFit, compare_predictors, fit_scaling
from repro.experiments.reporting import format_figure1_table, format_report
from repro.experiments.results import ExperimentReport
from repro.experiments.runner import run_sweep
from repro.experiments.sweep import (
    adversary_threshold_sweep,
    figure1_sweep,
    minimum_rule_attack_sweep,
    rule_comparison_sweep,
    theorem1_sweep,
    theorem2_sweep,
    theorem3_sweep,
    theorem4_sweep,
    theorem10_sweep,
)

__all__ = [
    "FigureResult",
    "SweepRunner",
    "FIGURE_REGISTRY",
    "regenerate_from_store",
    "reproduce_figure1",
    "reproduce_theorem1",
    "reproduce_theorem2",
    "reproduce_theorem3",
    "reproduce_theorem4",
    "reproduce_theorem10",
    "reproduce_minimum_rule_attack",
    "reproduce_adversary_threshold",
    "reproduce_rule_comparison",
]


class SweepRunner(Protocol):
    """Anything able to execute a sweep (duck-typed; see module docstring)."""

    def run(self, sweep) -> ExperimentReport: ...


def _execute(sweep, runner: Optional[SweepRunner] = None,
             engine: Optional[str] = None) -> ExperimentReport:
    """Run a sweep, retargeted to ``engine`` unless it is ``None``, through
    ``runner`` (cache-aware) or plain :func:`run_sweep`."""
    if engine is not None:
        sweep = sweep.with_engine(engine)
    if runner is None:
        return run_sweep(sweep)
    return runner.run(sweep)


@dataclass
class FigureResult:
    """An experiment report plus its derived scaling fits and rendered table."""

    report: ExperimentReport
    fits: List[ScalingFit]
    table: str

    def best_fit(self) -> Optional[ScalingFit]:
        return self.fits[0] if self.fits else None


def _fits_from_report(report: ExperimentReport,
                      candidates: Sequence[str]) -> List[ScalingFit]:
    ns = [c.n for c in report.cells]
    ms = [max(c.m, 2) for c in report.cells]
    rounds = [c.mean_rounds for c in report.cells]
    try:
        return compare_predictors(ns, ms, rounds, candidates)
    except ValueError:
        return []


def reproduce_figure1(scale: float = 1.0, num_runs: int = 10, seed: int = 808,
                      engine: Optional[str] = None,
                      runner: Optional[SweepRunner] = None) -> FigureResult:
    """FIG1: every cell of the paper's Figure 1 summary table at one n."""
    n = max(128, int(1024 * scale))
    m_many = 32 if n >= 512 else 8
    sweep = figure1_sweep(n=n, m_many=m_many, num_runs=num_runs, seed=seed)
    report = _execute(sweep, runner, engine)
    table = format_figure1_table(report)
    return FigureResult(report=report, fits=[], table=table)


def reproduce_theorem1(scale: float = 1.0, num_runs: int = 15, seed: int = 101,
                       engine: Optional[str] = None,
                       runner: Optional[SweepRunner] = None) -> FigureResult:
    """THM1: O(log n) consensus, all-distinct start, no adversary."""
    base = (64, 128, 256, 512, 1024, 2048)
    ns = tuple(max(16, int(n * scale)) for n in base)
    report = _execute(theorem1_sweep(ns=ns, num_runs=num_runs, seed=seed),
                      runner, engine)
    fits = _fits_from_report(report, ["log_n", "sqrt_n", "linear_n"])
    return FigureResult(report=report, fits=fits, table=format_report(report))


def reproduce_theorem2(scale: float = 1.0, num_runs: int = 8, seed: int = 202,
                       engine: Optional[str] = None,
                       runner: Optional[SweepRunner] = None) -> FigureResult:
    """THM2: O(log n) almost-stable consensus, constant m, sqrt(n) adversary."""
    base = (256, 1024, 4096)
    ns = tuple(max(64, int(n * scale)) for n in base)
    report = _execute(theorem2_sweep(ns=ns, num_runs=num_runs, seed=seed),
                      runner, engine)
    fits = _fits_from_report(report, ["log_n", "sqrt_n", "linear_n"])
    return FigureResult(report=report, fits=fits, table=format_report(report))


def reproduce_theorem3(scale: float = 1.0, num_runs: int = 8, seed: int = 303,
                       engine: Optional[str] = None,
                       runner: Optional[SweepRunner] = None) -> FigureResult:
    """THM3: O(log m log log n + log n), m sweep and n sweep, sqrt(n) adversary."""
    n = max(256, int(2048 * scale))
    ns = tuple(max(128, int(x * scale)) for x in (256, 512, 1024, 2048, 4096))
    ms = (2, 4, 8, 16, 32, 64)
    report = _execute(theorem3_sweep(n=n, ms=ms, ns=ns, num_runs=num_runs, seed=seed),
                      runner, engine)
    fits = _fits_from_report(report, ["log_m_loglog_n_plus_log_n", "log_n", "linear_n"])
    return FigureResult(report=report, fits=fits, table=format_report(report))


def reproduce_theorem4(scale: float = 1.0, num_runs: int = 8, seed: int = 404,
                       with_adversary: bool = False,
                       engine: Optional[str] = None,
                       runner: Optional[SweepRunner] = None) -> FigureResult:
    """THM4/21/COR22: average case, odd vs even m."""
    n = max(256, int(4096 * scale))
    ms = (3, 4, 5, 8, 9, 16, 17, 32, 33)
    report = _execute(theorem4_sweep(n=n, ms=ms, with_adversary=with_adversary,
                                      num_runs=num_runs, seed=seed),
                      runner, engine)
    # fit odd and even cells separately (they have different predicted laws)
    odd_cells = [c for c in report.cells if c.m % 2 == 1]
    even_cells = [c for c in report.cells if c.m % 2 == 0]
    fits: List[ScalingFit] = []
    if len(odd_cells) >= 2:
        fits += compare_predictors([c.n for c in odd_cells], [c.m for c in odd_cells],
                                   [c.mean_rounds for c in odd_cells],
                                   ["log_m_plus_loglog_n", "log_n"])
    if len(even_cells) >= 2:
        fits += compare_predictors([c.n for c in even_cells], [c.m for c in even_cells],
                                   [c.mean_rounds for c in even_cells],
                                   ["log_n", "log_m_plus_loglog_n"])
    return FigureResult(report=report, fits=fits, table=format_report(report))


def reproduce_theorem10(scale: float = 1.0, num_runs: int = 8, seed: int = 505,
                        engine: Optional[str] = None,
                        runner: Optional[SweepRunner] = None) -> FigureResult:
    """THM10: two balanced bins, sqrt(n) adversary, O(log n) rounds."""
    base = (256, 1024, 4096, 16384)
    ns = tuple(max(64, int(n * scale)) for n in base)
    report = _execute(theorem10_sweep(ns=ns, num_runs=num_runs, seed=seed),
                      runner, engine)
    fits = _fits_from_report(report, ["log_n", "sqrt_n", "linear_n"])
    return FigureResult(report=report, fits=fits, table=format_report(report))


def reproduce_minimum_rule_attack(scale: float = 1.0, num_runs: int = 8, seed: int = 606,
                                  engine: Optional[str] = None,
                                  runner: Optional[SweepRunner] = None) -> FigureResult:
    """MINRULE: the reviving adversary flips the minimum rule but not the median rule.

    The relevant outcome is not the convergence round but whether a run is
    *stable*: for the minimum rule the late re-introduction of the smallest
    value drags the system away from its apparent agreement (so its
    almost-stable round, if any, is late and its final agreement is on the
    adversary's value); the median rule absorbs the attack.
    """
    n = max(128, int(1024 * scale))
    report = _execute(minimum_rule_attack_sweep(n=n, num_runs=num_runs, seed=seed),
                      runner, engine)
    return FigureResult(report=report, fits=[], table=format_report(report))


def reproduce_adversary_threshold(scale: float = 1.0, num_runs: int = 6, seed: int = 707,
                                  engine: Optional[str] = None,
                                  runner: Optional[SweepRunner] = None) -> FigureResult:
    """ADVBOUND: convergence vs adversary strength T = c·sqrt(n)."""
    n = max(256, int(4096 * scale))
    report = _execute(adversary_threshold_sweep(n=n, num_runs=num_runs, seed=seed),
                      runner, engine)
    return FigureResult(report=report, fits=[], table=format_report(report))


def reproduce_rule_comparison(scale: float = 1.0, num_runs: int = 6, seed: int = 909,
                              engine: Optional[str] = None,
                              runner: Optional[SweepRunner] = None) -> FigureResult:
    """Ablation: median (two choices) vs voter (one choice) vs 3-majority vs minimum."""
    n = max(128, int(1024 * scale))
    report = _execute(rule_comparison_sweep(n=n, num_runs=num_runs, seed=seed),
                      runner, engine)
    return FigureResult(report=report, fits=[], table=format_report(report))


#: Name → reproduce function for every paper artifact this module can
#: regenerate.  The CLI ``sweep`` subcommand and the store-backed
#: :func:`regenerate_from_store` both dispatch through this registry.
FIGURE_REGISTRY = {
    "theorem1": reproduce_theorem1,
    "theorem2": reproduce_theorem2,
    "theorem3": reproduce_theorem3,
    "theorem4": reproduce_theorem4,
    "theorem10": reproduce_theorem10,
    "figure1": reproduce_figure1,
    "minrule": reproduce_minimum_rule_attack,
    "adversary-threshold": reproduce_adversary_threshold,
    "rule-comparison": reproduce_rule_comparison,
}


def regenerate_from_store(figure: str, store, **kwargs) -> FigureResult:
    """Regenerate a figure/table purely from cached cells — zero simulation.

    ``store`` is a :class:`repro.store.ResultStore` (or its directory); the
    reproduce function runs with an *offline* cached runner, so every cell
    must already be in the store — a miss raises
    :class:`repro.store.StoreMissError` instead of silently recomputing.
    Remaining ``kwargs`` (``scale``, ``num_runs``, ``seed``, ...) must match
    the run that populated the store, since they shape the swept cells.
    """
    from repro.store import CachedSweepRunner, ResultStore

    if figure not in FIGURE_REGISTRY:
        raise KeyError(f"unknown figure {figure!r}; "
                       f"available: {sorted(FIGURE_REGISTRY)}")
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    runner = CachedSweepRunner(store, offline=True)
    return FIGURE_REGISTRY[figure](runner=runner, **kwargs)
