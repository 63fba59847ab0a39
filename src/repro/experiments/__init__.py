"""Experiment harness: configs, workloads, sweeps, runners, figure reproduction."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.config": ("ExperimentConfig", "SweepConfig"),
    "repro.experiments.figures": (
        "FigureResult",
        "reproduce_adversary_threshold",
        "reproduce_figure1",
        "reproduce_minimum_rule_attack",
        "reproduce_rule_comparison",
        "reproduce_theorem1",
        "reproduce_theorem2",
        "reproduce_theorem3",
        "reproduce_theorem4",
        "reproduce_theorem10",
    ),
    "repro.experiments.reporting": (
        "format_figure1_table",
        "format_report",
        "format_table",
    ),
    "repro.experiments.results": ("CellResult", "ExperimentReport"),
    "repro.experiments.runner": ("run_cell", "run_sweep"),
    "repro.experiments.sweep": (
        "adversary_threshold_sweep",
        "figure1_sweep",
        "minimum_rule_attack_sweep",
        "rule_comparison_sweep",
        "theorem1_sweep",
        "theorem2_sweep",
        "theorem3_sweep",
        "theorem4_sweep",
        "theorem10_sweep",
    ),
    "repro.experiments.workloads": ("WORKLOAD_REGISTRY", "make_workload"),
})
