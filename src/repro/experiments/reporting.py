"""Table rendering for experiment reports.

The paper's single table (Figure 1) and the per-theorem result series are
reported as plain-text / markdown tables.  These helpers keep formatting in
one place so the CLI and the figure functions all print the same rows.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.experiments.results import CellResult, ExperimentReport

__all__ = ["format_table", "format_report", "format_figure1_table"]


def format_table(rows: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None,
                 markdown: bool = True) -> str:
    """Render a list of dict rows as a (markdown) table string."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    header = [str(c) for c in cols]
    body = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(cols))]

    def fmt_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"

    lines = [fmt_row(header)]
    if markdown:
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt_row(r) for r in body)
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_report(report: ExperimentReport, markdown: bool = True) -> str:
    """Render an :class:`ExperimentReport` as a titled table."""
    rows = [c.flat_row() for c in report.cells]
    title = f"## {report.name}\n\n{report.description}\n\n" if markdown \
        else f"{report.name}\n{report.description}\n\n"
    return title + format_table(rows, markdown=markdown)


def format_figure1_table(report: ExperimentReport) -> str:
    """Render the Figure-1 style 2×3 summary from a figure1 sweep report.

    Rows: worst-case 2 bins / worst-case m bins / average-case m bins; columns:
    with adversary / without adversary.  Each entry is the mean convergence
    round of the corresponding cell(s).
    """
    def mean_for(prefix: str, with_adv: bool) -> str:
        suffix = "/adv" if with_adv else "/noadv"
        picks = [c for c in report.cells if c.config.name.startswith(prefix)
                 and c.config.name.endswith(suffix)]
        if not picks:
            return "n/a"
        vals = [c.mean_rounds for c in picks if c.mean_rounds == c.mean_rounds]
        if not vals:
            return "did not converge"
        return f"{sum(vals) / len(vals):.1f}"

    rows = [
        {"setting": "worst-case 2 bins",
         "with adversary (mean rounds)": mean_for("worst-2bins", True),
         "without adversary (mean rounds)": mean_for("worst-2bins", False)},
        {"setting": "worst-case m bins",
         "with adversary (mean rounds)": _mean_worst_many(report, True),
         "without adversary (mean rounds)": _mean_worst_many(report, False)},
        {"setting": "average-case m bins (odd)",
         "with adversary (mean rounds)": _mean_avg(report, True, odd=True),
         "without adversary (mean rounds)": _mean_avg(report, False, odd=True)},
        {"setting": "average-case m bins (even)",
         "with adversary (mean rounds)": _mean_avg(report, True, odd=False),
         "without adversary (mean rounds)": _mean_avg(report, False, odd=False)},
    ]
    return format_table(rows)


def _mean_worst_many(report: ExperimentReport, with_adv: bool) -> str:
    suffix = "/adv" if with_adv else "/noadv"
    picks = [c for c in report.cells
             if c.config.name.startswith("worst-")
             and not c.config.name.startswith("worst-2bins")
             and c.config.name.endswith(suffix)]
    vals = [c.mean_rounds for c in picks if c.mean_rounds == c.mean_rounds]
    return f"{sum(vals) / len(vals):.1f}" if vals else "n/a"


def _mean_avg(report: ExperimentReport, with_adv: bool, odd: bool) -> str:
    suffix = "/adv" if with_adv else "/noadv"
    parity = "(odd)" if odd else "(even)"
    picks = [c for c in report.cells
             if c.config.name.startswith("avg-") and parity in c.config.name
             and c.config.name.endswith(suffix)]
    vals = [c.mean_rounds for c in picks if c.mean_rounds == c.mean_rounds]
    return f"{sum(vals) / len(vals):.1f}" if vals else "n/a"
