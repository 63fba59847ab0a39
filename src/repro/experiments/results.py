"""Experiment result records and persistence.

A :class:`CellResult` summarizes one executed experiment cell; an
:class:`ExperimentReport` groups the cells of a sweep with its metadata and
supports round-tripping to JSON and CSV so report tables can be
regenerated without re-running simulations.

The dict forms are schema-versioned (:data:`RESULT_SCHEMA_VERSION`): every
``to_dict`` stamps a ``"schema"`` field, ``from_dict`` accepts records up to
the current version (pre-versioning records count as version 1), and the
JSON writers use the strict non-finite encoding from
:mod:`repro.io.serialization` so NaN/inf metric values survive a round trip
through parsers that reject ``NaN`` literals.  :mod:`repro.store` persists
these same dict forms as its payload records.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.io.serialization import from_jsonable, to_jsonable

__all__ = ["RESULT_SCHEMA_VERSION", "CellResult", "ExperimentReport"]

#: Version of the CellResult/ExperimentReport dict schema.  Version 1 is the
#: original unstamped format; version 2 added the ``"schema"`` field itself.
RESULT_SCHEMA_VERSION = 2


def _check_schema(data: Dict[str, Any], what: str) -> None:
    version = int(data.get("schema", 1))
    if version > RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"{what} record has schema version {version}, newer than this "
            f"package understands ({RESULT_SCHEMA_VERSION}); upgrade repro")


def _to_builtin(value: Any) -> Any:
    """Convert NumPy scalars/arrays to plain Python for JSON serialization."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _to_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_builtin(v) for v in value]
    return value


@dataclass
class CellResult:
    """Summary of one executed experiment cell."""

    config: ExperimentConfig
    num_runs: int
    convergence_fraction: float
    mean_rounds: float
    median_rounds: float
    p90_rounds: float
    max_rounds: float
    rounds: List[float] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        # compared in strict-JSON form: a never-converging cell carries NaN
        # rounds and means, and NaN != NaN would make identical reports
        # unequal (non-finite floats are tagged, hence comparable, there)
        if not isinstance(other, CellResult):
            return NotImplemented
        return to_jsonable(self.to_dict()) == to_jsonable(other.to_dict())

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def m(self) -> int:
        return self.config.m

    def to_dict(self) -> Dict[str, Any]:
        return _to_builtin({
            "schema": RESULT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "num_runs": self.num_runs,
            "convergence_fraction": self.convergence_fraction,
            "mean_rounds": self.mean_rounds,
            "median_rounds": self.median_rounds,
            "p90_rounds": self.p90_rounds,
            "max_rounds": self.max_rounds,
            "rounds": self.rounds,
            "extra": self.extra,
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        _check_schema(data, "CellResult")
        return cls(
            config=ExperimentConfig.from_dict(data["config"]),
            num_runs=int(data["num_runs"]),
            convergence_fraction=float(data["convergence_fraction"]),
            mean_rounds=float(data["mean_rounds"]),
            median_rounds=float(data["median_rounds"]),
            p90_rounds=float(data["p90_rounds"]),
            max_rounds=float(data["max_rounds"]),
            rounds=list(data.get("rounds", [])),
            extra=dict(data.get("extra", {})),
        )

    def flat_row(self) -> Dict[str, Any]:
        """A flat dict suitable for a CSV row / markdown table row."""
        return {
            "cell": self.config.name,
            "workload": self.config.workload,
            "n": self.n,
            "m": self.m,
            "rule": self.config.rule,
            "adversary": self.config.adversary,
            "T": self.config.adversary_budget,
            "runs": self.num_runs,
            "converged_frac": round(self.convergence_fraction, 3),
            "mean_rounds": round(self.mean_rounds, 2) if np.isfinite(self.mean_rounds) else "",
            "median_rounds": round(self.median_rounds, 2) if np.isfinite(self.median_rounds) else "",
            "p90_rounds": round(self.p90_rounds, 2) if np.isfinite(self.p90_rounds) else "",
            "max_rounds": round(self.max_rounds, 2) if np.isfinite(self.max_rounds) else "",
        }


@dataclass
class ExperimentReport:
    """A named collection of cell results (one sweep / one figure)."""

    name: str
    description: str = ""
    cells: List[CellResult] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def add(self, result: CellResult) -> None:
        self.cells.append(result)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return _to_builtin({
            "schema": RESULT_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "meta": self.meta,
            "cells": [c.to_dict() for c in self.cells],
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentReport":
        _check_schema(data, "ExperimentReport")
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            meta=dict(data.get("meta", {})),
            cells=[CellResult.from_dict(c) for c in data.get("cells", [])],
        )

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(to_jsonable(self.to_dict()), indent=2,
                                   allow_nan=False))
        return path

    @classmethod
    def load_json(cls, path: str | Path) -> "ExperimentReport":
        return cls.from_dict(from_jsonable(json.loads(Path(path).read_text())))

    def save_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [c.flat_row() for c in self.cells]
        if not rows:
            path.write_text("")
            return path
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return path
