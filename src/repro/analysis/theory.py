"""Predicted round counts of the paper's theorems.

The theorems give asymptotic bounds (O(log n), O(log m·log log n + log n),
...).  For plotting and for the "shape" comparisons of the theorem tests we need
concrete *predictor functions* of (n, m, adversary) that measured round
counts can be regressed against.  This module provides them, together with
the little helpers the proofs use (phase counts, thresholds like Φ and the
√n adversary bound).

Nothing here claims to predict constants — the point of the reproduction is
to check that measured convergence times grow like the predictor (and that
the odd/even-m and adversary/no-adversary distinctions fall the way the
theorems say), which :mod:`repro.analysis.statistics` quantifies by fitting
``rounds ≈ a · predictor + b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = [
    "log2",
    "loglog",
    "theorem1_predictor",
    "theorem3_predictor",
    "theorem4_predictor",
    "theorem10_predictor",
    "theorem20_predictor",
    "theorem21_predictor",
    "adversary_budget_sqrt_n",
    "phase_count",
    "heavy_set_size",
    "PREDICTORS",
    "predictor_for",
]


def log2(x: float) -> float:
    """Safe base-2 logarithm with ``log2(x ≤ 1) = 1`` to avoid degenerate fits."""
    return math.log2(x) if x > 2.0 else 1.0


def loglog(x: float) -> float:
    """``log2(log2 x)`` with the same guard (≥ 1)."""
    return max(1.0, math.log2(max(math.log2(max(x, 2.0)), 2.0)))


def theorem1_predictor(n: int, m: Optional[int] = None) -> float:
    """Theorem 1 (no adversary, any initial state): O(log n)."""
    return log2(n)


def theorem3_predictor(n: int, m: int) -> float:
    """Theorem 3 (adversary, m values): O(log m · log log n + log n)."""
    return log2(m) * loglog(n) + log2(n)


def theorem4_predictor(n: int, m: int) -> float:
    """Theorem 4 (average case): O(log m + log log n) for odd m, Θ(log n) for even m."""
    if m % 2 == 1:
        return log2(m) + loglog(n)
    return log2(n)


def theorem10_predictor(n: int, m: Optional[int] = None) -> float:
    """Theorem 10 (two bins, adversary): O(log n)."""
    return log2(n)


def theorem20_predictor(n: int, m: int) -> float:
    """Theorem 20 — same bound as Theorem 3 (it is its formal statement)."""
    return theorem3_predictor(n, m)


def theorem21_predictor(n: int, m: int) -> float:
    """Theorem 21 (average case, no adversary) — same split as Theorem 4."""
    return theorem4_predictor(n, m)


def adversary_budget_sqrt_n(n: int, constant: float = 1.0) -> int:
    """The paper's adversary strength ``T = c·sqrt(n)`` (floored, at least 1)."""
    return max(1, int(constant * math.isqrt(n)))


def phase_count(m: int) -> int:
    """Number of phases in the Theorem 20 argument: ``log2(m) + 1``."""
    if m < 1:
        raise ValueError("m must be positive")
    return int(math.ceil(math.log2(max(m, 2)))) + 1


def heavy_set_size(n: int, constant: float = 1.0) -> int:
    """``Φ = C · sqrt(n log n)`` (Section 4.2)."""
    if n <= 1:
        return n
    return max(1, int(math.ceil(constant * math.sqrt(n * math.log(n)))))


@dataclass(frozen=True)
class Predictor:
    """A named predictor function of (n, m)."""

    name: str
    description: str
    func: Callable[[int, int], float]

    def __call__(self, n: int, m: int) -> float:
        return self.func(n, m)


PREDICTORS: Dict[str, Predictor] = {
    "log_n": Predictor("log_n", "O(log n)", lambda n, m: log2(n)),
    "log_m": Predictor("log_m", "O(log m)", lambda n, m: log2(m)),
    "loglog_n": Predictor("loglog_n", "O(log log n)", lambda n, m: loglog(n)),
    "log_m_loglog_n_plus_log_n": Predictor(
        "log_m_loglog_n_plus_log_n", "O(log m · log log n + log n)",
        lambda n, m: log2(m) * loglog(n) + log2(n)),
    "log_m_plus_loglog_n": Predictor(
        "log_m_plus_loglog_n", "O(log m + log log n)",
        lambda n, m: log2(m) + loglog(n)),
    "linear_n": Predictor("linear_n", "Θ(n)", lambda n, m: float(n)),
    "sqrt_n": Predictor("sqrt_n", "Θ(sqrt n)", lambda n, m: math.sqrt(n)),
}


def predictor_for(theorem: str) -> Predictor:
    """Look up the canonical predictor for a theorem id ('thm1', 'thm3', ...)."""
    mapping = {
        "thm1": "log_n",
        "thm2": "log_n",
        "thm3": "log_m_loglog_n_plus_log_n",
        "thm4_odd": "log_m_plus_loglog_n",
        "thm4_even": "log_n",
        "thm10": "log_n",
        "thm20": "log_m_loglog_n_plus_log_n",
        "thm21_odd": "log_m_plus_loglog_n",
        "thm21_even": "log_n",
    }
    key = theorem.lower()
    if key not in mapping:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {sorted(mapping)}")
    return PREDICTORS[mapping[key]]
