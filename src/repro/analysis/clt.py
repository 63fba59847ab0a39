"""Central-limit-theorem kick-start of Lemma 14.

Lemma 14: from a perfectly balanced two-bin state (labelled imbalance
``Ψ_t = 0``) one round of the majority rule produces an imbalance of at least
``c·sqrt(n)`` with probability at least

    1 / (sqrt(2π)·(1 + 4c/sqrt(3))) · exp(−8c²/3)  −  ε .

The fluctuation driving this is ``Ψ_{t+1} = Σ_{left} X_i − Σ_{right} X_i``
where each ``X_i ~ Bernoulli(1/4)`` indicates a ball switching sides, so
``Ψ_{t+1}`` is asymptotically normal with mean 0 and variance ``3n/16``.

This module provides the exact asymptotic probability, the paper's explicit
lower bound, and the Gaussian-tail sandwich used in the proof; tests verify
the sandwich ordering and compare the bound against Monte-Carlo estimates.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "imbalance_std_after_balanced_round",
    "lemma14_lower_bound",
    "lemma14_asymptotic_probability",
    "gaussian_tail_bounds",
    "simulate_balanced_round_imbalance",
]


def imbalance_std_after_balanced_round(n: int) -> float:
    """Standard deviation of ``Ψ_{t+1}`` after one round from ``Ψ_t = 0``.

    Each of the ``n`` balls independently switches sides with probability
    1/4, contributing ±1/... — more precisely ``Ψ_{t+1}`` is a centred sum of
    ``n`` Bernoulli(1/4) variables with signs, giving variance
    ``n · (3/16)`` (the paper's σ² = 3/8 for the normalized √(2/n)·Ψ).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return math.sqrt(3.0 * n / 16.0)


def lemma14_asymptotic_probability(c: float) -> float:
    """Asymptotic value of ``P[Ψ_{t+1} ≥ c·sqrt(n)]`` from a balanced state.

    By the CLT this converges to ``1 − Φ(c·sqrt(16/3))`` where Φ is the
    standard-normal CDF (the paper's expression with x = c·√(16/3)).  The
    tail is evaluated as ``erfc(x/√2)/2``: subtracting ``Φ(x)`` from 1
    cancels to 0 for c ≥ 4, below :func:`lemma14_lower_bound`.
    """
    if c < 0:
        raise ValueError("c must be non-negative")
    x = c * math.sqrt(16.0 / 3.0)
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def lemma14_lower_bound(c: float, epsilon: float = 0.0) -> float:
    """The explicit lower bound of Lemma 14.

    ``1/(sqrt(2π)(1 + 4c/sqrt(3))) · exp(−8c²/3) − ε``.
    """
    if c < 0:
        raise ValueError("c must be non-negative")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    bound = math.exp(-8.0 * c * c / 3.0) / (math.sqrt(2.0 * math.pi) * (1.0 + 4.0 * c / math.sqrt(3.0)))
    return max(0.0, bound - epsilon)


def gaussian_tail_bounds(x: float) -> tuple[float, float]:
    """The sandwich ``e^{-x²/2}/(sqrt(2π)(1+x)) ≤ 1 − Φ(x) ≤ e^{-x²/2}/(sqrt(π)(1+x))``.

    Quoted in the proof of Lemma 14 (from Itô–McKean / Johnson–Kotz).
    Returns ``(lower, upper)``; valid for ``x ≥ 0``.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    core = math.exp(-x * x / 2.0) / (1.0 + x)
    return core / math.sqrt(2.0 * math.pi), core / math.sqrt(math.pi)


def simulate_balanced_round_imbalance(n: int, samples: int,
                                      rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo draw of ``Ψ_{t+1}`` from the balanced two-bin state.

    Runs ``samples`` independent single rounds of the majority rule from the
    50/50 configuration and returns the resulting labelled imbalances
    ``(R_{t+1} − L_{t+1}) / 2``.  The Lemma 14 tests compare this empirical
    distribution with the normal approximation and the lemma's lower bound.
    """
    if n % 2 != 0:
        raise ValueError("the balanced state needs even n")
    if samples <= 0:
        raise ValueError("samples must be positive")
    values = np.zeros((samples, n), dtype=np.int64)
    values[:, n // 2:] = 1
    contacts = rng.integers(0, n, size=(samples, n, 2))
    vj = np.take_along_axis(values, contacts[:, :, 0], axis=1)
    vk = np.take_along_axis(values, contacts[:, :, 1], axis=1)
    lo = np.minimum(values, vj)
    hi = np.maximum(values, vj)
    new_values = np.maximum(lo, np.minimum(hi, vk))
    right = new_values.sum(axis=1)
    left = n - right
    return (right - left) / 2.0
