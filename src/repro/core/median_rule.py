"""The median rule — the paper's primary contribution (Section 1.2).

    In each round, every process ``i`` picks two processes ``j`` and ``k``
    uniformly and independently at random among all processes (including
    itself).  It then updates ``v_i`` to the median of ``v_i``, ``v_j`` and
    ``v_k``.

The median of three integers is computed without sorting via
``a + b + c - min - max``-free logic: we use element-wise
``np.minimum``/``np.maximum`` identities, which keeps the vectorized round
at three ufunc passes over the value arrays (the guides' "vectorize the
loop" idiom).

Variants used for ablations are provided:

* :class:`MedianRule` — the paper's rule (with replacement, self included).
* :class:`MedianRuleWithoutReplacement` — samples two *distinct* other
  processes.
* :class:`BestOfKMedianRule` — samples ``k`` processes and takes the median
  of the multiset ``{own} ∪ samples`` (``k=2`` recovers the paper's rule;
  larger ``k`` probes the "more choices" regime).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.rules import Rule, register_rule

__all__ = [
    "median_of_three",
    "median_of_three_scalar",
    "MedianRule",
    "MedianRuleWithoutReplacement",
    "BestOfKMedianRule",
]


def median_of_three(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Element-wise median of three integer arrays.

    Uses the identity ``median(a,b,c) = max(min(a,b), min(max(a,b), c))``,
    which needs four ufunc calls and no sort.

    >>> median_of_three(np.array([10]), np.array([12]), np.array([100]))[0]
    12
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return np.maximum(lo, np.minimum(hi, c))


def median_of_three_scalar(a: int, b: int, c: int) -> int:
    """Median of three Python integers (agent-level simulator kernel)."""
    if a > b:
        a, b = b, a
    # now a <= b
    if c <= a:
        return a
    if c >= b:
        return b
    return c


@register_rule
class MedianRule(Rule):
    """The paper's median rule: ``v_i <- median(v_i, v_j, v_k)``.

    ``j`` and ``k`` are sampled uniformly at random with replacement from all
    ``n`` processes (self included), exactly as defined in Section 2.1.
    """

    name = "median"
    num_choices = 2
    preserves_values = True

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        vj = values[samples[:, 0]]
        vk = values[samples[:, 1]]
        return median_of_three(values, vj, vk)

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 2:
            raise ValueError("median rule needs exactly two sampled values")
        return median_of_three_scalar(int(own_value), int(sampled_values[0]),
                                      int(sampled_values[1]))


@register_rule
class MedianRuleWithoutReplacement(MedianRule):
    """Ablation: sample two *distinct* processes, excluding self.

    The analysis of the paper does not depend on self-inclusion (the
    probability of sampling oneself is ``O(1/n)``), so this variant should
    behave identically at scale; ``tests/test_theorems.py`` checks this.
    """

    name = "median-noreplace"

    def sample_contacts(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 3:
            # With fewer than three processes distinct "two others" may not
            # exist; fall back to with-replacement sampling.
            return rng.integers(0, n, size=(n, 2), dtype=np.int64)
        # Draw first choice uniformly among the other n-1 processes, second
        # among the remaining n-2, using shifted uniform draws (vectorized
        # rejection-free scheme).
        own = np.arange(n, dtype=np.int64)
        first = rng.integers(0, n - 1, size=n, dtype=np.int64)
        first = first + (first >= own)  # skip self
        second = rng.integers(0, n - 2, size=n, dtype=np.int64)
        # skip both self and first (order the two excluded indices)
        low = np.minimum(own, first)
        high = np.maximum(own, first)
        second = second + (second >= low)
        second = second + (second >= high)
        return np.stack([first, second], axis=1)


@register_rule
class BestOfKMedianRule(Rule):
    """Generalized median rule with ``k`` sampled contacts.

    Each process samples ``k`` contacts (with replacement, self included) and
    adopts the median of the ``k + 1`` values ``{v_i, v_{j_1}, ..., v_{j_k}}``.
    For even ``k + 1`` the lower of the two central order statistics is used,
    so the rule still always outputs one of its inputs
    (``preserves_values`` stays True).

    ``k = 2`` recovers :class:`MedianRule` semantics exactly.
    """

    name = "median-k"
    preserves_values = True

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = int(k)
        self.num_choices = int(k)

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        stacked = np.concatenate([values[:, None], values[samples]], axis=1)
        stacked.sort(axis=1)
        # lower median of k+1 values
        return np.ascontiguousarray(stacked[:, (self.k) // 2])

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != self.k:
            raise ValueError(f"median-k rule needs exactly {self.k} sampled values")
        pool = sorted([int(own_value)] + [int(v) for v in sampled_values])
        return pool[(len(pool) - 1) // 2]

    def __repr__(self) -> str:  # pragma: no cover
        return f"BestOfKMedianRule(k={self.k})"
