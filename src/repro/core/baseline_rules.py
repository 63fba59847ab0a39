"""Baseline update rules the paper discusses or compares against.

* :class:`MinimumRule` — the *minimum rule* of Section 1.1: contact one
  random process and take the minimum.  Converges in O(log n) rounds without
  an adversary, but is **not** stabilizing: a 1-bounded adversary can
  re-introduce a smaller value arbitrarily late and flip the whole system
  (the counterexample that motivates the median rule).
* :class:`MaximumRule` — symmetric variant (take the maximum).
* :class:`VoterRule` — the single-choice voter model: copy one random
  process's value.  Demonstrates the "power of two choices" gap: the voter
  model needs Θ(n) rounds in expectation to reach consensus from the
  all-distinct state, versus O(log n) for the median rule.
* :class:`MeanRule` — the mean-of-three rule of Dolev et al. [17] cited in
  Section 1.2: converges towards a common number but that number need not be
  one of the initial values, so it does not solve consensus in the paper's
  sense (``preserves_values = False``).
* :class:`TwoChoicesMajorityRule` — classic 3-majority without self (each
  process polls three random processes and adopts their majority, ties broken
  at random); included for cross-comparison with the gossip literature.
* :class:`TwoChoicesRule` — the classic "2-Choices" dynamics (registry name
  ``two-choices-majority``): poll two random processes and adopt their value
  iff the two agree, otherwise keep the own value.  The second standard
  majority-family comparison point from the gossip literature.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.rules import Rule, register_rule

__all__ = [
    "MinimumRule",
    "MaximumRule",
    "VoterRule",
    "MeanRule",
    "TwoChoicesMajorityRule",
    "TwoChoicesRule",
]


@register_rule
class MinimumRule(Rule):
    """``v_i <- min(v_i, v_j)`` with one uniformly random contact ``j``.

    Section 1.1: "In each round, every process i contacts some random process
    j in the system and updates its own value to min{v_i, v_j}."
    """

    name = "minimum"
    num_choices = 1
    preserves_values = True

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        return np.minimum(values, values[samples[:, 0]])

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 1:
            raise ValueError("minimum rule needs exactly one sampled value")
        return min(int(own_value), int(sampled_values[0]))


@register_rule
class MaximumRule(Rule):
    """``v_i <- max(v_i, v_j)`` with one uniformly random contact ``j``."""

    name = "maximum"
    num_choices = 1
    preserves_values = True

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        return np.maximum(values, values[samples[:, 0]])

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 1:
            raise ValueError("maximum rule needs exactly one sampled value")
        return max(int(own_value), int(sampled_values[0]))


@register_rule
class VoterRule(Rule):
    """Single-choice voter model: copy the value of one random contact.

    This is the natural "one choice" counterpart of the median rule; the gap
    between its Θ(n) consensus time (from the all-distinct state) and the
    median rule's O(log n) is the "power of two choices" the title refers to.
    """

    name = "voter"
    num_choices = 1
    preserves_values = True

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        return np.ascontiguousarray(values[samples[:, 0]])

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 1:
            raise ValueError("voter rule needs exactly one sampled value")
        return int(sampled_values[0])


@register_rule
class MeanRule(Rule):
    """``v_i <- round(mean(v_i, v_j, v_k))`` — the Dolev et al. style mean rule.

    Values converge towards a common number, but the limit is generally *not*
    one of the initial values, so the rule does not solve the consensus
    problem in the paper's sense.  Kept as a baseline for the median-vs-mean
    ablation in ``tests/test_theorems.py``.
    """

    name = "mean"
    num_choices = 2
    preserves_values = False

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        vj = values[samples[:, 0]]
        vk = values[samples[:, 1]]
        total = values + vj + vk
        # round-half-to-even on the rational mean total/3
        return np.rint(total / 3.0).astype(np.int64)

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 2:
            raise ValueError("mean rule needs exactly two sampled values")
        total = int(own_value) + int(sampled_values[0]) + int(sampled_values[1])
        return int(np.rint(total / 3.0))


@register_rule
class TwoChoicesMajorityRule(Rule):
    """Classic 3-majority: poll three random processes, adopt their majority.

    Unlike the paper's rule the process's own value does not participate; if
    all three polled values are distinct, one of them is adopted uniformly at
    random.  This is the standard "3-majority" dynamics from the gossip
    literature and serves as an external comparison point.
    """

    name = "three-majority"
    num_choices = 3
    preserves_values = True

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        a = values[samples[:, 0]]
        b = values[samples[:, 1]]
        c = values[samples[:, 2]]
        # If at least two agree, that value wins; otherwise pick one of the
        # three uniformly at random.
        out = np.where(a == b, a, np.where(a == c, a, np.where(b == c, b, a)))
        all_distinct = (a != b) & (a != c) & (b != c)
        if np.any(all_distinct):
            idx = np.flatnonzero(all_distinct)
            pick = rng.integers(0, 3, size=idx.shape[0])
            stacked = np.stack([a[idx], b[idx], c[idx]], axis=1)
            out = np.array(out, dtype=np.int64)
            out[idx] = stacked[np.arange(idx.shape[0]), pick]
        return np.ascontiguousarray(out)

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 3:
            raise ValueError("three-majority rule needs exactly three sampled values")
        a, b, c = (int(v) for v in sampled_values)
        if a == b or a == c:
            return a
        if b == c:
            return b
        return int((a, b, c)[rng.integers(0, 3)])


@register_rule
class TwoChoicesRule(Rule):
    """Classic 2-Choices dynamics: adopt the sampled value iff two samples agree.

    Each process polls two random processes; if both hold the same value the
    process adopts it, otherwise it keeps its own value.  (Note the majority
    of {sample, sample, self} *is* this rule: two agreeing samples outvote the
    own value, a split sample leaves the own value the plurality — hence the
    registry name ``two-choices-majority``.)  The standard "2-Choices" voting
    dynamics from the gossip literature; like :class:`TwoChoicesMajorityRule`
    it serves as an external majority-family comparison point for the paper's
    median rule.
    """

    name = "two-choices-majority"
    num_choices = 2
    preserves_values = True

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        vj = values[samples[:, 0]]
        vk = values[samples[:, 1]]
        return np.where(vj == vk, vj, values)

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 2:
            raise ValueError("two-choices-majority rule needs exactly two sampled values")
        a, b = int(sampled_values[0]), int(sampled_values[1])
        return a if a == b else int(own_value)
