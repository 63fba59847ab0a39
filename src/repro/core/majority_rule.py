"""Two-value majority rule (Section 3).

For configurations with only two distinct values the median rule coincides
with the *majority rule*: a ball's next bin is the majority bin among itself
and two random balls.  Section 3 of the paper analyzes exactly this process
(it is also the classical "3-majority" / "two-choices" voting dynamics), and
the many-bin proofs repeatedly reduce to it through superbin arguments.

This module provides

* :class:`MajorityRule` — a rule restricted to binary configurations that is
  *bit-exact equivalent* to :class:`~repro.core.median_rule.MedianRule` on
  two-value inputs (a property tested in the suite), and
* :func:`exact_two_bin_transition` — the exact per-ball transition
  probabilities used by the drift lemmas: a ball in the minority bin stays
  with probability ``1 - (1/2 + δ)²`` etc. (see the proof of Lemma 12).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.core.rules import Rule, register_rule

__all__ = ["MajorityRule", "exact_two_bin_transition", "two_bin_step_distribution"]

_NOT_BINARY = ("MajorityRule applied to a configuration with more than two "
               "distinct values; use MedianRule instead")


@register_rule
class MajorityRule(Rule):
    """Majority of {self, two uniform samples}, for two-value configurations.

    The rule is defined for arbitrary integer values but its semantics (and
    its equivalence to the median rule) assume at most two distinct values
    are present.  ``strict=True`` (default) raises if more than two distinct
    values are encountered, which catches accidental misuse in experiments.
    """

    name = "majority"
    num_choices = 2
    preserves_values = True

    def __init__(self, strict: bool = True) -> None:
        self.strict = bool(strict)

    def _check_binary(self, values: np.ndarray) -> None:
        if self.strict and np.unique(values).shape[0] > 2:
            raise ValueError(_NOT_BINARY)

    def apply_vectorized(
        self, values: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        self.validate_samples(values.shape[0], samples)
        self._check_binary(values)
        vj = values[samples[:, 0]]
        vk = values[samples[:, 1]]
        # Majority of three == median of three for any totally ordered domain
        # restricted to two values; we use the median identity so that the
        # equivalence with MedianRule is literal.
        lo = np.minimum(values, vj)
        hi = np.maximum(values, vj)
        return np.maximum(lo, np.minimum(hi, vk))

    def apply_single(
        self, own_value: int, sampled_values: Sequence[int], rng: np.random.Generator
    ) -> int:
        if len(sampled_values) != 2:
            raise ValueError("majority rule needs exactly two sampled values")
        a, b, c = int(own_value), int(sampled_values[0]), int(sampled_values[1])
        if a == b or a == c:
            return a
        if b == c:
            return b
        if self.strict:
            raise ValueError(_NOT_BINARY)
        # three distinct values under strict=False: the median, as in
        # apply_vectorized
        return sorted((a, b, c))[1]


def exact_two_bin_transition(n: int, minority: int) -> Tuple[float, float]:
    """Per-ball switch probabilities in the two-bin process.

    With ``x = minority / n`` the fraction of balls in the minority bin
    (so the majority fraction is ``1 - x``), one round of the majority rule
    moves

    * a minority ball to the majority bin with probability ``(1 - x)²``
      (both sampled balls fall in the majority bin), and
    * a majority ball to the minority bin with probability ``x²``.

    These are the exact probabilities underlying Lemma 12 (where the paper
    writes them in terms of ``δ_t = Δ_t / n``: minority stays with probability
    ``3/4 - δ - δ²`` and majority defects with probability ``1/4 - δ + δ²``).

    Returns
    -------
    (p_min_to_maj, p_maj_to_min)
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= minority <= n:
        raise ValueError("minority must lie in [0, n]")
    x = minority / n
    return (1.0 - x) ** 2, x * x


def two_bin_step_distribution(n: int, minority: int) -> np.ndarray:
    """Exact distribution of the next minority load in the two-bin process.

    The next number of balls in the (current) minority bin is the sum of two
    independent binomials:

    ``Binom(minority, 1 - (1-x)²)  +  Binom(n - minority, x²)``

    (minority balls that stay plus majority balls that defect).  Returns the
    full probability vector over ``{0, ..., n}``; used by
    :mod:`repro.analysis.markov` to build the exact Markov chain.
    """
    p_leave, p_join = exact_two_bin_transition(n, minority)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    stay = _binomial_pmf(minority, 1.0 - p_leave, log_factorial)
    join = _binomial_pmf(n - minority, p_join, log_factorial)
    dist = np.convolve(stay, join)
    out = np.zeros(n + 1)
    out[: dist.shape[0]] = dist
    # guard against tiny negative values from floating-point convolution
    np.clip(out, 0.0, None, out=out)
    out /= out.sum()
    return out


def _binomial_pmf(trials: int, p: float, log_factorial: np.ndarray) -> np.ndarray:
    """``Binom(trials, p)`` probabilities over ``{0, ..., trials}``.

    Evaluated in log space from ``log_factorial[k] = log k!`` (which must
    reach ``trials``); ``p ∈ {0, 1}`` gives the exact point mass, where the
    logarithms would be infinite.
    """
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(trials + 1)
        pmf[trials if p >= 1.0 else 0] = 1.0
        return pmf
    k = np.arange(trials + 1)
    log_pmf = (log_factorial[trials] - log_factorial[k] - log_factorial[trials - k]
               + k * math.log(p) + (trials - k) * math.log1p(-p))
    return np.exp(log_pmf)
