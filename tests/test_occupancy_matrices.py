"""Property tests for every occupancy outcome-matrix builder.

The occupancy engines are only as exact as their per-class outcome matrices,
so every builder — the median family (with/without replacement, any k), the
single-choice baselines (voter, minimum, maximum), and the majority family
(three-majority, two-choices-majority) — is pinned by the same four
properties:

* **stochasticity** — every occupied row is a probability vector;
* **support containment** — a preserve-values rule can only output values
  that are present, so occupied rows put zero mass on empty bins;
* **symmetry** — exchange-symmetric rules commute with any permutation of
  the bins, order-based rules with order reversal (and minimum ↔ maximum are
  each other's reversal duals); rule semantics are label-free under strictly
  monotone value relabelings, which is what makes a count-space kernel
  well-defined in the first place;
* **brute-force agreement** — at small n the exact outcome distribution of
  one process can be enumerated over all sample tuples straight from
  ``apply_single``; every matrix row must match it to ~1e-12.
"""

from __future__ import annotations

import itertools
from typing import Dict

import numpy as np
import pytest

from repro.core.baseline_rules import (
    MaximumRule,
    MinimumRule,
    TwoChoicesMajorityRule,
    TwoChoicesRule,
    VoterRule,
)
from repro.core.median_rule import (
    BestOfKMedianRule,
    MedianRule,
    MedianRuleWithoutReplacement,
)
from repro.core.rules import Rule
from repro.engine.occupancy import occupancy_transition_matrix

RULES: Dict[str, Rule] = {
    "median": MedianRule(),
    "median-k3": BestOfKMedianRule(k=3),
    "median-k4": BestOfKMedianRule(k=4),
    "median-k5": BestOfKMedianRule(k=5),
    "median-noreplace": MedianRuleWithoutReplacement(),
    "voter": VoterRule(),
    "minimum": MinimumRule(),
    "maximum": MaximumRule(),
    "three-majority": TwoChoicesMajorityRule(),
    "two-choices-majority": TwoChoicesRule(),
}

#: Rules invariant under *any* bin permutation (no order structure at all).
EXCHANGE_SYMMETRIC = ("voter", "three-majority", "two-choices-majority")

#: Rules invariant under reversing the bin order (order-based but symmetric).
#: Median-of-an-even-pool rules (odd k: pool k+1) take the *lower* median and
#: are genuinely not reversal-symmetric, so only even-k members qualify.
REVERSAL_SYMMETRIC = ("median", "median-k4", "median-noreplace",
                      "voter", "three-majority", "two-choices-majority")

COUNTS = [
    np.array([5, 3, 2], dtype=np.int64),
    np.array([1, 0, 4, 7], dtype=np.int64),
    np.array([10], dtype=np.int64),
    np.array([0, 6, 0, 1, 3], dtype=np.int64),
    np.array([2, 2, 2, 2], dtype=np.int64),
]


def _rule_ids(d):
    return list(d)


# ---------------------------------------------------------------------- #
# stochasticity and support containment
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rule_name", _rule_ids(RULES))
@pytest.mark.parametrize("counts", COUNTS, ids=lambda c: "c=" + "-".join(map(str, c)))
def test_occupied_rows_are_probability_vectors(rule_name, counts):
    Q = occupancy_transition_matrix(RULES[rule_name], counts)
    assert Q.shape == (counts.shape[0], counts.shape[0])
    assert np.all(Q >= 0.0) and np.all(Q <= 1.0 + 1e-12)
    occupied = counts > 0
    np.testing.assert_allclose(Q[occupied].sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("rule_name", _rule_ids(RULES))
@pytest.mark.parametrize("counts", [COUNTS[1], COUNTS[3]],
                         ids=lambda c: "c=" + "-".join(map(str, c)))
def test_support_containment_no_mass_on_empty_bins(rule_name, counts):
    """Preserve-values rules can only ever output a *present* value, so rows
    of occupied classes put exactly zero probability on empty bins."""
    Q = occupancy_transition_matrix(RULES[rule_name], counts)
    occupied = counts > 0
    empty = ~occupied
    assert np.all(Q[np.ix_(occupied, empty)] == 0.0), (
        f"{rule_name}: mass on an empty bin\n{Q}"
    )


# ---------------------------------------------------------------------- #
# symmetry
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rule_name", EXCHANGE_SYMMETRIC)
def test_exchange_symmetric_rules_commute_with_permutations(rule_name):
    counts = np.array([6, 1, 4, 3], dtype=np.int64)
    rule = RULES[rule_name]
    Q = occupancy_transition_matrix(rule, counts)
    for perm in ([2, 0, 3, 1], [3, 2, 1, 0], [1, 0, 2, 3]):
        perm = np.array(perm)
        Qp = occupancy_transition_matrix(rule, counts[perm])
        np.testing.assert_allclose(Qp, Q[np.ix_(perm, perm)], atol=1e-12)


@pytest.mark.parametrize("rule_name", REVERSAL_SYMMETRIC)
def test_order_symmetric_rules_commute_with_reversal(rule_name):
    counts = np.array([6, 1, 4, 3], dtype=np.int64)
    rule = RULES[rule_name]
    Q = occupancy_transition_matrix(rule, counts)
    Qr = occupancy_transition_matrix(rule, counts[::-1].copy())
    np.testing.assert_allclose(Qr, Q[::-1, ::-1], atol=1e-12)


def test_minimum_maximum_are_reversal_duals():
    counts = np.array([6, 1, 4, 3], dtype=np.int64)
    Qmin = occupancy_transition_matrix(MinimumRule(), counts)
    Qmax = occupancy_transition_matrix(MaximumRule(), counts[::-1].copy())
    np.testing.assert_allclose(Qmax, Qmin[::-1, ::-1], atol=1e-12)


@pytest.mark.parametrize("rule_name", ["median", "three-majority",
                                       "two-choices-majority", "minimum"])
def test_rule_semantics_are_label_free(rule_name):
    """A strictly monotone relabeling of the values must not change the
    per-class outcome distribution — the property that makes the kernels
    (functions of counts alone) well-defined."""
    rule = RULES[rule_name]
    values = np.array([0, 0, 0, 1, 1, 2, 2, 2], dtype=np.int64)
    relabeled = np.array([10, 10, 10, 17, 17, 40, 40, 40], dtype=np.int64)
    for own_idx in (0, 3, 5):
        row = _brute_force_row(rule, values, own_idx)
        row_relabeled = _brute_force_row(rule, relabeled, own_idx)
        np.testing.assert_allclose(row, row_relabeled, atol=1e-12)


# ---------------------------------------------------------------------- #
# brute-force agreement at small n/m
# ---------------------------------------------------------------------- #
def _brute_force_row(rule: Rule, values: np.ndarray, own_idx: int) -> np.ndarray:
    """Exact outcome distribution of process ``own_idx`` over the value classes,
    enumerated over every possible sample tuple (uniform with replacement,
    matching the paper's contact model; ordered distinct pairs of others for
    the without-replacement rule; analytic 1/3 tie-break for 3-majority)."""
    n = values.shape[0]
    support = np.unique(values)
    index = {int(v): i for i, v in enumerate(support)}
    row = np.zeros(support.shape[0])
    rng = np.random.default_rng(0)  # never consulted by deterministic rules

    if isinstance(rule, TwoChoicesMajorityRule):
        w = 1.0 / n ** 3
        for trio in itertools.product(range(n), repeat=3):
            a, b, c = (int(values[t]) for t in trio)
            if a == b or a == c:
                row[index[a]] += w
            elif b == c:
                row[index[b]] += w
            else:
                for x in (a, b, c):
                    row[index[x]] += w / 3.0
        return row

    if isinstance(rule, MedianRuleWithoutReplacement):
        others = [j for j in range(n) if j != own_idx]
        w = 1.0 / (len(others) * (len(others) - 1))
        for j, l in itertools.permutations(others, 2):
            out = rule.apply_single(int(values[own_idx]),
                                    [int(values[j]), int(values[l])], rng)
            row[index[out]] += w
        return row

    k = rule.num_choices
    w = 1.0 / n ** k
    for tup in itertools.product(range(n), repeat=k):
        out = rule.apply_single(int(values[own_idx]),
                                [int(values[t]) for t in tup], rng)
        row[index[out]] += w
    return row


@pytest.mark.parametrize("rule_name", _rule_ids(RULES))
def test_matrix_rows_agree_with_brute_force_enumeration(rule_name):
    rule = RULES[rule_name]
    values = np.array([0, 0, 0, 1, 1, 2, 2, 2], dtype=np.int64)
    counts = np.array([3, 2, 3], dtype=np.int64)
    Q = occupancy_transition_matrix(rule, counts)
    for cls, own_idx in enumerate((0, 3, 5)):  # one representative per class
        brute = _brute_force_row(rule, values, own_idx)
        np.testing.assert_allclose(
            Q[cls], brute, atol=1e-12,
            err_msg=f"{rule_name}: row {cls} disagrees with enumeration")


@pytest.mark.parametrize("rule_name", _rule_ids(RULES))
def test_brute_force_agreement_with_empty_bins(rule_name):
    """Same enumeration, but the counts vector carries empty bins — the
    matrix must place the per-class rows at the right bin indices."""
    rule = RULES[rule_name]
    values = np.array([0, 0, 2, 2, 2, 5], dtype=np.int64)   # support {0, 2, 5}
    counts = np.array([2, 0, 3, 0, 0, 1], dtype=np.int64)   # bins 0..5
    Q = occupancy_transition_matrix(rule, counts)
    occupied = np.flatnonzero(counts)
    for cls, own_idx in zip(occupied, (0, 2, 5)):
        brute = _brute_force_row(rule, values, own_idx)
        np.testing.assert_allclose(
            Q[cls][occupied], brute, atol=1e-12,
            err_msg=f"{rule_name}: empty-bin row {cls} disagrees")


# ---------------------------------------------------------------------- #
# direct builder entry points and batching
# ---------------------------------------------------------------------- #
def test_three_majority_closed_form_matches_definition():
    """q_b = p_b (1 + p_b − Σ p²): rows identical (self does not vote) and
    exactly the at-least-two-of-three mass plus the uniform tie-break."""
    p = np.array([0.5, 0.3, 0.2])
    Q = occupancy_transition_matrix(TwoChoicesMajorityRule(), np.array([5, 3, 2]))
    assert np.allclose(Q, Q[0][None, :])  # own value irrelevant
    s2 = float(np.sum(p * p))
    expected = np.array([
        3 * pb ** 2 * (1 - pb) + pb ** 3 + pb * ((1 - pb) ** 2 - (s2 - pb ** 2))
        for pb in p
    ])
    np.testing.assert_allclose(Q[0], expected, atol=1e-12)
    np.testing.assert_allclose(Q[0], p * (1 + p - s2), atol=1e-12)


def test_two_choices_closed_form_matches_definition():
    p = np.array([0.5, 0.3, 0.2])
    Q = occupancy_transition_matrix(TwoChoicesRule(), np.array([5, 3, 2]))
    s2 = float(np.sum(p * p))
    for a in range(3):
        for b in range(3):
            expected = (1 - s2 + p[a] ** 2) if a == b else p[b] ** 2
            assert abs(Q[a, b] - expected) < 1e-12


@pytest.mark.parametrize("rule_name", ["three-majority", "two-choices-majority"])
def test_batched_majority_tensors_equal_stacked_singles(rule_name):
    rule = RULES[rule_name]
    rng = np.random.default_rng(7)
    counts = rng.multinomial(240, np.full(6, 1 / 6), size=12).astype(np.int64)
    Qb = occupancy_transition_matrix(rule, counts)
    assert Qb.shape == (12, 6, 6)
    for i in range(counts.shape[0]):
        np.testing.assert_allclose(
            Qb[i], occupancy_transition_matrix(rule, counts[i]), atol=1e-12)


def test_consensus_is_absorbing_for_every_kernel():
    counts = np.array([0, 9, 0], dtype=np.int64)
    for name, rule in RULES.items():
        Q = occupancy_transition_matrix(rule, counts)
        assert Q[1, 1] == pytest.approx(1.0), f"{name}: consensus not absorbing"
