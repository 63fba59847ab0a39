"""The band profiles a count-space loop writes into its buffers, bit for bit.

``occupancy_outcome_profiles`` writes each built-in rule's ``(lo, hi, diag)``
band into a loop's ``(R, m)`` buffers, with the rule's recipe resolved once
for the loop.  The reference below is the earlier formulation written out on
the test side: fresh arrays, ``np.diff`` and zero-column concatenations, and
``binomial_sf`` summed from ``0.0`` with every power and coefficient
computed.  Every profile must equal it in every bit (``.view(np.uint64)``),
from a direct call and from a loop's buffers, for every built-in rule, on
random batches with empty bins and through a loop whose rows retire and whose
bins compact.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.engine.occupancy as occupancy
from repro.adversary.base import NullAdversary
from repro.core.baseline_rules import (
    MaximumRule,
    MinimumRule,
    TwoChoicesMajorityRule,
    TwoChoicesRule,
    VoterRule,
)
from repro.core.median_rule import BestOfKMedianRule, MedianRule, MedianRuleWithoutReplacement
from repro.core.rules import get_rule
from repro.engine._multinomial import resolve_multinomial_backend, set_multinomial_backend
from repro.engine.batch import _occupancy_loop
from repro.engine.occupancy import _RoundProgram, binomial_sf, occupancy_outcome_profiles


def reference_binomial_sf(k, r, x):
    x = np.asarray(x, dtype=np.float64)
    if r <= 0:
        return np.ones_like(x)
    if r > k:
        return np.zeros_like(x)
    out = np.zeros_like(x)
    for j in range(r, k + 1):
        out += math.comb(k, j) * np.power(x, j) * np.power(1.0 - x, k - j)
    return np.clip(out, 0.0, 1.0)


def reference_profiles(rule, counts):
    """The band profiles as fresh arrays, formula by formula."""
    counts = np.asarray(counts, dtype=np.int64)
    n_per_row = counts.sum(axis=-1)
    cdf = np.cumsum(counts, axis=-1).astype(np.float64) / n_per_row[..., None]
    zeros = np.zeros_like(cdf[..., :1])
    if isinstance(rule, MedianRuleWithoutReplacement) and np.all(n_per_row >= 3):
        n = int(n_per_row.ravel()[0])
        C = np.cumsum(counts, axis=-1).astype(np.float64)
        C_prev = np.concatenate([zeros, C[..., :-1]], axis=-1)
        D = float(n - 1) * float(n - 2)
        below = C * (C - 1.0) / D
        above = (n - C_prev) * (n - C_prev - 1.0) / D
        lo = np.diff(below, prepend=0.0, axis=-1)
        hi = -np.diff(above, append=0.0, axis=-1)
        below_prev = np.concatenate([zeros, below[..., :-1]], axis=-1)
        above_next = np.concatenate([above[..., 1:], zeros], axis=-1)
        return lo, hi, 1.0 - below_prev - above_next
    if isinstance(rule, (MedianRule, BestOfKMedianRule)):
        k = rule.k if isinstance(rule, BestOfKMedianRule) else 2
        r = k // 2
        s_hi = reference_binomial_sf(k, r, cdf)
        s_lo = reference_binomial_sf(k, r + 1, cdf)
        lo = np.diff(s_lo, prepend=0.0, axis=-1)
        hi = np.diff(s_hi, prepend=0.0, axis=-1)
        s_lo_prev = np.concatenate([zeros, s_lo[..., :-1]], axis=-1)
        return lo, hi, s_hi - s_lo_prev
    p = np.diff(cdf, prepend=0.0, axis=-1)
    if isinstance(rule, VoterRule):
        return p, p, p
    if isinstance(rule, MinimumRule):
        F_prev = np.concatenate([zeros, cdf[..., :-1]], axis=-1)
        return p, np.zeros_like(p), 1.0 - F_prev
    if isinstance(rule, MaximumRule):
        return np.zeros_like(p), p, cdf
    if isinstance(rule, TwoChoicesMajorityRule):
        s2 = np.sum(p * p, axis=-1, keepdims=True)
        q = p * (1.0 + p - s2)
        return q, q, q
    assert isinstance(rule, TwoChoicesRule)
    p2 = p * p
    s2 = np.sum(p2, axis=-1, keepdims=True)
    return p2, p2, 1.0 - s2 + p2


RULES = {
    "median": MedianRule(),
    **{f"median-k={k}": BestOfKMedianRule(k=k) for k in (1, 3, 4, 5)},
    "median-noreplace": MedianRuleWithoutReplacement(),
    "voter": VoterRule(),
    "minimum": MinimumRule(),
    "maximum": MaximumRule(),
    "three-majority": TwoChoicesMajorityRule(),
    "two-choices-majority": TwoChoicesRule(),
}

HAS_COMPILED = resolve_multinomial_backend("compiled").resolved == "compiled"


def assert_same_bits(profiles, expected):
    assert len(profiles) == 3
    for got, want in zip(profiles, expected):
        assert got.shape == want.shape and got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def random_counts(seed, R, m, n):
    """``R`` runs of population ``n`` over ``m`` bins, with empty bins (a
    whole column, the first bin of the first run, the last of the last)."""
    gen = np.random.default_rng(seed)
    counts = gen.multinomial(n, gen.dirichlet(np.full(m, 0.4)), size=R)
    counts[:, gen.integers(0, m)] = 0
    counts[0, 0] = counts[-1, -1] = 0
    counts[:, m // 2] += n - counts.sum(axis=1)    # put the removed mass back
    return counts.astype(np.int64)


@pytest.fixture
def compiled_backend():
    set_multinomial_backend("compiled")
    yield
    set_multinomial_backend(None)


@pytest.mark.parametrize("name", RULES)
@pytest.mark.parametrize("seed, R, m, n", [(0, 6, 2, 4096), (1, 7, 9, 1000),
                                           (2, 64, 32, 10 ** 6), (3, 5, 5, 2),
                                           (4, 3, 1, 50)])
def test_profiles_are_bit_identical(name, seed, R, m, n):
    rule = RULES[name]
    counts = random_counts(seed, R, m, n)
    expected = reference_profiles(rule, counts)
    assert_same_bits(occupancy_outcome_profiles(rule, counts), expected)
    assert_same_bits(occupancy_outcome_profiles(rule, counts[0]),
                     reference_profiles(rule, counts[0]))
    program = _RoundProgram(rule, R + 3)
    for rows in (counts, counts[: max(1, R // 2)], counts):
        assert_same_bits(occupancy_outcome_profiles(rule, rows, _program=program),
                         reference_profiles(rule, rows))


def test_noreplace_falls_back_below_three():
    rule = RULES["median-noreplace"]
    mixed = np.array([[1, 1, 0], [0, 2, 0]], dtype=np.int64)
    assert_same_bits(occupancy_outcome_profiles(rule, mixed),
                     reference_profiles(MedianRule(), mixed))


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_binomial_sf_is_bit_identical(k):
    x = np.random.default_rng(k).random((4, 7))
    x[0] = [0.0, 1.0, 0.5, 1e-300, 1 - 1e-16, 0.25, 0.75]
    for r in range(-1, k + 2):
        np.testing.assert_array_equal(binomial_sf(k, r, x).view(np.uint64),
                                      reference_binomial_sf(k, r, x).view(np.uint64))


def test_a_direct_call_returns_its_own_arrays():
    rule = MedianRule()
    first = random_counts(5, 4, 6, 300)
    profiles = occupancy_outcome_profiles(rule, first)
    kept = [p.copy() for p in profiles]
    occupancy_outcome_profiles(rule, random_counts(6, 4, 6, 300))
    assert_same_bits(profiles, kept)


@pytest.mark.skipif(not HAS_COMPILED, reason="loops write profiles into buffers "
                    "only on the compiled backend")
@pytest.mark.parametrize("name", RULES)
def test_loop_buffers_stay_bit_identical_as_rows_retire_and_bins_compact(
        monkeypatch, compiled_backend, name):
    rule = RULES[name]
    real = occupancy.occupancy_outcome_profiles
    shapes = []

    def checked(rule_, counts, **kwargs):
        assert "_program" in kwargs
        profiles = real(rule_, counts, **kwargs)
        assert_same_bits(profiles, reference_profiles(rule_, counts))
        shapes.append(counts.shape)
        return profiles

    monkeypatch.setattr(occupancy, "occupancy_outcome_profiles", checked)
    R, m = 12, 10
    counts = np.stack([random_counts(10 + i, 1, m, 40)[0] for i in range(R)])
    counts[:, 6] += counts[:, 3]
    counts[:, 3] = 0                       # a bin empty everywhere from the start
    support = np.arange(m, dtype=np.int64) * 3
    adversaries = [NullAdversary() for _ in range(R)]
    out = _occupancy_loop(counts, support, rule, adversaries,
                          [support] * R, np.random.default_rng(7), 200)
    assert shapes, "the loop never wrote profiles into its buffers"
    rows = [shape[0] for shape in shapes]
    widths = [shape[1] for shape in shapes]
    assert rows[0] == R and min(rows) < R            # runs retired mid-loop
    assert widths[0] == m and min(widths) < m        # bins compacted
    assert out.rounds_executed == len(shapes)


def test_every_registry_occupancy_rule_is_covered():
    for name in occupancy.OCCUPANCY_RULES:
        rule = get_rule(name)
        counts = random_counts(9, 3, 5, 100)
        assert_same_bits(occupancy_outcome_profiles(rule, counts),
                         reference_profiles(rule, counts))
