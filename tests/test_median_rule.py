"""Tests for repro.core.median_rule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.median_rule import (
    BestOfKMedianRule,
    MedianRule,
    MedianRuleWithoutReplacement,
    median_of_three,
    median_of_three_scalar,
)


class TestMedianOfThree:
    @pytest.mark.parametrize("a,b,c,expected", [
        (10, 12, 100, 12),      # the paper's example
        (1, 2, 3, 2),
        (3, 2, 1, 2),
        (5, 5, 5, 5),
        (5, 5, 1, 5),
        (1, 5, 5, 5),
        (7, 1, 7, 7),
        (-3, 0, 3, 0),
        (-10, -20, -30, -20),
    ])
    def test_scalar_cases(self, a, b, c, expected):
        assert median_of_three_scalar(a, b, c) == expected

    def test_vector_matches_scalar(self, rng):
        a = rng.integers(-50, 50, size=200)
        b = rng.integers(-50, 50, size=200)
        c = rng.integers(-50, 50, size=200)
        vec = median_of_three(a, b, c)
        for i in range(200):
            assert vec[i] == median_of_three_scalar(int(a[i]), int(b[i]), int(c[i]))

    def test_vector_matches_numpy_median(self, rng):
        a = rng.integers(0, 100, size=500)
        b = rng.integers(0, 100, size=500)
        c = rng.integers(0, 100, size=500)
        expected = np.median(np.stack([a, b, c]), axis=0).astype(np.int64)
        assert np.array_equal(median_of_three(a, b, c), expected)

    def test_symmetric_in_all_arguments(self, rng):
        a = rng.integers(0, 10, size=50)
        b = rng.integers(0, 10, size=50)
        c = rng.integers(0, 10, size=50)
        ref = median_of_three(a, b, c)
        assert np.array_equal(ref, median_of_three(b, a, c))
        assert np.array_equal(ref, median_of_three(c, b, a))
        assert np.array_equal(ref, median_of_three(b, c, a))


class TestMedianRule:
    def test_registry_name(self):
        assert MedianRule.name == "median"
        assert MedianRule().num_choices == 2
        assert MedianRule().preserves_values is True

    def test_apply_vectorized_matches_definition(self, rng):
        rule = MedianRule()
        values = rng.integers(0, 20, size=100)
        samples = rng.integers(0, 100, size=(100, 2))
        out = rule.apply_vectorized(values, samples, rng)
        for j in range(100):
            expected = sorted([values[j], values[samples[j, 0]], values[samples[j, 1]]])[1]
            assert out[j] == expected

    def test_apply_single_matches_vectorized(self, rng):
        rule = MedianRule()
        assert rule.apply_single(10, [12, 100], rng) == 12

    def test_apply_single_wrong_arity(self, rng):
        with pytest.raises(ValueError):
            MedianRule().apply_single(1, [2], rng)

    def test_output_is_new_array(self, rng):
        rule = MedianRule()
        values = rng.integers(0, 5, size=50)
        samples = rng.integers(0, 50, size=(50, 2))
        out = rule.apply_vectorized(values, samples, rng)
        assert out is not values

    def test_output_values_subset_of_input(self, rng):
        rule = MedianRule()
        values = rng.integers(0, 7, size=200)
        for _ in range(10):
            values = rule.step(values, rng)
            assert set(np.unique(values)) <= set(range(7))

    @pytest.mark.parametrize("values", [
        np.arange(1 << 16, dtype=np.int64),
        (np.arange(10**5, dtype=np.int64) * 64) // 10**5,
    ], ids=["distinct-n65536", "64-blocks-n1e5"])
    def test_one_round_at_scale_keeps_shape(self, values):
        out = MedianRule().step(values, np.random.default_rng(0))
        assert out.shape == values.shape

    def test_consensus_is_fixed_point(self, rng):
        rule = MedianRule()
        values = np.full(64, 3, dtype=np.int64)
        out = rule.step(values, rng)
        assert np.all(out == 3)

    def test_sample_contacts_shape_and_range(self, rng):
        samples = MedianRule().sample_contacts(37, rng)
        assert samples.shape == (37, 2)
        assert samples.min() >= 0 and samples.max() < 37

    def test_validate_samples_rejects_bad_shape(self, rng):
        rule = MedianRule()
        with pytest.raises(ValueError):
            rule.apply_vectorized(np.zeros(5, dtype=np.int64),
                                  np.zeros((5, 3), dtype=np.int64), rng)

    def test_validate_samples_rejects_out_of_range(self, rng):
        rule = MedianRule()
        samples = np.array([[0, 5]], dtype=np.int64)
        with pytest.raises(ValueError):
            rule.apply_vectorized(np.zeros(1, dtype=np.int64), samples, rng)

    def test_reaches_consensus_small(self, rng):
        rule = MedianRule()
        values = np.arange(50, dtype=np.int64)
        for _ in range(400):
            values = rule.step(values, rng)
            if np.all(values == values[0]):
                break
        assert np.all(values == values[0])


class TestMedianRuleWithoutReplacement:
    def test_excludes_self(self, rng):
        rule = MedianRuleWithoutReplacement()
        samples = rule.sample_contacts(50, rng)
        own = np.arange(50)[:, None]
        assert not np.any(samples == own)

    def test_two_choices_distinct(self, rng):
        rule = MedianRuleWithoutReplacement()
        samples = rule.sample_contacts(50, rng)
        assert not np.any(samples[:, 0] == samples[:, 1])

    def test_small_n_falls_back(self, rng):
        rule = MedianRuleWithoutReplacement()
        samples = rule.sample_contacts(2, rng)
        assert samples.shape == (2, 2)
        assert samples.max() < 2

    def test_uniform_marginals(self):
        # each other process should be chosen by the first slot ~uniformly
        rng = np.random.default_rng(7)
        rule = MedianRuleWithoutReplacement()
        n = 10
        counts = np.zeros(n)
        for _ in range(2000):
            samples = rule.sample_contacts(n, rng)
            counts += np.bincount(samples[:, 0], minlength=n)
        # every process chosen n*2000/n... first slot total picks = n*2000;
        # uniformity over the other n-1 targets per chooser
        assert counts.std() / counts.mean() < 0.05


class TestBestOfKMedianRule:
    def test_k2_matches_median_rule(self, rng):
        values = rng.integers(0, 30, size=80)
        samples = rng.integers(0, 80, size=(80, 2))
        a = MedianRule().apply_vectorized(values, samples, rng)
        b = BestOfKMedianRule(k=2).apply_vectorized(values, samples, rng)
        assert np.array_equal(a, b)

    def test_k_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BestOfKMedianRule(k=0)

    def test_output_among_inputs(self, rng):
        rule = BestOfKMedianRule(k=4)
        values = rng.integers(0, 9, size=60)
        samples = rng.integers(0, 60, size=(60, 4))
        out = rule.apply_vectorized(values, samples, rng)
        for j in range(60):
            pool = {int(values[j])} | {int(values[s]) for s in samples[j]}
            assert int(out[j]) in pool

    def test_single_matches_vectorized(self, rng):
        rule = BestOfKMedianRule(k=3)
        values = np.array([5, 1, 9, 3, 7], dtype=np.int64)
        samples = np.array([[1, 2, 3]], dtype=np.int64)
        vec = rule.apply_vectorized(values[:1].repeat(1), None, rng) if False else None
        out_single = rule.apply_single(5, [1, 9, 3], rng)
        # lower median of [1,3,5,9] is 3
        assert out_single == 3

    def test_larger_k_converges_faster_on_average(self):
        # more choices → stronger drift; compare mean consensus times
        rng = np.random.default_rng(11)

        def consensus_time(rule, seed):
            r = np.random.default_rng(seed)
            values = np.arange(100, dtype=np.int64)
            for t in range(1, 500):
                values = rule.step(values, r)
                if np.all(values == values[0]):
                    return t
            return 500

        t2 = np.mean([consensus_time(BestOfKMedianRule(k=2), s) for s in range(8)])
        t6 = np.mean([consensus_time(BestOfKMedianRule(k=6), s) for s in range(8)])
        assert t6 <= t2
