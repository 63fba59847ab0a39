"""Tests for repro.core.multidim: higher-dimensional median rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.median_rule import MedianRule
from repro.core.multidim import (
    CoordinatewiseMedianRule,
    TukeyMedianRule,
    VectorConfiguration,
    simulate_vector,
)


class TestVectorConfiguration:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            VectorConfiguration(values=np.zeros(5, dtype=np.int64))

    def test_random_construction(self, rng):
        vc = VectorConfiguration.random(50, 3, 0, 10, rng)
        assert vc.n == 50 and vc.d == 3
        assert vc.values.min() >= 0 and vc.values.max() < 10

    def test_random_invalid(self, rng):
        with pytest.raises(ValueError):
            VectorConfiguration.random(0, 3, 0, 10, rng)
        with pytest.raises(ValueError):
            VectorConfiguration.random(5, 3, 5, 5, rng)

    def test_values_readonly(self, rng):
        vc = VectorConfiguration.random(10, 2, 0, 5, rng)
        with pytest.raises(ValueError):
            vc.values[0, 0] = 99

    def test_consensus_detection(self):
        vc = VectorConfiguration(values=np.tile([1, 2, 3], (5, 1)))
        assert vc.is_consensus
        assert vc.agreement_fraction() == 1.0
        assert vc.distinct_vectors() == 1

    def test_contains_vector(self, rng):
        vc = VectorConfiguration(values=np.array([[1, 2], [3, 4]]))
        assert vc.contains_vector([1, 2])
        assert not vc.contains_vector([1, 4])

    def test_agreement_fraction_partial(self):
        vc = VectorConfiguration(values=np.array([[1, 1], [1, 1], [2, 2], [3, 3]]))
        assert vc.agreement_fraction() == pytest.approx(0.5)


class TestCoordinatewiseMedianRule:
    def test_one_dimension_matches_scalar_median_rule(self, rng):
        n = 100
        values = rng.integers(0, 30, size=n)
        seed_samples = np.random.default_rng(5)
        # run both rules with the same contact samples
        samples = seed_samples.integers(0, n, size=(n, 2))
        scalar_out = MedianRule().apply_vectorized(values, samples, rng)

        vec_values = values[:, None]
        vj = vec_values[samples[:, 0]]
        vk = vec_values[samples[:, 1]]
        lo = np.minimum(vec_values, vj)
        hi = np.maximum(vec_values, vj)
        vec_out = np.maximum(lo, np.minimum(hi, vk))
        assert np.array_equal(vec_out[:, 0], scalar_out)

    def test_each_coordinate_stays_in_initial_coordinate_set(self, rng):
        vc = VectorConfiguration.random(60, 3, 0, 7, rng)
        rule = CoordinatewiseMedianRule()
        values = vc.copy_values()
        initial_sets = [set(np.unique(values[:, k])) for k in range(3)]
        for _ in range(10):
            values = rule.step(values, rng)
            for k in range(3):
                assert set(np.unique(values[:, k])) <= initial_sets[k]

    def test_reaches_consensus(self, rng):
        vc = VectorConfiguration.random(100, 3, 0, 1000, rng)
        result = simulate_vector(vc, seed=1)
        assert result.reached_consensus
        assert result.final.is_consensus
        assert result.final_vector is not None

    def test_limit_vector_may_mix_coordinates(self):
        # with many distinct vectors the agreed vector is typically NOT one of
        # the initial vectors (coordinate-wise consensus only)
        rng = np.random.default_rng(3)
        mixed_count = 0
        for s in range(5):
            vc = VectorConfiguration.random(80, 4, 0, 10**6, rng)
            result = simulate_vector(vc, seed=s)
            assert result.reached_consensus
            if not vc.contains_vector(result.final_vector):
                mixed_count += 1
        assert mixed_count >= 4     # almost surely mixes with 10^6-range coordinates

    def test_consensus_time_logarithmic_shape(self):
        means = []
        for n in (64, 256, 1024):
            rounds = []
            for s in range(4):
                rng = np.random.default_rng(100 + s)
                vc = VectorConfiguration.random(n, 2, 0, 10**6, rng)
                res = simulate_vector(vc, seed=s)
                assert res.reached_consensus
                rounds.append(res.consensus_round)
            means.append(np.mean(rounds))
        # 16x larger n costs far less than 4x the rounds
        assert means[-1] < 2.5 * means[0]

    def test_dimension_costs_little_and_tukey_keeps_initial_vectors(self):
        """The conclusion's higher dimensions at n = 256, d in {1, 2, 4}:
        coordinate-wise rounds barely grow with d, Tukey's limit is always
        an initial vector, and in d = 1 the two rules are close."""
        mean_rounds = {}
        for d in (1, 2, 4):
            for label, rule in (("coordinatewise", CoordinatewiseMedianRule()),
                                ("tukey", TukeyMedianRule())):
                rounds = []
                for s in range(5):
                    vc = VectorConfiguration.random(
                        256, d, 0, 10**6, np.random.default_rng(1000 + s))
                    res = simulate_vector(vc, rule=rule, seed=s, max_rounds=4000)
                    assert res.reached_consensus
                    rounds.append(res.consensus_round)
                    if label == "tukey":
                        assert vc.contains_vector(res.final_vector)
                mean_rounds[label, d] = np.mean(rounds)
        coord_1 = mean_rounds["coordinatewise", 1]
        assert mean_rounds["coordinatewise", 4] < 2.5 * coord_1
        assert mean_rounds["tukey", 1] < 3 * coord_1 + 10


class TestTukeyMedianRule:
    def test_output_is_one_of_the_three_inputs(self, rng):
        rule = TukeyMedianRule()
        values = rng.integers(0, 50, size=(40, 3))
        out = rule.step(values, rng)
        # every output row must equal some current row (value preservation is
        # even stronger: it equals own or one of the sampled rows)
        current = {tuple(row) for row in values.tolist()}
        for row in out.tolist():
            assert tuple(row) in current

    def test_preserves_initial_vector_set(self, rng):
        vc = VectorConfiguration.random(60, 3, 0, 100, rng)
        initial_vectors = {tuple(row) for row in vc.values.tolist()}
        result = simulate_vector(vc, rule=TukeyMedianRule(), seed=2, max_rounds=3000)
        final_vectors = {tuple(row) for row in result.final.values.tolist()}
        assert final_vectors <= initial_vectors

    def test_one_dimension_is_the_median(self, rng):
        rule = TukeyMedianRule()
        values = np.array([[10], [12], [100]], dtype=np.int64)
        # force process 0 to sample processes 1 and 2 by monkey-running the kernel
        a, b, c = values[0], values[1], values[2]
        dist_ab = np.abs(a - b).sum()
        dist_ac = np.abs(a - c).sum()
        dist_bc = np.abs(b - c).sum()
        costs = [dist_ab + dist_ac, dist_ab + dist_bc, dist_ac + dist_bc]
        assert int(np.argmin(costs)) == 1          # the 1-D median (12) wins

    def test_reaches_consensus_with_few_vectors(self, rng):
        base = np.array([[0, 0, 0], [5, 5, 5], [9, 1, 4]], dtype=np.int64)
        values = base[rng.integers(0, 3, size=90)]
        vc = VectorConfiguration(values=values)
        result = simulate_vector(vc, rule=TukeyMedianRule(), seed=3, max_rounds=3000)
        assert result.reached_consensus
        assert result.final_vector in {tuple(r) for r in base.tolist()}


class TestSimulateVector:
    def test_already_consensus(self):
        vc = VectorConfiguration(values=np.tile([4, 4], (10, 1)))
        result = simulate_vector(vc, seed=0)
        assert result.consensus_round == 0

    def test_horizon_respected(self, rng):
        vc = VectorConfiguration.random(64, 2, 0, 10**6, rng)
        result = simulate_vector(vc, seed=0, max_rounds=1)
        assert result.rounds_executed == 1

    def test_deterministic_given_seed(self, rng):
        vc = VectorConfiguration.random(64, 2, 0, 100, rng)
        a = simulate_vector(vc, seed=9)
        b = simulate_vector(vc, seed=9)
        assert a.consensus_round == b.consensus_round
        assert np.array_equal(a.final.values, b.final.values)
