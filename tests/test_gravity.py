"""Tests for repro.core.gravity: Equation (1) and heavy-ball sets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.gravity import (
    empirical_gravity,
    exact_gravity,
    gravity,
    gravity_array,
    heavy_ball_threshold,
    heavy_balls,
    median_ball_rank,
)
from repro.core.state import Configuration


class TestGravityFormula:
    def test_scalar_value(self):
        # g(i) = 6 i (n-i) / n^2; for i = n/2 this is 6/4 = 1.5 (minus O(1/n))
        assert gravity(50, 100) == pytest.approx(6 * 50 * 50 / 100**2)

    def test_array_matches_scalar(self):
        n = 64
        arr = gravity_array(n)
        for i in (1, 10, 32, 63, 64):
            assert arr[i - 1] == pytest.approx(gravity(i, n))

    def test_maximized_at_median_ball(self):
        n = 101
        arr = gravity_array(n)
        argmax_rank = int(np.argmax(arr)) + 1
        # the quadratic peaks at n/2; the median ball is at ceil(n/2) — they
        # differ by at most one rank
        assert abs(argmax_rank - median_ball_rank(n)) <= 1

    def test_symmetric_about_center(self):
        n = 100
        arr = gravity_array(n)
        # g(i) with i and n-i swapped is identical for the quadratic formula
        assert arr[9] == pytest.approx(arr[n - 10 - 1], rel=1e-12)

    def test_extremes_have_small_gravity(self):
        n = 1000
        assert gravity(1, n) < 0.01
        assert gravity(n, n) == pytest.approx(0.0)

    def test_threshold_four_thirds_at_n_over_three(self):
        # Lemma 18: g(i) < 4/3 implies i <= n/3 + O(1) (or i >= 2n/3 by symmetry)
        n = 3000
        i_low = int(n / 3)
        assert gravity(i_low, n) <= 4 / 3 + 0.01
        assert gravity(n // 2, n) > 4 / 3


class TestExactGravity:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exact_gravity(0, 10)
        with pytest.raises(ValueError):
            exact_gravity(11, 10)

    def test_total_gravity_is_n(self):
        # every ball chooses exactly one median, so gravities sum to n
        n = 150
        total = sum(exact_gravity(i, n) for i in range(1, n + 1))
        assert total == pytest.approx(n, rel=1e-9)

    def test_close_to_equation1(self):
        n = 400
        for i in (1, 50, 133, 200, 301, 400):
            assert exact_gravity(i, n) == pytest.approx(gravity(i, n), abs=6.5 / n + 1e-9)

    def test_matches_empirical(self):
        n, rounds = 120, 400
        rng = np.random.default_rng(9)
        emp = empirical_gravity(n, rounds, rng)
        exact = np.array([exact_gravity(i, n) for i in range(1, n + 1)])
        # Monte-Carlo noise per rank is ~sqrt(g/rounds) ≈ 0.06; allow 5 sigma
        assert np.max(np.abs(emp - exact)) < 0.35

    def test_equation1_shape_at_n_300(self):
        """Equation (1) and the 4/3 threshold of Lemmas 18/19 at n = 300."""
        n = 300
        emp = empirical_gravity(n, 400, np.random.default_rng(11))
        exact = np.array([exact_gravity(i, n) for i in range(1, n + 1)])
        assert np.max(np.abs(emp - exact)) < 0.4
        assert np.max(np.abs(gravity_array(n) - exact)) <= 6.5 / n + 1e-9
        assert abs(int(np.argmax(emp)) + 1 - n / 2) < 0.1 * n
        # gravity exceeds 4/3 strictly between ~n/3 and ~2n/3
        above = np.flatnonzero(exact > 4 / 3) + 1
        assert above.size > 0
        assert abs(above.min() - n / 3) < 0.05 * n + 3
        assert abs(above.max() - 2 * n / 3) < 0.05 * n + 3

    def test_empirical_requires_positive_rounds(self, rng):
        with pytest.raises(ValueError):
            empirical_gravity(10, 0, rng)


class TestHeavyBalls:
    def test_threshold_formula(self):
        n = 100
        assert heavy_ball_threshold(n, constant=2.0) == math.ceil(2.0 * math.sqrt(n * math.log(n)))

    def test_threshold_small_n(self):
        assert heavy_ball_threshold(1) == 1

    def test_heavy_sets_bounded_by_phi(self, rng):
        cfg = Configuration.uniform_random(300, 5, rng)
        phi = heavy_ball_threshold(300, constant=0.3)
        sets = heavy_balls(cfg, constant=0.3)
        for members in sets.values():
            assert 0 < members.shape[0] <= phi

    def test_heavy_sets_members_belong_to_bin(self, rng):
        cfg = Configuration.uniform_random(200, 4, rng)
        sets = heavy_balls(cfg)
        for value, members in sets.items():
            assert np.all(cfg.values[members] == value)

    def test_heavy_sets_pick_highest_gravity(self):
        # all-distinct config: bin i holds exactly ball of rank i+1, so the
        # heavy set of each bin is that single ball
        cfg = Configuration.all_distinct(50)
        sets = heavy_balls(cfg)
        assert len(sets) == 50
        for value, members in sets.items():
            assert members.shape[0] == 1

    def test_small_bins_fully_included(self):
        cfg = Configuration.from_values([0] * 3 + [1] * 200)
        sets = heavy_balls(cfg, constant=0.2)
        assert sets[0].shape[0] == 3
