"""Tests for repro.analysis.drift (Lemmas 11/12/15) and repro.analysis.clt (Lemma 14)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.clt import (
    gaussian_tail_bounds,
    imbalance_std_after_balanced_round,
    lemma14_asymptotic_probability,
    lemma14_lower_bound,
    simulate_balanced_round_imbalance,
)
from repro.analysis.drift import (
    expected_imbalance_next,
    expected_minority_next,
    lemma11_quadratic_bound,
    lemma12_contraction_factor,
    lemma15_growth_factor,
    measure_empirical_drift,
    measure_empirical_occupancy_drift,
    occupancy_expected_counts,
    occupancy_expected_drift,
)


class TestExpectedMinority:
    def test_closed_form_of_lemma12(self):
        # E[X_{t+1}] = (1/2 - (3/2) delta + 2 delta^3) n
        n = 1200
        for minority in (100, 300, 500):
            delta = (n / 2 - minority) / n
            expected = (0.5 - 1.5 * delta + 2 * delta**3) * n
            assert expected_minority_next(n, minority) == pytest.approx(expected, rel=1e-9)

    def test_balanced_state_is_unbiased(self):
        n = 1000
        assert expected_minority_next(n, n // 2) == pytest.approx(n / 2)

    def test_empty_minority_stays_empty(self):
        assert expected_minority_next(500, 0) == pytest.approx(0.0)

    def test_expected_minority_decreases_below_balance(self):
        n = 1000
        for minority in (100, 200, 300, 450):
            assert expected_minority_next(n, minority) < minority


class TestLemma12Contraction:
    def test_bound_holds_in_lemma_regime(self):
        # E[X_{t+1}] <= (1 - delta/2) X_t for delta < 1/3
        n = 3000
        for minority in (1100, 1300, 1450):
            delta = (n / 2 - minority) / n
            assert delta < 1 / 3
            assert lemma12_contraction_factor(n, minority) <= 1 - delta / 2 + 1e-9

    def test_factor_less_than_one_whenever_unbalanced(self):
        n = 2000
        for minority in (200, 600, 900, 999):
            assert lemma12_contraction_factor(n, minority) < 1.0

    def test_invalid_minority(self):
        with pytest.raises(ValueError):
            lemma12_contraction_factor(100, 0)


class TestLemma11Quadratic:
    def test_bound_dominates_exact_expectation_below_quarter(self):
        n = 4000
        for minority in (50, 200, 500, 1000):
            assert expected_minority_next(n, minority) <= lemma11_quadratic_bound(n, minority) + 1e-9

    def test_quadratic_shape(self):
        assert lemma11_quadratic_bound(1000, 100) == pytest.approx(30.0)


class TestLemma15Growth:
    def test_growth_factor_matches_exact_formula(self):
        # E[Delta_{t+1}] = (3/2 - 2 delta^2) Delta_t  (Lemma 15 quotes the 3/2 part)
        n = 6000
        for imbalance in (10, 100, 500, n / 6):
            delta = imbalance / n
            assert lemma15_growth_factor(n, imbalance) == pytest.approx(1.5 - 2 * delta**2)

    def test_growth_factor_close_to_three_halves_in_regime(self):
        n = 6000
        for imbalance in (10, 100, 500, n / 6):
            assert lemma15_growth_factor(n, imbalance) >= 1.4

    def test_growth_factor_shrinks_near_saturation(self):
        n = 6000
        assert lemma15_growth_factor(n, 0.45 * n) < 1.5

    def test_expected_imbalance_consistency(self):
        # expected_imbalance_next and expected_minority_next describe the same round
        n = 2000
        minority = 700
        imbalance = n / 2 - minority
        assert expected_imbalance_next(n, imbalance) == pytest.approx(
            n / 2 - expected_minority_next(n, minority), rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma15_growth_factor(100, 0)
        with pytest.raises(ValueError):
            expected_imbalance_next(100, 60)


class TestEmpiricalDrift:
    def test_matches_prediction(self):
        rng = np.random.default_rng(0)
        obs = measure_empirical_drift(n=800, minority=250, samples=300, rng=rng)
        assert obs.relative_error < 0.02

    def test_fields(self):
        rng = np.random.default_rng(1)
        obs = measure_empirical_drift(n=200, minority=50, samples=50, rng=rng)
        assert obs.n == 200 and obs.minority_before == 50 and obs.samples == 50

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            measure_empirical_drift(100, 30, 0, np.random.default_rng(0))

    def test_drift_curve_within_lemma11_12_bounds(self):
        """One-round minority drift at n = 2000 for five imbalances: the
        exact mean matches Monte Carlo and obeys the Lemma 11/12 bounds."""
        n = 2000
        minorities = [int(f * n) for f in (0.05, 0.15, 0.25, 0.35, 0.45)]
        rng = np.random.default_rng(77)
        for x in minorities:
            obs = measure_empirical_drift(n, x, samples=200, rng=rng)
            assert obs.relative_error < 0.03
            delta = (n / 2 - x) / n
            if delta < 1 / 3:      # Lemma 12's regime
                assert obs.predicted_mean <= (1 - delta / 2) * x + 1e-9
            if x <= n / 4:         # Lemma 11's regime
                assert obs.predicted_mean <= lemma11_quadratic_bound(n, x) + 1e-9
        # the contraction factor improves as the minority shrinks
        factors = [lemma12_contraction_factor(n, x) for x in minorities]
        assert all(a <= b + 1e-12 for a, b in zip(factors, factors[1:]))


class TestOccupancyExpectedDrift:
    """Exact E[c'|c] = cᵀQ from the O(m²) transition matrix — the finite-n
    refinement of the mean-field cdf_map, for every occupancy-kernel rule."""

    def test_two_bin_median_reduces_to_closed_form(self):
        from repro.core.median_rule import MedianRule

        n, minority = 500, 180
        expected = occupancy_expected_counts(
            MedianRule(), np.array([minority, n - minority]))
        assert expected[0] == pytest.approx(expected_minority_next(n, minority))
        assert expected.sum() == pytest.approx(n)

    def test_refines_mean_field_cdf_map(self):
        from repro.analysis.meanfield import cdf_map
        from repro.core.median_rule import MedianRule

        counts = np.array([100, 250, 150, 80])
        n = counts.sum()
        lhs = np.cumsum(occupancy_expected_counts(MedianRule(), counts)) / n
        np.testing.assert_allclose(lhs, cdf_map(np.cumsum(counts) / n),
                                   atol=1e-12)

    def test_drift_conserves_population(self):
        from repro.core.rules import get_rule

        counts = np.array([60, 0, 25, 15])
        for name in ("median", "voter", "minimum", "maximum",
                     "three-majority", "two-choices-majority"):
            drift = occupancy_expected_drift(get_rule(name), counts)
            assert drift.sum() == pytest.approx(0.0, abs=1e-9), name

    @pytest.mark.parametrize("rule_name", ["median", "three-majority",
                                           "two-choices-majority"])
    def test_matches_monte_carlo_within_clt_bounds(self, rule_name):
        from repro.core.rules import get_rule

        counts = np.array([100, 250, 150])
        obs = measure_empirical_occupancy_drift(
            get_rule(rule_name), counts, samples=4000,
            rng=np.random.default_rng(42))
        z = np.abs(obs["mean"] - obs["predicted"]) / np.maximum(
            obs["standard_error"], 1e-9)
        assert float(z.max()) <= 6.0, f"{rule_name}: max z = {z.max():.2f}"
        np.testing.assert_allclose(obs["predicted"].sum(), counts.sum())

    def test_invalid_samples(self):
        from repro.core.median_rule import MedianRule

        with pytest.raises(ValueError):
            measure_empirical_occupancy_drift(
                MedianRule(), np.array([5, 5]), 0, np.random.default_rng(0))


class TestLemma14CLT:
    def test_std_formula(self):
        assert imbalance_std_after_balanced_round(1600) == pytest.approx(np.sqrt(300.0))

    def test_gaussian_sandwich_order(self):
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            lo, hi = gaussian_tail_bounds(x)
            assert lo <= hi
            from scipy.stats import norm
            assert lo <= 1 - norm.cdf(x) <= hi + 1e-12

    def test_lower_bound_below_asymptotic_probability(self):
        for c in (0.1, 0.5, 1.0, 2.0):
            assert lemma14_lower_bound(c) <= lemma14_asymptotic_probability(c) + 1e-12

    def test_epsilon_subtracted(self):
        assert lemma14_lower_bound(0.5, epsilon=1.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma14_lower_bound(-1)
        with pytest.raises(ValueError):
            gaussian_tail_bounds(-0.1)
        with pytest.raises(ValueError):
            imbalance_std_after_balanced_round(0)

    def test_simulated_imbalance_matches_normal_approximation(self):
        rng = np.random.default_rng(2)
        samples = 3000
        with pytest.raises(ValueError):
            simulate_balanced_round_imbalance(901, samples, rng)   # odd n rejected
        n = 1000
        psi = simulate_balanced_round_imbalance(n, samples, rng)
        assert abs(psi.mean()) < 1.5
        assert psi.std() == pytest.approx(imbalance_std_after_balanced_round(n), rel=0.06)

    def test_lemma14_bound_holds_empirically(self):
        rng = np.random.default_rng(3)
        n, samples = 1024, 4000
        psi = simulate_balanced_round_imbalance(n, samples, rng)
        for c in (0.25, 0.5, 1.0):
            freq = np.mean(psi >= c * np.sqrt(n))
            assert freq >= lemma14_lower_bound(c) - 0.03

    def test_kickstart_at_n_2048(self):
        """Lemma 14 at n = 2048 over 3000 balanced rounds: std within 8% of
        sqrt(3n/16), tail frequencies above the lemma's lower bound."""
        n = 2048
        psi = simulate_balanced_round_imbalance(n, 3000, np.random.default_rng(78))
        assert psi.std() == pytest.approx(imbalance_std_after_balanced_round(n),
                                          rel=0.08)
        for c in (0.25, 0.5, 1.0):
            assert np.mean(psi >= c * np.sqrt(n)) >= lemma14_lower_bound(c) - 0.03
