"""Tests for repro.analysis.meanfield, repro.engine.asynchronous and repro.io.plots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.meanfield import (
    cdf_map,
    cdf_to_loads,
    compare_with_simulation,
    fixed_points,
    iterate_fractions,
    loads_to_cdf,
    predict_convergence_rounds,
    step_fractions,
)
from repro.core.baseline_rules import MinimumRule
from repro.core.state import Configuration
from repro.engine.asynchronous import ACTIVATION_ORDERS, simulate_asynchronous
from repro.engine.vectorized import simulate
from repro.io.plots import ascii_plot, histogram, sparkline


# --------------------------------------------------------------------------- #
# mean-field model
# --------------------------------------------------------------------------- #
class TestMeanFieldMap:
    def test_cdf_map_formula(self):
        F = np.array([0.3, 1.0])
        out = cdf_map(F)
        assert out[0] == pytest.approx(0.3**2 * (3 - 2 * 0.3))
        assert out[-1] == pytest.approx(1.0)

    def test_fixed_points(self):
        lo, mid, hi = fixed_points()
        for x in (lo, mid, hi):
            assert cdf_map(np.array([x, 1.0]))[0] == pytest.approx(x)

    def test_half_is_unstable(self):
        # perturb the unstable fixed point slightly: it moves away from 1/2
        up = cdf_map(np.array([0.51, 1.0]))[0]
        down = cdf_map(np.array([0.49, 1.0]))[0]
        assert up > 0.51
        assert down < 0.49

    def test_map_preserves_monotonicity(self, rng):
        p = rng.dirichlet(np.ones(8))
        F = loads_to_cdf(p)
        out = cdf_map(F)
        assert np.all(np.diff(out) >= -1e-12)
        assert out[-1] == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cdf_map(np.array([1.2]))

    def test_loads_roundtrip(self, rng):
        p = rng.dirichlet(np.ones(5))
        assert np.allclose(cdf_to_loads(loads_to_cdf(p)), p)

    def test_loads_must_sum_to_one(self):
        with pytest.raises(ValueError):
            loads_to_cdf([0.5, 0.4])
        with pytest.raises(ValueError):
            loads_to_cdf([])
        with pytest.raises(ValueError):
            loads_to_cdf([-0.1, 1.1])

    def test_step_fractions_conserves_mass(self, rng):
        p = rng.dirichlet(np.ones(6))
        out = step_fractions(p)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= -1e-12)

    def test_matches_lemma11_two_bin_map(self):
        # the prefix map specialized to two bins is exactly p^2(3-2p)
        for p0 in (0.1, 0.25, 0.4):
            out = step_fractions([p0, 1 - p0])
            assert out[0] == pytest.approx(p0**2 * (3 - 2 * p0))


class TestMeanFieldTrajectories:
    def test_dominant_bin_wins(self):
        traj = iterate_fractions([0.2, 0.5, 0.3])
        assert traj.winner() == 1
        assert traj.fractions[-1][1] > 0.999

    def test_support_shrinks(self):
        traj = iterate_fractions([0.2, 0.5, 0.3])
        sizes = traj.support_sizes(threshold=1e-3)
        assert sizes[0] == 3 and sizes[-1] == 1

    def test_balanced_two_bins_stall(self):
        traj = iterate_fractions([0.5, 0.5], rounds=50)
        # stuck on the unstable fixed point: iteration stops early, no winner > 0.999
        assert traj.rounds < 5
        assert traj.fractions[-1][0] == pytest.approx(0.5)

    def test_odd_uniform_middle_bin_wins(self):
        # uniform over odd m: the middle bin is the unique winner (Theorem 21 intuition)
        m = 5
        traj = iterate_fractions([1 / m] * m)
        assert traj.winner() == m // 2

    def test_even_uniform_stalls_at_tie(self):
        m = 4
        traj = iterate_fractions([1 / m] * m, rounds=80)
        final = traj.fractions[-1]
        # mass collapses onto the two middle bins but the 50/50 tie persists
        assert final[1] == pytest.approx(0.5, abs=1e-6)
        assert final[2] == pytest.approx(0.5, abs=1e-6)

    def test_convergence_prediction_grows_slowly_with_n(self):
        # from a biased start the deterministic map converges doubly
        # exponentially (the Lemma 11 collapse), so growing n by 16x adds at
        # most a few rounds to the prediction
        r_small = predict_convergence_rounds([0.3, 0.7], 256)
        r_large = predict_convergence_rounds([0.3, 0.7], 4096)
        assert r_small <= r_large <= r_small + 12

    def test_tied_start_prediction_includes_log_n_tiebreak(self):
        # an exactly tied start stalls the deterministic map, so the predictor
        # adds the Theta(log n) stochastic tie-breaking time — which grows with n
        r_small = predict_convergence_rounds([0.5, 0.5], 256)
        r_large = predict_convergence_rounds([0.5, 0.5], 4096)
        assert r_large > r_small

    def test_prediction_tracks_simulation_within_factor(self):
        predicted, simulated = compare_with_simulation([0.2, 0.3, 0.5], 512, num_runs=4, seed=3)
        assert simulated > 0
        assert 0.3 <= predicted / simulated <= 4.0

    def test_skeleton_tracks_simulation_within_5x(self):
        """The deterministic skeleton vs the engine at n = 1024, 5 runs."""
        for fractions in ([0.4, 0.6], [0.2] * 5, [0.1, 0.2, 0.3, 0.4]):
            predicted, simulated = compare_with_simulation(fractions, 1024,
                                                           num_runs=5, seed=9)
            assert 0.2 <= predicted / simulated <= 5.0, fractions

    def test_prediction_trivial_cases(self):
        assert predict_convergence_rounds([1.0], 1) == 0.0
        assert predict_convergence_rounds([1.0], 1024) <= 1.0


# --------------------------------------------------------------------------- #
# asynchronous execution
# --------------------------------------------------------------------------- #
class TestAsynchronous:
    def test_reaches_consensus_uniform(self):
        res = simulate_asynchronous(Configuration.all_distinct(128), seed=1)
        assert res.reached_consensus
        assert res.final.is_consensus
        assert res.consensus_sweep is not None and res.consensus_sweep > 0

    def test_activation_count_matches_sweeps(self):
        res = simulate_asynchronous(Configuration.all_distinct(64), seed=2)
        assert res.activations_executed == res.sweeps_executed * 64

    @pytest.mark.parametrize("order", ACTIVATION_ORDERS)
    def test_all_orders_converge(self, order):
        res = simulate_asynchronous(Configuration.all_distinct(96), order=order, seed=3,
                                    max_sweeps=600)
        assert res.reached_consensus, order

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            simulate_asynchronous(Configuration.all_distinct(16), order="nope", seed=0)

    def test_value_preservation(self):
        init = Configuration.from_values([3, 7, 11, 3, 7, 11] * 10)
        res = simulate_asynchronous(init, seed=4)
        assert res.consensus.value in {3, 7, 11}

    def test_already_consensus(self):
        res = simulate_asynchronous(Configuration.from_values([5] * 10), seed=0)
        assert res.consensus_sweep == 0

    def test_other_rules_supported(self):
        init = Configuration.from_values([9, 2, 5, 7, 1, 8] * 8)
        res = simulate_asynchronous(init, rule=MinimumRule(), seed=5)
        assert res.reached_consensus
        assert res.consensus.value == 1

    def test_sweeps_comparable_to_synchronous_rounds(self):
        init = Configuration.all_distinct(256)
        async_res = simulate_asynchronous(init, seed=6)
        sync_res = simulate(init, seed=6)
        assert async_res.reached_consensus and sync_res.reached_consensus
        # asynchronous sweeps are within a small factor of synchronous rounds
        assert async_res.consensus_sweep <= 3 * sync_res.consensus_round + 5

    def test_every_order_within_4x_synchronous_rounds(self):
        """Mean sweeps to consensus at n = 512 over 5 seeds, per order."""
        init = Configuration.all_distinct(512)
        sync = np.mean([simulate(init, seed=s).consensus_round for s in range(5)])
        for order in ACTIVATION_ORDERS:
            sweeps = []
            for s in range(5):
                res = simulate_asynchronous(init, order=order, seed=100 + s,
                                            max_sweeps=2000)
                assert res.reached_consensus, order
                sweeps.append(res.consensus_sweep)
            assert np.mean(sweeps) < 4 * sync + 10, order

    def test_deterministic_given_seed(self):
        init = Configuration.all_distinct(64)
        a = simulate_asynchronous(init, seed=7)
        b = simulate_asynchronous(init, seed=7)
        assert a.consensus_sweep == b.consensus_sweep
        assert a.final == b.final


# --------------------------------------------------------------------------- #
# ASCII plots
# --------------------------------------------------------------------------- #
class TestPlots:
    def test_sparkline_monotone_series(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_sparkline_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty_and_nan(self):
        assert sparkline([]) == ""
        assert sparkline([float("nan")]) == ""

    def test_sparkline_downsampling(self):
        out = sparkline(list(range(100)), width=10)
        assert len(out) == 10

    def test_ascii_plot_contains_points(self):
        out = ascii_plot([1, 2, 3], [10, 20, 15], width=20, height=5, label="demo")
        assert "demo" in out
        assert out.count("*") == 3

    def test_ascii_plot_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([1, 2], [1], width=10, height=5)
        with pytest.raises(ValueError):
            ascii_plot([1, 2], [1, 2], width=1, height=5)
        assert ascii_plot([], []) == "(no data)"

    def test_histogram_counts(self):
        out = histogram([1, 1, 1, 5, 9], bins=2, title="h")
        assert "h" in out
        assert out.count("\n") == 2
        assert "3" in out and "2" in out

    def test_histogram_validation(self):
        assert histogram([]) == "(no data)"
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)
