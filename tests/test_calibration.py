import warnings

import numpy as np
import pytest

from trendkit import calibration
from trendkit.calibration import (
    CVConfig,
    cv_filter,
    forecast_trend,
    hp_lambda_for_window,
    lambda_max,
)
from trendkit.errors import InsufficientHistoryError, NumericalError
from trendkit.filters import l1_filter
from trendkit.strategy import StrategyConfig, predict_two_trend
from trendkit.synth import default_params, simulate_model1

from oracles import dense_lambda_max
from scaling_law import fit_scaling_exponent
from spectral_match import calibrate_l2_spectral, spectral_density


class TestLambdaMax:
    def test_affine_signal_order2_is_zero(self):
        y = 3.0 * np.arange(20) - 7.0
        assert lambda_max(y, 2) == 0.0

    def test_constant_signal_order1_is_zero(self):
        assert lambda_max(np.full(10, 4.2), 1) == 0.0

    def test_spike_order1_frozen_value(self):
        y = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert lambda_max(y, 1) == pytest.approx(0.4, abs=1e-14)
        assert lambda_max(y, 1) == pytest.approx(dense_lambda_max(y, 1), abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for order in (1, 2):
            for n in (6, 17, 40):
                y = rng.normal(size=n).cumsum()
                assert lambda_max(y, order) == pytest.approx(
                    dense_lambda_max(y, order), rel=1e-10
                )

    def test_ceiling_too_large_for_a_float_is_numerical_error(self):
        # order 1's ceiling is finite; order 2's solve overflows to nan
        y = 1e306 * np.cumsum(np.random.default_rng(0).standard_normal(400)) / 400
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda_max(y, 1) == pytest.approx(3.397e306, rel=1e-3)
            with pytest.raises(NumericalError,
                               match="^the order-2 weight ceiling lambda_max overflows$"):
                lambda_max(y, 2)

    def test_filter_degenerates_at_ceiling(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=40).cumsum()
        trend = l1_filter(y, 1.001 * lambda_max(y, 2), order=2).trend
        curven = np.abs(np.diff(trend, 2))
        assert np.max(curven) < 1e-6 * np.max(np.abs(y))


class TestForecastTrend:
    def test_affine_trend_continues_its_slope(self):
        y = 1.5 * np.arange(20) + 3.0
        result = l1_filter(y, 0.0, order=2)
        np.testing.assert_allclose(
            forecast_trend(result, 2, 4), y[-1] + 1.5 * np.arange(1, 5), atol=1e-12
        )

    def test_order1_carries_last_level(self):
        y = np.concatenate([np.zeros(5), np.full(5, 5.0)])
        result = l1_filter(y, 0.0, order=1)
        np.testing.assert_array_equal(forecast_trend(result, 1, 3), np.full(3, 5.0))

    def test_two_segment_trend_uses_final_slope(self):
        t = np.arange(20, dtype=float)
        x = np.where(t < 10, t, 10 + 0.5 * (t - 10))
        result = l1_filter(x, 0.0, order=2)
        np.testing.assert_allclose(
            forecast_trend(result, 2, 3), x[-1] + np.array([0.5, 1.0, 1.5]), atol=1e-12
        )

    def test_nonpositive_horizon_rejected(self):
        result = l1_filter(np.arange(10.0), 0.0, order=2)
        with pytest.raises(ValueError):
            forecast_trend(result, 2, 0)


class TestCvFilter:
    def test_noiseless_line_has_zero_error_everywhere(self):
        y = 0.7 * np.arange(400) - 5.0
        report = cv_filter(y, CVConfig(T1=100, T2=25, m=4, p=4, n_grid=6))
        assert np.all(report.errors < 1e-12)
        assert report.lambda_star in report.grid

    def test_grid_is_geometric(self):
        y = np.random.default_rng(8).normal(size=900).cumsum()
        report = cv_filter(y, CVConfig(T1=200, T2=50, m=6, p=6, n_grid=10))
        ratios = report.grid[1:] / report.grid[:-1]
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-12 * ratios[0]

    def test_total_error_is_sum_of_fold_errors(self):
        y = np.random.default_rng(9).normal(size=700).cumsum()
        report = cv_filter(y, CVConfig(T1=150, T2=40, m=5, p=5, n_grid=8))
        np.testing.assert_allclose(report.errors, report.fold_errors.sum(axis=1),
                                   rtol=1e-14)

    def test_lambda_star_is_argmin(self):
        y = np.random.default_rng(10).normal(size=700).cumsum()
        report = cv_filter(y, CVConfig(T1=150, T2=40, m=5, p=5, n_grid=8))
        assert report.lambda_star == report.grid[np.argmin(report.errors)]

    def test_selected_weight_beats_grid_extremes(self):
        from trendkit.synth import simulate_model1

        _, y = simulate_model1(default_params(1, n=1200, seed=6))
        report = cv_filter(y, CVConfig(T1=300, T2=75, m=6, p=6, n_grid=10))
        best = np.min(report.errors)
        assert best <= report.errors[0]
        assert best <= report.errors[-1]

    def test_insufficient_history_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            cv_filter(np.zeros(100), CVConfig(T1=100, T2=25, m=4, p=4))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_overflowing_grid_is_numerical_error(self, seed, monkeypatch):
        def no_solve(*args, **kw):
            raise AssertionError("solved on an overflowing grid")

        monkeypatch.setattr(calibration, "_forecast_errors", no_solve)
        _, observed = simulate_model1(default_params(1, n=1008, seed=seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^weight grid overflows at ceilings "):
                cv_filter(1e152 * observed, CVConfig())

    @pytest.mark.parametrize("T2, order", [(1, 1), (1, 2), (2, 2)])
    def test_test_window_no_longer_than_order_rejected(self, T2, order):
        # the geometry itself is refused, before any input is seen
        with pytest.raises(ValueError, match=f"^test window T2={T2} must be longer "
                                             f"than the filter order {order}$"):
            CVConfig(T1=10, T2=T2, order=order)
        y = np.cumsum(np.random.default_rng(0).standard_normal(300))
        # two test samples have one first difference
        assert len(cv_filter(y, CVConfig(T1=10, T2=2, order=1)).grid) == 15

    def test_min_history_is_the_larger_window_span(self):
        # training window plus p test windows, or m test windows
        assert CVConfig(T1=400, T2=50, m=12, p=12).min_history == 1000
        assert CVConfig(T1=20, T2=10, m=5, p=1).min_history == 50


class TestPredictTwoTrend:
    CFG = StrategyConfig(trend_model="l1-two-trend", T2=20, T3=40, cv_m=3, cv_p=3, n_grid=5)
    GEOMETRIES = CFG.cv_configs()

    def test_affine_input_both_branches_agree(self):
        y = 0.3 * np.arange(500) + 2.0
        prediction = predict_two_trend(y, *self.GEOMETRIES)
        k = min(len(prediction.local_trend), len(prediction.global_trend))
        np.testing.assert_allclose(
            prediction.local_trend[-k:], prediction.global_trend[-k:], atol=1e-5
        )
        np.testing.assert_allclose(prediction.local_trend[-k:], y[-k:], atol=1e-5)

    def test_branch_rule_is_the_sigma_comparison(self):
        rng = np.random.default_rng(14)
        for seed in range(4):
            y = rng.normal(size=500).cumsum() + 0.1 * np.arange(500)
            prediction = predict_two_trend(y, *self.GEOMETRIES)
            expected = "local" if prediction.deviation < prediction.sigma else "global"
            assert prediction.branch == expected
            chosen = (prediction.local_trend if prediction.branch == "local"
                      else prediction.global_trend)
            np.testing.assert_array_equal(prediction.prediction, chosen)

    def test_terminal_excursion_selects_global_branch(self):
        # mean-reverting path whose endpoint sits far outside the spread
        # of the residuals around the smooth global fit
        from trendkit.synth import simulate_model4

        _, y = simulate_model4(
            default_params(4, n=500, p=1.0, sigma=2.0, theta=0.1, seed=14)
        )
        prediction = predict_two_trend(y, *self.GEOMETRIES)
        assert prediction.deviation >= prediction.sigma
        assert prediction.branch == "global"

    def test_global_config_scales_training_window(self):
        local, g = self.GEOMETRIES
        assert (local.T1, local.T2) == (4 * self.CFG.T2, self.CFG.T2)
        assert g.T2 == self.CFG.T3
        assert g.T1 == 4 * self.CFG.T3
        for cv in (local, g):
            assert (cv.m, cv.p, cv.n_grid, cv.order) == (3, 3, 5, 2)


class TestScalingExponent:
    def test_pure_brownian_slopes(self):
        e1 = fit_scaling_exponent(1, n_sims=100, seed=42, b=0.0, sigma=1.0)
        e2 = fit_scaling_exponent(2, n_sims=100, seed=42, b=0.0, sigma=1.0)
        assert 1.35 <= e1 <= 1.65
        assert 2.35 <= e2 <= 2.65

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent(2, n_sims=10)
        with pytest.raises(ValueError):
            fit_scaling_exponent(2, lengths=(100, 200))


class TestSpectral:
    def test_window_weight_formula(self):
        assert hp_lambda_for_window(2 * np.pi) == pytest.approx(10.27 * 0.5)
        assert hp_lambda_for_window(130) == pytest.approx(
            10.27 * 0.5 * (130 / (2 * np.pi)) ** 4
        )

    def test_quartic_doubling(self):
        assert hp_lambda_for_window(80) / hp_lambda_for_window(40) == pytest.approx(16.0)

    def test_density_values(self):
        assert spectral_density("ma", 0.0, T=7) == pytest.approx(1.0)
        assert spectral_density("hp", 0.0, lam=123.0) == pytest.approx(1.0)
        assert spectral_density("ma", np.pi, T=2) == pytest.approx(0.0, abs=1e-28)

    def test_density_vector_input(self):
        omega = np.linspace(0, np.pi, 5)
        out = spectral_density("hp", omega, lam=10.0)
        assert out.shape == omega.shape
        assert np.all(out <= 1.0) and np.all(out > 0.0)

    def test_least_squares_ratio_tracks_constant(self):
        for T in (20, 65, 130, 260):
            lam = calibrate_l2_spectral(T)
            ratio = lam / (0.5 * (T / (2 * np.pi)) ** 4)
            assert 10.27 * 0.8 <= ratio <= 10.27 * 1.2

    def test_doubling_the_window_scales_sixteenfold(self):
        lam1 = calibrate_l2_spectral(60)
        lam2 = calibrate_l2_spectral(120)
        assert 16.0 * 0.75 <= lam2 / lam1 <= 16.0 * 1.25

    def test_fit_is_a_local_minimum(self):
        T = 65
        lam = calibrate_l2_spectral(T)
        omega = np.pi * np.arange(1025) / 1024
        target = spectral_density("ma", omega, T=T)

        def objective(l):
            return np.sum((spectral_density("hp", omega, lam=l) - target) ** 2)

        assert objective(lam) < objective(0.1 * lam)
        assert objective(lam) < objective(10.0 * lam)


def test_config_validation():
    with pytest.raises(ValueError):
        CVConfig(T1=50, T2=50)
    with pytest.raises(ValueError):
        CVConfig(n_grid=1)
    with pytest.raises(ValueError):
        CVConfig(order=3)
