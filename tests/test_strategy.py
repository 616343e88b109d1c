import re
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trendkit import strategy
from trendkit.calibration import CVConfig, cv_filter, hp_lambda_for_window
from trendkit.errors import DataError, InsufficientHistoryError, NumericalError
from trendkit.filters import hp_filter
from trendkit.series import Series
from trendkit.strategy import (
    TREND_WINDOWS,
    StrategyConfig,
    _first_day,
    _make_mu_estimator,
    moving_average_trend,
    optimal_allocation,
    performance_stats,
    realized_vol,
    run_backtest,
    step_wealth,
)


def small_cfg(model, **kw):
    """Window geometry small enough for a few hundred samples."""
    defaults = dict(
        trend_model=model, vol_window=20,
        T2=15, T3=30, cv_m=2, cv_p=2, n_grid=4,
    )
    defaults.update(kw)
    return StrategyConfig(**defaults)


class TestMovingAverageTrend:
    def test_constant_prices_give_zero(self):
        mu = moving_average_trend(np.full(50, 42.0), 10)
        assert np.all(mu[10:] == 0.0)

    def test_exponential_growth_recovers_rate(self):
        g = 0.002
        prices = 100.0 * np.exp(g * np.arange(200))
        mu = moving_average_trend(prices, 30)
        np.testing.assert_allclose(mu[30:], g, rtol=1e-9)

    def test_window_one_is_last_log_return(self):
        prices = np.array([100.0, 110.0, 99.0, 120.5])
        mu = moving_average_trend(prices, 1)
        np.testing.assert_allclose(mu[1:], np.diff(np.log(prices)), atol=1e-15)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            moving_average_trend(np.full(10, 1.0), 10)

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(DataError):
            moving_average_trend(np.array([1.0, -2.0, 3.0]), 1)


class TestRealizedVol:
    def test_constant_prices_give_zero(self):
        v = realized_vol(np.full(30, 7.0), 5)
        assert np.all(v[5:] == 0.0)

    def test_alternating_returns(self):
        u = 1.05
        prices = 100.0 * np.cumprod([u, 1 / u] * 20)
        v = realized_vol(prices, 8)
        np.testing.assert_allclose(v[8:], np.log(u) ** 2, rtol=1e-12)

    def test_converges_to_noise_variance(self):
        rng = np.random.default_rng(44)
        s = 0.01
        prices = 100.0 * np.exp(np.cumsum(s * rng.standard_normal(5001)))
        v = realized_vol(prices, 5000)
        assert abs(v[-1] - s ** 2) / s ** 2 < 0.1


class TestOptimalAllocation:
    CFG = StrategyConfig()

    def test_zero_drift_zero_allocation(self):
        assert optimal_allocation(0.0, 0.04, self.CFG) == 0.0

    def test_clips_at_upper_bound(self):
        assert optimal_allocation(0.05, 0.04, self.CFG) == 1.0  # raw 1.25

    def test_clips_at_lower_bound(self):
        assert optimal_allocation(-0.08, 0.04, self.CFG) == -1.0  # raw -2

    def test_interior_value(self):
        assert optimal_allocation(0.02, 0.04, self.CFG) == pytest.approx(0.5)

    def test_zero_variance_signaled(self):
        with pytest.raises(ValueError):
            optimal_allocation(0.01, 0.0, self.CFG)

    @settings(deadline=None)
    @given(
        mu=st.floats(-1e6, 1e6),
        sigma2=st.floats(1e-12, 1e6),
        lo=st.floats(-5, 0),
        hi=st.floats(0, 5),
    )
    def test_allocation_always_within_bounds(self, mu, sigma2, lo, hi):
        cfg = StrategyConfig(alpha_min=lo, alpha_max=hi)
        alpha = optimal_allocation(mu, sigma2, cfg)
        assert lo <= alpha <= hi


class TestStepWealth:
    def test_fully_invested(self):
        assert step_wealth(100.0, 1.0, 1.02, 0.0) == pytest.approx(102.0)

    def test_fully_in_cash(self):
        assert step_wealth(100.0, 0.0, 1.02, 0.01) == pytest.approx(101.0)

    def test_short_position(self):
        assert step_wealth(100.0, -1.0, 1.02, 0.0) == pytest.approx(98.0)

    def test_rejects_nonpositive_wealth(self):
        with pytest.raises(ValueError):
            step_wealth(0.0, 1.0, 1.0, 0.0)

    @settings(deadline=None)
    @given(
        W=st.floats(1e-3, 1e9),
        alpha=st.floats(-1, 1),
        ratio=st.floats(0.5, 2.0),
        r=st.floats(-0.01, 0.01),
    )
    def test_update_matches_return_decomposition(self, W, alpha, ratio, r):
        result = step_wealth(W, alpha, ratio, r)
        assert result == W + W * (alpha * (ratio - 1.0) + (1.0 - alpha) * r)


class TestPerformanceStats:
    def test_monotone_wealth_has_zero_drawdown(self):
        stats = performance_stats(np.linspace(1.0, 2.0, 300))
        assert stats.max_drawdown_pct == 0.0
        assert stats.performance_pct > 0.0

    def test_drawdown_peak_to_trough(self):
        stats = performance_stats(np.array([100.0, 110.0, 99.0]))
        assert stats.max_drawdown_pct == pytest.approx(10.0)

    def test_identical_benchmark_gives_zero_information_ratio(self):
        w = np.linspace(1.0, 1.5, 100)
        stats = performance_stats(w, benchmark=w.copy())
        assert stats.information_ratio == 0.0

    def test_annualization_convention(self):
        w = np.ones(261)
        w[-1] = 1.10  # one year of 260 periods
        stats = performance_stats(w)
        assert stats.performance_pct == pytest.approx(10.0)

    def test_single_return_has_no_spread(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = performance_stats(np.array([100.0, 101.0]),
                                      benchmark=np.array([50.0, 49.0]))
        assert stats.volatility_pct is None
        assert stats.information_ratio is None
        assert stats.sharpe == 0.0
        assert stats.max_drawdown_pct == 0.0

    def test_wealth_must_be_positive(self):
        with pytest.raises(ValueError):
            performance_stats(np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("wealth, rate, figure", [
        ([1.0, 20.0], 0.0, "return"),
        ([1.0, 1.01, 1.02], 20.0, "risk-free rate"),
        ([1.0, 1.01, 1.02], np.nan, "risk-free rate"),
    ])
    def test_overflowing_annualization_is_numerical_error(self, wealth, rate, figure):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^annualized {figure} is not finite$"):
                performance_stats(np.array(wealth), rate=rate)


def exponential_prices(n, g=0.001, start=100.0):
    return Series.from_values(start * np.exp(g * np.arange(n)))


# A steady 400-day trend with one jump at ``day`` that ruins the ma rule:
# short a falling market through a tripling (five days from the end, or on
# the last day), or four times long a rising one through a 70% crash.
RUINS = [
    (-0.002, 395, 3.0, {}, -1.0),
    (-0.002, 399, 3.0, {}, -1.0),
    (0.002, 395, 0.3, {"alpha_max": 4.0}, 4.0),
]
RUIN_IDS = ["short-tripling", "short-tripling-last-day", "levered-crash"]


class TestRunBacktest:
    def test_uptrend_is_profitable_and_hits_upper_bound(self):
        prices = exponential_prices(400)
        for model in ("ma", "hp", "l1-local", "l1-global", "l1-two-trend"):
            report = run_backtest(prices, 0.0, small_cfg(model))
            assert report.wealth.values[-1] > report.wealth.values[0]
            assert report.allocations.values[-1] == small_cfg(model).alpha_max

    def test_constant_prices_compound_at_riskfree(self):
        prices = Series.from_values(np.full(300, 50.0))
        r = 0.0003
        report = run_backtest(prices, r, small_cfg("ma"))
        n_steps = len(report.wealth) - 1
        assert report.wealth.values[-1] == pytest.approx((1 + r) ** n_steps)
        assert len(report.floored_variance_dates) > 0
        assert np.all(report.allocations.values == 0.0)

    def test_wealth_recursion_identity(self):
        rng = np.random.default_rng(3)
        values = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(350)))
        prices = Series.from_values(values)
        r = 0.0001
        report = run_backtest(prices, r, small_cfg("ma"))
        w = report.wealth.values
        a = report.allocations.values
        p = values[report.start_index:]
        for t in range(len(w) - 1):
            expected = step_wealth(w[t], a[t], p[t + 1] / p[t], r)
            assert w[t + 1] == expected

    def test_allocations_respect_bounds(self):
        rng = np.random.default_rng(9)
        values = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(400)))
        cfg = small_cfg("l1-local", alpha_min=-0.5, alpha_max=0.7)
        report = run_backtest(Series.from_values(values), 0.0, cfg)
        assert np.all(report.allocations.values >= -0.5)
        assert np.all(report.allocations.values <= 0.7)

    def test_no_look_ahead(self):
        rng = np.random.default_rng(5)
        values = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(320)))
        cfg = small_cfg("l1-local")
        full = run_backtest(Series.from_values(values), 0.0, cfg)
        cut = 280
        truncated = run_backtest(
            Series.from_values(values[:cut]), 0.0, cfg
        )
        k = len(truncated.allocations)
        np.testing.assert_array_equal(
            truncated.allocations.values, full.allocations.values[:k]
        )

    def test_two_trend_model_runs(self):
        rng = np.random.default_rng(13)
        values = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(400)))
        report = run_backtest(Series.from_values(values), 0.0,
                              small_cfg("l1-two-trend"))
        assert np.all(np.isfinite(report.wealth.values))

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            run_backtest(exponential_prices(50), 0.0, small_cfg("l1-global"))

    def test_report_does_not_echo_the_config(self):
        report = run_backtest(exponential_prices(100), 0.0, small_cfg("ma"))
        assert "config" not in {f.name for f in fields(report)}

    def test_wealth_overflow_is_numerical_error(self):
        # flat prices hold no stock, so wealth grows 21-fold a day at rate 20
        # and overflows on day 254, 234 steps after the first decision day
        cfg = StrategyConfig(trend_model="ma", T3=20, vol_window=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^wealth is not finite at 254$"):
                run_backtest(np.full(400, 75.0), 20.0, cfg)
            times = np.arange(1000, 1400)  # the error names the date, per-period rates too
            with pytest.raises(NumericalError, match="^wealth is not finite at 1254$"):
                run_backtest(Series(times, np.full(400, 75.0)),
                             Series(times, np.full(400, 20.0)), cfg)

    @pytest.mark.parametrize("model", ["l1-local", "l1-global", "l1-two-trend"])
    def test_history_boundary(self, model):
        cfg = small_cfg(model)
        # the local horizon (test T2 = 15) needs 90 samples, the global (T3 = 30) 180
        histories = [cv.min_history for cv in cfg.cv_configs()]
        assert histories == {"l1-local": [90], "l1-global": [180],
                             "l1-two-trend": [90, 180]}[model]
        need = max(histories)
        start = max(need - 1, cfg.vol_window)
        log_p = np.cumsum(0.01 * np.random.default_rng(21).standard_normal(200))
        values = 100.0 * np.exp(log_p[:start + 2])
        report = run_backtest(values, 0.0, cfg)
        assert report.start_index == start
        assert report.failures == []
        with pytest.raises(InsufficientHistoryError):
            run_backtest(values[:-1], 0.0, cfg)

    def test_cv_history_boundary(self):
        log_p = np.cumsum(0.01 * np.random.default_rng(21).standard_normal(200))
        for cv in small_cfg("l1-local").cv_configs():
            cv_filter(log_p[:cv.min_history], cv)
            with pytest.raises(InsufficientHistoryError):
                cv_filter(log_p[:cv.min_history - 1], cv)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rate_rejected_before_the_model(self, rate, monkeypatch):
        def no_model(*args, **kw):
            raise AssertionError("trend model built")

        monkeypatch.setattr(strategy, "_make_mu_estimator", no_model)
        with pytest.raises(ValueError, match="^rate must be finite and above -1, got "):
            run_backtest(exponential_prices(300), rate, small_cfg("l1-global"))

    @pytest.mark.parametrize("rate", [-1.0, -2.0, -1e300])
    def test_rate_of_minus_one_or_less_rejected_before_the_model(self, rate, monkeypatch):
        def no_model(*args, **kw):
            raise AssertionError("trend model built")

        monkeypatch.setattr(strategy, "_make_mu_estimator", no_model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^rate must be finite and above -1, "
                                                 f"got {re.escape(str(rate))}$"):
                run_backtest(np.full(400, 75.0), rate, small_cfg("ma", T3=20))
        monkeypatch.undo()  # just above -1 the flat market's cash keeps a sliver
        report = run_backtest(np.full(400, 75.0), -0.5, small_cfg("ma", T3=20))
        assert 0.0 < report.wealth.values[-1] < 1e-100

    @pytest.mark.parametrize("value", [-1.0, -2.0])
    def test_rates_value_of_minus_one_or_less_is_data_error(self, value, monkeypatch):
        def no_model(*args, **kw):
            raise AssertionError("trend model built")

        monkeypatch.setattr(strategy, "_make_mu_estimator", no_model)
        times = np.arange(1000, 1400)
        rates = np.full(400, 1e-4)
        rates[[51, 300]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^rate {value:g} at 1051 is not above -1$"):
                run_backtest(Series(times, np.full(400, 75.0)), Series(times, rates),
                             small_cfg("ma", T3=20))

    def test_rates_series_must_align(self):
        prices = exponential_prices(300)
        with pytest.raises(DataError):
            run_backtest(prices, Series.from_values(np.zeros(10)), small_cfg("ma"))

    def test_rates_series_must_share_the_price_dates(self):
        prices = exponential_prices(200)
        rates = Series(np.arange(1000, 1200), np.full(200, 1e-4))
        with pytest.raises(DataError, match="^rates date 1000 at position 0 does not "
                                            "match the price date 0$"):
            run_backtest(prices, rates, small_cfg("ma"))
        shifted = Series(np.r_[np.arange(150), np.arange(151, 201)], np.full(200, 1e-4))
        with pytest.raises(DataError, match="at position 150 "):
            run_backtest(prices, shifted, small_cfg("ma"))
        rates = Series.from_values(np.full(200, 1e-4))  # the times of a plain price array
        aligned = run_backtest(exponential_prices(200).values, rates, small_cfg("ma"))
        assert aligned.start_index == 30

    @pytest.mark.parametrize("model", ["ma", "hp"])
    def test_linear_models_read_no_cv_windows(self, model, monkeypatch):
        def no_cv_config(**kw):
            raise AssertionError(f"CVConfig built for {model!r}")

        monkeypatch.setattr(strategy, "CVConfig", no_cv_config)
        cfg = small_cfg(model, T2=0)  # a window only the L1 models read
        report = run_backtest(exponential_prices(100), 0.0, cfg)
        assert report.start_index == 30 - (model == "hp")
        assert report.failures == []

    @pytest.mark.parametrize("model", ["l1-local", "l1-global", "l1-two-trend"])
    @pytest.mark.parametrize("T2", [0, -1])
    def test_l1_models_reject_bad_local_windows(self, model, T2):
        # each window the model reads is checked when its config is built;
        # one it does not read is neither checked nor cross-validated
        for name in ("T2", "T3"):
            if name in TREND_WINDOWS[model]:
                with pytest.raises(ValueError, match=f"^the {model} window {name} must be "
                                                     f"at least 3, got {T2}$"):
                    small_cfg(model, **{name: T2})
            else:
                cfg = small_cfg(model, **{name: T2})
                assert [cv.T2 for cv in cfg.cv_configs()] == [15 if name == "T3" else 30]

    @pytest.mark.parametrize("model, need", [("ma", 22), ("hp", 21)])
    def test_short_linear_model_history_names_the_model(self, model, need):
        cfg = small_cfg(model, T3=20, vol_window=5)
        message = f"^model {model!r} needs at least {need} samples, got 15$"
        with pytest.raises(InsufficientHistoryError, match=message):
            run_backtest(exponential_prices(15), 0.0, cfg)

    def test_history_is_checked_before_the_model_is_built(self, monkeypatch):
        def no_fit(*args, **kw):
            raise AssertionError("model built before the history check")

        for name in ("hp_filter", "moving_average_trend", "cv_filter"):
            monkeypatch.setattr(strategy, name, no_fit)
        for model in ("ma", "hp", "l1-local", "l1-global", "l1-two-trend"):
            with pytest.raises(InsufficientHistoryError):
                run_backtest(exponential_prices(30), 0.0, small_cfg(model))

    @pytest.mark.parametrize("model", ["ma", "l1-local"])
    def test_models_without_an_hp_weight_accept_t3_of_1(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_backtest(exponential_prices(120), 0.0, small_cfg(model, T3=1))
        assert report.start_index == (20 if model == "ma" else 89)
        assert report.failures == []

    @pytest.mark.parametrize("g, day, jump, extra, alpha", RUINS, ids=RUIN_IDS)
    def test_ruin_is_data_error(self, g, day, jump, extra, alpha):
        values = 100.0 * np.exp(g * np.arange(400))
        values[day:] *= jump
        cfg = StrategyConfig(trend_model="ma", T3=20, vol_window=20, **extra)
        message = (f"wealth ruined at {day}: allocation {alpha:g} "
                   f"through price ratio {values[day] / values[day - 1]:.6g}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                run_backtest(values, 0.0, cfg)


class TestHpDrift:
    """The hp model's drift path against one hp_filter fit per day."""

    @pytest.mark.parametrize("window", [30, 520])
    @pytest.mark.parametrize("lam", [0.0, 1.0, "matched", 1e12])
    def test_matches_last_slope_of_each_days_fit(self, window, lam, monkeypatch):
        if lam == "matched":
            lam = hp_lambda_for_window(window)
        else:
            monkeypatch.setattr(strategy, "hp_lambda_for_window", lambda T: lam)
        rng = np.random.default_rng(window)
        log_p = np.log(100.0) + np.cumsum(0.01 * rng.standard_normal(window + 150))
        cfg = StrategyConfig(trend_model="hp", T3=window)
        estimate, first = _make_mu_estimator(cfg, log_p), _first_day(cfg)
        assert first == window - 1
        for t in range(first, len(log_p)):
            trend = hp_filter(log_p[t - window + 1:t + 1], lam, order=2).trend
            slope = trend[-1] - trend[-2]
            if lam == 0.0:
                assert estimate(t) == slope
            else:
                assert abs(estimate(t) - slope) <= 1e-12

    @pytest.mark.parametrize("T3", [0, 1, 2])
    def test_window_under_three_is_rejected_before_any_fit(self, T3, monkeypatch):
        def no_fit(*args, **kw):
            raise AssertionError("hp_filter called")

        monkeypatch.setattr(strategy, "hp_filter", no_fit)
        with pytest.raises(ValueError, match=f"^the hp window T3 must be at least 3, got {T3}$"):
            run_backtest(exponential_prices(300), 0.0, small_cfg("hp", T3=T3))

    def test_failed_weight_solve_fails_every_day(self, monkeypatch):
        monkeypatch.setattr(strategy, "hp_lambda_for_window", lambda T: 1e20)
        rng = np.random.default_rng(2)
        values = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(900)))
        report = run_backtest(values, 0.0, StrategyConfig(trend_model="hp"))
        assert report.start_index == 519
        assert report.failures == list(range(519, 900))
        assert np.all(report.allocations.values == 0.0)

    def test_overflowing_weight_fails_every_day(self, monkeypatch):
        monkeypatch.setattr(strategy, "hp_lambda_for_window", lambda T: 1e308)
        rng = np.random.default_rng(2)
        values = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(600)))
        cfg = StrategyConfig(trend_model="hp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_backtest(values, 0.0, cfg)
        assert report.failures == list(range(519, 600))
        assert np.all(report.allocations.values == 0.0)

    def test_short_history_is_insufficient(self):
        for n in (10, 30):  # shorter than the window, then one day short
            with pytest.raises(InsufficientHistoryError,
                               match=f"^model 'hp' needs at least 31 samples, got {n}$"):
                run_backtest(exponential_prices(n), 0.0, small_cfg("hp"))


def test_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(trend_model="nope")
    with pytest.raises(ValueError):
        StrategyConfig(alpha_min=1.0, alpha_max=-1.0)
    with pytest.raises(ValueError):
        StrategyConfig(vol_window=1)
    cfg = StrategyConfig()
    assert cfg.hp_window == cfg.T3


def test_config_keeps_what_it_is_given():
    assert [f.name for f in fields(StrategyConfig)] == [
        "trend_model", "risk_aversion", "alpha_min", "alpha_max", "vol_window",
        "T2", "T3", "cv_m", "cv_p", "n_grid"]
    given = dict(trend_model="hp", T3=40, vol_window=20)
    cfg = StrategyConfig(**given)
    assert asdict(cfg) == {f.name: given.get(f.name, f.default) for f in fields(cfg)}
    assert cfg.hp_window == 40
    for name in ("ma_window", "hp_window", "hp_lambda", "T1"):
        with pytest.raises(TypeError, match=name):
            StrategyConfig(**{name: 20})


@pytest.mark.parametrize("T2, T3, local, long", [
    (130, 520, (520, 130), (2080, 520)),
    (15, 30, (60, 15), (120, 30)),
    (15, 15, (60, 15), (60, 15)),
    (40, 10, (160, 40), (40, 10)),
    (3, 3, (12, 3), (12, 3)),
])
def test_cv_configs_train_on_four_test_widths(T2, T3, local, long):
    shared = dict(m=4, p=5, n_grid=6, order=2)
    local, long = CVConfig(*local, **shared), CVConfig(*long, **shared)
    expected = {"ma": (), "hp": (), "l1-local": (local,), "l1-global": (long,),
                "l1-two-trend": (local, long)}  # only the windows each model reads
    for model, geometries in expected.items():
        cfg = StrategyConfig(trend_model=model, T2=T2, T3=T3, cv_m=4, cv_p=5, n_grid=6)
        assert cfg.cv_configs() == geometries


@pytest.mark.parametrize("risk_aversion", [0.0, -1.0, np.inf, np.nan])
def test_risk_aversion_must_be_positive_and_finite(risk_aversion):
    with pytest.raises(ValueError, match=f"^risk_aversion must be positive and finite, "
                                         f"got {re.escape(str(risk_aversion))}$"):
        StrategyConfig(risk_aversion=risk_aversion)


@pytest.mark.parametrize("bounds", [
    dict(alpha_min=np.nan), dict(alpha_max=np.nan), dict(alpha_min=np.nan, alpha_max=np.nan),
], ids=["min", "max", "both"])
def test_nan_allocation_bound_is_rejected(bounds):
    with pytest.raises(ValueError, match="^alpha_min must not exceed alpha_max$"):
        StrategyConfig(**bounds)
    # an infinite bound leaves its side open
    cfg = StrategyConfig(alpha_min=-np.inf, alpha_max=np.inf)
    assert optimal_allocation(-3.0, 1.0, cfg) == -3.0
