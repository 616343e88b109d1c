"""Walk-forward momentum strategy driven by a trend estimator.

Each day the engine estimates the drift of log prices with the chosen
trend model (moving average, quadratic filter, or one of the L1-filter
variants with daily cross-validated penalty weights), estimates the
variance as the trailing mean of squared log returns, allocates the
mean-variance fraction clipped to the configured bounds, and compounds
wealth with the realized price move. No estimate ever uses data past
the decision date, so truncating the inputs reproduces the allocation
path exactly. The history each model needs follows from its config and is
checked before the model is built. The moving average and the quadratic
filter, at the weight spectrally matched to T3, are linear in the last T3 log
prices; each drift path is computed once.

The L1 models fit daily: ``l1-local`` a local horizon (test T2), ``l1-global``
a global one (test T3), each trained on four times its test width, and
``l1-two-trend`` both, switching between them (``TREND_WINDOWS`` names each
model's windows). Each day a horizon's weight is cross-validated on the history
to date and its trailing training window is filtered at that weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .calibration import CVConfig, cv_filter, hp_lambda_for_window
from .errors import DataError, InsufficientHistoryError, NumericalError
from .filters import FilterResult, hp_filter, l1_filter
from .series import Series, as_values

__all__ = [
    "StrategyConfig",
    "TwoTrendPrediction",
    "PerformanceStats",
    "BacktestReport",
    "TREND_WINDOWS",
    "TREND_MODELS",
    "L1_MODELS",
    "moving_average_trend",
    "realized_vol",
    "optimal_allocation",
    "step_wealth",
    "predict_two_trend",
    "check_rate",
    "run_backtest",
    "performance_stats",
]

# model -> {each StrategyConfig window it reads: its least width}. An L1 test width
# must exceed the filter order 2, and the hp slope weights need three samples.
TREND_WINDOWS = {"ma": {"T3": 1}, "hp": {"T3": 3}, "l1-local": {"T2": 3},
                 "l1-global": {"T3": 3}, "l1-two-trend": {"T2": 3, "T3": 3}}
TREND_MODELS = tuple(TREND_WINDOWS)
L1_MODELS = tuple(m for m in TREND_MODELS if m.startswith("l1-"))

TRADING_DAYS_PER_YEAR = 260
VARIANCE_FLOOR = 1e-10


@dataclass(frozen=True)
class StrategyConfig:
    """Allocation rule parameters and trend-model windows.

    ``risk_aversion`` is the product of the utility curvature and the
    initial budget; it only ever enters the allocation through that
    product. The windows follow the half-year convention: a 130-day
    test horizon (T2), a 520-day long horizon (T3 = 4 T2), and for each a
    training window four times its test width. ``ma`` and ``hp`` read the last
    T3 log prices; ``hp`` filters them at the weight spectrally matched to T3.
    """

    trend_model: str = "l1-global"
    risk_aversion: float = 1.0
    alpha_min: float = -1.0
    alpha_max: float = 1.0
    vol_window: int = 130
    T2: int = 130
    T3: int = 520
    cv_m: int = 3
    cv_p: int = 3
    n_grid: int = 15

    def __post_init__(self):
        if self.trend_model not in TREND_MODELS:
            raise ValueError(
                f"trend_model must be one of {TREND_MODELS}, got {self.trend_model!r}"
            )
        if not 0.0 < self.risk_aversion < np.inf:
            raise ValueError(
                f"risk_aversion must be positive and finite, got {self.risk_aversion}"
            )
        if not self.alpha_min <= self.alpha_max:  # NaN fails too
            raise ValueError("alpha_min must not exceed alpha_max")
        if self.vol_window < 2:
            raise ValueError(f"vol_window must be at least 2, got {self.vol_window}")
        for name, least in TREND_WINDOWS[self.trend_model].items():
            if (width := getattr(self, name)) < least:
                raise ValueError(f"the {self.trend_model} window {name} must be at least "
                                 f"{least}, got {width}")
        self.cv_configs()  # and the cross-validation geometry's own rules

    @property
    def hp_window(self) -> int:  # the quadratic filter's window
        return self.T3

    def cv_configs(self) -> tuple:
        """Cross-validation geometries of the windows an L1 model reads, the
        local horizon (test T2) first, each training on four times its test
        width; none for ``ma`` and ``hp``."""
        windows = TREND_WINDOWS[self.trend_model] if self.trend_model in L1_MODELS else {}
        return tuple(CVConfig(T1=4 * w, T2=w, m=self.cv_m, p=self.cv_p, n_grid=self.n_grid,
                              order=2) for w in (getattr(self, name) for name in windows))


@dataclass(frozen=True)
class PerformanceStats:
    performance_pct: float
    volatility_pct: Optional[float]
    sharpe: float
    information_ratio: Optional[float]
    max_drawdown_pct: float


@dataclass(frozen=True)
class BacktestReport:
    wealth: Series
    allocations: Series
    stats: PerformanceStats
    start_index: int
    failures: list = field(default_factory=list)
    floored_variance_dates: list = field(default_factory=list)


def _log_prices(prices) -> np.ndarray:
    values = as_values(prices)
    if np.any(values <= 0):
        bad = int(np.flatnonzero(values <= 0)[0])
        raise DataError(f"non-positive price at position {bad}")
    return np.log(values)


def moving_average_trend(prices, T: int) -> np.ndarray:
    """Per-date drift estimate: one-step slope of the trailing width-T
    moving average of log prices.

    Entry t is the change of the average between t-1 and t, defined for
    t >= T; earlier entries are NaN. On exact exponential growth at
    rate g every defined entry equals g; with T = 1 it is the latest
    log return.
    """
    log_p = _log_prices(prices)
    n = len(log_p)
    if T < 1:
        raise ValueError(f"window must be at least 1, got {T}")
    if n < T + 1:
        raise InsufficientHistoryError(
            f"moving-average slope needs {T + 1} samples, got {n}"
        )
    # per-window means (not a cumsum difference) so identical windows give
    # bitwise-equal averages and constant prices produce exactly zero drift
    ma = np.lib.stride_tricks.sliding_window_view(log_p, T).mean(axis=1)
    out = np.full(n, np.nan)
    out[T:] = ma[1:] - ma[:-1]
    return out


def realized_vol(prices, T: int) -> np.ndarray:
    """Trailing uncentered variance of log returns.

    Entry t averages the squared log returns over (t-T, t], defined for
    t >= T; earlier entries are NaN.
    """
    log_p = _log_prices(prices)
    n = len(log_p)
    if T < 1:
        raise ValueError(f"window must be at least 1, got {T}")
    if n < T + 1:
        raise InsufficientHistoryError(
            f"volatility over {T} returns needs {T + 1} samples, got {n}"
        )
    sq = np.diff(log_p) ** 2
    csum = np.concatenate([[0.0], np.cumsum(sq)])
    out = np.full(n, np.nan)
    out[T:] = (csum[T:] - csum[:-T]) / T
    return out


def optimal_allocation(mu: float, sigma2: float, cfg: StrategyConfig) -> float:
    """Mean-variance allocation mu / (risk_aversion * sigma2), clipped."""
    if sigma2 <= 0:
        raise ValueError(f"variance must be positive, got {sigma2}")
    raw = mu / (cfg.risk_aversion * sigma2)
    return float(np.clip(raw, cfg.alpha_min, cfg.alpha_max))


def step_wealth(W: float, alpha: float, price_ratio: float, r: float) -> float:
    """One-period wealth update W * (1 + alpha*(ratio - 1) + (1 - alpha)*r)."""
    if W <= 0:
        raise ValueError(f"wealth must be positive, got {W}")
    return W + W * (alpha * (price_ratio - 1.0) + (1.0 - alpha) * r)


def _last_slope(trend: np.ndarray) -> float:
    return float(trend[-1] - trend[-2])


@dataclass(frozen=True)
class TwoTrendPrediction:
    """Chosen trend path plus both candidates and the switch statistics."""

    prediction: np.ndarray
    branch: str  # "local" or "global"
    local_trend: np.ndarray
    global_trend: np.ndarray
    lambda_local: float
    lambda_global: float
    sigma: float
    deviation: float


def _cv_fit(values: np.ndarray, cv: CVConfig) -> FilterResult:
    """L1 fit of the trailing training window at the cross-validated weight."""
    report = cv_filter(values, cv)
    return l1_filter(values[-cv.T1:], report.lambda_star, order=cv.order)


def predict_two_trend(y, local: CVConfig, long: CVConfig) -> TwoTrendPrediction:
    """Trend prediction switching between a local and a global horizon.

    Each horizon is cross-validated on all of ``y`` with its own geometry
    and fitted over its trailing training window. If the last observation
    sits within one standard deviation of the global trend the local trend
    is used; otherwise the signal is stretched and the global trend wins."""
    values = as_values(y)
    local_fit = _cv_fit(values, local)
    global_fit = _cv_fit(values, long)
    residuals = global_fit.observed - global_fit.trend
    sigma = float(np.std(residuals, ddof=1))
    deviation = float(abs(residuals[-1]))
    branch = "local" if deviation < sigma else "global"
    return TwoTrendPrediction(
        prediction=local_fit.trend if branch == "local" else global_fit.trend,
        branch=branch,
        local_trend=local_fit.trend,
        global_trend=global_fit.trend,
        lambda_local=local_fit.lam,
        lambda_global=global_fit.lam,
        sigma=sigma,
        deviation=deviation,
    )


def _first_day(cfg: StrategyConfig) -> int:
    """First date the trend model can estimate, from the config alone."""
    if cfg.trend_model == "ma":
        return cfg.T3
    if cfg.trend_model == "hp":
        return cfg.T3 - 1
    return max(cv.min_history for cv in cfg.cv_configs()) - 1


def _make_mu_estimator(cfg: StrategyConfig, log_p: np.ndarray):
    """Returns estimate(t) -> mu for t >= ``_first_day(cfg)``; it sees only
    log prices up to and including t."""
    if cfg.trend_model == "ma":
        return moving_average_trend(np.exp(log_p), cfg.T3).__getitem__

    if cfg.trend_model == "hp":
        # The last slope of the fit A^{-1}y on a trailing window is c'A^{-1}y
        # = (A^{-1}c)'y for c = e_T - e_{T-1}, as A = I + 2 lam D'D is
        # symmetric: one filtered weight vector serves every window.
        window = cfg.T3
        slope = np.concatenate([np.zeros(window - 2), [-1.0, 1.0]])
        try:
            weights = hp_filter(slope, hp_lambda_for_window(window), order=2).trend
        except NumericalError as exc:
            error = exc  # raised on every decision day, as each day's fit would

            def estimate(t):
                raise error.with_traceback(None)

            return estimate
        windows = np.lib.stride_tricks.sliding_window_view(log_p, window)
        mu_path = np.full(len(log_p), np.nan)
        mu_path[window - 1:] = windows @ weights
        return mu_path.__getitem__

    horizons = cfg.cv_configs()
    if len(horizons) == 1:
        return lambda t: _last_slope(_cv_fit(log_p[:t + 1], *horizons).trend)
    return lambda t: _last_slope(predict_two_trend(log_p[:t + 1], *horizons).prediction)


def check_rate(rate) -> float:
    """A scalar risk-free rate per period as a float: a ValueError unless it
    is finite and above -1, as at -1 the cash position alone is ruined."""
    rate = float(rate)
    if not -1.0 < rate < math.inf:  # NaN fails too
        raise ValueError(f"rate must be finite and above -1, got {rate}")
    return rate


def run_backtest(prices, rates: Union[float, Series] = 0.0,
                 cfg: StrategyConfig = StrategyConfig()) -> BacktestReport:
    """Daily walk-forward backtest of the momentum rule.

    At each date: estimate the drift from past data only, estimate the
    variance over the trailing window, allocate, then realize the next
    price move. Dates where the trend estimation fails keep the
    previous allocation; dates with floored variance are flagged. A price
    move that takes wealth to zero or below is a :class:`DataError`, a
    wealth that overflows a :class:`NumericalError`. A scalar rate must pass
    :func:`check_rate`, and a rates value -1 or less is a :class:`DataError`
    naming its date: such a rate alone ruins cash.
    """
    if not isinstance(prices, Series):
        prices = Series.from_values(as_values(prices))
    values = prices.values
    n = len(values)
    log_p = _log_prices(values)

    if isinstance(rates, Series):
        if len(rates) != n:
            raise DataError(
                f"rates series length {len(rates)} does not match prices {n}"
            )
        differs = np.flatnonzero(rates.times != prices.times)
        if len(differs):
            bad = int(differs[0])
            raise DataError(f"rates date {rates.times[bad]} at position {bad} does not "
                            f"match the price date {prices.times[bad]}")
        ruinous = np.flatnonzero(rates.values <= -1.0)
        if len(ruinous):
            bad = int(ruinous[0])
            raise DataError(f"rate {rates.values[bad]:.6g} at {rates.times[bad]} "
                            f"is not above -1")
        rate_at = rates.values.tolist()
        mean_rate = float(np.mean(rates.values))
    else:
        mean_rate = check_rate(rates)
        rate_at = [mean_rate] * n

    t0 = max(_first_day(cfg), cfg.vol_window)
    if t0 >= n - 1:
        raise InsufficientHistoryError(
            f"model {cfg.trend_model!r} needs at least {t0 + 2} samples, got {n}"
        )
    estimate_mu = _make_mu_estimator(cfg, log_p)

    variance = realized_vol(values, cfg.vol_window)
    # wealth compounds in Python floats, which overflow to inf without a warning
    ratios = (values[1:] / values[:-1]).tolist()
    wealth = np.empty(n)
    W = wealth[t0] = 1.0
    alphas = np.empty(n)
    prev_alpha = 0.0
    failures = []
    floored = []

    for t in range(t0, n):
        try:
            mu = estimate_mu(t)
            sigma2 = variance[t]
            if sigma2 < VARIANCE_FLOOR:
                sigma2 = VARIANCE_FLOOR
                floored.append(t)
            alpha = optimal_allocation(mu, sigma2, cfg)
        except NumericalError:
            failures.append(t)
            alpha = prev_alpha
        alphas[t] = alpha
        prev_alpha = alpha
        if t < n - 1:
            W = wealth[t + 1] = step_wealth(W, alpha, ratios[t], rate_at[t])
            if not 0.0 < W < math.inf:
                if W <= 0:
                    raise DataError(f"wealth ruined at {prices.times[t + 1]}: allocation "
                                    f"{alpha:.6g} through price ratio {ratios[t]:.6g}")
                raise NumericalError(f"wealth is not finite at {prices.times[t + 1]}")

    wealth_series = Series(prices.times[t0:], wealth[t0:])
    alloc_series = Series(prices.times[t0:], alphas[t0:])
    stats = performance_stats(wealth_series, benchmark=values[t0:], rate=mean_rate)
    return BacktestReport(
        wealth=wealth_series,
        allocations=alloc_series,
        stats=stats,
        start_index=t0,
        failures=failures,
        floored_variance_dates=floored,
    )


def _annualized(name: str, growth, periods) -> float:
    """growth ** periods - 1; a figure that overflows (or is NaN) is a
    NumericalError naming it, not an inf in the report."""
    with np.errstate(over="ignore"):
        figure = np.float64(growth) ** periods - 1.0
    if not math.isfinite(figure):
        raise NumericalError(f"annualized {name} is not finite")
    return figure


def performance_stats(wealth, benchmark=None, rate: float = 0.0) -> PerformanceStats:
    """Annualized return/volatility, Sharpe, information ratio, max drawdown.

    Annualization uses 260 trading days. The information ratio compares
    per-period log returns against the benchmark's and is 0 by
    convention when the excess-return series is identically zero. A
    single return has no sample spread, so volatility and the
    information ratio are then None and the Sharpe ratio is 0. An
    annualized return or risk-free rate that overflows is a NumericalError.
    """
    w = as_values(wealth)
    if len(w) < 2:
        raise ValueError("wealth path needs at least 2 samples")
    if np.any(w <= 0):
        raise ValueError("wealth must stay positive")

    periods = len(w) - 1
    years = periods / TRADING_DAYS_PER_YEAR
    ann_return = _annualized("return", w[-1] / w[0], 1.0 / years)
    log_rets = np.diff(np.log(w))
    ann_vol = None
    if periods > 1:
        ann_vol = float(np.std(log_rets, ddof=1)) * np.sqrt(TRADING_DAYS_PER_YEAR)
    ann_rf = _annualized("risk-free rate", 1.0 + rate, TRADING_DAYS_PER_YEAR)
    sharpe = (ann_return - ann_rf) / ann_vol if ann_vol else 0.0

    information_ratio = None
    if benchmark is not None:
        b = as_values(benchmark)
        if len(b) != len(w):
            raise ValueError("benchmark length must match the wealth path")
        excess = log_rets - np.diff(np.log(b))
        spread = float(np.std(excess, ddof=1)) if periods > 1 else None
        if spread == 0.0:
            information_ratio = 0.0
        elif spread is not None:
            information_ratio = float(
                np.mean(excess) * np.sqrt(TRADING_DAYS_PER_YEAR) / spread
            )

    peak = np.maximum.accumulate(w)
    max_dd = float(np.max(1.0 - w / peak)) * 100.0

    return PerformanceStats(
        performance_pct=float(ann_return) * 100.0,
        volatility_pct=None if ann_vol is None else ann_vol * 100.0,
        sharpe=float(sharpe),
        information_ratio=information_ratio,
        max_drawdown_pct=max_dd,
    )
