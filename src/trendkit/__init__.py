"""Trend filtering toolkit: L1/L2 filters, penalty calibration, momentum backtests."""

from .banded import BandedSymMatrix, DiffOperator, band_solve, diff_operator, gram_banded
from .calibration import (
    CVConfig,
    CVReport,
    cv_filter,
    forecast_trend,
    hp_lambda_for_window,
    lambda_max,
)
from .errors import (
    ConvergenceError,
    DataError,
    InsufficientHistoryError,
    NotPositiveDefiniteError,
    NumericalError,
    TrendkitError,
)
from .filters import (
    FilterResult,
    detect_breaks,
    hp_filter,
    l1_filter,
    l1_objective,
    l1t_multivariate,
    l1tc_filter,
    l1tc_objective,
)
from .ipm import BoxQP, IpmSolution, solve_box_qp
from .series import Series
from .strategy import (
    BacktestReport,
    PerformanceStats,
    StrategyConfig,
    TwoTrendPrediction,
    moving_average_trend,
    optimal_allocation,
    performance_stats,
    predict_two_trend,
    realized_vol,
    run_backtest,
    step_wealth,
)
from .synth import (
    ModelParams,
    default_params,
    simulate_model1,
    simulate_model2,
    simulate_model3,
    simulate_model4,
)

__version__ = "0.1.0"
