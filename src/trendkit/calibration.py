"""Selection of the regularization weight and forecast machinery.

The L1 filters degenerate once the penalty weight exceeds a data-driven
ceiling (``lambda_max``), which anchors every selection rule here:

* ``lambda_max``            the closed-form ceiling itself
* ``cv_filter``             rolling-window cross-validation over a geometric
  grid bracketing the per-window ceilings, its solves spread over every CPU
* ``forecast_trend``        the extrapolation each cross-validation fold scores
* ``hp_lambda_for_window``  the quadratic-filter weight spectrally matched to
  a moving average of a given width

The trend models that use these weights, and their window geometries, are
:mod:`trendkit.strategy`'s.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import band_solve, diff_operator, gram_banded
from .errors import InsufficientHistoryError, NumericalError
from .filters import FilterResult, l1_filter
from .series import as_values

__all__ = [
    "CVConfig",
    "CVReport",
    "lambda_max",
    "cv_filter",
    "forecast_trend",
    "hp_lambda_for_window",
    "SPECTRAL_RATIO",
]

# Fitted least-squares constant relating the spectral-matched quadratic
# penalty to the closed-form width match 0.5 * (T / 2pi)^4
# (scripts/spectral_match.py fits it).
SPECTRAL_RATIO = 10.27


@dataclass(frozen=True)
class CVConfig:
    """Window geometry for rolling cross-validation.

    T1 is the training width, T2 the test/forecast width, longer than the
    filter order. m test windows feed the grid bounds; p training folds
    score each grid point; the grid has n_grid geometric points.
    """

    T1: int = 400
    T2: int = 50
    m: int = 12
    p: int = 12
    n_grid: int = 15
    order: int = 2

    def __post_init__(self):
        if not self.T1 > self.T2 >= 1:
            raise ValueError(f"need T1 > T2 >= 1, got T1={self.T1}, T2={self.T2}")
        if self.n_grid < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.n_grid}")
        if self.m < 1 or self.p < 1:
            raise ValueError("m and p must be at least 1")
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.T2 <= self.order:  # no differences in a test window to bound the grid
            raise ValueError(f"test window T2={self.T2} must be longer than the "
                             f"filter order {self.order}")

    @property
    def min_history(self) -> int:
        """Samples a cross-validation needs: m test windows for the grid
        bounds, and p test windows with a training window before the first."""
        return max(self.m * self.T2, self.T1 + self.p * self.T2)


@dataclass(frozen=True)
class CVReport:
    """Grid, per-grid-point total errors, and the winning weight."""

    grid: np.ndarray
    errors: np.ndarray
    lambda_star: float
    fold_errors: np.ndarray  # shape (n_grid, p)
    lambda_mean: float
    lambda_std: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.errors)) or np.any(self.errors < 0):
            raise ValueError("forecast errors must be finite and non-negative")
        if self.lambda_star not in self.grid:
            raise ValueError("the selected weight must come from the grid")


def lambda_max(y, order: int) -> float:
    """Smallest penalty weight at which the L1 filter fully degenerates.

    Equals the max-norm of (D D')^{-1} D y; above it the order-2 fit is
    the least-squares line and the order-1 fit is the mean. A ceiling too
    large for a float (values near 1e306 at order 2) is a NumericalError.
    """
    values = as_values(y)
    op = diff_operator(order, len(values))
    z = band_solve(gram_banded(op), op.apply(values))
    ceiling = float(np.max(np.abs(z)))
    if not math.isfinite(ceiling):
        raise NumericalError(f"the order-{order} weight ceiling lambda_max overflows")
    return ceiling


def forecast_trend(result: FilterResult, order: int, horizon: int) -> np.ndarray:
    """Extrapolate a fitted trend: continue the last slope (order 2) or
    carry the last level (order 1)."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    x = result.trend
    if order == 2:
        slope = x[-1] - x[-2]
        return x[-1] + slope * np.arange(1, horizon + 1)
    if order == 1:
        return np.full(horizon, x[-1])
    raise ValueError(f"order must be 1 or 2, got {order}")


def _grid_bounds(lam_mean: float, lam_std: float):
    """Geometric-grid endpoints mean +/- 2 std, clamped to stay positive."""
    lo = lam_mean - 2.0 * lam_std
    hi = lam_mean + 2.0 * lam_std
    if lo <= 0.0:
        lo = max(1e-6 * lam_mean, np.finfo(float).eps)
    if hi <= lo:
        hi = 10.0 * lo
    return lo, hi


# Cross-validations with fewer solves x training-window samples than this
# solve in-process, as the pool's round trip would cost more than the
# second CPU saves. Where it pays depends on the cost of a solve. Measured
# on a 2-CPU Xeon, pooled against in-process: on noisy input from about
# 8 solves x 120 samples (1.4-1.7x); on linear input, whose solves take a
# few Newton steps, only from about 30 000 (45 x 600 ran at 0.73-1.02x,
# 60 x 800 at 1.06-1.10x). 20 000 pools every default geometry (l1-local
# 45 x 520, calibrate 180 x 400, l1-global 45 x 2080) and keeps small
# ones in-process: pooling the 8 x 120 cross-validations of a backtest on
# trending prices made it 45% slower.
POOL_MIN_WORK = 20000
# Chunks per worker: more of them even out the workers' finishing times;
# each costs a round trip through the pool's manager thread. On the
# default l1-global backtest 1, 2 and 4 ran alike and 8 ran 5-9% slower.
CHUNKS_PER_WORKER = 4

_pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
_pool_pid: Optional[int] = None  # the process that owns _pool
_pool_workers = 0
_pool_lock = threading.Lock()


def _shutdown_pool():
    global _pool
    with _pool_lock:
        if _pool is not None and _pool_pid == os.getpid():
            _pool.shutdown()
            _pool = None


def _cv_pool(work: int) -> Optional[concurrent.futures.ProcessPoolExecutor]:
    """The process's persistent solve pool, or None to solve in-process.

    Workers are forked, not spawned, so they start in milliseconds with
    the package already imported and run exactly the caller's code. A
    daemonic process may not have children, and with one CPU there is
    nothing to spread the solves over. A pool inherited through a fork
    belongs to the parent and is left alone.
    """
    global _pool, _pool_pid, _pool_workers
    if work < POOL_MIN_WORK:
        return None
    with _pool_lock:
        if _pool is not None and _pool_pid == os.getpid():
            return _pool
        import multiprocessing  # here, so that a process that never pools loads none of it
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon
                or not hasattr(os, "sched_getaffinity")):
            return None
        workers = len(os.sched_getaffinity(0))
        if workers < 2:
            return None
        if _pool_pid is None:
            # End the workers before the interpreter tears itself down.
            atexit.register(_shutdown_pool)
        _pool = concurrent.futures.ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"))
        _pool_pid = os.getpid()
        _pool_workers = workers
        return _pool


def _forecast_error(order: int, task) -> float:
    """Squared forecast error of one (train, test, lam) task; inf, without
    a warning, where it overflows (``cv_filter`` raises for it)."""
    train, test, lam = task
    forecast = forecast_trend(l1_filter(train, lam, order=order), order, len(test))
    with np.errstate(over="ignore"):
        return float(np.mean((forecast - test) ** 2))


def _forecast_errors(tasks, order: int, window: int) -> list:
    """``_forecast_error`` of every task, in order, spread over the solve
    pool if it pays; the first failing task's exception is raised."""
    score = functools.partial(_forecast_error, order)
    pool = _cv_pool(len(tasks) * window)
    if pool is not None:
        chunksize = math.ceil(len(tasks) / (CHUNKS_PER_WORKER * _pool_workers))
        try:
            return list(pool.map(score, tasks, chunksize=chunksize))
        except concurrent.futures.process.BrokenProcessPool:
            # A worker died (e.g. killed for memory): start afresh next
            # time and score this cross-validation in-process.
            _shutdown_pool()
    return [score(task) for task in tasks]


def cv_filter(y, cfg: CVConfig) -> CVReport:
    """Rolling cross-validation of the L1 penalty weight.

    The m most recent non-overlapping test windows give per-window
    ceilings whose mean and spread bound a geometric grid; each grid
    point is scored by filtering p rolling training windows and
    measuring the squared forecast error over the adjacent test window.

    The n_grid * p solves (fold-major, weight-minor) run on a persistent
    pool of forked workers, one per CPU the process may use, in about
    CHUNKS_PER_WORKER contiguous chunks each, when they repay the round
    trips. The report, and the first failure, are the one-process loop's.
    Ceilings too large for a finite grid, and forecast errors too large
    to sum, are a NumericalError.
    """
    values = as_values(y)
    n = len(values)
    if n < cfg.min_history:
        raise InsufficientHistoryError(
            f"cross-validation needs {cfg.min_history} samples "
            f"(m={cfg.m}, p={cfg.p}, T1={cfg.T1}, T2={cfg.T2}), got {n}"
        )

    ceilings = []
    for i in range(cfg.m):
        start = n - (cfg.m - i) * cfg.T2
        ceilings.append(lambda_max(values[start:start + cfg.T2], cfg.order))
    with np.errstate(over="ignore", invalid="ignore"):  # huge ceilings: checked below
        lam_mean = float(np.mean(ceilings))
        lam_std = float(np.std(ceilings, ddof=1)) if cfg.m > 1 else 0.0
        lo, hi = _grid_bounds(lam_mean, lam_std)
        j = np.arange(1, cfg.n_grid + 1)
        grid = lo * (hi / lo) ** (j / cfg.n_grid)
    if not np.all(np.isfinite(grid)):
        raise NumericalError(f"weight grid overflows at ceilings up to {max(ceilings):.3g}")

    tasks = []
    for k in range(cfg.p):
        test_start = n - (cfg.p - k) * cfg.T2
        train = values[test_start - cfg.T1:test_start]
        test = values[test_start:test_start + cfg.T2]
        tasks.extend((train, test, lam) for lam in grid)
    scores = _forecast_errors(tasks, cfg.order, cfg.T1)
    # C order: numpy sums the rows of a Fortran-order array in another order
    fold_errors = np.array(scores).reshape(cfg.p, cfg.n_grid).T.copy()

    with np.errstate(over="ignore"):
        errors = fold_errors.sum(axis=1)
    if not np.all(np.isfinite(errors)):  # a jump to 1e200 after a flat training window
        raise NumericalError("squared forecast errors overflow")
    best = int(np.argmin(errors))
    return CVReport(
        grid=grid,
        errors=errors,
        lambda_star=float(grid[best]),
        fold_errors=fold_errors,
        lambda_mean=lam_mean,
        lambda_std=lam_std,
    )


def hp_lambda_for_window(T: float) -> float:
    """Quadratic-filter weight matched to a width-T moving average."""
    if T < 2:
        raise ValueError(f"window must be at least 2, got {T}")
    return SPECTRAL_RATIO * 0.5 * (T / (2.0 * np.pi)) ** 4
