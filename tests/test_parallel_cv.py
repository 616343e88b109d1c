"""Cross-validation on the solve pool gives what a serial loop gives.

``cv_filter`` may spread its grid solves over forked worker processes.
These tests hold it to a serial recomputation written out here, bit for
bit, and check the paths around the pool: errors raised in a worker,
callers that may not fork, and a clean interpreter exit.
"""

import inspect
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import trendkit
from trendkit import calibration, errors
from trendkit.calibration import (
    CHUNKS_PER_WORKER,
    POOL_MIN_WORK,
    CVConfig,
    _grid_bounds,
    cv_filter,
    forecast_trend,
    lambda_max,
)
from trendkit.errors import ConvergenceError, TrendkitError
from trendkit.filters import l1_filter
from trendkit.strategy import StrategyConfig
from trendkit.synth import default_params, simulate_model1

REFERENCE = CVConfig(T1=400, T2=50, m=12, p=12, n_grid=15)
(L1_GLOBAL,) = StrategyConfig(trend_model="l1-global").cv_configs()
POOLED = CVConfig(T1=400, T2=50, m=4, p=8, n_grid=15)  # 120 solves


def _need(cfg):
    return max(cfg.m * cfg.T2, cfg.T1 + cfg.p * cfg.T2)


def _model1(n, seed):
    return simulate_model1(default_params(1, n=n, seed=seed))[1]


def _serial_cv(values, cfg):
    """The cross-validation as one loop over folds and grid, in-process."""
    n = len(values)
    ceilings = [
        lambda_max(values[n - (cfg.m - i) * cfg.T2:n - (cfg.m - i - 1) * cfg.T2],
                   cfg.order)
        for i in range(cfg.m)
    ]
    lo, hi = _grid_bounds(float(np.mean(ceilings)), float(np.std(ceilings, ddof=1)))
    grid = lo * (hi / lo) ** (np.arange(1, cfg.n_grid + 1) / cfg.n_grid)
    fold_errors = np.zeros((cfg.n_grid, cfg.p))
    for k in range(cfg.p):
        test_start = n - (cfg.p - k) * cfg.T2
        train = values[test_start - cfg.T1:test_start]
        test = values[test_start:test_start + cfg.T2]
        for j, lam in enumerate(grid):
            fitted = l1_filter(train, lam, order=cfg.order)
            forecast = forecast_trend(fitted, cfg.order, len(test))
            fold_errors[j, k] = float(np.mean((forecast - test) ** 2))
    errors_ = fold_errors.sum(axis=1)
    return grid, errors_, fold_errors, float(grid[int(np.argmin(errors_))])


def _assert_same(report, expected):
    grid, errors_, fold_errors, lambda_star = expected
    assert np.array_equal(report.grid, grid)
    assert np.array_equal(report.errors, errors_)
    assert np.array_equal(report.fold_errors, fold_errors)
    assert report.lambda_star == lambda_star


def _outcome(fn, *args):
    """("returned", value) or ("raised", (class, message)) of a call."""
    try:
        return "returned", fn(*args)
    except Exception as exc:
        return "raised", (type(exc), str(exc))


@pytest.mark.parametrize("cfg, n, seed", [
    (REFERENCE, 1000, 0),
    (REFERENCE, 1000, 7),
    (L1_GLOBAL, _need(L1_GLOBAL) + 11, 0),
    # the 30th grid solve fails here (ROADMAP item 1) with
    # ConvergenceError: non-finite Newton system in iteration 29
    (L1_GLOBAL, _need(L1_GLOBAL) + 11, 3),
])
def test_matches_serial_loop_bit_for_bit(cfg, n, seed):
    assert cfg.n_grid * cfg.p * cfg.T1 >= POOL_MIN_WORK  # the pool is used
    values = _model1(n, seed)
    kind, expected = _outcome(_serial_cv, values, cfg)
    got_kind, got = _outcome(cv_filter, values, cfg)
    assert got_kind == kind
    if kind == "raised":
        assert got == expected
    else:
        _assert_same(got, expected)


@pytest.mark.parametrize("cls", [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, TrendkitError)
])
def test_errors_survive_pickling(cls):
    exc = cls("solver said no")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == "solver said no"


def test_convergence_error_keeps_diagnostics_through_pickling():
    exc = ConvergenceError("stopped", diagnostics={"iterations": 200})
    back = pickle.loads(pickle.dumps(exc))
    assert back.diagnostics == {"iterations": 200}


def test_worker_failure_reaches_caller_as_the_serial_loops_first():
    # A unit walk scaled by 3e4 breaks the solver (see ROADMAP item 1),
    # and every chunk fails on its first task. On two CPUs the chunks are
    # 8 contiguous runs of 15 tasks: the first 7 stop at the iteration
    # limit, the 8th at a non-finite Newton system. The serial loop's
    # first failure is the first chunk's.
    assert POOLED.n_grid * POOLED.p * POOLED.T1 >= POOL_MIN_WORK
    values = 3e4 * np.cumsum(np.random.default_rng(3).standard_normal(_need(POOLED)))
    with pytest.raises(ConvergenceError) as serial:
        _serial_cv(values, POOLED)
    with pytest.raises(ConvergenceError) as pooled:
        cv_filter(values, POOLED)
    assert str(pooled.value) == str(serial.value)
    assert pooled.value.diagnostics.iterations == serial.value.diagnostics.iterations
    assert np.array_equal(pooled.value.diagnostics.nu_star, serial.value.diagnostics.nu_star)


def test_recovers_from_a_killed_worker():
    values = _model1(_need(POOLED) + 5, 4)
    expected = _serial_cv(values, POOLED)
    _assert_same(cv_filter(values, POOLED), expected)
    if calibration._pool is None:
        pytest.skip("no solve pool on a single CPU")
    pool = calibration._pool
    victim = next(iter(pool._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    # Wait for the pool's own verdict: the manager thread may reap the
    # victim first, and is_alive() can then read True for a dead process.
    deadline = time.monotonic() + 60
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken
    _assert_same(cv_filter(values, POOLED), expected)  # scored in-process
    assert calibration._pool is None  # the broken pool was dropped
    _assert_same(cv_filter(values, POOLED), expected)  # on a fresh pool
    assert calibration._pool is not None


def test_pool_round_trips_stay_few(monkeypatch):
    values = _model1(_need(POOLED) + 5, 5)
    cv_filter(values, POOLED)  # starts the pool
    pool = calibration._pool
    if pool is None:
        pytest.skip("no solve pool on a single CPU")
    submitted = []
    submit = pool.submit

    def counted(*args, **kwargs):
        submitted.append(args)
        return submit(*args, **kwargs)

    monkeypatch.setattr(pool, "submit", counted)
    _assert_same(cv_filter(values, POOLED), _serial_cv(values, POOLED))
    assert 1 <= len(submitted) <= CHUNKS_PER_WORKER * calibration._pool_workers


def _cv_in_worker(values, cfg):
    return cv_filter(values, cfg)


def test_daemonic_caller_runs_in_process():
    values = _model1(_need(POOLED) + 5, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        report = pool.apply_async(_cv_in_worker, (values, POOLED)).get(timeout=120)
    _assert_same(report, _serial_cv(values, POOLED))


def test_interpreter_exits_cleanly_after_pooled_cv():
    code = (
        "import numpy as np\n"
        "from trendkit.calibration import CVConfig, cv_filter\n"
        "y = np.cumsum(np.random.default_rng(1).standard_normal(800))\n"
        "print(cv_filter(y, CVConfig(T1=400, T2=50, m=4, p=8, n_grid=15)).lambda_star)\n"
    )
    src = str(Path(trendkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert float(proc.stdout) > 0
