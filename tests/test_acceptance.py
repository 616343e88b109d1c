"""Acceptance gates for the whole package.

Each test implements one numbered criterion at its stated tolerance and
runtime budget and prints a single PASS/FAIL line. Criterion 4 certifies
the duality gap and primal-dual identity across the solves produced by
the other criteria, so the cheap solve batches are cached collectors.
"""

import functools
import time
from pathlib import Path

import numpy as np

from trendkit.banded import diff_operator
from trendkit.calibration import CVConfig, cv_filter, lambda_max
from trendkit.filters import (
    detect_breaks,
    hp_filter,
    l1_filter,
    l1_objective,
    l1t_multivariate,
    l1tc_filter,
    l1tc_objective,
)
from trendkit.series import Series
from trendkit.strategy import StrategyConfig, run_backtest, step_wealth
from trendkit.synth import default_params, simulate_model1, slope_change_count

from oracles import dense_diff, l1_bruteforce_objective, ols_line
from scaling_law import fit_scaling_exponent
from spectral_match import calibrate_l2_spectral

# solves registered by the criteria below, certified by criterion 4:
# entries are (observed, FilterResult, [(order, lam, dual_slice), ...])
_SOLVES = []


def _register_l1(y, result, order):
    _SOLVES.append((y, result, [(order, result.lam, result.dual)]))


def _register_tc(y, result):
    n = len(y)
    nu1, nu2 = result.dual[: n - 1], result.dual[n - 1:]
    _SOLVES.append((y, result, [(1, result.lam[0], nu1), (2, result.lam[1], nu2)]))


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


# --- criterion 1: identity collapse at zero penalty -----------------------

@functools.lru_cache(maxsize=None)
def _identity_collapse():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 501))
        y = rng.normal(size=n).cumsum()
        outputs = [
            hp_filter(y, 0.0).trend,
            l1_filter(y, 0.0, order=2).trend,
            l1_filter(y, 0.0, order=1).trend,
            l1tc_filter(y, 0.0, 0.0).trend,
            l1t_multivariate([y], 0.0).trend,
        ]
        for x in outputs:
            worst = max(worst, float(np.max(np.abs(x - y))))
    return worst, time.time() - start


def test_criterion_01_identity_collapse():
    worst, elapsed = _identity_collapse()
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"zero-penalty identity, max error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


# --- criterion 2: degeneracy above the penalty ceiling ---------------------

@functools.lru_cache(maxsize=None)
def _ceiling_collapse():
    rng = np.random.default_rng(202)
    start = time.time()
    worst_line = 0.0
    worst_mean = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 501))
        y = rng.normal(size=n).cumsum()

        lam2 = 1.01 * lambda_max(y, 2)
        fit2 = l1_filter(y, lam2, order=2)
        _register_l1(y, fit2, 2)
        line = ols_line(y)
        rel = np.max(np.abs(fit2.trend - line)) / np.max(np.abs(line))
        worst_line = max(worst_line, float(rel))

        lam1 = 1.01 * lambda_max(y, 1)
        fit1 = l1_filter(y, lam1, order=1)
        _register_l1(y, fit1, 1)
        worst_mean = max(worst_mean, float(np.max(np.abs(fit1.trend - y.mean()))))
    return worst_line, worst_mean, time.time() - start


def test_criterion_02_ceiling_collapse():
    worst_line, worst_mean, elapsed = _ceiling_collapse()
    ok = worst_line <= 1e-5 and worst_mean <= 1e-8 and elapsed < 10.0
    _report(2, ok, (
        f"ceiling degeneracy, line rel {worst_line:.2e}, "
        f"mean abs {worst_mean:.2e}, {elapsed:.2f}s"
    ))
    assert worst_line <= 1e-5
    assert worst_mean <= 1e-8
    assert elapsed < 10.0


# --- criterion 3: brute-force oracle equivalence ---------------------------

@functools.lru_cache(maxsize=None)
def _oracle_equivalence():
    rng = np.random.default_rng(303)
    start = time.time()
    worst = 0.0
    for _ in range(70):
        n = int(rng.integers(4, 13))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.05, 1.0))
        result = l1_filter(y, lam, order=2)
        _register_l1(y, result, 2)
        achieved = l1_objective(y, result.trend, lam, 2)
        oracle = l1_bruteforce_objective(y, dense_diff(2, n), np.full(n - 2, lam))
        worst = max(worst, abs(achieved - oracle))
    for _ in range(70):
        n = int(rng.integers(3, 13))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.05, 1.0))
        result = l1_filter(y, lam, order=1)
        _register_l1(y, result, 1)
        achieved = l1_objective(y, result.trend, lam, 1)
        oracle = l1_bruteforce_objective(y, dense_diff(1, n), np.full(n - 1, lam))
        worst = max(worst, abs(achieved - oracle))
    for _ in range(60):
        n = int(rng.integers(4, 9))
        y = rng.normal(size=n)
        lam1 = float(rng.uniform(0.05, 0.8))
        lam2 = float(rng.uniform(0.05, 0.8))
        result = l1tc_filter(y, lam1, lam2)
        _register_tc(y, result)
        achieved = l1tc_objective(y, result.trend, lam1, lam2)
        D = np.vstack([dense_diff(1, n), dense_diff(2, n)])
        lams = np.concatenate([np.full(n - 1, lam1), np.full(n - 2, lam2)])
        oracle = l1_bruteforce_objective(y, D, lams)
        worst = max(worst, abs(achieved - oracle))
    return worst, time.time() - start


def test_criterion_03_oracle_equivalence():
    worst, elapsed = _oracle_equivalence()
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(3, ok, f"200 brute-force comparisons, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


# --- criterion 5: penalty-ceiling growth exponents -------------------------

def test_criterion_05_scaling_exponents():
    # A drift regime lasts about 1/(1-p) ~ 143 steps. Over only a few regime
    # lengths the drift integral is still turning from nearly affine (which
    # the filter ignores) to diffusive, and the fitted slope overshoots the
    # power law; from about 2000 steps on it settles at 2.5 and 1.5.
    lengths = (4000, 8000, 16000, 32000)
    regime = 1.0 / (1.0 - 0.993)
    span = f"lengths {lengths[0]}..{lengths[-1]} (regime length 1/(1-p) ~ {regime:.0f})"
    start = time.time()
    exp2 = fit_scaling_exponent(2, n_sims=100, lengths=lengths,
                                seed=0, p=0.993, b=5.0, sigma=15.0)
    exp1 = fit_scaling_exponent(1, n_sims=100, lengths=lengths,
                                seed=0, p=0.993, b=5.0, sigma=15.0)
    elapsed = time.time() - start
    ok = 2.35 <= exp2 <= 2.65 and 1.35 <= exp1 <= 1.65 and elapsed < 600.0
    _report(5, ok, (
        f"growth exponents of the drifting walk over {span}: order2={exp2:.3f} "
        f"(band [2.35, 2.65]), order1={exp1:.3f} (band [1.35, 1.65]), {elapsed:.1f}s"
    ))
    assert elapsed < 600.0
    assert 2.35 <= exp2 <= 2.65, (
        f"order-2 exponent {exp2:.3f} outside [2.35, 2.65] over {span}"
    )
    assert 1.35 <= exp1 <= 1.65, (
        f"order-1 exponent {exp1:.3f} outside [1.35, 1.65] over {span}"
    )


# --- criterion 6: spectral calibration constant ----------------------------

def test_criterion_06_spectral_constant():
    start = time.time()
    ratios = {}
    for T in (20, 65, 130, 260):
        lam = calibrate_l2_spectral(T)
        ratios[T] = lam / (0.5 * (T / (2.0 * np.pi)) ** 4)
    elapsed = time.time() - start
    ok = all(8.2 <= r <= 12.3 for r in ratios.values()) and elapsed < 30.0
    detail = ", ".join(f"T={T}: {r:.2f}" for T, r in ratios.items())
    _report(6, ok, f"spectral ratios ({detail}), {elapsed:.1f}s")
    for T, r in ratios.items():
        assert 8.2 <= r <= 12.3, f"ratio {r:.3f} at T={T}"
    assert elapsed < 30.0


# --- criterion 7: multivariate reduction -----------------------------------

@functools.lru_cache(maxsize=None)
def _multivariate_reduction():
    rng = np.random.default_rng(707)
    start = time.time()
    worst = 0.0
    for i in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(10, 201))
        rows = [rng.normal(size=n).cumsum() for _ in range(m)]
        standardize = bool(i % 3 == 0)
        data = np.vstack(rows)
        if standardize:
            stds = data.std(axis=1)
            if np.any(stds == 0):
                standardize = False
            else:
                data = (data - data.mean(axis=1)[:, None]) / stds[:, None]
        mean_series = data.mean(axis=0)
        lam = float(rng.uniform(0.1, 1.0)) * max(lambda_max(mean_series, 2), 1e-3)
        joint = l1t_multivariate(rows, lam, standardize=standardize)
        single = l1_filter(mean_series, lam, order=2)
        _register_l1(mean_series, single, 2)
        worst = max(worst, float(np.max(np.abs(joint.trend - single.trend))))
    return worst, time.time() - start


def test_criterion_07_multivariate_reduction():
    worst, elapsed = _multivariate_reduction()
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(7, ok, f"common trend vs mean-series filter, max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


# --- criterion 8: synthetic trend recovery ---------------------------------

@functools.lru_cache(maxsize=None)
def _synthetic_recovery():
    # forecast horizon matched to the mean regime duration 1/(1-p) = 100
    cfg = CVConfig(T1=400, T2=100, m=12, p=12, n_grid=15, order=2)
    start = time.time()
    rows = []
    for seed in range(20):
        params = default_params(1, seed=seed)  # n=2000, p=0.99, b=0.5, sigma=15
        x_true, y = simulate_model1(params)
        report = cv_filter(y, cfg)
        fit = l1_filter(y, report.lambda_star, order=2)
        _register_l1(y, fit, 2)
        rmse = float(np.sqrt(np.mean((fit.trend - x_true) ** 2)))
        found = len(detect_breaks(fit, 2))
        truth = max(slope_change_count(x_true), 1)
        rows.append((rmse, found, truth))
    return rows, time.time() - start


def test_criterion_08_synthetic_recovery():
    rows, elapsed = _synthetic_recovery()
    sigma = 15.0
    worst_rmse = max(r for r, _, _ in rows)
    ratios = [found / truth for _, found, truth in rows]
    ok = (worst_rmse < 0.5 * sigma
          and all(1.0 / 3.0 <= q <= 3.0 for q in ratios)
          and elapsed < 300.0)
    _report(8, ok, (
        f"20-seed recovery: worst RMSE {worst_rmse:.2f} (< {0.5 * sigma}), "
        f"break ratios in [{min(ratios):.2f}, {max(ratios):.2f}], {elapsed:.1f}s"
    ))
    assert worst_rmse < 0.5 * sigma
    for q in ratios:
        assert 1.0 / 3.0 <= q <= 3.0
    assert elapsed < 300.0


# --- criterion 9: backtest integrity ---------------------------------------

def test_criterion_09_backtest_integrity():
    start = time.time()
    cfg = StrategyConfig(
        trend_model="l1-local", vol_window=20,
        T2=15, T3=30, cv_m=2, cv_p=2, n_grid=4,
    )
    issues = []

    for label, values in (
        ("uptrend", 100.0 * np.exp(0.001 * np.arange(400))),
        ("constant", np.full(400, 60.0)),
    ):
        prices = Series.from_values(values)
        report = run_backtest(prices, 0.0, cfg)
        w = report.wealth.values
        a = report.allocations.values
        p = values[report.start_index:]
        for t in range(len(w) - 1):
            if w[t + 1] != step_wealth(w[t], a[t], p[t + 1] / p[t], 0.0):
                issues.append(f"{label}: recursion mismatch at {t}")
                break
        if not (np.all(a >= cfg.alpha_min) and np.all(a <= cfg.alpha_max)):
            issues.append(f"{label}: allocation out of bounds")
        cut = len(values) - 50
        truncated = run_backtest(
            Series.from_values(values[:cut]), 0.0, cfg
        )
        k = len(truncated.allocations)
        if not np.array_equal(truncated.allocations.values, a[:k]):
            issues.append(f"{label}: look-ahead detected")
        if label == "constant" and not np.all(w == 1.0):
            issues.append("constant: wealth not flat at zero rate")

    elapsed = time.time() - start
    ok = not issues and elapsed < 120.0
    _report(9, ok, f"recursion/no-look-ahead/bounds on 2 deterministic paths, {elapsed:.1f}s")
    assert not issues, issues
    assert elapsed < 120.0


# --- criterion 10: reference configuration and documented commands ---------

def test_criterion_10_reference_configuration():
    cv = CVConfig()
    strat = StrategyConfig()
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text() if readme.exists() else ""
    checks = {
        "cv defaults T1=400": cv.T1 == 400,
        "cv defaults T2=50": cv.T2 == 50,
        "cv defaults m=12": cv.m == 12,
        "cv defaults p=12": cv.p == 12,
        "cv defaults n_grid=15": cv.n_grid == 15,
        "strategy T2=130": strat.T2 == 130,
        "strategy T3=520": strat.T3 == 520,
        "strategy local T1=520":
            StrategyConfig(trend_model="l1-two-trend").cv_configs()[0].T1 == 520,
        "README documents calibrate command": "trendkit calibrate" in text,
        "README documents backtest command": "trendkit backtest" in text,
        "README states reference lambda 7.03": "7.03" in text,
        "README states reference performance 6.95": "6.95" in text,
    }
    failed = [k for k, v in checks.items() if not v]
    ok = not failed
    _report(10, ok, "reference windows are defaults; commands documented"
            if ok else f"missing: {failed}")
    assert not failed, failed


# --- criterion 4: duality certificates across the other criteria -----------

def test_criterion_04_duality_certificates():
    # make sure the cheap batches ran even when this test runs alone
    _identity_collapse()
    _ceiling_collapse()
    _oracle_equivalence()
    _multivariate_reduction()

    start = time.time()
    worst_gap = 0.0
    worst_identity = 0.0
    checked = 0
    for y, result, parts in _SOLVES:
        if result.diagnostics is None:
            continue
        assert result.diagnostics.converged
        worst_gap = max(worst_gap, result.diagnostics.duality_gap)
        recovered = np.asarray(y, dtype=float).copy()
        for order, lam, dual in parts:
            op = diff_operator(order, len(y))
            recovered -= op.apply_transpose(dual)
            assert np.max(np.abs(dual)) <= lam + 1e-9
        worst_identity = max(
            worst_identity, float(np.max(np.abs(result.trend - recovered)))
        )
        checked += 1
    elapsed = time.time() - start
    ok = checked > 0 and worst_gap <= 1e-8 and worst_identity <= 1e-8
    _report(4, ok, (
        f"{checked} solves certified: max gap {worst_gap:.2e}, "
        f"max primal-dual drift {worst_identity:.2e} ({elapsed:.1f}s)"
    ))
    assert checked > 0
    assert worst_gap <= 1e-8
    assert worst_identity <= 1e-8
