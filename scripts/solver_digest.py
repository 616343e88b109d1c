#!/usr/bin/env python3
"""Bit-for-bit digest of the solvers' and the CLI's outputs on seeded cases.

Runs every filter and both cross-validation geometries on seeded inputs
and prints one line per case: ``ok`` and a SHA-256 of every output byte
(trend, dual, iteration count, gap, KKT residual, gap history; grid,
errors and fold errors for a cross-validation), or ``fail`` and the
failure's class and message. The last line is the total over all lines.

The sweep covers the quadratic filter at orders 1 and 2, ``l1_filter`` at
orders 1 and 2 and ``l1tc_filter``, each at n from 3 to 5000, input
scales x1 and x1000 and weights of 0.01 and 0.1 times lambda_max; then
``cv_filter`` at the reference calibration's geometry and at the
``l1-global`` backtest's; then, on the same inputs, ``l1tc_filter`` with
either weight zero, and both ``l1_filter`` orders and ``l1tc_filter`` at
zero weight; then ``l1t_multivariate`` on seeded panels of 1 and 3 series
at every size, with and without standardization, at weights of 0.01 and
0.1 times lambda_max of the panel mean.

Then it runs ``trendkit`` commands through ``trendkit.cli.main``, each in a
fresh temporary directory holding the same seeded input files, and prints
one line per command: the exit code, the names and a SHA-256 of the files
it wrote together with its standard output and error, its standard error
text, and how many Python warnings it raised. The commands cover every
filter kind and weight selection, calibrate, the four simulated models,
every backtest trend model, backtests that ruin the strategy or overflow its
wealth or whose rate is -1, config files, and each usage (1), data (2) and
numerical (3) exit: among them calibrate on model-1 input scaled by 1e150,
whose first solve stalls in its line search, and by 1e300, whose weight grid
overflows; the l1c filter of 300 model-1 samples scaled by 1e153, whose
exact order-1 gap overflows; a walk scaled to 1e306, whose order-2 weight
ceiling overflows, as does its order-1 ceiling times 1e300; order-1
calibrate on 60 zeros then 1e200, whose squared forecast errors overflow;
a CSV that is not UTF-8; and an empty --rates path. Each command passes only flags its
filter kind or backtest model reads (a backtest model its own windows),
except the usage errors for a flag it does not read, a second weight
selection, cross-validation windows without --auto, given as flags or in a
config file, a config file that names another, and these, each reported
before its missing input is read: a backtest whose window is too short for
its model or whose --rate is NaN or -2, and a filter given no weight, one
l1tc weight, or a NaN weight.

It calls public functions only, so it runs unchanged against another
checkout's sources:

    PYTHONPATH=src python scripts/solver_digest.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/solver_digest.py > before.txt
    diff before.txt after.txt

A solver or CLI change that is meant to keep every output shows no
difference.
"""

import contextlib
import hashlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from trendkit import cli, synth
from trendkit.calibration import CVConfig, cv_filter, lambda_max
from trendkit.filters import hp_filter, l1_filter, l1t_multivariate, l1tc_filter
from trendkit.strategy import TREND_MODELS, StrategyConfig

SIZES = (3, 4, 5, 40, 400, 2080, 5000)
SEEDS = (0, 1, 2)
SCALES = (1.0, 1000.0)
FRACTIONS = (0.01, 0.1)
CV_SEEDS = (0, 1)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
    return h.hexdigest()


def _filter_digest(result) -> str:
    parts = [result.trend, result.lam]
    if result.dual is not None:
        parts.append(result.dual)
    diag = result.diagnostics
    if diag is not None:
        parts += [diag.iterations, diag.duality_gap, diag.kkt_residual,
                  diag.converged, diag.gap_history]
    return _digest(*parts)


def _cv_digest(report) -> str:
    return _digest(report.grid, report.errors, report.fold_errors,
                   report.lambda_star, report.lambda_mean, report.lambda_std)


def _inputs():
    """(tag, y, lambda_max by order) for every size, seed and scale."""
    for n in SIZES:
        for seed in SEEDS:
            walk = np.cumsum(np.random.default_rng(seed).standard_normal(n))
            for scale in SCALES:
                y = scale * walk
                yield f"n{n}-s{seed}-x{scale:g}", y, {1: lambda_max(y, 1), 2: lambda_max(y, 2)}


def _filter_cases():
    for base, y, ceilings in _inputs():
        for frac in FRACTIONS:
            tag = f"{base}-f{frac:g}"
            for order in (1, 2):
                lam = frac * ceilings[order]
                yield f"hp{order}-{tag}", _filter_digest, hp_filter, (y, lam, order)
                yield f"l1o{order}-{tag}", _filter_digest, l1_filter, (y, lam, order)
            yield (f"l1tc-{tag}", _filter_digest, l1tc_filter,
                   (y, frac * ceilings[1], frac * ceilings[2]))


def _zero_weight_cases():
    """``l1tc_filter`` with one weight zero; ``l1_filter`` and ``l1tc_filter`` at zero weight."""
    for base, y, ceilings in _inputs():
        for frac in FRACTIONS:
            tag = f"{base}-f{frac:g}"
            yield f"l1tc-only2-{tag}", _filter_digest, l1tc_filter, (y, 0.0, frac * ceilings[2])
            yield f"l1tc-only1-{tag}", _filter_digest, l1tc_filter, (y, frac * ceilings[1], 0.0)
        for order in (1, 2):
            yield f"l1o{order}-{base}-zero", _filter_digest, l1_filter, (y, 0.0, order)
        yield f"l1tc-{base}-zero", _filter_digest, l1tc_filter, (y, 0.0, 0.0)


def _multivariate_cases():
    """``l1t_multivariate`` on panels of 1 and 3 series, raw and standardized."""
    for n in SIZES:
        for seed in SEEDS:
            walks = np.cumsum(np.random.default_rng(seed).standard_normal((3, n)), axis=1)
            panel = [walks[0], 40 * walks[1] + 7, 0.2 * walks[2] - 3]
            for m in (1, 3):
                rows = panel[:m]
                for standardize in (False, True):
                    base = f"multi{m}-{'std' if standardize else 'raw'}-n{n}-s{seed}"
                    # a zero weight returns the panel mean unsolved
                    mean = l1t_multivariate(rows, 0.0, standardize=standardize).observed
                    ceiling = lambda_max(mean, 2)
                    for frac in FRACTIONS:
                        yield (f"{base}-f{frac:g}", _filter_digest, l1t_multivariate,
                               (rows, frac * ceiling, standardize))


def _cv_cases():
    reference = CVConfig()
    # the l1-global backtest's geometry: the last one its config builds
    l1_global = StrategyConfig(trend_model="l1-global").cv_configs()[-1]
    for seed in CV_SEEDS:
        _, observed = synth.simulate_model1(synth.default_params(1, n=1008, seed=seed))
        walk = synth.simulate_model2(synth.default_params(
            2, n=l1_global.min_history, seed=seed)).values
        log_prices = 1e-3 * walk  # the scale of a backtest's log prices
        for scale in SCALES:
            yield (f"cv-reference-s{seed}-x{scale:g}", _cv_digest, cv_filter,
                   (scale * observed, reference))
            yield (f"cv-l1-global-s{seed}-x{scale:g}", _cv_digest, cv_filter,
                   (scale * log_prices, l1_global))


def _csv(**columns) -> str:
    """``date,<names>`` text at 12 significant digits, integer dates; written
    here, not by ``cli.write_csv``, so a change to the CLI cannot change its inputs."""
    rows = zip(*columns.values())
    lines = [",".join(["date", *columns])]
    lines += [",".join([str(i), *(format(float(v), ".12g") for v in row)])
              for i, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def _cli_inputs() -> dict:
    """File name -> text of every input the commands read."""
    rng = np.random.default_rng(0)
    walk = np.cumsum(rng.standard_normal(260))
    drift = 0.01 * rng.standard_normal(400) + 0.0005
    _, model1 = synth.simulate_model1(synth.default_params(1, n=1008, seed=0))
    _, model1_s1 = synth.simulate_model1(synth.default_params(1, n=1008, seed=1))
    _, model1_s1_n300 = synth.simulate_model1(synth.default_params(1, n=300, seed=1))
    index_rng = np.random.default_rng(0)  # index levels: about 1200, moves about 12
    prices = 100 * np.exp(np.cumsum(drift))
    fall, rise = 100 * np.exp(-0.002 * np.arange(400)), 100 * np.exp(0.002 * np.arange(400))
    return {
        "walk.csv": _csv(value=walk),
        "walk1000.csv": _csv(value=1000 * walk),
        "index.csv": _csv(value=1200 + np.cumsum(12 * index_rng.standard_normal(1008))),
        "reference.csv": _csv(value=model1),
        "reference-huge.csv": _csv(value=1e152 * model1),  # its weight grid overflows
        "reference-s1-x1e150.csv": _csv(value=1e150 * model1_s1),
        "reference-s1-x1e300.csv": _csv(value=1e300 * model1_s1),
        "model1-s1-n300-x1e153.csv": _csv(value=1e153 * model1_s1_n300),
        # its order-2 weight ceiling overflows to nan; order 1's is 3.4e306
        "walk-x1e306.csv": _csv(value=1e306 * np.cumsum(
            np.random.default_rng(0).standard_normal(400)) / 400),
        "latin.csv": b"date,value\n0,1\n1,2\n2,\xff\xfe\n",  # not UTF-8
        # 60 zeros, then 1e200: the first fold's squared forecast errors overflow
        "jump-x1e200.csv": _csv(value=np.where(np.arange(105) < 60, 0.0, 1e200)),
        "panel.csv": _csv(a=walk[:120], b=40 * walk[120:240] + 7,
                          c=0.2 * np.cumsum(rng.standard_normal(120)) - 3),
        "flat.csv": _csv(a=walk[:40], flat=np.full(40, 3.0)),
        "years.csv": _csv(**{"2020": walk[:30], "2021": np.arange(30.0)}),
        "bad.csv": "date,value\n0,1.0\n1,oops\n",
        "nan.csv": "date,value\n0,1.0\n1,2.0\n2,nan\n3,4.0\n4,5.0\n",
        "prices.csv": _csv(value=prices),
        "prices60.csv": _csv(value=prices[:60]),
        "rates.csv": _csv(value=np.full(400, 1e-4)),
        "rates-late.csv": "date,value\n" + "".join(f"{t},0.0001\n" for t in range(1000, 1400)),
        "rates-minus-1.csv": _csv(value=np.where(np.arange(400) == 51, -1.0, 1e-4)),
        "short.csv": _csv(value=np.full(40, 75.0)),
        "flat400.csv": _csv(value=np.full(400, 75.0)),
        "week.csv": "date,value\n2020-W01-3,1.0\n2020-W01-4,2.0\n2020-W01-5,3.0\n",
        # a falling market that triples five days from the end, the last day,
        # and a rising one that loses 70% five days from the end
        "ruin.csv": _csv(value=fall * np.where(np.arange(400) >= 395, 3.0, 1.0)),
        "ruin-last.csv": _csv(value=fall * np.where(np.arange(400) >= 399, 3.0, 1.0)),
        "crash.csv": _csv(value=rise * np.where(np.arange(400) >= 395, 0.3, 1.0)),
        # a rising market with one return to trade, a twentyfold move
        "jump.csv": _csv(value=rise[:22] * np.where(np.arange(22) == 21, 20.0, 1.0)),
        "filter.cfg": "# step trend\nkind = l1c\nlam = 0.0\n",
        "auto.cfg": "auto = TRUE\nstandardize = false\nt1 = 60\nt2 = 15\nm = 3\n"
                    "p = 3\nn_grid = 4\n",
        "multi.cfg": "kind = l1t-multi\nstandardize = true\nlambda_max_fraction = 0.05\n",
        "unknown.cfg": "far_out = 1\n",
        "column.cfg": "column = 2020\nlambda = 1\n",
        "out.cfg": "out = 123\nlambda = 1\n",
        "no.cfg": "auto = no\n",
        "abc.cfg": "auto = true\nt1 = abc\n",
        "noequals.cfg": "kind l1t\n",
        "calibrate.cfg": "t1 = 60\nt2 = 15\nm = 3\np = 3\nn-grid = 4\norder = 1\n",
        "simulate.cfg": "model = 2\nn = 120\nseed = 3\nout = sim.csv\n",
        "backtest.cfg": "model = hp\nvol_window = 20\nt3 = 30\nrate = 0.0001\n",
        "filter-unread.cfg": "kind = l1t\nstandardize = true\nlambda = 1\n",
        "backtest-unread.cfg": "model = ma\nn_grid = 3\n",
        "backtest-t1.cfg": "model = ma\nt1 = 60\n",
        "nested.cfg": "config = lambda.cfg\n",  # a config file that names another
        "lambda.cfg": "lambda = 1\n",
    }


def _cli_cases():
    cv = ["--t1", "60", "--t2", "15", "--m", "3", "--p", "3", "--n-grid", "4"]
    grid = ["--cv-m", "2", "--cv-p", "2", "--n-grid", "4"]  # what the L1 models read
    linear = ["--vol-window", "20", "--t3", "30"]  # ma, hp and l1-global read T3
    local = ["--vol-window", "20", "--t2", "15"]  # l1-local reads T2, l1-two-trend both
    reads = {"ma": linear, "hp": linear, "l1-local": [*local, *grid],
             "l1-global": [*linear, *grid], "l1-two-trend": [*local, "--t3", "30", *grid]}
    walk, panel = ["filter", "walk.csv"], ["filter", "panel.csv", "--kind", "l1t-multi"]
    yield "filter-default-kind", [*walk, "--lambda", "50"]
    yield "filter-l1t-zero", [*walk, "--kind", "l1t", "--lambda", "0"]
    yield "filter-l1t-fraction", [*walk, "--kind", "l1t", "--lambda-max-fraction", "0.05"]
    yield "filter-l1t-auto", [*walk, "--kind", "l1t", "--auto", *cv]
    yield "filter-l1t-solver", [*walk, "--lambda-max-fraction", "0.05", "--tol", "1e-6",
                                "--max-iter", "100"]
    yield "filter-l1c-fraction", [*walk, "--kind", "l1c", "--lambda-max-fraction", "0.1"]
    yield "filter-l1c-auto", [*walk, "--kind", "l1c", "--auto", *cv]
    yield "filter-l1c-x1000", ["filter", "walk1000.csv", "--kind", "l1c",
                               "--lambda-max-fraction", "0.1"]
    yield "filter-l1tc", [*walk, "--kind", "l1tc", "--lambda1", "2", "--lambda2", "20"]
    yield "filter-l1tc-order1", [*walk, "--kind", "l1tc", "--lambda1", "2", "--lambda2", "0"]
    yield "filter-hp", [*walk, "--kind", "hp", "--lambda", "1600"]
    yield "filter-hp-order1", [*walk, "--kind", "hp", "--order", "1",
                               "--lambda-max-fraction", "0.1"]
    yield "filter-paths", [*walk, "--lambda", "5", "--out", "t.csv", "--report", "r.json"]
    yield "filter-column", ["filter", "years.csv", "--column", "2020", "--lambda", "1"]
    yield "filter-multi", [*panel, "--lambda", "3"]
    yield "filter-multi-fraction", [*panel, "--lambda-max-fraction", "0.05"]
    yield "filter-multi-std", [*panel, "--standardize", "--lambda", "0.5"]
    yield "filter-multi-std-fraction", [*panel, "--standardize",
                                        "--lambda-max-fraction", "0.05"]
    yield "filter-multi-std-auto", [*panel, "--standardize", "--auto", *cv]
    yield "filter-multi-zero", [*panel, "--lambda", "0"]
    yield "filter-multi-std-zero", [*panel, "--standardize", "--lambda", "0"]
    # usage errors
    yield "filter-no-weight", walk
    yield "filter-l1tc-one-weight", [*walk, "--kind", "l1tc", "--lambda1", "1"]
    yield "filter-hp-auto", [*walk, "--kind", "hp", "--auto"]
    yield "filter-l1t-order", [*walk, "--kind", "l1t", "--order", "1", "--lambda", "1"]
    yield "filter-two-weights", [*walk, "--lambda", "1", "--lambda-max-fraction", "0.5"]
    yield "filter-windows-without-auto", [*walk, "--lambda", "1", "--t1", "60"]
    yield "filter-unknown-kind", [*walk, "--kind", "wavelet"]
    yield "filter-bad-number", [*walk, "--lambda", "abc"]
    yield "filter-bad-order", [*walk, "--kind", "hp", "--order", "3", "--lambda", "1"]
    yield "filter-negative-weight", [*walk, "--lambda", "-1"]
    yield "filter-unknown-flag", [*walk, "--lambda", "1", "--bogus"]
    for kind in ("l1t", "l1c", "hp"):
        for bad in ("inf", "nan"):
            yield f"filter-{kind}-{bad}-weight", [*walk, "--kind", kind, "--lambda", bad]
    yield "filter-l1tc-inf-weight", [*walk, "--kind", "l1tc", "--lambda1", "inf",
                                     "--lambda2", "1"]
    yield "filter-multi-inf-weight", [*panel, "--lambda", "inf"]
    yield "filter-no-input", ["filter"]
    # weight faults, reported before the missing input is read
    yield "filter-missing-no-weight", ["filter", "nope.csv"]
    yield "filter-missing-l1tc-one-weight", ["filter", "nope.csv", "--kind", "l1tc",
                                             "--lambda1", "1"]
    yield "filter-missing-nan-weight", ["filter", "nope.csv", "--lambda", "nan"]
    yield "unknown-command", ["explode"]
    # data errors
    yield "filter-missing-file", ["filter", "nope.csv", "--lambda", "1"]
    yield "filter-bad-csv", ["filter", "bad.csv", "--lambda", "1"]
    yield "filter-nan-cell", ["filter", "nan.csv", "--lambda", "1"]
    yield "filter-two-columns", ["filter", "years.csv", "--lambda", "1"]
    yield "filter-multi-std-constant", ["filter", "flat.csv", "--kind", "l1t-multi",
                                        "--standardize", "--lambda", "1"]
    yield "filter-auto-short", [*walk, "--auto"]
    yield "filter-week-dates", ["filter", "week.csv", "--lambda", "1"]
    yield "filter-not-utf8", ["filter", "latin.csv", "--lambda", "1"]
    # numerical failures
    yield "filter-index-level", ["filter", "index.csv", "--lambda-max-fraction", "0.1"]
    yield "filter-max-iter", [*walk, "--lambda-max-fraction", "0.2", "--max-iter", "1"]
    yield "filter-l1t-huge-weight", [*walk, "--kind", "l1t", "--lambda", "1e308"]
    yield "filter-l1c-x1e153", ["filter", "model1-s1-n300-x1e153.csv", "--kind", "l1c",
                                "--lambda-max-fraction", "0.1"]
    yield "filter-hp-huge-weight", [*walk, "--kind", "hp", "--lambda", "1e308"]
    yield "filter-ceiling-x1e306", ["filter", "walk-x1e306.csv", "--lambda-max-fraction", "0.1"]
    yield "filter-l1c-fraction-x1e306", ["filter", "walk-x1e306.csv", "--kind", "l1c",
                                         "--lambda-max-fraction", "1e300"]

    yield "calibrate-reference", ["calibrate", "reference.csv"]
    yield "calibrate-options", ["calibrate", "walk.csv", *cv, "--order", "1",
                                "--report", "cv.json", "--errors-out", "cv.csv"]
    yield "calibrate-short", ["calibrate", "walk.csv"]
    yield "calibrate-bad-windows", ["calibrate", "walk.csv", "--t1", "10", "--t2", "15"]
    yield "calibrate-t2-2", ["calibrate", "walk.csv", "--t1", "10", "--t2", "2"]
    yield "calibrate-overflow", ["calibrate", "reference-huge.csv"]
    yield "calibrate-stalled-x1e150", ["calibrate", "reference-s1-x1e150.csv"]
    yield "calibrate-overflow-x1e300", ["calibrate", "reference-s1-x1e300.csv"]
    yield "calibrate-forecast-overflow", ["calibrate", "jump-x1e200.csv", *cv, "--order", "1"]

    for model in (1, 2, 3, 4):
        yield f"simulate-model{model}", ["simulate", "--model", str(model), "--n", "300",
                                         "--seed", "7"]
    yield "simulate-defaults", ["simulate", "--n", "50"]
    yield "simulate-params", ["simulate", "--model", "4", "--n", "100", "--p", "0.9",
                              "--b", "3", "--sigma", "0.5", "--theta", "0.3", "--out", "m.csv"]
    yield "simulate-bad-model", ["simulate", "--model", "9"]
    yield "simulate-bad-params", ["simulate", "--p", "1.5"]

    for model in TREND_MODELS:
        yield f"backtest-{model}", ["backtest", "prices.csv", "--model", model, *reads[model]]
    yield "backtest-rates", ["backtest", "prices.csv", "--model", "ma", "--rates",
                             "rates.csv", *linear]
    yield "backtest-options", ["backtest", "prices.csv", "--model", "hp", "--rate", "1e-4",
                               "--risk-aversion", "2", "--alpha-min", "0", "--alpha-max",
                               "0.5", *linear]
    yield "backtest-hp-lambda", ["backtest", "prices.csv", "--model", "hp", "--hp-lambda",
                                 "500", *linear]
    yield "backtest-short", ["backtest", "short.csv"]
    yield "backtest-ma-short", ["backtest", "short.csv", "--model", "ma"]
    yield "backtest-rates-other-dates", ["backtest", "prices.csv", "--model", "ma", "--rates",
                                         "rates-late.csv", *linear]
    yield "backtest-rate-and-rates", ["backtest", "prices.csv", "--model", "ma", "--rate",
                                      "0.5", "--rates", "rates.csv", *linear]
    ma = ["--model", "ma", "--t3", "20", "--vol-window", "20"]
    yield "backtest-ma-local-windows-unread", ["backtest", "prices.csv", *ma, "--t2", "0"]
    yield "backtest-ma-n-grid", ["backtest", "prices.csv", "--model", "ma", "--n-grid", "3"]
    yield "backtest-t1-flag", ["backtest", "prices.csv", *ma, "--t1", "60"]
    yield "backtest-ruin", ["backtest", "ruin.csv", *ma]
    yield "backtest-ruin-last-day", ["backtest", "ruin-last.csv", *ma]
    yield "backtest-ruin-levered", ["backtest", "crash.csv", *ma, "--alpha-max", "4"]
    yield "backtest-bad-alpha", ["backtest", "prices.csv", "--alpha-min", "1",
                                 "--alpha-max", "0"]
    yield "backtest-alpha-nan", ["backtest", "prices.csv", *ma, "--alpha-min", "nan"]
    yield "backtest-risk-aversion-0", ["backtest", "prices.csv", *ma, "--risk-aversion", "0"]
    yield "backtest-l1-local-t3-unread", ["backtest", "prices.csv", "--model", "l1-local",
                                          *reads["l1-local"], "--t3", "1"]
    yield "backtest-l1-global-t2-unread", ["backtest", "prices.csv", "--model", "l1-global",
                                           *reads["l1-global"], "--t2", "15"]
    # the last --t3 wins over the one in linear
    yield "backtest-hp-window-2", ["backtest", "prices.csv", "--model", "hp", *linear,
                                   "--t3", "2"]
    yield "backtest-l1-global-t3-2", ["backtest", "prices.csv", "--model", "l1-global",
                                      *reads["l1-global"], "--t3", "2"]
    yield "backtest-missing-hp-window-2", ["backtest", "nope.csv", "--model", "hp",
                                           "--t3", "2"]
    yield "backtest-rate-nan", ["backtest", "prices.csv", *ma, "--rate", "nan"]
    yield "backtest-rate-minus-1", ["backtest", "flat400.csv", *ma, "--rate", "-1"]
    for bad in ("nan", "-2"):  # reported before the missing input is read
        yield f"backtest-missing-rate-{bad}", ["backtest", "nope.csv", *ma, "--rate", bad]
    yield "backtest-rates-empty-path", ["backtest", "prices.csv", *ma, "--rates", ""]
    yield "backtest-rates-minus-1", ["backtest", "flat400.csv", *ma, "--rates",
                                     "rates-minus-1.csv"]
    yield "backtest-rate-20", ["backtest", "prices60.csv", *ma, "--rate", "20"]
    yield "backtest-wealth-overflow", ["backtest", "flat400.csv", *ma, "--rate", "20"]
    yield "backtest-one-return-x20", ["backtest", "jump.csv", *ma]
    yield "backtest-bad-model", ["backtest", "prices.csv", "--model", "oracle"]

    yield "config-filter", [*walk, "--config", "filter.cfg"]
    yield "config-flag-wins", [*walk, "--config", "filter.cfg", "--kind", "l1t"]
    yield "config-switches", [*walk, "--config", "auto.cfg"]
    yield "config-multi", ["filter", "panel.csv", "--config", "multi.cfg"]
    yield "config-numeric-column", ["filter", "years.csv", "--config", "column.cfg"]
    yield "config-numeric-out", [*walk, "--config", "out.cfg"]
    yield "config-calibrate", ["calibrate", "walk.csv", "--config", "calibrate.cfg"]
    yield "config-simulate", ["simulate", "--config", "simulate.cfg"]
    yield "config-backtest", ["backtest", "prices.csv", "--config", "backtest.cfg"]
    yield "config-backtest-t1", ["backtest", "prices.csv", "--config", "backtest-t1.cfg"]
    yield "config-filter-unread", [*walk, "--config", "filter-unread.cfg"]
    yield "config-backtest-unread", ["backtest", "prices.csv", "--config",
                                     "backtest-unread.cfg"]
    yield "config-unknown-key", [*walk, "--config", "unknown.cfg"]
    yield "config-switch-no", [*walk, "--config", "no.cfg"]
    yield "config-bad-number", [*walk, "--config", "abc.cfg"]
    yield "config-no-equals", [*walk, "--config", "noequals.cfg"]
    yield "config-missing", [*walk, "--config", "nope.cfg"]
    yield "config-names-config", [*walk, "--config", "nested.cfg"]


def _run_cli(argv, inputs) -> str:
    """Run one command in a fresh directory holding ``inputs``."""
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, text in inputs.items():
                Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except Exception as exc:  # escaping main is itself an outcome
                    code = f"raised {type(exc).__name__}"
                    print(exc, file=err)
            written = sorted(p.name for p in Path().iterdir() if p.name not in inputs)
            h = hashlib.sha256()
            for name in written:
                h.update(name.encode() + b"\0" + Path(name).read_bytes() + b"\0")
        finally:
            os.chdir(home)
    h.update(out.getvalue().encode() + b"\0" + err.getvalue().encode())
    return (f"exit {code} files {','.join(written) or '-'} {h.hexdigest()} "
            f"stderr {err.getvalue().strip()!r} warnings {len(caught)}")


def main():
    lines = []
    for name, digest, solve, args in (*_filter_cases(), *_cv_cases(), *_zero_weight_cases(),
                                      *_multivariate_cases()):
        try:
            line = f"{name} ok {digest(solve(*args))}"
        except Exception as exc:  # the failure itself is part of the digest
            line = f"{name} fail {type(exc).__name__}: {exc}"
        lines.append(line)
        print(line, flush=True)
    inputs = _cli_inputs()
    for name, argv in _cli_cases():
        line = f"cli-{name} {_run_cli(argv, inputs)}"
        lines.append(line)
        print(line, flush=True)
    failed = sum(" fail " in line for line in lines)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"total {len(lines)} cases, {failed} failed, sha256 {total}")


if __name__ == "__main__":
    main()
