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
``l1-global`` backtest's.

Then it runs ``trendkit`` commands through ``trendkit.cli.main``, each in a
fresh temporary directory holding the same seeded input files, and prints
one line per command: the exit code, the names and a SHA-256 of the files
it wrote together with its standard output and error, its standard error
text, and how many Python warnings it raised. The commands cover every
filter kind and weight selection, calibrate, the four simulated models,
every backtest trend model, config files, and each usage (1), data (2) and
numerical (3) exit.

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
from trendkit.calibration import CVConfig, cv_filter, global_cv_config, lambda_max
from trendkit.filters import hp_filter, l1_filter, l1tc_filter
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


def _filter_cases():
    for n in SIZES:
        for seed in SEEDS:
            walk = np.cumsum(np.random.default_rng(seed).standard_normal(n))
            for scale in SCALES:
                y = scale * walk
                ceilings = {1: lambda_max(y, 1), 2: lambda_max(y, 2)}
                for frac in FRACTIONS:
                    tag = f"n{n}-s{seed}-x{scale:g}-f{frac:g}"
                    for order in (1, 2):
                        lam = frac * ceilings[order]
                        yield f"hp{order}-{tag}", _filter_digest, hp_filter, (y, lam, order)
                        yield f"l1o{order}-{tag}", _filter_digest, l1_filter, (y, lam, order)
                    yield (f"l1tc-{tag}", _filter_digest, l1tc_filter,
                           (y, frac * ceilings[1], frac * ceilings[2]))


def _cv_cases():
    reference = CVConfig()
    l1_global = global_cv_config(StrategyConfig().cv_config())
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
    index_rng = np.random.default_rng(0)  # index levels: about 1200, moves about 12
    return {
        "walk.csv": _csv(value=walk),
        "index.csv": _csv(value=1200 + np.cumsum(12 * index_rng.standard_normal(1008))),
        "reference.csv": _csv(value=model1),
        "panel.csv": _csv(a=walk[:120], b=40 * walk[120:240] + 7,
                          c=0.2 * np.cumsum(rng.standard_normal(120)) - 3),
        "flat.csv": _csv(a=walk[:40], flat=np.full(40, 3.0)),
        "years.csv": _csv(**{"2020": walk[:30], "2021": np.arange(30.0)}),
        "bad.csv": "date,value\n0,1.0\n1,oops\n",
        "prices.csv": _csv(value=100 * np.exp(np.cumsum(drift))),
        "rates.csv": _csv(value=np.full(400, 1e-4)),
        "short.csv": _csv(value=np.full(40, 75.0)),
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
        "backtest.cfg": "model = hp\nvol_window = 20\nt1 = 60\nt2 = 15\nt3 = 30\n"
                        "cv_m = 2\ncv_p = 2\nn_grid = 4\nrate = 0.0001\n",
    }


def _cli_cases():
    cv = ["--t1", "60", "--t2", "15", "--m", "3", "--p", "3", "--n-grid", "4"]
    trade = ["--vol-window", "20", "--t1", "60", "--t2", "15", "--t3", "30",
             "--cv-m", "2", "--cv-p", "2", "--n-grid", "4"]
    walk, panel = ["filter", "walk.csv"], ["filter", "panel.csv", "--kind", "l1t-multi"]
    yield "filter-default-kind", [*walk, "--lambda", "50"]
    yield "filter-l1t-zero", [*walk, "--kind", "l1t", "--lambda", "0"]
    yield "filter-l1t-fraction", [*walk, "--kind", "l1t", "--lambda-max-fraction", "0.05"]
    yield "filter-l1t-auto", [*walk, "--kind", "l1t", "--auto", *cv]
    yield "filter-l1t-solver", [*walk, "--lambda-max-fraction", "0.05", "--tol", "1e-6",
                                "--max-iter", "100"]
    yield "filter-l1c-fraction", [*walk, "--kind", "l1c", "--lambda-max-fraction", "0.1"]
    yield "filter-l1c-auto", [*walk, "--kind", "l1c", "--auto", *cv]
    yield "filter-l1tc", [*walk, "--kind", "l1tc", "--lambda1", "2", "--lambda2", "20"]
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
    # usage errors
    yield "filter-no-weight", walk
    yield "filter-l1tc-one-weight", [*walk, "--kind", "l1tc", "--lambda1", "1"]
    yield "filter-hp-auto", [*walk, "--kind", "hp", "--auto"]
    yield "filter-unknown-kind", [*walk, "--kind", "wavelet"]
    yield "filter-bad-number", [*walk, "--lambda", "abc"]
    yield "filter-bad-order", [*walk, "--kind", "hp", "--order", "3", "--lambda", "1"]
    yield "filter-negative-weight", [*walk, "--lambda", "-1"]
    yield "filter-unknown-flag", [*walk, "--lambda", "1", "--bogus"]
    yield "filter-no-input", ["filter"]
    yield "unknown-command", ["explode"]
    # data errors
    yield "filter-missing-file", ["filter", "nope.csv", "--lambda", "1"]
    yield "filter-bad-csv", ["filter", "bad.csv", "--lambda", "1"]
    yield "filter-two-columns", ["filter", "years.csv", "--lambda", "1"]
    yield "filter-multi-std-constant", ["filter", "flat.csv", "--kind", "l1t-multi",
                                        "--standardize", "--lambda", "1"]
    yield "filter-auto-short", [*walk, "--auto"]
    # numerical failures
    yield "filter-index-level", ["filter", "index.csv", "--lambda-max-fraction", "0.1"]
    yield "filter-max-iter", [*walk, "--lambda-max-fraction", "0.2", "--max-iter", "1"]

    yield "calibrate-reference", ["calibrate", "reference.csv"]
    yield "calibrate-options", ["calibrate", "walk.csv", *cv, "--t3", "45", "--order", "1",
                                "--report", "cv.json", "--errors-out", "cv.csv"]
    yield "calibrate-short", ["calibrate", "walk.csv"]
    yield "calibrate-bad-windows", ["calibrate", "walk.csv", "--t1", "10", "--t2", "15"]

    for model in (1, 2, 3, 4):
        yield f"simulate-model{model}", ["simulate", "--model", str(model), "--n", "300",
                                         "--seed", "7"]
    yield "simulate-defaults", ["simulate", "--n", "50"]
    yield "simulate-params", ["simulate", "--model", "4", "--n", "100", "--p", "0.9",
                              "--b", "3", "--sigma", "0.5", "--theta", "0.3", "--out", "m.csv"]
    yield "simulate-bad-model", ["simulate", "--model", "9"]
    yield "simulate-bad-params", ["simulate", "--p", "1.5"]

    for model in TREND_MODELS:
        yield f"backtest-{model}", ["backtest", "prices.csv", "--model", model, *trade]
    yield "backtest-rates", ["backtest", "prices.csv", "--model", "ma", "--rates",
                             "rates.csv", *trade]
    yield "backtest-options", ["backtest", "prices.csv", "--model", "hp", "--rate", "1e-4",
                               "--risk-aversion", "2", "--alpha-min", "0", "--alpha-max",
                               "0.5", "--hp-lambda", "500", "--ma-window", "40", *trade]
    yield "backtest-short", ["backtest", "short.csv"]
    yield "backtest-bad-alpha", ["backtest", "prices.csv", "--alpha-min", "1",
                                 "--alpha-max", "0"]
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
    yield "config-unknown-key", [*walk, "--config", "unknown.cfg"]
    yield "config-switch-no", [*walk, "--config", "no.cfg"]
    yield "config-bad-number", [*walk, "--config", "abc.cfg"]
    yield "config-no-equals", [*walk, "--config", "noequals.cfg"]
    yield "config-missing", [*walk, "--config", "nope.cfg"]


def _run_cli(argv, inputs) -> str:
    """Run one command in a fresh directory holding ``inputs``."""
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, text in inputs.items():
                Path(name).write_text(text)
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
    for name, digest, solve, args in (*_filter_cases(), *_cv_cases()):
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
