#!/usr/bin/env python3
"""Bit-for-bit digest of the solvers' outputs over a fixed seeded sweep.

Runs every filter and both cross-validation geometries on seeded inputs
and prints one line per case: ``ok`` and a SHA-256 of every output byte
(trend, dual, iteration count, gap, KKT residual, gap history; grid,
errors and fold errors for a cross-validation), or ``fail`` and the
failure's class and message. The last line is the total over all lines.

The sweep covers the quadratic filter at orders 1 and 2, ``l1_filter`` at
orders 1 and 2 and ``l1tc_filter``, each at n from 3 to 5000, input
scales x1 and x1000 and weights of 0.01 and 0.1 times lambda_max; then
``cv_filter`` at the reference calibration's geometry and at the
``l1-global`` backtest's. It calls public functions only, so it runs
unchanged against another checkout's sources:

    PYTHONPATH=src python scripts/solver_digest.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/solver_digest.py > before.txt
    diff before.txt after.txt

A solver change that is meant to keep every output shows no difference.
"""

import hashlib

import numpy as np

from trendkit import synth
from trendkit.calibration import CVConfig, cv_filter, global_cv_config, lambda_max
from trendkit.filters import hp_filter, l1_filter, l1tc_filter
from trendkit.strategy import StrategyConfig

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


def main():
    lines = []
    for name, digest, solve, args in (*_filter_cases(), *_cv_cases()):
        try:
            line = f"{name} ok {digest(solve(*args))}"
        except Exception as exc:  # the failure itself is part of the digest
            line = f"{name} fail {type(exc).__name__}: {exc}"
        lines.append(line)
        print(line, flush=True)
    failed = sum(" fail " in line for line in lines)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"total {len(lines)} cases, {failed} failed, sha256 {total}")


if __name__ == "__main__":
    main()
