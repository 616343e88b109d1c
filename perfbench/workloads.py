"""The benchmark's four seeded workloads: inputs, operations and output checks.

Every workload runs closed-loop with one client: the next operation starts
when the previous one returns. An operation is one backtest day, one
``trendkit calibrate`` command or one filter call; a pass is one run over
all of a workload's operations. Passes repeat the same inputs, so every
pass does the same work.

Outputs are checked two ways. Certificates need no reference: every
converged L1 solve must show a duality gap within the solver tolerance, a
dual inside its box and a trend equal to y - D'nu. References recorded at
the commit that introduced the benchmark (``refs/<workload>/seed-<n>.npz``,
written by ``record_refs.py``) must be reproduced: lambda* exactly, trends
and allocations within a bound derived from the 1e-8 gap certificate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trendkit import calibration, cli, filters, strategy, synth

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

TOL = 1e-8  # the solver's default stopping tolerance, which certificates check
EPS = np.finfo(float).eps
STENCILS = {1: np.array([-1.0, 1.0]), 2: np.array([1.0, -2.0, 1.0])}


def sub_seed(seed: int, *tags: int) -> int:
    """Independent synth seed for one input of a workload."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


@dataclass
class PassResult:
    """What one pass over a workload's operations did."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    work: float = 0.0       # days, commands or converged input samples
    seconds: float = 0.0    # summed wall time of the operations
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # certificate violations
    command_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    summaries: list = field(default_factory=list)  # traced CLI processes


def load_ref(workload: str, seed: int):
    path = REFS / workload / f"seed-{seed}.npz"
    if not path.exists():
        return None
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


# ---------------------------------------------------------------- backtests


class Backtest:
    """``run_backtest`` on model-2 drifting walks mapped to prices.

    Each walk gets its own backtest of ``days`` decision days. Solver cost
    depends on the path, so spreading the days over several independent
    walks keeps one seed's path from setting the whole run's speed.
    """

    def __init__(self, name, model, walks, days):
        self.name, self.walks, self.days = name, walks, days
        self.cfg = strategy.StrategyConfig(trend_model=model)
        self.unit = "days_per_s"

    def first_day(self) -> int:
        """Index of the first decision day: the strategy's history rule."""
        cfg = self.cfg
        if cfg.trend_model == "hp":
            need = cfg.hp_window
        else:  # l1-global cross-validates at test width T3, training 4 * T3
            need = max(cfg.cv_m * cfg.T3, 4 * cfg.T3 + cfg.cv_p * cfg.T3)
        return max(need - 1, cfg.vol_window)

    def setup(self, seed, workdir):
        self.t0 = self.first_day()
        self.prices = []
        synth_s = 0.0
        for walk in range(self.walks):
            start = time.perf_counter()
            path = synth.simulate_model2(synth.default_params(
                2, n=self.t0 + self.days, seed=sub_seed(seed, walk)))
            synth_s += time.perf_counter() - start
            self.prices.append(100.0 * np.exp(1e-3 * path.values))
        return synth_s

    def warm_up(self):
        strategy.run_backtest(self.prices[0][:self.t0 + 2], 0.0, self.cfg)

    def run_pass(self, traced=False) -> PassResult:
        out = PassResult(attempted=self.walks * self.days)
        # lambda* of each day, read from what the strategy's cv_filter returns
        lambdas = []
        original = None if self.cfg.trend_model == "hp" else getattr(strategy, "cv_filter", None)
        if original is not None:
            def observed(*args, **kwargs):
                report = original(*args, **kwargs)
                lambdas.append(report.lambda_star)
                return report
            strategy.cv_filter = observed
        allocations = []
        try:
            for prices in self.prices:
                start = time.perf_counter()
                try:
                    report = strategy.run_backtest(prices, 0.0, self.cfg)
                except Exception as exc:  # an aborted backtest fails all its days
                    out.seconds += time.perf_counter() - start
                    out.failed += self.days
                    out.failures[type(exc).__name__] += self.days
                    allocations.append(np.full(self.days, np.nan))
                    continue
                out.seconds += time.perf_counter() - start
                if report.failures:  # run_backtest keeps the previous allocation
                    out.failed += len(report.failures)
                    out.failures["NumericalError"] += len(report.failures)
                if report.start_index != self.t0 or len(report.allocations) != self.days:
                    out.problems.append(
                        f"backtest started at {report.start_index} with "
                        f"{len(report.allocations)} days; expected {self.t0} and {self.days}")
                allocations.append(np.asarray(report.allocations.values, dtype=float))
        finally:
            if original is not None:
                strategy.cv_filter = original
        out.work = out.attempted - out.failed
        out.outputs["alloc"] = np.concatenate(allocations)
        if original is not None:
            out.outputs["lambda_star"] = np.asarray(lambdas, dtype=float)
        return out

    def alloc_bound(self) -> np.ndarray:
        """Largest allocation change per day that a certified re-solve allows."""
        cfg = self.cfg
        if cfg.trend_model == "hp":
            # The quadratic filter is one banded Cholesky solve with condition
            # number about 1 + 32 * hp_lambda (8e9 at T3 = 520): a relative
            # forward error near cond * eps = 8.5e-7 bounds any re-solve.
            return np.full(self.walks * self.days, 1e-6)
        w = cfg.vol_window
        var = []
        for prices in self.prices:
            returns = np.diff(np.log(prices))
            var.extend(np.mean(returns[t - w:t] ** 2) for t in range(self.t0, len(prices)))
        var = np.maximum(np.asarray(var), 1e-10)
        # The drift is the last slope x[-1] - x[-2] of the final L1 fit. Both
        # fits sit within sqrt(2 * gap) of the optimum (the primal is
        # 1-strongly convex), so the slopes differ by at most
        # sqrt(2) * 2 * sqrt(2 * TOL); dividing by risk aversion times the
        # variance gives the allocation, which clipping can only shrink.
        slope = np.sqrt(2.0) * 2.0 * np.sqrt(2.0 * TOL)
        return np.minimum(slope / (cfg.risk_aversion * var), cfg.alpha_max - cfg.alpha_min)

    def check(self, outputs, ref) -> list:
        problems = []
        alloc = outputs["alloc"]
        if alloc.shape != ref["alloc"].shape:
            problems.append("allocations of the wrong length")
        else:
            excess = np.abs(alloc - ref["alloc"]) - self.alloc_bound()
            if not np.all(excess <= 0):  # NaN marks a failed backtest
                day = int(np.argmax(np.where(np.isnan(excess), np.inf, excess)))
                problems.append(
                    f"allocation of day {day} is {alloc[day]!r}, reference "
                    f"{ref['alloc'][day]!r}")
        if "lambda_star" in ref and "lambda_star" in outputs:
            if not np.array_equal(outputs["lambda_star"], ref["lambda_star"]):
                problems.append("daily lambda* differs from the reference")
        return problems


# ------------------------------------------------------------ calibrate CLI


class Calibrate:
    """``trendkit calibrate`` on seeded model-1 CSVs, one process per command."""

    ARGS = ("--t1", "400", "--t2", "50", "--m", "12", "--p", "12", "--n-grid", "15")

    def __init__(self, name, files, samples):
        self.name, self.files, self.samples = name, files, samples
        self.unit = "calibrations_per_s"

    def setup(self, seed, workdir):
        self.workdir = Path(workdir)
        self.env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        self.csvs = []
        synth_s = 0.0
        for k in range(self.files):
            start = time.perf_counter()
            _, observed = synth.simulate_model1(
                synth.default_params(1, n=self.samples, seed=sub_seed(seed, k)))
            synth_s += time.perf_counter() - start
            path = self.workdir / f"model1-{k}.csv"
            cli.write_csv(path, np.arange(self.samples), [("value", observed)])
            self.csvs.append(path)
        return synth_s

    def _command(self, csv, traced):
        if traced:
            summary = csv.with_suffix(".trace.json")
            return [sys.executable, str(HERE / "traced_cli.py"), str(summary),
                    "calibrate", str(csv), *self.ARGS], summary
        return [sys.executable, "-m", "trendkit.cli", "calibrate", str(csv), *self.ARGS], None

    def _run(self, csv, traced):
        argv, summary = self._command(csv, traced)
        report = csv.with_suffix(".cv-report.json")
        report.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, cwd=self.workdir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return proc, time.perf_counter() - start, report, summary

    def warm_up(self):
        self._run(self.csvs[0], traced=False)

    def run_pass(self, traced=False) -> PassResult:
        out = PassResult(attempted=len(self.csvs))
        lambdas = np.full(len(self.csvs), np.nan)
        for k, csv in enumerate(self.csvs):
            proc, seconds, report_path, summary = self._run(csv, traced)
            out.seconds += seconds
            out.command_s.append(seconds)
            if summary is not None and summary.exists():
                traced_run = json.loads(summary.read_text())
                out.import_s.append(traced_run["import_s"])
                out.summaries.append(traced_run["summary"])
            if proc.returncode != 0:
                out.failed += 1
                out.failures[f"exit-{proc.returncode}"] += 1
                continue
            try:
                report = json.loads(report_path.read_text())
            except (OSError, ValueError) as exc:
                out.failed += 1
                out.failures[type(exc).__name__] += 1
                continue
            out.work += 1
            lambdas[k] = report["lambda_star"]
            best = report["grid"][int(np.argmin(report["errors"]))]
            if report["lambda_star"] != best:
                out.problems.append(f"{csv.name}: lambda* is not the grid minimum")
        out.outputs["lambda_star"] = lambdas
        return out

    def check(self, outputs, ref) -> list:
        if not np.array_equal(outputs["lambda_star"], ref["lambda_star"], equal_nan=True):
            return ["lambda* per CSV differs from the reference"]
        return []


# -------------------------------------------------------------- filter sweep


def transpose_apply(nu, order):
    """D' nu for the order-1 or order-2 difference operator."""
    return np.convolve(nu, STENCILS[order])


class FilterSweep:
    """Single L1 filter calls across sizes, weights and input scales."""

    # (kind, n) pairs; l1t and l1c are order-2 and order-1 l1_filter calls.
    SIZES = (("l1t", 2080), ("l1c", 2080), ("l1tc", 2080), ("l1tc", 5000),
             ("l1t", 100_000), ("l1c", 100_000))
    FRACTIONS = (0.01, 0.1)
    SCALES = (1.0, 1000.0)

    def __init__(self, name, extra_walks):
        self.name, self.extra_walks = name, extra_walks
        self.unit = "filter_samples_per_s"

    def setup(self, seed, workdir):
        walks = {}
        synth_s = 0.0
        self.cases = []
        for walk in range(1 + self.extra_walks):
            for kind, n in self.SIZES:
                if walk > 0 and n > 5000:
                    continue  # the n=1e5 solves run on one walk only
                if (walk, n) not in walks:
                    start = time.perf_counter()
                    walks[walk, n] = synth.simulate_model2(synth.default_params(
                        2, n=n, b=0.0, sigma=1.0, seed=sub_seed(seed, walk, n))).values
                    synth_s += time.perf_counter() - start
                for scale in self.SCALES:
                    y = scale * walks[walk, n]
                    for frac in self.FRACTIONS:
                        if kind == "l1tc":
                            lam = (frac * calibration.lambda_max(y, 1),
                                   frac * calibration.lambda_max(y, 2))
                        else:
                            lam = frac * calibration.lambda_max(y, 2 if kind == "l1t" else 1)
                        key = f"{kind}-n{n}-w{walk}-x{scale:g}-f{frac:g}"
                        self.cases.append((key, kind, y, lam))
        return synth_s

    def _solve(self, kind, y, lam):
        if kind == "l1tc":
            return filters.l1tc_filter(y, lam[0], lam[1])
        return filters.l1_filter(y, lam, order=2 if kind == "l1t" else 1)

    def warm_up(self):
        _, kind, y, lam = self.cases[0]
        self._solve(kind, y, lam)

    def run_pass(self, traced=False) -> PassResult:
        out = PassResult(attempted=len(self.cases))
        for key, kind, y, lam in self.cases:
            start = time.perf_counter()
            try:
                result = self._solve(kind, y, lam)
            except Exception as exc:
                out.seconds += time.perf_counter() - start
                out.failed += 1
                out.failures[type(exc).__name__] += 1
                continue
            out.seconds += time.perf_counter() - start
            if result.diagnostics is None or not result.diagnostics.converged:
                out.failed += 1
                out.failures["NotConverged"] += 1
                continue
            out.work += len(y)
            out.problems.extend(f"{key}: {p}" for p in certify(kind, y, lam, result))
            out.outputs[key] = (y - result.trend, float(result.diagnostics.duality_gap))
        return out

    def check(self, outputs, ref) -> list:
        problems = []
        cases = {key: y for key, _, y, _ in self.cases}
        for name in ref:
            if not name.startswith("r_"):
                continue
            key = name[2:]
            if key not in outputs:
                problems.append(f"{key}: converged at the reference, not now")
                continue
            residual, gap = outputs[key]
            ref_residual = ref[name].astype(float)
            ref_gap = float(ref["g_" + key])
            y = cases[key]
            # x - x_ref equals the difference of the residuals y - x. Both
            # trends lie within sqrt(2 * gap) of the optimum; the reference
            # residual is stored in float32, which adds at most 2^-24 of its
            # norm; summation order adds a few eps of y.
            bound = (np.sqrt(2 * gap) + np.sqrt(2 * ref_gap)
                     + 2.0 ** -23 * np.linalg.norm(ref_residual)
                     + 16 * EPS * np.sqrt(len(y)) * np.max(np.abs(y)))
            distance = float(np.linalg.norm(residual - ref_residual))
            if distance > bound:
                problems.append(f"{key}: trend is {distance:.3g} from the reference "
                                f"(bound {bound:.3g})")
        return problems


def certify(kind, y, lam, result) -> list:
    """Check a converged solve from its public FilterResult alone."""
    problems = []
    gap = result.diagnostics.duality_gap
    if not gap <= TOL:
        problems.append(f"duality gap {gap:.3g} above {TOL:g}")
    nu = result.dual
    n = len(y)
    if kind == "l1tc":
        parts = ((nu[:n - 1], lam[0], 1), (nu[n - 1:], lam[1], 2))
    else:
        parts = ((nu, lam, 2 if kind == "l1t" else 1),)
    fitted = y.copy()
    for part, weight, order in parts:
        if np.any(np.abs(part) > weight):
            problems.append(f"order-{order} dual leaves its box |nu| <= {weight:.6g}")
        fitted -= transpose_apply(part, order)
    scale = np.max(np.abs(y)) + 4 * max(np.max(np.abs(p)) for p, _, _ in parts)
    if not np.all(np.abs(result.trend - fitted) <= 16 * EPS * scale):
        problems.append("trend differs from y - D'nu")
    return problems


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Backtest("backtest-l1-global", "l1-global", walks=8, days=2),
        Calibrate("calibrate-reference", files=8, samples=1008),
        Backtest("backtest-hp", "hp", walks=1, days=6000),
        FilterSweep("filter-sweep", extra_walks=3),
    )
}
