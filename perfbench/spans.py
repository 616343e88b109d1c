"""Span tracing of trendkit from outside the package.

The package imports functions by name (``from .banded import band_solve``),
so a call goes through whichever module namespace the caller looked the
name up in. :class:`Tracer` therefore wraps every public function of the
traced modules under every name that binds it, in every trendkit module,
and restores the originals on :meth:`Tracer.uninstall`. A function that a
later refactor removes is simply not wrapped; metrics that need it read
zero and the function is listed in :data:`REQUIRED` so the report can say
it is absent.

Each call records one span: name, start, end, parent span and the class of
the exception that escaped, if any. Spans stay in memory until
:meth:`Tracer.summary` folds them into per-name aggregates, which are plain
JSON so summaries from several processes can be merged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("banded", "ipm", "filters", "calibration", "strategy", "cli", "synth")

# Functions the per-layer metrics are computed from, as "<layer>.<name>".
REQUIRED = (
    "banded.band_solve",
    "ipm.solve_box_qp",
    "ipm.newton_step",
    "ipm.residual",
    "filters.l1_filter",
    "filters.l1tc_filter",
    "filters.hp_filter",
    "calibration.cv_filter",
    "calibration.lambda_max",
    "strategy.run_backtest",
    "strategy.step_wealth",
    "cli.main",
)

_CLI_IO = ("cli.read_table", "cli.ingest_csv", "cli.write_csv", "cli.write_report")


def _band_solve_bytes(args, kwargs, result):
    """Bytes a band solve must touch: read the bands and the right-hand side,
    write the solution (computed from the array sizes, not measured)."""
    matrix = args[0] if args else kwargs["A"]
    return 8 * (matrix.bands.size + 2 * matrix.n)


def _ipm_outcome(args, kwargs, result):
    return [int(result.iterations), bool(result.converged)]


_EXTRACTORS = {
    "banded.band_solve": _band_solve_bytes,
    "ipm.solve_box_qp": _ipm_outcome,
}


def _empty_span():
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_s": [], "errors": {}}


class Tracer:
    """Wraps trendkit's public functions and records one span per call."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.errors = []
        self.extras = []
        self._stack = []
        self._saved = []  # (module, attribute, original) to restore

    def _wrap(self, fn, name):
        names, starts, ends = self.names, self.starts, self.ends
        parents, errors, extras, stack = self.parents, self.errors, self.extras, self._stack
        extract = _EXTRACTORS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            errors.append(None)
            extras.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                errors[i] = type(exc).__name__
                raise
            finally:
                stack.pop()
            ends[i] = clock()
            if extract is not None:
                extras[i] = extract(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every public function of LAYERS under all of its bindings."""
        modules = {layer: importlib.import_module(f"trendkit.{layer}") for layer in LAYERS}
        wrappers = {}
        spanned = set()
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                    spanned.add(f"{layer}.{attr}")
        for module in [importlib.import_module("trendkit"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        self.absent = [name for name in REQUIRED if name not in spanned]
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Fold the spans into mergeable per-name aggregates."""
        n = len(self.names)
        start = np.asarray(self.starts)
        end = np.asarray(self.ends)
        duration = end - start
        child = np.zeros(n)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += duration[i]
        self_time = duration - child

        spans = defaultdict(_empty_span)
        for i, name in enumerate(self.names):
            agg = spans[name]
            agg["calls"] += 1
            agg["total_s"] += float(duration[i])
            agg["self_s"] += float(self_time[i])
            agg["durations_s"].append(float(duration[i]))
            if self.errors[i] is not None:
                agg["errors"][self.errors[i]] = agg["errors"].get(self.errors[i], 0) + 1

        layer_of = [name.split(".", 1)[0] for name in self.names]
        extra = {
            "band_solve_bytes": 0,
            "ipm_iterations": [],
            "ipm_converged": 0,
            "cv_solves": 0,
            "filter_failures": {},
            "strategy_self_s": 0.0,
            "day_s": [],
            "cli_io_s": 0.0,
        }
        run_stamps = defaultdict(list)
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            if layer_of[i] == "strategy":
                extra["strategy_self_s"] += float(self_time[i])
            if name == "banded.band_solve" and self.extras[i] is not None:
                extra["band_solve_bytes"] += self.extras[i]
            elif name == "ipm.solve_box_qp" and self.extras[i] is not None:
                extra["ipm_iterations"].append(self.extras[i][0])
                extra["ipm_converged"] += self.extras[i][1]
            elif name == "filters.l1_filter" and self._has_ancestor(i, "calibration.cv_filter"):
                extra["cv_solves"] += 1
            elif name == "strategy.step_wealth" and parent >= 0 \
                    and self.names[parent] == "strategy.run_backtest":
                run_stamps[parent].append(float(end[i]))
            if (layer_of[i] == "filters" and self.errors[i] is not None
                    and (parent < 0 or layer_of[parent] != "filters")):
                cls = self.errors[i]
                extra["filter_failures"][cls] = extra["filter_failures"].get(cls, 0) + 1
            if name in _CLI_IO and (parent < 0 or self.names[parent] not in _CLI_IO):
                extra["cli_io_s"] += float(duration[i])
        # A backtest day ends when its wealth update returns; the first day
        # starts with run_backtest and the last one ends with it.
        for i, name in enumerate(self.names):
            if name == "strategy.run_backtest" and self.errors[i] is None:
                stamps = [float(start[i]), *run_stamps[i], float(end[i])]
                extra["day_s"].extend(np.diff(stamps).tolist())
        return {"spans": dict(spans), "extra": extra}

    def _has_ancestor(self, i, name):
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


def merge(summaries) -> dict:
    """Combine summaries taken in several processes: add counts and times,
    concatenate lists."""
    def add(into, other):
        for key, value in other.items():
            if isinstance(value, dict):
                add(into.setdefault(key, {}), value)
            elif isinstance(value, list):
                into.setdefault(key, []).extend(value)
            else:
                into[key] = into.get(key, 0) + value
        return into

    merged = {}
    for summary in summaries:
        add(merged, summary)
    return merged


# (name, unit, better) of every per-layer metric, in report order. The
# comment over each layer names the end-to-end metric (work_per_s is
# days_per_s, calibrations_per_s or filter_samples_per_s by workload) that a
# change to the layer should move, and where.
PER_LAYER = (
    # banded -> days_per_s on backtest-l1-global; filter_samples_per_s at n=1e5
    ("banded.band_solve.calls", "count", "lower"),
    ("banded.band_solve.self_ms", "ms", "lower"),
    ("banded.band_solve.us_p50", "us", "lower"),
    ("banded.band_solve.failed", "count", "lower"),
    ("banded.band_solve.computed_gbps", "GB/s", "higher"),
    # ipm -> days_per_s on backtest-l1-global, calibrations_per_s,
    # filter_samples_per_s; no change on backtest-hp, which makes no IPM call
    ("ipm.solve_box_qp.calls", "count", "lower"),
    ("ipm.solve_box_qp.self_ms", "ms", "lower"),
    ("ipm.iterations_total", "count", "lower"),
    ("ipm.iterations_p50", "count", "lower"),
    ("ipm.iterations_p90", "count", "lower"),
    ("ipm.newton_step.self_ms", "ms", "lower"),
    ("ipm.residual.calls", "count", "lower"),
    ("ipm.residual.self_ms", "ms", "lower"),
    ("ipm.line_search_trials_per_iter", "count", "lower"),
    ("ipm.ms_per_iter", "ms", "lower"),
    ("ipm.converged_ratio", "ratio", "higher"),
    # filters -> days_per_s on backtest-hp (system assembly);
    # filter_samples_per_s and ok_frac on filter-sweep
    ("filters.l1_filter.calls", "count", "lower"),
    ("filters.l1_filter.ms_p50", "ms", "lower"),
    ("filters.l1_filter.self_ms", "ms", "lower"),
    ("filters.l1tc_filter.ms_p50", "ms", "lower"),
    ("filters.l1tc_filter.self_ms", "ms", "lower"),
    ("filters.hp_filter.calls", "count", "lower"),
    ("filters.hp_filter.us_p50", "us", "lower"),
    ("filters.hp_filter.self_ms", "ms", "lower"),
    ("filters.failed.ConvergenceError", "count", "lower"),
    ("filters.failed.NotPositiveDefiniteError", "count", "lower"),
    ("filters.failed.ValueError", "count", "lower"),
    ("filters.failed.ZeroDivisionError", "count", "lower"),
    ("filters.failed.other", "count", "lower"),
    # calibration -> calibrations_per_s; days_per_s on backtest-l1-global
    ("calibration.cv_filter.calls", "count", "lower"),
    ("calibration.cv_filter.ms_p50", "ms", "lower"),
    ("calibration.cv_filter.self_ms", "ms", "lower"),
    ("calibration.lambda_max.calls", "count", "lower"),
    ("calibration.lambda_max.self_ms", "ms", "lower"),
    ("calibration.solves_per_cv", "count", "lower"),
    # strategy -> days_per_s on both backtests
    ("strategy.day_ms_p50", "ms", "lower"),
    ("strategy.day_ms_p99", "ms", "lower"),
    ("strategy.self_ms_per_day", "ms", "lower"),
    ("strategy.failed_days", "count", "lower"),
    # cli -> calibrations_per_s; setup_s on every workload
    ("cli.import_ms", "ms", "lower"),
    ("cli.command_ms_p50", "ms", "lower"),
    ("cli.io_ms", "ms", "lower"),
    # synth -> setup_s
    ("synth.ms", "ms", "lower"),
    # traced pass time over untraced pass time, minus one
    ("trace.overhead_pct", "%", "lower"),
)

# The p99 of day times is reported only with at least ten days beyond it.
_MIN_DAYS_FOR_P99 = 1000


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(merged: dict, failed_days: int, command_s, import_s,
                  synth_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics from merged span aggregates plus the figures the
    benchmark measures around the calls it makes itself.

    A metric of a layer that did not run on the workload reads 0.
    """
    spans, extra = merged["spans"], merged["extra"]

    def agg(name):
        return spans.get(name) or _empty_span()

    band = agg("banded.band_solve")
    qp = agg("ipm.solve_box_qp")
    residual = agg("ipm.residual")
    l1 = agg("filters.l1_filter")
    l1tc = agg("filters.l1tc_filter")
    hp = agg("filters.hp_filter")
    cv = agg("calibration.cv_filter")
    lmax = agg("calibration.lambda_max")
    iterations = extra["ipm_iterations"]
    iter_total = int(sum(iterations))
    days = extra["day_s"]
    failures = dict(extra["filter_failures"])
    named = {cls: failures.pop(cls, 0) for cls in
             ("ConvergenceError", "NotPositiveDefiniteError", "ValueError",
              "ZeroDivisionError")}
    commands = agg("cli.main")["calls"]

    m = {
        "banded.band_solve.calls": band["calls"],
        "banded.band_solve.self_ms": 1e3 * band["self_s"],
        "banded.band_solve.us_p50": 1e6 * _pct(band["durations_s"], 50),
        "banded.band_solve.failed": sum(band["errors"].values()),
        "banded.band_solve.computed_gbps":
            extra["band_solve_bytes"] / band["self_s"] / 1e9 if band["self_s"] > 0 else 0.0,
        "ipm.solve_box_qp.calls": qp["calls"],
        "ipm.solve_box_qp.self_ms": 1e3 * qp["self_s"],
        "ipm.iterations_total": iter_total,
        "ipm.iterations_p50": _pct(iterations, 50),
        "ipm.iterations_p90": _pct(iterations, 90),
        "ipm.newton_step.self_ms": 1e3 * agg("ipm.newton_step")["self_s"],
        "ipm.residual.calls": residual["calls"],
        "ipm.residual.self_ms": 1e3 * residual["self_s"],
        # Each iteration evaluates the residual once at the current point and
        # once per line-search trial; each solve adds one final evaluation.
        "ipm.line_search_trials_per_iter":
            (residual["calls"] - iter_total - qp["calls"]) / iter_total if iter_total else 0.0,
        "ipm.ms_per_iter": 1e3 * qp["total_s"] / iter_total if iter_total else 0.0,
        "ipm.converged_ratio": extra["ipm_converged"] / qp["calls"] if qp["calls"] else 0.0,
        "filters.l1_filter.calls": l1["calls"],
        "filters.l1_filter.ms_p50": 1e3 * _pct(l1["durations_s"], 50),
        "filters.l1_filter.self_ms": 1e3 * l1["self_s"],
        "filters.l1tc_filter.ms_p50": 1e3 * _pct(l1tc["durations_s"], 50),
        "filters.l1tc_filter.self_ms": 1e3 * l1tc["self_s"],
        "filters.hp_filter.calls": hp["calls"],
        "filters.hp_filter.us_p50": 1e6 * _pct(hp["durations_s"], 50),
        "filters.hp_filter.self_ms": 1e3 * hp["self_s"],
        **{f"filters.failed.{cls}": k for cls, k in named.items()},
        "filters.failed.other": sum(failures.values()),
        "calibration.cv_filter.calls": cv["calls"],
        "calibration.cv_filter.ms_p50": 1e3 * _pct(cv["durations_s"], 50),
        "calibration.cv_filter.self_ms": 1e3 * cv["self_s"],
        "calibration.lambda_max.calls": lmax["calls"],
        "calibration.lambda_max.self_ms": 1e3 * lmax["self_s"],
        "calibration.solves_per_cv": extra["cv_solves"] / cv["calls"] if cv["calls"] else 0.0,
        "strategy.day_ms_p50": 1e3 * _pct(days, 50),
        "strategy.day_ms_p99":
            1e3 * _pct(days, 99) if len(days) >= _MIN_DAYS_FOR_P99 else 0.0,
        "strategy.self_ms_per_day":
            1e3 * extra["strategy_self_s"] / len(days) if days else 0.0,
        "strategy.failed_days": failed_days,
        "cli.import_ms": 1e3 * _pct(import_s, 50),
        "cli.command_ms_p50": 1e3 * _pct(command_s, 50),
        "cli.io_ms": 1e3 * extra["cli_io_s"] / commands if commands else 0.0,
        "synth.ms": 1e3 * synth_s,
        "trace.overhead_pct": overhead_pct,
    }
    assert list(m) == [name for name, _, _ in PER_LAYER]
    return m
