"""trendkit imports numpy and the standard library only, and keeps the
names the benchmark's tracer wraps.

``import scipy.linalg`` runs scipy's package import and every Python
module of ``scipy.linalg``: about 320 modules, 0.2–0.35 s and 25 MB of every
process that imports trendkit, for the two LAPACK routines ``band_solve``
calls. ``banded.py`` loads scipy's compiled LAPACK wrapper,
``scipy.linalg._flapack``, from its file instead, and that is the one
scipy module a process running trendkit holds. Code that needs a scipy
package lives in ``scripts/``. These tests hold every module and every
command to that, and check that a later ``import scipy.linalg`` shares
the loaded routines.

``perfbench`` traces the package from outside: it wraps the public
functions its ``spans.REQUIRED`` lists and reads each backtest day's
lambda* through ``strategy.cv_filter``. A rename there leaves a metric
silently at zero, so the names are pinned here; and no module imports
another module's private name, so each module's helpers stay its own.
Its workloads read config fields, the strategy's history rule and the
calibrate flags; a knob removed from ``src`` that they still use fails here.
"""

import ast
import importlib
import importlib.machinery
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import trendkit
from spectral_match import calibrate_l2_spectral
from trendkit import banded, calibration, cli, strategy

PACKAGE = Path(trendkit.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")

# Runs in a fresh interpreter: the loaded set after the import and after one
# command of each kind, then whether a later scipy.linalg shares the routines.
SESSION = """
import json, sys
import numpy as np
import trendkit
imported = sorted(sys.modules)
from trendkit import banded, cli

prices = 100 * np.exp(np.cumsum(0.01 * np.random.default_rng(0).standard_normal(400)))
cli.write_csv("prices.csv", np.arange(400), [("value", prices)])
commands = [
    ["simulate", "--n", "300", "--seed", "1", "--out", "sim.csv"],
    ["filter", "sim.csv", "--column", "observed", "--kind", "l1t",
     "--lambda-max-fraction", "0.05"],
    ["calibrate", "sim.csv", "--column", "observed", "--t1", "60", "--t2", "15",
     "--m", "3", "--p", "3", "--n-grid", "4"],
    ["backtest", "prices.csv", "--model", "hp", "--vol-window", "20", "--t3", "30"],
]
codes = [cli.main(argv) for argv in commands]
modules = sorted(sys.modules)
import scipy.linalg
shared = [getattr(banded.lapack, name) is getattr(scipy.linalg.lapack, name)
          for name in ("dpbsv", "dptsv")]
print(json.dumps({"codes": codes, "imported": imported, "modules": modules,
                  "shared": shared}))
"""


def test_commands_load_no_optional_scipy_package(tmp_path):
    src = str(PACKAGE.parent)
    proc = subprocess.run([sys.executable, "-c", SESSION], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome["codes"] == [0, 0, 0, 0]
    for modules in (outcome["imported"], outcome["modules"]):
        assert [m for m in modules if m.split(".")[0] == "scipy"] == ["scipy.linalg._flapack"]
    assert outcome["shared"] == [True, True]


def test_scipy_linalg_shares_the_loaded_lapack_routines():
    assert banded.lapack.dpbsv is scipy.linalg.lapack.dpbsv
    assert banded.lapack.dptsv is scipy.linalg.lapack.dptsv


def test_missing_lapack_wrapper_is_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    with pytest.raises(ImportError, match=f"_flapack not found in {re.escape(directory)}$"):
        banded._load_flapack()


def _imported_names(tree):
    """Absolute module names a parsed module imports, ``from scipy import x``
    counting as ``scipy.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":
                yield from (f"scipy.{alias.name}" for alias in node.names)
            else:
                yield node.module


def _allowed(name):
    top = name.split(".")[0]
    return top in sys.stdlib_module_names or top == "numpy"


def test_package_imports_numpy_and_stdlib_only():
    offending = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imported_names(ast.parse(path.read_text(), str(path)))
        if not _allowed(name)
    ]
    assert offending == []


def _private_imports(tree):
    """Underscore names a parsed trendkit module takes from another one: by
    ``from .x import _y`` or as ``x._y`` after ``from . import x``."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "trendkit"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{node.module}.{alias.name}"
                elif node.module in (None, "trendkit"):
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


def test_no_module_imports_another_modules_private_name():
    offending = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert offending == []


def _required_spans():
    """``REQUIRED`` of perfbench/spans.py, read from its source unimported."""
    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["REQUIRED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no REQUIRED tuple in {SPANS}")


def test_traced_names_are_public_functions_of_their_modules():
    required = _required_spans()
    assert {"filters.l1_filter", "ipm.residual", "calibration.lambda_max"} <= set(required)
    missing = []
    for name in required:
        layer, attr = name.split(".")
        module = importlib.import_module(f"trendkit.{layer}")
        obj = getattr(module, attr, None)
        if attr.startswith("_") or not inspect.isfunction(obj) \
                or obj.__module__ != module.__name__:
            missing.append(name)
    assert missing == []


def _config_reads(tree):
    """Attributes read off ``cfg`` or ``self.cfg`` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                getattr(node.value, "id", None) == "cfg"
                or getattr(node.value, "attr", None) == "cfg"):
            yield node.attr


def test_benchmark_workloads_read_what_the_package_has(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    backtests = {name: w for name, w in workloads.WORKLOADS.items()
                 if isinstance(w, workloads.Backtest)}
    assert {name: w.first_day() for name, w in backtests.items()} == {
        "backtest-l1-global": 3639, "backtest-hp": 519}
    for w in backtests.values():
        assert w.first_day() == max(strategy._first_day(w.cfg), w.cfg.vol_window)
    args = vars(cli.build_parser().parse_args(["calibrate", "x.csv", *workloads.Calibrate.ARGS]))
    assert calibration.CVConfig(**cli._given(calibration.CVConfig, args)) == \
        calibration.CVConfig(T1=400, T2=50, m=12, p=12, n_grid=15)
    read = set(_config_reads(ast.parse(WORKLOADS.read_text(), str(WORKLOADS))))
    assert {"hp_window", "T3", "cv_m", "cv_p", "vol_window", "risk_aversion",
            "alpha_min", "alpha_max"} <= read
    cfg = strategy.StrategyConfig()
    assert [name for name in sorted(read) if not hasattr(cfg, name)] == []


def test_backtest_reads_cv_filter_through_the_strategy_binding(monkeypatch):
    assert strategy.cv_filter is calibration.cv_filter
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return calibration.cv_filter(*args, **kwargs)

    monkeypatch.setattr(strategy, "cv_filter", counted)
    prices = 100 * np.exp(np.cumsum(0.01 * np.random.default_rng(0).standard_normal(95)))
    # T3 = T2 makes the global horizon's geometry the local one's, so every model fits
    for model, per_day in (("l1-local", 1), ("l1-global", 1), ("l1-two-trend", 2)):
        calls.clear()
        cfg = strategy.StrategyConfig(trend_model=model, vol_window=20, T2=15, T3=15,
                                      cv_m=2, cv_p=2, n_grid=4)
        report = strategy.run_backtest(prices, 0.0, cfg)
        assert len(calls) == per_day * len(report.allocations) > 0
    assert trendkit.predict_two_trend is strategy.predict_two_trend


def test_every_exported_name_exists():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"trendkit{stem}")
        missing += [f"{module.__name__}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_spectral_calibration_is_unchanged():
    # scripts/spectral_match.py, the one user of scipy.optimize
    assert calibrate_l2_spectral(50) == 20609.739596957857
