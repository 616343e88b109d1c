"""trendkit imports numpy and scipy.linalg only.

``scipy.optimize`` alone pulls in scipy's sparse, special, fft and spatial
packages: about 240 modules, 0.3 s and 20 MB of every process that imports
trendkit. The package's modules import no scipy subpackage but
``scipy.linalg``; code that needs another lives in ``scripts/``. These
tests hold every module and every command to that.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import trendkit
from spectral_match import calibrate_l2_spectral

PACKAGE = Path(trendkit.__file__).resolve().parent

OPTIONAL = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.fft",
            "scipy.spatial", "scipy.stats")

# Runs in a fresh interpreter: one command of each kind, then the loaded set.
SESSION = """
import json, sys
import numpy as np
import trendkit
from trendkit import cli

prices = 100 * np.exp(np.cumsum(0.01 * np.random.default_rng(0).standard_normal(400)))
cli.write_csv("prices.csv", np.arange(400), [("value", prices)])
commands = [
    ["simulate", "--n", "300", "--seed", "1", "--out", "sim.csv"],
    ["filter", "sim.csv", "--column", "observed", "--kind", "l1t",
     "--lambda-max-fraction", "0.05"],
    ["calibrate", "sim.csv", "--column", "observed", "--t1", "60", "--t2", "15",
     "--m", "3", "--p", "3", "--n-grid", "4"],
    ["backtest", "prices.csv", "--model", "hp", "--vol-window", "20", "--t1", "60",
     "--t2", "15", "--t3", "30"],
]
codes = [cli.main(argv) for argv in commands]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_commands_load_no_optional_scipy_package(tmp_path):
    src = str(PACKAGE.parent)
    proc = subprocess.run([sys.executable, "-c", SESSION], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome["codes"] == [0, 0, 0, 0]
    loaded = [m for m in outcome["modules"] if m.startswith(OPTIONAL)]
    assert loaded == []


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
    return (top in sys.stdlib_module_names or top == "numpy"
            or name == "scipy.linalg" or name.startswith("scipy.linalg."))


def test_package_imports_numpy_and_scipy_linalg_only():
    offending = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imported_names(ast.parse(path.read_text(), str(path)))
        if not _allowed(name)
    ]
    assert offending == []


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
