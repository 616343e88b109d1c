"""trendkit loads only numpy and scipy.linalg.

``scipy.optimize`` alone pulls in scipy's sparse, special, fft and spatial
packages: about 240 modules, 0.3 s and 20 MB of every process that imports
trendkit. An optional scipy subpackage is imported inside the one function
that needs it, and these tests hold every command to that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import trendkit
from trendkit.calibration import calibrate_l2_spectral

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
    src = str(Path(trendkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SESSION], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome["codes"] == [0, 0, 0, 0]
    loaded = [m for m in outcome["modules"] if m.startswith(OPTIONAL)]
    assert loaded == []


def test_spectral_calibration_is_unchanged():
    # the one user of scipy.optimize, which it imports on its first call
    assert calibrate_l2_spectral(50) == 20609.739596957857
