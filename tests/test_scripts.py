"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import trendkit

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(trendkit.__file__).resolve().parents[1])


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_scaling_law_script():
    lines = run_script("scaling_law.py", "--n-sims", "30", "--lengths", "100", "200", "400")
    assert lines[0] == "30 simulations per length, lengths [100, 200, 400]"
    assert lines[1].startswith("driftless walk (b=0, sigma=1): order-1 slope ")
    assert lines[2].startswith("drifting walk (p=0.993, b=5, sigma=15): order-1 slope ")
    assert len(lines) == 3


def test_spectral_match_script():
    lines = run_script("spectral_match.py", "--windows", "20")
    assert lines[0].split() == ["T", "fitted", "lambda", "closed", "form", "ratio"]
    assert lines[1].split()[0] == "20"
    assert len(lines) == 2


def test_synthetic_demo_script():
    lines = run_script("synthetic_demo.py", "--n", "600", "--t1", "200", "--t2", "50",
                       "--folds", "3")
    assert lines[0].startswith("selected weight: ")
    assert lines[1].startswith("recovery RMSE: ")
    assert lines[1].endswith("(noise sigma 15.0)")
    assert lines[2].startswith("breaks: fitted ")
    assert len(lines) == 3
