"""Benchmark of trendkit's pipeline: filter, calibrate, backtest.

Usage, from the root of a checkout (no install needed; the program is
imported from ``src``)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn. Every
workload runs closed-loop with one client and one operation at a time, in
one process (plus one process per CLI command for calibrate-reference).

Workloads (see ``workloads.py`` for why each was chosen):

* ``backtest-l1-global``  default ``run_backtest`` (l1-global), 15 days
* ``calibrate-reference`` ``trendkit calibrate`` on 8 model-1 CSVs
* ``backtest-hp``         ``run_backtest`` with the quadratic filter, 6000 days
* ``filter-sweep``        l1t/l1c/l1tc solves, n from 2080 to 1e5, x1 and x1000

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``      fresh process to first timed operation (imports, seeded
                   inputs, CSV writing, one untimed warm-up operation);
                   the median of three fresh processes
* ``work_per_s``   work per second of operation time: ``days_per_s`` on the
                   backtests, ``calibrations_per_s`` on calibrate-reference,
                   ``filter_samples_per_s`` (samples of converged solves)
                   on filter-sweep
* ``ok_frac``      1 - ``failed_frac``: operations that succeeded over
                   operations attempted (a failure is an exception, a
                   non-converged result or a nonzero exit code)
* ``peak_rss_mb``  peak resident memory of the working process (the
                   largest CLI child for calibrate-reference)

With ``--trace 1`` it reports the per-layer metrics of ``spans.PER_LAYER``
from one traced pass, plus ``trace.overhead_pct``, the traced pass's time
over an untraced pass of the same work. Counts in a traced pass (for
example ``ipm.iterations_total``, ``banded.band_solve.calls`` and
``calibration.solves_per_cv``) repeat exactly for a given seed.

Outputs are checked on every run (see ``workloads.py``). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is nonzero, with
no result printed, when the program's source is missing or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("backtest-l1-global", "calibrate-reference", "backtest-hp", "filter-sweep")
SETUPS = 3          # fresh-process set-ups whose median is setup_s
DEADLINE_S = 170    # a run of one workload must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


E2E_UNITS = {"setup_s": "s", "work_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def spawn(workload, mode, args, workdir, deadline) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    src = ROOT / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--workdir", str(workdir), "--src", str(src), "--spawned", repr(spawned)]
    # Its own process group, so a timeout also ends the CLI commands it started.
    proc = subprocess.Popen(argv, env=env, cwd=workdir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} ({mode}) did not finish within {DEADLINE_S} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = spawn(workload, "trace", args, workdir, deadline)
            metrics = result["per_layer"]
        else:
            setups = [spawn(workload, "setup", args, workdir, deadline)["setup_s"]
                      for _ in range(SETUPS - 1)]
            result = spawn(workload, "run", args, workdir, deadline)
            setups.append(result["setup_s"])
            metrics = {
                "setup_s": statistics.median(setups),
                "work_per_s": result["work"] / result["seconds"],
                "ok_frac": 1.0 - result["failed"] / result["attempted"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            result["setups"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = metrics
    return result


def per_layer_units() -> dict:
    sys.path.insert(0, str(HERE))
    from spans import PER_LAYER
    return {name: unit for name, unit, _ in PER_LAYER}


def report(workload, result, args, units):
    """Human-readable lines; the JSON result line comes last, from main."""
    print(f"== {workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        for name, value in result["metrics"].items():
            print(f"  {name:<40} {value:14.6g} {units[name]}")
        if result["absent"]:
            print(f"  absent functions (their metrics read 0): {', '.join(result['absent'])}")
    else:
        m = result["metrics"]
        print(f"  setup_s      {m['setup_s']:12.4f} s     "
              f"(fresh processes: {', '.join(f'{s:.3f}' for s in result['setups'])})")
        print(f"  work_per_s   {m['work_per_s']:12.4f} 1/s   (= {result['unit']}: "
              f"{result['work']:g} in {result['seconds']:.3f} s over {result['passes']} passes)")
        print(f"  ok_frac      {m['ok_frac']:12.4f} ratio (failed_frac "
              f"{failed / attempted:.4f} = {failed} of {attempted} operations)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:12.1f} MB")
    if result["failures"]:
        print(f"  failures by class: {json.dumps(result['failures'], sort_keys=True)}")
    checked = ("reference and built-in checks" if result["reference"]
               else "built-in checks only (no reference for this seed)")
    print(f"  output check: {checked} -> {'ok' if not result['problems'] else 'MISMATCH'}")
    for problem in result["problems"][:20]:
        print(f"    {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trendkit" / "__init__.py").is_file():
        print(f"trendkit source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = E2E_UNITS if not args.trace else per_layer_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    record = {**machine(), **next(iter(results.values()))["versions"],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(f"machine {json.dumps(record, sort_keys=True)}")
    for name, result in results.items():
        report(name, result, args, units)

    def entry(name, value):
        return {"value": value, "unit": units[name]}

    if len(results) == 1:
        metrics = {k: entry(k, v) for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}.{k}": entry(k, v)
                   for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
