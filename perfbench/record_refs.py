"""Record the reference outputs that later benchmark runs must reproduce.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_refs.py SEED [SEED ...]

For each seed and workload it runs one untraced pass and writes
``perfbench/refs/<workload>/seed-<n>.npz``: the daily lambda* and the
allocations of the backtests, lambda* per CSV of calibrate-reference, and
for every converged filter-sweep solve its residual y - x (float32) and its
duality gap. It refuses to record a pass whose certificates fail.
"""

import shutil
import sys
import tempfile
import warnings

import numpy as np

import workloads


def record(name, seed) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = tempfile.mkdtemp(dir=workloads.HERE.parent / ".perfbench_work")
    try:
        workload.setup(seed, workdir)
        result = workload.run_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.problems:
        raise SystemExit(f"{name} seed {seed}: {result.problems}")
    if isinstance(workload, workloads.FilterSweep):
        arrays = {}
        for key, (residual, gap) in result.outputs.items():
            arrays[f"r_{key}"] = residual.astype(np.float32)
            arrays[f"g_{key}"] = np.float64(gap)
        return arrays
    return result.outputs


def main(seeds):
    warnings.simplefilter("ignore", RuntimeWarning)
    (workloads.HERE.parent / ".perfbench_work").mkdir(exist_ok=True)
    for seed in seeds:
        for name in workloads.WORKLOADS:
            path = workloads.REFS / name / f"seed-{seed}.npz"
            path.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(path, **record(name, seed))
            print(f"wrote {path.relative_to(workloads.HERE.parent)}", flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
