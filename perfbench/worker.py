"""One benchmark process: set up a workload, run it, check it, report JSON.

``run.py`` starts this script in a fresh interpreter with PYTHONPATH set to
the checkout's ``src``, so set-up time counts from process creation. Modes:

* ``setup``: set up and stop; reports only the set-up time.
* ``run``: untraced passes until ``--seconds`` have elapsed.
* ``trace``: one untraced pass, then one pass with every public trendkit
  function wrapped; reports the per-layer metrics and the tracing overhead.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from collections import Counter
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception:  # the build record is informational only
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)

    import trendkit
    if Path(trendkit.__file__).resolve().parent != Path(args.src).resolve() / "trendkit":
        print(f"trendkit imported from {trendkit.__file__}, not {args.src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    # The sweep's failing solves divide by zero before they raise; the
    # failures are counted, the warnings would only flood standard error.
    warnings.simplefilter("ignore", RuntimeWarning)

    workload = workloads.WORKLOADS[args.workload]
    synth_s = workload.setup(args.seed, args.workdir)
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced_result = {}
    if args.mode == "run":
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(workload.run_pass())
    else:
        plain = workload.run_pass()
        tracer = spans.Tracer().install()
        try:
            traced = workload.run_pass(traced=True)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        merged = spans.merge([tracer.summary(), *traced.summaries])
        traced_result["per_layer"] = spans.layer_metrics(
            merged,
            failed_days=traced.failed if isinstance(workload, workloads.Backtest) else 0,
            command_s=traced.command_s,
            import_s=traced.import_s,
            synth_s=synth_s,
            overhead_pct=100.0 * (traced.seconds / plain.seconds - 1.0),
        )
        traced_result["absent"] = tracer.absent

    ref = workloads.load_ref(args.workload, args.seed)
    problems = [p for run in passes for p in run.problems]
    if ref is not None:
        for run in passes:
            problems.extend(workload.check(run.outputs, ref))

    failures = sum((run.failures for run in passes), Counter())
    # calibrate-reference does its work in the CLI processes it starts
    calibrate = isinstance(workload, workloads.Calibrate)
    who = resource.RUSAGE_CHILDREN if calibrate else resource.RUSAGE_SELF
    result = {
        "workload": args.workload,
        "unit": workload.unit,
        "setup_s": setup_s,
        "passes": len(passes),
        "attempted": sum(run.attempted for run in passes),
        "failed": sum(run.failed for run in passes),
        "failures": failures,
        "work": sum(run.work for run in passes),
        "seconds": sum(run.seconds for run in passes),
        "problems": problems,
        "reference": ref is not None,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "versions": _versions(),
        **traced_result,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
