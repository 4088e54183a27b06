"""Benchmark of the ricci_spectrum package, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py) back to back for about S
seconds, in this one process, then checks every pass's outputs.  The last
line of stdout is one JSON object with ``correct``, ``attempted`` and
``failed`` (jobs, so error_rate = failed / attempted) and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, all measured
  with tracing off.  wall_s and cpu_s are medians over passes; wall_s_max
  is the highest percentile the pass count allows (the maximum, as no run
  has 20 passes); setup_s is the median set-up time, three set-ups per
  pass, each importing the package afresh and generating the inputs; peak_rss_mb is the
  process's peak resident memory after the last pass, before the checks.
* ``--trace 1``: untraced and traced passes alternate; the per-layer
  metrics of BENCHMARK.json come from the traced passes (medians of times,
  counts of one pass), and trace.overhead_s is the traced minus the
  untraced median wall time.  perfbench/metrics.json defines each metric
  and records which end-to-end metric it should move on which workload.

The run refuses ``python -O``: the package's consistency asserts would be
stripped and the benchmark would time an unchecked program.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "ricci_spectrum"
#: Set-up is short and noisy, so it is repeated and the last inputs are used.
SETUPS_PER_PASS = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import the package afresh, so no module-level state outlives a pass.

    Modules it depends on, numpy among them, stay imported.
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE + ".cli")


def measure(workload, seconds: float, trace: bool, tracer_cls):
    """Run passes until another one would end after ``seconds``.

    With tracing on, passes alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        setup_s = []
        for _ in range(SETUPS_PER_PASS):
            # each timed region starts without garbage left by the one before
            gc.collect()
            t0 = time.perf_counter()
            import_package()
            inputs = workload.setup()
            setup_s.append(time.perf_counter() - t0)
        gc.collect()
        tracer = tracer_cls() if traced else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if tracer is not None:
            with tracer:
                outputs = workload.run(inputs)
        else:
            outputs = workload.run(inputs)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        passes.append(dict(setup_s=setup_s, wall_s=wall, cpu_s=cpu, outputs=outputs, tracer=tracer))
        typical = statistics.median(p["wall_s"] for p in passes)
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + typical > seconds:
            return passes


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["tracer"] is not None]
    plain = [p for p in passes if p["tracer"] is None]
    samples = [p["tracer"].metrics() for p in traced]
    metrics = {}
    for name, value in samples[-1].items():
        if name.endswith("_s"):
            value = statistics.median(s[name] for s in samples)
        metrics[name] = value
    metrics["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in plain)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__:
        print("error: refusing to run under python -O, which strips the "
              "package's consistency checks", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        cli = importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(cli.__file__).resolve().parents:
        print(f"error: {PACKAGE} was imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    passes = measure(workload, args.seconds, bool(args.trace), tracer.Tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t0 = time.perf_counter()
    failures = workload.check(args.seed, [p["outputs"] for p in passes])
    check_s = time.perf_counter() - t0
    for (pass_no, job), reason in sorted(failures.items()):
        print(f"FAILED pass {pass_no} job {job}: {reason}", file=sys.stderr)
    attempted = len(passes) * len(workload.jobs)
    failed = len(failures)

    plain = [p for p in passes if p["tracer"] is None]
    walls = [p["wall_s"] for p in plain]
    if args.trace:
        values = per_layer(passes)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "wall_s_max": max(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]}
    missing = set(units) ^ set(values)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes "
          f"({len(walls)} untraced), wall_s median {statistics.median(walls):.3f} s, "
          f"max {max(walls):.3f} s; error_rate {failed}/{attempted}; checks {check_s:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
