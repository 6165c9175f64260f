"""One benchmark process: set up a workload, run units, check, report JSON.

Started by run.py with BLAS threads pinned; run directly it refuses to
time anything unless OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS are all 1. The check runs before numpy is imported, since
BLAS reads its thread count when it loads.

    worker.py setup   --workload W --seed S
        prints the seconds to import metalab and build the config and
        benchmark (one `setup_s` sample).
    worker.py measure --workload W --seed S --seconds T --trace 0|1 --out DIR
        runs units of W in a closed loop for about T seconds (at least
        MIN_UNITS) and prints one JSON line of results; a unit starts only
        if it is expected to end within T. With --trace 1,
        untraced and traced units alternate and the spans go to DIR.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a traced run needs one untraced unit to compare against
MIN_UNITS = {0: 1, 1: 2}
ROOT = Path(__file__).resolve().parent.parent


def _require_pinned() -> None:
    loose = {k: os.environ.get(k) for k in PINNED if os.environ.get(k) != "1"}
    if loose:
        sys.exit(f"refusing to time with unpinned BLAS threads: {loose}")
    if "numpy" in sys.modules:
        sys.exit("numpy was imported before the thread pin was checked")


def _import_workloads():
    """Import the workloads (and metalab), insisting on this checkout's copy."""
    import metalab
    src = (ROOT / "src").resolve()
    if src not in Path(metalab.__file__).resolve().parents:
        sys.exit(f"metalab imported from {metalab.__file__}, not from {src}")
    import workloads
    return workloads


def _workload(workloads, name: str):
    if name not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {name!r}; known: {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


def _setup(args) -> None:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    _workload(workloads, args.workload).setup(args.seed)
    print(repr(time.perf_counter() - t0))


def _measure(args) -> None:
    import gc
    import json
    import resource
    import shutil
    import tempfile
    import traceback
    from statistics import median

    workloads = _import_workloads()
    import spans

    workload = _workload(workloads, args.workload)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(args.seed)
    tracer = spans.Tracer() if args.trace else None

    walls, traced_walls, problems = [], [], []
    attempted = failed = 0
    reference = None
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        wall = None
        work_dir = Path(tempfile.mkdtemp(prefix="unit-", dir=out_dir))
        gc.collect()  # leave the previous unit's garbage out of this one's time
        try:
            if traced:
                tracer.run_id = f"{args.workload}-seed{args.seed}-unit{attempted}"
                tracer.install()
            try:
                t0 = time.perf_counter()
                result = workload.compute(state, work_dir)
                wall = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            (traced_walls if traced else walls).append(wall)
            outcome = workload.check(state, result, work_dir)
            unit_problems = list(outcome.problems)
            if reference is None:
                reference = outcome
            elif outcome.fingerprint != reference.fingerprint:
                unit_problems.append("fingerprint differs from the first unit's")
        except Exception:
            unit_problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if unit_problems:
            failed += 1
            problems.append({"unit": attempted, "problems": unit_problems})
        elapsed = time.perf_counter() - begin
        last = wall if wall is not None else elapsed / attempted
        if attempted >= MIN_UNITS[args.trace] and elapsed + last > args.seconds:
            break

    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "walls": walls,
        "traced_walls": traced_walls,
        "wall_s": median(walls) if walls else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_pt": None if reference is None else reference.acc_pt,
        "acc_maml": None if reference is None else reference.acc_maml,
        "fingerprint": None if reference is None else reference.fingerprint,
        "environment": _environment(),
    }
    if tracer is not None and traced_walls and walls:
        per_layer, table = spans.summarize(tracer, len(traced_walls))
        per_layer["trace.overhead_ratio"] = median(traced_walls) / median(walls) - 1.0
        report["per_layer"] = per_layer
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "self_time_table": table, "per_layer": per_layer})
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["self_time_table"] = table
    print(json.dumps(report))


def _environment() -> dict:
    import platform
    import subprocess

    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):  # layout differs by release
            return "unknown"

    try:
        # the ceiling keeps git from reporting an enclosing repository
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in PINNED},
    }


def main() -> None:
    _require_pinned()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench-out"))
    args = parser.parse_args()
    if args.mode == "setup":
        _setup(args)
    else:
        _measure(args)


if __name__ == "__main__":
    main()
