"""metalab benchmark: one workload, one seed, timed in pinned worker processes.

    python3 perfbench/run.py --workload lowdiv-fo --seed 0 --seconds 20 --trace 0

Run from the root of a metalab checkout; the package is imported from its
`src/`. Every process this starts has OMP_NUM_THREADS, OPENBLAS_NUM_THREADS
and MKL_NUM_THREADS set to 1 before numpy loads.

- `setup_s` is the median of SETUP_REPEATS fresh processes, each timing the
  import of metalab plus building the workload's config and benchmark.
- The workload itself runs in one more fresh process (worker.py), a closed
  loop of units (one caller, one unit at a time) for about `--seconds`.
  `wall_s` is the median unit time, `peak_rss_mb` that process's peak
  resident memory, `acc_pt` / `acc_maml` the unit's accuracies.
- Every unit's output is checked (workloads.py); a unit that raises or
  fails a check counts in `failed`, and `ops_failed_ratio` is failed units
  over attempted ones.
- `--trace 1` alternates untraced and traced units and reports the
  per-layer metrics instead (spans.py), with `trace.overhead_ratio`.

The last line of stdout is the JSON result; the lines above it are for
people. Full results and spans are written under `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "acc_pt": "fraction"}


def _unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _worker(args: list[str], env: dict, timeout: float) -> str:
    done = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.exit(f"worker {args[0]} exited with code {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "metalab" / "__init__.py").is_file():
        sys.exit(f"no metalab sources under {ROOT / 'src'}; run from a checkout")
    env = {**os.environ, **PINNED, "PYTHONPATH": str(ROOT / "src")}
    begin = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = [float(_worker(["setup", *common], env, 60.0))
              for _ in range(SETUP_REPEATS)]
    remaining = DEADLINE_S - (time.perf_counter() - begin)
    report = json.loads(_worker(
        ["measure", *common, "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(OUT)], env, remaining))
    report["setup_samples"] = setups
    report["setup_s"] = statistics.median(setups)

    attempted, failed = report["attempted"], report["failed"]
    env_rec = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} units, {failed} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_rec.items()))
    for item in report["problems"]:
        print(f"unit {item['unit']} failed:\n  " + "\n  ".join(item["problems"]))
    print(f"  setup_s           {report['setup_s']:.4f} s  (median of {len(setups)})")
    if report["wall_s"] is not None:
        print(f"  wall_s            {report['wall_s']:.4f} s  "
              f"(median of {len(report['walls'])} untraced units)")
    print(f"  peak_rss_mb       {report['peak_rss_mb']:.1f} MB")
    for key in ("acc_pt", "acc_maml"):
        value = report[key]
        print(f"  {key:<17} " + ("n/a (no such method in this workload)"
                                 if value is None else f"{value:.4f} fraction"))
    print(f"  ops_failed_ratio  {failed / attempted:.4f} ratio")

    if args.trace:
        table = report.get("self_time_table")
        if table is None:
            sys.exit("traced run produced no traced unit")
        print(f"self time per layer (s per unit, {table['units']} traced units):")
        for layer, secs in sorted(table["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<10} {secs:9.4f}")
        print(f"spans written to {report['trace_file']}; fit_head tail_ms is "
              f"p{table['fit_head_tail_percentile']:g}")
        metrics = {name: {"value": value, "unit": _unit_of(name)}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()
                   if report[name] is not None}

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
