"""Command-line front end over the harness.

Verbs:

- ``run CONFIG``: one comparison from a YAML config; persists a run
  directory under ``--out`` (default ``runs``) named after the config and
  prints its digest block (``harness.run_lines``).
- ``suite DIR``: every ``*.yaml`` in the directory, then a combined report
  under ``<out>/report``.
- ``reproduce-tables``: replay the effect-size decision rule over reported
  effect-size/threshold tables (defaults: the packaged reference data) and
  write ``reproduction.csv``; exits nonzero if any verifiable verdict
  disagrees.
- ``report RUN_DIR...``: render saved run records (run directories or
  directories of them, each run read once) into a report bundle.
- ``diversity CONFIG``: just the diversity stage of ``run``
  (``harness.measure_diversity``); ``--meta-batch`` sets the config's
  ``diversity_tasks``, the number of embedded tasks (and not its meta-test
  ``meta_batch``), and ``--out`` a directory for ``diversity.csv``,
  written like the report's table.

Flags: ``--seed`` (reseeds the whole experiment), ``--out``,
``--meta-batch``, ``--eval-steps`` (comma-separated). Exit code 0 on
success; on failure the stage name is printed to stderr and the exit code
is nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from metalab import harness
from metalab.harness import ExperimentConfig, HarnessError, RunRecord

_REFDATA = Path(__file__).parent / "refdata"


def _parse_steps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--eval-steps wants comma-separated integers, got {text!r}")


def _load_config(path: str, args: argparse.Namespace) -> ExperimentConfig:
    try:
        config = ExperimentConfig.from_yaml(path)
    except (OSError, ValueError, TypeError, yaml.YAMLError) as exc:
        raise HarnessError("config", f"{path}: {exc}") from exc
    return _apply_overrides(config, args)


def _apply_overrides(config: ExperimentConfig,
                     args: argparse.Namespace) -> ExperimentConfig:
    d = config.to_dict()
    if getattr(args, "seed", None) is not None:
        d["seed"] = args.seed
        d["init_seed"] = d["task_seed"] = d["diversity_seed"] = None
    if getattr(args, "meta_batch", None) is not None:
        d["meta_batch"] = args.meta_batch
    if getattr(args, "diversity_tasks", None) is not None:
        d["diversity_tasks"] = args.diversity_tasks
    if getattr(args, "eval_steps", None) is not None:
        d["eval_steps"] = list(args.eval_steps)
    try:
        return ExperimentConfig.from_dict(d)
    except (ValueError, TypeError) as exc:
        raise HarnessError("config", str(exc)) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args)
    run_dir = Path(args.out) / config.name
    record = harness.run_comparison(config, run_dir)
    print("\n".join(harness.run_lines(record)))
    print(f"record: {run_dir / 'record.json'}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.config_dir).glob("*.yaml"))
    if not paths:
        raise HarnessError("config", f"no *.yaml configs in {args.config_dir}")
    configs = [_load_config(str(p), args) for p in paths]
    records = harness.run_suite(configs, args.out)
    with harness._stage("report"):
        report_dir = harness.emit_report(records, Path(args.out) / "report")
    for record in records:
        print(f"[{record.config.name}] status {record.status}, "
              f"{record.wall_clock_seconds:.1f} s")
    print(f"report: {report_dir}")
    return 0


def _cmd_reproduce_tables(args: argparse.Namespace) -> int:
    table = Path(args.out) / "reproduction.csv"
    with harness._stage("reproduce"):
        rows = harness.reproduce_decisions(args.es, args.delta)
        table.parent.mkdir(parents=True, exist_ok=True)
        harness.write_reproduction_table(table, rows)
    verifiable = [r for r in rows if r.match is not None]
    mismatches = [r for r in verifiable if not r.match]
    print(f"rows: {len(rows)}, verifiable: {len(verifiable)}, "
          f"mismatches: {len(mismatches)}")
    print(f"table: {table}")
    for r in mismatches:
        print(f"mismatch {r.group}/{r.dataset}/{r.variant}: "
              f"computed {r.computed_verdict}, reported {r.reported_verdict}")
    if mismatches:
        raise HarnessError("reproduce", f"{len(mismatches)} verdict mismatches")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    run_dirs: list[Path] = []
    for arg in args.run_dirs:
        path = Path(arg)
        if (path / "record.json").exists():
            run_dirs.append(path)
        elif path.is_dir():
            run_dirs.extend(sorted(
                child for child in path.iterdir()
                if (child / "record.json").exists()))
    if not run_dirs:
        raise HarnessError("report", "no record.json found under the given paths")
    try:
        # a run reached through two arguments is read once
        records = [RunRecord.load(d) for d in dict.fromkeys(d.resolve() for d in run_dirs)]
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise HarnessError("report", f"unreadable record: {exc}") from exc
    with harness._stage("report"):
        report_dir = harness.emit_report(records, args.out)
    print(f"report over {len(records)} records: {report_dir}")
    return 0


def _cmd_diversity(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args)
    if not config.diversity_tasks:
        raise HarnessError("config", "diversity needs at least 2 tasks")
    with harness._stage("build-benchmark"):
        benchmark = config.benchmark.build()
    with harness._stage("diversity"):
        report, histogram = harness.measure_diversity(config, benchmark)
    print(f"diversity: {report.coefficient:.6f} +/- {report.ci95_halfwidth:.6f} "
          f"({report.num_tasks} tasks, {report.num_pairs} pairs)")
    print(f"probe: {report.probe_provenance}")
    if histogram is not None:
        for part, mean in sorted(histogram.partition_means.items()):
            print(f"partition {part}: mean distance {mean:.6f}")
    if args.out is not None:
        table = Path(args.out) / "diversity.csv"
        with harness._stage("diversity"):
            table.parent.mkdir(parents=True, exist_ok=True)
            harness.write_diversity_table(table, [(config.name, report)])
        print(f"table: {table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalab",
        description="PT-vs-meta-learning comparison lab on synthetic benchmarks")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="one comparison from a YAML config")
    run.add_argument("config")
    run.add_argument("--out", default="runs")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--meta-batch", type=int, default=None, dest="meta_batch")
    run.add_argument("--eval-steps", type=_parse_steps, default=None,
                     dest="eval_steps")
    run.set_defaults(func=_cmd_run)

    suite = sub.add_parser("suite", help="run every *.yaml config in a directory")
    suite.add_argument("config_dir")
    suite.add_argument("--out", default="runs")
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--meta-batch", type=int, default=None, dest="meta_batch")
    suite.add_argument("--eval-steps", type=_parse_steps, default=None,
                       dest="eval_steps")
    suite.set_defaults(func=_cmd_suite)

    rep = sub.add_parser("reproduce-tables",
                         help="replay the decision rule over reported tables")
    rep.add_argument("--es", default=str(_REFDATA / "reported_effect_sizes.csv"))
    rep.add_argument("--delta", default=str(_REFDATA / "reported_deltas.csv"))
    rep.add_argument("--out", default=".")
    rep.set_defaults(func=_cmd_reproduce_tables)

    report = sub.add_parser("report", help="render saved run records")
    report.add_argument("run_dirs", nargs="+")
    report.add_argument("--out", default="report")
    report.set_defaults(func=_cmd_report)

    div = sub.add_parser("diversity",
                         help="benchmark diversity only, from a config")
    div.add_argument("config")
    div.add_argument("--out", default=None)
    div.add_argument("--seed", type=int, default=None)
    # sets `diversity_tasks`; the config's meta-test `meta_batch` is left alone
    div.add_argument("--meta-batch", type=int, default=None, dest="diversity_tasks",
                     help="override the number of embedded tasks")
    div.set_defaults(func=_cmd_diversity)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HarnessError as exc:
        print(f"failed at stage {exc.stage!r}: {exc.message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
