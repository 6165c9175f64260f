"""End-to-end checks of the command-line verbs via main(argv)."""

import csv
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from metalab import harness
from metalab.cli import main
from metalab.harness import BenchmarkSpec, ExperimentConfig, RunRecord, SourceSpec


def _tiny_config(name: str = "cli-tiny", **overrides) -> ExperimentConfig:
    base = dict(
        name=name,
        benchmark=BenchmarkSpec(
            sources=(SourceSpec(num_classes=10, input_dim=3, mean_scale=2.0,
                                class_spread=1.0, name="cloud"),),
            seed=0),
        seed=0,
        hidden_dims=(8,),
        n_way=2,
        k_shot=2,
        q_query=2,
        meta_batch=2,
        eval_steps=(0, 2),
        diversity_tasks=3,
        probe_method="random",
        probe_hidden_dims=(8,),
        histogram_tasks=4,
        histogram_bins=4,
        pt={"max_epochs": 10},
        maml={"max_epochs": 3, "meta_batch": 2},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _write_yaml(tmp_path: Path, config: ExperimentConfig) -> Path:
    path = tmp_path / f"{config.name}.yaml"
    config.to_yaml(path)
    return path


def test_run_writes_run_dir_and_prints_summary(tmp_path, capsys):
    cfg_path = _write_yaml(tmp_path, _tiny_config())
    out = tmp_path / "runs"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "pt: accuracy" in captured.out
    assert "maml2: accuracy" in captured.out
    assert "decision maml2/es:" in captured.out
    assert "diversity:" in captured.out
    assert (out / "cli-tiny" / "record.json").exists()
    # the printed block is the run's block in the report digest
    record = RunRecord.load(out / "cli-tiny")
    block = harness.run_lines(record)
    assert captured.out.splitlines() == block + [
        f"record: {out / 'cli-tiny' / 'record.json'}"]
    report = harness.emit_report([record], tmp_path / "report")
    assert "\n".join(block) in (report / "digest.txt").read_text(encoding="utf-8")


def test_run_seed_override_reseeds_derived_streams(tmp_path):
    cfg = _tiny_config(seed=0)
    cfg_path = _write_yaml(tmp_path, cfg)
    out = tmp_path / "runs"
    # wider meta batch: tiny 2-task evals can tie exactly and starve the
    # decision rule of variance
    assert main(["run", str(cfg_path), "--out", str(out),
                 "--seed", "5", "--meta-batch", "8"]) == 0
    record = RunRecord.load(out / "cli-tiny")
    assert record.config.seed == 5
    # the meta-test episodes draw from the new seed
    assert all(tid.startswith("test:5:") for tid in record.task_ids)


def test_run_meta_batch_and_eval_steps_overrides(tmp_path):
    cfg_path = _write_yaml(tmp_path, _tiny_config())
    out = tmp_path / "runs"
    assert main(["run", str(cfg_path), "--out", str(out),
                 "--meta-batch", "3", "--eval-steps", "0,1"]) == 0
    record = RunRecord.load(out / "cli-tiny")
    assert record.eval_labels() == ("pt", "maml0", "maml1")
    assert all(ev.meta_batch == 3 for ev in record.evals.values())
    assert len(record.task_ids) == 3


def test_run_missing_config_fails_at_config_stage(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 1
    assert "failed at stage 'config'" in capsys.readouterr().err


def test_run_malformed_yaml_fails_at_config_stage(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("benchmark: [unclosed\n", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "runs")]) == 1
    assert "failed at stage 'config'" in capsys.readouterr().err


def test_run_reports_failing_stage(tmp_path, capsys):
    bad = _tiny_config(name="bad", n_way=5, k_shot=1, q_query=1)
    cfg_path = _write_yaml(tmp_path, bad)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1
    assert "failed at stage 'build-benchmark'" in capsys.readouterr().err


def test_malformed_eval_steps_flag_is_a_usage_error(tmp_path, capsys):
    cfg_path = _write_yaml(tmp_path, _tiny_config())
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg_path), "--eval-steps", "a,b"])
    assert err.value.code == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_suite_runs_every_config_and_emits_report(tmp_path, capsys):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    _write_yaml(cfg_dir, _tiny_config("a", diversity_tasks=0, histogram_tasks=0))
    _write_yaml(cfg_dir, _tiny_config("b", seed=1, diversity_tasks=0,
                                      histogram_tasks=0))
    out = tmp_path / "runs"
    assert main(["suite", str(cfg_dir), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "[a] status ok" in captured.out
    assert "[b] status ok" in captured.out
    assert (out / "a" / "record.json").exists()
    assert (out / "report" / "summary.csv").exists()
    assert (out / "report" / "digest.txt").exists()


def test_suite_with_no_configs_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["suite", str(empty)]) == 1
    assert "failed at stage 'config'" in capsys.readouterr().err


def test_reproduce_tables_on_packaged_reference_data(tmp_path, capsys):
    assert main(["reproduce-tables", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "mismatches: 0" in captured.out
    table = tmp_path / "reproduction.csv"
    assert table.exists()
    with open(table, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 82
    verified = [r for r in rows if r["match"] == "true"]
    assert len(verified) == 50
    assert not any(r["match"] == "false" for r in rows)


def test_reproduce_tables_rejects_flipped_verdicts(tmp_path, capsys):
    es = tmp_path / "es.csv"
    es.write_text("group,dataset,variant,es,verdict\n"
                  "g,d,maml5,0.5,H1_maml\n", encoding="utf-8")
    delta = tmp_path / "delta.csv"
    delta.write_text("group,dataset,variant,delta\n"
                     "g,d,maml5,0.06\n", encoding="utf-8")
    assert main(["reproduce-tables", "--es", str(es), "--delta", str(delta),
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "mismatch g/d/maml5: computed H1_pt, reported H1_maml" in captured.out
    assert "failed at stage 'reproduce'" in captured.err


def test_reproduce_tables_names_a_missing_column(tmp_path, capsys):
    es = tmp_path / "es.csv"
    es.write_text("group,dataset,variant,es,verdict\n"
                  "g,d,maml5,0.5,H1_pt\n", encoding="utf-8")
    delta = tmp_path / "delta.csv"
    delta.write_text("group,dataset,variant\ng,d,maml5\n", encoding="utf-8")
    assert main(["reproduce-tables", "--es", str(es), "--delta", str(delta),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "failed at stage 'reproduce'" in err
    assert "missing columns ['delta']" in err


def test_report_renders_saved_runs_from_a_root_directory(tmp_path, capsys):
    root = tmp_path / "runs"
    harness.run_suite(
        [_tiny_config("a", diversity_tasks=0, histogram_tasks=0),
         _tiny_config("b", seed=1, diversity_tasks=0, histogram_tasks=0)],
        out_root=root)
    rep = tmp_path / "rep"
    assert main(["report", str(root), "--out", str(rep)]) == 0
    assert "report over 2 records" in capsys.readouterr().out
    assert (rep / "decisions_a.csv").exists()
    assert (rep / "decisions_b.csv").exists()
    # a single run directory also works
    rep2 = tmp_path / "rep2"
    assert main(["report", str(root / "a"), "--out", str(rep2)]) == 0
    assert (rep2 / "summary.csv").exists()


def test_report_reads_a_run_reached_twice_once(tmp_path, capsys):
    root = tmp_path / "runs"
    harness.run_suite(
        [_tiny_config("a", diversity_tasks=0, histogram_tasks=0),
         _tiny_config("b", seed=1, diversity_tasks=0, histogram_tasks=0)],
        out_root=root)
    rep = tmp_path / "rep"
    assert main(["report", str(root), str(root / "a"), "--out", str(rep)]) == 0
    assert "report over 2 records" in capsys.readouterr().out
    with open(rep / "summary.csv", encoding="utf-8") as fh:
        summary = {r["group"]: r for r in csv.DictReader(fh)}
    assert summary["all_fo"]["n"] == "4"  # 2 runs x 2 depths, each counted once


def test_report_refuses_two_runs_with_one_name(tmp_path, capsys):
    for root in ("one", "two"):
        harness.run_suite([_tiny_config("a", diversity_tasks=0, histogram_tasks=0)],
                          out_root=tmp_path / root)
    assert main(["report", str(tmp_path / "one"), str(tmp_path / "two"),
                 "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert "failed at stage 'report'" in err
    assert "run names must be unique" in err


def test_report_rejects_paths_without_records(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", str(empty)]) == 1
    assert "failed at stage 'report'" in capsys.readouterr().err


def test_diversity_verb_prints_and_writes_table(tmp_path, capsys):
    cfg_path = _write_yaml(tmp_path, _tiny_config())
    out = tmp_path / "div"
    assert main(["diversity", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "diversity:" in captured.out
    assert "probe: random" in captured.out
    assert "partition within-cloud:" in captured.out
    with open(out / "diversity.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["run"] == "cli-tiny"
    assert rows[0]["num_tasks"] == "3"
    assert float(rows[0]["coefficient"]) > 0


def test_diversity_table_keeps_a_pt_probe_provenance_in_one_cell(tmp_path, capsys):
    # "pt(seed=0, classes=10, epochs=...)" holds commas; the table must quote it
    cfg_path = _write_yaml(tmp_path, _tiny_config(probe_method="pt"))
    out = tmp_path / "div"
    assert main(["diversity", str(cfg_path), "--out", str(out)]) == 0
    printed = [line.removeprefix("probe: ")
               for line in capsys.readouterr().out.splitlines()
               if line.startswith("probe: ")]
    with open(out / "diversity.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert printed[0].startswith("pt(seed=0, ")
    assert rows[0]["probe"] == printed[0]
    assert None not in rows[0]  # no overflow columns


def test_diversity_verb_rejects_single_task(tmp_path, capsys):
    cfg_path = _write_yaml(tmp_path, _tiny_config())
    assert main(["diversity", str(cfg_path), "--meta-batch", "1"]) == 1
    assert ("failed at stage 'config': diversity needs at least 3 tasks"
            in capsys.readouterr().err)


@pytest.mark.parametrize("verb", ["run", "suite", "reproduce-tables", "diversity", "report"])
def test_an_out_path_naming_a_file_fails_at_a_stage(tmp_path, capsys, monkeypatch, verb):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    cfg = _tiny_config(diversity_tasks=0, histogram_tasks=0)
    cfg_path = _write_yaml(cfg_dir, cfg if verb != "diversity" else _tiny_config())
    if verb == "report":
        harness.run_suite([cfg], out_root=tmp_path / "runs")
    # a bad --out is refused before any task is embedded
    monkeypatch.setattr(harness, "measure_diversity", lambda *a, **kw: pytest.fail(
        f"{verb} measured diversity before refusing its --out"))
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    argv = {"run": ["run", str(cfg_path)],
            "suite": ["suite", str(cfg_dir)],
            "reproduce-tables": ["reproduce-tables"],
            "diversity": ["diversity", str(cfg_path)],
            "report": ["report", str(tmp_path / "runs")]}[verb]
    assert main(argv + ["--out", str(afile)]) == 1
    assert "failed at stage" in capsys.readouterr().err
    assert afile.read_text(encoding="utf-8") == "not a directory\n"


def test_console_entry_point_runs_in_a_subprocess(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "metalab", "reproduce-tables",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert "mismatches: 0" in proc.stdout
    assert (tmp_path / "reproduction.csv").exists()


@pytest.mark.parametrize("key, value, named", [
    ("probe_method", "distill", "probe_method"),
    ("histogram_bins", 0, "histogram_bins"),
    ("probe_hidden_dims", [], "probe_hidden_dims"),
    ("maml", {"max_epoch": 5}, "maml leg"),
    ("maml", {"inner_lr": -1.0}, "maml leg"),
    ("hidden_dims", [0], "hidden_dims"),
    ("probe_hidden_dims", [0], "probe leg"),
    ("n_way", 1, "n_way"),
    ("k_shot", 0, "k_shot"),
    ("q_query", 0, "q_query"),
    ("pt", {"examples_per_class": 0}, "pt leg"),
    ("pt", {"convergence_tol": float("nan")}, "convergence_tol"),
    ("maml", {"outer_lr": float("nan")}, "learning rates"),
    ("seed", -1, "seed=-1"),
    # a run has one seed; a config naming a removed seed key is refused
    ("init_seed", 0, "unknown config keys: ['init_seed']"),
    # a leg's range errors name the field and its value
    ("pt", {"max_epochs": -1}, "pt leg: max_epochs must be nonnegative, got max_epochs=-1"),
    ("maml", {"meta_batch": 0}, "maml leg: meta_batch must be positive, got meta_batch=0"),
    # counts and seeds that are not integers are refused, not truncated
    ("meta_batch", 3.5, "meta_batch"),
    ("k_shot", 2.5, "k_shot"),
    ("diversity_tasks", 3.5, "diversity_tasks"),
    ("hidden_dims", [8.7], "hidden_dims"),
    ("eval_steps", [5.5], "eval_steps"),
    ("seed", True, "seed"),
    ("pt", {"max_epochs": 10.5}, "max_epochs"),
    ("benchmark", {"seed": 0, "sources": [{"num_classes": 10.9, "input_dim": 3,
                                           "mean_scale": 2.0, "class_spread": 1.0}]},
     "num_classes"),
    # overrides that the leg's training never reads
    ("pt", {"inner_lr": 0.3}, "pt leg never reads inner_lr"),
    ("pt", {"inner_steps_train": 7}, "pt leg never reads inner_steps_train"),
    ("pt", {"meta_batch": 99}, "pt leg never reads meta_batch"),
    ("maml", {"examples_per_class": 999}, "maml leg never reads examples_per_class"),
    # a task count is 0 (disabled) or at least 3 for diversity, 2 for a histogram
    ("diversity_tasks", -3, "diversity needs at least 3 tasks: diversity_tasks=-3"),
    ("diversity_tasks", 1, "diversity needs at least 3 tasks: diversity_tasks=1"),
    ("diversity_tasks", 2, "diversity needs at least 3 tasks: diversity_tasks=2"),
    ("histogram_tasks", -1, "histogram needs at least 2 tasks: histogram_tasks=-1"),
    ("histogram_tasks", 1, "histogram needs at least 2 tasks: histogram_tasks=1"),
])
def test_run_refuses_a_bad_config_at_config_stage(tmp_path, capsys, key, value, named):
    doc = _tiny_config().to_dict()
    doc[key] = value
    with pytest.raises(ValueError, match=re.escape(named)):
        ExperimentConfig.from_dict(doc)
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "failed at stage 'config'" in err and named in err
    assert not out.exists()  # refused before any run directory was made


@pytest.mark.parametrize("leg, field", [("pt", "outer_lr"), ("maml", "inner_lr"),
                                        ("pt", "convergence_tol")])
def test_run_refuses_a_yaml_bool_rate_at_config_stage(tmp_path, capsys, leg, field):
    # YAML reads `yes` as True, which a float field would take as 1.0
    cfg_path = _write_yaml(tmp_path, _tiny_config())
    text = cfg_path.read_text(encoding="utf-8")
    assert f"\n{leg}:\n  max_epochs:" in text
    cfg_path.write_text(text.replace(f"\n{leg}:\n", f"\n{leg}:\n  {field}: yes\n"),
                        encoding="utf-8")
    with pytest.raises(ValueError, match=f"{leg} leg: {field} must be a number, not the bool"):
        ExperimentConfig.from_yaml(cfg_path)
    out = tmp_path / "runs"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "failed at stage 'config'" in err and f"{field} must be a number" in err
    assert not out.exists()


def test_run_refuses_a_negative_seed_flag_at_config_stage(tmp_path, capsys):
    cfg_path = _write_yaml(tmp_path, _tiny_config())
    out = tmp_path / "runs"
    assert main(["run", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "failed at stage 'config'" in err and "seed=-1" in err
    assert not out.exists()
