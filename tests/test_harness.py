"""Experiment configs, the comparison pipeline, records, and reports."""

import csv
import dataclasses
import hashlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from metalab import harness
from metalab.harness import (
    BenchmarkSpec,
    ExperimentConfig,
    HarnessError,
    RunRecord,
    SourceSpec,
    emit_report,
    high_diversity_preset,
    low_diversity_preset,
    measure_diversity,
    reproduce_decisions,
    run_comparison,
    run_suite,
    write_reproduction_table,
)
from metalab.learners import TrainConfig
from metalab.tasks import make_source

GOLDEN = Path(__file__).parent / "data" / "golden_tiny"


def _tiny_config(name: str = "tiny", **overrides) -> ExperimentConfig:
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


@pytest.fixture(scope="module")
def tiny_record() -> RunRecord:
    return run_comparison(_tiny_config())


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------


def test_source_spec_build_seeding_and_offset():
    spec = SourceSpec(num_classes=5, input_dim=3, mean_scale=1.0, class_spread=1.0)
    built = spec.build(42)
    assert np.array_equal(built.class_means, make_source(42, 5, 3, 1.0, 1.0).class_means)
    shifted = SourceSpec(num_classes=5, input_dim=3, mean_scale=1.0,
                         class_spread=1.0, offset=(1.0, 0.0, -1.0))
    assert np.array_equal(shifted.build(42).class_means,
                          built.class_means + np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        SourceSpec(num_classes=5, input_dim=3, mean_scale=1.0,
                   class_spread=1.0, offset=(1.0,))
    # a source draws from the seed its benchmark gives it, and has none of its own
    with pytest.raises(ValueError, match=r"unknown benchmark source keys: \['seed'\]"):
        SourceSpec.from_dict({**spec.to_dict(), "seed": 7})


def test_benchmark_spec_gives_unseeded_sources_distinct_streams():
    spec = BenchmarkSpec(sources=(
        SourceSpec(num_classes=4, input_dim=2, mean_scale=1.0, class_spread=1.0),
        SourceSpec(num_classes=4, input_dim=2, mean_scale=1.0, class_spread=1.0),
    ), seed=3)
    bench = spec.build()
    assert not np.array_equal(bench.sources[0].class_means, bench.sources[1].class_means)
    again = spec.build()
    assert np.array_equal(bench.sources[0].class_means, again.sources[0].class_means)
    with pytest.raises(ValueError):
        BenchmarkSpec(sources=())
    with pytest.raises(ValueError, match="benchmark seed"):
        BenchmarkSpec.from_dict({**spec.to_dict(), "seed": -1})
    rebuilt = BenchmarkSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    with pytest.raises(ValueError):
        BenchmarkSpec.from_dict({"seed": 0, "sources": [], "extra": 1})


def test_experiment_config_seed_defaults_and_validation():
    cfg = _tiny_config(seed=9)
    # one seed keys every draw of the run: both legs and the probe train at it
    assert cfg.pt_config().seed == cfg.maml_config().seed == 9
    assert _tiny_config(seed=9, probe_hidden_dims=(4,)).probe_config().seed == 9
    with pytest.raises(ValueError):
        _tiny_config(maml_order="second")
    with pytest.raises(ValueError):
        _tiny_config(eval_steps=())
    with pytest.raises(ValueError):
        _tiny_config(eval_steps=(5, 5))
    with pytest.raises(ValueError):
        _tiny_config(eval_steps=(-1,))
    with pytest.raises(ValueError):
        _tiny_config(meta_batch=1)
    with pytest.raises(ValueError):
        _tiny_config(name="")
    with pytest.raises(ValueError, match="seed=-1"):
        ExperimentConfig.from_dict({**cfg.to_dict(), "seed": -1})
    for attr in ("init_seed", "task_seed", "diversity_seed"):
        with pytest.raises(ValueError, match=rf"unknown config keys: \['{attr}'\]"):
            ExperimentConfig.from_dict({**cfg.to_dict(), attr: 9})


def test_reserved_training_overrides_are_rejected():
    for leg in ("pt", "maml"):
        for key in ("method", "seed", "hidden_dims", "n_way"):
            with pytest.raises(ValueError):
                _tiny_config(**{leg: {key: 1}})


def test_train_configs_inherit_shared_fields_and_overrides():
    cfg = _tiny_config(seed=5, maml={"inner_lr": 0.2, "max_epochs": 7})
    pt = cfg.pt_config()
    assert pt.method == "pt" and pt.seed == 5
    assert pt.hidden_dims == (8,) and pt.n_way == 2
    assert pt.max_epochs == 10
    maml = cfg.maml_config()
    assert maml.method == "fo_maml" and maml.inner_lr == 0.2 and maml.max_epochs == 7
    assert _tiny_config(maml_order="ho").maml_config().method == "ho_maml"


def test_config_yaml_round_trip(tmp_path):
    cfg = _tiny_config(seed=11, maml_order="ho", regime="highdiv")
    path = tmp_path / "cfg.yaml"
    cfg.to_yaml(path)
    assert ExperimentConfig.from_yaml(path) == cfg
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**cfg.to_dict(), "surprise": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"name": "x"})  # benchmark missing


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def test_run_comparison_record_structure(tiny_record):
    rec = tiny_record
    assert rec.status == "ok"
    assert len(rec.task_ids) == 2
    assert rec.eval_labels() == ("pt", "maml0", "maml2")
    assert set(rec.evals) == {"pt", "maml0", "maml2"}
    assert all(ev.meta_batch == 2 for ev in rec.evals.values())
    assert set(rec.l2_norms) == {"pt", "maml"}
    assert all(n > 0 for n in rec.l2_norms.values())
    assert len(rec.loss_curves["pt"]) == rec.epochs_run["pt"] == 10
    assert rec.epochs_run["maml"] == 3
    assert rec.decision_ids == ("maml0/es", "maml0/ci", "maml0/ci_1pct",
                                "maml2/es", "maml2/ci", "maml2/ci_1pct")
    assert [d.rule for d in rec.decisions] == ["es", "ci", "ci_1pct"] * 2
    assert rec.diversity is not None and rec.diversity.num_tasks == 3
    assert rec.histogram is not None and rec.histogram.num_tasks == 4
    assert rec.wall_clock_seconds > 0
    # all evaluations share the same episode list
    assert all(tid.startswith("test:0:") for tid in rec.task_ids)


def _assert_matches(got, want, path: str = "record") -> None:
    """Same structure and non-float values; floats within a relative 1e-9."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), path
    else:
        assert got == want, path


def test_run_comparison_is_deterministic(tiny_record):
    again = run_comparison(_tiny_config())
    a = tiny_record.to_dict()
    b = again.to_dict()
    a.pop("wall_clock_seconds")
    b.pop("wall_clock_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # A fresh run also reproduces the committed golden record: task ids,
    # accuracies, verdicts and epoch counts exactly, every other float
    # within a relative 1e-9, so that another BLAS build does not trip it.
    golden = json.loads((GOLDEN / "record.json").read_text(encoding="utf-8"))
    golden.pop("wall_clock_seconds")
    assert a["task_ids"] == golden["task_ids"]
    assert a["epochs_run"] == golden["epochs_run"]
    for label, ev in golden["evals"].items():
        assert a["evals"][label]["per_task_accuracy"] == ev["per_task_accuracy"]
        assert a["evals"][label]["mean"] == ev["mean"]
    assert [d["verdict"] for d in a["decisions"]] == [
        d["verdict"] for d in golden["decisions"]]
    _assert_matches(a, golden)


def _shrunk_lowdiv(**overrides) -> ExperimentConfig:
    base = dict(meta_batch=4, eval_steps=(1,), diversity_tasks=4,
                maml={"max_epochs": 2})
    base.update(overrides)
    return low_diversity_preset(0, **base)


def test_probe_is_the_pt_leg_exactly_when_it_has_the_legs_widths():
    for shared in (
        low_diversity_preset(0),
        _shrunk_lowdiv(diversity_tasks=0, histogram_tasks=2),
        _shrunk_lowdiv(pt={"max_epochs": 300}),
        _shrunk_lowdiv(probe_method="random"),
        _shrunk_lowdiv(diversity_tasks=0),                  # no diversity stage
        _shrunk_lowdiv(pt={"max_epochs": 299}),
        _shrunk_lowdiv(pt={"max_epochs": 400, "outer_lr": 0.1}),
        dataclasses.replace(_shrunk_lowdiv(), seed=1),
    ):
        assert shared.probe_config() == shared.pt_config()
    for unshared in (
        _shrunk_lowdiv(probe_hidden_dims=(16,)),
        dataclasses.replace(_shrunk_lowdiv(), seed=1, probe_hidden_dims=(16,)),
        high_diversity_preset(0),                           # probe (32,), PT leg (8,)
    ):
        assert unshared.probe_config() != unshared.pt_config()
        # any other probe trains on TrainConfig defaults at the run's seed
        # and its own widths
        assert unshared.probe_config() == TrainConfig(
            method="pt", seed=unshared.seed,
            hidden_dims=unshared.probe_hidden_dims, n_way=unshared.n_way,
            k_shot=unshared.k_shot, q_query=unshared.q_query)


def test_run_comparison_takes_the_probe_from_the_pt_leg(monkeypatch):
    cfg = _shrunk_lowdiv()
    bench = cfg.benchmark.build()
    standalone = measure_diversity(cfg, bench)  # trains the same config itself
    caps = []
    original = harness.train_pt
    monkeypatch.setattr(harness, "train_pt", lambda b, c: caps.append(
        c.max_epochs) or original(b, c))
    monkeypatch.setattr("metalab.task2vec.train_pt", lambda *a, **kw: pytest.fail(
        "the diversity stage trained a probe"))
    record = run_comparison(cfg)
    assert caps == [400]
    assert record.diversity == standalone[0]
    assert record.diversity.probe_provenance == "pt(seed=0, classes=40, epochs=400)"


def test_run_comparison_leaves_scipy_unimported(tmp_path, child_env):
    # Importing scipy.linalg.lapack after metalab costs about 23 MB of
    # resident memory (34 MB -> 57 MB) and 0.24-0.32 s, which the
    # benchmark's peak-memory and setup metrics would show, so no library
    # path may import any scipy module; scipy is a test-only dependency.
    # The package, its CLI and refdata are imported, and both probe methods
    # are run.
    for method in ("random", "pt"):
        _tiny_config(name=method, probe_method=method).to_yaml(tmp_path / f"{method}.yaml")
    script = textwrap.dedent(f"""
        import sys
        import metalab, metalab.cli, metalab.refdata
        from metalab.harness import ExperimentConfig, run_comparison
        for method in ("random", "pt"):
            cfg = ExperimentConfig.from_yaml({str(tmp_path)!r} + f"/{{method}}.yaml")
            assert run_comparison(cfg).diversity is not None
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=child_env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_comparison_skips_diversity_when_disabled():
    rec = run_comparison(_tiny_config(name="lean", diversity_tasks=0, histogram_tasks=0))
    assert rec.diversity is None
    assert rec.histogram is None


def test_record_save_load_round_trip(tiny_record, tmp_path):
    run_dir = tmp_path / "run"
    tiny_record.save(run_dir)
    for fname in ("record.json", "config.yaml", "decisions.csv", "accuracies.csv"):
        assert (run_dir / fname).exists()
    loaded = RunRecord.load(run_dir)
    assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(
        tiny_record.to_dict(), sort_keys=True)
    with pytest.raises(FileExistsError):
        tiny_record.save(run_dir)  # append-only


def test_saved_files_reproduce_the_golden_bytes(tmp_path):
    # The golden run directory was written by `save` for `_tiny_config()`:
    # reloading and saving again must give the same bytes (key order,
    # int/float rendering, nulls).
    loaded = RunRecord.load(GOLDEN)
    assert loaded.config == _tiny_config()
    loaded.save(tmp_path / "again")
    names = ("record.json", "config.yaml", "decisions.csv", "accuracies.csv")
    for name in names:
        assert (tmp_path / "again" / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    ExperimentConfig.from_yaml(GOLDEN / "config.yaml").to_yaml(tmp_path / "config.yaml")
    assert (tmp_path / "config.yaml").read_bytes() == (GOLDEN / "config.yaml").read_bytes()


def test_a_non_finite_spread_fails_at_build_benchmark(tmp_path):
    spec = BenchmarkSpec(sources=(SourceSpec(num_classes=10, input_dim=3, mean_scale=2.0,
                                             class_spread=float("nan"), name="cloud"),))
    with pytest.raises(HarnessError, match="class_spread") as err:
        run_comparison(_tiny_config(name="nan-spread", benchmark=spec), out_dir=tmp_path / "r")
    assert err.value.stage == "build-benchmark"


def test_failed_stage_leaves_a_marker(tmp_path):
    # n_way larger than the single source's 2-class test pool
    bad = _tiny_config(name="bad", n_way=5, k_shot=1, q_query=1)
    out = tmp_path / "bad-run"
    with pytest.raises(HarnessError) as err:
        run_comparison(bad, out_dir=out)
    assert err.value.stage == "build-benchmark"
    marker = json.loads((out / "failed.json").read_text())
    assert marker["status"] == "failed"
    assert marker["stage"] == "build-benchmark"
    assert "test pool" in marker["error"]
    assert not (out / "record.json").exists()


def test_persist_failure_is_its_own_stage(tiny_record, tmp_path):
    out = tmp_path / "dup"
    run_comparison(_tiny_config(), out_dir=out)
    with pytest.raises(HarnessError) as err:
        run_comparison(_tiny_config(), out_dir=out)
    assert err.value.stage == "persist"
    assert not (out / "failed.json").exists()


def test_failed_save_leaves_no_record_and_a_rerun_succeeds(tmp_path, monkeypatch):
    # A save that fails while serializing must not leave a record.json
    # behind: it would refuse every rerun as a duplicate.
    out = tmp_path / "flaky"

    def broken(self):
        raise RuntimeError("serialization failed")

    with monkeypatch.context() as patch:
        patch.setattr(RunRecord, "to_dict", broken)
        with pytest.raises(HarnessError) as err:
            run_comparison(_tiny_config(), out_dir=out)
    assert err.value.stage == "persist"
    assert json.loads((out / "failed.json").read_text())["stage"] == "persist"
    assert not (out / "record.json").exists()

    record = run_comparison(_tiny_config(), out_dir=out)
    assert RunRecord.load(out).to_dict() == record.to_dict()
    assert not (out / "failed.json").exists()
    assert sorted(p.name for p in out.iterdir()) == [
        "accuracies.csv", "config.yaml", "decisions.csv", "record.json"]


def test_duplicate_run_is_refused_before_training(tiny_record, tmp_path, monkeypatch):
    out = tmp_path / "dup"
    tiny_record.save(out)
    written = (out / "record.json").read_bytes()

    def no_training(*args, **kwargs):
        raise AssertionError("trained into a directory that already holds a record")

    monkeypatch.setattr(harness, "train_pt", no_training)
    with pytest.raises(HarnessError) as err:
        run_comparison(_tiny_config(), out_dir=out)
    assert err.value.stage == "persist"
    assert "already written" in err.value.message
    assert (out / "record.json").read_bytes() == written


def test_run_suite_demands_unique_names_and_writes_run_dirs(tmp_path):
    with pytest.raises(ValueError):
        run_suite([_tiny_config("a"), _tiny_config("a")])
    records = run_suite(
        [_tiny_config("a", diversity_tasks=0, histogram_tasks=0),
         _tiny_config("b", seed=1, diversity_tasks=0, histogram_tasks=0)],
        out_root=tmp_path)
    assert [r.config.name for r in records] == ["a", "b"]
    assert (tmp_path / "a" / "record.json").exists()
    assert (tmp_path / "b" / "record.json").exists()


# ---------------------------------------------------------------------------
# reproducing reported decision tables
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def test_reproduce_decisions_join_and_verdicts(tmp_path):
    es = _write_csv(tmp_path / "es.csv",
                    ["group", "dataset", "variant", "es", "verdict"],
                    [["g", "d1", "maml5", "0.5", "H1_pt"],
                     ["g", "d1", "maml10", "0.03", "H0_no_diff"],
                     ["g", "d2", "maml5", "-0.5", "H1_pt"],      # misreported
                     ["g", "d3", "maml5", "0.9", "H1_pt"]])      # no threshold row
    dl = _write_csv(tmp_path / "delta.csv",
                    ["group", "dataset", "variant", "delta"],
                    [["g", "d1", "maml5", "0.06"],
                     ["g", "d1", "maml10", "0.06"],
                     ["g", "d2", "maml5", "0.06"]])
    rows = reproduce_decisions(es, dl)
    assert [r.match for r in rows] == [True, True, False, None]
    assert rows[0].computed_verdict == "H1_pt"
    assert rows[1].computed_verdict == "H0_no_diff"
    assert rows[2].computed_verdict == "H1_maml"
    assert rows[3].delta is None and rows[3].computed_verdict is None
    out = tmp_path / "replay.csv"
    write_reproduction_table(out, rows)
    back = list(csv.DictReader(open(out, encoding="utf-8")))
    assert back[0]["match"] == "true"
    assert back[2]["match"] == "false"
    assert back[3]["match"] == "" and back[3]["delta"] == ""


def test_reproduce_decisions_uses_published_group_alias(tmp_path):
    es = _write_csv(tmp_path / "es.csv",
                    ["group", "dataset", "variant", "es", "verdict"],
                    [["highdiv_all", "hdb", "maml5", "0.08", "H1_pt"]])
    dl = _write_csv(tmp_path / "delta.csv",
                    ["group", "dataset", "variant", "delta"],
                    [["highdiv", "hdb", "maml5", "0.05"]])
    rows = reproduce_decisions(es, dl)
    assert rows[0].delta == 0.05
    assert rows[0].match is True


def test_reproduce_decisions_on_empty_table(tmp_path):
    es = _write_csv(tmp_path / "es.csv",
                    ["group", "dataset", "variant", "es", "verdict"], [])
    dl = _write_csv(tmp_path / "delta.csv",
                    ["group", "dataset", "variant", "delta"], [])
    assert reproduce_decisions(es, dl) == ()


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_records(tiny_record):
    other = run_comparison(_tiny_config(
        name="tiny-ho", maml_order="ho", regime="highdiv", seed=1,
        benchmark=BenchmarkSpec(sources=(
            SourceSpec(num_classes=10, input_dim=3, mean_scale=2.0,
                       class_spread=1.0, name="east"),
            SourceSpec(num_classes=10, input_dim=3, mean_scale=2.0,
                       class_spread=1.0, offset=(8.0, 0.0, 0.0), name="west"),
        ), seed=1)))
    return [tiny_record, other]


def test_emit_report_inventory_and_contents(two_records, tmp_path):
    out = emit_report(two_records, tmp_path / "report")
    names = {p.name for p in out.iterdir()}
    expected = {"decisions.csv", "decisions_tiny.csv", "decisions_tiny-ho.csv",
                "accuracies.csv", "diversity.csv", "norms.csv", "summary.csv",
                "digest.txt"}
    assert expected <= names
    hist_files = {n for n in names if n.startswith("histogram_")}
    assert "histogram_tiny_within-cloud.csv" in hist_files
    assert any(n.startswith("histogram_tiny-ho_cross") for n in hist_files)

    with open(out / "summary.csv", encoding="utf-8") as fh:
        summary = {r["group"]: r for r in csv.DictReader(fh)}
    assert set(summary) == {"all_fo", "highdiv_ho"}
    # two es-rule decisions per run (one per eval depth)
    assert summary["all_fo"]["n"] == "2"
    assert summary["highdiv_ho"]["n"] == "2"
    for row in summary.values():
        assert int(row["h0_count"]) + int(row["h1_pt_count"]) \
            + int(row["h1_maml_count"]) == int(row["n"])

    digest = (out / "digest.txt").read_text(encoding="utf-8")
    assert "mean H1 effect size:" in digest
    assert "[tiny]" in digest and "[tiny-ho]" in digest
    assert "pt: accuracy" in digest and "maml2: accuracy" in digest

    with open(out / "decisions.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 2 runs x 2 depths x 3 rules
    assert {r["experiment_id"].split("/")[0] for r in rows} == {"tiny", "tiny-ho"}


def test_emit_report_is_byte_deterministic(two_records, tmp_path):
    first = emit_report(two_records, tmp_path / "r1")
    second = emit_report(two_records, tmp_path / "r2")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        a = hashlib.sha256((first / name).read_bytes()).hexdigest()
        b = hashlib.sha256((second / name).read_bytes()).hexdigest()
        assert a == b, name
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "empty")


def test_emit_report_reproduces_the_golden_bundle(tmp_path):
    # report/ holds the bundle emitted for the golden record before the
    # tables moved to `stats.write_table`; every byte must stay.
    out = emit_report([RunRecord.load(GOLDEN)], tmp_path / "report")
    expected = sorted(p.name for p in (GOLDEN / "report").iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / "report" / name).read_bytes(), name


def test_emit_report_refuses_runs_that_would_share_files(tiny_record, tmp_path):
    renamed = dataclasses.replace(
        tiny_record, config=dataclasses.replace(tiny_record.config, name="tiny/x"))
    clash = dataclasses.replace(
        tiny_record, config=dataclasses.replace(tiny_record.config, name="tiny-x"))
    for records in ([tiny_record, tiny_record], [renamed, clash]):
        out = tmp_path / "rep"
        with pytest.raises(ValueError, match="run names must be unique"):
            emit_report(records, out)
        assert not out.exists()
    with pytest.raises(ValueError, match="run names must be unique"):
        run_suite([_tiny_config("a b"), _tiny_config("a-b")])


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_presets_build_valid_experiments():
    low = low_diversity_preset(seed=3)
    assert low.regime == "lowdiv"
    assert low.name == "lowdiv-3"
    assert low.maml_order == "fo"
    bench = low.benchmark.build()
    assert bench.total_classes == 40
    assert len(bench.split_pool("test")) >= low.n_way

    high = high_diversity_preset(seed=4, name="hi")
    assert high.regime == "highdiv" and high.name == "hi"
    hbench = high.benchmark.build()
    assert len(hbench.sources) == 4
    assert hbench.total_classes == 100
    # translated apart: axis offsets keep the clouds disjoint
    centroids = [s.class_means.mean(axis=0) for s in hbench.sources]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(centroids[i] - centroids[j]) > 4.0

    tweaked = low_diversity_preset(seed=3, maml_order="ho", meta_batch=10)
    assert tweaked.maml_order == "ho" and tweaked.meta_batch == 10
