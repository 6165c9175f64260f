"""Experiment orchestration: configs, comparisons, persistence, reports.

One experiment compares union pre-training against episodic meta-learning
on a synthetic Gaussian benchmark: both models start from the same seeded
initialization, both are evaluated on the identical meta-test episode
list, the benchmark's diversity is measured with a frozen probe, and
`stats.decide_all` adjudicates each adaptation-depth variant by the three
decision rules (effect size, CI overlap, CI overlap with a 1% allowance).
`run_comparison` executes that pipeline and persists a `RunRecord`;
`emit_report` renders any number of records into decision tables, the
grouped summaries `stats.summarize` computes, histogram files, and a
plain-text digest (`run_lines` is one run's block of it, which `metalab
run` prints); `reproduce_decisions` replays the effect-size rule over
externally reported tables and flags mismatches. This module decides and
averages nothing itself. Tables are written through `stats.write_table`;
reported tables are read through `refdata.load_rows`.

The pipeline's stages, in order: persist (a run directory that already
holds record.json is refused before any training), build-benchmark,
train-pt, train-maml, meta-test, diversity (`measure_diversity`, which the
CLI's diversity verb also runs), decide, persist (the record is written).
Each runs under one guard that turns a failure into a HarnessError naming
the stage. A pt probe with the PT leg's widths is the PT leg
(`ExperimentConfig.probe_config`), as in the low-diversity preset: the
diversity stage then embeds with the PT leg's model and trains nothing.

Configuration document (YAML) schema, with defaults:

    name: lowdiv-0         # required; also names the run directory
    regime: all            # report grouping label, e.g. lowdiv / highdiv
    seed: 0                # every draw of the run: init, episodes, probe
    maml_order: fo         # fo | ho (first- vs higher-order outer gradient)
    hidden_dims: [32]      # shared body architecture for both methods
    n_way: 5
    k_shot: 5
    q_query: 15
    meta_batch: 300        # meta-test episodes
    eval_steps: [5, 10]    # adaptation depths evaluated for the meta-learner
    diversity_tasks: 150   # episodes embedded for the coefficient; 0 disables, else >= 3
    probe_method: pt       # pt | random
    probe_hidden_dims: [32]
    histogram_tasks: 0     # source-pure episodes for the histogram; 0 disables, else >= 2
    histogram_bins: 20
    pt: {}                 # TrainConfig overrides for the pre-training leg
    maml: {}               # TrainConfig overrides for the meta-learning leg
    benchmark:
      seed: 0
      sources:
        - num_classes: 40  # required
          input_dim: 8     # required
          mean_scale: 2.0  # required
          class_spread: 1.0  # required
          offset: null     # optional translation added to every class mean
          name: null       # default: gauss<seed>x<num_classes>

Source i draws from `benchmark.seed * 1000 + i`.

`pt:` / `maml:` may override any TrainConfig field except method, seed,
hidden_dims, and the episode shape (those are pinned by the experiment so
the two legs stay comparable), and except the fields that leg never reads
(pt: inner_lr, inner_steps_train, meta_batch; maml: examples_per_class).

Persistence: one directory per run holding config.yaml, record.json (the
authority; every reported number traces back to it), decisions.csv, and
accuracies.csv. Records are append-only: saving over an existing
record.json raises. Re-running the same config reproduces record.json
byte-for-byte except the wall_clock_seconds field. Both documents are
derived from the dataclass fields: config.yaml lists keys in field order,
record.json sorts them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

from metalab import stats
from metalab.learners import (
    EvalResult,
    TrainConfig,
    TrainResult,
    meta_test,
    model_l2_norm,
    train_maml,
    train_pt,
)
from metalab.rng import integer
from metalab.stats import Decision, decide_all, sig6
from metalab.task2vec import (
    DistanceHistogram,
    DiversityReport,
    build_probe,
    distance_histogram,
    diversity_coefficient,
)
from metalab.tasks import (
    Benchmark,
    Source,
    benchmark_from_sources,
    make_source,
    sample_task,
    translate_source,
)

__all__ = [
    "HarnessError",
    "SourceSpec",
    "BenchmarkSpec",
    "ExperimentConfig",
    "RunRecord",
    "ReproducedDecision",
    "run_comparison",
    "run_lines",
    "measure_diversity",
    "run_suite",
    "reproduce_decisions",
    "write_reproduction_table",
    "write_diversity_table",
    "emit_report",
    "low_diversity_preset",
    "high_diversity_preset",
]

_MAML_ORDERS = ("fo", "ho")
_RESERVED_OVERRIDES = ("method", "seed", "hidden_dims", "n_way", "k_shot", "q_query")
# TrainConfig fields that a leg's training function never reads
_UNREAD_OVERRIDES = {"pt": ("inner_lr", "inner_steps_train", "meta_batch"),
                     "maml": ("examples_per_class",)}


class HarnessError(RuntimeError):
    """A pipeline stage failed; `.stage` names it for the exit message."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
        self.message = message


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _plain(value):
    """`value` as JSON/YAML data, the one serialized form of every record.

    Dataclasses become dicts in field order, mappings dicts in sorted key
    order, tuples, lists and arrays lists, numpy scalars Python numbers.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {k: _plain(value[k]) for k in sorted(value)}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _from_plain(cls, d: Mapping, where: str, **convert):
    """Rebuild dataclass `cls` from its `_plain` form.

    Keys must be field names, and every field without a default must be
    present. `convert` maps a field name to the function that turns its
    plain value back into the field's type; other values pass unchanged.
    """
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{where} needs {missing}")
    return cls(**{k: convert[k](v) if k in convert else v for k, v in d.items()})


def _or_empty(overrides: Mapping | None) -> Mapping:
    """A YAML `pt:` or `maml:` key with no value means no overrides."""
    return {} if overrides is None else overrides


@dataclass(frozen=True)
class SourceSpec:
    """Recipe for one Gaussian source; its benchmark supplies the seed."""

    num_classes: int
    input_dim: int
    mean_scale: float
    class_spread: float
    offset: tuple[float, ...] | None = None
    name: str | None = None

    def __post_init__(self):
        for attr in ("num_classes", "input_dim"):
            object.__setattr__(self, attr, integer(getattr(self, attr), attr))
        if self.offset is not None:
            object.__setattr__(self, "offset", tuple(float(v) for v in self.offset))
            if len(self.offset) != self.input_dim:
                raise ValueError("offset length must equal input_dim")

    def build(self, seed: int) -> Source:
        src = make_source(seed, self.num_classes, self.input_dim,
                          self.mean_scale, self.class_spread, name=self.name)
        if self.offset is not None:
            src = translate_source(src, np.asarray(self.offset), name=src.name)
        return src

    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "SourceSpec":
        return _from_plain(cls, d, "benchmark source", mean_scale=float,
                           class_spread=float)


@dataclass(frozen=True, kw_only=True)
class BenchmarkSpec:
    """Recipe for a benchmark: sources plus the seed they draw from.

    Fields are declared in the order config.yaml lists them.
    """

    seed: int = 0
    sources: tuple[SourceSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise ValueError("a benchmark spec needs at least one source")
        object.__setattr__(self, "seed", integer(self.seed, "benchmark seed"))
        if self.seed < 0:
            raise ValueError(f"benchmark seed must be nonnegative, got {self.seed}")

    def build(self) -> Benchmark:
        built = [spec.build(self.seed * 1000 + i)
                 for i, spec in enumerate(self.sources)]
        return benchmark_from_sources(built)

    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "BenchmarkSpec":
        return _from_plain(cls, d, "benchmark", sources=lambda ss: tuple(
            SourceSpec.from_dict(s) for s in ss))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything one comparison run needs; round-trips through YAML.

    Every draw of the run keys off `seed`: the init of both legs, the
    meta-test episodes, the probe, and the diversity and histogram
    episodes (the benchmark's sources draw from `benchmark.seed`). The
    seed may not be negative, and a seed or count that is not an integer
    (a float or a bool) is refused, not truncated. The diversity episodes
    are the first meta-test episodes: both draw `(seed, i)` (ROADMAP item
    4). The `TrainConfig`s of both legs and of the pt probe are built
    here, by one builder (`_leg_config`, which pins their seed, widths and
    episode shape), so a bad setting fails before training. A probe with
    the PT leg's widths is the PT leg (`probe_config`), and
    `run_comparison` embeds with the leg's model. Fields are declared in
    the order config.yaml lists them.
    """

    name: str
    regime: str = "all"
    seed: int = 0
    maml_order: str = "fo"
    hidden_dims: tuple[int, ...] = (32,)
    n_way: int = 5
    k_shot: int = 5
    q_query: int = 15
    meta_batch: int = 300
    eval_steps: tuple[int, ...] = (5, 10)
    diversity_tasks: int = 150
    probe_method: str = "pt"
    probe_hidden_dims: tuple[int, ...] = (32,)
    histogram_tasks: int = 0
    histogram_bins: int = 20
    pt: Mapping = field(default_factory=dict)
    maml: Mapping = field(default_factory=dict)
    benchmark: BenchmarkSpec

    def __post_init__(self):
        if not self.name:
            raise ValueError("config needs a name")
        if self.maml_order not in _MAML_ORDERS:
            raise ValueError(f"maml_order must be one of {_MAML_ORDERS}")
        for attr in ("seed", "n_way", "k_shot", "q_query", "meta_batch",
                     "diversity_tasks", "histogram_tasks", "histogram_bins"):
            object.__setattr__(self, attr, integer(getattr(self, attr), attr))
        for attr in ("hidden_dims", "probe_hidden_dims", "eval_steps"):
            object.__setattr__(self, attr, tuple(
                integer(v, attr) for v in getattr(self, attr)))
        if not self.eval_steps:
            raise ValueError("eval_steps must be nonempty")
        if any(s < 0 for s in self.eval_steps):
            raise ValueError("eval_steps must be nonnegative")
        if len(set(self.eval_steps)) != len(self.eval_steps):
            raise ValueError("eval_steps must be distinct")
        if self.meta_batch < 2:
            raise ValueError("meta_batch must be at least 2 (CIs need a spread)")
        if self.probe_method not in ("pt", "random"):
            raise ValueError(f"probe_method must be pt or random, got {self.probe_method!r}")
        if not self.probe_hidden_dims:
            raise ValueError("probe_hidden_dims needs a hidden layer to embed tasks with")
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be positive")
        # the coefficient's CI needs at least 2 pairs, so 3 tasks; a histogram 1 pair
        for attr, what, least in (("diversity_tasks", "diversity", 3),
                                  ("histogram_tasks", "histogram", 2)):
            count = getattr(self, attr)
            if count != 0 and count < least:
                raise ValueError(f"{what} needs at least {least} tasks: {attr}={count} "
                                 "(0 disables it)")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got seed={self.seed}")
        for leg, overrides, build in (("pt", self.pt, self.pt_config),
                                      ("maml", self.maml, self.maml_config),
                                      ("probe", {}, self.probe_config)):
            clash = set(overrides) & set(_RESERVED_OVERRIDES)
            if clash:
                raise ValueError(
                    f"{leg} overrides may not set {sorted(clash)}; "
                    "those fields are pinned by the experiment config")
            unread = sorted(set(overrides) & set(_UNREAD_OVERRIDES.get(leg, ())))
            if unread:
                raise ValueError(f"{leg} leg never reads {', '.join(unread)}; "
                                 "overriding it would have no effect")
            try:
                build()
            except (TypeError, ValueError) as err:
                raise ValueError(f"{leg} leg: {err}") from err

    def _leg_config(self, method: str, hidden_dims: tuple[int, ...],
                    overrides: Mapping) -> TrainConfig:
        """A leg's `TrainConfig`: seed, widths and episode shape pinned here."""
        return TrainConfig(method=method, seed=self.seed, hidden_dims=hidden_dims,
                           n_way=self.n_way, k_shot=self.k_shot,
                           q_query=self.q_query, **overrides)

    def pt_config(self) -> TrainConfig:
        return self._leg_config("pt", self.hidden_dims, self.pt)

    def maml_config(self) -> TrainConfig:
        return self._leg_config(f"{self.maml_order}_maml", self.hidden_dims, self.maml)

    def probe_config(self) -> TrainConfig:
        """The pt probe's training run.

        A probe with the PT leg's widths is the PT leg: when
        `probe_hidden_dims == hidden_dims` this is `pt_config()`. Any other
        probe trains on `TrainConfig` defaults at `seed` and its own widths.
        """
        if self.probe_hidden_dims == self.hidden_dims:
            return self.pt_config()
        return self._leg_config("pt", self.probe_hidden_dims, {})

    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentConfig":
        return _from_plain(cls, d, "config", benchmark=BenchmarkSpec.from_dict,
                           pt=_or_empty, maml=_or_empty)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        if not isinstance(doc, Mapping):
            raise ValueError(f"{path}: config document must be a mapping")
        return cls.from_dict(doc)

    def to_yaml(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """Everything one comparison produced; the authority for reports.

    `evals` is keyed "pt" plus "maml<steps>" per evaluated adaptation
    depth; `decision_ids` parallels `decisions` with "maml<steps>/<rule>"
    labels. All evaluations share the episode list in `task_ids`.
    """

    config: ExperimentConfig
    status: str
    task_ids: tuple[str, ...]
    evals: Mapping[str, EvalResult]
    loss_curves: Mapping[str, tuple[float, ...]]
    epochs_run: Mapping[str, int]
    converged: Mapping[str, bool]
    l2_norms: Mapping[str, float]
    diversity: DiversityReport | None
    histogram: DistanceHistogram | None
    decisions: tuple[Decision, ...]
    decision_ids: tuple[str, ...]
    wall_clock_seconds: float

    def __post_init__(self):
        if len(self.decisions) != len(self.decision_ids):
            raise ValueError("decision_ids must parallel decisions")
        for key in self.evals:
            if key != "pt" and not key.startswith("maml"):
                raise ValueError(f"unexpected eval key {key!r}")

    def eval_labels(self) -> tuple[str, ...]:
        return ("pt",) + tuple(f"maml{s}" for s in self.config.eval_steps)

    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunRecord":
        return _from_plain(
            cls, d, "record", config=ExperimentConfig.from_dict,
            task_ids=tuple, decision_ids=tuple,
            evals=lambda m: {k: _from_plain(EvalResult, v, "eval")
                             for k, v in m.items()},
            loss_curves=lambda m: {k: tuple(v) for k, v in m.items()},
            diversity=lambda v: None if v is None else _from_plain(
                DiversityReport, v, "diversity"),
            histogram=lambda v: None if v is None else _from_plain(
                DistanceHistogram, v, "histogram", bin_edges=np.asarray,
                counts=lambda m: {k: np.asarray(c, dtype=np.int64)
                                  for k, c in m.items()},
                distances=lambda m: {k: np.asarray(x) for k, x in m.items()}),
            decisions=lambda xs: tuple(_from_plain(Decision, x, "decision")
                                       for x in xs))

    def save(self, run_dir: str | Path) -> Path:
        """Persist config.yaml, record.json, and the per-run tables.

        Records are append-only: an existing record.json is never
        overwritten. record.json appears whole or not at all (serialized
        first, written to a temp file, renamed into place), and a save
        clears a failed.json left by an earlier failed attempt.
        """
        text = json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        record_path = _new_record_path(run_dir)
        self.config.to_yaml(run_dir / "config.yaml")
        stats.write_table(run_dir / "decisions.csv", _DECISION_COLUMNS, _decision_rows(self))
        stats.write_table(run_dir / "accuracies.csv", _ACCURACY_COLUMNS,
                          _accuracy_rows(self))
        partial = run_dir / "record.json.partial"
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, record_path)
        (run_dir / "failed.json").unlink(missing_ok=True)
        return record_path

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunRecord":
        with open(Path(run_dir) / "record.json", "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_DECISION_COLUMNS = ("experiment_id", "es", "delta", "verdict")
_ACCURACY_COLUMNS = ("method", "mean", "ci95_halfwidth", "meta_batch")


def _decision_rows(rec: RunRecord) -> list[tuple[str, float, float, str]]:
    return [(f"{rec.config.name}/{label}", d.effect_size, d.delta, d.verdict)
            for label, d in zip(rec.decision_ids, rec.decisions)]


def _accuracy_rows(rec: RunRecord) -> list[tuple[str, float, float, int]]:
    return [(label, rec.evals[label].mean, rec.evals[label].ci95_halfwidth,
             rec.evals[label].meta_batch) for label in rec.eval_labels()]


def _new_record_path(run_dir: Path) -> Path:
    """run_dir/record.json, refused if it exists: records are append-only."""
    path = run_dir / "record.json"
    if path.exists():
        raise FileExistsError(f"{path} already written (append-only)")
    return path


# ---------------------------------------------------------------------------
# the comparison pipeline
# ---------------------------------------------------------------------------


def _variant_label(steps: int) -> str:
    return f"maml{steps}"


@contextmanager
def _stage(name: str, run_dir: Path | None = None):
    """Run one pipeline stage; any exception becomes HarnessError(name, ...).

    With a `run_dir`, a failed.json marker naming the stage and the error
    is written there first.
    """
    try:
        yield
    except Exception as exc:
        if run_dir is not None:
            marker = {"status": "failed", "stage": name, "error": str(exc)}
            with open(run_dir / "failed.json", "w", encoding="utf-8") as fh:
                json.dump(marker, fh, sort_keys=True, indent=1)
                fh.write("\n")
        raise HarnessError(name, str(exc)) from exc


def run_comparison(config: ExperimentConfig,
                   out_dir: str | Path | None = None) -> RunRecord:
    """Train both methods, evaluate on shared episodes, decide, persist.

    Stages run in order: persist (with `out_dir` only: make the directory,
    and refuse one that cannot be made or already holds a record.json,
    before any training), build-benchmark,
    train-pt, train-maml, meta-test, diversity, decide, persist. The PT
    leg's run goes to the diversity stage, which embeds with it when the
    pt probe is the PT leg (`ExperimentConfig.probe_config`) and then
    trains nothing. A failure raises HarnessError naming the stage. When
    `out_dir` is given, a failure after the early check leaves a
    failed.json marker with the stage name there and keeps partial
    artifacts. A directory refused by the early check is left untouched,
    so its record.json gets no marker.
    """
    t0 = time.perf_counter()
    run_dir = None if out_dir is None else Path(out_dir)
    if run_dir is not None:
        with _stage("persist"):  # no marker: a refused directory keeps its record
            run_dir.mkdir(parents=True, exist_ok=True)
            _new_record_path(run_dir)

    with _stage("build-benchmark", run_dir):
        benchmark = config.benchmark.build()
        if len(benchmark.split_pool("test")) < config.n_way:
            raise ValueError(
                f"test pool has {len(benchmark.split_pool('test'))} classes, "
                f"fewer than n_way={config.n_way}")

    with _stage("train-pt", run_dir):
        pt_result = train_pt(benchmark, config.pt_config())

    with _stage("train-maml", run_dir):
        maml_cfg = config.maml_config()
        maml_result = train_maml(benchmark, maml_cfg)

    with _stage("meta-test", run_dir):
        tasks = [sample_task(benchmark, "test", config.n_way, config.k_shot,
                             config.q_query, (config.seed, i))
                 for i in range(config.meta_batch)]
        evals: dict[str, EvalResult] = {
            "pt": meta_test(pt_result.model, "pt_head_refit", tasks)
        }
        for steps in config.eval_steps:
            evals[_variant_label(steps)] = meta_test(
                maml_result.model, "maml_adapt", tasks,
                steps=steps, lr=maml_cfg.inner_lr)

    with _stage("diversity", run_dir):
        diversity, histogram = measure_diversity(config, benchmark, pt_run=pt_result)

    with _stage("decide", run_dir):
        pt_accs = evals["pt"].per_task_accuracy
        decisions: list[Decision] = []
        decision_ids: list[str] = []
        for steps in config.eval_steps:
            label = _variant_label(steps)
            for decision in decide_all(pt_accs, evals[label].per_task_accuracy, label):
                decisions.append(decision)
                decision_ids.append(f"{label}/{decision.rule}")

    record = RunRecord(
        config=config,
        status="ok",
        task_ids=tuple(t.task_id for t in tasks),
        evals=evals,
        loss_curves={"pt": pt_result.loss_curve, "maml": maml_result.loss_curve},
        epochs_run={"pt": pt_result.epochs_run, "maml": maml_result.epochs_run},
        converged={"pt": pt_result.converged, "maml": maml_result.converged},
        l2_norms={"pt": model_l2_norm(pt_result.model),
                  "maml": model_l2_norm(maml_result.model)},
        diversity=diversity,
        histogram=histogram,
        decisions=tuple(decisions),
        decision_ids=tuple(decision_ids),
        wall_clock_seconds=time.perf_counter() - t0,
    )

    if run_dir is not None:
        with _stage("persist", run_dir):
            record.save(run_dir)
    return record


def measure_diversity(config: ExperimentConfig, benchmark: Benchmark,
                      pt_run: TrainResult | None = None,
                      ) -> tuple[DiversityReport | None, DistanceHistogram | None]:
    """The diversity stage: one frozen probe, the coefficient, the histogram.

    `config.diversity_tasks` episodes are embedded for the coefficient and
    `config.histogram_tasks` source-pure ones for the histogram; a count
    of 0 skips that result (None), and the probe is built only if one of
    them runs. The config is the only source of both counts (the CLI's
    `diversity --meta-batch N` sets `diversity_tasks` in it). Everything
    draws from `config.seed`. The pt probe trains on
    `config.probe_config()`. When that is `config.pt_config()`, the probe
    is the PT leg: `pt_run`, the leg's run on `benchmark`, serves as the
    probe untrained (`run_comparison` passes it). Without it (the CLI's
    diversity verb) the same config is trained here, so both report the
    same numbers.
    """
    if not (config.diversity_tasks or config.histogram_tasks):
        return None, None
    probe_cfg = config.probe_config()
    is_pt_leg = config.probe_method == "pt" and probe_cfg == config.pt_config()
    probe = build_probe(benchmark, config.seed, config=probe_cfg,
                        method=config.probe_method, trained=pt_run if is_pt_leg else None)
    episode = dict(n_way=config.n_way, k_shot=config.k_shot, q_query=config.q_query)
    diversity = histogram = None
    if config.diversity_tasks:
        diversity = diversity_coefficient(probe, benchmark, config.diversity_tasks,
                                          config.seed, **episode)
    if config.histogram_tasks:
        histogram = distance_histogram(probe, benchmark, config.histogram_tasks,
                                       config.histogram_bins, config.seed, **episode)
    return diversity, histogram


def run_suite(configs: Sequence[ExperimentConfig],
              out_root: str | Path | None = None) -> list[RunRecord]:
    """Run independent comparisons sequentially, one directory per run.

    Runs share nothing, so a caller may parallelize across processes; the
    per-run directories (named by config) never contend.
    """
    _check_unique_names([c.name for c in configs])
    records = []
    for config in configs:
        run_dir = None if out_root is None else Path(out_root) / config.name
        records.append(run_comparison(config, run_dir))
    return records


# ---------------------------------------------------------------------------
# replaying reported decision tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReproducedDecision:
    """One reported effect-size cell replayed through the decision rule.

    `match` is None when no threshold row exists for the cell (flagged
    unverifiable rather than guessed).
    """

    group: str
    dataset: str
    variant: str
    es: float
    reported_verdict: str
    delta: float | None
    computed_verdict: str | None
    match: bool | None


# The threshold table publishes one high-diversity batch under a plain key.
_DELTA_GROUP_ALIASES = {"highdiv_all": "highdiv"}


def reproduce_decisions(es_table: str | Path,
                        delta_table: str | Path) -> tuple[ReproducedDecision, ...]:
    """Replay decide_from_es over a reported (group,dataset,variant) table.

    Both inputs are UTF-8 CSVs: the effect-size table needs columns
    group,dataset,variant,es,verdict; the threshold table needs
    group,dataset,variant,delta. Rows join on the key triple (with the
    published group aliases); an unmatched effect-size row comes back with
    match=None. A table without its required columns raises ValueError
    naming them.
    """
    # imported here: building the refdata row classes adds about 5 ms to
    # every `import metalab`, and only this replay reads them
    from metalab.refdata import ReportedDelta, ReportedEffectSize, load_rows

    deltas = {(r.group, r.dataset, r.variant): r.delta
              for r in load_rows(ReportedDelta, delta_table)}
    out = []
    for r in load_rows(ReportedEffectSize, es_table):
        key = (r.group, r.dataset, r.variant)
        alias = (_DELTA_GROUP_ALIASES.get(r.group, r.group), r.dataset, r.variant)
        delta = deltas.get(key, deltas.get(alias))
        if delta is None:
            computed, match = None, None
        else:
            computed = stats.decide_from_es(r.es, delta)
            match = computed == r.verdict
        out.append(ReproducedDecision(
            group=r.group, dataset=r.dataset, variant=r.variant,
            es=r.es, reported_verdict=r.verdict, delta=delta,
            computed_verdict=computed, match=match))
    return tuple(out)


def write_reproduction_table(path: str | Path,
                             rows: Iterable[ReproducedDecision]) -> None:
    """Emit replayed decisions as a table; unverifiable cells stay blank."""
    stats.write_table(
        path, ("group", "dataset", "variant", "es", "delta",
               "computed_verdict", "reported_verdict", "match"),
        [(r.group, r.dataset, r.variant, r.es, r.delta, r.computed_verdict,
          r.reported_verdict, r.match) for r in rows])


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in text)


def _check_unique_names(names: Sequence[str]) -> None:
    """Refuse run names that repeat, also once `_safe_name` makes them file names."""
    safe = [_safe_name(name) for name in names]
    clash = sorted(name for name, s in zip(names, safe) if safe.count(s) > 1)
    if clash:
        raise ValueError(f"run names must be unique as file names: {clash}")


def _fmt(x: float | None, na: str = "no-data") -> str:
    return na if x is None else sig6(x)


def write_diversity_table(path: str | Path,
                          rows: Iterable[tuple[str, DiversityReport]]) -> None:
    """Emit (run name, diversity report) rows as a table."""
    stats.write_table(
        path, ("run", "coefficient", "ci95_halfwidth", "num_tasks", "num_pairs", "probe"),
        [(name, dv.coefficient, dv.ci95_halfwidth, dv.num_tasks, dv.num_pairs,
          dv.probe_provenance) for name, dv in rows])


def emit_report(records: Sequence[RunRecord], out_dir: str | Path) -> Path:
    """Render records into tables, summaries, histograms, and a digest.

    Outputs, all deterministic given the records: decisions.csv (every
    decision across runs), per-run decisions_<name>.csv, accuracies.csv,
    diversity.csv, norms.csv, summary.csv (effect-size rule grouped by
    "<regime>_<maml order>", with pooled-H1 means and CIs), per-partition
    histogram_<run>_<partition>.csv files (bin_center,count), and
    digest.txt. Numbers are rendered from record fields only. Run names
    that collide as file names raise ValueError before anything is written.
    """
    if not records:
        raise ValueError("emit_report needs at least one record")
    _check_unique_names([rec.config.name for rec in records])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_rows = []
    for rec in records:
        rows = _decision_rows(rec)
        all_rows.extend(rows)
        stats.write_table(out_dir / f"decisions_{_safe_name(rec.config.name)}.csv",
                          _DECISION_COLUMNS, rows)
    stats.write_table(out_dir / "decisions.csv", _DECISION_COLUMNS, all_rows)

    stats.write_table(out_dir / "accuracies.csv", ("run",) + _ACCURACY_COLUMNS,
                      [(rec.config.name,) + row for rec in records
                       for row in _accuracy_rows(rec)])

    write_diversity_table(out_dir / "diversity.csv",
                          [(rec.config.name, rec.diversity) for rec in records
                           if rec.diversity is not None])

    stats.write_table(out_dir / "norms.csv", ("run", "method", "l2_norm"),
                      [(rec.config.name, method, rec.l2_norms[method])
                       for rec in records for method in sorted(rec.l2_norms)])

    for rec in records:
        if rec.histogram is None:
            continue
        edges = np.asarray(rec.histogram.bin_edges)
        centers = (edges[:-1] + edges[1:]) / 2.0
        for part in sorted(rec.histogram.counts):
            fname = (f"histogram_{_safe_name(rec.config.name)}_"
                     f"{_safe_name(part)}.csv")
            stats.write_table(out_dir / fname, ("bin_center", "count"),
                              zip(centers, rec.histogram.counts[part]))

    # effect-size-rule decisions grouped by diversity regime and maml order
    es_decisions = [(f"{rec.config.regime}_{rec.config.maml_order}", d)
                    for rec in records for d in rec.decisions if d.rule == "es"]
    summary = stats.summarize([d for _, d in es_decisions], [g for g, _ in es_decisions])

    stats.write_table(
        out_dir / "summary.csv",
        ("group", "n", "h0_count", "h1_pt_count", "h1_maml_count",
         "h0_mean", "h1_pt_mean", "h1_maml_mean", "h1_pooled_mean", "h1_pooled_ci95"),
        [(gs.group, gs.total)
         + tuple(gs.counts[v] for v in stats.VERDICTS)
         + tuple(gs.bucket_means[v] for v in stats.VERDICTS)
         + (gs.h1_pooled_mean, gs.h1_pooled_ci95) for gs in summary.values()])

    digest_lines = _digest(records, summary.values())
    with open(out_dir / "digest.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(digest_lines) + "\n")
    return out_dir


def run_lines(rec: RunRecord) -> list[str]:
    """One run's text block: the digest prints it, and so does `metalab run`."""
    cfg = rec.config
    lines = [f"[{cfg.name}] regime={cfg.regime} maml_order={cfg.maml_order} "
             f"seed={cfg.seed}",
             f"  status: {rec.status}; wall clock {rec.wall_clock_seconds:.1f} s"]
    for label in rec.eval_labels():
        ev = rec.evals[label]
        lines.append(f"  {label}: accuracy {ev.mean:.4f} +/- "
                     f"{ev.ci95_halfwidth:.4f} over {ev.meta_batch} episodes")
    lines.append(f"  l2 norms: pt {rec.l2_norms['pt']:.3f}, "
                 f"maml {rec.l2_norms['maml']:.3f}")
    for method in ("pt", "maml"):
        state = "converged" if rec.converged[method] else "epoch cap"
        lines.append(f"  {method} training: {rec.epochs_run[method]} epochs "
                     f"({state})")
    if rec.diversity is not None:
        dv = rec.diversity
        lines.append(f"  diversity: {dv.coefficient:.4f} +/- "
                     f"{dv.ci95_halfwidth:.4f} ({dv.num_tasks} tasks, "
                     f"{dv.num_pairs} pairs)")
    if rec.histogram is not None:
        means = ", ".join(f"{k} {v:.4f}" for k, v in
                          sorted(rec.histogram.partition_means.items()))
        lines.append(f"  histogram partition means: {means}")
    for label, d in zip(rec.decision_ids, rec.decisions):
        lines.append(f"  decision {label}: es {sig6(d.effect_size)} "
                     f"delta {sig6(d.delta)} -> {d.verdict}")
    return lines


def _digest(records: Sequence[RunRecord],
            groups: Iterable[stats.GroupSummary]) -> list[str]:
    lines = ["comparison digest", "=" * 17, f"runs: {len(records)}", ""]
    for rec in records:
        lines.extend(run_lines(rec))
        lines.append("")
    lines.append("grouped summary (effect-size rule)")
    lines.append("-" * 34)
    for gs in groups:
        lines.append(f"{gs.group}: n={gs.total} "
                     f"H0={gs.counts[stats.H0]} "
                     f"H1_pt={gs.counts[stats.H1_PT]} "
                     f"H1_maml={gs.counts[stats.H1_MAML]}")
        lines.append(f"  bucket means: H0 {_fmt(gs.bucket_means[stats.H0])}, "
                     f"H1_pt {_fmt(gs.bucket_means[stats.H1_PT])}, "
                     f"H1_maml {_fmt(gs.bucket_means[stats.H1_MAML])}")
        lines.append(f"  mean H1 effect size: {_fmt(gs.h1_pooled_mean)} "
                     f"+/- {_fmt(gs.h1_pooled_ci95, 'n/a')} (95% CI)")
    return lines


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def low_diversity_preset(seed: int = 0, name: str | None = None,
                         **overrides) -> ExperimentConfig:
    """One Gaussian cloud: every episode reuses the same tight structure.

    Union pre-training sees all the structure there is, so its converged
    per-episode head refit tends to beat few-step adaptation, the
    low-diversity regime's signature. Keyword overrides are applied on top
    (e.g. maml_order="ho").
    """
    base = dict(
        name=name or f"lowdiv-{seed}",
        regime="lowdiv",
        seed=seed,
        benchmark=BenchmarkSpec(
            sources=(SourceSpec(num_classes=40, input_dim=8, mean_scale=2.0,
                                class_spread=1.0, name="cloud"),),
            seed=seed),
        maml_order="fo",
        hidden_dims=(32,),
        meta_batch=300,
        eval_steps=(5, 10),
        diversity_tasks=120,
        pt={"max_epochs": 400},
        maml={"max_epochs": 150},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def high_diversity_preset(seed: int = 0, name: str | None = None,
                          **overrides) -> ExperimentConfig:
    """Union of translated clouds: episodes differ in where and how they sit.

    The shared structure across episodes is thin, so a meta-learned
    initialization that adapts every parameter per episode tends to match
    or beat the frozen-feature baseline. Keyword overrides as above.
    """
    num_sources = 4
    dim = 8
    specs = []
    for i in range(num_sources):
        offset = [0.0] * dim
        offset[i % dim] = 6.0
        specs.append(SourceSpec(num_classes=25, input_dim=dim, mean_scale=1.5,
                                class_spread=1.0, offset=tuple(offset),
                                name=f"cloud{i}"))
    base = dict(
        name=name or f"highdiv-{seed}",
        regime="highdiv",
        seed=seed,
        benchmark=BenchmarkSpec(sources=tuple(specs), seed=seed),
        maml_order="fo",
        hidden_dims=(8,),
        meta_batch=300,
        eval_steps=(5, 10),
        diversity_tasks=120,
        pt={"max_epochs": 400},
        # 16 episodes per outer step steadies the meta gradient; the higher
        # inner rate lets few-step adaptation finish re-orienting the narrow
        # body per episode. Both matter for the meta-learner to pull ahead.
        maml={"max_epochs": 400, "inner_lr": 0.1, "meta_batch": 16},
    )
    base.update(overrides)
    return ExperimentConfig(**base)
