"""Desk-scale laboratory for meta-learning vs union pre-training studies.

The package trains small feed-forward classifiers on synthetic Gaussian
few-shot benchmarks in two regimes (episodic meta-learning with first- or
higher-order bilevel gradients, and supervised pre-training on the union of
all classes), embeds tasks through Fisher-information diagnostics, measures
benchmark diversity, and adjudicates method comparisons with effect-size and
confidence-interval decision rules.

Module map:

- ``autodiff``: reverse-mode engine over numpy arrays with second-order
  support (gradients of gradients); the test oracle.
- ``nets``: parameter layouts, MLP forward pass, the one softmax
  cross-entropy, the numpy gradient and Hessian-vector kernel on it, and
  the tape-based oracle entry points (``loss_and_grad``,
  ``loss_and_grad_through_updates`` for differentiating through
  inner-loop updates, ``finite_diff_grad``).
- ``rng``: the named, splittable random-stream scheme used everywhere.
- ``tasks``: synthetic Gaussian sources, benchmarks built from their
  sources alone (``Benchmark(sources)``), episode sampling.
- ``learners``: MAML / pre-training loops, adaptation, head refits,
  meta-test evaluation.
- ``task2vec``: FIM-diagonal task embeddings, cosine distances, diversity
  coefficient, distance histograms.
- ``stats``: ``SampleStats`` and the pooled std, Cohen's d and 1% threshold
  computed from them, decision rules, summaries, the table format.
- ``harness``: experiment configs, end-to-end comparison runs, table
  reproduction, report emission.
- ``refdata``: frozen reference statistics from large-scale comparison
  studies, used by the reproduction machinery.
"""

from metalab.nets import (
    Batch,
    NetSpec,
    ParamVector,
    finite_diff_grad,
    forward,
)
from metalab.tasks import (
    Benchmark,
    FewShotTask,
    Source,
    benchmark_from_sources,
    ground_truth_divergence,
    make_source,
    sample_task,
    translate_source,
    union_dataset,
)
from metalab.learners import (
    EvalResult,
    Model,
    TrainConfig,
    TrainResult,
    adapt,
    episodic_vs_union_loss,
    fit_head,
    meta_test,
    model_l2_norm,
    train_maml,
    train_pt,
)
from metalab.task2vec import (
    DistanceHistogram,
    DiversityReport,
    Probe,
    TaskEmbedding,
    build_probe,
    cosine_distance,
    distance_histogram,
    diversity_coefficient,
    embed_task,
)
from metalab.stats import (
    Decision,
    GroupSummary,
    SampleStats,
    SummaryReport,
    confidence_interval,
    decide_ci,
    decide_es,
    decide_from_es,
    summarize,
    summarize_cells,
)
from metalab.harness import (
    BenchmarkSpec,
    ExperimentConfig,
    RunRecord,
    SourceSpec,
    emit_report,
    high_diversity_preset,
    low_diversity_preset,
    reproduce_decisions,
    run_comparison,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "Benchmark",
    "BenchmarkSpec",
    "Decision",
    "DistanceHistogram",
    "DiversityReport",
    "EvalResult",
    "ExperimentConfig",
    "FewShotTask",
    "GroupSummary",
    "Model",
    "NetSpec",
    "ParamVector",
    "Probe",
    "RunRecord",
    "SampleStats",
    "Source",
    "SourceSpec",
    "SummaryReport",
    "TaskEmbedding",
    "TrainConfig",
    "TrainResult",
    "adapt",
    "benchmark_from_sources",
    "build_probe",
    "confidence_interval",
    "cosine_distance",
    "decide_ci",
    "decide_es",
    "decide_from_es",
    "distance_histogram",
    "diversity_coefficient",
    "emit_report",
    "embed_task",
    "episodic_vs_union_loss",
    "finite_diff_grad",
    "fit_head",
    "forward",
    "ground_truth_divergence",
    "high_diversity_preset",
    "low_diversity_preset",
    "make_source",
    "meta_test",
    "model_l2_norm",
    "reproduce_decisions",
    "run_comparison",
    "run_suite",
    "sample_task",
    "summarize",
    "summarize_cells",
    "train_maml",
    "train_pt",
    "translate_source",
    "union_dataset",
]
