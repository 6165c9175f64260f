"""Task embeddings from Fisher information, and benchmark diversity.

A task's embedding is the diagonal of the empirical Fisher information
matrix of a fixed probe network on that task's data, computed after
refitting only the probe's final layer to the task. Distances between
embeddings are cosine distances; the diversity of a benchmark is the
expected distance over unordered pairs of sampled tasks.

Implementation choices that matter for comparing numbers:

- the expectation over labels is exact, weighting each class's squared
  score by the model's posterior for it (no Monte-Carlo label sampling);
- only body (non-head) parameter entries enter the embedding, since the
  head is task-specific by construction;
- the raw diagonal is used, with no per-layer normalization;
- the data for both the head refit and the FIM is the task's support and
  query sets concatenated, drawn from the benchmark's `test` split;
- the refitted head is `fit_head`'s, the L2-penalized multinomial
  logistic regression (penalty `learners.HEAD_L2`, bias included) solved
  to max|grad| <= `learners.HEAD_TOL`, so the posterior weighting the FIM
  is that of the converged head. `diversity_coefficient` and
  `distance_histogram` refit all their tasks' heads in one `fit_heads`
  call, each head bitwise its task's `fit_head`, and take the FIM of
  HEAD_STACK tasks in each `nets.fisher_body_diagonal` call.

The FIM is that closed-form kernel function, which the test suite
certifies against a brute-force autodiff loop over (example, class)
pairs; this module knows nothing of the network's layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from metalab.learners import HEAD_STACK, Model, TrainConfig, TrainResult, fit_heads, train_pt
from metalab.nets import Batch, NetSpec, NumericalError, fisher_body_diagonal
from metalab.rng import integer
from metalab.stats import ci95_halfwidth
from metalab.tasks import Benchmark, FewShotTask, sample_task


class EmbeddingError(RuntimeError):
    """A non-finite value surfaced while embedding a task."""


@dataclass(frozen=True)
class Probe:
    """A frozen network used only to fingerprint tasks.

    Embedding operations never mutate `model`; `provenance` records how the
    probe was obtained so reports can say which fingerprints are
    comparable.
    """

    model: Model
    provenance: str


@dataclass(frozen=True)
class TaskEmbedding:
    """FIM diagonal over the probe's body parameters for one task."""

    fim_diag: np.ndarray
    task_id: str
    source_ids: tuple[int, ...]

    def __post_init__(self):
        diag = np.asarray(self.fim_diag, dtype=np.float64)
        if diag.ndim != 1:
            raise ValueError("fim_diag must be a flat vector")
        if not np.all(np.isfinite(diag)) or np.any(diag < 0):
            raise ValueError("fim_diag entries must be finite and nonnegative")
        object.__setattr__(self, "fim_diag", diag)


@dataclass(frozen=True)
class DiversityReport:
    """Expected pairwise cosine distance with its normal-approximation CI.

    The CI treats the task-pair distances as independent draws, which they
    are not (pairs share endpoints); it is reported in that conventional
    plus-minus style regardless, and flagged here.
    """

    coefficient: float
    ci95_halfwidth: float
    num_tasks: int
    num_pairs: int
    probe_provenance: str

    def __post_init__(self):
        if self.num_pairs != self.num_tasks * (self.num_tasks - 1) // 2:
            raise ValueError("num_pairs must be num_tasks choose 2")


@dataclass(frozen=True)
class DistanceHistogram:
    """Pairwise distances partitioned by the source purity of the pair.

    Partitions are "within-<source name>" for pairs of tasks drawn from
    the same single source and "cross" for pairs from different sources.
    Counts share one set of bin edges; means are per partition.
    """

    bin_edges: np.ndarray
    counts: Mapping[str, np.ndarray]
    partition_means: Mapping[str, float]
    distances: Mapping[str, np.ndarray]
    num_tasks: int
    num_pairs: int


def build_probe(pretext_benchmark: Benchmark, seed: int, config: TrainConfig,
                method: str = "pt", trained: TrainResult | None = None) -> Probe:
    """Train (or draw) a frozen probe on `pretext_benchmark`.

    `method="pt"` pre-trains on the benchmark's union with `config` (the
    default, and the analogue of an off-the-shelf pretrained backbone);
    `method="random"` freezes the seeded initialization of
    `config.hidden_dims` instead, an ablation option. Both draw from
    `seed`, which the provenance names, so a `config` with another seed
    raises ValueError. Every library caller passes the benchmark it then
    measures, so the probe is not held out from it (ROADMAP item 16).
    `trained`, if given, is `train_pt(pretext_benchmark, config)` run
    already (the harness passes its PT leg when the probe is that leg);
    the pt probe is built from it without training, with the same
    provenance.
    """
    if config.seed != seed:
        raise ValueError(f"seed {seed} differs from config.seed {config.seed}")
    if trained is not None and method != "pt":
        raise ValueError(f"a trained run serves only the pt probe, not {method!r}")
    if method == "pt":
        result = train_pt(pretext_benchmark, config) if trained is None else trained
        model = result.model
        provenance = (f"pt(seed={seed}, classes={pretext_benchmark.total_classes}, "
                      f"epochs={result.epochs_run})")
    elif method == "random":
        spec = NetSpec(pretext_benchmark.input_dim, config.hidden_dims,
                       pretext_benchmark.total_classes)
        model = Model(spec, spec.init(seed))
        provenance = f"random(seed={seed})"
    else:
        raise ValueError(f"unknown probe method {method!r}")
    return Probe(model=model, provenance=provenance)


def _embed_tasks(probe: Probe, tasks: Sequence[FewShotTask]) -> list[TaskEmbedding]:
    """`embed_task` of each task: the head refits in one `fit_heads` call, the
    Fisher diagonals in one `fisher_body_diagonal` call per HEAD_STACK tasks.

    The tasks share one shape and one `n_way`, as every caller draws them.
    Each embedding is bitwise that of its task alone. A non-finite
    posterior or Fisher entry raises `EmbeddingError` naming the task.
    """
    # support and query concatenated under the shared local labels
    data = [Batch(np.concatenate([t.support.inputs, t.query.inputs]),
                  np.concatenate([t.support.labels, t.query.labels])) for t in tasks]
    fitted = fit_heads(probe.model, data, n_classes=tasks[0].n_way)
    spec = fitted[0].spec
    diags: list[np.ndarray] = []
    for first in range(0, len(tasks), HEAD_STACK):
        flats = np.stack([model.params.values for model in fitted[first:first + HEAD_STACK]])
        inputs = np.stack([batch.inputs for batch in data[first:first + HEAD_STACK]])
        try:
            diags += list(fisher_body_diagonal(spec, flats, inputs))
        except NumericalError:  # each row is bitwise its solo call: the first to fail names it
            for i, (flat, x) in enumerate(zip(flats, inputs), first):
                try:
                    fisher_body_diagonal(spec, flat, x)
                except NumericalError as err:
                    raise EmbeddingError(f"task {i} ({tasks[i].task_id}): {err}") from err
            raise
    return [TaskEmbedding(fim_diag=diag, task_id=task.task_id, source_ids=task.source_ids)
            for diag, task in zip(diags, tasks)]


def embed_task(probe: Probe, task: FewShotTask) -> TaskEmbedding:
    """Fingerprint a task: refit the probe's head, then take the FIM diagonal.

    The probe's body is untouched; a fresh n_way head is fitted on the
    task's pooled data, and the embedding is the exact posterior-weighted
    FIM diagonal restricted to body parameters. It is `_embed_tasks` of
    one task, which `diversity_coefficient` and `distance_histogram` run
    on all of theirs.
    """
    return _embed_tasks(probe, [task])[0]


def _norms(embeddings: Sequence[TaskEmbedding]) -> list[float]:
    """Each embedding's Euclidean norm; unequal lengths or a zero norm raise ValueError."""
    shapes = list(dict.fromkeys(e.fim_diag.shape for e in embeddings))
    if len(shapes) > 1:
        raise ValueError(f"embedding lengths differ: {shapes[0]} vs {shapes[1]}")
    norms = [float(np.linalg.norm(e.fim_diag)) for e in embeddings]
    if 0.0 in norms:
        raise ValueError("cosine distance undefined for a zero embedding")
    return norms


def _cosine(a: TaskEmbedding, na: float, b: TaskEmbedding, nb: float) -> float:
    """1 - (a @ b) / (na * nb), with the norms `_norms` took."""
    return float(1.0 - float(a.fim_diag @ b.fim_diag) / (na * nb))


def cosine_distance(a: TaskEmbedding, b: TaskEmbedding) -> float:
    """1 - cos(angle); lands in [0, 1] for nonnegative embeddings."""
    na, nb = _norms((a, b))
    return _cosine(a, na, b, nb)


def _pairwise_distances(embeddings: Sequence[TaskEmbedding]) -> list[tuple[int, int, float]]:
    """`cosine_distance` of every pair `i < j`, each embedding's norm taken once."""
    norms = _norms(embeddings)
    return [(i, j, _cosine(embeddings[i], norms[i], embeddings[j], norms[j]))
            for i in range(len(embeddings)) for j in range(i + 1, len(embeddings))]


def diversity_coefficient(probe: Probe, benchmark: Benchmark, num_tasks: int,
                          seed: int, n_way: int = 5, k_shot: int = 5,
                          q_query: int = 15) -> DiversityReport:
    """Expected cosine distance between embeddings of sampled test-split task pairs.

    A `num_tasks` that is not an integer (a float or a bool) raises ValueError.
    """
    num_tasks = integer(num_tasks, "num_tasks")
    if num_tasks < 3:
        raise ValueError("diversity needs at least 3 tasks (a CI needs 2 pairs)")
    tasks = [sample_task(benchmark, "test", n_way, k_shot, q_query, (seed, i))
             for i in range(num_tasks)]
    embeddings = _embed_tasks(probe, tasks)
    dists = np.array([d for _, _, d in _pairwise_distances(embeddings)])
    return DiversityReport(coefficient=float(dists.mean()),
                           ci95_halfwidth=ci95_halfwidth(dists),
                           num_tasks=num_tasks, num_pairs=int(dists.size),
                           probe_provenance=probe.provenance)


def distance_histogram(probe: Probe, benchmark: Benchmark, num_tasks: int,
                       bins: int, seed: int, n_way: int = 5, k_shot: int = 5,
                       q_query: int = 15) -> DistanceHistogram:
    """Pairwise distance histogram partitioned by pair provenance.

    Tasks are drawn source-pure, round-robin over the benchmark's sources
    (each task's classes come from one source), so a pair is either
    "within-<source>" or "cross". With well-separated sources the cross
    partition sits to the right of every within partition, the multi-mode
    picture. Tasks come from the `test` split; sources whose test pool
    cannot seat n_way classes are skipped. A `num_tasks` or `bins` that is
    not an integer (a float or a bool) raises ValueError.
    """
    num_tasks = integer(num_tasks, "num_tasks")
    bins = integer(bins, "bins")
    if num_tasks < 2:
        raise ValueError("histogram needs at least 2 tasks")
    per_source: dict[int, list[int]] = {}
    for g in benchmark.split_pool("test"):
        per_source.setdefault(benchmark.source_of(g), []).append(g)
    usable = [si for si, gs in sorted(per_source.items()) if len(gs) >= n_way]
    if not usable:
        raise ValueError(f"no source has {n_way} classes in the test split")
    task_source = [usable[i % len(usable)] for i in range(num_tasks)]
    tasks = [sample_task(benchmark, "test", n_way, k_shot, q_query, (seed, i),
                         class_pool=per_source[si]) for i, si in enumerate(task_source)]
    partitions: dict[str, list[float]] = {}
    for i, j, d in _pairwise_distances(_embed_tasks(probe, tasks)):
        key = (f"within-{benchmark.sources[task_source[i]].name}"
               if task_source[i] == task_source[j] else "cross")
        partitions.setdefault(key, []).append(d)
    dists = {k: np.asarray(v) for k, v in partitions.items()}
    all_d = np.concatenate(list(dists.values()))
    edges = np.histogram_bin_edges(all_d, bins=bins)
    return DistanceHistogram(
        bin_edges=edges, counts={k: np.histogram(v, bins=edges)[0] for k, v in dists.items()},
        partition_means={k: float(np.mean(v)) for k, v in dists.items()}, distances=dists,
        num_tasks=num_tasks, num_pairs=int(all_d.size))
