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
  is that of the converged head.

The in-module FIM is a closed-form layer-by-layer computation (squared
backprop signals over the outputs of `nets.activations`, the posterior
from `nets.softmax_cross_entropy`); the test suite certifies it against a
brute-force autodiff loop over (example, class) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from metalab.learners import Model, TrainConfig, TrainResult, fit_head, train_pt
from metalab.nets import Batch, NetSpec, activations, relu_masks, softmax_cross_entropy
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


def _task_data(task: FewShotTask) -> Batch:
    """Support and query concatenated under the shared local labels."""
    return Batch(np.concatenate([task.support.inputs, task.query.inputs]),
                 np.concatenate([task.support.labels, task.query.labels]))


def _fim_diag_body(model: Model, batch: Batch) -> np.ndarray:
    """Exact posterior-weighted FIM diagonal over body parameters.

    For each example x with head posterior p, the label expectation of the
    squared score is computed in closed form: the class-c backprop signal
    at the head input is (e_c - p) W_head^T masked by the rectifier
    pattern, and propagating the full class-indexed signal down the body
    gives every squared gradient entry as an einsum. Entries are sums of
    squares, hence nonnegative by construction.
    """
    spec = model.spec
    segs = model.params.views()
    n_layers = spec.num_layers
    if n_layers < 2:
        raise ValueError("a probe needs at least one hidden layer to embed with")
    n = batch.inputs.shape[0]
    acts = activations(spec, model.params, batch.inputs)
    masks = relu_masks(acts)
    w_head = segs[f"W{n_layers - 1}"]
    probs = acts[-1]
    softmax_cross_entropy(probs)  # the logits become the posterior in place
    if not np.all(np.isfinite(probs)):
        bad = int(np.argwhere(~np.isfinite(probs).all(axis=1))[0][0])
        raise EmbeddingError(f"non-finite posterior at example {bad}")
    n_class = probs.shape[1]
    # signal[i, c, :] = d log p(c | x_i) / d (head input), all classes at once
    eye = np.eye(n_class)
    dlogits = eye[None, :, :] - probs[:, None, :]
    signal = np.einsum("ncd,hd->nch", dlogits, w_head) * masks[-1][:, None, :]
    fim_segments: dict[str, np.ndarray] = {}
    for i in range(n_layers - 2, -1, -1):
        weighted_sq = np.einsum("nc,nch->nh", probs, signal ** 2)
        fim_segments[f"W{i}"] = np.einsum("nj,nh->jh", acts[i] ** 2, weighted_sq) / n
        fim_segments[f"b{i}"] = weighted_sq.sum(axis=0) / n
        if i > 0:
            signal = np.einsum("nch,jh->ncj", signal, segs[f"W{i}"]) * masks[i - 1][:, None, :]
    body_names = [name for name, _ in model.params.layout
                  if name not in model.spec.head_names()]
    flat = np.concatenate([fim_segments[name].ravel() for name in body_names])
    if not np.all(np.isfinite(flat)):
        raise EmbeddingError("non-finite Fisher information entry")
    return flat


def embed_task(probe: Probe, task: FewShotTask) -> TaskEmbedding:
    """Fingerprint a task: refit the probe's head, then take the FIM diagonal.

    The probe's body is untouched; a fresh n_way head is fitted on the
    task's pooled data, and the embedding is the exact posterior-weighted
    FIM diagonal restricted to body parameters.
    """
    data = _task_data(task)
    fitted = fit_head(probe.model, data, n_classes=task.n_way)
    diag = _fim_diag_body(fitted, data)
    return TaskEmbedding(fim_diag=diag, task_id=task.task_id,
                         source_ids=task.source_ids)


def cosine_distance(a: TaskEmbedding, b: TaskEmbedding) -> float:
    """1 - cos(angle); lands in [0, 1] for nonnegative embeddings."""
    va, vb = a.fim_diag, b.fim_diag
    if va.shape != vb.shape:
        raise ValueError(f"embedding lengths differ: {va.shape} vs {vb.shape}")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for a zero embedding")
    return float(1.0 - float(va @ vb) / (na * nb))


def _pairwise_distances(embeddings: Sequence[TaskEmbedding]) -> list[tuple[int, int, float]]:
    out = []
    for i in range(len(embeddings)):
        for j in range(i + 1, len(embeddings)):
            out.append((i, j, cosine_distance(embeddings[i], embeddings[j])))
    return out


def diversity_coefficient(probe: Probe, benchmark: Benchmark, num_tasks: int,
                          seed: int, n_way: int = 5, k_shot: int = 5,
                          q_query: int = 15) -> DiversityReport:
    """Expected cosine distance between embeddings of sampled test-split task pairs."""
    if num_tasks < 2:
        raise ValueError("diversity needs at least 2 tasks")
    tasks = [sample_task(benchmark, "test", n_way, k_shot, q_query, (seed, i))
             for i in range(num_tasks)]
    embeddings = [embed_task(probe, t) for t in tasks]
    dists = np.array([d for _, _, d in _pairwise_distances(embeddings)])
    half = ci95_halfwidth(dists) if dists.size >= 2 else 0.0
    return DiversityReport(coefficient=float(dists.mean()),
                           ci95_halfwidth=half,
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
    cannot seat n_way classes are skipped.
    """
    if num_tasks < 2:
        raise ValueError("histogram needs at least 2 tasks")
    pool = benchmark.split_pool("test")
    per_source: dict[int, list[int]] = {}
    for g in pool:
        per_source.setdefault(benchmark.source_of(g), []).append(g)
    usable = [si for si, gs in sorted(per_source.items()) if len(gs) >= n_way]
    if not usable:
        raise ValueError(f"no source has {n_way} classes in the test split")
    tasks = []
    for i in range(num_tasks):
        si = usable[i % len(usable)]
        tasks.append(sample_task(benchmark, "test", n_way, k_shot, q_query,
                                 (seed, i), class_pool=per_source[si]))
    embeddings = [embed_task(probe, t) for t in tasks]
    task_source = [usable[i % len(usable)] for i in range(num_tasks)]
    partitions: dict[str, list[float]] = {}
    for i, j, d in _pairwise_distances(embeddings):
        if task_source[i] == task_source[j]:
            key = f"within-{benchmark.sources[task_source[i]].name}"
        else:
            key = "cross"
        partitions.setdefault(key, []).append(d)
    all_d = np.concatenate([np.asarray(v) for v in partitions.values()])
    edges = np.histogram_bin_edges(all_d, bins=bins)
    counts = {k: np.histogram(np.asarray(v), bins=edges)[0] for k, v in partitions.items()}
    means = {k: float(np.mean(v)) for k, v in partitions.items()}
    return DistanceHistogram(
        bin_edges=edges, counts=counts, partition_means=means,
        distances={k: np.asarray(v) for k, v in partitions.items()},
        num_tasks=num_tasks, num_pairs=int(all_d.size))
