"""Fisher-information task embeddings and benchmark diversity.

The closed-form layerwise FIM diagonal is certified two independent ways:
a brute-force reverse-mode loop over every (example, class) pair, and a
fully hand-derived formula for a one-hidden-unit network.
"""

import numpy as np
import pytest

from metalab.learners import Model, TrainConfig, fit_head, train_pt
from metalab.nets import Batch, NetSpec, ParamVector, forward, grad, net_loss, softmax
from metalab.task2vec import (
    DistanceHistogram,
    DiversityReport,
    EmbeddingError,
    Probe,
    TaskEmbedding,
    _fim_diag_body,
    build_probe,
    cosine_distance,
    distance_histogram,
    diversity_coefficient,
    embed_task,
)
from metalab.tasks import (
    benchmark_from_sources,
    make_source,
    sample_task,
    translate_source,
)


def _fim_brute(model: Model, batch: Batch) -> np.ndarray:
    """Posterior-weighted squared score, one autodiff pass per (example, class)."""
    spec = model.spec
    probs = softmax(forward(spec, model.params, batch))
    fim = np.zeros(len(model.params))
    for i in range(len(batch)):
        for c in range(spec.output_dim):
            single = Batch(batch.inputs[i:i + 1], np.array([c]))
            g = grad(net_loss(spec, single), model.params).values
            fim += probs[i, c] * g * g
    return fim[: model.head_boundary] / len(batch)


def _random_model(spec: NetSpec, seed: int) -> Model:
    gen = np.random.default_rng(seed)
    return Model(spec, ParamVector(gen.normal(0.0, 0.8, size=spec.param_count()),
                                   spec.layout()))


# ---------------------------------------------------------------------------
# FIM diagonal oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("hidden", [(5,), (6, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fim_diag_matches_brute_force_autodiff(hidden, seed):
    spec = NetSpec(3, hidden, 4)
    model = _random_model(spec, seed)
    gen = np.random.default_rng(100 + seed)
    batch = Batch(gen.normal(size=(7, 3)), gen.integers(0, 4, size=7))
    got = _fim_diag_body(model, batch)
    want = _fim_brute(model, batch)
    assert got.shape == want.shape == (model.head_boundary,)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_fim_diag_one_hidden_unit_hand_formula():
    # One input, one hidden unit, two classes: the body FIM has exactly two
    # entries and both reduce to  mean( x^2 * [relu active] * p(1-p) * (u1-u2)^2 )
    # (x^2 dropped for the bias).
    w0, b0 = 1.3, -0.2
    u = np.array([[0.8, -1.1]])
    c = np.array([0.1, 0.4])
    spec = NetSpec(1, (1,), 2)
    params = ParamVector.from_segments(spec.layout(), {
        "W0": np.array([[w0]]), "b0": np.array([b0]), "W1": u, "b1": c})
    model = Model(spec, params)
    x = np.array([-1.5, -0.05, 0.3, 0.9, 2.0])
    batch = Batch(x[:, None], np.zeros(5, dtype=int))

    pre = w0 * x + b0
    active = (pre > 0).astype(float)
    h = np.maximum(pre, 0.0)
    p = 1.0 / (1.0 + np.exp(-(h * (u[0, 0] - u[0, 1]) + c[0] - c[1])))  # P(class 0)
    per_example = active * p * (1 - p) * (u[0, 0] - u[0, 1]) ** 2
    want_w0 = np.mean(x ** 2 * per_example)
    want_b0 = np.mean(per_example)

    got = _fim_diag_body(model, batch)
    np.testing.assert_allclose(got, [want_w0, want_b0], rtol=1e-12)


def test_fim_entries_for_dead_inputs_are_zero():
    # An input coordinate that is identically zero cannot influence the
    # loss, so its W0-row FIM entries must be exactly zero.
    spec = NetSpec(3, (4,), 2)
    model = _random_model(spec, 5)
    gen = np.random.default_rng(6)
    inputs = gen.normal(size=(8, 3))
    inputs[:, 1] = 0.0
    batch = Batch(inputs, gen.integers(0, 2, size=8))
    diag = _fim_diag_body(model, batch)
    w0_fim = diag[: 3 * 4].reshape(3, 4)
    assert np.array_equal(w0_fim[1], np.zeros(4))
    assert np.all(w0_fim[0] > 0) and np.all(diag >= 0)


def test_fim_diag_requires_a_hidden_layer_and_finite_activations():
    headless = _random_model(NetSpec(3, (), 2), 0)
    batch = Batch(np.zeros((2, 3)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        _fim_diag_body(headless, batch)
    model = _random_model(NetSpec(3, (4,), 2), 0)
    poisoned = Batch(np.array([[np.inf, 0.0, 0.0]]), np.zeros(1, dtype=int))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(EmbeddingError):
            _fim_diag_body(model, poisoned)


# ---------------------------------------------------------------------------
# task embeddings
# ---------------------------------------------------------------------------


def _probe_and_benchmark(seed: int = 0, offset: float = 0.0):
    sources = [make_source(seed, 10, 4, 2.0, 1.0, name="left")]
    if offset:
        shift = np.zeros(4)
        shift[0] = offset
        sources.append(translate_source(sources[0], shift, name="right"))
    bench = benchmark_from_sources(sources)
    probe = build_probe(bench, seed, TrainConfig(method="pt", hidden_dims=(8,), seed=seed),
                        method="random")
    return probe, bench


def test_embed_task_covers_body_and_leaves_probe_untouched():
    probe, bench = _probe_and_benchmark()
    before = probe.model.params.values.copy()
    task = sample_task(bench, "test", 2, 3, 3, rng_seed=1)
    emb = embed_task(probe, task)
    assert np.array_equal(probe.model.params.values, before)
    assert emb.fim_diag.shape == (probe.model.head_boundary,)
    assert emb.task_id == task.task_id
    assert emb.source_ids == task.source_ids
    assert np.all(emb.fim_diag >= 0)


def test_embedding_is_invariant_to_relabeling_the_ways():
    probe, bench = _probe_and_benchmark()
    task = sample_task(bench, "test", 2, 4, 4, rng_seed=3)
    flipped = type(task)(
        n_way=2, k_shot=4, q_query=4,
        support=Batch(task.support.inputs, 1 - task.support.labels),
        query=Batch(task.query.inputs, 1 - task.query.labels),
        class_ids=task.class_ids[::-1], source_ids=task.source_ids[::-1],
        task_id=task.task_id)
    a = embed_task(probe, task)
    b = embed_task(probe, flipped)
    np.testing.assert_allclose(a.fim_diag, b.fim_diag, rtol=1e-10)


def test_embedding_matches_head_refit_plus_fim_composition():
    probe, bench = _probe_and_benchmark()
    task = sample_task(bench, "test", 2, 3, 3, rng_seed=9)
    data = Batch(np.concatenate([task.support.inputs, task.query.inputs]),
                 np.concatenate([task.support.labels, task.query.labels]))
    fitted = fit_head(probe.model, data, n_classes=2)
    want = _fim_diag_body(fitted, data)
    assert np.array_equal(embed_task(probe, task).fim_diag, want)


def test_task_embedding_validation():
    with pytest.raises(ValueError):
        TaskEmbedding(np.zeros((2, 2)), "t", (0,))
    with pytest.raises(ValueError):
        TaskEmbedding(np.array([1.0, -0.1]), "t", (0,))
    with pytest.raises(ValueError):
        TaskEmbedding(np.array([1.0, np.nan]), "t", (0,))


def test_build_probe_methods():
    _, bench = _probe_and_benchmark()
    cfg = TrainConfig(method="pt", hidden_dims=(8,), max_epochs=5)
    trained = build_probe(bench, 0, cfg, method="pt")
    assert trained.provenance.startswith("pt(seed=0")
    frozen = build_probe(bench, 0, cfg, method="random")
    assert np.array_equal(
        frozen.model.params.values,
        NetSpec(4, (8,), bench.total_classes).init(0).values)
    assert frozen.provenance == "random(seed=0)"
    with pytest.raises(ValueError):
        build_probe(bench, 0, cfg, method="distill")


def test_build_probe_from_a_trained_run_does_not_train(monkeypatch):
    _, bench = _probe_and_benchmark()
    cfg = TrainConfig(method="pt", hidden_dims=(8,), max_epochs=5)
    trained = build_probe(bench, 0, cfg)
    run = train_pt(bench, cfg)
    monkeypatch.setattr("metalab.task2vec.train_pt", lambda *a: pytest.fail("trained"))
    given = build_probe(bench, 0, cfg, trained=run)
    assert given.provenance == trained.provenance
    assert np.array_equal(given.model.params.values, trained.model.params.values)
    with pytest.raises(ValueError, match="only the pt probe"):
        build_probe(bench, 0, cfg, method="random", trained=run)


def test_build_probe_refuses_a_config_with_another_seed():
    # the provenance names `seed`, so the probe must train and init from it
    _, bench = _probe_and_benchmark()
    cfg = TrainConfig(method="pt", hidden_dims=(8,), max_epochs=5, seed=2)
    for method in ("pt", "random"):
        with pytest.raises(ValueError, match="seed 1 differs from config.seed 2"):
            build_probe(bench, 1, cfg, method=method)
    assert build_probe(bench, 2, cfg).provenance.startswith("pt(seed=2, ")


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def _emb(vec) -> TaskEmbedding:
    return TaskEmbedding(np.asarray(vec, dtype=float), "t", (0,))


def test_cosine_distance_hand_values():
    assert cosine_distance(_emb([2.0, 1.0]), _emb([2.0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    assert cosine_distance(_emb([1.0, 0.0]), _emb([0.0, 3.0])) == pytest.approx(1.0)
    assert cosine_distance(_emb([1.0, 0.0]), _emb([1.0, 1.0])) == pytest.approx(
        1.0 - 1.0 / np.sqrt(2.0))
    scaled = cosine_distance(_emb([1.0, 2.0]), _emb([10.0, 20.0]))
    assert scaled == pytest.approx(0.0, abs=1e-12)  # scale invariant
    with pytest.raises(ValueError):
        cosine_distance(_emb([0.0, 0.0]), _emb([1.0, 0.0]))
    with pytest.raises(ValueError):
        cosine_distance(_emb([1.0]), _emb([1.0, 0.0]))


# ---------------------------------------------------------------------------
# diversity coefficient and histograms
# ---------------------------------------------------------------------------


def test_diversity_coefficient_accounting_and_determinism():
    probe, bench = _probe_and_benchmark()
    report = diversity_coefficient(probe, bench, num_tasks=6, seed=2,
                                   n_way=2, k_shot=3, q_query=3)
    assert report.num_tasks == 6
    assert report.num_pairs == 15
    assert 0.0 <= report.coefficient <= 1.0
    assert report.ci95_halfwidth > 0
    assert report.probe_provenance == probe.provenance
    again = diversity_coefficient(probe, bench, num_tasks=6, seed=2,
                                  n_way=2, k_shot=3, q_query=3)
    assert again.coefficient == report.coefficient
    other = diversity_coefficient(probe, bench, num_tasks=6, seed=3,
                                  n_way=2, k_shot=3, q_query=3)
    assert other.coefficient != report.coefficient
    with pytest.raises(ValueError):
        diversity_coefficient(probe, bench, num_tasks=1, seed=0)
    with pytest.raises(ValueError):
        DiversityReport(coefficient=0.5, ci95_halfwidth=0.0, num_tasks=6,
                        num_pairs=14, probe_provenance="p")


def test_distance_histogram_partitions_single_source():
    probe, bench = _probe_and_benchmark()
    hist = distance_histogram(probe, bench, num_tasks=5, bins=6, seed=1,
                              n_way=2, k_shot=3, q_query=3)
    assert set(hist.counts) == {"within-left"}
    assert hist.num_pairs == 10
    assert sum(int(c.sum()) for c in hist.counts.values()) == 10
    assert len(hist.bin_edges) == 7


def test_distance_histogram_partitions_two_sources():
    probe, bench = _probe_and_benchmark(offset=25.0)
    hist = distance_histogram(probe, bench, num_tasks=8, bins=5, seed=1,
                              n_way=2, k_shot=3, q_query=3)
    assert set(hist.counts) == {"within-left", "within-right", "cross"}
    # round-robin: 4 tasks per source -> 6 within each, 16 cross
    assert len(hist.distances["within-left"]) == 6
    assert len(hist.distances["within-right"]) == 6
    assert len(hist.distances["cross"]) == 16
    assert hist.num_pairs == 28
    assert sum(int(c.sum()) for c in hist.counts.values()) == 28
    for key, dists in hist.distances.items():
        assert hist.partition_means[key] == pytest.approx(float(np.mean(dists)))
        assert np.histogram(dists, bins=hist.bin_edges)[0].sum() == len(dists)


def test_distance_histogram_validation_and_thin_sources():
    probe, bench = _probe_and_benchmark()
    with pytest.raises(ValueError):
        distance_histogram(probe, bench, num_tasks=1, bins=4, seed=0)
    with pytest.raises(ValueError):
        # the single source's test pool has 2 classes, cannot seat 5 ways
        distance_histogram(probe, bench, num_tasks=4, bins=4, seed=0, n_way=5)
