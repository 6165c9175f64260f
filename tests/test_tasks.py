"""Synthetic benchmark construction, episode sampling and analytic divergence."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalab.nets import Batch
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


def _two_sources(dim: int = 4):
    a = make_source(1, 10, dim, 2.0, 1.0, name="a")
    b = make_source(2, 25, dim, 2.0, 0.5, name="b")
    return a, b


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


def test_make_source_is_deterministic_in_seed():
    a = make_source(7, 12, 5, 2.0, 1.0)
    b = make_source(7, 12, 5, 2.0, 1.0)
    assert np.array_equal(a.class_means, b.class_means)
    assert not np.array_equal(a.class_means, make_source(8, 12, 5, 2.0, 1.0).class_means)


def test_make_source_scale_multiplies_means_exactly():
    base = make_source(7, 6, 3, 1.0, 1.0)
    scaled = make_source(7, 6, 3, 2.5, 1.0)
    assert np.array_equal(scaled.class_means, 2.5 * base.class_means)
    flat = make_source(7, 6, 3, 0.0, 1.0)
    assert np.array_equal(flat.class_means, np.zeros((6, 3)))


def test_make_source_validation_and_naming():
    with pytest.raises(ValueError):
        make_source(0, 1, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_source(0, 4, 3, -1.0, 1.0)
    assert make_source(3, 4, 2, 1.0, 1.0).name == "gauss3x4"
    assert make_source(3, 4, 2, 1.0, 1.0, name="pet").name == "pet"
    # counts are refused, not truncated, unless they are integers (numpy's too)
    with pytest.raises(ValueError, match=re.escape("3.9")):
        make_source(0, 10, 3.9, 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("4.5")):
        make_source(0, 4.5, 3, 1.0, 1.0)
    numpy_counts = make_source(np.int64(0), np.int64(10), np.int32(3), 1.0, 1.0)
    assert type(numpy_counts.input_dim) is int
    assert np.array_equal(numpy_counts.class_means, make_source(0, 10, 3, 1.0, 1.0).class_means)


def test_source_validation():
    with pytest.raises(ValueError):
        Source("s", np.zeros(4), 1.0, 4)  # 1-d means
    with pytest.raises(ValueError):
        Source("s", np.zeros((3, 2)), 1.0, 4)  # width mismatch
    with pytest.raises(ValueError):
        Source("s", np.array([[np.inf, 0.0]]), 1.0, 2)
    with pytest.raises(ValueError):
        Source("s", np.zeros((3, 2)), -0.1, 2)
    assert Source("s", np.zeros((3, 2)), 0.0, 2).num_classes == 3


def test_translate_source_shifts_means_only():
    src = make_source(5, 8, 3, 1.5, 0.7, name="base")
    offset = np.array([1.0, -2.0, 0.5])
    moved = translate_source(src, offset)
    assert np.array_equal(moved.class_means, src.class_means + offset)
    assert moved.class_spread == src.class_spread
    assert moved.input_dim == src.input_dim
    assert moved.name == "base+shift"
    assert translate_source(src, offset, name="far").name == "far"
    with pytest.raises(ValueError):
        translate_source(src, np.zeros(2))


# ---------------------------------------------------------------------------
# benchmarks and splits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "total,n_train,n_val",
    [(10, 6, 2), (25, 16, 4), (40, 26, 6), (5, 3, 1), (2, 1, 0)],
)
def test_split_pools_are_contiguous_with_rounded_64_16_20(total, n_train, n_val):
    bench = benchmark_from_sources([make_source(0, total, 3, 1.0, 1.0)])
    train, val, test = (bench.split_pool(s) for s in ("train", "val", "test"))
    assert train == tuple(range(n_train))
    assert val == tuple(range(n_train, n_train + n_val))
    assert test == tuple(range(n_train + n_val, total))
    assert sorted(train + val + test) == list(range(total))


def test_benchmark_structure_and_lookups():
    a, b = _two_sources()
    bench = benchmark_from_sources([a, b])
    assert bench.total_classes == 35
    assert bench.input_dim == 4
    assert bench.class_table[:3] == ((0, 0), (0, 1), (0, 2))
    assert bench.class_table[10] == (1, 0)  # b starts after a's 10 classes
    assert bench.class_table[13] == (1, 3)
    assert np.array_equal(bench.class_mean(13), b.class_means[3])
    assert bench.class_spread_of(13) == 0.5
    assert bench.source_of(13) == 1
    assert bench.source_of(9) == 0
    with pytest.raises(ValueError):
        bench.split_pool("holdout")


def test_each_source_contributes_to_each_pool():
    a, b = _two_sources()
    bench = benchmark_from_sources([a, b])
    for split in ("train", "val", "test"):
        sources_hit = {bench.source_of(g) for g in bench.split_pool(split)}
        assert sources_hit == {0, 1}


def test_from_sources_shifts_labels_and_keeps_means():
    # Each source keeps its own split, with its labels shifted past the
    # classes of the sources before it.
    a, b = _two_sources()
    ba, bb = benchmark_from_sources([a]), benchmark_from_sources([b])
    joint = benchmark_from_sources([a, b])
    assert joint.class_table == ba.class_table + tuple((1, c) for _, c in bb.class_table)
    for split in ("train", "val", "test"):
        assert joint.split_pool(split) == ba.split_pool(split) + tuple(
            g + ba.total_classes for g in bb.split_pool(split))
    for g in range(bb.total_classes):
        assert np.array_equal(joint.class_mean(ba.total_classes + g), bb.class_mean(g))
        assert joint.source_of(ba.total_classes + g) == 1
    with pytest.raises(ValueError, match="input_dim"):
        benchmark_from_sources([a, make_source(9, 4, 7, 1.0, 1.0)])
    with pytest.raises(ValueError, match="at least one source"):
        benchmark_from_sources([])


def test_benchmark_constructor_validation():
    # A benchmark is built from its sources alone: the table and the split
    # pools are derived, so only an empty or mixed-width source list is bad.
    src = make_source(0, 4, 2, 1.0, 1.0)
    assert Benchmark((src,)) == benchmark_from_sources([src])
    with pytest.raises(ValueError, match="at least one source"):
        Benchmark(())
    with pytest.raises(ValueError, match="input_dim"):
        Benchmark((src, make_source(1, 4, 3, 1.0, 1.0)))
    with pytest.raises(TypeError):
        Benchmark((src,), class_table=((0, 0),), splits={})


# ---------------------------------------------------------------------------
# episode sampling
# ---------------------------------------------------------------------------


def test_sample_task_is_bitwise_deterministic():
    bench = benchmark_from_sources(list(_two_sources()))
    a = sample_task(bench, "train", 5, 3, 7, rng_seed=11)
    b = sample_task(bench, "train", 5, 3, 7, rng_seed=11)
    assert a.class_ids == b.class_ids
    assert np.array_equal(a.support.inputs, b.support.inputs)
    assert np.array_equal(a.query.inputs, b.query.inputs)
    c = sample_task(bench, "train", 5, 3, 7, rng_seed=12)
    assert not np.array_equal(a.support.inputs, c.support.inputs)


def test_tuple_seed_enumerates_distinct_episodes():
    bench = benchmark_from_sources(list(_two_sources()))
    tasks = [sample_task(bench, "train", 5, 2, 2, rng_seed=(9, i)) for i in range(4)]
    ids = {t.task_id for t in tasks}
    assert ids == {f"train:9:{i}" for i in range(4)}
    assert sample_task(bench, "train", 5, 2, 2, rng_seed=9).task_id == "train:9"
    flat = [t.support.inputs.tobytes() for t in tasks]
    assert len(set(flat)) == 4
    # a seed that is not an integer is refused, not truncated; numpy's pass
    with pytest.raises(ValueError, match=re.escape("1.7")):
        sample_task(bench, "train", 5, 2, 2, rng_seed=(0, 1.7))
    with pytest.raises(ValueError, match=re.escape("2.9")):
        sample_task(bench, "train", 5, 2, 2, rng_seed=2.9)
    # so are counts that are not integers, each named
    for counts, named in (((2.0, 2, 2), "n_way"), ((5, 1.5, 2), "k_shot"),
                          ((5, 2, True), "q_query")):
        with pytest.raises(ValueError, match=named):
            sample_task(bench, "train", *counts, rng_seed=9)
    numpy_seed = sample_task(bench, "train", 5, 2, 2, rng_seed=(np.int64(9), np.int32(1)))
    assert numpy_seed.task_id == tasks[1].task_id
    assert numpy_seed.support.inputs.tobytes() == flat[1]


@given(seed=st.integers(0, 10**6), n_way=st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_sampled_classes_are_distinct_and_from_the_pool(seed, n_way):
    bench = benchmark_from_sources(list(_two_sources()))
    task = sample_task(bench, "test", n_way, 2, 3, rng_seed=seed)
    assert len(set(task.class_ids)) == n_way
    assert set(task.class_ids) <= set(bench.split_pool("test"))
    assert task.source_ids == tuple(bench.source_of(g) for g in task.class_ids)


def test_episode_labels_and_shapes():
    bench = benchmark_from_sources(list(_two_sources()))
    task = sample_task(bench, "train", 4, 3, 5, rng_seed=0)
    assert np.array_equal(task.support.labels, np.repeat(np.arange(4), 3))
    assert np.array_equal(task.query.labels, np.repeat(np.arange(4), 5))
    assert task.support.inputs.shape == (12, 4)
    assert task.query.inputs.shape == (20, 4)


def test_zero_spread_episode_lands_exactly_on_class_means():
    src = make_source(3, 10, 4, 2.0, 0.0)
    bench = benchmark_from_sources([src])
    task = sample_task(bench, "train", 3, 2, 2, rng_seed=5)
    for way, g in enumerate(task.class_ids):
        rows = task.support.inputs[task.support.labels == way]
        assert np.array_equal(rows, np.tile(bench.class_mean(g), (2, 1)))


def test_class_pool_restriction():
    bench = benchmark_from_sources(list(_two_sources()))
    pool = bench.split_pool("test")[:3]
    task = sample_task(bench, "test", 3, 2, 2, rng_seed=1, class_pool=pool)
    assert set(task.class_ids) == set(pool)
    with pytest.raises(ValueError):
        sample_task(bench, "test", 4, 2, 2, rng_seed=1, class_pool=pool)
    # a pool must hold distinct classes of the split; the error names the rest
    train = bench.split_pool("train")
    for bad, named in ((train, f"outside it: {list(train)}"),
                       ((8, 8), "repeated: [8]"),
                       ((8, 99), "outside it: [99]"),
                       ((8.0, 9), "class_pool entry must be an integer, got 8.0")):
        with pytest.raises(ValueError, match=re.escape(named)):
            sample_task(bench, "test", 2, 1, 1, 0, class_pool=bad)


def test_sample_task_rejects_thin_pools_and_unknown_splits():
    bench = benchmark_from_sources([make_source(0, 5, 3, 1.0, 1.0)])
    with pytest.raises(ValueError):
        sample_task(bench, "val", 2, 1, 1, rng_seed=0)  # val pool has 1 class
    with pytest.raises(ValueError):
        sample_task(bench, "nope", 2, 1, 1, rng_seed=0)


def test_fewshot_task_validation():
    def batch(n):
        return Batch(np.zeros((n, 2)), np.zeros(n, dtype=int))

    kwargs = dict(n_way=2, k_shot=1, q_query=2, support=batch(2), query=batch(4),
                  class_ids=(0, 1), source_ids=(0, 0), task_id="t")
    FewShotTask(**kwargs)
    with pytest.raises(ValueError):
        FewShotTask(**{**kwargs, "class_ids": (0,)})
    with pytest.raises(ValueError):
        FewShotTask(**{**kwargs, "support": batch(3)})
    with pytest.raises(ValueError):
        FewShotTask(**{**kwargs, "query": batch(3)})


# ---------------------------------------------------------------------------
# flat union datasets
# ---------------------------------------------------------------------------


def test_union_dataset_counts_labels_and_determinism():
    bench = benchmark_from_sources(list(_two_sources()))
    data = union_dataset(bench, "train", 6, rng_seed=4)
    pool = bench.split_pool("train")
    assert len(data) == 6 * len(pool)
    counts = {g: int(np.sum(data.labels == g)) for g in pool}
    assert all(c == 6 for c in counts.values())
    assert set(np.unique(data.labels)) == set(pool)
    again = union_dataset(bench, "train", 6, rng_seed=4)
    assert np.array_equal(data.inputs, again.inputs)
    assert not np.array_equal(
        data.inputs, union_dataset(bench, "train", 6, rng_seed=5).inputs)
    with pytest.raises(ValueError):
        union_dataset(bench, "train", 0, rng_seed=0)
    with pytest.raises(ValueError, match=re.escape("examples_per_class must be an "
                                                   "integer, got 2.5")):
        union_dataset(bench, "train", 2.5, rng_seed=0)


def test_union_dataset_zero_spread_repeats_means():
    bench = benchmark_from_sources([make_source(2, 5, 3, 1.5, 0.0)])
    data = union_dataset(bench, "test", 4, rng_seed=0)
    for g in bench.split_pool("test"):
        rows = data.inputs[data.labels == g]
        assert np.array_equal(rows, np.tile(bench.class_mean(g), (4, 1)))


# ---------------------------------------------------------------------------
# analytic divergence
# ---------------------------------------------------------------------------


def test_divergence_hand_value():
    a = Source("a", np.array([[0.0, 0.0], [4.0, 0.0]]), 1.0, 2)
    b = Source("b", np.array([[0.0, 3.0], [4.0, 3.0]]), 3.0, 2)
    # Cross distances 3,5,5,3 -> mean 4; spread scale (1+3)/2 = 2.
    assert ground_truth_divergence(a, b) == pytest.approx(2.0, rel=1e-12)


@given(sa=st.integers(0, 100), sb=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_divergence_is_symmetric(sa, sb):
    a = make_source(sa, 5, 3, 1.0, 0.8)
    b = make_source(sb, 7, 3, 1.0, 1.2)
    assert ground_truth_divergence(a, b) == pytest.approx(
        ground_truth_divergence(b, a), rel=1e-12)


def test_divergence_grows_with_translation_distance():
    src = make_source(11, 8, 4, 1.0, 1.0)
    direction = np.array([1.0, 0.0, 0.0, 0.0])
    values = [ground_truth_divergence(src, translate_source(src, t * direction))
              for t in (0.0, 5.0, 10.0, 20.0)]
    assert values == sorted(values)
    assert values[-1] > values[0]


def test_divergence_validation():
    a = make_source(0, 4, 3, 1.0, 0.0)
    b = make_source(1, 4, 3, 1.0, 0.0)
    with pytest.raises(ValueError):
        ground_truth_divergence(a, b)  # both spreads zero
    c = make_source(2, 4, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        ground_truth_divergence(a, c)  # dim mismatch
    # one-sided zero spread is fine
    d = make_source(3, 4, 3, 1.0, 2.0)
    assert ground_truth_divergence(a, d) > 0
