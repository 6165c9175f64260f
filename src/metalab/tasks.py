"""Synthetic Gaussian few-shot benchmarks with dial-a-diversity geometry.

A `Source` is a cloud of isotropic Gaussian class-conditionals (one mean
per class, shared spread). A `Benchmark` is built from a list of sources
alone: it puts them under one contiguous global label space and splits
each source's classes into train/validation/test pools on their own
(`benchmark_from_sources` is the same constructor over any iterable); the
high-diversity presets are built that way from several sources translated
apart. Episodes are n-way k-shot `FewShotTask`s with support
and query batches relabeled 0..n_way-1.

Ground-truth divergence between sources is analytic here (mean distance
between class means over the shared spread), which is what makes synthetic
diversity claims checkable against the embedding-based estimates.

All sampling is routed through named streams from `metalab.rng`, so every
benchmark, episode and dataset is reproducible bit-for-bit from integer
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from metalab import rng
from metalab.nets import Batch

SPLIT_NAMES = ("train", "val", "test")
SPLIT_FRACTIONS = (0.64, 0.16, 0.20)


@dataclass(frozen=True)
class Source:
    """A named cloud of Gaussian class-conditionals.

    `class_means` has one row per class; every class shares the isotropic
    `class_spread`. Spread zero is admitted as a degenerate case (samples
    collapse onto the means), which some tests rely on.
    """

    name: str
    class_means: np.ndarray
    class_spread: float
    input_dim: int

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError(f"class_means must be 2-d, got shape {means.shape}")
        if means.shape[1] != self.input_dim:
            raise ValueError(
                f"class_means width {means.shape[1]} != input_dim {self.input_dim}")
        if not np.all(np.isfinite(means)):
            raise ValueError("class means must be finite")
        if self.class_spread < 0:
            raise ValueError("class_spread must be nonnegative")
        object.__setattr__(self, "class_means", means)

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]


def make_source(seed: int, num_classes: int, input_dim: int, mean_scale: float,
                class_spread: float, name: str | None = None) -> Source:
    """Sample a source's class means from the "source-means" stream.

    Means are iid normal scaled by `mean_scale`; the same seed always
    yields the same source. `mean_scale=0` collapses all means to zero.
    A `num_classes` or `input_dim` that is not an integer raises ValueError.
    """
    num_classes = rng.integer(num_classes, "num_classes")
    input_dim = rng.integer(input_dim, "input_dim")
    if num_classes < 2:
        raise ValueError(f"a source needs at least 2 classes, got {num_classes}")
    if mean_scale < 0:
        raise ValueError("mean_scale must be nonnegative")
    gen = rng.stream(seed, "source-means")
    means = mean_scale * gen.normal(size=(num_classes, input_dim))
    if name is None:
        name = f"gauss{seed}x{num_classes}"
    return Source(name=name, class_means=means, class_spread=float(class_spread),
                  input_dim=input_dim)


def translate_source(source: Source, offset: np.ndarray, name: str | None = None) -> Source:
    """The same source with every class mean shifted by `offset`."""
    offset = np.asarray(offset, dtype=np.float64)
    if offset.shape != (source.input_dim,):
        raise ValueError(f"offset shape {offset.shape} != ({source.input_dim},)")
    return Source(name=name or f"{source.name}+shift",
                  class_means=source.class_means + offset,
                  class_spread=source.class_spread,
                  input_dim=source.input_dim)


@dataclass(frozen=True)
class Benchmark:
    """Sources under one global label space with train/val/test class pools.

    Built from its sources alone. Global labels run source by source in
    order: `class_table[g]` is the (source index, local class) pair of
    global label g. Each source's classes are split 64/16/20 on their own,
    so every source contributes to every pool (mirroring how constituent
    datasets keep their own train/test partitions inside a union). At least
    one source is needed, all must share one input_dim, and no two may
    share a name (the distance histogram keys its partitions by name).
    """

    sources: tuple[Source, ...]
    class_table: tuple[tuple[int, int], ...] = field(init=False)
    splits: Mapping[str, tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        sources = tuple(self.sources)
        if not sources:
            raise ValueError("a benchmark needs at least one source")
        if any(s.input_dim != sources[0].input_dim for s in sources):
            raise ValueError("all sources must share input_dim")
        names = [s.name for s in sources]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"source names must be distinct; repeated: {repeated}")
        table: list[tuple[int, int]] = []
        pools: dict[str, list[int]] = {name: [] for name in SPLIT_NAMES}
        for si, src in enumerate(sources):
            local = _split_pools(src.num_classes)
            for name in SPLIT_NAMES:
                pools[name].extend(len(table) + g for g in local[name])
            table.extend((si, ci) for ci in range(src.num_classes))
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "class_table", tuple(table))
        object.__setattr__(self, "splits", {k: tuple(v) for k, v in pools.items()})

    @property
    def total_classes(self) -> int:
        return len(self.class_table)

    @property
    def input_dim(self) -> int:
        return self.sources[0].input_dim

    def split_pool(self, split: str) -> tuple[int, ...]:
        if split not in self.splits:
            raise ValueError(f"unknown split {split!r}")
        return self.splits[split]

    def class_mean(self, global_class: int) -> np.ndarray:
        si, ci = self.class_table[global_class]
        return self.sources[si].class_means[ci]

    def class_spread_of(self, global_class: int) -> float:
        si, _ = self.class_table[global_class]
        return self.sources[si].class_spread

    def source_of(self, global_class: int) -> int:
        return self.class_table[global_class][0]


def _split_pools(total: int) -> dict[str, tuple[int, ...]]:
    """Contiguous 64/16/20 partition of labels 0..total-1 by index order."""
    n_train = int(round(SPLIT_FRACTIONS[0] * total))
    n_val = int(round(SPLIT_FRACTIONS[1] * total))
    n_train = min(n_train, total)
    n_val = min(n_val, total - n_train)
    return {
        "train": tuple(range(0, n_train)),
        "val": tuple(range(n_train, n_train + n_val)),
        "test": tuple(range(n_train + n_val, total)),
    }


def benchmark_from_sources(sources: Iterable[Source]) -> Benchmark:
    """`Benchmark(tuple(sources))`: the sources, in order, under one label space."""
    return Benchmark(tuple(sources))


@dataclass(frozen=True)
class FewShotTask:
    """One n-way k-shot episode.

    Local labels 0..n_way-1 index `class_ids` (the drawn global classes)
    and `source_ids` (their source provenance); support and query share the
    mapping. `task_id` records the sampling coordinates for audit.
    """

    n_way: int
    k_shot: int
    q_query: int
    support: Batch
    query: Batch
    class_ids: tuple[int, ...]
    source_ids: tuple[int, ...]
    task_id: str

    def __post_init__(self):
        if len(self.class_ids) != self.n_way or len(self.source_ids) != self.n_way:
            raise ValueError("class and source provenance must list one entry per way")
        if len(self.support) != self.n_way * self.k_shot:
            raise ValueError("support size must be n_way * k_shot")
        if len(self.query) != self.n_way * self.q_query:
            raise ValueError("query size must be n_way * q_query")


def _episode_seed(rng_seed: int | tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(root, indices) of a bare or tuple seed; a non-integer part raises ValueError."""
    if isinstance(rng_seed, tuple):
        return (rng.integer(rng_seed[0], "episode seed"),
                tuple(rng.integer(i, "episode index") for i in rng_seed[1:]))
    return rng.integer(rng_seed, "episode seed"), ()


def _class_draws(benchmark: Benchmark, classes: Iterable[int], rows: int,
                 gen: np.random.Generator) -> list[np.ndarray]:
    """`rows` draws from each global class's Gaussian, class by class, from `gen`."""
    return [benchmark.class_mean(int(g)) + benchmark.class_spread_of(int(g))
            * gen.normal(size=(rows, benchmark.input_dim)) for g in classes]


def sample_task(benchmark: Benchmark, split: str, n_way: int, k_shot: int,
                q_query: int, rng_seed: int | tuple[int, ...],
                class_pool: Sequence[int] | None = None) -> FewShotTask:
    """Draw one episode from a split's class pool.

    Classes are chosen without replacement; each contributes k_shot support
    and q_query query rows from its Gaussian. `rng_seed` may be a bare
    integer or a (seed, *indices) tuple when a caller enumerates many
    episodes from one root seed. `class_pool` restricts the draw to a
    subset of the split's classes (used for source-pure episodes); a pool
    with a class outside the split, or a class twice, raises ValueError
    naming those classes. A count or pool entry that is not an integer (a
    float or a bool), an `n_way` below 2, or a `k_shot` or `q_query` below
    1 raises ValueError naming it.
    """
    n_way = rng.integer(n_way, "n_way")
    k_shot = rng.integer(k_shot, "k_shot")
    q_query = rng.integer(q_query, "q_query")
    if n_way < 2:
        raise ValueError(f"n_way must be at least 2, got {n_way}")
    for name, count in (("k_shot", k_shot), ("q_query", q_query)):
        if count < 1:
            raise ValueError(f"{name} must be positive, got {count}")
    pool = benchmark.split_pool(split)
    if class_pool is not None:
        allowed = set(pool)
        pool = tuple(rng.integer(g, "class_pool entry") for g in class_pool)
        outside = sorted({g for g in pool if g not in allowed})
        repeated = sorted({g for g in pool if pool.count(g) > 1})
        if outside or repeated:
            raise ValueError(
                f"class_pool must hold distinct classes of split {split!r}; "
                f"outside it: {outside}, repeated: {repeated}")
    if len(pool) < n_way:
        raise ValueError(
            f"split {split!r} has {len(pool)} classes, cannot draw {n_way} ways")
    root, indices = _episode_seed(rng_seed)
    gen = rng.stream(root, "episode", *indices)
    chosen = gen.choice(np.asarray(pool, dtype=np.int64), size=n_way, replace=False)
    draws = _class_draws(benchmark, chosen, k_shot + q_query, gen)
    support = Batch(np.concatenate([d[:k_shot] for d in draws]),
                    np.repeat(np.arange(n_way), k_shot))
    query = Batch(np.concatenate([d[k_shot:] for d in draws]),
                  np.repeat(np.arange(n_way), q_query))
    tid = f"{split}:{root}" + ("" if not indices else ":" + ",".join(map(str, indices)))
    return FewShotTask(
        n_way=n_way, k_shot=k_shot, q_query=q_query, support=support, query=query,
        class_ids=tuple(int(g) for g in chosen),
        source_ids=tuple(benchmark.source_of(int(g)) for g in chosen),
        task_id=tid)


def union_dataset(benchmark: Benchmark, split: str, examples_per_class: int,
                  rng_seed: int | tuple[int, ...]) -> Batch:
    """Flat supervised dataset over a split's classes under global labels.

    An `examples_per_class` that is not a positive integer raises ValueError.
    """
    examples_per_class = rng.integer(examples_per_class, "examples_per_class")
    if examples_per_class < 1:
        raise ValueError("examples_per_class must be at least 1")
    root, indices = _episode_seed(rng_seed)
    gen = rng.stream(root, "union-data", *indices)
    pool = sorted(benchmark.split_pool(split))
    return Batch(np.concatenate(_class_draws(benchmark, pool, examples_per_class, gen)),
                 np.repeat(np.asarray(pool, dtype=np.int64), examples_per_class))


def ground_truth_divergence(a: Source, b: Source) -> float:
    """Mean distance between cross pairs of class means, in spread units.

    Average Euclidean distance over all (class of a, class of b) pairs,
    divided by the mean of the two spreads. Symmetric by construction;
    needs a positive combined spread to be well defined.
    """
    if a.input_dim != b.input_dim:
        raise ValueError(f"input_dim mismatch: {a.input_dim} vs {b.input_dim}")
    scale = 0.5 * (a.class_spread + b.class_spread)
    if scale <= 0:
        raise ValueError("divergence undefined for two zero-spread sources")
    diffs = a.class_means[:, None, :] - b.class_means[None, :, :]
    return float(np.mean(np.linalg.norm(diffs, axis=2)) / scale)
