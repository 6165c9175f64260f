"""Named, seedable, splittable random streams.

Everything stochastic in the package draws from a stream obtained here, so
a single root seed pins down benchmarks, episodes, initializations and task
draws bit-for-bit.

The scheme, stated precisely so another implementation can reproduce the
streams: a stream is identified by a root seed, a purpose tag (short ascii
string) and a tuple of integer indices. The tag is hashed with blake2b to
an unsigned 64-bit integer (first 8 digest bytes, little-endian); the
stream's generator is numpy's counter-based Philox engine seeded with
``SeedSequence(root_seed, spawn_key=(tag_hash, *indices))``. Distinct
(tag, indices) pairs give statistically independent streams; identical
pairs give identical streams on every platform numpy supports.

Tags the package draws: "source-means" (class mean clouds, `tasks`),
"episode" (every few-shot episode, for training, meta-test, diversity
and histogram alike, keyed by a seed and an index, `tasks.sample_task`),
"union-data" (flat pre-training datasets, `tasks.union_dataset`) and
"init" (parameter initialization, including a random probe's body,
`nets.NetSpec.init`).
"""

from __future__ import annotations

import hashlib

import numpy as np


def tag_hash(tag: str) -> int:
    """Stable 64-bit hash of a purpose tag (Python's hash() is salted)."""
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(root_seed: int, tag: str, *indices: int) -> np.random.Generator:
    """The (root_seed, tag, indices) random stream as a numpy Generator.

    A negative root seed or index raises ValueError naming it.
    """
    root, idx = int(root_seed), tuple(int(i) for i in indices)
    if min((root,) + idx) < 0:
        raise ValueError(f"stream seeds and indices must be nonnegative, got "
                         f"root seed {root} and indices {idx} for tag {tag!r}")
    seq = np.random.SeedSequence(root, spawn_key=(tag_hash(tag),) + idx)
    return np.random.Generator(np.random.Philox(seq))
