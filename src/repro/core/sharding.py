"""Per-shard random streams that do not depend on who draws them.

Sampling that is split into shards draws from one child stream per shard,
derived from a single root seed via ``np.random.SeedSequence.spawn`` (the
scheme :func:`repro.data.corrupt.corrupt_labels` uses for ``n_shards``).
A shard's draws then depend only on (seed, shard index), never on the
order in which shards are processed.
"""

from __future__ import annotations

import numpy as np

from ..errors import DebuggingError


def spawn_generators(seed: int, n_shards: int) -> list[np.random.Generator]:
    """Independent per-shard generators via ``SeedSequence.spawn``.

    Every shard gets its own child stream derived from one root seed, so
    a shard's draws depend only on (seed, shard index) — never on which
    worker runs it, in what order, or how many workers exist.
    """
    if n_shards <= 0:
        raise DebuggingError(f"n_shards must be positive, got {n_shards}")
    children = np.random.SeedSequence(seed).spawn(n_shards)
    return [np.random.default_rng(child) for child in children]
