"""Small shared utilities: RNG handling, validation, timing."""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from typing import TypeVar

import numpy as np

T = TypeVar("T")

RngLike = "int | np.random.Generator | None"


def as_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh OS entropy).  All stochastic code in the library funnels
    through this helper so experiments are reproducible end to end.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def grow_array(array: np.ndarray, min_size: int, fill=0) -> np.ndarray:
    """Amortized-doubling growth of a 1-d array, preserving the prefix.

    Returns ``array`` unchanged when it is already large enough; otherwise
    a new array of at least ``min_size`` (and at least double the old
    capacity, floor 16) filled with ``fill`` beyond the copied prefix.
    The dense caches of the runtime, site registry, node pool, and ILP
    model all share this growth policy.
    """
    if array.shape[0] >= min_size:
        return array
    size = max(min_size, 2 * array.shape[0], 16)
    grown = np.full(size, fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


def check_1d(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` is one dimensional and return it as ndarray."""
    out = np.asarray(array)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {out.shape}")
    return out


def check_2d(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` is two dimensional and return it as ndarray."""
    out = np.asarray(array)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    return out


def check_same_length(a: Sequence | np.ndarray, b: Sequence | np.ndarray, names: str) -> None:
    """Raise ``ValueError`` if the two sequences differ in length."""
    if len(a) != len(b):
        raise ValueError(f"{names} must have equal length, got {len(a)} and {len(b)}")


def argsort_desc(values: np.ndarray) -> np.ndarray:
    """Indices that sort ``values`` descending with a stable tie order."""
    values = np.asarray(values)
    # numpy sorts ascending and 'stable' keeps the original order of ties;
    # negating keeps stability while flipping the direction.
    return np.argsort(-values, kind="stable")


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries, ordered from largest down."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    order = argsort_desc(values)
    return order[:k]


def batched(items: Sequence[T], batch_size: int) -> Iterable[Sequence[T]]:
    """Yield successive chunks of ``items`` of at most ``batch_size``."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    for start in range(0, len(items), batch_size):
        yield items[start:start + batch_size]


class Stopwatch:
    """Accumulate wall-clock time under named labels.

    Used by the experiment harness to reproduce the paper's
    Train/Encode/Rank per-iteration runtime breakdown (Figures 5 and 12).
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._started: dict[str, float] = {}

    def start(self, label: str) -> None:
        self._started[label] = time.perf_counter()

    def stop(self, label: str) -> float:
        if label not in self._started:
            raise KeyError(f"Stopwatch label {label!r} was never started")
        elapsed = time.perf_counter() - self._started.pop(label)
        self.totals[label] = self.totals.get(label, 0.0) + elapsed
        self.counts[label] = self.counts.get(label, 0) + 1
        return elapsed

    def time(self, label: str):
        """Context manager form: ``with watch.time("train"): ...``."""
        return _StopwatchContext(self, label)

    def mean(self, label: str) -> float:
        """Mean elapsed seconds per ``start``/``stop`` pair for ``label``."""
        if self.counts.get(label, 0) == 0:
            return 0.0
        return self.totals[label] / self.counts[label]

    def as_dict(self) -> dict[str, float]:
        return dict(self.totals)


class _StopwatchContext:
    def __init__(self, watch: Stopwatch, label: str) -> None:
        self._watch = watch
        self._label = label

    def __enter__(self) -> "Stopwatch":
        self._watch.start(self._label)
        return self._watch

    def __exit__(self, exc_type, exc, tb) -> None:
        self._watch.stop(self._label)
