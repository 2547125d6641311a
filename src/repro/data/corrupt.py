"""Systematic training-label corruption (Section 6.1.3).

The paper's experiments "choose records that match a predicate, and change
the labels for a subset of the matching records".  :func:`corrupt_labels`
implements exactly that: given a candidate mask (the predicate), flip a
fraction of the matching records to a new label, and return both the
corrupted labels and the ground-truth corrupted indices that recall curves
are computed against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils import as_rng


@dataclass
class Corruption:
    """Corrupted labels plus ground truth bookkeeping."""

    y_corrupted: np.ndarray
    corrupted_indices: np.ndarray
    candidate_indices: np.ndarray
    fraction: float

    @property
    def n_corrupted(self) -> int:
        return int(self.corrupted_indices.size)

    def corruption_rate_overall(self) -> float:
        """Fraction of the whole training set that was corrupted."""
        return self.n_corrupted / self.y_corrupted.shape[0]


def corrupt_labels(
    y: np.ndarray,
    candidate_mask: np.ndarray,
    new_label,
    fraction: float,
    rng=None,
) -> Corruption:
    """Flip ``fraction`` of the records matching ``candidate_mask``.

    Args:
        y: clean labels (any dtype).
        candidate_mask: boolean mask selecting the predicate's records.
        new_label: the (wrong) label to assign.  May also be a callable
            ``old_label -> new_label`` for per-record flips.
        fraction: fraction of candidates to corrupt, in (0, 1].
        rng: seed or generator; ``max(1, round(fraction * n_candidates))``
            candidates are drawn uniformly without replacement, and
            ``corrupted_indices`` holds them sorted.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    y = np.asarray(y)
    candidate_mask = np.asarray(candidate_mask, dtype=bool)
    if candidate_mask.shape != y.shape:
        raise ValueError(
            f"mask shape {candidate_mask.shape} != labels shape {y.shape}"
        )
    candidates = np.flatnonzero(candidate_mask)
    if candidates.size == 0:
        raise ValueError("the corruption predicate matches no records")
    n_corrupt = max(1, int(round(fraction * candidates.size)))
    chosen = as_rng(rng).choice(candidates, size=n_corrupt, replace=False)
    chosen.sort()
    y_corrupted = y.copy()
    if callable(new_label):
        for index in chosen:
            y_corrupted[index] = new_label(y[index])
    else:
        y_corrupted[chosen] = new_label
    return Corruption(
        y_corrupted=y_corrupted,
        corrupted_indices=chosen,
        candidate_indices=candidates,
        fraction=fraction,
    )


def corrupt_where_label(
    y: np.ndarray, from_label, to_label, fraction: float, rng=None
) -> Corruption:
    """Convenience: corrupt records whose clean label equals ``from_label``."""
    mask = np.asarray(y) == from_label
    return corrupt_labels(y, mask, to_label, fraction, rng=rng)
