"""Rain's core: rankers, the train-rank-fix driver, and evaluation metrics."""

from .metrics import (
    auccr,
    auccr_normalized,
    precision_at_k,
    recall_at_k,
    recall_curve,
)
from .interventions import RelabelDebugger
from .rain import DebugReport, IterationRecord, RainDebugger
from .rankers import (
    HolisticRanker,
    InfLossRanker,
    IterationContext,
    LossRanker,
    Ranker,
    TwoStepRanker,
    WarmStartState,
    make_ranker,
)

__all__ = [
    "auccr",
    "auccr_normalized",
    "precision_at_k",
    "recall_at_k",
    "recall_curve",
    "DebugReport",
    "IterationRecord",
    "RainDebugger",
    "RelabelDebugger",
    "HolisticRanker",
    "InfLossRanker",
    "IterationContext",
    "LossRanker",
    "Ranker",
    "TwoStepRanker",
    "WarmStartState",
    "make_ranker",
]
