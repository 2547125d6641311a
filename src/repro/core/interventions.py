"""Alternative interventions beyond deletion (paper Section 8).

The paper fixes training data by *deleting* records, and names label
fixing ([Tanaka et al. 2018; Krishnan et al. 2016]) as future work.  This
module provides that extension: :class:`RelabelDebugger` runs the same
train-rank-fix loop as :class:`~repro.core.rain.RainDebugger` but, instead
of deleting the top-k records, *flips their labels*:

- binary models: to the opposite class (the only possible fix);
- multiclass models: to the model's own most-confident other class
  (a self-training-style correction).

Relabelling keeps the training-set size constant, which matters when the
corrupted slice is large enough that deletion would starve the model of a
whole region of the feature space.  The benchmark suite compares both
interventions on the DBLP workload (``test_bench_ablation.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import DebuggingError
from .rain import DebugReport, IterationRecord, RainDebugger


class RelabelDebugger(RainDebugger):
    """Train-rank-fix with label flipping instead of deletion.

    The ``removal_order`` of the resulting report lists the records whose
    labels were *changed* (ranked), so recall/AUCCR metrics apply
    unchanged against the known-corrupted ground truth.
    """

    def run(self, max_removals: int, k_per_iteration: int = 10) -> DebugReport:
        if max_removals <= 0:
            raise DebuggingError(f"max_removals must be positive, got {max_removals}")
        if k_per_iteration <= 0:
            raise DebuggingError(
                f"k_per_iteration must be positive, got {k_per_iteration}"
            )
        from ..influence.functions import InfluenceAnalyzer
        from ..utils import Stopwatch, argsort_desc
        from .rankers import IterationContext, make_ranker

        method = self.choose_method()
        ranker = make_ranker(method, **self.ranker_kwargs)

        watch = Stopwatch()
        y_current = self.y_train.copy()
        touched = np.zeros(len(y_current), dtype=bool)
        changed_order: list[int] = []
        iterations: list[IterationRecord] = []
        stopped_reason = "budget"
        iteration = 0

        while len(changed_order) < max_removals:
            iteration += 1
            with watch.time("train"):
                self._train_stage(self.X_train, y_current)
            with watch.time("execute"):
                case_results, _ = self._execute_stage()
            context = IterationContext(
                model=self.model,
                X_active=self.X_train,
                y_active=y_current,
                analyzer=InfluenceAnalyzer(
                    self.model, self.X_train, y_current, damping=self.damping,
                    cg_max_iter=self.cg_max_iter, cg_tol=self.cg_tol,
                ),
                case_results=case_results,
                rng=self.rng,
                watch=watch,
            )
            scores = np.asarray(ranker.scores(context), dtype=np.float64)
            scores[touched] = -np.inf  # never flip the same record twice
            if not np.isfinite(scores).any() or np.allclose(
                scores[np.isfinite(scores)], scores[np.isfinite(scores)][0]
            ):
                stopped_reason = "no_signal"
                break

            budget = min(k_per_iteration, max_removals - len(changed_order))
            chosen = argsort_desc(scores)[:budget]
            chosen = [int(i) for i in chosen if np.isfinite(scores[i])]
            if not chosen:
                stopped_reason = "exhausted"
                break
            for index in chosen:
                y_current[index] = self._fixed_label(index, y_current[index])
                touched[index] = True
            changed_order.extend(chosen)
            iterations.append(
                IterationRecord(
                    iteration, list(chosen), False, dict(context.diagnostics), {}
                )
            )
            if touched.all():
                stopped_reason = "exhausted"
                break

        return DebugReport(
            method=f"{method}+relabel",
            removal_order=changed_order,
            iterations=iterations,
            timings=watch.as_dict(),
            stopped_reason=stopped_reason,
        )

    def _fixed_label(self, index: int, current_label):
        """The corrected label for one record."""
        classes = self.model.classes
        if len(classes) == 2:
            return classes[1] if current_label == classes[0] else classes[0]
        proba = self.model.predict_proba(self.X_train[index:index + 1])[0]
        order = np.argsort(-proba)
        for class_index in order:
            candidate = classes[int(class_index)]
            if candidate != current_label:
                return candidate
        raise DebuggingError("no alternative class available")

    def corrected_labels(self, report: DebugReport) -> np.ndarray:
        """Replay the report's flips on a fresh copy of the labels."""
        y_fixed = self.y_train.copy()
        for index in report.removal_order:
            y_fixed[index] = self._fixed_label(index, y_fixed[index])
        return y_fixed
