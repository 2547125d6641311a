"""The Rain debugger: the train-rank-fix loop (Section 5.1).

Given a database (queried relations + a registered model), the model's
training set, and complaint cases (query + complaints, possibly several
queries sharing the model), :class:`RainDebugger` iterates:

1. **train** — (re)fit the model on the active training records,
   warm-started from the previous parameters;
2. **execute** — bring every complained-about query's debug lineage up
   to date.  The lineage (one compiled node-array pool per plan, which
   feeds both TwoStep's ILP and Holistic's relaxed objective) does not
   depend on the model, so the executor builds it once per plan and each
   iteration re-labels it: one ``model.predict`` per run of inference
   sites and one evaluation of the output (the paper's §5.1 instead
   reruns the query in debug mode, since its DBMS is a black box).  The
   loop still executes once per case, but the cases over one plan get
   the one result labelled after this iteration's fit, and the programs
   their relaxed objectives and drain build over its pool are built once
   per session;
3. **rank** — score the active training records with the configured
   approach (Loss / InfLoss / TwoStep / Holistic);
4. **fix** — delete the top-k records and repeat.

The output is the ranked deletion sequence ``D`` plus per-iteration
diagnostics and a Train/Execute/Encode/Rank timing breakdown (Figures 5
and 12 of the paper).

Because θ* barely moves after a top-k deletion, the driver carries CG
state between iterations (``warm_start_cg=True``, the default): rankers
seed each solve with the previous iteration's solution via
:class:`~repro.core.rankers.WarmStartState`, and per-sample gradients are
cached across iterations, invalidated wholesale when refitting moves θ*
and by row-slicing when only records were deleted.

The ``method="auto"`` heuristic matches Section 5.1: probe the TwoStep ILP
for the number of optimal solutions; if the fix is unique, use TwoStep,
otherwise use Holistic.  The probe is budgeted in branch & bound nodes
only, never in wall-clock seconds, so the choice does not depend on how
fast or loaded the host is.

Complaint satisfaction is drained by
:func:`~repro.complaints.complaint.all_satisfied`: all complaint nodes
over one result are evaluated in one vectorized pass.  The flag only
steers control flow under ``stop_when_satisfied``; it never feeds the
ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..complaints.complaint import ComplaintCase, all_satisfied
from ..errors import DebuggingError, ILPError
from ..ilp.encode import make_encoder
from ..ilp.solver import enumerate_optima
from ..influence.functions import InfluenceAnalyzer, PerSampleGradCache
from ..relational.algebra import Plan
from ..relational.executor import Executor, QueryResult
from ..relational.schema import Database
from ..relational.sql import plan_sql
from ..utils import Stopwatch, argsort_desc, as_rng
from .rankers import IterationContext, WarmStartState, make_ranker

# The drain's former name: the benchmark's tracer (``bench/trace.py``)
# still wraps it, so it stays bound to the one satisfaction check.
all_satisfied_columnar = all_satisfied


@dataclass
class IterationRecord:
    """Diagnostics for one train-rank-fix iteration."""

    iteration: int
    removed: list[int]
    complaints_satisfied: bool
    diagnostics: dict = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class DebugReport:
    """The debugger's output: the deletion sequence plus diagnostics."""

    method: str
    removal_order: list[int]
    iterations: list[IterationRecord]
    timings: dict[str, float]
    stopped_reason: str

    def recall_curve(self, corrupted_indices, k_max: int | None = None) -> np.ndarray:
        from .metrics import recall_curve

        return recall_curve(self.removal_order, corrupted_indices, k_max=k_max)

    def auccr(self, corrupted_indices) -> float:
        from .metrics import auccr_normalized, recall_curve

        return auccr_normalized(recall_curve(self.removal_order, corrupted_indices))


def _timings_since(watch: Stopwatch, before: dict[str, float]) -> dict[str, float]:
    """Per-label seconds ``watch`` accrued since the ``before`` snapshot."""
    after = watch.as_dict()
    return {label: after[label] - before.get(label, 0.0) for label in after}


class RainDebugger:
    """Complaint-driven training-data debugging for Query 2.0."""

    def __init__(
        self,
        database: Database,
        model_name: str,
        X_train: np.ndarray,
        y_train: np.ndarray,
        cases: list[ComplaintCase],
        method: str = "auto",
        damping: float = 1e-4,
        rng=0,
        ranker_kwargs: dict | None = None,
        fit_kwargs: dict | None = None,
        stop_when_satisfied: bool = False,
        cg_max_iter: int | None = None,
        cg_tol: float = 1e-8,
        warm_start_cg: bool = True,
    ) -> None:
        if not cases and method in ("auto", "twostep", "holistic"):
            raise DebuggingError(
                f"method {method!r} is complaint-driven and needs at least one "
                "complaint case"
            )
        self.database = database
        self.model_name = model_name
        self.model = database.model(model_name)
        self.X_train = np.asarray(X_train, dtype=np.float64)
        self.y_train = np.asarray(y_train)
        if self.X_train.shape[0] != self.y_train.shape[0]:
            raise DebuggingError(
                f"training X has {self.X_train.shape[0]} rows, y has "
                f"{self.y_train.shape[0]}"
            )
        self.cases = list(cases)
        self.requested_method = method
        self.damping = float(damping)
        self.rng = as_rng(rng)
        self.ranker_kwargs = dict(ranker_kwargs or {})
        self.fit_kwargs = dict(fit_kwargs or {})
        self.stop_when_satisfied = bool(stop_when_satisfied)
        self.cg_max_iter = cg_max_iter
        self.cg_tol = float(cg_tol)
        self.warm_start_cg = bool(warm_start_cg)
        # Per-sample gradients survive across iterations while θ* is
        # unchanged; top-k deletions only slice rows out of the cached matrix.
        self._grad_cache = PerSampleGradCache()

        self.executor = Executor(database)
        self._plans: list[Plan] = [self._resolve_plan(case.query) for case in cases]

    def _resolve_plan(self, query) -> Plan:
        if isinstance(query, Plan):
            return query
        if isinstance(query, str):
            return plan_sql(query, self.database)
        raise DebuggingError(
            f"query must be SQL text or a Plan, got {type(query).__name__}"
        )

    # -- method selection (Section 5.1 heuristic) ------------------------------------

    def choose_method(self) -> str:
        """'twostep' when every case has a unique minimal fix, else 'holistic'."""
        if self.requested_method != "auto":
            return self.requested_method
        self._ensure_fitted()
        for case, plan in zip(self.cases, self._plans):
            result = self.executor.execute(plan, debug=True)
            try:
                encoder = make_encoder(result)
                encoder.add_complaints(case.complaints)
                solutions = enumerate_optima(encoder.program, max_solutions=2)
            except ILPError:
                return "holistic"
            if len(solutions) != 1:
                return "holistic"
        return "twostep"

    def _ensure_fitted(self) -> None:
        if not self.model.is_fitted:
            self.model.fit(
                self.X_train, self.y_train, warm_start=False, **self.fit_kwargs
            )

    # -- the train-rank-fix loop ----------------------------------------------------------

    def run(
        self,
        max_removals: int,
        k_per_iteration: int = 10,
    ) -> DebugReport:
        """Delete up to ``max_removals`` records, ``k_per_iteration`` at a time."""
        if max_removals <= 0:
            raise DebuggingError(f"max_removals must be positive, got {max_removals}")
        if k_per_iteration <= 0:
            raise DebuggingError(
                f"k_per_iteration must be positive, got {k_per_iteration}"
            )
        method = self.choose_method()
        ranker = make_ranker(method, **self.ranker_kwargs)
        watch = Stopwatch()
        # CG solutions carried between iterations (θ* barely moves after a
        # top-k deletion, so the previous u / block are excellent starts).
        warm = WarmStartState() if self.warm_start_cg else None
        active = np.arange(self.X_train.shape[0])
        removal_order: list[int] = []
        iterations: list[IterationRecord] = []
        stopped_reason = "budget"
        iteration = 0

        while len(removal_order) < max_removals:
            iteration += 1
            before = watch.as_dict()

            X_active = self.X_train[active]
            y_active = self.y_train[active]
            with watch.time("train"):
                self._train_stage(X_active, y_active)

            with watch.time("execute"):
                case_results, lineage = self._execute_stage()

            satisfied = bool(case_results) and all_satisfied(case_results)
            if self.stop_when_satisfied and satisfied:
                stopped_reason = "complaints_satisfied"
                iterations.append(
                    IterationRecord(
                        iteration, [], True, {}, _timings_since(watch, before)
                    )
                )
                break

            context = self._make_context(
                X_active, y_active, active, case_results, watch, warm, lineage
            )
            scores = np.asarray(ranker.scores(context), dtype=np.float64)
            if scores.shape != (active.shape[0],):
                raise DebuggingError(
                    f"ranker returned {scores.shape}, expected ({active.shape[0]},)"
                )

            if np.allclose(scores, scores[0]):
                # Degenerate ranking (e.g. TwoStep found nothing to mark):
                # removing arbitrary records would only add noise.
                stopped_reason = "no_signal"
                iterations.append(
                    IterationRecord(
                        iteration, [], satisfied, dict(context.diagnostics),
                        _timings_since(watch, before),
                    )
                )
                break

            removed, active = self._select_top(
                scores, active, warm, removal_order, max_removals, k_per_iteration
            )
            iterations.append(
                IterationRecord(
                    iteration, removed, satisfied, dict(context.diagnostics),
                    _timings_since(watch, before),
                )
            )
            if active.size == 0:
                stopped_reason = "exhausted"
                break

        return DebugReport(
            method=method,
            removal_order=removal_order,
            iterations=iterations,
            timings=watch.as_dict(),
            stopped_reason=stopped_reason,
        )

    # -- stages -------------------------------------------------------------------

    def _train_stage(self, X_active: np.ndarray, y_active: np.ndarray) -> None:
        self.model.fit(
            X_active,
            y_active,
            warm_start=self.model.is_fitted,
            **self.fit_kwargs,
        )

    def _execute_stage(self):
        """Every case's debug result, plus this stage's lineage reuse counts."""
        hits, misses = self.executor.lineage_hits, self.executor.lineage_misses
        case_results: list[tuple[ComplaintCase, QueryResult]] = [
            (case, self.executor.execute(plan, debug=True))
            for case, plan in zip(self.cases, self._plans)
        ]
        lineage = {
            "hits": self.executor.lineage_hits - hits,
            "misses": self.executor.lineage_misses - misses,
        }
        return case_results, lineage

    def _make_context(
        self, X_active, y_active, active, case_results, watch, warm, lineage
    ) -> IterationContext:
        context = IterationContext(
            model=self.model,
            X_active=X_active,
            y_active=y_active,
            analyzer=InfluenceAnalyzer(
                self.model, X_active, y_active, damping=self.damping,
                cg_max_iter=self.cg_max_iter, cg_tol=self.cg_tol,
                grad_cache=self._grad_cache, row_ids=active,
            ),
            case_results=case_results,
            rng=self.rng,
            watch=watch,
            warm_start=warm,
        )
        context.diagnostics["lineage"] = lineage
        return context

    def _select_top(
        self,
        scores: np.ndarray,
        active: np.ndarray,
        warm: WarmStartState | None,
        removal_order: list[int],
        max_removals: int,
        k_per_iteration: int,
    ) -> tuple[list[int], np.ndarray]:
        """The fix step: delete the top-k by score, maintain warm state."""
        budget = min(k_per_iteration, max_removals - len(removal_order))
        top_positions = argsort_desc(scores)[:budget]
        removed = [int(active[position]) for position in top_positions]
        removal_order.extend(removed)
        if warm is not None and warm.block is not None:
            if warm.block.shape[1] == active.shape[0]:
                warm.drop_columns(top_positions)
            else:  # ranker produced a partial block — don't carry it
                warm.block = None
        return removed, np.delete(active, top_positions)
