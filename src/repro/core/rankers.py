"""Training-record rankers: Loss, InfLoss, TwoStep, Holistic.

Every approach in Section 6.1.1 is a :class:`Ranker`: given the current
iteration context (fitted model, active training records, executed queries,
complaints) it produces one score per active training record; the
train-rank-fix driver removes the top-k by score, descending.

Timing convention (for the paper's Figure 5/12 runtime breakdown): rankers
charge work to the context stopwatch under ``encode`` (building the
influence objective — ILP solving for TwoStep, relaxation sweeps for
Holistic) and ``rank`` (the CG solve + per-record gradient dot products).

Solve conventions: InfLoss issues ONE block CG solve for all active
records (``solver="scalar"`` keeps the paper's per-record loop as the slow
reference); Holistic and TwoStep each sum their complaints into one
objective ``q(θ)`` and issue one scalar solve.  When the driver supplies a
:class:`WarmStartState` (RainDebugger does by default), rankers seed CG
with the previous iteration's solutions and write the new ones back — θ*
barely moves after a top-k deletion, so warm solves typically need a
fraction of the cold iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..complaints.complaint import ComplaintCase, PredictionComplaint
from ..errors import DebuggingError, ILPTimeoutError, InfeasibleError
from ..ilp.encode import make_encoder
from ..ilp.solver import enumerate_optima, pick_solution
from ..influence.functions import InfluenceAnalyzer, q_grad_for_target_predictions
from ..relational.executor import QueryResult
from ..relaxation.objective import batched_case_objectives, batched_q_and_grads
from ..utils import Stopwatch


@dataclass
class WarmStartState:
    """CG solutions carried across train-rank-fix iterations.

    ``u`` is the previous solution of the single-objective solve
    (Holistic/TwoStep); ``block`` is the previous self-influence block
    solution with one column per active record, kept aligned with the active
    set by the driver (it deletes the removed records' columns each
    iteration).  Rankers read these as CG starting points and write the new
    solutions back in place.

    Warm starts are accelerators, not state the results depend on: every
    consumer shape-checks before seeding, and any stale array degrades to a
    cold solve rather than a wrong one.
    """

    u: np.ndarray | None = None
    block: np.ndarray | None = None

    def drop_columns(self, positions: np.ndarray) -> None:
        """Forget the block columns of just-removed records.

        An empty ``positions`` array is a no-op (``np.delete`` would other-
        wise still copy, and float positions from an empty ``argsort`` slice
        used to raise); indices are normalized to int64 first.
        """
        if self.block is None:
            return
        positions = np.asarray(positions)
        if positions.size == 0:
            return
        self.block = np.delete(self.block, positions.astype(np.int64), axis=1)


@dataclass
class IterationContext:
    """Everything a ranker may need for one train-rank-fix iteration."""

    model: object
    X_active: np.ndarray
    y_active: np.ndarray
    analyzer: InfluenceAnalyzer
    case_results: list[tuple[ComplaintCase, QueryResult]]
    rng: np.random.Generator
    watch: Stopwatch
    diagnostics: dict = field(default_factory=dict)
    warm_start: WarmStartState | None = None


class Ranker:
    """Interface: one score per active training record, higher = remove first."""

    name = "ranker"

    def scores(self, ctx: IterationContext) -> np.ndarray:
        raise NotImplementedError


class LossRanker(Ranker):
    """Rank by training loss, highest first (the Loss baseline)."""

    name = "loss"

    def scores(self, ctx: IterationContext) -> np.ndarray:
        with ctx.watch.time("rank"):
            return ctx.analyzer.training_losses()


class InfLossRanker(Ranker):
    """Self-influence ranking [Koh & Liang 2017] (the InfLoss baseline).

    Scores are the negated self-influence ``∇ℓᵀH⁻¹∇ℓ``: records whose own
    loss would grow fastest if removed come first.  The paper's slowest
    method by far when run record-by-record (``solver="scalar"``, one CG
    solve per record); the default ``solver="block"`` issues ONE block CG
    solve for all records, warm-started from the previous iteration's block
    when the driver carries one.
    """

    name = "infloss"

    def __init__(self, max_records: int | None = None, solver: str = "block") -> None:
        if solver not in ("block", "scalar"):
            raise DebuggingError("solver must be 'block' or 'scalar'")
        self.max_records = max_records
        self.solver = solver

    def scores(self, ctx: IterationContext) -> np.ndarray:
        with ctx.watch.time("rank"):
            if self.solver == "scalar":
                scores = -ctx.analyzer.self_influence_scalar(
                    max_records=self.max_records
                )
                ctx.diagnostics["cg_solves"] = dict(ctx.analyzer.solve_counts)
                return scores
            # Block warm starts only make sense when the block covers the
            # whole active set (columns stay aligned under deletions).
            carry = ctx.warm_start if self.max_records is None else None
            X0 = carry.block if carry is not None else None
            scores = -ctx.analyzer.self_influence(
                max_records=self.max_records, X0=X0
            )
            block_result = ctx.analyzer.last_block_cg_result
            if block_result is not None:
                if carry is not None:
                    carry.block = block_result.X
                ctx.diagnostics["block_cg"] = block_result.summary()
            ctx.diagnostics["cg_solves"] = dict(ctx.analyzer.solve_counts)
            return scores


class HolisticRanker(Ranker):
    """The Holistic approach (Section 5.3): influence on relaxed complaints.

    Every complaint case's relaxed objective is summed into one ``q(θ)``
    and its gradient drives one scalar influence solve — the paper's
    formulation, also for the multi-query runs of Section 6.5.

    Cases over one plan share one probability-matrix evaluation and one
    :meth:`~repro.ml.base.ClassificationModel.prob_vjp_operator`; the
    per-case gradients are summed in case order.
    """

    name = "holistic"

    def scores(self, ctx: IterationContext) -> np.ndarray:
        with ctx.watch.time("encode"):
            q_values, q_grads = batched_q_and_grads(
                batched_case_objectives(ctx.case_results)
            )
            q_total = 0.0
            for q_value in q_values:
                q_total += q_value
            ctx.diagnostics["q_value"] = q_total
        with ctx.watch.time("rank"):
            warm = ctx.warm_start
            q_grad = q_grads[0] if len(q_grads) == 1 else np.sum(q_grads, axis=0)
            scores = ctx.analyzer.scores_from_q_grad(
                q_grad, x0=None if warm is None else warm.u
            )
            _record_scalar_cg(ctx, warm)
            return scores


def _record_scalar_cg(ctx: IterationContext, warm: WarmStartState | None) -> None:
    """Store the scalar solve's solution/diagnostics after scores_from_q_grad."""
    ctx.diagnostics["cg_solves"] = dict(ctx.analyzer.solve_counts)
    result = ctx.analyzer.last_cg_result
    if result is None:
        return
    if warm is not None:
        warm.u = result.x
    ctx.diagnostics["cg_iterations"] = result.iterations
    ctx.diagnostics["cg_converged"] = result.converged


class TwoStepRanker(Ranker):
    """The TwoStep approach (Section 5.2): ILP fix, then influence.

    ``ambiguity_cap`` bounds how many optimal ILP solutions are enumerated;
    the enumerated count is reported as the iteration's ambiguity and the
    "opaque solver pick" is a seeded uniform draw among them (Theorem A.1's
    model).  Set ``ambiguity_cap=1`` to take the solver's first optimum.
    ``node_limit`` budgets each branch & bound solve.  ``time_limit`` adds
    an opt-in wall clock; the default ``None`` leaves the node budget as
    the only limit, so removal orders do not depend on host speed.
    """

    name = "twostep"

    def __init__(
        self,
        ambiguity_cap: int = 20,
        node_limit: int = 20000,
        time_limit: float | None = None,
        on_failure: str = "zeros",
    ) -> None:
        if on_failure not in ("zeros", "raise"):
            raise DebuggingError("on_failure must be 'zeros' or 'raise'")
        if ambiguity_cap < 1:
            raise DebuggingError(f"ambiguity_cap must be >= 1, got {ambiguity_cap}")
        if node_limit < 1:
            raise DebuggingError(f"node_limit must be >= 1, got {node_limit}")
        if time_limit is not None and time_limit <= 0:
            raise DebuggingError(f"time_limit must be positive, got {time_limit}")
        self.ambiguity_cap = ambiguity_cap
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.on_failure = on_failure

    def scores(self, ctx: IterationContext) -> np.ndarray:
        with ctx.watch.time("encode"):
            try:
                marked = self._marked_mispredictions(ctx)
            except (ILPTimeoutError, InfeasibleError) as exc:
                ctx.diagnostics["ilp_failure"] = str(exc)
                if self.on_failure == "raise":
                    raise
                return np.zeros(ctx.X_active.shape[0])
            ctx.diagnostics["n_marked"] = len(marked)
            if not marked:
                # The complaints are already satisfiable without changing any
                # prediction; nothing to trace back.
                return np.zeros(ctx.X_active.shape[0])
            q_grad = self._q_grad(ctx, marked)
        with ctx.watch.time("rank"):
            warm = ctx.warm_start
            scores = ctx.analyzer.scores_from_q_grad(
                q_grad, x0=None if warm is None else warm.u
            )
            _record_scalar_cg(ctx, warm)
            return scores

    # -- SQL step -------------------------------------------------------------

    def _marked_mispredictions(
        self, ctx: IterationContext
    ) -> list[tuple[int, QueryResult, int, object]]:
        """(case position, result, site_id, target_label) across all cases.

        The "opaque solver pick" among each case's tied optima consumes
        ``ctx.rng`` strictly in case order.
        """
        enumerations = [
            self._enumerate_case(case_result) for case_result in ctx.case_results
        ]
        marked: list[tuple[int, QueryResult, int, object]] = []
        total_ambiguity = 1
        for position, ((case, result), enumeration) in enumerate(
            zip(ctx.case_results, enumerations)
        ):
            direct_marks, direct_sites, encoder, solutions = enumeration
            marked.extend((position, *mark) for mark in direct_marks)
            if solutions is None:
                continue
            total_ambiguity *= len(solutions)
            chosen = pick_solution(solutions, ctx.rng)
            for site_id, label in encoder.marked_mispredictions(chosen):
                if site_id not in direct_sites:
                    marked.append((position, result, site_id, label))
        ctx.diagnostics["ambiguity"] = total_ambiguity
        return marked

    def _enumerate_case(self, case_result: tuple[ComplaintCase, QueryResult]):
        """One case's direct marks plus its enumerated ILP optima (or None)."""
        case, result = case_result
        direct = [
            c for c in case.complaints if isinstance(c, PredictionComplaint)
        ]
        indirect = [
            c for c in case.complaints if not isinstance(c, PredictionComplaint)
        ]
        # Direct point complaints are unambiguous: mark them outright.
        direct_marks = [
            (result, complaint.site_id(result), complaint.label)
            for complaint in direct
            if not complaint.is_satisfied(result)
        ]
        direct_sites = {complaint.site_id(result) for complaint in direct}
        if not indirect:
            return direct_marks, direct_sites, None, None
        encoder = make_encoder(result)
        encoder.add_complaints(case.complaints)  # point complaints pin sites
        solutions = enumerate_optima(
            encoder.program,
            max_solutions=self.ambiguity_cap,
            node_limit=self.node_limit,
            time_limit=self.time_limit,
        )
        return direct_marks, direct_sites, encoder, solutions

    # -- influence step ----------------------------------------------------------

    def _q_grad(
        self,
        ctx: IterationContext,
        marked: list[tuple[int, QueryResult, int, object]],
    ) -> np.ndarray:
        """q(θ) = -Σ_marked p_target(x; θ), encoding only the marked sites.

        One product per case, summed in case order.  Cases over one plan
        may share one result object, so marks are grouped by case
        position, never by result.
        """
        by_case: dict[int, tuple[QueryResult, list[int], list[object]]] = {}
        for position, result, site_id, label in marked:
            entry = by_case.setdefault(position, (result, [], []))
            entry[1].append(site_id)
            entry[2].append(label)
        q_grad = np.zeros(ctx.model.n_params)
        for result, site_ids, labels in by_case.values():
            X_sites = result.runtime.features_for_sites(site_ids)
            q_grad += q_grad_for_target_predictions(
                ctx.model, X_sites, np.asarray(labels, dtype=object)
            )
        return q_grad


def _infloss_scalar(**kwargs) -> InfLossRanker:
    return InfLossRanker(solver="scalar", **kwargs)


def make_ranker(method: str, **kwargs) -> Ranker:
    """Factory used by the driver: 'loss', 'infloss', 'twostep', 'holistic'
    (plus 'infloss-scalar', the per-record reference solver)."""
    registry = {
        "loss": LossRanker,
        "infloss": InfLossRanker,
        "infloss-scalar": _infloss_scalar,
        "twostep": TwoStepRanker,
        "holistic": HolisticRanker,
    }
    try:
        cls = registry[method]
    except KeyError:
        raise DebuggingError(
            f"unknown method {method!r}; choose from {sorted(registry)}"
        ) from None
    return cls(**kwargs)
