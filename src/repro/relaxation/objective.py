"""Complaint → differentiable objective ``q(θ)`` (Section 5.3.2).

Given a debug-mode :class:`~repro.relational.executor.QueryResult` and the
complaints raised against it, this module constructs::

    q(θ) = Σ_complaints (rq(θ) - X)²        for value complaints
         + Σ_complaints (rq_t(θ) - 0)²      for tuple complaints
         + Σ_complaints (p_label(θ) - 1)²   for prediction complaints

where every ``rq`` is the relaxed provenance polynomial evaluated on the
model's class probabilities at the query's inference sites.  Inequality
value complaints are treated as equalities only while violated, matching
the paper's train-rank-fix handling.

Two engines compute ``q`` and ``∂q/∂P``:

- ``"compiled"`` (default): every complaint's polynomial is a root of one
  :class:`~repro.relational.compile.CompiledProvenance` program — on a
  compiled query result the executor's node ids are used directly, on a
  tree result the polynomials are lowered first.  One vectorized forward
  pass produces all relaxed values; the residual-weighted seed is pushed
  through one reverse sweep, so the whole complaint set costs two batched
  array passes regardless of how many complaints there are.
- ``"interpreted"``: the original per-complaint
  :class:`~repro.relaxation.relax.Relaxer` reverse sweeps over expression
  trees — the golden reference the compiled engine is tested against.

``∇_θ q`` is then ``prob_vjp(X_sites, ∂q/∂P)`` — one weighted backward
pass in the model, shared by both engines.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
)
from ..errors import ComplaintError, RelaxationError
from ..relational.compile import FALSE_NODE, CompiledProvenance, NodePool
from ..relational.executor import QueryResult
from .relax import Relaxer


class RelaxedComplaintObjective:
    """The differentiable q(θ) for one query's complaint set."""

    def __init__(
        self, result: QueryResult, complaints: Sequence, engine: str = "auto"
    ) -> None:
        if not result.debug:
            raise RelaxationError("Holistic needs a debug-mode query result")
        if engine not in ("auto", "compiled", "interpreted"):
            raise RelaxationError(
                f"engine must be 'auto', 'compiled', or 'interpreted', got {engine!r}"
            )
        self.result = result
        self.complaints = list(complaints)
        self.runtime = result.runtime
        if engine == "auto":
            # Compiled results use the batched engine; tree results stay on
            # the interpreted reference so provenance="tree" is end-to-end
            # golden.
            engine = "compiled" if result.compiled else "interpreted"
        self.engine = engine

        n_sites = len(self.runtime.sites)
        if not n_sites:
            raise RelaxationError(
                "the query contains no model inference; nothing to debug"
            )
        model_names = self.runtime.sites.model_names()
        if len(model_names) != 1:
            raise RelaxationError(
                f"queries embedding multiple models are unsupported: {model_names}"
            )
        self.model_name = model_names.pop()
        self.model = self.runtime.model(self.model_name)
        self.X_sites = self.runtime.site_features()
        self.relaxer = Relaxer.for_model(self.model)
        self._site_arr = np.arange(n_sites, dtype=np.int64)
        self._max_site = n_sites

        if self.engine == "compiled":
            self._build_compiled_program()

    # -- compiled program over all complaint polynomials ---------------------------

    def _build_compiled_program(self) -> None:
        """One compiled root per relaxable complaint term.

        Per root we record ``(kind, target)``: for value complaints the
        residual is ``value - target`` (gated off while an inequality is
        satisfied); for tuple complaints the residual is the value itself.
        Prediction complaints touch a single probability entry and bypass
        the program.
        """
        result = self.result
        roots: list[int] = []
        self._root_targets: list[float] = []
        self._pred_terms: list[tuple[int, int]] = []  # (site_id, column)
        pool = result.pool
        if pool is None:
            pool = NodePool()
        for complaint in self.complaints:
            if isinstance(complaint, PredictionComplaint):
                site_id = complaint.site_id(result)
                try:
                    column = self.relaxer.class_columns[complaint.label]
                except KeyError:
                    raise RelaxationError(
                        f"atom class {complaint.label!r} is not a model class"
                    ) from None
                self._pred_terms.append((site_id, column))
                continue
            if isinstance(complaint, ValueComplaint):
                if complaint.op in ("<=", ">=") and complaint.is_satisfied(result):
                    # Satisfied inequalities contribute nothing; keep their
                    # polynomials out of the program entirely so they are
                    # never relaxed (the interpreted path short-circuits
                    # before relaxing too — e.g. an AVG over a group whose
                    # relaxed count is zero must not raise here).
                    continue
                node = _value_complaint_node(result, complaint, pool)
                roots.append(node)
                self._root_targets.append(float(complaint.value))
                continue
            if isinstance(complaint, TupleComplaint):
                node = _tuple_complaint_node(result, complaint, pool)
                roots.append(node)
                self._root_targets.append(0.0)
                continue
            raise RelaxationError(
                f"unknown complaint type {type(complaint).__name__}"
            )
        self._pool = pool
        roots = np.asarray(roots, dtype=np.int64)
        if not roots.size:
            self._program = None
        elif result.compiled:
            # Cases over one plan look their roots up in one frozen pool:
            # the result shares one program per root array among them.
            self._program = result.program(roots)
        else:
            self._program = CompiledProvenance(pool, roots)

    # -- probability matrix ------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Current class probabilities at each inference site."""
        return np.asarray(self.model.predict_proba(self.X_sites), dtype=np.float64)

    def _expand(self, P_rows: np.ndarray) -> np.ndarray:
        """Map row-indexed P to site-indexed P for the relaxation."""
        P = np.zeros((self._max_site, P_rows.shape[1]))
        P[self._site_arr] = P_rows
        return P

    def _collapse(self, grad_sites: np.ndarray) -> np.ndarray:
        return grad_sites[self._site_arr]

    # -- q and its gradients --------------------------------------------------------

    def q_value_and_pgrad(self, P_rows: np.ndarray) -> tuple[float, np.ndarray]:
        """``q`` and ``∂q/∂P`` (both in row-indexed site order)."""
        if self.engine == "compiled":
            return self._q_compiled(P_rows)
        return self._q_interpreted(P_rows)

    def _q_compiled(self, P_rows: np.ndarray) -> tuple[float, np.ndarray]:
        P = self._expand(P_rows)
        total = 0.0
        grad = np.zeros_like(P)
        if self._program is not None:
            values, cache = self._program.relaxed_forward(
                P, self.relaxer.class_columns
            )
            residuals = values - np.asarray(self._root_targets)
            total += float(np.sum(residuals**2))
            grad += self._program.relaxed_backward(cache, 2.0 * residuals)
        for site_id, column in self._pred_terms:
            residual = float(P[site_id, column]) - 1.0
            total += residual**2
            grad[site_id, column] += 2.0 * residual
        return total, self._collapse(grad)

    def _q_interpreted(self, P_rows: np.ndarray) -> tuple[float, np.ndarray]:
        P = self._expand(P_rows)
        total = 0.0
        grad = np.zeros_like(P)
        for complaint in self.complaints:
            value, cgrad = self._complaint_term(complaint, P)
            total += value
            grad += cgrad
        return total, self._collapse(grad)

    def _complaint_term(self, complaint, P: np.ndarray) -> tuple[float, np.ndarray]:
        if isinstance(complaint, ValueComplaint):
            poly = complaint.polynomial(self.result)
            if complaint.op in ("<=", ">=") and complaint.is_satisfied(self.result):
                return 0.0, np.zeros_like(P)
            relaxed, pgrad = self.relaxer.value_and_grad(poly, P)
            residual = relaxed - complaint.value
            return residual**2, 2.0 * residual * pgrad
        if isinstance(complaint, TupleComplaint):
            condition = complaint.condition(self.result)
            relaxed, pgrad = self.relaxer.value_and_grad(condition, P)
            return relaxed**2, 2.0 * relaxed * pgrad
        if isinstance(complaint, PredictionComplaint):
            site_id = complaint.site_id(self.result)
            column = self.relaxer.class_columns[complaint.label]
            residual = float(P[site_id, column]) - 1.0
            pgrad = np.zeros_like(P)
            pgrad[site_id, column] = 2.0 * residual
            return residual**2, pgrad
        raise RelaxationError(f"unknown complaint type {type(complaint).__name__}")

    def q_value(self) -> float:
        q, _ = self.q_value_and_pgrad(self.probabilities())
        return q

    def q_grad_theta(self) -> np.ndarray:
        """``∇_θ q(θ)`` at the current model parameters."""
        return self.q_and_grad_theta()[1]

    def q_and_grad_theta(
        self,
        P_rows: np.ndarray | None = None,
        vjp: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> tuple[float, np.ndarray]:
        """``(q(θ), ∇_θ q(θ))`` in one relaxation sweep.

        ``P_rows`` optionally supplies precomputed site probabilities and
        ``vjp`` the model's :meth:`prob_vjp_operator` over the sites.
        Cases over one plan see identical sites, so
        :func:`batched_q_and_grads` builds both once per plan and passes
        them to every case — the values are exactly what
        :meth:`probabilities` and ``prob_vjp`` would return, so this is a
        pure dedup.
        """
        if P_rows is None:
            P_rows = self.probabilities()
        q, pgrad_rows = self.q_value_and_pgrad(P_rows)
        if vjp is None:
            return q, self.model.prob_vjp(self.X_sites, pgrad_rows)
        return q, vjp(pgrad_rows)


def batched_case_objectives(case_results: Sequence) -> list[RelaxedComplaintObjective]:
    """One :class:`RelaxedComplaintObjective` per ``(case, result)`` pair.

    On compiled results the complaint roots are *looked up* in the pool,
    never appended, so cases over one plan build their programs over one
    node-array snapshot.
    """
    return [
        RelaxedComplaintObjective(result, case.complaints)
        for case, result in case_results
    ]


def batched_q_and_grads(
    objectives: Sequence[RelaxedComplaintObjective],
) -> tuple[list[float], list[np.ndarray]]:
    """``(q, ∇_θ q)`` for every objective, in objective order.

    Results of one plan share its memoized lineage and so its inference
    sites and their features: the probability matrix and the model's
    θ-only backward factors are computed once per site registry and
    handed to each case's relaxation sweep.
    """
    shared: dict[int, tuple[np.ndarray, Callable]] = {}
    q_values: list[float] = []
    q_grads: list[np.ndarray] = []
    for objective in objectives:
        key = id(objective.runtime.sites)
        if key not in shared:
            shared[key] = (
                objective.probabilities(),
                objective.model.prob_vjp_operator(objective.X_sites),
            )
        P_rows, vjp = shared[key]
        q, grad = objective.q_and_grad_theta(P_rows=P_rows, vjp=vjp)
        q_values.append(float(q))
        q_grads.append(grad)
    return q_values, q_grads


def _value_complaint_node(
    result: QueryResult, complaint: ValueComplaint, pool: NodePool
) -> int:
    """Compiled node of a value complaint's cell polynomial."""
    if result.compiled:
        if complaint.group_key is not None:
            group = result.group_by_key(complaint.group_key)
            try:
                return group.cell_nodes[complaint.column]
            except KeyError:
                raise RelaxationError(
                    f"column {complaint.column!r} is not an aggregate output"
                ) from None
        return result.cell_node(complaint.row_index, complaint.column)
    return pool.add_expr(complaint.polynomial(result))


def _tuple_complaint_node(
    result: QueryResult, complaint: TupleComplaint, pool: NodePool
) -> int:
    """Compiled node of a tuple complaint's existence condition."""
    if not result.compiled:
        return pool.add_expr(complaint.condition(result))
    if complaint.group_key is not None:
        node = result.group_by_key(complaint.group_key).condition_node
        if node is None:
            raise RelaxationError("group condition nodes need compiled mode")
        return node
    if complaint.lineage is not None:
        batch = result.candidate_batch
        if batch is None:
            raise ComplaintError("lineage complaints need a debug-mode result")
        wanted = dict(complaint.lineage)
        unknown = set(wanted) - set(batch.alias_row_ids)
        if unknown:
            raise ComplaintError(
                f"lineage aliases {sorted(unknown)} not in the query "
                f"(available: {sorted(batch.alias_row_ids)})"
            )
        mask = np.ones(len(batch), dtype=bool)
        for alias, row_id in wanted.items():
            mask &= batch.alias_row_ids[alias] == int(row_id)
        matches = np.flatnonzero(mask)
        if matches.size == 0:
            # Not even a candidate: deterministically filtered, so the
            # complaint is vacuously satisfied.
            return FALSE_NODE
        return int(batch.cond_nodes[matches[0]])
    return result.tuple_condition_node(complaint.row_index)
