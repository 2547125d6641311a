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

Every complaint's polynomial is a root of one
:class:`~repro.relational.compile.CompiledProvenance` program over the
executor's node ids.  One vectorized forward pass produces all relaxed
values; the residual-weighted seed is pushed through one reverse sweep, so
the whole complaint set costs two batched array passes regardless of how
many complaints there are.  ``∇_θ q`` is then
``prob_vjp(X_sites, ∂q/∂P)`` — one weighted backward pass in the model.

The seed's per-complaint tree interpreter survives as the test oracle
``tests/oracles/objective.py``; equivalence tests pin this sweep to it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
)
from ..errors import RelaxationError
from ..relational.executor import QueryResult


class RelaxedComplaintObjective:
    """The differentiable q(θ) for one query's complaint set."""

    def __init__(self, result: QueryResult, complaints: Sequence) -> None:
        if not result.debug:
            raise RelaxationError("Holistic needs a debug-mode query result")
        self.result = result
        self.complaints = list(complaints)
        self.runtime = result.runtime

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
        self.class_columns = {
            label: index for index, label in enumerate(self.model.classes)
        }
        self._build_program()

    # -- compiled program over all complaint polynomials ---------------------------

    def _build_program(self) -> None:
        """One compiled root per relaxable complaint term.

        Per root we record ``(kind, target)``: for value complaints the
        residual is ``value - target`` (gated off while an inequality is
        satisfied); for tuple complaints the residual is the value itself.
        Prediction complaints touch a single probability entry and bypass
        the program.
        """
        result = self.result
        if not result.compiled:
            raise RelaxationError(
                "Holistic needs compiled lineage: Executor.execute(plan, debug=True)"
            )
        roots: list[int] = []
        self._root_targets: list[float] = []
        self._pred_terms: list[tuple[int, int]] = []  # (site_id, column)
        for complaint in self.complaints:
            if isinstance(complaint, PredictionComplaint):
                site_id = complaint.site_id(result)
                try:
                    column = self.class_columns[complaint.label]
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
                    # never relaxed (e.g. an AVG over a group whose relaxed
                    # count is zero must not raise here).
                    continue
                node = _value_complaint_node(result, complaint)
                roots.append(node)
                self._root_targets.append(float(complaint.value))
                continue
            if isinstance(complaint, TupleComplaint):
                node = complaint.condition_node(result)
                roots.append(node)
                self._root_targets.append(0.0)
                continue
            raise RelaxationError(
                f"unknown complaint type {type(complaint).__name__}"
            )
        roots = np.asarray(roots, dtype=np.int64)
        # Cases over one plan look their roots up in one frozen pool: the
        # result shares one program per root array among them.
        self._program = result.program(roots) if roots.size else None

    # -- probability matrix ------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Current class probabilities at each inference site."""
        return np.asarray(self.model.predict_proba(self.X_sites), dtype=np.float64)

    # -- q and its gradients --------------------------------------------------------

    def q_value_and_pgrad(self, P_rows: np.ndarray) -> tuple[float, np.ndarray]:
        """``q`` and ``∂q/∂P``, both indexed by site id."""
        P = np.asarray(P_rows, dtype=np.float64)
        total = 0.0
        grad = np.zeros_like(P)
        if self._program is not None:
            values, cache = self._program.relaxed_forward(P, self.class_columns)
            residuals = values - np.asarray(self._root_targets)
            total += float(np.sum(residuals**2))
            grad += self._program.relaxed_backward(cache, 2.0 * residuals)
        for site_id, column in self._pred_terms:
            residual = float(P[site_id, column]) - 1.0
            total += residual**2
            grad[site_id, column] += 2.0 * residual
        return total, grad

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


def _value_complaint_node(result: QueryResult, complaint: ValueComplaint) -> int:
    """Compiled node of a value complaint's cell polynomial."""
    if complaint.group_key is not None:
        group = result.group_by_key(complaint.group_key)
        try:
            return group.cell_nodes[complaint.column]
        except KeyError:
            raise RelaxationError(
                f"column {complaint.column!r} is not an aggregate output"
            ) from None
    return result.cell_node(complaint.row_index, complaint.column)
