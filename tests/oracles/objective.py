"""The seed's per-complaint interpreted objective, kept as a test oracle.

:class:`InterpretedObjective` computes the same ``q`` and ``∂q/∂P`` as
:class:`~repro.relaxation.objective.RelaxedComplaintObjective`, one
:class:`~oracles.relax.Relaxer` reverse sweep over each complaint's
expression tree instead of one batched sweep over compiled node arrays.
It accepts compiled results (whose nodes it materializes as trees with
:func:`~oracles.provenance.to_expr`) and the tree results of
:class:`~oracles.executor.TreeExecutor`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
)
from repro.errors import RelaxationError
from repro.relaxation.objective import RelaxedComplaintObjective

from . import provenance as prov
from .relax import Relaxer


class InterpretedObjective(RelaxedComplaintObjective):
    """q(θ) by per-complaint tree relaxation (golden reference)."""

    def _build_program(self) -> None:
        self.relaxer = Relaxer.for_model(self.model)
        n_sites = len(self.runtime.sites)
        self._site_arr = np.arange(n_sites, dtype=np.int64)
        self._max_site = n_sites

    def q_value_and_pgrad(self, P_rows: np.ndarray) -> tuple[float, np.ndarray]:
        return self._q_interpreted(P_rows)

    def _expand(self, P_rows: np.ndarray) -> np.ndarray:
        """Map row-indexed P to site-indexed P for the relaxation."""
        P = np.zeros((self._max_site, P_rows.shape[1]))
        P[self._site_arr] = P_rows
        return P

    def _collapse(self, grad_sites: np.ndarray) -> np.ndarray:
        return grad_sites[self._site_arr]

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
            poly = prov.polynomial(complaint, self.result)
            if complaint.op in ("<=", ">=") and complaint.satisfied_by(
                poly.evaluate(self.result.assignment())
            ):
                return 0.0, np.zeros_like(P)
            relaxed, pgrad = self.relaxer.value_and_grad(poly, P)
            residual = relaxed - complaint.value
            return residual**2, 2.0 * residual * pgrad
        if isinstance(complaint, TupleComplaint):
            condition = prov.condition(complaint, self.result)
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


def batched_case_objectives(case_results: Sequence) -> list[InterpretedObjective]:
    """:func:`repro.relaxation.objective.batched_case_objectives` on the oracle."""
    return [
        InterpretedObjective(result, case.complaints) for case, result in case_results
    ]
