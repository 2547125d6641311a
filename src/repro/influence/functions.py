"""Influence-function scoring (Eq. 4 of the paper).

Given a trained model with parameters θ*, a differentiable complaint
encoding ``q(θ)``, and the training set, the influence of upweighting a
training record ``z`` on ``q`` is::

    dq(θ_ε)/dε |_{ε=0}  =  -∇q(θ*)ᵀ H⁻¹_{θ*} ∇ℓ(z, θ*)        (Eq. 4)

Records with large **positive** scores are the ones whose *removal*
decreases ``q`` the most — i.e. best addresses the complaint — so Rain
ranks descending by this score.

The expensive part is the inverse-Hessian factor.  Single objectives
(``u = H⁻¹ ∇q``) go through one scalar CG solve; multi-right-hand-side
workloads — the InfLoss statistic (one RHS per training record) and
multi-query rankings (one RHS per complaint case) — go through ONE
:func:`~repro.influence.cg.block_conjugate_gradient` call, which batches
every Hessian product across all right-hand sides.  The analyzer counts its
solves (``solve_counts``) and keeps per-column CG diagnostics
(``last_cg_results``) so callers can verify exactly how much work a ranking
issued.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..ml.base import ClassificationModel
from .cg import BlockCGResult, CGResult, block_conjugate_gradient, conjugate_gradient


class PerSampleGradCache:
    """Caches the ``(n, n_params)`` per-sample gradient matrix across Rain
    iterations.

    The cache is keyed on the exact parameter vector: any refit that moves
    θ invalidates it wholesale (gradients are functions of θ).  When θ is
    unchanged and only *rows* changed — the train-rank-fix loop deleting the
    top-k records — the surviving rows are sliced out of the cached matrix
    instead of being recomputed, which is the "invalidate only the rows
    touched by deletions" contract.
    """

    def __init__(self) -> None:
        self._params_key: bytes | None = None
        self._positions: dict[int, int] | None = None
        self._grads: np.ndarray | None = None
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        self._params_key = None
        self._positions = None
        self._grads = None

    def get(
        self,
        model: ClassificationModel,
        X: np.ndarray,
        y: np.ndarray,
        row_ids: np.ndarray,
    ) -> np.ndarray:
        """Per-sample gradients for the records ``row_ids`` (global ids
        aligned with the rows of ``X``/``y``)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        key = model.get_params().tobytes()
        if (
            key == self._params_key
            and self._positions is not None
            and self._grads is not None
        ):
            positions = [self._positions.get(int(rid), -1) for rid in row_ids]
            if -1 not in positions:
                self.hits += 1
                return self._grads[np.asarray(positions, dtype=np.int64)]
        self.misses += 1
        grads = model.per_sample_grads(X, y)
        self._params_key = key
        self._positions = {int(rid): pos for pos, rid in enumerate(row_ids)}
        self._grads = grads
        return grads


class InfluenceAnalyzer:
    """Computes influence scores of training records on scalar objectives."""

    def __init__(
        self,
        model: ClassificationModel,
        X_train: np.ndarray,
        y_train: np.ndarray,
        damping: float = 0.0,
        cg_tol: float = 1e-8,
        cg_max_iter: int | None = None,
        grad_cache: PerSampleGradCache | None = None,
        row_ids: np.ndarray | None = None,
    ) -> None:
        if not model.is_fitted:
            raise ModelError("InfluenceAnalyzer requires a fitted model")
        self.model = model
        self.X_train = np.asarray(X_train, dtype=np.float64)
        self.y_train = np.asarray(y_train)
        self.damping = float(damping)
        self.cg_tol = float(cg_tol)
        self.cg_max_iter = cg_max_iter
        self.grad_cache = grad_cache
        self.row_ids = None if row_ids is None else np.asarray(row_ids, dtype=np.int64)
        # Solve diagnostics: how many CG solves this analyzer issued, the
        # most recent scalar result, and — for block solves — the per-column
        # results of the most recent block (satellite of the batched engine:
        # the old per-record loop clobbered `last_cg_result` n times).
        self.solve_counts: dict[str, int] = {"scalar": 0, "block": 0}
        self.last_cg_result: CGResult | None = None
        self.last_cg_results: list[CGResult] = []
        self.last_block_cg_result: BlockCGResult | None = None

    # -- core ------------------------------------------------------------------

    def inverse_hvp(self, v: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """``(H + damping·I)⁻¹ v`` for the regularized training Hessian.

        ``x0`` optionally warm-starts CG (Rain passes the previous
        iteration's solution; θ* barely moves after a top-k deletion, so the
        solve typically finishes in a fraction of the cold iterations).
        """
        result = conjugate_gradient(
            lambda w: self.model.hvp(self.X_train, self.y_train, w),
            np.asarray(v, dtype=np.float64),
            damping=self.damping,
            tol=self.cg_tol,
            max_iter=self.cg_max_iter,
            x0=x0,
        )
        self.solve_counts["scalar"] += 1
        self.last_cg_result = result
        return result.x

    def inverse_hvp_block(
        self, V: np.ndarray, X0: np.ndarray | None = None
    ) -> np.ndarray:
        """``(H + damping·I)⁻¹ V`` for a whole matrix of right-hand sides.

        One :func:`block_conjugate_gradient` call no matter how many columns
        ``V`` has; per-column diagnostics land in ``last_cg_results`` /
        ``last_block_cg_result``.
        """
        result = block_conjugate_gradient(
            lambda W: self.model.hvp_block(self.X_train, self.y_train, W),
            np.asarray(V, dtype=np.float64),
            damping=self.damping,
            tol=self.cg_tol,
            max_iter=self.cg_max_iter,
            X0=X0,
        )
        self.solve_counts["block"] += 1
        self.last_block_cg_result = result
        self.last_cg_results = result.columns()
        return result.X

    def per_sample_grads(self) -> np.ndarray:
        """Per-sample training-loss gradients, via the shared cache if one
        was provided (Rain threads a cache through its iterations)."""
        if self.grad_cache is not None and self.row_ids is not None:
            return self.grad_cache.get(
                self.model, self.X_train, self.y_train, self.row_ids
            )
        return self.model.per_sample_grads(self.X_train, self.y_train)

    def scores_from_q_grad(
        self, q_grad: np.ndarray, x0: np.ndarray | None = None
    ) -> np.ndarray:
        """Eq. (4) for every training record given ``∇q(θ*)``.

        Returns the vector ``s`` with ``s_i = -∇q(θ*)ᵀ H⁻¹ ∇ℓ(z_i, θ*)``;
        rank descending to get Rain's top-k deletions.
        """
        q_grad = np.asarray(q_grad, dtype=np.float64)
        if q_grad.shape != (self.model.n_params,):
            raise ModelError(
                f"q_grad has shape {q_grad.shape}, expected ({self.model.n_params},)"
            )
        u = self.inverse_hvp(q_grad, x0=x0)
        return -self.model.grad_dot(self.X_train, self.y_train, u)

    def scores_from_q_grads(
        self, q_grads: np.ndarray, X0: np.ndarray | None = None
    ) -> np.ndarray:
        """Eq. (4) for several objectives at once — ONE block solve.

        ``q_grads`` stacks ``m`` objective gradients as rows ``(m, n_params)``;
        the result is the ``(m, n)`` score matrix whose row ``j`` equals
        ``scores_from_q_grad(q_grads[j])`` (exactly for linear models; for
        neural models the scalar path contracts with finite-difference
        ``grad_dot`` while this one uses exact per-sample gradients, so the
        two agree only to FD error).  This is how multi-query rankings
        amortize the inverse-Hessian factor across complaint cases.
        """
        Q = np.asarray(q_grads, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.model.n_params:
            raise ModelError(
                f"q_grads has shape {Q.shape}, expected (m, {self.model.n_params})"
            )
        U = self.inverse_hvp_block(Q.T, X0=None if X0 is None else np.asarray(X0).T)
        return -self.model.grad_dot_block(self.X_train, self.y_train, U).T

    def removal_effect_on_q(self, q_grad: np.ndarray, indices: np.ndarray) -> float:
        """First-order estimate of Δq when deleting the records ``indices``.

        Deleting record ``i`` corresponds to ε = -1/n in Eq. (3), so
        Δq ≈ -(1/n) Σ_{i∈S} score_i.
        """
        scores = self.scores_from_q_grad(q_grad)
        n = self.X_train.shape[0]
        return float(-np.sum(scores[np.asarray(indices, dtype=np.int64)]) / n)

    # -- loss-based baselines -----------------------------------------------------

    def self_influence(
        self, max_records: int | None = None, X0: np.ndarray | None = None
    ) -> np.ndarray:
        """The InfLoss statistic: ``-∇ℓ(z,θ*)ᵀ H⁻¹ ∇ℓ(z,θ*)`` per record.

        Scores are ≤ 0 for convex models; *large negative* values mean the
        record's own loss grows fastest when it is removed (the memorized
        records InfLoss ranks at the top).  The paper reports InfLoss as "by
        far the slowest" because it needs one inverse-HVP per training
        record; here all records share ONE block CG solve (every Hessian
        product batched across the still-active columns), with
        ``max_records`` truncating the block and ``X0`` optionally
        warm-starting it column-by-column.
        """
        grads = self.per_sample_grads()
        n = grads.shape[0] if max_records is None else min(max_records, grads.shape[0])
        scores = np.zeros(grads.shape[0])
        if n == 0:
            self.last_block_cg_result = None
            self.last_cg_results = []
            return scores
        if X0 is not None and X0.shape != (self.model.n_params, n):
            X0 = None
        U = self.inverse_hvp_block(grads[:n].T, X0=X0)
        scores[:n] = -np.einsum("ij,ji->i", grads[:n], U)
        return scores

    def self_influence_scalar(self, max_records: int | None = None) -> np.ndarray:
        """Per-record scalar-CG reference for :meth:`self_influence`.

        The paper-faithful (and paper-slow) loop: one full CG solve per
        training record.  Kept as the golden implementation the block solve
        is tested against, and for the fig5 runtime table's before/after
        comparison.  Each solve's :class:`CGResult` is appended to
        ``last_cg_results`` so the diagnostics reflect the whole sweep rather
        than the last record only.
        """
        grads = self.per_sample_grads()
        n = grads.shape[0] if max_records is None else min(max_records, grads.shape[0])
        scores = np.zeros(grads.shape[0])
        self.last_cg_results = []
        for index in range(n):
            u = self.inverse_hvp(grads[index])
            self.last_cg_results.append(self.last_cg_result)
            scores[index] = -float(grads[index] @ u)
        return scores

    def training_losses(self) -> np.ndarray:
        """Per-record training losses (the Loss baseline statistic)."""
        return self.model.per_sample_losses(self.X_train, self.y_train)


def q_grad_for_target_predictions(
    model: ClassificationModel,
    X: np.ndarray,
    target_labels: np.ndarray,
) -> np.ndarray:
    """∇q for TwoStep's ``q(θ) = -Σ_i p_{t_i}(x_i; θ)`` (Section 5.2).

    ``target_labels`` are the ILP-corrected labels t_i; minimizing ``q``
    pushes the model toward predicting them.
    """
    X = np.asarray(X, dtype=np.float64)
    target_idx = model.labels_to_indices(target_labels)
    weights = np.zeros((X.shape[0], model.n_classes))
    weights[np.arange(X.shape[0]), target_idx] = -1.0
    return model.prob_vjp(X, weights)
