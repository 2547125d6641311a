"""The classification-model protocol consumed by the query engine and Rain.

Rain needs more from a model than ``fit``/``predict``:

- per-sample training losses and gradients (the Loss/InfLoss baselines and
  the right-hand sides of Eq. 4),
- Hessian-vector products of the regularized training loss (the ``H θ*``
  of the influence function, solved by conjugate gradient),
- a *probability vector-Jacobian product* ``prob_vjp``: the gradient of
  ``Σ_i Σ_c w[i, c] · p_c(x_i; θ)`` with respect to θ.  Both TwoStep's
  ``q(θ) = -Σ p_{t_i}(x_i; θ)`` and Holistic's relaxed provenance gradients
  reduce to this single contraction.

Models are trained by L-BFGS on the L2-regularized mean loss
``L(θ) = (1/n) Σ ℓ(z_i, θ) + λ‖θ‖²``, matching Section 6.1.6 of the paper.

Inputs are converted once per public call, never per evaluation.  Each
public entry point turns raw ``(X, y)`` into a :class:`TrainingSet` — the
model's inputs (:meth:`ClassificationModel._inputs`: float64, plus the bias
column for the linear models) and the int64 class indices — and the
``_``-prefixed internals (``_data_loss_and_grad``, ``_per_sample_*``,
``_proba``, ``_prob_vjp``, ...) receive only converted inputs.  ``fit``
converts once per call, not once per L-BFGS evaluation; an influence
analyzer converts once at construction and passes its set to the ``*_on``
methods.  :meth:`ClassificationModel.hessian_operator` captures θ and every
quantity that depends only on θ (the logistic σ(1−σ) weights, the softmax
probabilities), so each product of a CG solve costs two matrix products;
:meth:`ClassificationModel.prob_vjp_operator` does the same for the
probability VJPs of many weightings over one set of inputs.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize

from ..errors import ModelError, NotFittedError


class TrainingSet(NamedTuple):
    """Labelled records converted for a model's internals.

    ``inputs`` is :meth:`ClassificationModel._inputs` of the features and
    ``y_idx`` the int64 class index of every label.
    """

    inputs: np.ndarray
    y_idx: np.ndarray


@dataclass(frozen=True)
class HessianOperator:
    """Products with the Hessian of the regularized mean loss at a fixed θ.

    ``matvec`` maps an ``(n_params,)`` vector ``v`` to ``(∇²L) v`` and
    ``matmat`` an ``(n_params, k)`` matrix ``V`` to ``(∇²L) V``.  The two sum
    in different orders, so neither is routed through the other.
    """

    matvec: Callable[[np.ndarray], np.ndarray]
    matmat: Callable[[np.ndarray], np.ndarray]


class ClassificationModel:
    """Abstract base class; see module docstring for the contract."""

    def __init__(self, classes: Sequence, l2: float = 1e-3) -> None:
        if len(classes) < 2:
            raise ModelError(f"need at least 2 classes, got {list(classes)}")
        if len(set(classes)) != len(classes):
            raise ModelError(f"duplicate class labels in {list(classes)}")
        if l2 < 0:
            raise ModelError(f"l2 must be non-negative, got {l2}")
        self.classes = list(classes)
        self.l2 = float(l2)
        self._class_index = {label: index for index, label in enumerate(self.classes)}
        # Replaced, never written in place (``fit``, ``set_params``): the
        # executor tells model states apart by the identity of this array.
        self._params: np.ndarray | None = None

    # -- parameters -------------------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_params(self) -> int:
        raise NotImplementedError

    def get_params(self) -> np.ndarray:
        if self._params is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self._params.copy()

    def set_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ModelError(
                f"params shape {params.shape} != ({self.n_params},)"
            )
        self._params = params.copy()

    @property
    def is_fitted(self) -> bool:
        return self._params is not None

    def labels_to_indices(self, y: np.ndarray) -> np.ndarray:
        """int64 class index of every label (one comparison per class)."""
        y = np.asarray(y)
        indices = np.full(y.shape, -1, dtype=np.int64)
        for index, label in enumerate(self.classes):
            indices[y == label] = index
        unknown = np.flatnonzero(indices < 0)
        if unknown.size:
            label = y[unknown[:1]].tolist()[0]
            raise ModelError(
                f"unknown class label {label!r}; classes: {self.classes}"
            )
        return indices

    def indices_to_labels(self, indices: np.ndarray) -> np.ndarray:
        return np.asarray(self.classes)[np.asarray(indices, dtype=np.int64)]

    def _inputs(self, X: np.ndarray) -> np.ndarray:
        """Raw features to the inputs the internals take."""
        return np.asarray(X, dtype=np.float64)

    def training_set(self, X: np.ndarray, y: np.ndarray) -> TrainingSet:
        """Convert raw features and labels once for the ``*_on`` methods."""
        y_idx = self.labels_to_indices(y)
        X = np.asarray(X)
        if X.shape[0] != y_idx.shape[0]:
            raise ModelError(
                f"X has {X.shape[0]} rows but y has {y_idx.shape[0]} labels"
            )
        return TrainingSet(self._inputs(X), y_idx)

    # -- core numerical interface (implemented by subclasses) --------------------
    #
    # ``X`` here is always converted: ``self._inputs(raw)``, never raw features.

    def _data_loss_and_grad(
        self, params: np.ndarray, X: np.ndarray, y_idx: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean data loss and its gradient (no regularization)."""
        raise NotImplementedError

    def _per_sample_losses(
        self, params: np.ndarray, X: np.ndarray, y_idx: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def _per_sample_grads(
        self, params: np.ndarray, X: np.ndarray, y_idx: np.ndarray
    ) -> np.ndarray:
        """(n, n_params) matrix of per-sample loss gradients."""
        raise NotImplementedError

    def _data_hvp(
        self, params: np.ndarray, X: np.ndarray, y_idx: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Hessian-vector product of the mean data loss (used by the default
        :meth:`hessian_operator`; the linear models override the operator)."""
        raise NotImplementedError

    def _proba(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        """(n, n_classes) class probabilities."""
        raise NotImplementedError

    def _prob_vjp(
        self, params: np.ndarray, X: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Gradient of ``Σ_i Σ_c weights[i,c] p_c(x_i; θ)`` w.r.t. θ (used by
        the default :meth:`prob_vjp_operator`; the linear models override
        the operator)."""
        raise NotImplementedError

    def _init_params(self, n_features_shape: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    # -- public API ---------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        warm_start: bool = True,
        max_iter: int = 300,
        tol: float = 1e-8,
    ) -> "ClassificationModel":
        """Minimize the regularized mean loss with L-BFGS.

        ``warm_start=True`` (the default, and what the train-rank-fix loop
        uses) starts from the current parameters when available.  ``(X, y)``
        is converted once per call, not once per evaluation.
        """
        X = np.asarray(X, dtype=np.float64)
        inputs, y_idx = self.training_set(X, y)
        if X.shape[0] == 0:
            raise ModelError("cannot fit on an empty training set")

        if warm_start and self._params is not None:
            theta0 = self._params
        else:
            theta0 = self._init_params(X.shape[1:])

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            loss, grad = self._data_loss_and_grad(theta, inputs, y_idx)
            loss += self.l2 * float(theta @ theta)
            grad = grad + 2.0 * self.l2 * theta
            return loss, grad

        result = optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-9},
        )
        self._params = np.array(result.x, dtype=np.float64)  # a new array
        self.last_fit_result_ = result
        return self

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Regularized mean loss at the current parameters."""
        params = self.get_params()
        value, _ = self._data_loss_and_grad(params, *self.training_set(X, y))
        return float(value + self.l2 * params @ params)

    def per_sample_losses(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.per_sample_losses_on(self.training_set(X, y))

    def per_sample_losses_on(self, train: TrainingSet) -> np.ndarray:
        return self._per_sample_losses(self.get_params(), *train)

    def per_sample_grads(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.per_sample_grads_on(self.training_set(X, y))

    def per_sample_grads_on(self, train: TrainingSet) -> np.ndarray:
        return self._per_sample_grads(self.get_params(), *train)

    def grad_dot(self, X: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-sample directional derivatives ``∇ℓ(z_i, θ)ᵀ v``."""
        return self.grad_dot_on(self.training_set(X, y), v)

    def grad_dot_on(self, train: TrainingSet, v: np.ndarray) -> np.ndarray:
        """:meth:`grad_dot` over a converted set.

        Default implementation materializes per-sample gradients; subclasses
        override with cheaper schemes (the neural model uses two forward
        passes of central finite differences).
        """
        return self.per_sample_grads_on(train) @ np.asarray(v, dtype=np.float64)

    def grad_dot_block(self, X: np.ndarray, y: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Per-sample directional derivatives against ``k`` directions."""
        return self.grad_dot_block_on(self.training_set(X, y), U)

    def grad_dot_block_on(self, train: TrainingSet, U: np.ndarray) -> np.ndarray:
        """:meth:`grad_dot_block` over a converted set.

        ``U`` is ``(n_params, k)``; returns the ``(n, k)`` matrix with entry
        ``[i, j] = ∇ℓ(z_i, θ)ᵀ U[:, j]``.  All models use this default: it
        materializes per-sample gradients once and contracts them against
        every direction in one GEMM.  Note the neural model's *scalar*
        :meth:`grad_dot_on` uses central finite differences instead, so for
        neural models the block and scalar paths agree only to FD error.
        """
        U = np.asarray(U, dtype=np.float64)
        if U.ndim != 2 or U.shape[0] != self.n_params:
            raise ModelError(
                f"U has shape {U.shape}, expected ({self.n_params}, k)"
            )
        return self.per_sample_grads_on(train) @ U

    def hessian_operator(self, train: TrainingSet) -> HessianOperator:
        """Products with ``∇²L`` at the current θ over ``train``.

        One operator serves one CG solve.  This default applies
        :meth:`_data_hvp` per vector (per column for ``matmat``); the linear
        models override it to capture their θ-only quantities once.
        """
        params = self.get_params()
        inputs, y_idx = train

        def matvec(v: np.ndarray) -> np.ndarray:
            return self._data_hvp(params, inputs, y_idx, v) + 2.0 * self.l2 * v

        def matmat(V: np.ndarray) -> np.ndarray:
            columns = [
                self._data_hvp(params, inputs, y_idx, column) for column in V.T
            ]
            data = np.column_stack(columns) if columns else np.zeros_like(V)
            return data + 2.0 * self.l2 * V

        return HessianOperator(matvec, matmat)

    def hvp(self, X: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """HVP of the *regularized* mean training loss: ``(∇²L)v``."""
        operator = self.hessian_operator(self.training_set(X, y))
        return operator.matvec(np.asarray(v, dtype=np.float64))

    def hvp_block(self, X: np.ndarray, y: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Batched HVPs of the regularized loss: ``(∇²L) V`` column by column.

        ``V`` is a ``(n_params, k)`` matrix of directions; the result has the
        same shape.
        """
        V = np.asarray(V, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] != self.n_params:
            raise ModelError(
                f"V has shape {V.shape}, expected ({self.n_params}, k)"
            )
        return self.hessian_operator(self.training_set(X, y)).matmat(V)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._proba(self.get_params(), self._inputs(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.indices_to_labels(np.argmax(proba, axis=1))

    def prob_vjp(self, X: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """∇_θ ``Σ_i Σ_c weights[i, c] · p_c(x_i; θ)``."""
        X = np.asarray(X, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (X.shape[0], self.n_classes):
            raise ModelError(
                f"weights shape {weights.shape} != ({X.shape[0]}, {self.n_classes})"
            )
        return self.prob_vjp_operator(X)(weights)

    def prob_vjp_operator(self, X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``weights -> prob_vjp(X, weights)`` at the current θ.

        One operator serves every weighting of one set of inputs, such as
        the complaint cases over one query's inference sites.  It converts
        ``X`` once; the linear models also capture their θ-only factor
        (the sigmoid or the softmax probabilities), so each product costs
        one elementwise step and one matrix product.  Weights are not
        shape-checked here.
        """
        params = self.get_params()
        inputs = self._inputs(np.asarray(X, dtype=np.float64))
        return lambda weights: self._prob_vjp(params, inputs, weights)

    # -- evaluation helpers ---------------------------------------------------------

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        predictions = self.predict(X)
        return float(np.mean(np.asarray(predictions) == np.asarray(y)))

    def f1_binary(self, X: np.ndarray, y: np.ndarray, positive) -> float:
        """F1 of the ``positive`` class (used for the paper's Figure 4)."""
        predictions = np.asarray(self.predict(X))
        y = np.asarray(y)
        true_pos = float(np.sum((predictions == positive) & (y == positive)))
        pred_pos = float(np.sum(predictions == positive))
        actual_pos = float(np.sum(y == positive))
        if pred_pos == 0 or actual_pos == 0 or true_pos == 0:
            return 0.0
        precision = true_pos / pred_pos
        recall = true_pos / actual_pos
        return 2 * precision * recall / (precision + recall)
