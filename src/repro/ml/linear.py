"""Linear classifiers with closed-form gradients and Hessian-vector products.

These are the workhorse models of the paper's experiments (Sections 6.2-6.6
all use logistic regression).  Binary logistic regression and multiclass
softmax regression both support:

- analytic per-sample gradients (vectorized, no loops),
- analytic HVPs — ``H v = (1/n) Xᵀ diag(σ'(Xθ)) X v`` for the binary case
  and the Fisher-form product for softmax — which make conjugate-gradient
  influence estimation fast and exact; ``hessian_operator`` computes the
  θ-only factor (σ' or the softmax probabilities) once per solve,
- analytic probability VJPs for TwoStep/Holistic ``q`` gradients;
  ``prob_vjp_operator`` computes σ or the softmax probabilities once per
  set of sites.

Both models optionally append an intercept feature in ``_inputs``
(``fit_intercept=True``); the intercept is regularized along with the rest
of θ, which keeps the training Hessian strictly positive definite (the
convexity condition influence functions rely on).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..errors import ModelError
from .base import ClassificationModel, HessianOperator, TrainingSet


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log σ(z), numerically stable."""
    return -np.logaddexp(0.0, -z)


class LogisticRegression(ClassificationModel):
    """Binary logistic regression: ``p(class_1 | x) = σ(xᵀθ)``."""

    def __init__(
        self,
        classes: Sequence,
        n_features: int,
        l2: float = 1e-3,
        fit_intercept: bool = True,
    ) -> None:
        super().__init__(classes, l2=l2)
        if self.n_classes != 2:
            raise ModelError(
                f"LogisticRegression is binary; got {self.n_classes} classes"
            )
        if n_features <= 0:
            raise ModelError(f"n_features must be positive, got {n_features}")
        self.n_features = int(n_features)
        self.fit_intercept = bool(fit_intercept)

    @property
    def n_params(self) -> int:
        return self.n_features + (1 if self.fit_intercept else 0)

    def _init_params(self, n_features_shape: tuple[int, ...]) -> np.ndarray:
        if n_features_shape != (self.n_features,):
            raise ModelError(
                f"expected features of shape ({self.n_features},), "
                f"got {n_features_shape}"
            )
        return np.zeros(self.n_params)

    def _inputs(self, X: np.ndarray) -> np.ndarray:
        """Float64 features, plus the intercept column if ``fit_intercept``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(
                f"X must have shape (n, {self.n_features}), got {X.shape}"
            )
        if not self.fit_intercept:
            return X
        return np.hstack([X, np.ones((X.shape[0], 1))])

    # -- losses / gradients ------------------------------------------------------

    def _data_loss_and_grad(self, params, Xa, y_idx):
        z = Xa @ params
        y = y_idx.astype(np.float64)  # 1 for classes[1]
        # ℓ = -y log σ(z) - (1-y) log(1-σ(z))
        losses = -(y * _log_sigmoid(z) + (1.0 - y) * _log_sigmoid(-z))
        p = _stable_sigmoid(z)
        grad = Xa.T @ (p - y) / Xa.shape[0]
        return float(losses.mean()), grad

    def _per_sample_losses(self, params, Xa, y_idx):
        z = Xa @ params
        y = y_idx.astype(np.float64)
        return -(y * _log_sigmoid(z) + (1.0 - y) * _log_sigmoid(-z))

    def _per_sample_grads(self, params, Xa, y_idx):
        p = _stable_sigmoid(Xa @ params)
        residual = p - y_idx.astype(np.float64)
        return Xa * residual[:, None]

    def hessian_operator(self, train: TrainingSet) -> HessianOperator:
        # H v = (1/n) Xᵀ diag(σ') X v + 2λv, with σ' = σ(1-σ) fixed by θ.
        Xa = train.inputs
        n = Xa.shape[0]
        p = _stable_sigmoid(Xa @ self.get_params())
        weights = p * (1.0 - p)
        l2 = self.l2
        return HessianOperator(
            lambda v: Xa.T @ (weights * (Xa @ v)) / n + 2.0 * l2 * v,
            lambda V: Xa.T @ (weights[:, None] * (Xa @ V)) / n + 2.0 * l2 * V,
        )

    def _proba(self, params, Xa):
        p1 = _stable_sigmoid(Xa @ params)
        return np.stack([1.0 - p1, p1], axis=1)

    def prob_vjp_operator(self, X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        # ∂p1/∂θ = p1(1-p1)x ; ∂p0/∂θ = -p1(1-p1)x, with p1 = σ(xᵀθ) fixed
        # by θ.
        Xa = self._inputs(X)
        p1 = _stable_sigmoid(Xa @ self.get_params())
        p0 = 1.0 - p1
        return lambda weights: Xa.T @ ((weights[:, 1] - weights[:, 0]) * p1 * p0)


class SoftmaxRegression(ClassificationModel):
    """Multinomial logistic regression over K classes.

    Parameters are a dense ``(n_features(+1), K)`` matrix stored flat.
    """

    def __init__(
        self,
        classes: Sequence,
        n_features: int,
        l2: float = 1e-3,
        fit_intercept: bool = True,
    ) -> None:
        super().__init__(classes, l2=l2)
        if n_features <= 0:
            raise ModelError(f"n_features must be positive, got {n_features}")
        self.n_features = int(n_features)
        self.fit_intercept = bool(fit_intercept)

    @property
    def _n_rows(self) -> int:
        return self.n_features + (1 if self.fit_intercept else 0)

    @property
    def n_params(self) -> int:
        return self._n_rows * self.n_classes

    def _init_params(self, n_features_shape: tuple[int, ...]) -> np.ndarray:
        if n_features_shape != (self.n_features,):
            raise ModelError(
                f"expected features of shape ({self.n_features},), "
                f"got {n_features_shape}"
            )
        return np.zeros(self.n_params)

    def _inputs(self, X: np.ndarray) -> np.ndarray:
        """Float64 features, plus the intercept column if ``fit_intercept``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(
                f"X must have shape (n, {self.n_features}), got {X.shape}"
            )
        if not self.fit_intercept:
            return X
        return np.hstack([X, np.ones((X.shape[0], 1))])

    def _weight_matrix(self, params: np.ndarray) -> np.ndarray:
        return params.reshape(self._n_rows, self.n_classes)

    def _log_proba(self, params: np.ndarray, Xa: np.ndarray) -> np.ndarray:
        logits = Xa @ self._weight_matrix(params)
        logits -= logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return logits - log_z

    def _data_loss_and_grad(self, params, Xa, y_idx):
        log_p = self._log_proba(params, Xa)
        n = Xa.shape[0]
        losses = -log_p[np.arange(n), y_idx]
        p = np.exp(log_p)
        delta = p.copy()
        delta[np.arange(n), y_idx] -= 1.0
        grad = (Xa.T @ delta) / n
        return float(losses.mean()), grad.ravel()

    def _per_sample_losses(self, params, Xa, y_idx):
        log_p = self._log_proba(params, Xa)
        return -log_p[np.arange(Xa.shape[0]), y_idx]

    def _per_sample_grads(self, params, Xa, y_idx):
        p = np.exp(self._log_proba(params, Xa))
        delta = p.copy()
        delta[np.arange(Xa.shape[0]), y_idx] -= 1.0
        # grad_i = x_i ⊗ delta_i, flattened to (n_rows * K)
        return np.einsum("nd,nk->ndk", Xa, delta).reshape(Xa.shape[0], -1)

    def hessian_operator(self, train: TrainingSet) -> HessianOperator:
        # Fisher-form product: row-wise (diag(p) - p pᵀ) applied to X V, with
        # the probabilities p fixed by θ.
        Xa = train.inputs
        n = Xa.shape[0]
        p = np.exp(self._log_proba(self.get_params(), Xa))
        n_rows, n_classes, l2 = self._n_rows, self.n_classes, self.l2

        def matvec(v: np.ndarray) -> np.ndarray:
            A = Xa @ v.reshape(n_rows, n_classes)  # (n, K)
            B = p * (A - (p * A).sum(axis=1, keepdims=True))
            return (Xa.T @ B / n).ravel() + 2.0 * l2 * v

        def matmat(V: np.ndarray) -> np.ndarray:
            # The same product batched over the b columns of V (each a
            # flattened (n_rows, K) direction).
            n_rhs = V.shape[1]
            W = V.T.reshape(n_rhs, n_rows, n_classes)
            A = np.einsum("nd,bdk->bnk", Xa, W)
            B = p[None, :, :] * (A - np.einsum("nk,bnk->bn", p, A)[:, :, None])
            out = np.einsum("nd,bnk->bdk", Xa, B) / n
            return out.reshape(n_rhs, -1).T + 2.0 * l2 * V

        return HessianOperator(matvec, matmat)

    def _proba(self, params, Xa):
        return np.exp(self._log_proba(params, Xa))

    def prob_vjp_operator(self, X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        Xa = self._inputs(X)
        p = np.exp(self._log_proba(self.get_params(), Xa))

        def apply(weights: np.ndarray) -> np.ndarray:
            # ∂/∂W Σ w_ic p_ic ; per-row inner Jacobian is diag(p) - p pᵀ.
            inner = p * (weights - (weights * p).sum(axis=1, keepdims=True))
            return (Xa.T @ inner).ravel()

        return apply
