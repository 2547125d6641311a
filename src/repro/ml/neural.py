"""Neural classifiers (MLP / CNN) on the autodiff substrate.

The appendix of the paper (Section D) debugs a 3-layer CNN — convolution,
max-pooling, dense+ReLU — on MNIST.  :func:`make_cnn` builds exactly that
architecture; :func:`make_mlp` builds small fully-connected nets.

Influence analysis on non-convex models follows [Koh & Liang 2017]: the
Hessian is damped (handled by the CG solver) and HVPs are computed by
central finite differences of the exact autodiff gradient, which avoids
implementing double-backward while keeping O(gradient) cost per product.
Per-sample directional derivatives ``∇ℓ_iᵀ v`` — the expensive inner loop
of Eq. (4) — are computed with *two* forward passes via the identity
``∇ℓ_iᵀ v = d/dα ℓ_i(θ + α v)``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..autodiff import nn
from ..autodiff import tensor as T
from ..errors import ModelError
from ..utils import as_rng
from .base import ClassificationModel


class NeuralClassifier(ClassificationModel):
    """Wraps an autodiff :class:`~repro.autodiff.nn.Module` producing logits."""

    def __init__(
        self,
        classes: Sequence,
        network: nn.Module,
        input_adapter: Callable[[np.ndarray], np.ndarray] | None = None,
        l2: float = 1e-3,
        fd_eps: float = 1e-5,
    ) -> None:
        super().__init__(classes, l2=l2)
        self.network = network
        self.input_adapter = input_adapter or (lambda X: X)
        self.fd_eps = float(fd_eps)
        self._initial_flat = network.get_flat()

    @property
    def n_params(self) -> int:
        return self.network.n_params()

    def _init_params(self, n_features_shape: tuple[int, ...]) -> np.ndarray:
        return self._initial_flat.copy()

    # -- forward helpers -----------------------------------------------------------

    def _logits(self, params: np.ndarray, X: np.ndarray) -> T.Tensor:
        self.network.set_flat(params)
        inputs = T.Tensor(self.input_adapter(np.asarray(X, dtype=np.float64)))
        logits = self.network(inputs)
        if logits.ndim != 2 or logits.shape[1] != self.n_classes:
            raise ModelError(
                f"network produced logits of shape {logits.shape}, expected "
                f"(n, {self.n_classes})"
            )
        return logits

    def _loss_tensor(
        self, params: np.ndarray, X: np.ndarray, y_idx: np.ndarray
    ) -> tuple[T.Tensor, T.Tensor]:
        logits = self._logits(params, X)
        log_p = T.log_softmax(logits)
        picked = T.pick(log_p, y_idx)
        mean_loss = T.mul(T.sum_(picked), T.Tensor(-1.0 / X.shape[0]))
        return mean_loss, picked

    # -- protocol implementation -----------------------------------------------------

    def _data_loss_and_grad(self, params, X, y_idx):
        self.network.zero_grad()
        mean_loss, _ = self._loss_tensor(params, X, y_idx)
        mean_loss.backward()
        return mean_loss.item(), self.network.grad_flat()

    def _per_sample_losses(self, params, X, y_idx):
        _, picked = self._loss_tensor(params, X, y_idx)
        return -picked.data

    def _per_sample_grads(self, params, X, y_idx):
        vectorized = self._per_sample_grads_vectorized(params, X, y_idx)
        if vectorized is not None:
            return vectorized
        return self._per_sample_grads_reference(params, X, y_idx)

    def _per_sample_grads_reference(self, params, X, y_idx):
        """One backward pass per record — the pre-vectorization golden path.

        Kept as the fallback for networks whose layers don't support
        per-sample capture, and as the reference the test suite checks the
        batched path against.
        """
        grads = np.zeros((X.shape[0], self.n_params))
        for index in range(X.shape[0]):
            self.network.zero_grad()
            mean_loss, _ = self._loss_tensor(
                params, X[index:index + 1], y_idx[index:index + 1]
            )
            mean_loss.backward()
            grads[index] = self.network.grad_flat()
        return grads

    def _per_sample_grads_vectorized(self, params, X, y_idx):
        """All per-sample gradients from ONE batched forward/backward pass.

        Every network op is batch-parallel, so backpropagating the stacked
        matrix of per-sample loss gradients w.r.t. the logits
        (``softmax - onehot``, one row per record) makes the gradient at each
        tapped layer output exactly the per-sample deltas; Dense/Conv2D then
        reconstruct per-sample parameter gradients by contracting deltas with
        their captured inputs.  Returns ``None`` when some parameterized
        layer doesn't support capture (caller falls back to the loop).
        """
        self.network.set_flat(params)
        inputs = T.Tensor(self.input_adapter(np.asarray(X, dtype=np.float64)))
        captures: list[nn.PerSampleCapture] = []
        logits = self.network.forward_captured(inputs, captures)
        if logits.ndim != 2 or logits.shape[1] != self.n_classes:
            raise ModelError(
                f"network produced logits of shape {logits.shape}, expected "
                f"(n, {self.n_classes})"
            )
        all_params = self.network.parameters()
        covered = {
            id(param)
            for capture in captures
            for param in capture.layer.parameters()
        }
        if covered != {id(param) for param in all_params}:
            return None

        n = X.shape[0]
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        upstream = probs
        upstream[np.arange(n), y_idx] -= 1.0  # ∂ℓ_i/∂logits_i

        self.network.zero_grad()
        logits.backward(upstream)

        per_param: dict[int, np.ndarray] = {}
        for capture in captures:
            grads = capture.layer.per_sample_param_grads(
                capture.x_data, capture.sink["grad"]
            )
            for param, grad in zip(capture.layer.parameters(), grads):
                flat = grad.reshape(n, -1)
                if id(param) in per_param:  # shared parameter: sum usages
                    per_param[id(param)] = per_param[id(param)] + flat
                else:
                    per_param[id(param)] = flat
        return np.concatenate(
            [per_param[id(param)] for param in all_params], axis=1
        )

    def grad_dot_on(self, train, v):
        """``∇ℓ_iᵀ v`` for every sample with two forward passes (central FD)."""
        params = self.get_params()
        v = np.asarray(v, dtype=np.float64)
        norm = np.linalg.norm(v)
        if norm == 0:
            return np.zeros(train.inputs.shape[0])
        eps = self.fd_eps / norm * max(1.0, np.linalg.norm(params))
        plus = self._per_sample_losses(params + eps * v, *train)
        minus = self._per_sample_losses(params - eps * v, *train)
        return (plus - minus) / (2.0 * eps)

    def _data_hvp(self, params, X, y_idx, v):
        """Central finite difference of the exact gradient: ``H v``."""
        norm = np.linalg.norm(v)
        if norm == 0:
            return np.zeros_like(v)
        eps = self.fd_eps / norm * max(1.0, np.linalg.norm(params))
        _, grad_plus = self._data_loss_and_grad(params + eps * v, X, y_idx)
        _, grad_minus = self._data_loss_and_grad(params - eps * v, X, y_idx)
        return (grad_plus - grad_minus) / (2.0 * eps)

    def _proba(self, params, X):
        logits = self._logits(params, X)
        return np.exp(T.log_softmax(logits).data)

    def _prob_vjp(self, params, X, weights):
        self.network.zero_grad()
        logits = self._logits(params, X)
        probs = T.softmax(logits)
        weighted = T.mul(probs, T.Tensor(weights))
        total = T.sum_(weighted)
        total.backward()
        return self.network.grad_flat()


def make_mlp(
    input_dim: int,
    hidden: Sequence[int],
    n_classes: int,
    rng=None,
) -> nn.Sequential:
    """A fully-connected ReLU network producing ``n_classes`` logits."""
    rng = as_rng(rng)
    layers: list[nn.Module] = []
    previous = input_dim
    for width in hidden:
        layers.append(nn.Dense(previous, width, rng=rng))
        layers.append(nn.ReLU())
        previous = width
    layers.append(nn.Dense(previous, n_classes, rng=rng))
    return nn.Sequential(layers)


def make_cnn(
    image_size: int,
    n_classes: int,
    channels: int = 4,
    kernel: int = 5,
    pool: int = 2,
    rng=None,
) -> nn.Sequential:
    """The appendix's 3-layer CNN: conv → maxpool → dense (ReLU inside).

    Input shape: ``(n, 1, image_size, image_size)``.
    """
    rng = as_rng(rng)
    conv_out = image_size - kernel + 1
    if conv_out % pool:
        raise ModelError(
            f"conv output {conv_out} is not divisible by pool size {pool}; "
            "adjust kernel/pool"
        )
    pooled = conv_out // pool
    flat = channels * pooled * pooled
    return nn.Sequential(
        [
            nn.Conv2D(1, channels, kernel, rng=rng),
            nn.ReLU(),
            nn.MaxPool2D(pool),
            nn.Flatten(),
            nn.Dense(flat, n_classes, rng=rng),
        ]
    )


def image_input_adapter(X: np.ndarray) -> np.ndarray:
    """(n, H, W) images → (n, 1, H, W) network input."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 3:
        return X[:, None, :, :]
    if X.ndim == 4:
        return X
    raise ModelError(f"expected image batch of ndim 3 or 4, got shape {X.shape}")


def flatten_input_adapter(X: np.ndarray) -> np.ndarray:
    """Arbitrary feature tensors → (n, d) matrix for MLPs."""
    X = np.asarray(X, dtype=np.float64)
    return X.reshape(X.shape[0], -1)
