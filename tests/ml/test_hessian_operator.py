"""The Hessian and VJP operators and once-per-call conversion are bit-identical.

The oracles below are the pre-operator model code, copied verbatim: every
Hessian-vector product and probability VJP re-stacked the intercept
column and recomputed the θ-only quantities (σ(1-σ), σ, softmax
probabilities), and every L-BFGS evaluation in ``fit`` re-augmented X.
CG carries any low-order difference into Rain's scores, so these compare
with ``np.array_equal``, never with a tolerance.
"""

import numpy as np
import pytest
from scipy import optimize

from repro.errors import ModelError
from repro.ml import (
    LogisticRegression,
    NeuralClassifier,
    SoftmaxRegression,
    TrainingSet,
    make_mlp,
)
from repro.ml.linear import _stable_sigmoid


# -- oracles: the per-product code the operator replaced ------------------------


def _augment(model, X):
    if not model.fit_intercept:
        return X
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _log_proba(model, params, X):
    logits = _augment(model, X) @ model._weight_matrix(params)
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits - log_z


def _logistic_data_hvp(model, params, X, y_idx, v):
    Xa = _augment(model, X)
    p = _stable_sigmoid(Xa @ params)
    weights = p * (1.0 - p)
    return Xa.T @ (weights * (Xa @ v)) / X.shape[0]


def _logistic_data_hvp_block(model, params, X, y_idx, V):
    Xa = _augment(model, X)
    p = _stable_sigmoid(Xa @ params)
    weights = (p * (1.0 - p))[:, None]
    return Xa.T @ (weights * (Xa @ V)) / X.shape[0]


def _softmax_data_hvp(model, params, X, y_idx, v):
    Xa = _augment(model, X)
    p = np.exp(_log_proba(model, params, X))
    V = v.reshape(model._n_rows, model.n_classes)
    A = Xa @ V  # (n, K)
    B = p * (A - (p * A).sum(axis=1, keepdims=True))
    return (Xa.T @ B / X.shape[0]).ravel()


def _softmax_data_hvp_block(model, params, X, y_idx, V):
    Xa = _augment(model, X)
    p = np.exp(_log_proba(model, params, X))
    n_rhs = V.shape[1]
    W = V.T.reshape(n_rhs, model._n_rows, model.n_classes)
    A = np.einsum("nd,bdk->bnk", Xa, W)
    B = p[None, :, :] * (A - np.einsum("nk,bnk->bn", p, A)[:, :, None])
    out = np.einsum("nd,bnk->bdk", Xa, B) / X.shape[0]
    return out.reshape(n_rhs, -1).T


def _prob_vjp(model, params, X, weights):
    Xa = _augment(model, X)
    if isinstance(model, LogisticRegression):
        p1 = _stable_sigmoid(Xa @ params)
        # ∂p1/∂θ = p1(1-p1)x ; ∂p0/∂θ = -p1(1-p1)x
        coeff = (weights[:, 1] - weights[:, 0]) * p1 * (1.0 - p1)
        return Xa.T @ coeff
    p = np.exp(_log_proba(model, params, X))
    # ∂/∂W Σ w_ic p_ic ; per-row inner Jacobian is diag(p) - p pᵀ.
    inner = p * (weights - (weights * p).sum(axis=1, keepdims=True))
    return (Xa.T @ inner).ravel()


def _default_data_hvp_block(model, params, X, y_idx, V):
    if V.shape[1] == 0:
        return np.zeros_like(V)
    return np.column_stack(
        [model._data_hvp(params, X, y_idx, V[:, j]) for j in range(V.shape[1])]
    )


def _oracle_fit(model, X, y, augment=_augment, max_iter=300, tol=1e-8):
    """Cold L-BFGS fit that re-augments X on every evaluation."""
    y_idx = np.asarray([model._class_index[label] for label in np.asarray(y).tolist()])

    def objective(theta):
        loss, grad = model._data_loss_and_grad(theta, augment(model, X), y_idx)
        loss += model.l2 * float(theta @ theta)
        grad = grad + 2.0 * model.l2 * theta
        return loss, grad

    result = optimize.minimize(
        objective,
        model._init_params(X.shape[1:]),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-9},
    )
    return np.asarray(result.x, dtype=np.float64)


# -- problems -------------------------------------------------------------------


def _problem(n_classes, n=240, d=7, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    logits = X @ rng.normal(size=(d, n_classes)) + 0.5 * rng.normal(size=(n, n_classes))
    return X, np.argmax(logits, axis=1)


def _linear_models():
    return [
        ("logistic", lambda d: LogisticRegression((0, 1), d, l2=1e-3), 2,
         _logistic_data_hvp, _logistic_data_hvp_block),
        ("logistic-no-intercept",
         lambda d: LogisticRegression((0, 1), d, l2=1e-3, fit_intercept=False), 2,
         _logistic_data_hvp, _logistic_data_hvp_block),
        ("softmax", lambda d: SoftmaxRegression((0, 1, 2, 3), d, l2=1e-3), 4,
         _softmax_data_hvp, _softmax_data_hvp_block),
        ("softmax-no-intercept",
         lambda d: SoftmaxRegression((0, 1, 2, 3), d, l2=1e-3, fit_intercept=False), 4,
         _softmax_data_hvp, _softmax_data_hvp_block),
    ]


@pytest.fixture(params=_linear_models(), ids=lambda case: case[0])
def linear_case(request):
    _, make, n_classes, data_hvp, data_hvp_block = request.param
    X, y = _problem(n_classes)
    model = make(X.shape[1])
    model.fit(X, y, warm_start=False)
    return model, X, y, data_hvp, data_hvp_block


class TestLinearOperatorIsBitIdentical:
    def test_matvec(self, linear_case):
        model, X, y, data_hvp, _ = linear_case
        params, y_idx = model.get_params(), model.labels_to_indices(y)
        operator = model.hessian_operator(model.training_set(X, y))
        rng = np.random.default_rng(1)
        for _ in range(4):
            v = rng.normal(size=model.n_params)
            expected = data_hvp(model, params, X, y_idx, v) + 2.0 * model.l2 * v
            assert np.array_equal(operator.matvec(v), expected)
            assert np.array_equal(model.hvp(X, y, v), expected)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matmat(self, linear_case, k):
        model, X, y, _, data_hvp_block = linear_case
        params, y_idx = model.get_params(), model.labels_to_indices(y)
        V = np.random.default_rng(k).normal(size=(model.n_params, k))
        expected = data_hvp_block(model, params, X, y_idx, V) + 2.0 * model.l2 * V
        operator = model.hessian_operator(model.training_set(X, y))
        assert np.array_equal(operator.matmat(V), expected)
        assert np.array_equal(model.hvp_block(X, y, V), expected)

    def test_operator_is_reusable(self, linear_case):
        # Products do not mutate the captured θ-only state.
        model, X, y, data_hvp, _ = linear_case
        operator = model.hessian_operator(model.training_set(X, y))
        v = np.random.default_rng(2).normal(size=model.n_params)
        first = operator.matvec(v)
        operator.matmat(np.random.default_rng(3).normal(size=(model.n_params, 2)))
        assert np.array_equal(operator.matvec(v), first)

    def test_fit_equals_reaugmenting_fit(self, linear_case):
        model, X, y, _, _ = linear_case
        model.fit(X, y, warm_start=False)
        assert np.array_equal(model.get_params(), _oracle_fit(model, X, y))

    def test_prob_vjp_operator(self, linear_case):
        # One operator serves many weightings, each equal to a fresh VJP.
        model, X, _, _, _ = linear_case
        params = model.get_params()
        operator = model.prob_vjp_operator(X)
        rng = np.random.default_rng(6)
        for density in (1.0, 0.1, 0.0):
            weights = rng.normal(size=(X.shape[0], model.n_classes))
            weights *= rng.random(size=weights.shape) < density
            expected = _prob_vjp(model, params, X, weights)
            assert np.array_equal(operator(weights), expected)
            assert np.array_equal(model.prob_vjp(X, weights), expected)


class TestDefaultOperator:
    """Neural models keep the base operator over finite-difference HVPs."""

    @pytest.fixture()
    def mlp_case(self):
        X, y = _problem(2, n=60, d=5, seed=4)
        model = NeuralClassifier((0, 1), make_mlp(5, [6], 2, rng=0), l2=1e-3)
        model.fit(X, y, warm_start=False, max_iter=60)
        return model, X, y

    def test_matvec_and_matmat(self, mlp_case):
        model, X, y = mlp_case
        params, y_idx = model.get_params(), model.labels_to_indices(y)
        operator = model.hessian_operator(model.training_set(X, y))
        rng = np.random.default_rng(5)
        v = rng.normal(size=model.n_params)
        expected = model._data_hvp(params, X, y_idx, v) + 2.0 * model.l2 * v
        assert np.array_equal(operator.matvec(v), expected)
        for k in (0, 3):
            V = rng.normal(size=(model.n_params, k))
            expected = (
                _default_data_hvp_block(model, params, X, y_idx, V)
                + 2.0 * model.l2 * V
            )
            assert np.array_equal(operator.matmat(V), expected)

    def test_prob_vjp_operator(self, mlp_case):
        model, X, _ = mlp_case
        operator = model.prob_vjp_operator(X)
        weights = np.random.default_rng(7).normal(size=(X.shape[0], 2))
        expected = model._prob_vjp(model.get_params(), X, weights)
        assert np.array_equal(operator(weights), expected)
        assert np.array_equal(model.prob_vjp(X, weights), expected)

    def test_fit_equals_reaugmenting_fit(self, mlp_case):
        model, X, y = mlp_case
        model.fit(X, y, warm_start=False, max_iter=40)
        expected = _oracle_fit(model, X, y, augment=lambda _, X: X, max_iter=40)
        assert np.array_equal(model.get_params(), expected)


class TestLabelsToIndices:
    def test_string_labels(self):
        model = LogisticRegression(("nonmatch", "match"), 2)
        out = model.labels_to_indices(np.asarray(["match", "nonmatch", "match"]))
        assert out.dtype == np.int64
        assert out.tolist() == [1, 0, 1]

    def test_int_labels(self):
        model = SoftmaxRegression((3, 1, 2), 2)
        out = model.labels_to_indices(np.asarray([1, 2, 3, 3]))
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 0, 0]

    def test_object_labels(self):
        model = SoftmaxRegression(("a", 1, 2.5), 2)
        out = model.labels_to_indices(np.asarray(["a", 2.5, 1], dtype=object))
        assert out.dtype == np.int64
        assert out.tolist() == [0, 2, 1]

    def test_first_unknown_label_is_reported(self):
        model = LogisticRegression(("ham", "spam"), 2)
        with pytest.raises(ModelError, match="unknown class label 'eggs'"):
            model.labels_to_indices(np.asarray(["ham", "eggs", "bacon"]))
        with pytest.raises(ModelError, match="unknown class label 7"):
            LogisticRegression((0, 1), 2).labels_to_indices([0, 7, 1])

    def test_mismatched_label_type_is_unknown(self):
        with pytest.raises(ModelError, match="unknown class label '0'"):
            LogisticRegression((0, 1), 2).labels_to_indices(np.asarray(["0"]))

    def test_empty_labels_index(self):
        model = LogisticRegression((0, 1), 2)
        out = model.labels_to_indices(np.asarray([]))
        assert out.dtype == np.int64 and out.shape == (0,)
        # Usable as an index: zero-row per-sample statistics work.
        model.set_params(np.zeros(model.n_params))
        assert model.per_sample_losses(np.zeros((0, 2)), []).shape == (0,)


def test_training_set_converts_once():
    model = LogisticRegression(("ham", "spam"), 3)
    X = np.arange(6.0).reshape(2, 3)
    train = model.training_set(X, ["spam", "ham"])
    assert isinstance(train, TrainingSet)
    assert np.array_equal(train.inputs, [[0.0, 1.0, 2.0, 1.0], [3.0, 4.0, 5.0, 1.0]])
    assert train.inputs.flags.c_contiguous
    assert train.y_idx.tolist() == [1, 0]
    with pytest.raises(ModelError, match="rows"):
        model.training_set(X, ["spam"])
