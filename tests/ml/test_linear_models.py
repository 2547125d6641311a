"""Logistic / softmax regression: gradients, HVPs, probability VJPs vs. FD."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml import LogisticRegression, SoftmaxRegression


def fd_grad(fn, theta, eps=1e-6):
    grad = np.zeros_like(theta)
    for index in range(theta.size):
        plus = theta.copy(); plus[index] += eps
        minus = theta.copy(); minus[index] -= eps
        grad[index] = (fn(plus) - fn(minus)) / (2 * eps)
    return grad


class TestLogisticBasics:
    def test_requires_two_classes(self):
        with pytest.raises(ModelError, match="binary"):
            LogisticRegression((0, 1, 2), n_features=3)

    def test_duplicate_classes_raise(self):
        with pytest.raises(ModelError, match="duplicate"):
            LogisticRegression((1, 1), n_features=3)

    def test_unfitted_raises(self):
        model = LogisticRegression((0, 1), n_features=3)
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((2, 3)))

    def test_unknown_label_raises(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression((0, 1), n_features=X.shape[1])
        with pytest.raises(ModelError, match="unknown class"):
            model.fit(X, np.full(len(y), 7))

    def test_fit_separable_high_accuracy(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        assert fitted_binary_model.accuracy(X, y) > 0.9

    def test_string_classes(self, binary_problem):
        X, y = binary_problem
        labels = np.where(y == 1, "spam", "ham")
        model = LogisticRegression(("ham", "spam"), n_features=X.shape[1], l2=1e-2)
        model.fit(X, labels, warm_start=False)
        predictions = model.predict(X)
        assert set(predictions) <= {"ham", "spam"}
        assert np.mean(predictions == labels) > 0.9

    def test_predict_proba_rows_sum_to_one(self, fitted_binary_model, binary_problem):
        X, _ = binary_problem
        proba = fitted_binary_model.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)

    def test_warm_start_keeps_params_shape(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        theta_before = fitted_binary_model.get_params()
        fitted_binary_model.fit(X[:30], y[:30], warm_start=True)
        assert fitted_binary_model.get_params().shape == theta_before.shape

    def test_empty_training_set_raises(self):
        model = LogisticRegression((0, 1), n_features=2)
        with pytest.raises(ModelError, match="empty"):
            model.fit(np.zeros((0, 2)), np.zeros(0))

    def test_wrong_feature_dim_raises(self, fitted_binary_model):
        with pytest.raises(ModelError, match="shape"):
            fitted_binary_model.predict(np.zeros((2, 9)))


class TestLogisticCalculus:
    def test_total_grad_matches_fd(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        model = fitted_binary_model
        theta = model.get_params()
        y_idx = model.labels_to_indices(y)

        def total_loss(t):
            losses = model._per_sample_losses(t, model._inputs(X), y_idx)
            return losses.mean() + model.l2 * t @ t

        value, grad = model._data_loss_and_grad(theta, model._inputs(X), y_idx)
        grad = grad + 2 * model.l2 * theta
        np.testing.assert_allclose(grad, fd_grad(total_loss, theta), atol=1e-5)

    def test_per_sample_grads_sum_to_total(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        model = fitted_binary_model
        theta = model.get_params()
        y_idx = model.labels_to_indices(y)
        _, total = model._data_loss_and_grad(theta, model._inputs(X), y_idx)
        per_sample = model._per_sample_grads(theta, model._inputs(X), y_idx)
        np.testing.assert_allclose(per_sample.mean(axis=0), total, atol=1e-10)

    def test_hvp_matches_fd_of_grad(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        model = fitted_binary_model
        theta = model.get_params()
        y_idx = model.labels_to_indices(y)
        rng = np.random.default_rng(1)
        v = rng.normal(size=theta.size)

        def reg_grad(t):
            _, g = model._data_loss_and_grad(t, model._inputs(X), y_idx)
            return g + 2 * model.l2 * t

        eps = 1e-6
        fd_hv = (reg_grad(theta + eps * v) - reg_grad(theta - eps * v)) / (2 * eps)
        np.testing.assert_allclose(model.hvp(X, y, v), fd_hv, atol=1e-5)

    def test_hessian_positive_definite(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        model = fitted_binary_model
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.normal(size=model.n_params)
            assert v @ model.hvp(X, y, v) > 0

    def test_prob_vjp_matches_fd(self, binary_problem, fitted_binary_model):
        X, _ = binary_problem
        model = fitted_binary_model
        theta = model.get_params()
        rng = np.random.default_rng(3)
        weights = rng.normal(size=(X.shape[0], 2))

        def weighted_prob(t):
            return float((model._proba(t, model._inputs(X)) * weights).sum())

        vjp = model.prob_vjp(X, weights)
        np.testing.assert_allclose(vjp, fd_grad(weighted_prob, theta), atol=1e-5)

    def test_grad_dot_matches_matrix_product(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        model = fitted_binary_model
        v = np.random.default_rng(4).normal(size=model.n_params)
        expected = model.per_sample_grads(X, y) @ v
        np.testing.assert_allclose(model.grad_dot(X, y, v), expected, atol=1e-10)

    def test_no_intercept_variant(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression((0, 1), n_features=X.shape[1], fit_intercept=False)
        model.fit(X, y, warm_start=False)
        assert model.n_params == X.shape[1]


class TestSoftmax:
    def test_fit_and_accuracy(self, multiclass_problem, fitted_multiclass_model):
        X, y = multiclass_problem
        assert fitted_multiclass_model.accuracy(X, y) > 0.85

    def test_proba_shape_and_normalization(self, multiclass_problem, fitted_multiclass_model):
        X, _ = multiclass_problem
        proba = fitted_multiclass_model.predict_proba(X)
        assert proba.shape == (X.shape[0], 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)

    def test_grad_matches_fd(self, multiclass_problem, fitted_multiclass_model):
        X, y = multiclass_problem
        model = fitted_multiclass_model
        theta = model.get_params()
        y_idx = model.labels_to_indices(y)

        def loss(t):
            return model._per_sample_losses(t, model._inputs(X), y_idx).mean()

        _, grad = model._data_loss_and_grad(theta, model._inputs(X), y_idx)
        np.testing.assert_allclose(grad, fd_grad(loss, theta), atol=1e-5)

    def test_per_sample_grads_sum(self, multiclass_problem, fitted_multiclass_model):
        X, y = multiclass_problem
        model = fitted_multiclass_model
        theta = model.get_params()
        y_idx = model.labels_to_indices(y)
        _, total = model._data_loss_and_grad(theta, model._inputs(X), y_idx)
        per_sample = model._per_sample_grads(theta, model._inputs(X), y_idx)
        np.testing.assert_allclose(per_sample.mean(axis=0), total, atol=1e-10)

    def test_hvp_matches_fd(self, multiclass_problem, fitted_multiclass_model):
        X, y = multiclass_problem
        model = fitted_multiclass_model
        theta = model.get_params()
        y_idx = model.labels_to_indices(y)
        v = np.random.default_rng(5).normal(size=theta.size)

        def reg_grad(t):
            _, g = model._data_loss_and_grad(t, model._inputs(X), y_idx)
            return g + 2 * model.l2 * t

        eps = 1e-6
        fd_hv = (reg_grad(theta + eps * v) - reg_grad(theta - eps * v)) / (2 * eps)
        np.testing.assert_allclose(model.hvp(X, y, v), fd_hv, atol=1e-5)

    def test_prob_vjp_matches_fd(self, multiclass_problem, fitted_multiclass_model):
        X, _ = multiclass_problem
        model = fitted_multiclass_model
        theta = model.get_params()
        weights = np.random.default_rng(6).normal(size=(X.shape[0], 3))

        def weighted(t):
            return float((model._proba(t, model._inputs(X)) * weights).sum())

        np.testing.assert_allclose(
            model.prob_vjp(X, weights), fd_grad(weighted, theta), atol=1e-5
        )

    def test_f1_binary(self, binary_problem, fitted_binary_model):
        X, y = binary_problem
        f1 = fitted_binary_model.f1_binary(X, y, positive=1)
        assert 0.8 < f1 <= 1.0

    def test_f1_degenerate_zero(self):
        model = LogisticRegression((0, 1), n_features=2, l2=1e-2)
        X = np.asarray([[10.0, 10.0], [11.0, 11.0]])
        model.fit(X, [0, 0], warm_start=False)
        assert model.f1_binary(X, np.asarray([1, 1]), positive=1) == 0.0
