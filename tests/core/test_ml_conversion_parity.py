"""Converting inputs once and one Hessian operator per CG solve change nothing.

Each Rain session runs twice from the same fitted state: once on the
library model and once on a test-local subclass that takes the
recompute-everything path instead.  There, every loss evaluation re-stacks
the intercept column, every Hessian product rebuilds the operator over a
freshly re-stacked copy (so the θ-only quantities are recomputed per
product), and labels go through a per-row dict lookup.  The removal orders
and, at every iteration, ``q`` and the CG iteration count must be equal.

The work-count tests pin what the conversion saves on a DBLP session:
training labels are mapped at most twice per iteration (once by ``fit``,
once by the influence analyzer) and the θ-only quantities are computed
once per CG solve, not once per product.
"""

import copy

import numpy as np
import pytest

from repro.core import RainDebugger
from repro.errors import ModelError
from repro.experiments.common import build_dblp_setting
from repro.experiments.fig8_multiquery import build_adult_setting
from repro.experiments.mnist_common import build_join_setting
from repro.influence import InfluenceAnalyzer
from repro.ml import HessianOperator, LogisticRegression, SoftmaxRegression, TrainingSet
from repro.ml import linear


class _Recomputing:
    """Re-derives every converted input and θ-only quantity on each call."""

    def labels_to_indices(self, y):
        try:
            return np.asarray(
                [self._class_index[label] for label in np.asarray(y).tolist()],
                dtype=np.int64,
            )
        except KeyError as exc:
            raise ModelError(f"unknown class label {exc.args[0]!r}") from None

    def _fresh(self, inputs):
        if not self.fit_intercept:
            return inputs.copy()
        return np.hstack([inputs[:, :-1], np.ones((inputs.shape[0], 1))])

    def _data_loss_and_grad(self, params, X, y_idx):
        return super()._data_loss_and_grad(params, self._fresh(X), y_idx)

    def hessian_operator(self, train):
        build = super().hessian_operator

        def fresh():
            return build(TrainingSet(self._fresh(train.inputs), train.y_idx.copy()))

        return HessianOperator(
            lambda v: fresh().matvec(v), lambda V: fresh().matmat(V)
        )


class _RecomputingLogistic(_Recomputing, LogisticRegression):
    pass


class _RecomputingSoftmax(_Recomputing, SoftmaxRegression):
    pass


def _dblp():
    setting = build_dblp_setting(0.5, n_train=200, n_query=150, seed=3)
    return (setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [setting.case], 40)


def _mnist_join():
    setting = build_join_setting(
        0.5, left_digits=(1, 2, 3, 4, 5), right_digits=(6, 7, 8, 9, 0),
        aggregate=True, n_train=150, n_left=8, n_right=8, seed=0,
    )
    return (setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, 20)


def _adult_multicase():
    setting = build_adult_setting(0.5, n_train=300, n_query=300, seed=0)
    return (setting.database, "income", setting.X_train, setting.y_corrupted,
            [setting.gender_case, setting.age_case], 30)


def _run(database, model_name, X, y, cases, budget):
    debugger = RainDebugger(database, model_name, X, y, cases, method="holistic", rng=0)
    return debugger.run(max_removals=budget, k_per_iteration=10)


_ORACLES = {
    LogisticRegression: _RecomputingLogistic,
    SoftmaxRegression: _RecomputingSoftmax,
}


@pytest.mark.parametrize(
    "session", [_dblp, _mnist_join, _adult_multicase],
    ids=["dblp-holistic", "mnist-join-softmax", "adult-multicase"],
)
def test_sessions_equal_the_recomputing_path(session):
    database, model_name, X, y, cases, budget = session()
    model = database.model(model_name)
    oracle = copy.deepcopy(model)
    oracle.__class__ = _ORACLES[type(model)]

    report = _run(database, model_name, X, y, cases, budget)
    database.add_model(model_name, oracle)
    expected = _run(database, model_name, X, y, cases, budget)

    assert len(report.removal_order) == budget
    assert report.removal_order == expected.removal_order
    assert len(report.iterations) == len(expected.iterations)
    for record, reference in zip(report.iterations, expected.iterations):
        assert record.diagnostics["q_value"] == reference.diagnostics["q_value"]
        assert (
            record.diagnostics["cg_iterations"]
            == reference.diagnostics["cg_iterations"]
        )
    assert np.array_equal(model.get_params(), oracle.get_params())


def test_dblp_session_converts_labels_at_most_twice_per_iteration():
    database, model_name, X, y, cases, budget = _dblp()
    model = database.model(model_name)
    calls = []
    library = model.labels_to_indices

    def counting(labels):
        calls.append(len(labels))
        return library(labels)

    model.labels_to_indices = counting
    report = _run(database, model_name, X, y, cases, budget)
    assert len(report.iterations) == budget // 10
    assert 0 < len(calls) <= 2 * len(report.iterations)


def test_dblp_session_computes_theta_terms_once_per_solve(monkeypatch):
    database, model_name, X, y, cases, budget = _dblp()
    sigmoid_calls = [0]
    library_sigmoid = linear._stable_sigmoid

    def counting_sigmoid(z):
        sigmoid_calls[0] += 1
        return library_sigmoid(z)

    per_solve = []
    library_solve = InfluenceAnalyzer.inverse_hvp

    def counting_solve(self, v, x0=None):
        before = sigmoid_calls[0]
        out = library_solve(self, v, x0=x0)
        per_solve.append((sigmoid_calls[0] - before, self.last_cg_result.iterations))
        return out

    monkeypatch.setattr(linear, "_stable_sigmoid", counting_sigmoid)
    monkeypatch.setattr(InfluenceAnalyzer, "inverse_hvp", counting_solve)
    report = _run(database, model_name, X, y, cases, budget)
    assert len(per_solve) == len(report.iterations)
    assert all(sigmoids == 1 for sigmoids, _ in per_solve)
    assert sum(iterations for _, iterations in per_solve) > len(per_solve)
