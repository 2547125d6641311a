"""Shared fixtures: small fitted models, databases, the determinism harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import LogisticRegression, SoftmaxRegression
from repro.relational import Database, Relation

# Execution variants the determinism harness pins against serial
# execution: (label, n_workers).  Serial (n_workers=0) is the golden run
# and always runs first.
DETERMINISM_VARIANTS = (
    ("sharded@2w", 2),
    ("sharded@4w", 4),
)


class DeterminismHarness:
    """Run one Rain workload across execution variants, pin bit-equality.

    The contract under test: the worker count may not change *anything*
    observable — the removal order, the per-iteration removal sets, the
    complaint-satisfied flags, the stop reason, or the final fitted
    parameters.  The harness snapshots the
    model's parameters at construction and restores them before every
    run, so the variants are exact replays of one initial state.
    """

    variants = DETERMINISM_VARIANTS

    def __init__(
        self,
        database,
        model_name,
        X_train,
        y_train,
        cases,
        method="holistic",
        ranker_kwargs=None,
        rng=0,
        max_removals=20,
        k_per_iteration=10,
        **debugger_kwargs,
    ):
        self.database = database
        self.model_name = model_name
        self.X_train = X_train
        self.y_train = y_train
        self.cases = list(cases)
        self.method = method
        self.ranker_kwargs = dict(ranker_kwargs or {})
        self.rng = rng
        self.max_removals = max_removals
        self.k_per_iteration = k_per_iteration
        self.debugger_kwargs = dict(debugger_kwargs)
        self._initial_params = database.model(model_name).get_params()

    def run(self, n_workers=0):
        """One replay; returns (report, final fitted parameters)."""
        from repro.core import RainDebugger

        model = self.database.model(self.model_name)
        model.set_params(self._initial_params)
        debugger = RainDebugger(
            self.database,
            self.model_name,
            self.X_train,
            self.y_train,
            self.cases,
            method=self.method,
            rng=self.rng,
            ranker_kwargs=self.ranker_kwargs,
            n_workers=n_workers,
            **self.debugger_kwargs,
        )
        report = debugger.run(
            max_removals=self.max_removals,
            k_per_iteration=self.k_per_iteration,
        )
        return report, model.get_params()

    def check(self, variants=None):
        """Assert every variant replays the serial run; returns the golden."""
        golden, golden_params = self.run(0)
        for label, n_workers in variants or self.variants:
            report, params = self.run(n_workers)
            assert report.removal_order == golden.removal_order, label
            assert [record.removed for record in report.iterations] == [
                record.removed for record in golden.iterations
            ], label
            assert [
                record.complaints_satisfied for record in report.iterations
            ] == [
                record.complaints_satisfied for record in golden.iterations
            ], label
            assert report.stopped_reason == golden.stopped_reason, label
            assert np.array_equal(params, golden_params), label
        self.database.model(self.model_name).set_params(self._initial_params)
        return golden


@pytest.fixture()
def determinism_harness():
    """Factory fixture: build a :class:`DeterminismHarness` for a workload."""
    return DeterminismHarness


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def binary_problem():
    """A small, linearly separable-ish binary classification problem."""
    rng = np.random.default_rng(7)
    n, d = 60, 4
    X = rng.normal(size=(n, d))
    w = np.asarray([1.5, -2.0, 0.5, 0.0])
    y = (X @ w + 0.2 * rng.normal(size=n) > 0).astype(int)
    return X, y


@pytest.fixture()
def fitted_binary_model(binary_problem):
    X, y = binary_problem
    model = LogisticRegression((0, 1), n_features=X.shape[1], l2=1e-2)
    model.fit(X, y, warm_start=False)
    return model


@pytest.fixture()
def multiclass_problem():
    rng = np.random.default_rng(11)
    n, d, k = 90, 5, 3
    centers = rng.normal(scale=2.0, size=(k, d))
    y = rng.integers(k, size=n)
    X = centers[y] + rng.normal(scale=0.7, size=(n, d))
    return X, y


@pytest.fixture()
def fitted_multiclass_model(multiclass_problem):
    X, y = multiclass_problem
    model = SoftmaxRegression((0, 1, 2), n_features=X.shape[1], l2=1e-2)
    model.fit(X, y, warm_start=False)
    return model


@pytest.fixture()
def simple_db(fitted_binary_model):
    """Database with one relation of queried features + the binary model."""
    rng = np.random.default_rng(3)
    X_query = rng.normal(size=(25, 4))
    db = Database()
    db.add_relation(
        Relation(
            "R",
            {
                "features": X_query,
                "id": np.arange(25),
                "flag": (np.arange(25) % 2 == 0).astype(int),
            },
        )
    )
    db.add_model("m", fitted_binary_model)
    return db
