"""Warm-started Rain iterations: same removal orders, carried CG state.

The regression contract: ``warm_start_cg=True`` (the default) must
reproduce the removal orders of cold-started runs bit-for-bit — warm starts
change where CG *starts*, not the tolerance it converges to, and the score
gaps Rain ranks on sit far above the solver tolerance.  Checked here on
scaled-down versions of the paper's fig4 (DBLP count complaint) and fig6
(MNIST count complaint) configurations plus the InfLoss block path.
"""

import numpy as np
import pytest

from repro.core import RainDebugger
from repro.influence import PerSampleGradCache
from repro.ml import LogisticRegression


def run_pair(factory, method, ranker_kwargs=None, max_removals=20, k=5):
    """Run the same debugging problem cold- and warm-started."""
    orders = {}
    for warm in (False, True):
        db, model_name, X, y, cases = factory()
        debugger = RainDebugger(
            db, model_name, X, y, cases, method=method, rng=0,
            warm_start_cg=warm, ranker_kwargs=dict(ranker_kwargs or {}),
        )
        report = debugger.run(max_removals=max_removals, k_per_iteration=k)
        orders[warm] = report
    return orders[False], orders[True]


@pytest.fixture()
def dblp_factory():
    """A scaled-down fig4 configuration (DBLP count complaint)."""
    from repro.experiments.common import build_dblp_setting

    def factory():
        setting = build_dblp_setting(0.5, n_train=120, n_query=80, seed=0)
        return (
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [setting.case],
        )

    return factory


@pytest.fixture()
def mnist_factory():
    """A scaled-down fig6-style configuration (MNIST count complaint)."""
    from repro.experiments.mnist_common import build_count_setting

    def factory():
        setting = build_count_setting(
            corruption_rate=0.5, n_train=80, n_query=50,
            model_kind="logistic", seed=0,
        )
        return (
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases,
        )

    return factory


class TestWarmStartRegression:
    def test_holistic_dblp_identical_removal_order(self, dblp_factory):
        cold, warm = run_pair(dblp_factory, "holistic")
        assert cold.removal_order == warm.removal_order
        assert cold.removal_order  # non-degenerate

    def test_infloss_dblp_identical_removal_order(self, dblp_factory):
        cold, warm = run_pair(dblp_factory, "infloss", max_removals=15)
        assert cold.removal_order == warm.removal_order

    def test_holistic_mnist_identical_removal_order(self, mnist_factory):
        cold, warm = run_pair(mnist_factory, "holistic", max_removals=10)
        assert cold.removal_order == warm.removal_order

    def test_twostep_identical_removal_order(self, dblp_factory):
        cold, warm = run_pair(
            dblp_factory, "twostep",
            ranker_kwargs={
                "ambiguity_cap": 2, "node_limit": 200, "time_limit": None,
            },
            max_removals=10,
        )
        assert cold.removal_order == warm.removal_order

    def test_warm_run_records_cg_diagnostics(self, dblp_factory):
        _, warm = run_pair(dblp_factory, "holistic", max_removals=10)
        ranked = [record for record in warm.iterations if record.removed]
        assert ranked
        for record in ranked:
            assert "cg_iterations" in record.diagnostics
            assert record.diagnostics["cg_converged"]

    def test_infloss_block_diagnostics_cover_all_records(self, dblp_factory):
        _, warm = run_pair(dblp_factory, "infloss", max_removals=10)
        ranked = [record for record in warm.iterations if record.removed]
        assert ranked
        n_active = 120
        for record in ranked:
            block = record.diagnostics["block_cg"]
            assert block["columns"] == n_active
            assert record.diagnostics["cg_solves"] == {"scalar": 0, "block": 1}
            n_active -= len(record.removed)


class TestPerSampleGradCache:
    def make_model(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = (X @ rng.normal(size=4) > 0).astype(int)
        model = LogisticRegression((0, 1), n_features=4, l2=1e-2)
        model.fit(X, y, warm_start=False)
        return model, X, y

    def test_hit_on_same_params_and_rows(self):
        model, X, y = self.make_model()
        cache = PerSampleGradCache()
        row_ids = np.arange(40)
        first = cache.get(model, model.training_set(X, y), row_ids)
        second = cache.get(model, model.training_set(X, y), row_ids)
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_array_equal(first, second)

    def test_row_subset_reuses_cached_matrix(self):
        model, X, y = self.make_model()
        cache = PerSampleGradCache()
        row_ids = np.arange(40)
        full = cache.get(model, model.training_set(X, y), row_ids)
        survivors = np.delete(row_ids, [3, 17, 30])
        subset = cache.get(
            model, model.training_set(X[survivors], y[survivors]), survivors
        )
        assert cache.hits == 1
        np.testing.assert_array_equal(subset, full[survivors])
        np.testing.assert_array_equal(
            subset, model.per_sample_grads(X[survivors], y[survivors])
        )

    def test_param_change_invalidates(self):
        model, X, y = self.make_model()
        cache = PerSampleGradCache()
        row_ids = np.arange(40)
        cache.get(model, model.training_set(X, y), row_ids)
        model.set_params(model.get_params() + 0.01)
        fresh = cache.get(model, model.training_set(X, y), row_ids)
        assert cache.misses == 2
        np.testing.assert_array_equal(fresh, model.per_sample_grads(X, y))

    def test_unknown_rows_miss(self):
        model, X, y = self.make_model()
        cache = PerSampleGradCache()
        cache.get(model, model.training_set(X[:20], y[:20]), np.arange(20))
        # A superset of the cached rows must recompute.
        cache.get(model, model.training_set(X, y), np.arange(40))
        assert cache.misses == 2

    def test_invalidate_clears_state(self):
        model, X, y = self.make_model()
        cache = PerSampleGradCache()
        cache.get(model, model.training_set(X, y), np.arange(40))
        cache.invalidate()
        cache.get(model, model.training_set(X, y), np.arange(40))
        assert cache.misses == 2 and cache.hits == 0
