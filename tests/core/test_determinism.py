"""Session determinism: a replay on a fresh debugger is bit-identical.

A second session over the same database, on a new debugger (and so a new
executor with an empty lineage memo), must replay the first bit-for-bit
— removal order, per-iteration removal sets, satisfied flags, stop
reason, final fitted parameters.  The shared ``DeterminismHarness``
fixture pins this over methods × datasets and through the loop's early
exits (``stop_when_satisfied``, ``no_signal``).  Plan fingerprints must
be pure functions of their inputs.
"""

import numpy as np
import pytest

from repro.complaints import ComplaintCase, ValueComplaint
from repro.core import WarmStartState
from repro.experiments.common import build_dblp_setting
from repro.experiments.fig8_multiquery import build_adult_setting
from repro.relational import plan_sql
from repro.relational.algebra import plan_fingerprint


# One module-level SeedSequence; every consumer spawns its own child
# stream, so the setting builders never alias one literal seed.
MODULE_SEED = np.random.SeedSequence(987654321)


def _spawned_seed(child: np.random.SeedSequence) -> int:
    return int(child.generate_state(1)[0] % 2**31)


@pytest.fixture(scope="module")
def seed_streams():
    (setting_ss,) = MODULE_SEED.spawn(1)
    return {"setting": _spawned_seed(setting_ss)}


@pytest.fixture(scope="module")
def adult_setting(seed_streams):
    return build_adult_setting(
        0.5, n_train=200, n_query=300, seed=seed_streams["setting"]
    )


@pytest.fixture(scope="module")
def dblp_setting(seed_streams):
    return build_dblp_setting(
        0.5, n_train=150, n_query=150, seed=seed_streams["setting"]
    )


def harness_for(determinism_harness, setting, dataset, method, rk, **kwargs):
    if dataset == "adult":
        return determinism_harness(
            setting.database,
            "income",
            setting.X_train,
            setting.y_corrupted,
            [setting.gender_case, setting.age_case],
            method=method,
            ranker_kwargs=rk,
            **kwargs,
        )
    return determinism_harness(
        setting.database,
        setting.model_name,
        setting.X_train,
        setting.y_corrupted,
        [setting.case],
        method=method,
        ranker_kwargs=rk,
        **kwargs,
    )


METHODS = [
    pytest.param("holistic", {}, id="holistic"),
    pytest.param(
        "twostep",
        {"ambiguity_cap": 3, "node_limit": 200, "time_limit": None},
        id="twostep",
    ),
    pytest.param("loss", {}, id="loss"),
    pytest.param("infloss", {}, id="infloss"),
]


class TestDeterminismHarness:
    """A session replayed on a fresh debugger is bit-identical."""

    @pytest.mark.parametrize("dataset", ["adult", "dblp"])
    @pytest.mark.parametrize("method,rk", METHODS)
    def test_bit_identical_reports(
        self, determinism_harness, request, dataset, method, rk
    ):
        setting = request.getfixturevalue(f"{dataset}_setting")
        harness = harness_for(determinism_harness, setting, dataset, method, rk)
        golden = harness.check()
        assert golden.removal_order  # non-degenerate workload

    def test_stop_when_satisfied_short_circuits(
        self, determinism_harness, seed_streams
    ):
        setting = build_dblp_setting(
            0.5, n_train=80, n_query=100, seed=seed_streams["setting"]
        )
        # COUNT(*) over n_query rows can never exceed n_query: satisfied
        # from iteration one, so every session must stop without removing.
        vacuous = ComplaintCase(
            setting.query,
            [
                ValueComplaint(
                    column="count",
                    op="<=",
                    value=setting.X_query.shape[0],
                    row_index=0,
                )
            ],
        )
        harness = determinism_harness(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [vacuous], method="holistic",
            stop_when_satisfied=True,
        )
        golden = harness.check()
        assert golden.stopped_reason == "complaints_satisfied"
        assert golden.removal_order == []
        assert golden.iterations[-1].complaints_satisfied

    def test_stop_when_satisfied_still_replays_while_unsatisfied(
        self, determinism_harness, dblp_setting
    ):
        harness = harness_for(
            determinism_harness, dblp_setting, "dblp", "holistic", {},
            stop_when_satisfied=True,
        )
        golden = harness.check()
        assert golden.removal_order

    def test_no_signal_stops_every_session(self, determinism_harness, seed_streams):
        setting = build_dblp_setting(
            0.5, n_train=40, n_query=60, seed=seed_streams["setting"]
        )
        # Identical rows + identical labels: every per-sample loss ties,
        # so the ranker has no signal and no session may remove
        # arbitrary records.
        X_flat = np.zeros_like(setting.X_train)
        y_const = setting.y_corrupted.copy()
        y_const[:] = "match"
        harness = determinism_harness(
            setting.database, setting.model_name, X_flat, y_const,
            [setting.case], method="loss", max_removals=10,
        )
        golden = harness.check()
        assert golden.stopped_reason == "no_signal"
        assert golden.removal_order == []


class TestPlanFingerprint:
    def test_same_sql_same_fingerprint(self, adult_setting):
        database = adult_setting.database
        sql = "SELECT AVG(predict(*)) FROM adult GROUP BY gender"
        assert plan_fingerprint(plan_sql(sql, database)) == plan_fingerprint(
            plan_sql(sql, database)
        )

    def test_distinct_plans_distinct_fingerprints(self, adult_setting):
        database = adult_setting.database
        prints = {
            plan_fingerprint(plan_sql(sql, database))
            for sql in (
                "SELECT AVG(predict(*)) FROM adult GROUP BY gender",
                "SELECT AVG(predict(*)) FROM adult GROUP BY agedecade",
                "SELECT COUNT(*) FROM adult WHERE predict(*) = 1",
                "SELECT COUNT(*) FROM adult GROUP BY gender",
            )
        }
        assert len(prints) == 4


class TestWarmStartStateEdgeCases:
    def test_drop_columns_empty_is_noop(self):
        warm = WarmStartState(block=np.arange(12.0).reshape(3, 4))
        before = warm.block
        warm.drop_columns(np.asarray([], dtype=np.float64))
        assert warm.block is before

    def test_drop_columns_float_positions(self):
        warm = WarmStartState(block=np.arange(12.0).reshape(3, 4))
        warm.drop_columns(np.asarray([1.0, 3.0]))
        np.testing.assert_array_equal(
            warm.block, np.arange(12.0).reshape(3, 4)[:, [0, 2]]
        )
