"""The sharded serving layer's determinism contract.

The hard rule under test: **worker count never changes the answer.**
Sharded runs (2 and 4 workers) must replay serial execution bit-for-bit
— removal order, per-iteration removal sets, satisfied flags, stop
reason, final fitted parameters — which the shared ``DeterminismHarness``
fixture pins over methods × datasets and through the loop's early exits
(``stop_when_satisfied``, ``no_signal``).  The per-iteration plan cache
must execute each distinct plan exactly once, and the shard bookkeeping
helpers must be worker-invariant pure functions.
"""

import numpy as np
import pytest

from repro.complaints import ComplaintCase, ValueComplaint
from repro.core import RainDebugger, WarmStartState
from repro.core.sharding import (
    execute_cases,
    resolve_workers,
    run_sharded,
    spawn_generators,
)
from repro.errors import DebuggingError
from repro.experiments.common import build_dblp_setting
from repro.experiments.fig8_multiquery import build_adult_setting
from repro.experiments.serving import build_serving_setting
from repro.relational import Executor, plan_sql
from repro.relational.algebra import plan_fingerprint
from repro.relational.executor import ExecutionCache


# One module-level SeedSequence; every consumer spawns its own child
# stream.  Module-level literal seeds previously aliased RNG streams
# across the thread-pool tests (the setting builder, the debugger run
# RNG, and the serving workload all drew from seed 0), which is exactly
# the kind of accidental coupling the sharded layer's own
# ``spawn_generators`` exists to prevent.
MODULE_SEED = np.random.SeedSequence(987654321)


def _spawned_seed(child: np.random.SeedSequence) -> int:
    return int(child.generate_state(1)[0] % 2**31)


@pytest.fixture(scope="module")
def seed_streams():
    setting_ss, debugger_ss, serving_ss = MODULE_SEED.spawn(3)
    return {
        "setting": _spawned_seed(setting_ss),
        "debugger": _spawned_seed(debugger_ss),
        "serving": _spawned_seed(serving_ss),
    }


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


def run_debugger(setting, cases, n_workers, method="holistic", rk=None,
                 max_removals=20, initial_params=None, rng=0):
    if initial_params is not None:
        setting.model.set_params(initial_params)
    debugger = RainDebugger(
        setting.database, "income", setting.X_train, setting.y_corrupted,
        cases, method=method, rng=rng, ranker_kwargs=dict(rk or {}),
        n_workers=n_workers,
    )
    return debugger.run(max_removals=max_removals, k_per_iteration=10)


class TestShardedEqualsSerial:
    """Removal orders are identical at every worker count."""

    def test_holistic_two_and_four_workers(self, adult_setting, seed_streams):
        setting = adult_setting
        cases = [setting.gender_case, setting.age_case]
        rng = seed_streams["debugger"]
        initial = setting.model.get_params()
        serial = run_debugger(setting, cases, 0, initial_params=initial, rng=rng)
        assert serial.removal_order  # non-degenerate workload
        for n_workers in (2, 4):
            sharded = run_debugger(
                setting, cases, n_workers, initial_params=initial, rng=rng
            )
            assert sharded.removal_order == serial.removal_order, n_workers

    def test_twostep_sharded_rng_stays_in_case_order(
        self, adult_setting, seed_streams
    ):
        setting = adult_setting
        cases = [setting.gender_case, setting.age_case]
        rng = seed_streams["debugger"]
        rk = {"ambiguity_cap": 3, "node_limit": 200, "time_limit": None}
        initial = setting.model.get_params()
        serial = run_debugger(
            setting, cases, 0, method="twostep", rk=rk,
            max_removals=10, initial_params=initial, rng=rng,
        )
        sharded = run_debugger(
            setting, cases, 2, method="twostep", rk=rk,
            max_removals=10, initial_params=initial, rng=rng,
        )
        assert sharded.removal_order == serial.removal_order
        assert (
            [r.diagnostics.get("ambiguity") for r in sharded.iterations]
            == [r.diagnostics.get("ambiguity") for r in serial.iterations]
        )

    def test_smoke_two_workers_serving_setting(self, seed_streams):
        """Fast tier-1 smoke: the full serving workload at n_workers=2."""
        setting = build_serving_setting(
            0.5, n_train=120, n_query=300, seed=seed_streams["serving"]
        )
        initial = setting.model.get_params()
        sharded = run_debugger(
            setting, setting.cases, 2, max_removals=10, initial_params=initial
        )
        serial = run_debugger(
            setting, setting.cases, 0, max_removals=10, initial_params=initial
        )
        assert sharded.removal_order == serial.removal_order
        cache = sharded.iterations[0].diagnostics["execute_cache"]
        assert cache["n_distinct_plans"] == 2
        assert cache["cache_misses"] == 2
        assert cache["cache_hits"] == len(setting.cases)


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
    """Sharded runs at 2/4 workers replay serial execution bit-for-bit."""

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
        # from iteration one, so every variant must stop without removing.
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

    def test_no_signal_stops_every_variant(self, determinism_harness, seed_streams):
        setting = build_dblp_setting(
            0.5, n_train=40, n_query=60, seed=seed_streams["setting"]
        )
        # Identical rows + identical labels: every per-sample loss ties,
        # so the ranker has no signal and no variant may remove
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


class TestExecutionCache:
    def test_same_plan_executes_once(self, adult_setting):
        database = adult_setting.database
        executor = Executor(database)
        plan_a = plan_sql(
            "SELECT AVG(predict(*)) FROM adult GROUP BY gender", database
        )
        plan_b = plan_sql(
            "SELECT AVG(predict(*)) FROM adult GROUP BY gender", database
        )
        assert plan_a is not plan_b
        cache = ExecutionCache(executor)
        result_a = cache.fetch(plan_a)
        result_b = cache.fetch(plan_b)
        assert result_a is result_b
        assert cache.stats() == {"hits": 1, "misses": 1}
        # The shared pool is frozen exactly once and reused.
        assert result_a.pool.frozen() is result_b.pool.frozen()

    def test_tree_mode_never_caches(self, adult_setting):
        executor = Executor(adult_setting.database)
        plan = plan_sql(
            "SELECT AVG(predict(*)) FROM adult GROUP BY gender",
            adult_setting.database,
        )
        cache = ExecutionCache(executor, provenance="tree")
        assert cache.fetch(plan) is not cache.fetch(plan)
        assert cache.hits == 0 and cache.misses == 2

    def test_execute_cases_dedups_and_keeps_case_order(self, adult_setting):
        setting = adult_setting
        executor = Executor(setting.database)
        cases = [setting.gender_case, setting.age_case, setting.gender_case]
        plans = [plan_sql(case.query, setting.database) for case in cases]
        case_results, stats = execute_cases(
            executor, cases, plans, "compiled", n_workers=2
        )
        assert [case for case, _ in case_results] == cases
        assert case_results[0][1] is case_results[2][1]
        assert case_results[0][1] is not case_results[1][1]
        assert stats.n_distinct_plans == 2
        assert stats.cache_misses == 2
        assert stats.cache_hits == 3


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


class TestShardHelpers:
    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(0) == 0
        assert resolve_workers(4) == 4
        monkeypatch.delenv("REPRO_N_WORKERS", raising=False)
        assert resolve_workers(None) == 0
        monkeypatch.setenv("REPRO_N_WORKERS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.setenv("REPRO_N_WORKERS", "nope")
        with pytest.raises(DebuggingError):
            resolve_workers(None)
        with pytest.raises(DebuggingError):
            resolve_workers(-1)

    def test_tree_provenance_pins_serial(self, adult_setting):
        setting = adult_setting
        debugger = RainDebugger(
            setting.database, "income", setting.X_train, setting.y_corrupted,
            [setting.gender_case], method="holistic", rng=0,
            provenance="tree", n_workers=4,
        )
        assert debugger.n_workers == 0

    def test_run_sharded_ordered_merge(self):
        items = list(range(20))
        assert run_sharded(lambda x: x * x, items, 4) == [
            x * x for x in items
        ]
        assert run_sharded(lambda x: x * x, items, 0) == [
            x * x for x in items
        ]

    def test_spawn_generators_worker_invariant(self):
        draws_a = [g.integers(1000) for g in spawn_generators(7, 4)]
        draws_b = [g.integers(1000) for g in reversed(spawn_generators(7, 4))]
        assert draws_a == list(reversed(draws_b))


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
