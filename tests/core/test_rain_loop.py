"""The RainDebugger train-rank-fix loop and ranker behaviours."""

import itertools
import types

import numpy as np
import pytest

from repro.complaints import ComplaintCase, PredictionComplaint, ValueComplaint
from repro.core import RainDebugger, make_ranker
from repro.core.rankers import (
    HolisticRanker,
    InfLossRanker,
    LossRanker,
    TwoStepRanker,
)
from repro.errors import DebuggingError
from repro.influence.functions import q_grad_for_target_predictions
from repro.ml import LogisticRegression
from repro.relational import Database, Executor, Relation
from repro.relational.sql import plan_sql

from oracles import tree_reference


@pytest.fixture()
def debug_setting():
    """A setting where a contiguous block of labels is corrupted."""
    rng = np.random.default_rng(42)
    n, d = 120, 6
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y_clean = (X @ w > 0).astype(int)
    y = y_clean.copy()
    # Systematic corruption: flip 20 records that are truly class 1.
    ones = np.flatnonzero(y_clean == 1)
    corrupted = ones[:20]
    y[corrupted] = 0

    model = LogisticRegression((0, 1), n_features=d, l2=1e-2)
    model.fit(X, y, warm_start=False)

    X_query = rng.normal(size=(60, d))
    y_query_true = (X_query @ w > 0).astype(int)
    db = Database()
    db.add_relation(Relation("Q", {"features": X_query}))
    db.add_model("m", model)
    sql = "SELECT COUNT(*) FROM Q WHERE predict(*) = 1"
    case = ComplaintCase(
        sql,
        [ValueComplaint(column="count", op="=",
                        value=int(y_query_true.sum()), row_index=0)],
    )
    return db, model, X, y, corrupted, case


class TestFactory:
    def test_known_methods(self):
        assert isinstance(make_ranker("loss"), LossRanker)
        assert isinstance(make_ranker("infloss"), InfLossRanker)
        assert isinstance(make_ranker("twostep"), TwoStepRanker)
        assert isinstance(make_ranker("holistic"), HolisticRanker)

    def test_unknown_method_raises(self):
        with pytest.raises(DebuggingError, match="unknown method"):
            make_ranker("magic")

    def test_kwargs_passed(self):
        ranker = make_ranker("twostep", ambiguity_cap=7)
        assert ranker.ambiguity_cap == 7

    @pytest.mark.parametrize("cap", [0, -3])
    def test_twostep_rejects_ambiguity_cap_below_one(self, cap):
        with pytest.raises(DebuggingError, match="ambiguity_cap"):
            make_ranker("twostep", ambiguity_cap=cap)

    @pytest.mark.parametrize("node_limit", [0, -3])
    def test_twostep_rejects_node_limit_below_one(self, node_limit):
        with pytest.raises(DebuggingError, match="node_limit"):
            make_ranker("twostep", node_limit=node_limit)

    @pytest.mark.parametrize("time_limit", [0.0, -1.0])
    def test_twostep_rejects_non_positive_time_limit(self, time_limit):
        with pytest.raises(DebuggingError, match="time_limit"):
            make_ranker("twostep", time_limit=time_limit)


class TestDebuggerValidation:
    def test_complaint_methods_need_cases(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        with pytest.raises(DebuggingError, match="complaint"):
            RainDebugger(db, "m", X, y, [], method="holistic")

    def test_loss_without_cases_allowed(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [], method="loss")
        report = debugger.run(max_removals=10)
        assert len(report.removal_order) == 10

    def test_mismatched_shapes_raise(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        with pytest.raises(DebuggingError, match="rows"):
            RainDebugger(db, "m", X, y[:-1], [case])

    def test_bad_query_type_raises(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        bad = ComplaintCase.__new__(ComplaintCase)
        bad.query = 123
        bad.complaints = case.complaints
        with pytest.raises(DebuggingError, match="SQL text or a Plan"):
            RainDebugger(db, "m", X, y, [bad])

    def test_bad_budget_raises(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [case], method="holistic")
        with pytest.raises(DebuggingError):
            debugger.run(max_removals=0)
        with pytest.raises(DebuggingError):
            debugger.run(max_removals=10, k_per_iteration=-1)


class TestLoop:
    def test_holistic_finds_corruptions(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0)
        report = debugger.run(max_removals=20, k_per_iteration=5)
        assert report.method == "holistic"
        assert report.auccr(corrupted) > 0.6

    def test_holistic_beats_loss(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        theta = model.get_params()
        holistic = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=20, k_per_iteration=5
        )
        model.set_params(theta)
        loss = RainDebugger(db, "m", X, y, [case], method="loss", rng=0).run(
            max_removals=20, k_per_iteration=5
        )
        assert holistic.auccr(corrupted) > loss.auccr(corrupted)

    def test_removal_order_unique_and_valid(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        report = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=15, k_per_iteration=4
        )
        assert len(set(report.removal_order)) == len(report.removal_order)
        assert all(0 <= i < len(X) for i in report.removal_order)

    def test_iteration_records_and_timings(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        report = RainDebugger(db, "m", X, y, [case], method="holistic", rng=0).run(
            max_removals=10, k_per_iteration=5
        )
        assert len(report.iterations) >= 2
        for record in report.iterations:
            if record.removed:
                assert set(record.timings) >= {"train", "execute", "encode", "rank"}
        assert report.timings["train"] > 0

    def test_stop_when_satisfied(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        current = None
        # Complain about the *current* value: satisfied immediately.
        from repro.relational import Executor, plan_sql

        result = Executor(db).execute(plan_sql(case.query, db), debug=True)
        current = result.scalar("count")
        satisfied_case = ComplaintCase(
            case.query,
            [ValueComplaint(column="count", op="=", value=current, row_index=0)],
        )
        debugger = RainDebugger(
            db, "m", X, y, [satisfied_case], method="holistic",
            stop_when_satisfied=True, rng=0,
        )
        report = debugger.run(max_removals=50)
        assert report.stopped_reason == "complaints_satisfied"
        assert report.removal_order == []

    @pytest.mark.parametrize("stop", ["no_signal", "complaints_satisfied"])
    def test_terminal_iteration_timings_sum_to_report(self, debug_setting, stop):
        db, model, X, y, corrupted, case = debug_setting
        if stop == "no_signal":
            # Identical rows + identical labels: every loss ties.
            debugger = RainDebugger(
                db, "m", np.zeros_like(X), np.ones_like(y), [case],
                method="loss", rng=0,
            )
        else:
            # COUNT(*) over 60 rows never exceeds 60: satisfied at once.
            vacuous = ComplaintCase(
                case.query,
                [ValueComplaint(column="count", op="<=", value=60, row_index=0)],
            )
            debugger = RainDebugger(
                db, "m", X, y, [vacuous], method="holistic",
                stop_when_satisfied=True, rng=0,
            )
        report = debugger.run(max_removals=20)
        assert report.stopped_reason == stop
        assert report.iterations[-1].timings
        for label, total in report.timings.items():
            summed = sum(record.timings.get(label, 0.0) for record in report.iterations)
            assert summed == pytest.approx(total), label

    def test_twostep_runs(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(
            db, "m", X, y, [case], method="twostep", rng=0,
            ranker_kwargs={
                "ambiguity_cap": 2, "node_limit": 200, "time_limit": None,
            },
        )
        report = debugger.run(max_removals=10, k_per_iteration=5)
        assert report.method == "twostep"
        assert len(report.removal_order) > 0
        diagnostics = report.iterations[0].diagnostics
        # One ILP case: one optimum count and one exhaustion flag.
        assert len(diagnostics["optima_enumerated"]) == 1
        assert 1 <= diagnostics["optima_enumerated"][0] <= 2
        assert len(diagnostics["enumeration_exhausted"]) == 1

    def test_auto_prefers_holistic_for_ambiguous_count(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(db, "m", X, y, [case], method="auto", rng=0)
        assert debugger.choose_method() == "holistic"

    def test_auto_prefers_twostep_for_unique_fix(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        # A point complaint has a unique fix → TwoStep.
        result_site_row = 0
        point_case = ComplaintCase(
            case.query, [PredictionComplaint("Q", result_site_row, 1)]
        )
        debugger = RainDebugger(db, "m", X, y, [point_case], method="auto", rng=0)
        assert debugger.choose_method() == "twostep"

    def test_infloss_runs_small(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(
            db, "m", X, y, [case], method="infloss", rng=0,
            ranker_kwargs={"max_records": 30},
        )
        report = debugger.run(max_removals=5, k_per_iteration=5)
        assert len(report.removal_order) == 5

    def test_exhausting_training_set(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        small_X, small_y = X[:12], y[:12]
        report = RainDebugger(
            db, "m", small_X, small_y, [case], method="loss", rng=0
        ).run(max_removals=12, k_per_iteration=5)
        assert report.stopped_reason in ("exhausted", "budget")
        assert len(report.removal_order) == 12

    def test_multiple_cases_combined(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        report = RainDebugger(
            db, "m", X, y, [case, case], method="holistic", rng=0
        ).run(max_removals=10, k_per_iteration=5)
        assert len(report.removal_order) == 10

    def test_timing_totals_cover_every_stage(self, debug_setting):
        db, model, X, y, corrupted, case = debug_setting
        report = RainDebugger(
            db, "m", X, y, [case], method="holistic", rng=0,
        ).run(max_removals=10, k_per_iteration=5)
        for label in ("train", "execute", "rank"):
            assert report.timings.get(label, 0.0) > 0.0, label


def _second_query_case(db):
    """A case over a different plan than ``debug_setting``'s query."""
    sql = "SELECT COUNT(*) FROM Q WHERE predict(*) = 0"
    n_query = len(db.relation("Q"))
    return ComplaintCase(
        sql,
        [ValueComplaint(column="count", op="<=", value=n_query, row_index=0)],
    )


class TestLoopFailures:
    def test_executor_failure_propagates(self, debug_setting, monkeypatch):
        db, model, X, y, corrupted, case = debug_setting
        debugger = RainDebugger(
            db, "m", X, y, [case, _second_query_case(db)],
            method="holistic", rng=0,
        )

        def boom(*args, **kwargs):
            raise RuntimeError("executor down")

        monkeypatch.setattr(debugger.executor, "execute", boom)
        with pytest.raises(RuntimeError, match="executor down"):
            debugger.run(max_removals=10)


class TestTwoStepSharedPlan:
    """Two TwoStep cases over one plan read one shared result object."""

    # The removal order of this session before cases could share a result.
    PINNED = [39, 17, 12, 30, 56, 25, 14, 9, 38, 51, 32, 28, 36, 10, 6,
              23, 41, 2, 45, 20, 115, 7, 69, 85, 24, 26, 77, 40, 15, 79]

    def _setting(self, debug_setting):
        """One COUNT complaint per predicted-class group of one query."""
        db, model, X, y, corrupted, case = debug_setting
        true_ones = case.complaints[0].value
        true_counts = {1: true_ones, 0: len(db.relation("Q")) - true_ones}
        sql = "SELECT COUNT(*) FROM Q GROUP BY predict(*)"
        cases = [
            ComplaintCase(
                sql,
                [ValueComplaint(column="count", op="=", value=true_counts[label],
                                group_key=(label,))],
            )
            for label in (1, 0)
        ]
        return db, X, y, cases

    def test_removal_order_is_pinned(self, debug_setting):
        db, X, y, cases = self._setting(debug_setting)
        debugger = RainDebugger(db, "m", X, y, cases, method="twostep", rng=0)
        report = debugger.run(max_removals=30, k_per_iteration=5)
        assert report.removal_order == self.PINNED
        assert all(r.diagnostics["n_marked"] > 0 for r in report.iterations)

    def test_q_grad_is_the_per_case_sum(self, debug_setting, monkeypatch):
        db, X, y, cases = self._setting(debug_setting)
        debugger = RainDebugger(db, "m", X, y, cases, method="twostep", rng=0)
        seen = []
        q_grad = TwoStepRanker._q_grad

        def checked(ranker, ctx, marked):
            results = {id(result) for _, result, _, _ in marked}
            positions = sorted({position for position, *_ in marked})
            grad = q_grad(ranker, ctx, marked)
            expected = np.zeros(ctx.model.n_params)
            for position in positions:
                rows = [m for m in marked if m[0] == position]
                expected += q_grad_for_target_predictions(
                    ctx.model,
                    rows[0][1].runtime.features_for_sites([m[2] for m in rows]),
                    np.asarray([m[3] for m in rows], dtype=object),
                )
            np.testing.assert_array_equal(grad, expected)
            seen.append((len(results), positions))
            return grad

        monkeypatch.setattr(TwoStepRanker, "_q_grad", checked)
        debugger.run(max_removals=15, k_per_iteration=5)
        # Both cases mark sites of the one shared result.
        assert seen and all(entry == (1, [0, 1]) for entry in seen)


def _drain_against_oracle(monkeypatch):
    """Wrap the loop's columnar drain; record (columnar, tree oracle) flags."""
    from repro.core import rain

    from oracles.provenance import all_satisfied

    pairs = []
    columnar = rain.all_satisfied

    def checked(case_results):
        flag = columnar(case_results)
        pairs.append((flag, all_satisfied(case_results)))
        return flag

    monkeypatch.setattr(rain, "all_satisfied", checked)
    return pairs


class TestColumnarDrain:
    """The loop's columnar satisfied flag equals the tree-walking oracle."""

    @pytest.mark.parametrize(
        "shape,method,expected",
        [
            ("value", "holistic", False),
            ("vacuous", "loss", True),
            ("prediction", "loss", None),
            ("mixed", "loss", None),
        ],
        ids=["value", "vacuous", "prediction", "mixed"],
    )
    def test_flags_match_tree_oracle(
        self, debug_setting, monkeypatch, shape, method, expected
    ):
        db, model, X, y, corrupted, case = debug_setting
        prediction = ComplaintCase(case.query, [PredictionComplaint("Q", 0, 1)])
        cases = {
            "value": [case],
            "vacuous": [_second_query_case(db)],
            "prediction": [prediction],
            "mixed": [case, _second_query_case(db), prediction],
        }[shape]
        pairs = _drain_against_oracle(monkeypatch)
        report = RainDebugger(
            db, "m", X, y, cases, method=method, rng=0,
        ).run(max_removals=15, k_per_iteration=5)
        assert len(pairs) == len(report.iterations) >= 1
        assert [columnar for columnar, _ in pairs] == [
            oracle for _, oracle in pairs
        ]
        assert [record.complaints_satisfied for record in report.iterations] == [
            oracle for _, oracle in pairs
        ]
        if expected is not None:
            assert all(oracle is expected for _, oracle in pairs)


_TWOSTEP_BUDGET = {"ambiguity_cap": 2, "node_limit": 200, "time_limit": None}


class TestTreeOracleLoop:
    """Full loop on tree provenance (the executor's oracle) equals compiled."""

    @pytest.mark.parametrize(
        "method,ranker_kwargs",
        [("holistic", {}), ("twostep", _TWOSTEP_BUDGET)],
        ids=["holistic", "twostep"],
    )
    def test_removal_orders_match_compiled(
        self, debug_setting, monkeypatch, method, ranker_kwargs
    ):
        db, model, X, y, corrupted, case = debug_setting
        initial = model.get_params()

        def run():
            model.set_params(initial)
            return RainDebugger(
                db, "m", X, y, [case], method=method, rng=0,
                ranker_kwargs=ranker_kwargs,
            ).run(max_removals=15, k_per_iteration=5)

        compiled = run()
        with monkeypatch.context() as patch:
            tree_reference(patch)
            plan = plan_sql(case.query, db)
            assert not Executor(db).execute(plan, debug=True).compiled
            tree = run()
        assert tree.removal_order == compiled.removal_order
        assert len(compiled.removal_order) == 15


def _slow_clock(monkeypatch):
    """Make every solver clock read advance 1,000 s."""
    from repro.ilp import solver

    ticks = itertools.count()
    monkeypatch.setattr(
        solver,
        "time",
        types.SimpleNamespace(perf_counter=lambda: 1000.0 * next(ticks)),
    )


class TestNoWallClockBudget:
    """Library defaults budget branch & bound in nodes, never in seconds."""

    def test_auto_choice_ignores_slow_host(self, debug_setting, monkeypatch):
        db, model, X, y, corrupted, case = debug_setting
        point_case = ComplaintCase(case.query, [PredictionComplaint("Q", 0, 1)])
        _slow_clock(monkeypatch)
        debugger = RainDebugger(db, "m", X, y, [point_case], method="auto", rng=0)
        assert debugger.choose_method() == "twostep"

    def test_twostep_default_budget_ignores_slow_host(
        self, debug_setting, monkeypatch
    ):
        db, model, X, y, corrupted, case = debug_setting
        initial = model.get_params()

        def run():
            model.set_params(initial)
            return RainDebugger(
                db, "m", X, y, [case], method="twostep", rng=0
            ).run(max_removals=10, k_per_iteration=5)

        fast = run()
        with monkeypatch.context() as patch:
            _slow_clock(patch)
            slow = run()
        assert slow.removal_order == fast.removal_order
        assert len(fast.removal_order) == 10

    def test_fig8_run_ignores_slow_host(self, monkeypatch):
        from repro.experiments import fig8_multiquery

        orders = []
        plain_run = RainDebugger.run

        def recording_run(self, *args, **kwargs):
            report = plain_run(self, *args, **kwargs)
            orders[-1].append((report.method, report.removal_order))
            return report

        monkeypatch.setattr(RainDebugger, "run", recording_run)

        def run():
            orders.append([])
            return fig8_multiquery.run(
                flip_fractions=(0.5,), methods=("twostep",),
                n_train=300, n_query=300,
            )

        fast = run()
        with monkeypatch.context() as patch:
            _slow_clock(patch)
            slow = run()
        assert orders[1] == orders[0]
        assert [method for method, _ in orders[0]] == [
            "holistic", "holistic", "twostep"
        ]
        assert all(order for _, order in orders[0])
        assert slow.rows == fast.rows
