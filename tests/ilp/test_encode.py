"""Tiresias encoder: complaints + provenance → ILP, and reading back fixes."""

import numpy as np
import pytest

from repro.complaints import PredictionComplaint, TupleComplaint, ValueComplaint
from repro.errors import ILPError
from repro.ilp import TiresiasEncoder, enumerate_optima, solve
from repro.relational import Database, Executor, Relation, plan_sql

from oracles.provenance import to_expr


@pytest.fixture()
def count_result(simple_db):
    plan = plan_sql("SELECT COUNT(*) FROM R WHERE predict(*) = 1", simple_db)
    return Executor(simple_db).execute(plan, debug=True)


@pytest.fixture()
def join_result(fitted_multiclass_model):
    rng = np.random.default_rng(31)
    db = Database()
    db.add_relation(Relation("L", {"features": rng.normal(size=(4, 5))}))
    db.add_relation(Relation("R", {"features": rng.normal(size=(4, 5))}))
    db.add_model("m", fitted_multiclass_model)
    plan = plan_sql("SELECT * FROM L, R WHERE predict(L) = predict(R)", db)
    return Executor(db).execute(plan, debug=True)


class TestCountComplaints:
    def test_objective_counts_changes(self, count_result):
        current = count_result.scalar("count")
        encoder = TiresiasEncoder(count_result)
        encoder.add_complaint(
            ValueComplaint(column="count", op="=", value=current + 3, row_index=0)
        )
        solution = solve(encoder.program)
        assert solution.objective == pytest.approx(3.0)
        assert len(encoder.marked_mispredictions(solution)) == 3

    def test_marked_targets_satisfy_complaint(self, count_result):
        current = count_result.scalar("count")
        target = current - 2
        encoder = TiresiasEncoder(count_result)
        encoder.add_complaint(
            ValueComplaint(column="count", op="=", value=target, row_index=0)
        )
        solution = solve(encoder.program)
        targets = encoder.solution_targets(solution)
        poly = to_expr(count_result.pool, count_result.cell_node(0, "count"))
        assert poly.evaluate(targets) == pytest.approx(target)

    def test_inequality_complaint(self, count_result):
        current = count_result.scalar("count")
        encoder = TiresiasEncoder(count_result)
        encoder.add_complaint(
            ValueComplaint(column="count", op=">=", value=current + 2, row_index=0)
        )
        solution = solve(encoder.program)
        assert solution.objective == pytest.approx(2.0)

    def test_satisfied_complaint_marks_nothing(self, count_result):
        current = count_result.scalar("count")
        encoder = TiresiasEncoder(count_result)
        encoder.add_complaint(
            ValueComplaint(column="count", op="=", value=current, row_index=0)
        )
        solution = solve(encoder.program)
        assert encoder.marked_mispredictions(solution) == []

    def test_ambiguity_matches_combinatorics(self, count_result):
        from math import comb

        current = int(count_result.scalar("count"))
        n_rows = len(count_result.runtime.sites)
        encoder = TiresiasEncoder(count_result)
        encoder.add_complaint(
            ValueComplaint(column="count", op="=", value=current + 2, row_index=0)
        )
        solutions = enumerate_optima(encoder.program, max_solutions=2000)
        assert len(solutions) == comb(n_rows - current, 2)


class TestPredictionComplaints:
    def test_point_complaint_pins_site(self, count_result):
        site = count_result.runtime.sites[0]
        current = count_result.runtime.prediction_for_site(site.key)
        flipped = 1 - int(current)
        encoder = TiresiasEncoder(count_result)
        encoder.add_complaint(PredictionComplaint("R", site.row_id, flipped))
        solution = solve(encoder.program)
        marked = encoder.marked_mispredictions(solution)
        assert (site.site_id, flipped) in marked

    def test_unknown_class_raises(self, count_result):
        site = count_result.runtime.sites[0]
        encoder = TiresiasEncoder(count_result)
        with pytest.raises(ILPError, match="not a class"):
            encoder.add_complaint(PredictionComplaint("R", site.row_id, 42))


class TestTupleComplaints:
    def test_join_tuple_complaint_resolvable(self, join_result):
        if len(join_result.relation) == 0:
            pytest.skip("no join outputs under this seed")
        encoder = TiresiasEncoder(join_result)
        encoder.add_complaint(TupleComplaint(row_index=0))
        solution = solve(encoder.program)
        targets = encoder.solution_targets(solution)
        condition = to_expr(join_result.pool, join_result.tuple_condition_node(0))
        assert not condition.evaluate(targets)
        assert solution.objective >= 1.0

    def test_multiple_tuple_complaints(self, join_result):
        n = len(join_result.relation)
        if n < 2:
            pytest.skip("need at least two join outputs")
        encoder = TiresiasEncoder(join_result)
        encoder.add_complaints([TupleComplaint(row_index=i) for i in range(n)])
        solution = solve(encoder.program)
        targets = encoder.solution_targets(solution)
        for i in range(n):
            node = join_result.tuple_condition_node(i)
            assert not to_expr(join_result.pool, node).evaluate(targets)


class TestAvgComplaints:
    def test_avg_cross_multiplied(self, simple_db):
        plan = plan_sql("SELECT AVG(predict(*)) FROM R", simple_db)
        result = Executor(simple_db).execute(plan, debug=True)
        current = result.scalar("avg")
        n = 25
        target = (round(current * n) + 2) / n
        encoder = TiresiasEncoder(result)
        encoder.add_complaint(
            ValueComplaint(column="avg", op="=", value=target, row_index=0)
        )
        solution = solve(encoder.program)
        targets = encoder.solution_targets(solution)
        poly = to_expr(result.pool, result.cell_node(0, "avg"))
        assert poly.evaluate(targets) == pytest.approx(target)
        assert solution.objective == pytest.approx(2.0)


class TestEncoderValidation:
    def test_requires_debug_result(self, simple_db):
        plan = plan_sql("SELECT COUNT(*) FROM R WHERE predict(*) = 1", simple_db)
        result = Executor(simple_db).execute(plan, debug=False)
        with pytest.raises(ILPError, match="debug"):
            TiresiasEncoder(result)

    def test_requires_model_inference(self, simple_db):
        plan = plan_sql("SELECT COUNT(*) FROM R", simple_db)
        result = Executor(simple_db).execute(plan, debug=True)
        with pytest.raises(ILPError, match="no model inference"):
            TiresiasEncoder(result)
