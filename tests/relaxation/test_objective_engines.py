"""Batched complaint objective vs the interpreted oracle: equivalence."""

import numpy as np
import pytest

from repro.complaints import PredictionComplaint, TupleComplaint, ValueComplaint
from repro.errors import RelaxationError
from repro.relational import Database, Executor, Relation, plan_sql
from repro.relaxation import RelaxedComplaintObjective

from oracles import InterpretedObjective, TreeExecutor


@pytest.fixture()
def count_db(fitted_binary_model):
    rng = np.random.default_rng(23)
    db = Database()
    db.add_relation(
        Relation(
            "R",
            {
                "features": rng.normal(size=(20, 4)),
                "grp": np.asarray([0, 1] * 10),
            },
        )
    )
    db.add_model("m", fitted_binary_model)
    return db


def run_query(db, sql, provenance):
    executor = TreeExecutor(db) if provenance == "tree" else Executor(db)
    return executor.execute(plan_sql(sql, db), debug=True)


COMPLAINT_SETS = {
    "count": [ValueComplaint(column="count", op="=", value=3.0, row_index=0)],
    "avg_by_group": [
        ValueComplaint(column="mean", op="=", value=0.5, group_key=(0,)),
        ValueComplaint(column="mean", op="<=", value=0.9, group_key=(1,)),
    ],
    "mixed": [
        ValueComplaint(column="count", op="=", value=3.0, row_index=0),
        PredictionComplaint(relation_name="R", row_id=2, label=1),
    ],
}

QUERIES = {
    "count": "SELECT COUNT(*) FROM R WHERE predict(features) = 1",
    "avg_by_group": (
        "SELECT grp, AVG(predict(features)) AS mean FROM R GROUP BY grp"
    ),
    "mixed": "SELECT COUNT(*) FROM R WHERE predict(features) = 1",
}


@pytest.mark.parametrize("case", sorted(COMPLAINT_SETS))
def test_engines_agree_on_value_and_gradient(count_db, case):
    complaints = COMPLAINT_SETS[case]
    result = run_query(count_db, QUERIES[case], "compiled")
    compiled = RelaxedComplaintObjective(result, complaints)
    interpreted = InterpretedObjective(result, complaints)
    P = compiled.probabilities()
    q_fast, grad_fast = compiled.q_value_and_pgrad(P)
    q_slow, grad_slow = interpreted.q_value_and_pgrad(P)
    assert q_fast == pytest.approx(q_slow, abs=1e-9)
    np.testing.assert_allclose(grad_fast, grad_slow, atol=1e-9)
    np.testing.assert_allclose(
        compiled.q_grad_theta(), interpreted.q_grad_theta(), atol=1e-9
    )


def test_engines_agree_across_result_modes(count_db):
    complaints = COMPLAINT_SETS["count"]
    compiled_result = run_query(count_db, QUERIES["count"], "compiled")
    tree_result = run_query(count_db, QUERIES["count"], "tree")
    fast = RelaxedComplaintObjective(compiled_result, complaints)
    slow = InterpretedObjective(tree_result, complaints)
    with pytest.raises(RelaxationError, match="compiled lineage"):
        RelaxedComplaintObjective(tree_result, complaints)
    assert fast.q_value() == pytest.approx(slow.q_value(), abs=1e-9)
    np.testing.assert_allclose(fast.q_grad_theta(), slow.q_grad_theta(), atol=1e-9)


def test_satisfied_inequality_never_relaxes_its_polynomial(count_db):
    # A satisfied <= complaint on an AVG cell contributes nothing — even at
    # a degenerate P where the relaxed denominator is exactly zero, which
    # would raise if the gated polynomial were evaluated.
    sql = "SELECT AVG(predict(features)) AS mean FROM R WHERE predict(features) = 1"
    result = run_query(count_db, sql, "compiled")
    complaints = [ValueComplaint(column="mean", op="<=", value=10.0, row_index=0)]
    compiled = RelaxedComplaintObjective(result, complaints)
    interpreted = InterpretedObjective(result, complaints)
    P = np.zeros_like(compiled.probabilities())
    P[:, 0] = 1.0  # every site predicts class 0: relaxed COUNT of the group is 0
    q_fast, grad_fast = compiled.q_value_and_pgrad(P)
    q_slow, grad_slow = interpreted.q_value_and_pgrad(P)
    assert q_fast == q_slow == 0.0
    np.testing.assert_array_equal(grad_fast, grad_slow)


def test_tuple_complaint_roots(count_db):
    sql = "SELECT * FROM R WHERE predict(features) = 1"
    result = run_query(count_db, sql, "compiled")
    if len(result.relation) == 0:
        pytest.skip("no output tuples to complain about")
    complaints = [TupleComplaint(row_index=0)]
    compiled = RelaxedComplaintObjective(result, complaints)
    interpreted = InterpretedObjective(result, complaints)
    P = compiled.probabilities()
    q_fast, grad_fast = compiled.q_value_and_pgrad(P)
    q_slow, grad_slow = interpreted.q_value_and_pgrad(P)
    assert q_fast == pytest.approx(q_slow, abs=1e-12)
    np.testing.assert_allclose(grad_fast, grad_slow, atol=1e-12)
