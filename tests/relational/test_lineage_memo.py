"""The executor's per-plan lineage memo.

Compiled debug executions build a plan's lineage once per executor and
re-label it on a later call, or return the previous result again while
no model it reads has new parameters.  The oracle here is a fresh
``Executor(db).execute(plan, debug=True)`` at the same model state: full
train-rank-fix loops over six query shapes must see, at every
iteration, the same relation, site labels, evaluated lineage nodes and
drain flag as a fresh execution.  The edge tests pin invalidation (a
replaced relation or model rebuilds the entry) and the growth guard;
the kept-result tests pin when a call returns the previous result, the
shared programs, and that a session's lineage needs no cyclic collector.
"""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.complaints import ComplaintCase, TupleComplaint, ValueComplaint
from repro.complaints.complaint import all_satisfied_columnar
from repro.core import RainDebugger
from repro.errors import ProvenanceError
from repro.data import corrupt_labels, make_adult, section65_predicate
from repro.experiments.common import build_dblp_setting
from repro.experiments.fig8_multiquery import Q6, Q7, build_adult_setting
from repro.ml import LogisticRegression
from repro.relational import Database, Executor, Relation
from repro.relational.compile import TRUE_NODE, CompiledProvenance
from repro.relational.context import QueryRuntime
from repro.relational.sql import plan_sql
from repro.relaxation.objective import RelaxedComplaintObjective


def _corrupted_problem(seed: int, n_query: int):
    """Training data with 20 flipped labels, a fitted model, query rows."""
    rng = np.random.default_rng(seed)
    n, d = 120, 6
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y_clean = (X @ w > 0).astype(int)
    y = y_clean.copy()
    y[np.flatnonzero(y_clean == 1)[:20]] = 0
    model = LogisticRegression((0, 1), n_features=d, l2=1e-2)
    model.fit(X, y, warm_start=False)
    X_query = rng.normal(size=(n_query, d))
    truth = (X_query @ w > 0).astype(int)
    return X, y, model, X_query, truth


def _dblp_count():
    setting = build_dblp_setting(0.5, n_train=150, n_query=150, seed=3)
    return (setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [setting.case])


def _adult_group_by():
    setting = build_adult_setting(0.5, n_train=200, n_query=300, seed=0)
    return (setting.database, "income", setting.X_train, setting.y_corrupted,
            [setting.gender_case, setting.age_case])


def _adult_multi_case():
    """One AVG complaint per group of Q6 and Q7: twelve cases, two plans."""
    ds = make_adult(n_train=120, n_query=300, seed=0)
    predicate = section65_predicate(ds.y_train, ds.age_train, ds.gender_train)
    corruption = corrupt_labels(ds.y_train, predicate, 1, 0.5, rng=1)
    model = LogisticRegression((0, 1), n_features=ds.X_train.shape[1], l2=1e-3)
    model.fit(ds.X_train, corruption.y_corrupted, warm_start=False)
    db = Database()
    db.add_relation(
        Relation(
            "adult",
            {
                "features": ds.X_query,
                "gender": ds.gender_query,
                "agedecade": ds.age_query,
            },
        )
    )
    db.add_model("income", model)
    cases = []
    for query, groups in ((Q6, ds.gender_query), (Q7, ds.age_query)):
        for key in sorted(np.unique(groups).tolist()):
            truth = float(np.mean(ds.y_query[groups == key]))
            cases.append(
                ComplaintCase(
                    query,
                    [ValueComplaint(column="avg", op="=", value=truth,
                                    group_key=(key,))],
                )
            )
    return db, "income", ds.X_train, corruption.y_corrupted, cases


def _predicted_join():
    X, y, model, X_query, truth = _corrupted_problem(5, 40)
    db = Database()
    db.add_relation(Relation("L", {"features": X_query[:20]}))
    db.add_relation(Relation("R", {"features": X_query[20:]}))
    db.add_model("m", model)
    true_count = int(np.sum(truth[:20, None] == truth[None, 20:]))
    case = ComplaintCase(
        "SELECT COUNT(*) FROM L, R WHERE predict(L) = predict(R)",
        [ValueComplaint(column="count", op="=", value=true_count, row_index=0)],
    )
    return db, "m", X, y, [case]


def _spj_tuple():
    X, y, model, X_query, truth = _corrupted_problem(6, 60)
    db = Database()
    db.add_relation(
        Relation("Q", {"features": X_query, "id": np.arange(X_query.shape[0])})
    )
    db.add_model("m", model)
    # The corruption flips 1s to 0s: complain about output tuples the
    # model wrongly predicts as 0.
    predicted = np.asarray(model.predict(X_query))
    wrong = np.flatnonzero((predicted == 0) & (truth == 1))[:3]
    assert wrong.size
    case = ComplaintCase(
        "SELECT id FROM Q WHERE predict(*) = 0",
        [TupleComplaint.for_lineage(Q=int(row)) for row in wrong],
    )
    return db, "m", X, y, [case]


def _group_by_predict():
    X, y, model, X_query, truth = _corrupted_problem(7, 60)
    db = Database()
    db.add_relation(Relation("Q", {"features": X_query}))
    db.add_model("m", model)
    case = ComplaintCase(
        "SELECT COUNT(*) FROM Q GROUP BY predict(*)",
        [ValueComplaint(column="count", op="=", value=int(truth.sum()),
                        group_key=(1,))],
    )
    return db, "m", X, y, [case]


SHAPES = {
    "dblp-count": _dblp_count,
    "adult-group-by": _adult_group_by,
    "adult-multi-case": _adult_multi_case,
    "predicted-join": _predicted_join,
    "spj-tuple": _spj_tuple,
    "group-by-predict": _group_by_predict,
}


def _lineage_nodes(result) -> np.ndarray:
    if result.is_aggregate:
        nodes = [group.condition_node for group in result.groups]
        for group in result.groups:
            nodes.extend(group.cell_nodes[name] for name in sorted(group.cell_nodes))
        return np.asarray(nodes, dtype=np.int64)
    return np.asarray(result.candidate_cond_nodes, dtype=np.int64)


def _node_values(result) -> np.ndarray:
    program = CompiledProvenance(result.pool, _lineage_nodes(result))
    return program.evaluate_labels(result.runtime.site_label_ids(result.pool))


def _assert_matches_fresh(result, fresh, case) -> None:
    assert result.relation.column_names == fresh.relation.column_names
    for name in fresh.relation.column_names:
        np.testing.assert_array_equal(
            result.relation.column(name), fresh.relation.column(name)
        )
    assert result.runtime.site_labels().tolist() == fresh.runtime.site_labels().tolist()
    assert len(result.pool) == len(fresh.pool)
    np.testing.assert_array_equal(_lineage_nodes(result), _lineage_nodes(fresh))
    np.testing.assert_array_equal(_node_values(result), _node_values(fresh))
    assert all_satisfied_columnar([(case, result)]) == all_satisfied_columnar(
        [(case, fresh)]
    )


def _relation_signature(result) -> tuple:
    return tuple(
        (name, repr(result.relation.column(name).tolist()))
        for name in result.relation.column_names
    )


class TestMemoMatchesFreshExecution:
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_every_iteration_equals_fresh_execute(self, shape, monkeypatch):
        db, model_name, X, y, cases = SHAPES[shape]()
        debugger = RainDebugger(
            db, model_name, X, y, cases, method="holistic", rng=0
        )
        case_of_plan = {
            id(plan): case for case, plan in zip(debugger.cases, debugger._plans)
        }
        memo_execute = debugger.executor.execute
        outputs: dict[int, list[tuple]] = {}
        calls = []

        def checked(plan, debug=False, provenance="compiled"):
            result = memo_execute(plan, debug=debug, provenance=provenance)
            fresh = Executor(db).execute(plan, debug=True)
            _assert_matches_fresh(result, fresh, case_of_plan[id(plan)])
            outputs.setdefault(id(plan), []).append(_relation_signature(result))
            calls.append(plan)
            return result

        monkeypatch.setattr(debugger.executor, "execute", checked)
        report = debugger.run(max_removals=40, k_per_iteration=5)

        assert len(report.iterations) >= 3
        assert len(calls) == len(cases) * len(report.iterations)
        assert debugger.executor.lineage_hits > 0
        # The labels really move: some output differs between iterations.
        assert any(len(set(seen)) > 1 for seen in outputs.values())

    def test_iteration_records_lineage_reuse(self, monkeypatch):
        db, model_name, X, y, cases = _adult_multi_case()
        assert (len(cases), len({case.query for case in cases})) == (12, 2)
        probabilities = RelaxedComplaintObjective.probabilities
        calls = []

        def counted(objective):
            calls.append(objective)
            return probabilities(objective)

        monkeypatch.setattr(RelaxedComplaintObjective, "probabilities", counted)
        report = RainDebugger(
            db, model_name, X, y, cases, method="holistic", rng=0,
        ).run(max_removals=20, k_per_iteration=5)
        first, *later = [record.diagnostics["lineage"] for record in report.iterations]
        assert first == {"hits": 10, "misses": 2}
        assert later and all(entry == {"hits": 12, "misses": 0} for entry in later)
        # One probability matrix per plan and iteration, shared by its cases.
        assert len(calls) == 2 * len(report.iterations)


def _count_case(plan) -> ComplaintCase:
    return ComplaintCase(
        plan, [ValueComplaint(column="count", op=">=", value=1, row_index=0)]
    )


@pytest.fixture()
def count_db(simple_db):
    plan = plan_sql("SELECT COUNT(*) FROM R WHERE predict(*) = 1", simple_db)
    return simple_db, plan


class TestMemoEdges:
    def test_result_keeps_its_own_labels(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        first = executor.execute(plan, debug=True)
        labels = first.runtime.site_labels().tolist()
        count = first.scalar()
        model = db.model("m")
        model.set_params(-model.get_params())  # flips every prediction
        second = executor.execute(plan, debug=True)
        assert (executor.lineage_hits, executor.lineage_misses) == (1, 1)
        assert second.pool is first.pool
        assert second.runtime is not first.runtime
        assert first.runtime.site_labels().tolist() == labels
        assert first.scalar() == count
        assert second.scalar() == len(db.relation("R")) - count
        assert _relation_signature(second) == _relation_signature(
            Executor(db).execute(plan, debug=True)
        )

    def test_replaced_relation_rebuilds(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        before = executor.execute(plan, debug=True)
        old = db.relation("R")
        db.add_relation(
            Relation("R", {name: values[:10] for name, values in old.columns.items()})
        )
        after = executor.execute(plan, debug=True)
        assert executor.lineage_misses == 2
        assert after.pool is not before.pool
        fresh = Executor(db).execute(plan, debug=True)
        _assert_matches_fresh(after, fresh, _count_case(plan))
        assert len(after.runtime.sites) == 10

    def test_replaced_model_rebuilds(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        before = executor.execute(plan, debug=True)
        old = db.model("m")
        flipped = copy.deepcopy(old)
        flipped.set_params(-old.get_params())
        db.add_model("m", flipped)
        after = executor.execute(plan, debug=True)
        assert executor.lineage_misses == 2
        assert after.pool is not before.pool
        fresh = Executor(db).execute(plan, debug=True)
        _assert_matches_fresh(after, fresh, _count_case(plan))
        assert after.scalar() != before.scalar()

    def test_relabelled_runtimes_share_site_features(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        first = executor.execute(plan, debug=True)
        second = executor.execute(plan, debug=True)
        shared = first.runtime.site_features()
        assert second.runtime.site_features() is shared
        assert executor.execute(plan, debug=True).runtime.site_features() is shared
        np.testing.assert_array_equal(
            shared, Executor(db).execute(plan, debug=True).runtime.site_features()
        )
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 1.0
        objective = RelaxedComplaintObjective(second, _count_case(plan).complaints)
        assert objective.X_sites is shared

    def test_grown_pool_raises_on_next_hit(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        result = executor.execute(plan, debug=True)
        result.pool.const_num(np.asarray([1.0]))
        with pytest.raises(ProvenanceError, match="modified after execution"):
            executor.execute(plan, debug=True)

    def test_interned_site_raises_on_next_hit(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        executor.execute(plan, debug=True)
        result = executor.execute(plan, debug=True)  # a relabelled hit
        features = db.relation("R").column("features")
        result.runtime.intern_sites("m", "R", np.asarray([100]), features[:1])
        with pytest.raises(ProvenanceError, match="modified after execution"):
            executor.execute(plan, debug=True)

    def test_concrete_and_tree_runs_bypass_the_memo(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        executor.execute(plan)
        executor.execute(plan, debug=True, provenance="tree")
        assert (executor.lineage_hits, executor.lineage_misses) == (0, 0)

    def test_projected_prediction_is_executed_each_call(self, simple_db):
        plan = plan_sql("SELECT id, predict(*) FROM R WHERE flag = 1", simple_db)
        executor = Executor(simple_db)
        executor.execute(plan, debug=True)
        model = simple_db.model("m")
        model.set_params(-model.get_params())
        result = executor.execute(plan, debug=True)
        assert (executor.lineage_hits, executor.lineage_misses) == (0, 2)
        fresh = Executor(simple_db).execute(plan, debug=True)
        assert _relation_signature(result) == _relation_signature(fresh)


class TestKeptResult:
    """A call under unchanged parameters returns the previous result."""

    def test_unchanged_models_return_the_same_result(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        first = executor.execute(plan, debug=True)
        assert executor.execute(plan, debug=True) is first
        assert executor.execute(plan, debug=True) is first
        assert (executor.lineage_hits, executor.lineage_misses) == (2, 1)

    def test_fit_returns_a_new_result(self, count_db, binary_problem):
        db, plan = count_db
        executor = Executor(db)
        first = executor.execute(plan, debug=True)
        X, y = binary_problem
        db.model("m").fit(X[:40], 1 - y[:40], warm_start=True)
        second = executor.execute(plan, debug=True)
        assert second is not first
        _assert_matches_fresh(second, Executor(db).execute(plan, debug=True),
                              _count_case(plan))
        assert executor.execute(plan, debug=True) is second

    def test_set_params_returns_a_new_result(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        first = executor.execute(plan, debug=True)
        model = db.model("m")
        # The same values in a new array still count as a new state.
        model.set_params(model.get_params())
        second = executor.execute(plan, debug=True)
        assert second is not first
        _assert_matches_fresh(second, Executor(db).execute(plan, debug=True),
                              _count_case(plan))
        model.set_params(-model.get_params())
        third = executor.execute(plan, debug=True)
        assert third is not second
        _assert_matches_fresh(third, Executor(db).execute(plan, debug=True),
                              _count_case(plan))
        assert third.scalar() == len(db.relation("R")) - second.scalar()

    def test_results_of_one_lineage_share_programs(self, count_db):
        db, plan = count_db
        executor = Executor(db)
        first = executor.execute(plan, debug=True)
        model = db.model("m")
        model.set_params(-model.get_params())
        second = executor.execute(plan, debug=True)
        roots = np.asarray([first.cell_node(0, "count")])
        program = first.program(roots)
        assert second.program(roots) is program
        assert first.program(roots.copy()) is program
        assert first.program(np.asarray([TRUE_NODE])) is not program
        fresh = Executor(db).execute(plan, debug=True)
        assert fresh.program(roots) is not program
        complaints = [ValueComplaint(column="count", op="=", value=3, row_index=0)]
        for result in (first, second):
            objective = RelaxedComplaintObjective(result, complaints)
            assert objective._program is program

    def test_adult_session_labels_each_plan_once_per_fit(self, monkeypatch):
        db, model_name, X, y, cases = _adult_multi_case()
        relabeled = QueryRuntime.relabeled
        calls = []

        def counted(runtime):
            calls.append(runtime)
            return relabeled(runtime)

        monkeypatch.setattr(QueryRuntime, "relabeled", counted)
        debugger = RainDebugger(db, model_name, X, y, cases, method="holistic",
                                rng=0)
        report = debugger.run(max_removals=80, k_per_iteration=10)
        assert len(report.iterations) == 8
        executor = debugger.executor
        assert executor.lineage_hits + executor.lineage_misses == 12 * 8
        # Two plans, eight fits: the first labelling of each plan comes
        # from building its lineage, the other fourteen from re-labelling.
        assert executor.lineage_misses == 2
        assert len(calls) + executor.lineage_misses == 16

    def test_session_lineage_is_freed_without_the_cyclic_collector(self):
        db, model_name, X, y, cases = _adult_multi_case()
        debugger = RainDebugger(db, model_name, X, y, cases, method="holistic",
                                rng=0)
        gc.collect()
        gc.disable()
        try:
            debugger.run(max_removals=20, k_per_iteration=5)
            lineage = next(iter(debugger.executor._lineages.values()))
            assert lineage.labelled() is not None and lineage.programs
            pool = weakref.ref(lineage.runtime.pool)
            del lineage
            del debugger
            assert pool() is None
        finally:
            gc.enable()
