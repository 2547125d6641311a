"""Executor tests: concrete semantics + debug-mode lineage consistency."""

import numpy as np
import pytest

from repro.errors import ProvenanceError, QueryError
from repro.relational import (
    Aggregate,
    AggSpec,
    BoolAnd,
    Cmp,
    Col,
    Const,
    Database,
    Executor,
    Filter,
    Join,
    ModelPredict,
    Project,
    Relation,
    Scan,
)
from repro.relational.compile import TRUE_NODE

from oracles import provenance as prov
from oracles.provenance import to_expr


def cell_tree(result, row_index, column):
    """The oracle tree of an output cell's polynomial."""
    return to_expr(result.pool, result.cell_node(row_index, column))


@pytest.fixture()
def executor(simple_db):
    return Executor(simple_db)


def scan(alias="R"):
    return Scan("R", alias)


class TestScanFilterProject:
    def test_scan_all_rows(self, executor):
        result = executor.execute(scan())
        assert len(result.relation) == 25

    def test_deterministic_filter(self, executor):
        plan = Filter(scan(), Cmp("=", Col("flag"), Const(1)))
        result = executor.execute(plan)
        assert len(result.relation) == 13

    def test_filter_comparison_ops(self, executor):
        plan = Filter(scan(), Cmp("<", Col("id"), Const(5)))
        assert len(executor.execute(plan).relation) == 5
        plan = Filter(scan(), Cmp(">=", Col("id"), Const(20)))
        assert len(executor.execute(plan).relation) == 5

    def test_project_renames(self, executor):
        plan = Project(scan(), [(Col("id"), "the_id")])
        result = executor.execute(plan)
        assert result.relation.column_names == ["the_id"]

    def test_model_filter_concrete_matches_predictions(self, executor, simple_db):
        model = simple_db.model("m")
        expected = int(np.sum(
            np.asarray(model.predict(simple_db.relation("R").column("features"))) == 1
        ))
        plan = Filter(scan(), Cmp("=", ModelPredict("m", Col("features")), Const(1)))
        result = executor.execute(plan)
        assert len(result.relation) == expected

    def test_debug_keeps_symbolic_candidates(self, executor):
        plan = Filter(scan(), Cmp("=", ModelPredict("m", Col("features")), Const(1)))
        result = executor.execute(plan, debug=True)
        # All 25 rows stay alive symbolically; only predicted-1 rows concrete.
        assert len(result.candidate_batch) == 25
        assert len(result.relation) < 25

    def test_debug_conditions_are_atoms(self, executor):
        plan = Filter(scan(), Cmp("=", ModelPredict("m", Col("features")), Const(1)))
        result = executor.execute(plan, debug=True)
        for node in result.candidate_cond_nodes:
            assert isinstance(to_expr(result.pool, node), prov.PredIs)

    def test_tuple_condition_consistency(self, executor):
        plan = Filter(scan(), Cmp("=", ModelPredict("m", Col("features")), Const(1)))
        result = executor.execute(plan, debug=True)
        assignment = result.assignment()
        for row in range(len(result.relation)):
            node = result.tuple_condition_node(row)
            assert to_expr(result.pool, node).evaluate(assignment)

    def test_mixed_predicate_folds_deterministic_part(self, executor):
        predicate = BoolAnd(
            [
                Cmp("=", Col("flag"), Const(1)),
                Cmp("=", ModelPredict("m", Col("features")), Const(1)),
            ]
        )
        result = executor.execute(Filter(scan(), predicate), debug=True)
        # Rows failing the deterministic part are dropped even symbolically.
        assert len(result.candidate_batch) == 13

    def test_lineage_requires_debug(self, executor):
        result = executor.execute(scan())
        with pytest.raises(ProvenanceError, match="debug"):
            result.tuple_condition_node(0)


class TestJoin:
    @pytest.fixture()
    def join_db(self, fitted_binary_model):
        rng = np.random.default_rng(0)
        db = Database()
        db.add_relation(
            Relation("A", {"k": np.asarray([1, 2, 3]), "features": rng.normal(size=(3, 4))})
        )
        db.add_relation(
            Relation("B", {"k": np.asarray([2, 3, 3, 9]), "v": np.asarray([20, 30, 31, 90])})
        )
        db.add_model("m", fitted_binary_model)
        return db

    def test_cross_product(self, join_db):
        plan = Join(Scan("A", "A"), Scan("B", "B"))
        result = Executor(join_db).execute(plan)
        assert len(result.relation) == 12

    def test_equi_join(self, join_db):
        plan = Join(Scan("A", "A"), Scan("B", "B"), Cmp("=", Col("A.k"), Col("B.k")))
        result = Executor(join_db).execute(plan)
        assert len(result.relation) == 3  # 2-2, 3-3, 3-3

    def test_equi_join_matches_cross_filter(self, join_db):
        equi = Join(Scan("A", "A"), Scan("B", "B"), Cmp("=", Col("A.k"), Col("B.k")))
        cross = Filter(
            Join(Scan("A", "A"), Scan("B", "B")), Cmp("=", Col("A.k"), Col("B.k"))
        )
        ex = Executor(join_db)
        left = sorted(map(str, ex.execute(equi).relation.to_dicts()))
        right = sorted(map(str, ex.execute(cross).relation.to_dicts()))
        assert left == right

    def test_join_with_residual_predicate(self, join_db):
        condition = BoolAnd(
            [Cmp("=", Col("A.k"), Col("B.k")), Cmp(">", Col("B.v"), Const(25))]
        )
        plan = Join(Scan("A", "A"), Scan("B", "B"), condition)
        result = Executor(join_db).execute(plan)
        assert len(result.relation) == 2

    def test_duplicate_alias_raises(self, join_db):
        plan = Join(Scan("A", "X"), Scan("B", "X"))
        with pytest.raises(QueryError, match="alias"):
            Executor(join_db).execute(plan)


class TestJoinEdgeCases:
    """Hash-join corners: empty sides, duplicate keys, empty × empty."""

    @pytest.fixture()
    def edge_db(self, fitted_binary_model):
        rng = np.random.default_rng(1)
        db = Database()
        db.add_relation(
            Relation("A", {"k": np.asarray([1, 2, 2, 3]), "a": np.asarray([10, 20, 21, 30])})
        )
        db.add_relation(
            Relation("B", {"k": np.asarray([2, 2, 4]), "b": np.asarray([200, 201, 400])})
        )
        db.add_relation(Relation("E", {"k": np.zeros(0, dtype=np.int64), "e": np.zeros(0)}))
        db.add_relation(
            Relation("F", {"k": np.asarray([7]), "features": rng.normal(size=(1, 4))})
        )
        db.add_model("m", fitted_binary_model)
        return db

    def equi(self, left, right):
        return Join(
            Scan(left, left), Scan(right, right),
            Cmp("=", Col(f"{left}.k"), Col(f"{right}.k")),
        )

    def test_empty_left_side(self, edge_db):
        result = Executor(edge_db).execute(self.equi("E", "B"))
        assert len(result.relation) == 0

    def test_empty_right_side(self, edge_db):
        result = Executor(edge_db).execute(self.equi("A", "E"))
        assert len(result.relation) == 0

    def test_empty_both_sides(self, edge_db):
        plan = Join(Scan("E", "E1"), Scan("E", "E2"),
                    Cmp("=", Col("E1.k"), Col("E2.k")))
        result = Executor(edge_db).execute(plan)
        assert len(result.relation) == 0

    def test_empty_join_in_debug_mode_keeps_no_candidates(self, edge_db):
        result = Executor(edge_db).execute(self.equi("E", "B"), debug=True)
        assert len(result.relation) == 0
        assert len(result.candidate_batch) == 0
        assert result.candidate_cond_nodes.tolist() == []

    def test_duplicate_keys_produce_all_pairs(self, edge_db):
        result = Executor(edge_db).execute(self.equi("A", "B"))
        # k=2 appears twice on each side: 2 × 2 = 4 pairs; nothing else matches.
        assert len(result.relation) == 4
        pairs = sorted(
            (int(row["A.a"]), int(row["B.b"])) for row in result.relation.to_dicts()
        )
        assert pairs == [(20, 200), (20, 201), (21, 200), (21, 201)]

    def test_duplicate_keys_match_cross_filter_semantics(self, edge_db):
        ex = Executor(edge_db)
        equi_rows = sorted(map(str, ex.execute(self.equi("A", "B")).relation.to_dicts()))
        cross = Filter(
            Join(Scan("A", "A"), Scan("B", "B")), Cmp("=", Col("A.k"), Col("B.k"))
        )
        cross_rows = sorted(map(str, ex.execute(cross).relation.to_dicts()))
        assert equi_rows == cross_rows

    def test_disjoint_keys_empty_result(self, edge_db):
        result = Executor(edge_db).execute(self.equi("F", "B"))
        assert len(result.relation) == 0

    def test_empty_join_feeds_aggregate(self, edge_db):
        plan = Aggregate(self.equi("E", "B"), (), [AggSpec("count", None, "count")])
        result = Executor(edge_db).execute(plan, debug=True)
        assert result.scalar("count") == 0.0
        poly = cell_tree(result, 0, "count")
        assert poly.evaluate(result.assignment()) == 0.0


class TestModelJoin:
    @pytest.fixture()
    def db(self, fitted_multiclass_model):
        rng = np.random.default_rng(5)
        db = Database()
        db.add_relation(Relation("L", {"features": rng.normal(size=(6, 5))}))
        db.add_relation(Relation("R", {"features": rng.normal(size=(5, 5))}))
        db.add_model("m", fitted_multiclass_model)
        return db

    def test_predict_join_concrete(self, db):
        model = db.model("m")
        lp = model.predict(db.relation("L").column("features"))
        rp = model.predict(db.relation("R").column("features"))
        expected = sum(1 for a in lp for b in rp if a == b)
        plan = Join(
            Scan("L", "L"),
            Scan("R", "R"),
            Cmp("=", ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features"))),
        )
        result = Executor(db).execute(plan)
        assert len(result.relation) == expected

    def test_predict_join_debug_keeps_all_pairs(self, db):
        plan = Join(
            Scan("L", "L"),
            Scan("R", "R"),
            Cmp("=", ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features"))),
        )
        result = Executor(db).execute(plan, debug=True)
        assert len(result.candidate_batch) == 30
        assert len(result.runtime.sites) == 11

    def test_self_join_shares_sites(self, db, fitted_multiclass_model):
        # Join L with itself under two aliases: same base rows share atoms.
        db.add_relation(db.relation("L").rename("L2"))
        plan = Join(
            Scan("L", "a"),
            Scan("L", "b"),
            Cmp("=", ModelPredict("m", Col("a.features")),
                ModelPredict("m", Col("b.features"))),
        )
        result = Executor(db).execute(plan, debug=True)
        # Both sides reference relation "L": only 6 sites, not 12.
        assert len(result.runtime.sites) == 6
        # Diagonal pairs are unconditionally in the join (TRUE condition).
        diagonal = [
            i
            for i in range(len(result.candidate_batch))
            if result.candidate_batch.alias_row_ids["a"][i]
            == result.candidate_batch.alias_row_ids["b"][i]
        ]
        for index in diagonal:
            assert result.candidate_batch.cond_nodes[index] == TRUE_NODE


class TestAggregates:
    def test_global_count(self, executor):
        plan = Aggregate(scan(), (), [AggSpec("count", None, "count")])
        result = executor.execute(plan)
        assert result.scalar("count") == 25.0

    def test_global_count_empty_input(self, executor):
        plan = Aggregate(
            Filter(scan(), Cmp("<", Col("id"), Const(-1))),
            (),
            [AggSpec("count", None, "count")],
        )
        result = executor.execute(plan)
        assert result.scalar("count") == 0.0

    def test_sum_and_avg(self, executor):
        plan = Aggregate(
            scan(),
            (),
            [AggSpec("sum", Col("id"), "s"), AggSpec("avg", Col("id"), "a")],
        )
        result = executor.execute(plan)
        assert result.scalar("s") == float(sum(range(25)))
        assert result.scalar("a") == pytest.approx(12.0)

    def test_group_by_deterministic(self, executor):
        plan = Aggregate(
            scan(),
            [(Col("flag"), "flag")],
            [AggSpec("count", None, "count")],
        )
        result = executor.execute(plan)
        rows = {row["flag"]: row["count"] for row in result.relation.to_dicts()}
        assert rows == {0: 12.0, 1: 13.0}

    def test_count_with_model_filter_polynomial(self, executor):
        plan = Aggregate(
            Filter(scan(), Cmp("=", ModelPredict("m", Col("features")), Const(1))),
            (),
            [AggSpec("count", None, "count")],
        )
        result = executor.execute(plan, debug=True)
        poly = cell_tree(result, 0, "count")
        assert isinstance(poly, prov.LinearSum)
        assert len(poly.terms) == 25  # every row is a candidate
        assert poly.evaluate(result.assignment()) == result.scalar("count")

    def test_group_by_predict(self, executor):
        plan = Aggregate(
            scan(),
            [(ModelPredict("m", Col("features")), "pred")],
            [AggSpec("count", None, "count")],
        )
        result = executor.execute(plan, debug=True)
        total = float(np.sum(result.relation.column("count")))
        assert total == 25.0
        # Candidate groups exist for both classes even if one is empty now.
        assert len(result.groups) == 2

    def test_avg_of_predict_polynomial(self, executor):
        plan = Aggregate(
            scan(),
            (),
            [AggSpec("avg", ModelPredict("m", Col("features")), "avg")],
        )
        result = executor.execute(plan, debug=True)
        poly = cell_tree(result, 0, "avg")
        assert isinstance(poly, prov.DivExpr)
        assert poly.evaluate(result.assignment()) == pytest.approx(result.scalar("avg"))

    def test_group_condition_for_tuple_complaints(self, executor):
        plan = Aggregate(
            scan(),
            [(ModelPredict("m", Col("features")), "pred")],
            [AggSpec("count", None, "count")],
        )
        result = executor.execute(plan, debug=True)
        assignment = result.assignment()
        for output_row, group_index in enumerate(result.output_to_group):
            node = result.groups[group_index].condition_node
            assert to_expr(result.pool, node).evaluate(assignment)

    def test_unknown_cell_polynomial_raises(self, executor):
        plan = Aggregate(scan(), (), [AggSpec("count", None, "count")])
        result = executor.execute(plan, debug=True)
        with pytest.raises(ProvenanceError, match="not an aggregate output"):
            result.cell_node(0, "nope")


class TestEmptyGroupProvenance:
    """Aggregate provenance polynomials over groups with no members."""

    def empty_scan(self):
        # A deterministic filter nothing satisfies: the aggregate input is empty.
        return Filter(scan(), Cmp("<", Col("id"), Const(-1)))

    def test_global_sum_over_empty_input(self, executor):
        plan = Aggregate(self.empty_scan(), (), [AggSpec("sum", Col("id"), "s")])
        result = executor.execute(plan, debug=True)
        assert result.scalar("s") == 0.0
        poly = cell_tree(result, 0, "s")
        assert poly.evaluate(result.assignment()) == 0.0
        assert poly.atoms() == set()

    def test_global_count_polynomial_over_empty_input(self, executor):
        plan = Aggregate(self.empty_scan(), (), [AggSpec("count", None, "count")])
        result = executor.execute(plan, debug=True)
        poly = cell_tree(result, 0, "count")
        assert isinstance(poly, prov.LinearSum)
        assert poly.terms == ()
        assert poly.evaluate(result.assignment()) == 0.0

    def test_global_avg_over_empty_input_is_nan(self, executor):
        plan = Aggregate(self.empty_scan(), (), [AggSpec("avg", Col("id"), "a")])
        result = executor.execute(plan, debug=True)
        poly = cell_tree(result, 0, "a")
        assert np.isnan(poly.evaluate(result.assignment()))

    def test_empty_global_group_always_exists(self, executor):
        plan = Aggregate(self.empty_scan(), (), [AggSpec("count", None, "count")])
        result = executor.execute(plan, debug=True)
        assert len(result.relation) == 1
        assert len(result.groups) == 1
        assert result.groups[0].condition_node == TRUE_NODE

    def test_currently_empty_predict_group_has_polynomial(self, executor, simple_db):
        """A predict() class group with no current members is still a
        candidate group whose polynomial can be queried by key."""
        model = simple_db.model("m")
        features = simple_db.relation("R").column("features")
        predicted = np.asarray(model.predict(features))
        plan = Aggregate(
            scan(),
            [(ModelPredict("m", Col("features")), "pred")],
            [AggSpec("count", None, "count")],
        )
        result = executor.execute(plan, debug=True)
        assignment = result.assignment()
        # Both classes are candidate groups regardless of current membership.
        assert {group.key for group in result.groups} == {(0,), (1,)}
        for label in (0, 1):
            node = result.cell_node_for("count", group_key=(label,))
            poly = to_expr(result.pool, node)
            assert poly.evaluate(assignment) == float(np.sum(predicted == label))

    def test_empty_group_not_in_concrete_output(self, executor):
        """Grouped aggregate over empty input: candidate machinery yields
        no groups at all (no spurious output rows)."""
        plan = Aggregate(
            self.empty_scan(), [(Col("flag"), "flag")],
            [AggSpec("count", None, "count")],
        )
        result = executor.execute(plan, debug=True)
        assert len(result.relation) == 0
        assert result.groups == []
        with pytest.raises(ProvenanceError, match="no candidate group"):
            result.group_by_key((0,))

    def test_scalar_requires_single_row(self, executor):
        plan = Aggregate(
            scan(), [(Col("flag"), "flag")], [AggSpec("count", None, "count")]
        )
        result = executor.execute(plan)
        with pytest.raises(QueryError, match="single-row"):
            result.scalar("count")
