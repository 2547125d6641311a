"""Expression-level unit tests (eval + symbolic provenance)."""

import numpy as np
import pytest

from repro.errors import QueryError, UnsupportedQueryError
from repro.relational.context import QueryRuntime, TupleBatch
from repro.relational.expressions import (
    Arith,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Col,
    Const,
    Like,
    ModelPredict,
    predict,
)

from oracles import provenance as prov
from oracles.executor import TreeBatch
from oracles.expressions import symbolic_bool, symbolic_num


@pytest.fixture()
def batch(simple_db):
    relation = simple_db.relation("R")
    return TreeBatch.of(
        TupleBatch.from_relation(relation, "R"), [prov.TRUE] * len(relation)
    )


@pytest.fixture()
def runtime(simple_db):
    return QueryRuntime(simple_db, debug=True)


class TestScalarExprs:
    def test_col_eval(self, batch, runtime):
        values = Col("id").eval(batch, runtime)
        np.testing.assert_array_equal(values, np.arange(25))

    def test_col_qualified(self, batch, runtime):
        np.testing.assert_array_equal(
            Col("R.id").eval(batch, runtime), np.arange(25)
        )

    def test_unknown_col_raises(self, batch, runtime):
        with pytest.raises(QueryError, match="unknown column"):
            Col("ghost").eval(batch, runtime)

    def test_const_broadcast(self, batch, runtime):
        values = Const(7).eval(batch, runtime)
        assert values.shape == (25,)
        assert np.all(values == 7)

    def test_arith_ops(self, batch, runtime):
        for op, expected in (("+", 3), ("-", -1), ("*", 2), ("/", 0.5), ("**", 1)):
            value = Arith(op, Const(1), Const(2)).eval(batch, runtime)[0]
            assert value == pytest.approx(expected)

    def test_arith_bad_op(self):
        with pytest.raises(QueryError):
            Arith("%", Const(1), Const(2))

    def test_referenced_columns(self):
        expr = BoolAnd([Cmp("=", Col("a"), Const(1)), Cmp("<", Col("b"), Col("c"))])
        assert expr.referenced_columns() == {"a", "b", "c"}


class TestBooleanExprs:
    def test_and_or_not_eval(self, batch, runtime):
        flag_is_1 = Cmp("=", Col("flag"), Const(1))
        id_small = Cmp("<", Col("id"), Const(10))
        both = BoolAnd([flag_is_1, id_small]).eval(batch, runtime)
        either = BoolOr([flag_is_1, id_small]).eval(batch, runtime)
        neither = BoolNot(BoolOr([flag_is_1, id_small])).eval(batch, runtime)
        assert both.sum() == 5  # even ids below 10
        assert either.sum() == 13 + 10 - 5
        assert neither.sum() == 25 - either.sum()

    def test_empty_bool_op_raises(self):
        with pytest.raises(QueryError):
            BoolAnd([])
        with pytest.raises(QueryError):
            BoolOr([])

    def test_deterministic_symbolic_folds(self, batch, runtime):
        conditions = symbolic_bool(Cmp("=", Col("flag"), Const(1)), batch, runtime)
        assert all(c.is_true() or c.is_false() for c in conditions)
        assert sum(c.is_true() for c in conditions) == 13


class TestLike:
    def make_text_batch(self):
        texts = np.asarray(["hello http world", "deal me in", "plain"], dtype=object)
        return TreeBatch.of(
            TupleBatch({"T.text": texts}, {"T": "T"}, {"T": np.arange(3)}),
            [prov.TRUE] * 3,
        )

    def test_contains(self, runtime):
        batch = self.make_text_batch()
        np.testing.assert_array_equal(
            Like(Col("text"), "%http%").eval(batch, runtime), [True, False, False]
        )

    def test_prefix_suffix_exact(self, runtime):
        batch = self.make_text_batch()
        np.testing.assert_array_equal(
            Like(Col("text"), "deal%").eval(batch, runtime), [False, True, False]
        )
        np.testing.assert_array_equal(
            Like(Col("text"), "%plain").eval(batch, runtime), [False, False, True]
        )
        np.testing.assert_array_equal(
            Like(Col("text"), "plain").eval(batch, runtime), [False, False, True]
        )

    def test_interior_wildcard_unsupported(self, runtime):
        batch = self.make_text_batch()
        with pytest.raises(UnsupportedQueryError):
            Like(Col("text"), "%a%b%").eval(batch, runtime)


class TestModelPredict:
    def test_predictions_cached_per_row(self, batch, runtime, simple_db):
        expr = predict("m", "features")
        first = expr.eval(batch, runtime)
        second = expr.eval(batch, runtime)
        np.testing.assert_array_equal(first, second)
        model = simple_db.model("m")
        expected = model.predict(simple_db.relation("R").column("features"))
        np.testing.assert_array_equal(first, np.asarray(expected))

    def test_site_interning_stable(self, batch, runtime):
        expr = predict("m", "features")
        sites_a = expr.site_ids(batch, runtime)
        sites_b = expr.site_ids(batch, runtime)
        assert sites_a == sites_b
        assert len(runtime.sites) == 25

    def test_site_features_recorded(self, batch, runtime):
        expr = predict("m", "features")
        site_ids = expr.site_ids(batch, runtime)
        features = runtime.features_for_sites(site_ids[:3])
        assert features.shape == (3, 4)

    def test_predict_vs_const_symbolic(self, batch, runtime):
        expr = Cmp("=", predict("m", "features"), Const(1))
        conditions = symbolic_bool(expr, batch, runtime)
        assert all(isinstance(c, prov.PredIs) for c in conditions)
        assert all(c.label == 1 for c in conditions)

    def test_predict_not_equal_symbolic(self, batch, runtime):
        expr = Cmp("!=", predict("m", "features"), Const(1))
        conditions = symbolic_bool(expr, batch, runtime)
        # With two classes, != 1 is exactly the class-0 atom.
        assert all(isinstance(c, prov.PredIs) and c.label == 0 for c in conditions)

    def test_flipped_comparison(self, batch, runtime):
        left = symbolic_bool(
            Cmp("=", Const(1), predict("m", "features")), batch, runtime
        )
        right = symbolic_bool(
            Cmp("=", predict("m", "features"), Const(1)), batch, runtime
        )
        assert repr(left) == repr(right)

    def test_predict_as_number_symbolic(self, batch, runtime):
        values = symbolic_num(predict("m", "features"), batch, runtime)
        assignment = runtime.current_assignment()
        concrete = predict("m", "features").eval(batch, runtime)
        for value, expected in zip(values, concrete):
            assert value.evaluate(assignment) == pytest.approx(float(expected))

    def test_arith_over_predict_symbolic(self, batch, runtime):
        expr = Arith("*", Const(10), predict("m", "features"))
        values = symbolic_num(expr, batch, runtime)
        assignment = runtime.current_assignment()
        concrete = expr.eval(batch, runtime)
        for value, expected in zip(values, concrete):
            assert value.evaluate(assignment) == pytest.approx(float(expected))

    def test_unsupported_cmp_over_arith_predict(self, batch, runtime):
        expr = Cmp(">", Arith("+", predict("m", "features"), Const(1)), Const(1))
        with pytest.raises(UnsupportedQueryError):
            symbolic_bool(expr, batch, runtime)

    def test_predict_requires_column_ref(self):
        with pytest.raises(UnsupportedQueryError):
            ModelPredict("m", Const(1))
