"""SQL parser + planner tests over the Query 2.0 dialect."""

import numpy as np
import pytest

from repro.errors import SQLSyntaxError, UnsupportedQueryError
from repro.relational import Database, Executor, Relation, plan_sql
from repro.relational.sql import parse

from oracles.provenance import to_expr


@pytest.fixture()
def db(fitted_binary_model):
    rng = np.random.default_rng(9)
    db = Database()
    db.add_relation(
        Relation(
            "users",
            {
                "features": rng.normal(size=(20, 4)),
                "id": np.arange(20),
                "region": np.asarray(["us", "eu"] * 10, dtype=object),
                "active": (np.arange(20) % 4 == 0).astype(int),
            },
        )
    )
    db.add_relation(
        Relation("logins", {"id": np.arange(0, 20, 2), "n": np.arange(10) * 3})
    )
    db.add_model("churn", fitted_binary_model)
    return db


def run(db, sql, debug=False):
    return Executor(db).execute(plan_sql(sql, db), debug=debug)


class TestParsing:
    def test_basic_select_star(self):
        parsed = parse("SELECT * FROM users")
        assert parsed.select_items[0].is_star
        assert parsed.from_items[0].relation == "users"

    def test_aliases(self):
        parsed = parse("SELECT * FROM users U, logins AS L")
        assert [item.alias for item in parsed.from_items] == ["U", "L"]

    def test_keywords_case_insensitive(self):
        parsed = parse("select count(*) from users where id = 3")
        assert parsed.select_items[0].agg == "count"

    def test_string_literals(self):
        parsed = parse("SELECT * FROM users WHERE region = 'us'")
        assert parsed.where is not None

    def test_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT FROM WHERE")

    def test_trailing_tokens_raise(self):
        with pytest.raises(SQLSyntaxError, match="trailing"):
            parse("SELECT * FROM users WHERE id = 1 42")

    def test_like_requires_string(self):
        with pytest.raises(SQLSyntaxError, match="LIKE"):
            parse("SELECT * FROM users WHERE region LIKE 5")

    def test_operator_precedence_and_or(self):
        parsed = parse(
            "SELECT * FROM users WHERE id = 1 OR id = 2 AND region = 'us'"
        )
        # OR binds loosest: top node must be an OR.
        from repro.relational.expressions import BoolOr

        assert isinstance(parsed.where, BoolOr)

    def test_not_equal_variants(self):
        for text in ("id != 2", "id <> 2"):
            parsed = parse(f"SELECT * FROM users WHERE {text}")
            assert parsed.where.op == "!="


class TestExecution:
    def test_select_star(self, db):
        assert len(run(db, "SELECT * FROM users").relation) == 20

    def test_where_filters(self, db):
        result = run(db, "SELECT * FROM users WHERE id < 5 AND region = 'us'")
        assert len(result.relation) == 3  # ids 0, 2, 4

    def test_projection(self, db):
        result = run(db, "SELECT id FROM users WHERE id < 3")
        assert result.relation.column_names == ["id"]
        assert len(result.relation) == 3

    def test_count_star(self, db):
        assert run(db, "SELECT COUNT(*) FROM users").scalar("count") == 20.0

    def test_sum_avg_alias(self, db):
        result = run(db, "SELECT SUM(n) AS total, AVG(n) AS mean FROM logins")
        assert result.scalar("total") == float(np.arange(10).sum() * 3)
        assert result.relation.column("mean")[0] == pytest.approx(13.5)

    def test_predict_star(self, db):
        result = run(db, "SELECT COUNT(*) FROM users WHERE predict(*) = 1")
        model = db.model("churn")
        expected = float(
            np.sum(np.asarray(model.predict(db.relation("users").column("features"))) == 1)
        )
        assert result.scalar("count") == expected

    def test_predict_qualified_model(self, db):
        result = run(db, "SELECT COUNT(*) FROM users WHERE churn.predict(*) = 1")
        assert result.scalar("count") >= 0

    def test_unknown_model_raises(self, db):
        with pytest.raises(UnsupportedQueryError, match="unknown model"):
            run(db, "SELECT COUNT(*) FROM users WHERE ghost.predict(*) = 1")

    def test_predict_star_multi_relation_ambiguous(self, db):
        with pytest.raises(UnsupportedQueryError, match="ambiguous"):
            run(db, "SELECT COUNT(*) FROM users U, logins L WHERE predict(*) = 1")

    def test_predict_alias_argument(self, db):
        sql = (
            "SELECT COUNT(*) FROM users U, logins L "
            "WHERE U.id = L.id AND predict(U) = 1"
        )
        result = run(db, sql)
        assert 0 <= result.scalar("count") <= 10

    def test_join_comma_and_on_syntax_agree(self, db):
        a = run(db, "SELECT COUNT(*) FROM users U, logins L WHERE U.id = L.id")
        b = run(db, "SELECT COUNT(*) FROM users U JOIN logins L ON U.id = L.id")
        assert a.scalar("count") == b.scalar("count") == 10.0

    def test_like(self, db):
        result = run(db, "SELECT COUNT(*) FROM users WHERE region LIKE '%u%'")
        assert result.scalar("count") == 20.0  # 'us' and 'eu' both contain u
        result = run(db, "SELECT COUNT(*) FROM users WHERE region LIKE 'u%'")
        assert result.scalar("count") == 10.0

    def test_group_by_column(self, db):
        result = run(db, "SELECT region, COUNT(*) FROM users GROUP BY region")
        rows = {row["region"]: row["count"] for row in result.relation.to_dicts()}
        assert rows == {"us": 10.0, "eu": 10.0}

    def test_group_by_predict(self, db):
        result = run(db, "SELECT COUNT(*) FROM users GROUP BY predict(*)")
        assert float(np.sum(result.relation.column("count"))) == 20.0

    def test_avg_predict_group_by(self, db):
        result = run(db, "SELECT AVG(predict(*)) FROM users GROUP BY region")
        assert len(result.relation) == 2
        for value in result.relation.column("avg"):
            assert 0.0 <= float(value) <= 1.0

    def test_non_grouped_select_item_raises(self, db):
        with pytest.raises(UnsupportedQueryError, match="neither aggregated"):
            run(db, "SELECT id, COUNT(*) FROM users GROUP BY region")

    def test_group_by_without_aggregate_raises(self, db):
        with pytest.raises(UnsupportedQueryError):
            run(db, "SELECT region FROM users GROUP BY region")

    def test_arithmetic_in_predicate(self, db):
        result = run(db, "SELECT COUNT(*) FROM logins WHERE n / 3 >= 5")
        assert result.scalar("count") == 5.0

    def test_power_function(self, db):
        result = run(db, "SELECT COUNT(*) FROM logins WHERE POWER(n, 2) > 100")
        expected = float(np.sum((np.arange(10) * 3) ** 2 > 100))
        assert result.scalar("count") == expected

    def test_negative_literal(self, db):
        result = run(db, "SELECT COUNT(*) FROM logins WHERE n > -1")
        assert result.scalar("count") == 10.0

    def test_debug_mode_sql(self, db):
        result = run(db, "SELECT COUNT(*) FROM users WHERE predict(*) = 1", debug=True)
        poly = to_expr(result.pool, result.cell_node(0, "count"))
        assert poly.evaluate(result.assignment()) == result.scalar("count")
