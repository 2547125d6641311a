"""Table 2's query zoo on the library executor and on the tree oracle.

``repro.experiments.queries`` checks each output against the result's
own provenance.  Here every query also runs on the seed's tree executor
(:class:`oracles.TreeExecutor`), which builds its provenance
independently, and both must produce the same output relation, row for
row.
"""

import numpy as np
import pytest

from repro.experiments import queries
from repro.relational import Executor, plan_sql

from oracles import TreeExecutor

NAMES = [f"Q{i}" for i in range(1, 8)]


@pytest.fixture(scope="module")
def zoo():
    return {name: (database, sql) for name, database, sql in queries.zoo(seed=0)}


def test_zoo_lists_the_seven_queries(zoo):
    assert sorted(zoo) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_query_matches_the_tree_executor(zoo, name):
    database, sql = zoo[name]
    plan = plan_sql(sql, database)
    compiled = Executor(database).execute(plan, debug=True)
    tree = TreeExecutor(database).execute(plan, debug=True)
    assert compiled.relation.column_names == tree.relation.column_names
    assert len(compiled.relation) == len(tree.relation) > 0
    for column in tree.relation.column_names:
        got = compiled.relation.column(column)
        want = tree.relation.column(column)
        if want.dtype.kind == "f":
            np.testing.assert_allclose(got, want, rtol=1e-12, equal_nan=True)
        else:
            np.testing.assert_array_equal(got, want)
