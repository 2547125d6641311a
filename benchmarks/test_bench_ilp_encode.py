"""TwoStep's array ILP encoder on the fig6-shaped join workload.

The join workload across selection / COUNT / grouped SUM-AVG complaint
shapes.  The table reports each program's size, the best-of-3 encode wall
clock, aux-variable dedup and a two-node solve status; the timings are
printed, not gated.  The gates count work:

- every program is IDENTICAL to the tree-walk oracle's
  (``oracles.encode.TreeEncoder``): variable count, objective, constraint
  rows and coefficient order, fixed variables — names aside — so branch &
  bound, a pure function of the program, enumerates the same optima in
  the same order (the enumeration itself is pinned by
  ``tests/ilp/test_encode_compiled.py``);
- each complaint costs the array encoder one ``add_constraint`` call and
  at most one CSR constraint block, where the tree walk makes one call
  per row;
- cross-complaint aux dedup fires on the grouped scenario, where
  COUNT/SUM/AVG cells over the same group share member conditions.

Identity and call counts are checked at the table's size (depth-4
predicates) and on a small depth-2 companion, so shallow trees are
covered too.
"""

import pytest
from conftest import assert_encodes_like_the_oracle, save_and_print

from repro.experiments import ilp_encode
from repro.relational import Executor

SIZES = {
    "table": {"n_left": 240, "n_right": 160, "n_keys": 8, "depth": 4},
    "small": {"n_left": 24, "n_right": 16, "n_keys": 6, "depth": 2},
}


def test_bench_ilp_encode(benchmark, out_dir):
    result = benchmark.pedantic(
        ilp_encode.run,
        kwargs={**SIZES["table"], "rounds": 3},
        rounds=1, iterations=1,
    )
    save_and_print(result, out_dir)

    rows = {row["scenario"]: row for row in result.rows}
    assert set(rows) == {"selection", "count", "grouped_sum_avg"}
    assert rows["grouped_sum_avg"]["aux_reused"] > 0
    # The node budget proves the selection scenario's optimum.
    assert rows["selection"]["solve_status"].startswith("optimal("), rows
    for row in result.rows:
        # Every complaint here is satisfiable: a two-node solve either
        # proves an optimum or runs out of nodes without an incumbent,
        # never finds infeasibility.  An incumbent it could not prove
        # optimal (``unproven(..)``) fails the gate.
        assert row["solve_status"].startswith("optimal(") or (
            row["solve_status"] == "ILPTimeoutError"
        ), row


@pytest.mark.parametrize("size", sorted(SIZES))
def test_ilp_encode_matches_the_oracle(size, monkeypatch):
    kwargs = dict(SIZES[size])
    depth = kwargs.pop("depth")
    executor = Executor(ilp_encode.build_join_database(**kwargs, seed=0))
    for _, plan, complaints_fn in ilp_encode.build_scenarios(seed=0, depth=depth):
        result = executor.execute(plan, debug=True)
        assert_encodes_like_the_oracle(result, complaints_fn(result), monkeypatch)
