"""Array-lowered ILP encoding: encode wall clock + exact program parity.

The fig6-shaped join workload across selection / COUNT / grouped
SUM-AVG complaint shapes.  The bench pins the acceptance properties of
the compiled encoder:

- the emitted program is IDENTICAL to the tree encoder's (variable
  count, objective, constraint rows and coefficient order — names
  aside), so branch & bound enumerates the same optima in the same
  order and TwoStep removal orders are bit-identical;
- array lowering (bulk aux-variable blocks + CSR constraint blocks
  straight from the NodePool) beats the tree walk by at least 2x on
  every aggregate scenario, at least 3x summed over them;
- cross-complaint aux dedup fires on the aggregate scenarios, where
  COUNT/SUM/AVG cells over the same group share member conditions.

The selection row is reported but carries no speedup floor: a handful
of tuple complaints touch a sliver of the pool, so the compiled
encoder's one-time pool canonicalization dominates there.
"""

from conftest import save_and_print

from repro.experiments import ilp_encode


def test_bench_ilp_encode(benchmark, out_dir):
    result = benchmark.pedantic(
        ilp_encode.run,
        kwargs={"n_left": 240, "n_right": 160, "n_keys": 8, "depth": 4,
                "rounds": 3},
        rounds=1, iterations=1,
    )
    save_and_print(result, out_dir)

    rows = {row["scenario"]: row for row in result.rows}
    assert set(rows) == {
        "selection", "count", "grouped_sum_avg", "AGGREGATE_TOTAL"
    }
    for row in result.rows:
        assert row["program_identical"], row
        assert row["order_matches"], row
    assert rows["count"]["speedup"] >= 2.0, rows["count"]
    assert rows["grouped_sum_avg"]["speedup"] >= 2.0, rows["grouped_sum_avg"]
    assert rows["AGGREGATE_TOTAL"]["speedup"] >= 3.0, rows["AGGREGATE_TOTAL"]
    assert rows["grouped_sum_avg"]["aux_reused"] > 0
