"""Corruption-rate sweep over the ENRON / Adult paper scenarios.

Per (scenario, rate) cell: TwoStep's encode wall clock, program size,
aux-variable dedup and one deterministic branch & bound solve.  The ENRON
rows grade Table 3's labelling-function rule by the fraction of
token-matching emails it relabels; the Adult rows are Section 6.5's
Q6/Q7 ``AVG(predict(*)) ... GROUP BY`` at Figure 8's flip fractions.

The asserts are qualitative — every cell present and every solve a
proven optimum — plus work counts: each cell's program is identical to the
tree-walk oracle's (``oracles.encode.TreeEncoder``) and each complaint
costs the array encoder one ``add_constraint`` call and at most one
constraint block.  Timings are printed, not gated.
"""

from conftest import assert_encodes_like_the_oracle, save_and_print

from repro.experiments import scenario_sweep
from repro.relational import Executor, plan_sql

SWEEP = {"rates": (0.5, 1.0), "flip_fractions": (0.3, 0.5), "n_train": 400,
         "n_query": 1200}


def test_bench_scenario_sweep(benchmark, out_dir):
    result = benchmark.pedantic(
        scenario_sweep.run,
        kwargs={**SWEEP, "rounds": 3},
        rounds=1, iterations=1,
    )
    save_and_print(result, out_dir)

    cells = {(row["scenario"], row["rate"]) for row in result.rows}
    assert cells == {
        ("enron_http", 0.5), ("enron_http", 1.0),
        ("enron_deal", 0.5), ("enron_deal", 1.0),
        ("adult_q6_gender", 0.3), ("adult_q6_gender", 0.5),
        ("adult_q7_age", 0.3), ("adult_q7_age", 0.5),
    }
    for row in result.rows:
        assert row["solve_status"].startswith("optimal("), row
        assert row["encode_s"] > 0


def test_scenario_sweep_matches_the_oracle(monkeypatch):
    for _, _, database, case in scenario_sweep.scenarios(seed=0, **SWEEP):
        plan = plan_sql(case.query, database)
        result = Executor(database).execute(plan, debug=True)
        assert_encodes_like_the_oracle(result, case.complaints, monkeypatch)
