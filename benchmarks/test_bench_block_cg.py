"""Block CG engine: the batched self-influence speedup, measured.

Acceptance bar for the batched influence engine: on a 500-record logistic
regression workload, ``self_influence`` must issue exactly ONE block solve
(counted by the analyzer's solve counters), return scores within 1e-6 of
the per-record scalar loop, and apply the Hessian operator at least 3x
fewer times than it: one batched application per CG step instead of one
per record per step.  The gate counts operator applications, not seconds,
so a loaded host cannot fail it; both timings are still printed and saved.
This stays in the fast tier (the scalar loop on 500 records is ~1s); the
full-scale fig5 table carries the same comparison at paper scale.
"""

import time

from conftest import save_and_print

from repro.experiments.common import ExperimentResult, build_dblp_setting
from repro.influence import InfluenceAnalyzer


def _build_analyzers(n_train=500):
    setting = build_dblp_setting(0.5, n_train=n_train, n_query=100, seed=0)
    make = lambda: InfluenceAnalyzer(  # noqa: E731 - tiny local factory
        setting.model, setting.X_train, setting.y_corrupted, damping=1e-4
    )
    return make


def test_bench_block_cg(benchmark, out_dir):
    make_analyzer = _build_analyzers()

    scalar_analyzer = make_analyzer()
    start = time.perf_counter()
    scalar_scores = scalar_analyzer.self_influence_scalar()
    scalar_seconds = time.perf_counter() - start
    assert scalar_analyzer.solve_counts["scalar"] == 500

    block_analyzer = make_analyzer()
    block_scores = benchmark.pedantic(
        block_analyzer.self_influence, rounds=3, iterations=1
    )
    # Best-of-3 for the reported timing.
    block_seconds = benchmark.stats.stats.min

    # Exactly one block solve per call (3 timing rounds ran).
    assert block_analyzer.solve_counts == {"scalar": 0, "block": 3}
    assert block_analyzer.last_block_cg_result.n_columns == 500
    assert len(block_analyzer.last_cg_results) == 500

    # The acceptance counter, on a fresh analyzer and a single call.
    single = make_analyzer()
    single.self_influence()
    assert single.solve_counts == {"scalar": 0, "block": 1}

    # Same scores as the per-record loop, to the acceptance tolerance.
    max_diff = float(abs(block_scores - scalar_scores).max())
    assert max_diff < 1e-6

    # Hessian-operator applications: the scalar loop applies the operator
    # once per CG iteration of every record; the block solve once per CG
    # step, so no more often than the slowest record's solve.  At least 3x
    # fewer (in practice it is orders of magnitude).
    scalar_iterations = [r.iterations for r in scalar_analyzer.last_cg_results]
    scalar_hvp_calls = sum(scalar_iterations)
    block_hvp_calls = single.last_block_cg_result.block_hvp_calls
    assert block_hvp_calls <= max(scalar_iterations) + 1
    assert block_hvp_calls * 3 <= scalar_hvp_calls, (
        f"block {block_hvp_calls} vs scalar {scalar_hvp_calls} operator applications"
    )

    result = ExperimentResult("block_cg_speedup")
    result.rows.append(
        {
            "n_records": 500,
            "scalar_s": scalar_seconds,
            "block_s": block_seconds,
            "speedup": scalar_seconds / max(block_seconds, 1e-12),
            "max_score_diff": max_diff,
            "scalar_hvp_calls": scalar_hvp_calls,
            "block_hvp_calls": block_hvp_calls,
        }
    )
    result.notes.append(
        "self_influence on DBLP/500: one block CG solve vs. the per-record "
        "scalar loop (same damping/tolerance)."
    )
    save_and_print(result, out_dir)
