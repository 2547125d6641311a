"""Figure 5: per-iteration runtime breakdown on DBLP at 50% corruption.

The paper decomposes each train-rank-fix iteration into Train (model
refitting), Encode (building the influence objective: ILP for TwoStep,
relaxation for Holistic) and Rank (the conjugate-gradient solve plus
per-record gradient products).  Loss is fastest (no influence machinery);
the paper's InfLoss is slowest by far (one CG solve per training record).

This reproduction adds a row the paper doesn't have: ``infloss`` runs the
batched engine (ONE block CG solve for all records, warm-started across
iterations) while ``infloss-scalar`` keeps the paper-faithful per-record
loop, so the table doubles as the block-solve before/after comparison.

Since the tensorized-provenance engine, the Encode side runs compiled by
default: the executor emits provenance as node arrays, Holistic's relaxed
objective is one batched forward/backward sweep, and TwoStep's ILP uses
the persistent HiGHS backend.  ``benchmarks/test_bench_compiled_provenance``
measures this same configuration against the preserved interpreted
reference (tree provenance + per-call linprog) and asserts identical
removal orders.

We fold query execution time into Encode, matching the paper's grouping.
"""

from __future__ import annotations

from .common import ExperimentResult, build_dblp_setting, run_method


def run(
    methods=("loss", "infloss", "infloss-scalar", "twostep", "holistic"),
    n_train: int = 400,
    n_query: int = 300,
    iterations: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    setting = build_dblp_setting(0.5, n_train=n_train, n_query=n_query, seed=seed)
    initial_params = setting.model.get_params()
    result = ExperimentResult("fig5_runtime")
    for method in methods:
        report = run_method(
            setting.database,
            setting.model_name,
            setting.X_train,
            setting.y_corrupted,
            [setting.case],
            method,
            max_removals=iterations * 10,
            k_per_iteration=10,
            seed=seed,
            reset_params=initial_params,
        )
        n_iters = max(1, len([r for r in report.iterations if r.removed]))
        timings = report.timings
        result.rows.append(
            {
                "method": method,
                "train_s": timings.get("train", 0.0) / n_iters,
                "encode_s": (timings.get("encode", 0.0) + timings.get("execute", 0.0))
                / n_iters,
                "rank_s": timings.get("rank", 0.0) / n_iters,
                "iterations": n_iters,
            }
        )
    result.notes.append(
        "paper Figure 5 shape: Loss fastest; per-record InfLoss slowest "
        "(46.1s/iter in the paper); TwoStep ≈ Holistic, dominated by Rank."
    )
    result.notes.append(
        "infloss = batched engine (one block CG solve, warm-started); "
        "infloss-scalar = the paper's per-record loop."
    )
    return result
