"""Tensorized provenance + columnar executor: equivalence and speedup.

Acceptance bar for the compiled provenance engine (fig5's encode side, the
DBLP n=400 / n_query=300 configuration): for both TwoStep and Holistic,

- the compiled path (columnar executor emitting node arrays, batched
  relaxation objective, persistent HiGHS LP solves) must produce removal
  orders **identical** to the interpreted reference path (tree provenance,
  per-row runtime caches, and TwoStep's optimum enumeration swapped for
  the per-call scipy ``linprog`` oracle, ``enumerate_optima_reference``),
  and
- the combined TwoStep + Holistic Encode (+ query execution, folded into
  Encode as in fig5) seconds per iteration must improve by at least 3x,
  with Holistic individually at least 3x and TwoStep at least 2.5x.
  Measured on this substrate: TwoStep ~3.1–3.4x, Holistic ~5x; TwoStep's
  asserted bar is lower because its encode is dominated by the HiGHS LP
  solves themselves, which the identical-orders requirement pins to the
  reference solve sequence.

The Rain loop itself only runs compiled provenance; the reference arm
routes it through the test oracles with :func:`oracles.tree_reference`:
every ``Executor.execute`` call runs on the tree executor (which never
memoizes lineage), Holistic's objective on the interpreted oracle, and
TwoStep's enumeration on the ``linprog`` branch & bound.

Fast tier: three train-rank-fix iterations per configuration.
"""

from conftest import save_and_print

from repro.experiments.common import ExperimentResult, build_dblp_setting, run_method

from oracles import tree_reference

CONFIGS = {
    "reference": {"tree": True},
    "compiled": {"tree": False},
}


def _run(setting, initial_params, method, config, monkeypatch):
    setting.model.set_params(initial_params)
    with monkeypatch.context() as patch:
        if config["tree"]:
            tree_reference(patch, linprog=True)
        report = run_method(
            setting.database,
            setting.model_name,
            setting.X_train,
            setting.y_corrupted,
            [setting.case],
            method,
            max_removals=30,
            k_per_iteration=10,
            seed=0,
            reset_params=initial_params,
        )
    iterations = max(1, len([r for r in report.iterations if r.removed]))
    timings = report.timings
    encode = (timings.get("encode", 0.0) + timings.get("execute", 0.0)) / iterations
    return report, encode


def test_bench_compiled_provenance(benchmark, out_dir, monkeypatch):
    setting = build_dblp_setting(0.5, n_train=400, n_query=300, seed=0)
    initial_params = setting.model.get_params()

    def sweep():
        result = ExperimentResult("compiled_provenance")
        encode_by_key = {}
        orders_by_method = {}
        for method in ("twostep", "holistic"):
            # Best-of-3 guards the wall-clock assertions against one-off
            # scheduler noise (same convention as test_bench_block_cg);
            # repeats interleave reference and compiled runs so both see
            # the same machine state.
            encodes = {name: float("inf") for name in CONFIGS}
            for _ in range(3):
                for name, config in CONFIGS.items():
                    report, run_encode = _run(
                        setting, initial_params, method, config, monkeypatch
                    )
                    encodes[name] = min(encodes[name], run_encode)
                    orders_by_method.setdefault(method, {})[name] = (
                        report.removal_order
                    )
            for name in CONFIGS:
                encode_by_key[(method, name)] = encodes[name]
                result.rows.append(
                    {
                        "method": method,
                        "path": name,
                        "encode_s_per_iter": encodes[name],
                        "removed": len(orders_by_method[method][name]),
                    }
                )
        for method in ("twostep", "holistic"):
            result.rows.append(
                {
                    "method": method,
                    "path": "speedup",
                    "encode_s_per_iter": encode_by_key[(method, "reference")]
                    / encode_by_key[(method, "compiled")],
                    "removed": 0,
                }
            )
        result.notes.append(
            "reference = tree provenance + per-row caches + per-call linprog "
            "enumeration oracle; "
            "compiled = node-array provenance + columnar executor + "
            "persistent HiGHS (cold solves, vertex-identical to linprog)."
        )
        return result, encode_by_key, orders_by_method

    result, encode_by_key, orders_by_method = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    save_and_print(result, out_dir)

    # Equivalence: the compiled path must delete the same records in the
    # same order as the interpreted reference for both approaches.
    for method, orders in orders_by_method.items():
        assert orders["compiled"] == orders["reference"], method

    holistic_speedup = (
        encode_by_key[("holistic", "reference")] / encode_by_key[("holistic", "compiled")]
    )
    twostep_speedup = (
        encode_by_key[("twostep", "reference")] / encode_by_key[("twostep", "compiled")]
    )
    combined_speedup = (
        encode_by_key[("twostep", "reference")] + encode_by_key[("holistic", "reference")]
    ) / (
        encode_by_key[("twostep", "compiled")] + encode_by_key[("holistic", "compiled")]
    )
    assert holistic_speedup > 3.0
    assert twostep_speedup > 2.5
    assert combined_speedup > 3.0
