"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig3 --out results/
    python -m repro.cli run all --out results/
    python -m repro.cli serve --workers 4 --check
    python -m repro.cli lint --strict

``serve`` runs the sharded multi-query serving layer on the multi-case
Adult workload (one complaint case per aggregate group of Q6/Q7): it
reports the per-stage timing breakdown and the execute stage's plan-dedup
stats, and ``--check`` re-runs serially to verify the determinism
contract (sharded removal orders identical to the serial loop).

Each experiment prints its result table (the same tables the benchmark
suite writes under ``benchmarks/out/``) and optionally saves it.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .experiments import (
    fig3_dblp_recall,
    fig4_f1,
    fig5_runtime,
    fig6_mnist_join,
    fig7_ambiguity,
    fig8_multiquery,
    fig9_effort,
    fig10_misspec,
    fig11_nn,
    ilp_encode,
    queries,
    scenario_sweep,
    serving,
    table3_auccr,
    thm_a1,
    thm_c1,
)

EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "table2": (queries.run, "Query zoo Q1-Q7 parse/execute/provenance check"),
    "fig3": (fig3_dblp_recall.run, "DBLP recall curves vs corruption rate"),
    "fig4": (fig4_f1.run, "Model F1 vs corruption rate (DBLP)"),
    "fig5": (fig5_runtime.run, "Per-iteration runtime breakdown (DBLP 50%)"),
    "table3": (table3_auccr.run, "AUCCR: DBLP + ENRON http/deal"),
    "fig6ab": (fig6_mnist_join.run_point_complaints, "MNIST join point complaints"),
    "fig6cd": (fig6_mnist_join.run_count_complaint, "MNIST join COUNT complaint"),
    "mixrate": (fig6_mnist_join.run_mix_rate, "MNIST join mix-rate experiment"),
    "fig7": (fig7_ambiguity.run, "Ambiguity sweep (point vs tuple complaints)"),
    "fig8": (fig8_multiquery.run, "Multi-query complaints on Adult"),
    "fig9": (fig9_effort.run, "Aggregate complaint vs labeled point complaints"),
    "fig10": (fig10_misspec.run, "Mis-specified complaints"),
    "fig11": (fig11_nn.run, "CNN vs logistic debugging (appendix D)"),
    "thm_a1": (thm_a1.run, "Theorem A.1 ambiguity validation"),
    "thm_c1": (thm_c1.run, "Theorem C.1 value-of-complaints validation"),
    "serving": (serving.run, "Sharded multi-query serving: serial vs workers"),
    "ilp_encode": (ilp_encode.run, "Tree vs array-lowered ILP encode (fig6 joins)"),
    "sweep": (scenario_sweep.run, "ENRON/Adult corruption-rate encode/solve sweep"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Reproduce tables/figures of the Rain paper (SIGMOD 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--out", default=None, help="directory for result tables")
    run.add_argument("--seed", type=int, default=0)
    serve = sub.add_parser(
        "serve", help="sharded multi-query serving on the Adult workload"
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="worker pool size (default: REPRO_N_WORKERS, else 0 = serial)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--n-train", type=int, default=300)
    serve.add_argument("--n-query", type=int, default=2000)
    serve.add_argument("--flip-fraction", type=float, default=0.5)
    serve.add_argument("--max-removals", type=int, default=20)
    serve.add_argument(
        "--check", action="store_true",
        help="re-run serially and verify the removal orders are identical",
    )
    sub.add_parser(
        "lint",
        help="static determinism & invariant analysis; all arguments are "
        "forwarded to `python -m repro.analysis` (e.g. --strict, "
        "--list-rules, --update-golden, paths)",
        add_help=False,
    )
    return parser


def _serve(args) -> int:
    from .core import RainDebugger

    setting = serving.build_serving_setting(
        args.flip_fraction,
        n_train=args.n_train,
        n_query=args.n_query,
        seed=args.seed,
    )
    initial_params = setting.model.get_params()

    def run_once(n_workers):
        setting.model.set_params(initial_params)
        debugger = RainDebugger(
            setting.database,
            "income",
            setting.X_train,
            setting.y_corrupted,
            setting.cases,
            method="holistic",
            rng=args.seed,
            n_workers=n_workers,
        )
        return debugger.run(max_removals=args.max_removals)

    report = run_once(args.workers)
    print(f"served {len(setting.cases)} complaint cases "
          f"over {setting.n_distinct_plans} distinct plans")
    for record in report.iterations:
        cache = record.diagnostics.get("execute_cache")
        if cache:
            print(f"iteration {record.iteration}: "
                  f"{cache['cache_misses']} executions for "
                  f"{cache['n_cases']} cases "
                  f"({cache['cache_hits']} cache hits)")
    for label, total in sorted(report.timings.items()):
        print(f"{label:>8}: {total:.3f}s")
    print(f"removal order ({len(report.removal_order)}): "
          f"{report.removal_order}")
    if args.check:
        serial = run_once(0)
        if serial.removal_order != report.removal_order:
            print("DETERMINISM CHECK FAILED: sharded != serial removal order")
            return 1
        print("determinism check passed: sharded == serial removal order")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # `lint` forwards everything (including option-like arguments, which
    # argparse's subparsers would swallow) to the analyzer's own parser.
    if argv[:1] == ["lint"]:
        from .analysis.__main__ import main as analysis_main

        return analysis_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")
        return 0
    if args.command == "serve":
        return _serve(args)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner, _ = EXPERIMENTS[name]
        result = runner(seed=args.seed)
        print(result.table())
        print()
        if args.out:
            path = result.save(args.out)
            print(f"[saved {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
