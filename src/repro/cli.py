"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig3 --out results/
    python -m repro.cli run all --out results/
    python -m repro.cli lint

Each experiment prints its result table (the same tables the benchmark
suite writes to the untracked ``benchmarks/out/``) and optionally saves
it.
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
    "ilp_encode": (
        ilp_encode.run,
        "TwoStep ILP encode size/time/dedup/solve on fig6 joins",
    ),
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
    sub.add_parser(
        "lint",
        help="static determinism & invariant analysis; all arguments are "
        "forwarded to `python -m repro.analysis` (e.g. --list-rules, "
        "--update-golden, paths)",
        add_help=False,
    )
    return parser


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
