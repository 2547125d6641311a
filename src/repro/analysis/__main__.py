"""``python -m repro.analysis`` — the lint entry point.

Exit status: 0 when the tree is clean modulo the checked-in baseline
and inline suppressions; 1 when any finding survives.  CI runs
``python -m repro.analysis`` before the test suite.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import default_rules, load_baseline, run_analysis
from .golden import DEFAULT_MANIFEST, update_manifest

DEFAULT_BASELINE = Path(__file__).with_name("baseline.txt")


def _default_root() -> Path:
    """The repo root: cwd when it contains src/repro, else derived from
    this file's location (src/repro/analysis/ -> three levels up)."""
    cwd = Path.cwd()
    if (cwd / "src" / "repro").is_dir():
        return cwd
    return Path(__file__).resolve().parents[3]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "AST-based determinism & invariant linter: removal orders must "
            "depend only on inputs and seeds (rules DET001-DET003, KNOB001, "
            "GOLD001)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src/repro)"
    )
    parser.add_argument(
        "--root", default=None, help="repo root for relative paths and the "
        "golden/doc checks (default: auto-detected)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help=f"baseline suppression file (default: {DEFAULT_BASELINE.name} "
        "next to the analyzer)",
    )
    parser.add_argument(
        "--manifest", default=None,
        help="golden-path manifest (default: golden_paths.toml next to the "
        "analyzer)",
    )
    parser.add_argument(
        "--no-golden", action="store_true", help="skip the GOLD001 manifest check"
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help="rewrite golden_paths.toml hashes from the current tree "
        "(only after re-running the equivalence tests) and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = Path(args.root) if args.root else _default_root()
    manifest = Path(args.manifest) if args.manifest else DEFAULT_MANIFEST

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id} {rule.doc}")
        print("GOLD001 Golden-path body changed without a manifest "
              "update, or reference left untested.")
        return 0

    if args.update_golden:
        changed = update_manifest(root, manifest)
        if changed:
            print(f"updated hashes: {', '.join(changed)}")
        else:
            print("manifest already up to date")
        return 0

    baseline_path = Path(args.baseline) if args.baseline else DEFAULT_BASELINE
    baseline = load_baseline(baseline_path)
    report = run_analysis(
        root,
        paths=[Path(p) for p in args.paths] if args.paths else None,
        baseline=baseline,
        manifest_path=manifest,
        include_golden=not args.no_golden,
    )
    for finding in report.findings:
        print(finding.format())
    print(report.summary())
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
