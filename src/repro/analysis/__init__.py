"""Static determinism & invariant analysis for the repro codebase.

``repro.analysis`` enforces the parallel-correctness contract *at lint
time*: every engine generation promises that sharded and array-lowered
paths produce removal orders bit-identical to the golden references, and the rules here reject the bug classes that have
historically threatened that promise (id()-keyed caches, unordered
iteration feeding emission, global RNG, unsynchronized shared writes,
undeclared env knobs, silent golden-path edits).

Run it as ``python -m repro.analysis`` or ``python -m repro.cli lint``;
see ``docs/ANALYSIS.md`` for the rule catalogue and suppression syntax.
:mod:`repro.analysis.knobs` doubles as the runtime registry every
``REPRO_*`` environment read goes through.
"""

from .engine import (
    AnalysisReport,
    Finding,
    Rule,
    analyze_source,
    load_baseline,
    run_analysis,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "analyze_source",
    "load_baseline",
    "run_analysis",
]
