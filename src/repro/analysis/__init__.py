"""Static determinism & invariant analysis for the repro codebase.

``repro.analysis`` checks *at lint time* that removal orders depend
only on the inputs and seeds, and that the array-lowered paths stay
bit-identical to their golden references.  The rules reject the bug
classes that have threatened that in this repo: id()-keyed caches,
unordered iteration feeding emission, global RNG, environment reads and
silent golden-path edits.

Run it as ``python -m repro.analysis`` or ``python -m repro.cli lint``;
see ``docs/ANALYSIS.md`` for the rule catalogue and suppression syntax.
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
