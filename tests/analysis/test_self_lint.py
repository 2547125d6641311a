"""The analyzer applied to its own repository.

The shipped tree must be clean modulo the checked-in baseline — this is
the same gate CI runs via ``python -m repro.analysis``, kept
in the test suite so a plain ``pytest`` run catches regressions without
the extra CI job.
"""

from repro.analysis.engine import load_baseline, run_analysis
from repro.analysis.__main__ import DEFAULT_BASELINE


def test_shipped_tree_is_clean_modulo_baseline(repo_root):
    report = run_analysis(repo_root, baseline=load_baseline(DEFAULT_BASELINE))
    assert report.parse_errors == []
    assert report.findings == [], "\n".join(
        finding.format() for finding in report.findings
    )
    assert report.n_files > 50


def test_baseline_entries_are_all_live(repo_root):
    # Every baselined suppression must still match a real finding;
    # stale entries would silently mask future regressions at the same
    # (rule, path, qualname) key.
    baseline = load_baseline(DEFAULT_BASELINE)
    report = run_analysis(repo_root)
    live_keys = {finding.baseline_key for finding in report.findings}
    stale = sorted(key for key in baseline if key not in live_keys)
    assert stale == [], f"stale baseline entries: {stale}"


def test_baseline_is_experiments_only(repo_root):
    # The determinism contract allows insertion-order reliance only in
    # the experiment drivers (published artifact order); library code
    # must fix findings or justify them inline.
    for rule, path, _ in load_baseline(DEFAULT_BASELINE):
        assert rule == "DET002"
        assert path.startswith("src/repro/experiments/")
