"""Engine mechanics: suppression scanning, baseline files, findings,
symbol-table inference, and the ``python -m repro.analysis`` entry point.
"""

import textwrap

import pytest

from repro.analysis.engine import (
    Finding,
    analyze_source,
    load_baseline,
    run_analysis,
    scan_suppressions,
)
from repro.analysis.__main__ import main as analysis_main


def dedent(source):
    return textwrap.dedent(source)


# -- suppression comment scanning --------------------------------------------


class TestScanSuppressions:
    def test_trailing_comment_suppresses_own_line(self):
        lines = scan_suppressions("x = cache.get(id(k))  # repro: ignore[DET001]\n")
        assert lines == {1: {"DET001"}}

    def test_multiple_rules_one_tag(self):
        lines = scan_suppressions("x = f()  # repro: ignore[DET001, DET002]\n")
        assert lines == {1: {"DET001", "DET002"}}

    def test_standalone_comment_covers_next_code_line(self):
        lines = scan_suppressions(dedent(
            """
            # repro: ignore[DET002] — order pinned upstream
            for k in views:
                out.append(k)
            """
        ))
        assert lines[3] == {"DET002"}

    def test_justification_block_with_tag_on_first_line(self):
        # Multi-line comment blocks propagate through trailing comment
        # lines and blanks to the next statement.
        lines = scan_suppressions(dedent(
            """
            # repro: ignore[DET001] — sound: the cache holds a strong
            # reference to every keyed object, so ids cannot be
            # recycled while the entry is live.

            cache[id(obj)] = node
            """
        ))
        assert lines[6] == {"DET001"}

    def test_plain_comments_do_not_suppress(self):
        assert scan_suppressions("x = 1  # a normal comment\n") == {}

    def test_ignore_without_brackets_is_inert(self):
        assert scan_suppressions("x = 1  # repro: ignore this one\n") == {}


# -- baseline files -----------------------------------------------------------


class TestBaseline:
    def test_round_trip(self, tmp_path):
        baseline_file = tmp_path / "baseline.txt"
        baseline_file.write_text(
            "# comment line\n"
            "\n"
            "DET002 src/repro/experiments/fig3.py run\n"
            "DET001 src/repro/core/thing.py -\n"
        )
        entries = load_baseline(baseline_file)
        assert ("DET002", "src/repro/experiments/fig3.py", "run") in entries
        assert ("DET001", "src/repro/core/thing.py", "-") in entries
        assert len(entries) == 2

    def test_malformed_line_raises(self, tmp_path):
        baseline_file = tmp_path / "baseline.txt"
        baseline_file.write_text("DET002 only-two-fields\n")
        with pytest.raises(ValueError, match="baseline"):
            load_baseline(baseline_file)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.txt") == frozenset()


# -- findings -----------------------------------------------------------------


class TestFinding:
    def test_format_and_keys(self):
        finding = Finding(
            rule="DET001",
            path="src/repro/ilp/encode.py",
            line=42,
            col=8,
            message="id() keys a shared container",
            qualname="TiresiasEncoder._linearize",
        )
        text = finding.format()
        assert "src/repro/ilp/encode.py:42" in text
        assert "DET001" in text
        assert finding.baseline_key == (
            "DET001",
            "src/repro/ilp/encode.py",
            "TiresiasEncoder._linearize",
        )

    def test_report_dedups_identical_findings(self):
        # One node visited once produces one finding even when both the
        # node line and the statement line resolve identically.
        ctx = analyze_source(
            "class C:\n"
            "    def f(self, k):\n"
            "        return self._cache[id(k)]\n"
        )
        assert len(ctx.findings) == 1


# -- symbol table -------------------------------------------------------------


class TestSymbolTable:
    def test_subscript_store_does_not_shadow_module_global(self):
        # `_REGISTRY[k] = v` mutates the module-level dict; it must NOT
        # create a function-local binding that hides the global from
        # shared-container checks.
        ctx = analyze_source(dedent(
            """
            _REGISTRY = {}

            def remember(obj):
                _REGISTRY[id(obj)] = obj.name
            """
        ))
        assert [f.rule for f in ctx.findings] == ["DET001"]

    def test_local_rebinding_shadows_module_global(self):
        ctx = analyze_source(dedent(
            """
            _SCRATCH = {}

            def lower(root):
                _SCRATCH = {}
                _SCRATCH[id(root)] = root
                return _SCRATCH
            """
        ))
        assert ctx.findings == []

    def test_annotation_kind_inference(self):
        ctx = analyze_source(dedent(
            """
            def emit(items, out):
                pending: set = items
                for item in pending:
                    out.append(item)
            """
        ))
        assert [f.rule for f in ctx.findings] == ["DET002"]


# -- CLI ----------------------------------------------------------------------


def _write_project(tmp_path, body):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(textwrap.dedent(body))
    return tmp_path


class TestEntryPoints:
    def test_project_run_equals_the_per_file_pass(self, tmp_path):
        body = """
            import os as system
            import random

            class C:
                def f(self, k, items, out):
                    for item in set(items):
                        out.append(item)
                    random.shuffle(out)
                    return self._cache[id(k)]

            X = system.environ  # repro: ignore[KNOB001] — fixture
            Y = system.getenv("Y")
            """
        root = _write_project(tmp_path, body)
        report = run_analysis(root, include_golden=False)
        ctx = analyze_source(dedent(body), path="src/repro/mod.py")
        assert report.findings == sorted(ctx.findings, key=lambda f: f.sort_key)
        assert {f.rule for f in report.findings} == {
            "DET001", "DET002", "DET003", "KNOB001"
        }
        assert report.n_inline_suppressed == ctx.n_inline_suppressed == 1


class TestMain:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _write_project(tmp_path, "def f(x):\n    return x\n")
        rc = analysis_main(["--root", str(root), "--no-golden"])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_any_finding_exits_one(self, tmp_path, capsys):
        root = _write_project(
            tmp_path,
            """
            class C:
                def f(self, k):
                    return self._cache[id(k)]
            """,
        )
        rc = analysis_main(["--root", str(root), "--no-golden"])
        assert rc == 1
        assert "DET001" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "rule_id, body",
        [
            pytest.param(
                "DET002",
                """
                def emit(items, out):
                    for item in set(items):
                        out.append(item)
                """,
                id="DET002",
            ),
            pytest.param(
                "DET003",
                """
                import numpy as np

                def shuffle(order):
                    np.random.shuffle(order)
                """,
                id="DET003",
            ),
            pytest.param(
                "KNOB001",
                """
                import os

                def n_workers():
                    return int(os.environ.get("REPRO_WORKERS", "1"))
                """,
                id="KNOB001",
            ),
        ],
    )
    def test_every_rule_fails_the_run(self, tmp_path, capsys, rule_id, body):
        root = _write_project(tmp_path, body)
        rc = analysis_main(["--root", str(root), "--no-golden"])
        assert rc == 1
        assert rule_id in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--strict", "--no-knob-docs"])
    def test_removed_flags_are_rejected(self, tmp_path, capsys, flag):
        root = _write_project(tmp_path, "def f(x):\n    return x\n")
        with pytest.raises(SystemExit) as exc:
            analysis_main(["--root", str(root), "--no-golden", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_baseline_filters_findings(self, tmp_path):
        root = _write_project(
            tmp_path,
            """
            class C:
                def f(self, k):
                    return self._cache[id(k)]
            """,
        )
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("DET001 src/repro/mod.py C.f\n")
        rc = analysis_main(
            [
                "--root", str(root),
                "--baseline", str(baseline),
                "--no-golden",
            ]
        )
        assert rc == 0

    def test_syntax_error_is_reported(self, tmp_path, capsys):
        root = _write_project(tmp_path, "def broken(:\n")
        rc = analysis_main(["--root", str(root), "--no-golden"])
        assert rc == 1
        assert "syntax error" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        rc = analysis_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id in ("DET001", "DET002", "DET003", "KNOB001", "GOLD001"):
            assert rule_id in out

    def test_cli_lint_subcommand_forwards(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["lint", "--list-rules"])
        assert rc == 0
        assert "DET001" in capsys.readouterr().out

    def test_cli_lint_forwards_failing_exit(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = _write_project(
            tmp_path, "import os\n\nDEBUG = os.getenv('REPRO_DEBUG')\n"
        )
        rc = cli_main(["lint", "--root", str(root), "--no-golden"])
        assert rc == 1
        assert "KNOB001" in capsys.readouterr().out
