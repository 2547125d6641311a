"""GOLD001: golden-path manifest checks on a temp project copy.

Builds a miniature project tree (``src/mypkg/mod.py`` + ``tests/``),
pins a function in a manifest, then mutates the tree and asserts the
check catches every drift mode: body edits, missing defs, and lost
test coverage.
"""

import textwrap

import pytest

from repro.analysis.golden import (
    body_hash,
    check_golden,
    load_manifest,
    update_manifest,
)

GOLDEN_BODY = """
def golden(x):
    return x + 1


def helper(x):
    return x * 2
"""

TEST_BODY = """
from mypkg.mod import golden

def test_golden():
    assert golden(1) == 2
"""


@pytest.fixture
def project(tmp_path):
    pkg = tmp_path / "src" / "mypkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(textwrap.dedent(GOLDEN_BODY))
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(textwrap.dedent(TEST_BODY))
    manifest = tmp_path / "golden_paths.toml"
    digest, _ = body_hash(tmp_path, "mypkg.mod", "golden")
    manifest.write_text(textwrap.dedent(f"""
        [[golden]]
        module = "mypkg.mod"
        qualname = "golden"
        sha256 = "{digest}"
        test_pattern = "golden"
        why = "reference implementation for the fast path"
    """))
    return tmp_path, manifest


def gold_findings(root, manifest):
    found = check_golden(root, manifest)
    assert all(f.rule == "GOLD001" for f in found)
    return found


class TestCheckGolden:
    def test_untouched_tree_is_clean(self, project):
        root, manifest = project
        assert gold_findings(root, manifest) == []

    def test_formatting_only_changes_are_clean(self, project):
        # Hashing ast.dump output makes the check insensitive to
        # comments and whitespace — only semantic edits trip it.
        root, manifest = project
        mod = root / "src" / "mypkg" / "mod.py"
        mod.write_text(
            "def golden(x):\n"
            "    # a new comment\n"
            "    return (x + 1)\n\n\n"
            "def helper(x):\n"
            "    return x * 2\n"
        )
        assert gold_findings(root, manifest) == []

    def test_body_mutation_is_detected(self, project):
        root, manifest = project
        mod = root / "src" / "mypkg" / "mod.py"
        mod.write_text(textwrap.dedent(GOLDEN_BODY).replace("x + 1", "x + 2"))
        found = gold_findings(root, manifest)
        assert len(found) == 1
        assert "mypkg.mod:golden" in found[0].message
        assert "changed" in found[0].message

    def test_deleted_function_is_detected(self, project):
        root, manifest = project
        mod = root / "src" / "mypkg" / "mod.py"
        mod.write_text("def helper(x):\n    return x * 2\n")
        found = gold_findings(root, manifest)
        assert len(found) == 1
        assert "resolve" in found[0].message

    def test_missing_test_reference_is_detected(self, project):
        root, manifest = project
        (root / "tests" / "test_mod.py").write_text(
            "def test_helper():\n    assert True\n"
        )
        found = gold_findings(root, manifest)
        assert len(found) == 1
        assert "test" in found[0].message

    def test_missing_manifest_is_a_finding(self, project):
        root, manifest = project
        found = check_golden(root, root / "nonexistent.toml")
        assert len(found) == 1
        assert found[0].rule == "GOLD001"


ORACLE_BODY = """
def oracle_solve(x):
    return x - 1
"""

ORACLE_TEST_BODY = """
from oracles.ref import oracle_solve

def test_oracle_solve():
    assert oracle_solve(1) == 0
"""


@pytest.fixture
def oracle_project(tmp_path):
    """A golden reference that lives under ``tests/oracles/``."""
    (tmp_path / "src" / "mypkg").mkdir(parents=True)
    oracles = tmp_path / "tests" / "oracles"
    oracles.mkdir(parents=True)
    (oracles / "__init__.py").write_text("")
    (oracles / "ref.py").write_text(textwrap.dedent(ORACLE_BODY))
    (tmp_path / "tests" / "test_ref.py").write_text(
        textwrap.dedent(ORACLE_TEST_BODY)
    )
    manifest = tmp_path / "golden_paths.toml"
    digest, _ = body_hash(tmp_path, "oracles.ref", "oracle_solve")
    assert digest is not None
    manifest.write_text(textwrap.dedent(f"""
        [[golden]]
        module = "oracles.ref"
        qualname = "oracle_solve"
        sha256 = "{digest}"
        test_pattern = "oracle_solve"
        why = "test oracle for the fast path"
    """))
    return tmp_path, manifest


class TestTestsSideOracle:
    def test_untouched_oracle_is_clean(self, oracle_project):
        root, manifest = oracle_project
        assert gold_findings(root, manifest) == []

    def test_oracle_body_mutation_is_detected(self, oracle_project):
        root, manifest = oracle_project
        ref = root / "tests" / "oracles" / "ref.py"
        ref.write_text(textwrap.dedent(ORACLE_BODY).replace("x - 1", "x - 2"))
        found = gold_findings(root, manifest)
        assert len(found) == 1
        assert "oracles.ref:oracle_solve" in found[0].message
        assert "changed" in found[0].message
        assert found[0].path == "tests/oracles/ref.py"

    def test_pattern_only_in_the_oracle_file_is_detected(self, oracle_project):
        # The oracle's own file mentions its name; that is no proof that
        # a test still exercises it.
        root, manifest = oracle_project
        (root / "tests" / "test_ref.py").write_text(
            "def test_other():\n    assert True\n"
        )
        found = gold_findings(root, manifest)
        assert len(found) == 1
        assert "no test referencing" in found[0].message


class TestUpdateManifest:
    def test_update_refreshes_hashes(self, project):
        root, manifest = project
        mod = root / "src" / "mypkg" / "mod.py"
        mod.write_text(textwrap.dedent(GOLDEN_BODY).replace("x + 1", "x + 3"))
        assert len(gold_findings(root, manifest)) == 1

        changed = update_manifest(root, manifest)
        assert changed == ["mypkg.mod:golden"]
        assert gold_findings(root, manifest) == []

        entries = load_manifest(manifest)
        digest, _ = body_hash(root, "mypkg.mod", "golden")
        assert entries[0].sha256 == digest

    def test_update_on_clean_tree_changes_nothing(self, project):
        root, manifest = project
        before = manifest.read_text()
        assert update_manifest(root, manifest) == []
        assert load_manifest(manifest)[0].sha256 in before


class TestShippedManifest:
    def test_shipped_manifest_matches_tree(self, repo_root):
        # The repo's own golden_paths.toml must stay in sync with the
        # shipped sources — this is the self-applied GOLD001 gate.
        assert check_golden(repo_root) == []

    def test_shipped_entries_cover_the_contract(self, repo_root):
        from repro.analysis.golden import DEFAULT_MANIFEST

        labels = {entry.label for entry in load_manifest(DEFAULT_MANIFEST)}
        assert "oracles.encode:TreeEncoder" in labels
        assert "oracles.solver:_lp_relaxation" in labels
        assert "oracles.objective:InterpretedObjective._q_interpreted" in labels
