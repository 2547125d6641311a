"""The test oracles stay on the test side of the boundary.

``tests/oracles/`` holds the seed implementations the library is pinned
to.  The library must run without them, so no module under ``src/repro``
may import them, under either the name ``pytest.ini`` gives them
(``oracles``) or a path through ``tests``.
"""

import ast
from pathlib import Path

import oracles

FORBIDDEN_ROOTS = {"oracles", "tests"}


def _imported_roots(path: Path) -> set[str]:
    roots: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_oracles_resolve_to_the_tests_package(repo_root):
    assert Path(oracles.__file__).resolve() == (
        repo_root / "tests" / "oracles" / "__init__.py"
    ).resolve()


def test_library_never_imports_the_oracles(repo_root):
    offenders = {
        path.relative_to(repo_root).as_posix(): sorted(
            _imported_roots(path) & FORBIDDEN_ROOTS
        )
        for path in sorted((repo_root / "src" / "repro").rglob("*.py"))
        if _imported_roots(path) & FORBIDDEN_ROOTS
    }
    assert offenders == {}


def test_the_guard_sees_an_oracle_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import numpy\nfrom oracles.solver import solve_reference\n")
    assert _imported_roots(module) & FORBIDDEN_ROOTS == {"oracles"}
