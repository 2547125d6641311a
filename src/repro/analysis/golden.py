"""GOLD001: the golden-path guard.

The repo's equivalence guarantees are anchored on a handful of
*golden reference* implementations — the tree-walking ILP encoder, the
``linprog`` LP relaxation oracle, the per-record gradient reference, the
interpreted objective.  Every fast path is pinned
bit-identical to one of them, so silently editing a golden body voids
every equivalence guarantee downstream.

``golden_paths.toml`` is the manifest: one ``[[golden]]`` entry per
reference with its module, qualname, a hash of the function/class body,
a substring that must appear somewhere under ``tests/`` (proof the
reference is still exercised), and a one-line justification.  The check
fails when

- the module or qualname no longer resolves,
- the body hash changed without the manifest being updated (run
  ``python -m repro.analysis --update-golden`` *after* re-running the
  equivalence tests), or
- no test file references the entry's ``test_pattern``.

Hashes are over ``ast.dump`` of the def/class node, so formatting and
comments don't churn them — only semantic edits do.
"""

from __future__ import annotations

import ast
import hashlib
import tomllib
from dataclasses import dataclass
from pathlib import Path

from .engine import Finding

DEFAULT_MANIFEST = Path(__file__).with_name("golden_paths.toml")


@dataclass(frozen=True)
class GoldenEntry:
    module: str
    qualname: str
    sha256: str
    test_pattern: str
    why: str = ""

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


def load_manifest(path: Path) -> list[GoldenEntry]:
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    entries = []
    for raw in data.get("golden", []):
        entries.append(
            GoldenEntry(
                module=raw["module"],
                qualname=raw["qualname"],
                sha256=raw.get("sha256", ""),
                test_pattern=raw.get("test_pattern", raw["qualname"].split(".")[-1]),
                why=raw.get("why", ""),
            )
        )
    return entries


def _module_file(root: Path, module: str) -> Path:
    return root / "src" / Path(*module.split(".")).with_suffix(".py")


def _find_node(tree: ast.Module, qualname: str):
    """Resolve ``Class.method`` / ``func`` to its def node, with line."""
    parts = qualname.split(".")
    scope: ast.AST = tree
    for part in parts:
        found = None
        for child in ast.iter_child_nodes(scope):
            if (
                isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and child.name == part
            ):
                found = child
                break
        if found is None:
            return None
        scope = found
    return scope


def body_hash(root: Path, module: str, qualname: str) -> tuple[str | None, int]:
    """``(sha256-hex, lineno)`` of the named def/class body, or
    ``(None, 0)`` when it doesn't resolve."""
    path = _module_file(root, module)
    if not path.exists():
        return None, 0
    tree = ast.parse(path.read_text(), filename=str(path))
    node = _find_node(tree, qualname)
    if node is None:
        return None, 0
    digest = hashlib.sha256(ast.dump(node).encode()).hexdigest()
    return digest, node.lineno


def _tests_reference(root: Path, pattern: str) -> bool:
    tests_dir = root / "tests"
    if not tests_dir.is_dir():
        return False
    for path in sorted(tests_dir.rglob("*.py")):
        if pattern in path.read_text():
            return True
    return False


def check_golden(root: Path, manifest_path: Path | None = None) -> list[Finding]:
    root = Path(root)
    manifest_path = Path(manifest_path or DEFAULT_MANIFEST)
    if not manifest_path.exists():
        return [
            Finding(
                rule="GOLD001",
                path=manifest_path.name,
                line=1,
                col=0,
                message=f"golden manifest {manifest_path} is missing",
            )
        ]
    findings: list[Finding] = []
    for entry in load_manifest(manifest_path):
        module_relpath = _module_file(root, entry.module)
        try:
            relpath = module_relpath.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = module_relpath.as_posix()
        digest, lineno = body_hash(root, entry.module, entry.qualname)
        if digest is None:
            findings.append(
                Finding(
                    rule="GOLD001",
                    path=relpath,
                    line=1,
                    col=0,
                    message=(
                        f"golden path {entry.label} no longer resolves; "
                        "restore it or update golden_paths.toml deliberately"
                    ),
                )
            )
            continue
        if digest != entry.sha256:
            findings.append(
                Finding(
                    rule="GOLD001",
                    path=relpath,
                    line=lineno,
                    col=0,
                    message=(
                        f"golden path {entry.label} body changed without a "
                        "manifest update; re-run the equivalence tests, then "
                        "`python -m repro.analysis --update-golden`"
                    ),
                    qualname=entry.qualname,
                )
            )
        if not _tests_reference(root, entry.test_pattern):
            findings.append(
                Finding(
                    rule="GOLD001",
                    path=relpath,
                    line=lineno,
                    col=0,
                    message=(
                        f"golden path {entry.label} has no test referencing "
                        f"{entry.test_pattern!r}; the reference must stay "
                        "exercised"
                    ),
                    qualname=entry.qualname,
                )
            )
    return findings


def update_manifest(root: Path, manifest_path: Path | None = None) -> list[str]:
    """Rewrite every entry's hash from the current tree; returns the
    labels whose hashes changed."""
    root = Path(root)
    manifest_path = Path(manifest_path or DEFAULT_MANIFEST)
    entries = load_manifest(manifest_path)
    changed: list[str] = []
    lines = [
        "# Golden-path manifest (GOLD001).  Each entry pins a reference",
        "# implementation the fast paths are bit-identical to.  Regenerate",
        "# hashes with `python -m repro.analysis --update-golden` ONLY after",
        "# re-running the equivalence tests on the edited reference.",
    ]
    for entry in entries:
        digest, _ = body_hash(root, entry.module, entry.qualname)
        if digest is None:
            raise FileNotFoundError(
                f"golden path {entry.label} does not resolve in {root}"
            )
        if digest != entry.sha256:
            changed.append(entry.label)
        lines += [
            "",
            "[[golden]]",
            f'module = "{entry.module}"',
            f'qualname = "{entry.qualname}"',
            f'sha256 = "{digest}"',
            f'test_pattern = "{entry.test_pattern}"',
            f'why = "{entry.why}"',
        ]
    manifest_path.write_text("\n".join(lines) + "\n")
    return changed
