"""One-pass AST rule engine for the determinism & invariant linter.

The engine parses each file once, walks the tree once, and dispatches
every node to the rules registered for its type.  Rules see a
:class:`FileContext` carrying what a single pass can cheaply maintain:

- parent links (``ctx.parent``) and the enclosing statement
  (``ctx.enclosing_stmt``) for usage-site pattern matching;
- a per-file symbol table — a stack of :class:`Scope` objects with the
  names each scope binds and a syntactic *kind* (``"set"``, ``"dict"``,
  ``"list"``, …) inferred from literals, constructor calls, and
  annotations (``ctx.resolve_kind``, ``ctx.is_module_global``);
- the dotted qualname of the enclosing function/class for reporting and
  baseline keys.

Findings are :class:`Finding` records (file, line, rule id, message);
every finding fails the run.  Two suppression channels exist, both
explicit:

- inline ``# repro: ignore[RULE]`` (or ``ignore[RULE1,RULE2]``) on the
  finding's line or on the first line of its enclosing statement —
  justify it in the trailing comment text;
- a baseline file of ``RULE  path  qualname`` triples
  (:func:`load_baseline`) for bulk grandfathering, ``-`` standing for
  module level.

The one project-level check that needs more than one file (GOLD001's
manifest hashes) runs after the per-file pass; :func:`run_analysis`
stitches everything together and is what ``python -m repro.analysis``
and the self-lint test call.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

_IGNORE_RE = re.compile(r"repro:\s*ignore\[([A-Za-z0-9_\s,]+)\]")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and why."""

    rule: str
    path: str  # posix path relative to the analysis root
    line: int
    col: int
    message: str
    qualname: str = ""  # enclosing def/class chain, "" at module level

    def format(self) -> str:
        where = f" (in {self.qualname})" if self.qualname else ""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message}{where}"
        )

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.qualname or "-")

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)


class Rule:
    """Base class: subclasses set ``rule_id``/``node_types``/``doc`` and
    implement :meth:`check`, reporting through ``ctx.report``."""

    rule_id: str = ""
    node_types: tuple[type, ...] = ()
    doc: str = ""

    def check(self, node: ast.AST, ctx: "FileContext") -> None:
        raise NotImplementedError


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _kind_of_value(value: ast.AST) -> str | None:
    """Syntactic container kind of an expression, if determinable."""
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, ast.Tuple):
        return "tuple"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return {
            "set": "set",
            "frozenset": "set",
            "dict": "dict",
            "list": "list",
            "sorted": "list",
            "tuple": "tuple",
        }.get(value.func.id)
    return None


def _kind_of_annotation(annotation: ast.AST) -> str | None:
    name = None
    if isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Subscript) and isinstance(
        annotation.value, ast.Name
    ):
        name = annotation.value.id
    if name is None:
        return None
    return {
        "set": "set",
        "Set": "set",
        "frozenset": "set",
        "FrozenSet": "set",
        "dict": "dict",
        "Dict": "dict",
        "list": "list",
        "List": "list",
    }.get(name)


class Scope:
    """Names bound in one lexical scope plus their inferred kinds."""

    def __init__(self, node: ast.AST | None, name: str) -> None:
        self.node = node
        self.name = name
        self.bound: set[str] = set()
        self.kinds: dict[str, str] = {}
        # name -> dotted target of the import that binds it
        # (``import os as system`` gives ``system -> os``).
        self.imports: dict[str, str] = {}

    def bind(self, name: str, kind: str | None = None) -> None:
        self.bound.add(name)
        if kind is not None:
            previous = self.kinds.get(name)
            if previous is not None and previous != kind:
                self.kinds[name] = "unknown"
            else:
                self.kinds[name] = kind
        elif name in self.kinds:
            # Rebinding with an unknown value poisons the old inference.
            self.kinds[name] = "unknown"


def _binding_names(target: ast.AST) -> Iterator[str]:
    """Names actually bound by an assignment/loop target.  Subscript and
    attribute targets mutate an existing object and bind nothing."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)


def _collect_bindings(scope: Scope, body: list[ast.stmt]) -> None:
    """Populate ``scope`` from its statements, without entering nested
    function/class scopes (their bodies bind their own names)."""
    stack: list[ast.stmt] = list(body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.bind(stmt.name, "callable")
            continue
        if isinstance(stmt, ast.Assign):
            kind = _kind_of_value(stmt.value)
            for target in stmt.targets:
                single = isinstance(target, ast.Name)
                for name in _binding_names(target):
                    scope.bind(name, kind if single else None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            kind = _kind_of_annotation(stmt.annotation)
            if kind is None and stmt.value is not None:
                kind = _kind_of_value(stmt.value)
            scope.bind(stmt.target.id, kind)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            scope.bind(stmt.target.id)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                scope.bind(name, "module")
                scope.imports[name] = alias.name if alias.asname else name
        elif isinstance(stmt, ast.ImportFrom):
            module = "." * stmt.level + (stmt.module or "")
            for alias in stmt.names:
                name = alias.asname or alias.name
                scope.bind(name, "module")
                scope.imports[name] = f"{module}.{alias.name}"
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in _binding_names(stmt.target):
                scope.bind(name)
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in _binding_names(item.optional_vars):
                        scope.bind(name)
            stack.extend(stmt.body)
        elif isinstance(stmt, (ast.If, ast.While)):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
            stack.extend(stmt.finalbody)
            for handler in stmt.handlers:
                if handler.name:
                    scope.bind(handler.name)
                stack.extend(handler.body)


def _scope_from_node(node: ast.AST) -> Scope:
    if isinstance(node, ast.ClassDef):
        scope = Scope(node, node.name)
        _collect_bindings(scope, node.body)
        return scope
    scope = Scope(node, getattr(node, "name", "<lambda>"))
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        scope.bind(arg.arg, _kind_of_annotation(arg.annotation) if arg.annotation else None)
    if not isinstance(node, ast.Lambda):
        _collect_bindings(scope, node.body)
    return scope


def scan_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed by ``# repro: ignore[...]``.

    A trailing comment suppresses its own line.  A *standalone* comment
    (nothing but whitespace before the ``#``) suppresses the next code
    line, skipping over blank lines and further comment lines — so a
    multi-line justification block above a statement works as long as
    the ``ignore[...]`` tag appears on any of its lines.
    """
    tagged: list[tuple[int, set[str], bool]] = []  # (line, rules, standalone)
    comment_only: set[int] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            standalone = token.line[: token.start[1]].strip() == ""
            if standalone:
                comment_only.add(token.start[0])
            match = _IGNORE_RE.search(token.string)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")} - {""}
                tagged.append((token.start[0], rules, standalone))
    except tokenize.TokenError:  # pragma: no cover - unterminated strings etc.
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _IGNORE_RE.search(line)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")} - {""}
                tagged.append((lineno, rules, line.lstrip().startswith("#")))

    lines = source.splitlines()
    suppressed: dict[int, set[str]] = {}
    for lineno, rules, standalone in tagged:
        target = lineno
        if standalone:
            target = lineno + 1
            while target <= len(lines) and (
                target in comment_only or not lines[target - 1].strip()
            ):
                target += 1
        suppressed.setdefault(target, set()).update(rules)
        if standalone:
            suppressed.setdefault(lineno, set()).update(rules)
    return suppressed


class FileContext:
    """Everything a rule may consult while visiting one file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path  # posix, relative to the analysis root
        self.source = source
        self.tree = tree
        self.parents: dict[int, ast.AST] = {}
        self.scope_stack: list[Scope] = []
        self.suppressions = scan_suppressions(source)
        self.findings: list[Finding] = []
        self.n_inline_suppressed = 0
        self._seen: set[tuple] = set()
        self.in_experiments = "/experiments/" in f"/{path}"

    # -- tree navigation -----------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        # repro: ignore[DET001] — the AST is pinned by ctx.tree for the
        # whole file pass, so node ids cannot be recycled while keyed.
        return self.parents.get(id(node))

    def enclosing_stmt(self, node: ast.AST) -> ast.stmt | None:
        current: ast.AST | None = node
        while current is not None and not isinstance(current, ast.stmt):
            current = self.parents.get(id(current))  # repro: ignore[DET001] — tree pinned by ctx.tree
        return current

    # -- symbol table ----------------------------------------------------------

    def resolve_kind(self, expr: ast.AST) -> str | None:
        """Container kind of an expression: literal inference first, then
        the scope chain for plain names."""
        kind = _kind_of_value(expr)
        if kind is not None:
            return kind
        if isinstance(expr, ast.Name):
            for scope in reversed(self.scope_stack):
                if expr.id in scope.bound:
                    return scope.kinds.get(expr.id, "unknown")
        return None

    def import_target(self, name: str) -> str | None:
        """The dotted name an import binds ``name`` to (``"os"`` after
        ``import os as system``), or None when the innermost scope that
        binds ``name`` binds it to anything else, or nothing binds it."""
        for scope in reversed(self.scope_stack):
            if name in scope.bound:
                if scope.kinds.get(name) != "module":
                    return None
                return scope.imports.get(name)
        return None

    def is_module_global(self, name: str) -> bool:
        """True when ``name`` resolves to a module-scope binding."""
        for scope in reversed(self.scope_stack):
            if name in scope.bound:
                return scope is self.scope_stack[0]
        return False

    def qualname(self) -> str:
        return ".".join(
            scope.name for scope in self.scope_stack[1:] if scope.name
        )

    # -- reporting -------------------------------------------------------------

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        check_lines = {lineno, getattr(node, "end_lineno", lineno)}
        stmt = self.enclosing_stmt(node)
        if stmt is not None:
            check_lines.add(stmt.lineno)
        for line in check_lines:
            if rule.rule_id in self.suppressions.get(line, ()):
                self.n_inline_suppressed += 1
                return
        key = (rule.rule_id, lineno, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                rule=rule.rule_id,
                path=self.path,
                line=lineno,
                col=col,
                message=message,
                qualname=self.qualname(),
            )
        )


def _dispatch(node: ast.AST, ctx: FileContext, table: dict[type, list[Rule]]) -> None:
    for rule in table.get(type(node), ()):
        rule.check(node, ctx)


def _walk(node: ast.AST, ctx: FileContext, table: dict[type, list[Rule]]) -> None:
    for child in ast.iter_child_nodes(node):
        ctx.parents[id(child)] = node  # repro: ignore[DET001] — tree pinned by ctx.tree
        if isinstance(child, _SCOPE_NODES):
            _dispatch(child, ctx, table)
            ctx.scope_stack.append(_scope_from_node(child))
            _walk(child, ctx, table)
            ctx.scope_stack.pop()
        else:
            _dispatch(child, ctx, table)
            _walk(child, ctx, table)


def default_rules() -> list[Rule]:
    from .rules import ALL_RULES

    return [rule() for rule in ALL_RULES]


def _rule_table(rules: list[Rule]) -> dict[type, list[Rule]]:
    table: dict[type, list[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            table.setdefault(node_type, []).append(rule)
    return table


def analyze_source(
    source: str,
    path: str = "<snippet>.py",
    rules: list[Rule] | None = None,
) -> FileContext:
    """Run the per-file pass over a source string (the test fixture entry
    point).  Returns the full :class:`FileContext` for inspection."""
    rules = default_rules() if rules is None else rules
    tree = ast.parse(source, filename=path)
    return _analyze_tree(path, source, tree, _rule_table(rules))


def _analyze_tree(
    path: str, source: str, tree: ast.Module, table: dict[type, list[Rule]]
) -> FileContext:
    """The per-file pass over a parsed module: both entry points run it."""
    ctx = FileContext(path, source, tree)
    module_scope = Scope(tree, "")
    _collect_bindings(module_scope, tree.body)
    ctx.scope_stack.append(module_scope)
    _walk(tree, ctx, table)
    return ctx


@dataclass
class AnalysisReport:
    """Aggregated result of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    n_inline_suppressed: int = 0
    n_files: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{len(self.findings)} finding(s), "
            f"{len(self.baselined)} baselined, "
            f"{self.n_inline_suppressed} inline-suppressed, "
            f"{self.n_files} file(s) scanned"
        )


def load_baseline(path: Path) -> set[tuple[str, str, str]]:
    """Parse a baseline file of ``RULE path qualname`` triples.

    ``#`` starts a comment (use it to justify every entry); blank lines
    are skipped; ``-`` as qualname stands for module level.
    """
    entries: set[tuple[str, str, str]] = set()
    if not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"{path}: malformed baseline line {raw!r} "
                "(expected: RULE path qualname)"
            )
        entries.add((parts[0], parts[1], parts[2]))
    return entries


def iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_analysis(
    root: Path,
    paths: list[Path] | None = None,
    rules: list[Rule] | None = None,
    baseline: set[tuple[str, str, str]] | None = None,
    manifest_path: Path | None = None,
    include_golden: bool = True,
) -> AnalysisReport:
    """The full analyzer: per-file rules, then project-level checks,
    then baseline filtering.  ``paths`` defaults to ``root/src/repro``."""
    root = Path(root)
    if paths is None:
        default = root / "src" / "repro"
        paths = [default if default.exists() else root]
    rules = default_rules() if rules is None else rules
    table = _rule_table(rules)
    report = AnalysisReport()
    collected: list[Finding] = []

    for file_path in iter_python_files([Path(p) for p in paths]):
        relpath = relative_posix(file_path, root)
        source = file_path.read_text()
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            report.parse_errors.append(
                Finding(
                    rule="PARSE",
                    path=relpath,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        ctx = _analyze_tree(relpath, source, tree, table)
        collected.extend(ctx.findings)
        report.n_inline_suppressed += ctx.n_inline_suppressed
        report.n_files += 1

    if include_golden:
        from .golden import check_golden

        collected.extend(check_golden(root, manifest_path))

    baseline = baseline or set()
    for finding in sorted(collected, key=lambda f: f.sort_key):
        if finding.baseline_key in baseline:
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    report.findings.extend(report.parse_errors)
    return report
