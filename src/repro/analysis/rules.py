"""The initial rule pack: this codebase's real nondeterminism hazards.

Each rule targets a bug class that has actually occurred (or nearly
occurred) in this repo's parallel-correctness history; see
``docs/ANALYSIS.md`` for the catalogue with worked examples.

- DET001 — ``id()``-keyed entries in *shared* (attribute / module-level)
  dicts or sets.  The PR 8 ``_aux_cache`` bug class: once the keyed
  object is garbage collected its id can be reused by a different
  object, silently merging cache entries.  Local memo dicts whose keys
  outlive the traversal (the ``memo[id(node)]`` lowering pattern) are
  allowed — the hazard is containers that outlive the keyed objects.
- DET002 — iteration over sets (hash order) or dict views feeding
  order-sensitive emission (``append``/``add_var``/``add_constraint``/
  ``yield`` …) without an enclosing ``sorted()``.
- DET003 — module-level / global RNG (``np.random.shuffle``,
  ``random.random``, argless ``default_rng()``) outside ``experiments/``
  instead of a threaded ``Generator``.
- DET004 — attribute writes to shared (non-local) objects inside
  callables handed to thread pools/``run_sharded`` without visible lock
  protection.
- KNOB001 — direct ``os.environ``/``os.getenv`` reads anywhere but the
  :mod:`repro.analysis.knobs` registry; plus a project check that every
  registered knob is documented in README/docs.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .engine import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    FileContext,
    Finding,
    Rule,
)


def _dotted_name(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-name chains."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return "<expr>"


def _is_shared_container(ctx: FileContext, expr: ast.AST) -> bool:
    """Attribute containers (``self._cache``) and module-level names are
    shared: they outlive any one call, so id-keys in them can dangle."""
    if isinstance(expr, ast.Attribute):
        return True
    if isinstance(expr, ast.Name):
        return ctx.is_module_global(expr.id)
    return False


class Det001IdKeyedSharedContainer(Rule):
    rule_id = "DET001"
    severity = SEVERITY_ERROR
    node_types = (ast.Call,)
    doc = (
        "id()-keyed entry in a shared container: ids can be reused after "
        "garbage collection, silently merging entries (the PR 8 "
        "_aux_cache bug)."
    )

    _KEY_METHODS = {
        "get",
        "setdefault",
        "add",
        "pop",
        "remove",
        "discard",
        "__contains__",
    }

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        if not (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
            and not node.keywords
        ):
            return
        parent = ctx.parent(node)
        container: ast.AST | None = None
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            container = parent.value
        elif (
            isinstance(parent, ast.Compare)
            and parent.left is node
            and len(parent.ops) == 1
            and isinstance(parent.ops[0], (ast.In, ast.NotIn))
        ):
            container = parent.comparators[0]
        elif (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr in self._KEY_METHODS
            and node in parent.args
        ):
            container = parent.func.value
        if container is not None and _is_shared_container(ctx, container):
            ctx.report(
                self,
                node,
                f"id({_unparse(node.args[0])}) keys the shared container "
                f"'{_unparse(container)}'; ids are reusable after GC — key "
                "on a pinned identity wrapper (ilp.encode._ExprKey) or a "
                "stable node id instead",
            )


#: Method names whose call order changes the emitted artifact.
ORDER_SENSITIVE_SINKS = frozenset(
    {
        "append",
        "extend",
        "appendleft",
        "add_var",
        "add_constraint",
        "add_dense_constraint",
        "add_row",
        "add_complaints",
        "submit",
        "submit_train",
        "submit_execute",
        "put",
        "write",
        "writerow",
    }
)

#: Consumers that erase iteration order (safe over sets).
ORDER_ERASING_CONSUMERS = frozenset(
    {"set", "frozenset", "sorted", "any", "all", "min", "max", "len", "dict"}
)


def _iteration_kind(ctx: FileContext, expr: ast.AST) -> str | None:
    """Classify an iteration source: "set", "dict-view", or None (safe or
    unknown).  ``sorted(...)`` (and ``list(sorted(...))``) neutralizes."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id == "sorted":
            return None
        if expr.func.id in ("list", "tuple") and len(expr.args) == 1:
            return _iteration_kind(ctx, expr.args[0])
        if expr.func.id in ("set", "frozenset"):
            return "set"
        if expr.func.id in ("enumerate", "reversed", "iter") and expr.args:
            return _iteration_kind(ctx, expr.args[0])
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("keys", "values", "items")
        and not expr.args
    ):
        return "dict-view"
    kind = ctx.resolve_kind(expr)
    if kind == "set":
        return "set"
    return None


def _body_has_sink(body: list[ast.stmt]) -> ast.AST | None:
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ORDER_SENSITIVE_SINKS
            ):
                return node
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node
    return None


class Det002UnorderedIteration(Rule):
    rule_id = "DET002"
    severity = SEVERITY_ERROR
    node_types = (ast.For, ast.ListComp, ast.GeneratorExp)
    doc = (
        "Iteration over a set (hash order) or a dict view feeding "
        "order-sensitive emission without an enclosing sorted()."
    )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.For):
            kind = _iteration_kind(ctx, node.iter)
            if kind == "set" and (sink := _body_has_sink(node.body)):
                ctx.report(
                    self,
                    node.iter,
                    f"iterating the set '{_unparse(node.iter)}' in hash "
                    f"order into order-sensitive '{_unparse(sink)[:60]}'; "
                    "wrap the set in sorted()",
                )
            elif kind == "dict-view" and (sink := _body_has_sink(node.body)):
                ctx.report(
                    self,
                    node.iter,
                    f"dict-view iteration '{_unparse(node.iter)}' flows "
                    f"into order-sensitive '{_unparse(sink)[:60]}'; wrap "
                    "the view in sorted() or justify insertion-order "
                    "determinism with an inline ignore",
                )
            return

        # Comprehensions: a list built from a set inherits hash order;
        # generators are safe when consumed by an order-erasing callable.
        sources = [
            comp.iter
            for comp in node.generators
            if _iteration_kind(ctx, comp.iter) == "set"
        ]
        if not sources:
            return
        if isinstance(node, ast.GeneratorExp):
            parent = ctx.parent(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ORDER_ERASING_CONSUMERS
                and node in parent.args
            ):
                return
        ctx.report(
            self,
            sources[0],
            f"building an ordered sequence from the set "
            f"'{_unparse(sources[0])}' (hash order); wrap in sorted()",
        )


class Det003GlobalRng(Rule):
    rule_id = "DET003"
    severity = SEVERITY_ERROR
    node_types = (ast.Call,)
    doc = (
        "Module-level / global RNG use outside experiments/: thread a "
        "seeded np.random.Generator instead."
    )

    _NP_SAFE = frozenset(
        {
            "default_rng",
            "SeedSequence",
            "Generator",
            "BitGenerator",
            "PCG64",
            "Philox",
            "SFC64",
            "RandomState",
        }
    )
    _STDLIB_FNS = frozenset(
        {
            "random",
            "randint",
            "randrange",
            "choice",
            "choices",
            "shuffle",
            "sample",
            "uniform",
            "seed",
            "gauss",
            "normalvariate",
            "betavariate",
            "expovariate",
            "getrandbits",
            "triangular",
        }
    )

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        if ctx.in_experiments:
            return
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        if len(dotted) >= 3 and dotted[0] in ("np", "numpy") and dotted[1] == "random":
            if dotted[2] not in self._NP_SAFE:
                ctx.report(
                    self,
                    node,
                    f"global numpy RNG '{'.'.join(dotted)}' draws from "
                    "shared module state; thread a seeded "
                    "np.random.Generator instead",
                )
                return
        if (
            dotted[-1] in ("default_rng", "RandomState")
            and not node.args
            and not node.keywords
            and (len(dotted) == 1 or dotted[-2] == "random")
        ):
            ctx.report(
                self,
                node,
                f"argless {dotted[-1]}() seeds from OS entropy — every run "
                "differs; pass an explicit seed or SeedSequence child",
            )
            return
        if (
            len(dotted) == 2
            and dotted[0] == "random"
            and dotted[1] in self._STDLIB_FNS
        ):
            ctx.report(
                self,
                node,
                f"stdlib global RNG 'random.{dotted[1]}' is shared mutable "
                "state; thread a seeded np.random.Generator instead",
            )


class Det004UnsyncedSharedWrite(Rule):
    rule_id = "DET004"
    severity = SEVERITY_WARNING
    node_types = (ast.Call,)
    doc = (
        "Attribute write to a shared object inside a callable submitted "
        "to a thread pool without lock or ordered-merge protection."
    )

    _SUBMIT_ATTRS = frozenset({"submit", "submit_train", "submit_execute"})
    _SUBMIT_NAMES = frozenset({"run_sharded"})

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        target: ast.AST | None = None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._SUBMIT_ATTRS
            and node.args
        ):
            target = node.args[0]
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in self._SUBMIT_NAMES
            and node.args
        ) or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._SUBMIT_NAMES
            and node.args
        ):
            target = node.args[0]
        if target is None:
            return
        fn_node = self._resolve_callable(ctx, target)
        if fn_node is None:
            return
        for write in self._unsynced_writes(fn_node):
            ctx.report(
                self,
                write,
                f"'{_unparse(write)[:60]}' writes a shared attribute inside "
                "a pool-submitted callable without a lock; merge results on "
                "the driver (ordered merge) or hold a lock",
            )

    def _resolve_callable(self, ctx: FileContext, target: ast.AST):
        if isinstance(target, ast.Lambda):
            return target
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is None:
            return None
        for candidate in ast.walk(ctx.tree):
            if (
                isinstance(candidate, (ast.FunctionDef, ast.AsyncFunctionDef))
                and candidate.name == name
            ):
                return candidate
        return None

    def _unsynced_writes(self, fn_node) -> list[ast.AST]:
        body = fn_node.body if not isinstance(fn_node, ast.Lambda) else [fn_node.body]
        local_names: set[str] = set()
        if not isinstance(fn_node, ast.Lambda):
            for stmt in body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Store
                    ):
                        local_names.add(sub.id)
        writes: list[ast.AST] = []
        locked_ranges: list[tuple[int, int]] = []
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.With, ast.AsyncWith)):
                    for item in sub.items:
                        if "lock" in _unparse(item.context_expr).lower():
                            locked_ranges.append(
                                (sub.lineno, sub.end_lineno or sub.lineno)
                            )
        for stmt in body:
            for sub in ast.walk(stmt):
                targets: list[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    targets = [sub.target]
                for tgt in targets:
                    for attr in ast.walk(tgt):
                        if not isinstance(attr, ast.Attribute):
                            continue
                        base = attr.value
                        while isinstance(base, ast.Attribute):
                            base = base.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in local_names
                        ):
                            continue  # worker-private object
                        line = attr.lineno
                        if any(
                            start <= line <= end
                            for start, end in locked_ranges
                        ):
                            continue
                        writes.append(attr)
        return writes


class Knob001DirectEnvRead(Rule):
    rule_id = "KNOB001"
    severity = SEVERITY_ERROR
    node_types = (ast.Subscript, ast.Call)
    doc = (
        "Direct os.environ / os.getenv access outside the "
        "repro.analysis.knobs registry."
    )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.is_knob_registry:
            return
        if isinstance(node, ast.Subscript):
            dotted = _dotted_name(node.value)
            if dotted in (("os", "environ"), ("environ",)):
                self._flag(node, ctx, _unparse(node))
            return
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        if dotted in (("os", "getenv"), ("getenv",)):
            self._flag(node, ctx, _unparse(node.func))
        elif (
            len(dotted) >= 2
            and dotted[-2:] == ("environ", "get")
            and (len(dotted) == 2 or dotted[0] == "os")
        ):
            self._flag(node, ctx, _unparse(node.func))

    def _flag(self, node: ast.AST, ctx: FileContext, what: str) -> None:
        ctx.report(
            self,
            node,
            f"direct environment read '{what}'; declare the knob in "
            "repro.analysis.knobs and read it via knobs.read(name)",
        )


def check_knob_docs(root: Path) -> list[Finding]:
    """KNOB001 project check: every registered knob's env var must appear
    in README.md or docs/*.md (the satellite documentation contract)."""
    from . import knobs

    root = Path(root)
    corpus = ""
    readme = root / "README.md"
    if readme.exists():
        corpus += readme.read_text()
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        for doc in sorted(docs_dir.glob("*.md")):
            corpus += doc.read_text()
    if not corpus:
        # Fixture trees without docs opt out of the documentation check.
        return []
    findings = []
    for knob in knobs.all_knobs():
        if knob.env_var not in corpus:
            findings.append(
                Finding(
                    rule="KNOB001",
                    severity=SEVERITY_ERROR,
                    path="README.md",
                    line=1,
                    col=0,
                    message=(
                        f"registered knob {knob.name!r} ({knob.env_var}) is "
                        "not documented in README.md or docs/*.md"
                    ),
                )
            )
    return findings


ALL_RULES: list[type[Rule]] = [
    Det001IdKeyedSharedContainer,
    Det002UnorderedIteration,
    Det003GlobalRng,
    Det004UnsyncedSharedWrite,
    Knob001DirectEnvRead,
]
