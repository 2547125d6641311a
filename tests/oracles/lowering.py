"""Lowering of interpreted provenance trees into a compiled node pool.

The executor writes compiled nodes directly, so only tests lower trees:
:func:`add_expr` turns a :class:`~oracles.provenance.BoolExpr` or
:class:`~oracles.provenance.NumExpr` DAG into pool nodes, which
lets the equivalence tests run one expression through both the tree
interpreter and :class:`~repro.relational.compile.CompiledProvenance`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ProvenanceError
from repro.relational.compile import (
    FALSE_NODE,
    OP_ADD,
    OP_AND,
    OP_CONST,
    OP_DIV,
    OP_MUL,
    OP_NOT,
    OP_OR,
    TRUE_NODE,
    NodePool,
)

from . import provenance as prov
from .relax import _children as _tree_children


def add_expr(pool: NodePool, expr: prov.BoolExpr | prov.NumExpr) -> int:
    """Lower one interpreted expression tree/DAG into the pool."""
    memo: dict[int, int] = {}
    post: list[object] = []
    stack: list[tuple[object, bool]] = [(expr, False)]
    seen: set[int] = set()
    while stack:
        node, processed = stack.pop()
        if processed:
            post.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in _tree_children(node):
            if id(child) not in seen:
                stack.append((child, False))
    for node in post:
        if id(node) in memo:
            continue
        memo[id(node)] = _lower_one(pool, node, memo)
    return memo[id(expr)]


def add_exprs(
    pool: NodePool, exprs: Sequence[prov.BoolExpr | prov.NumExpr]
) -> np.ndarray:
    return np.asarray([add_expr(pool, expr) for expr in exprs], dtype=np.int64)


def _lower_one(pool: NodePool, node, memo: dict[int, int]) -> int:
    if isinstance(node, prov.TrueExpr):
        return TRUE_NODE
    if isinstance(node, prov.FalseExpr):
        return FALSE_NODE
    if isinstance(node, prov.PredIs):
        label_ids = pool.intern_labels(np.asarray([node.label], dtype=object))
        return int(pool.atoms(np.asarray([node.site_id]), label_ids)[0])
    if isinstance(node, prov.NotExpr):
        return pool._append_scalar(
            OP_NOT, children=(memo[id(node.child)],), is_bool=True
        )
    if isinstance(node, prov.AndExpr):
        return pool._append_scalar(
            OP_AND,
            children=[memo[id(child)] for child in node.children],
            is_bool=True,
        )
    if isinstance(node, prov.OrExpr):
        return pool._append_scalar(
            OP_OR,
            children=[memo[id(child)] for child in node.children],
            is_bool=True,
        )
    if isinstance(node, prov.ConstNum):
        return pool._append_scalar(OP_CONST, value=node.value)
    if isinstance(node, prov.BoolAsNum):
        # Identity under both discrete and relaxed semantics.
        return memo[id(node.expr)]
    if isinstance(node, prov.LinearSum):
        return pool._append_scalar(
            OP_ADD,
            children=[memo[id(cond)] for _, cond in node.terms],
            coeffs=[coeff for coeff, _ in node.terms],
        )
    if isinstance(node, prov.AddExpr):
        return pool._append_scalar(
            OP_ADD, children=[memo[id(child)] for child in node.children]
        )
    if isinstance(node, prov.MulExpr):
        return pool._append_scalar(
            OP_MUL, children=[memo[id(child)] for child in node.children]
        )
    if isinstance(node, prov.DivExpr):
        return pool._append_scalar(
            OP_DIV,
            children=(memo[id(node.numerator)], memo[id(node.denominator)]),
        )
    raise ProvenanceError(f"cannot compile node of type {type(node).__name__}")
