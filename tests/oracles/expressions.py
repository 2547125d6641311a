"""Tree-building symbolic forms of the plan expressions (test oracle).

The seed's expressions built per-tuple provenance trees:
``symbolic_bool`` gives one :class:`~oracles.provenance.BoolExpr`
per tuple, ``symbolic_num`` one
:class:`~oracles.provenance.NumExpr`.  The library now emits
node ids into a :class:`~repro.relational.compile.NodePool` instead
(``symbolic_bool_nodes``/``symbolic_num_nodes``); these functions keep
the tree forms for :class:`~oracles.executor.TreeExecutor` and the
equivalence tests.  Each rule is the seed method's body, dispatched on the
expression's class: ``self.child.symbolic_bool(batch, runtime)`` became
``symbolic_bool(self.child, batch, runtime)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedQueryError
from repro.relational.context import QueryRuntime, TupleBatch
from repro.relational.expressions import (
    _COMPARATORS,
    Arith,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Expr,
    ModelPredict,
    _safe_compare,
)

from . import provenance as prov


def symbolic_bool(
    expr: Expr, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    """Per-tuple boolean provenance trees of ``expr``."""
    return _rule(_BOOL_RULES, expr, _expr_symbolic_bool)(expr, batch, runtime)


def symbolic_num(
    expr: Expr, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.NumExpr]:
    """Per-tuple numeric provenance trees of ``expr``."""
    return _rule(_NUM_RULES, expr, _expr_symbolic_num)(expr, batch, runtime)


def _rule(rules: dict, expr: Expr, default):
    """The rule of the nearest class in ``expr``'s MRO, as method lookup does."""
    for cls in type(expr).__mro__:
        if cls in rules:
            return rules[cls]
    return default


# -- Expr: fold concrete values ------------------------------------------------


def _expr_symbolic_bool(
    self: Expr, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    """Per-tuple boolean provenance.  Default: fold concrete values."""
    if self.depends_on_model():
        raise UnsupportedQueryError(
            f"cannot build boolean provenance for {self!r}",
            feature=type(self).__name__,
        )
    values = np.asarray(self.eval(batch, runtime), dtype=bool)
    return [prov.const(bool(value)) for value in values]


def _expr_symbolic_num(
    self: Expr, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.NumExpr]:
    """Per-tuple numeric provenance.  Default: fold concrete values."""
    if self.depends_on_model():
        raise UnsupportedQueryError(
            f"cannot build numeric provenance for {self!r}",
            feature=type(self).__name__,
        )
    values = np.asarray(self.eval(batch, runtime), dtype=float)
    return [prov.ConstNum(float(value)) for value in values]


# -- numeric rules ---------------------------------------------------------------


def _arith_symbolic_num(
    self: Arith, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.NumExpr]:
    if not self.depends_on_model():
        return _expr_symbolic_num(self, batch, runtime)
    left = symbolic_num(self.left, batch, runtime)
    right = symbolic_num(self.right, batch, runtime)
    if self.op == "+":
        return [prov.add_(l, r) for l, r in zip(left, right)]
    if self.op == "-":
        return [
            prov.add_(l, prov.mul_(prov.ConstNum(-1.0), r))
            for l, r in zip(left, right)
        ]
    if self.op == "*":
        return [prov.mul_(l, r) for l, r in zip(left, right)]
    if self.op == "/":
        return [prov.DivExpr(l, r) for l, r in zip(left, right)]
    raise UnsupportedQueryError(
        f"operator {self.op!r} over model predictions is not supported",
        feature="arith-over-predict",
    )


def _predict_symbolic_num(
    self: ModelPredict, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.NumExpr]:
    classes = runtime.model_classes(self.model_name)
    try:
        class_values = [(label, float(label)) for label in classes]
    except (TypeError, ValueError) as exc:
        raise UnsupportedQueryError(
            f"model {self.model_name!r} has non-numeric classes; its "
            "predictions cannot appear in an arithmetic context",
            feature="predict-as-number",
        ) from exc
    return [
        prov.pred_value(site_id, class_values)
        for site_id in self.site_ids(batch, runtime)
    ]


# -- boolean rules ---------------------------------------------------------------


def _cmp_symbolic_bool(
    self: Cmp, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    left_model = self.left.depends_on_model()
    right_model = self.right.depends_on_model()
    if not left_model and not right_model:
        return _expr_symbolic_bool(self, batch, runtime)

    if isinstance(self.left, ModelPredict) and not right_model:
        return _predict_vs_values(self.left, self.right, self.op, batch, runtime)
    if isinstance(self.right, ModelPredict) and not left_model:
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(self.op, self.op)
        return _predict_vs_values(self.right, self.left, flipped, batch, runtime)
    if isinstance(self.left, ModelPredict) and isinstance(self.right, ModelPredict):
        return _predict_vs_predict(self, batch, runtime)
    raise UnsupportedQueryError(
        f"comparison {self!r} mixes predictions into arithmetic; "
        "only direct comparisons of predict(...) are supported in WHERE",
        feature="cmp-over-predict",
    )


def _predict_vs_values(
    predict: ModelPredict,
    other: Expr,
    op: str,
    batch: TupleBatch,
    runtime: QueryRuntime,
) -> list[prov.BoolExpr]:
    classes = runtime.model_classes(predict.model_name)
    site_ids = predict.site_ids(batch, runtime)
    values = other.eval(batch, runtime)
    compare = _COMPARATORS[op]
    out: list[prov.BoolExpr] = []
    for site_id, value in zip(site_ids, values):
        value = value.item() if hasattr(value, "item") else value
        matching = [label for label in classes if _safe_compare(compare, label, value)]
        if len(matching) == len(classes):
            out.append(prov.TRUE)  # exhaustive: always satisfied
        else:
            out.append(
                prov.or_(*[prov.PredIs(site_id, label) for label in matching])
            )
    return out


def _predict_vs_predict(
    self: Cmp, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    left: ModelPredict = self.left  # type: ignore[assignment]
    right: ModelPredict = self.right  # type: ignore[assignment]
    left_classes = runtime.model_classes(left.model_name)
    right_classes = runtime.model_classes(right.model_name)
    left_sites = left.site_ids(batch, runtime)
    right_sites = right.site_ids(batch, runtime)
    compare = _COMPARATORS[self.op]
    out: list[prov.BoolExpr] = []
    for left_site, right_site in zip(left_sites, right_sites):
        if left_site == right_site:
            # Same base row on both sides: predict(x) op predict(x).
            matching = [c for c in left_classes if _safe_compare(compare, c, c)]
            if len(matching) == len(left_classes):
                out.append(prov.TRUE)
            else:
                out.append(
                    prov.or_(*[prov.PredIs(left_site, c) for c in matching])
                )
            continue
        disjuncts = [
            prov.and_(prov.PredIs(left_site, lc), prov.PredIs(right_site, rc))
            for lc in left_classes
            for rc in right_classes
            if _safe_compare(compare, lc, rc)
        ]
        out.append(prov.or_(*disjuncts))
    return out


def _and_symbolic_bool(
    self: BoolAnd, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    parts = [symbolic_bool(child, batch, runtime) for child in self._children]
    return [prov.and_(*row_parts) for row_parts in zip(*parts)]


def _or_symbolic_bool(
    self: BoolOr, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    parts = [symbolic_bool(child, batch, runtime) for child in self._children]
    return [prov.or_(*row_parts) for row_parts in zip(*parts)]


def _not_symbolic_bool(
    self: BoolNot, batch: TupleBatch, runtime: QueryRuntime
) -> list[prov.BoolExpr]:
    return [prov.not_(cond) for cond in symbolic_bool(self.child, batch, runtime)]


_BOOL_RULES = {
    Cmp: _cmp_symbolic_bool,
    BoolAnd: _and_symbolic_bool,
    BoolOr: _or_symbolic_bool,
    BoolNot: _not_symbolic_bool,
}

_NUM_RULES = {
    Arith: _arith_symbolic_num,
    ModelPredict: _predict_symbolic_num,
}
