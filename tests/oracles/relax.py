"""Differentiable relaxation of provenance polynomials (Section 5.3).

Holistic replaces every discrete prediction in a provenance polynomial with
its class probability and every boolean operator with its continuous
counterpart::

    x AND y  →  x · y
    x OR  y  →  1 - (1 - x)(1 - y)
    NOT x    →  1 - x

applied even when sub-expressions share variables (the paper's tractable
independence assumption; exact when each variable occurs once).  Aggregate
polynomials relax linearly (COUNT → Σ p, SUM → Σ coeff·p, AVG → ratio).

:class:`Relaxer` evaluates a polynomial at a probability matrix ``P`` of
shape ``(n_sites, n_classes)`` and returns both the value and ``∂value/∂P``
via one reverse sweep over the expression DAG.  Composed with the model's
probability VJP this yields ``∇_θ q(θ)`` for influence analysis.

This per-tree interpreter is the test oracle for the relaxation
semantics.  The production path
(:class:`~repro.relational.compile.CompiledProvenance`, used by
:class:`~repro.relaxation.objective.RelaxedComplaintObjective`)
evaluates every complaint polynomial of a query in one level-batched numpy
sweep and is pinned to this implementation by randomized equivalence tests
(values and gradients within 1e-9).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import RelaxationError

from . import provenance as prov


class Relaxer:
    """Evaluates relaxed polynomials and their probability gradients."""

    def __init__(self, class_columns: Mapping[object, int], n_classes: int) -> None:
        """``class_columns`` maps class label -> column index of ``P``."""
        self.class_columns = dict(class_columns)
        self.n_classes = int(n_classes)

    @classmethod
    def for_model(cls, model) -> "Relaxer":
        return cls(
            {label: index for index, label in enumerate(model.classes)},
            len(model.classes),
        )

    # -- forward -------------------------------------------------------------------

    def value(self, node, P: np.ndarray) -> float:
        """Relaxed value of a Bool/Num provenance expression at ``P``."""
        values: dict[int, float] = {}
        for current in _topological(node):
            values[id(current)] = self._forward_one(current, values, P)
        return values[id(node)]

    def value_and_grad(
        self, node, P: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Relaxed value and gradient ``∂value/∂P`` (same shape as ``P``)."""
        order = _topological(node)
        values: dict[int, float] = {}
        for current in order:
            values[id(current)] = self._forward_one(current, values, P)
        adjoints: dict[int, float] = {id(current): 0.0 for current in order}
        adjoints[id(node)] = 1.0
        grad = np.zeros_like(P, dtype=np.float64)
        for current in reversed(order):
            self._backward_one(current, values, adjoints, grad, P)
        return values[id(node)], grad

    # -- per-node rules --------------------------------------------------------------

    def _prob(self, atom: prov.PredIs, P: np.ndarray) -> float:
        try:
            column = self.class_columns[atom.label]
        except KeyError:
            raise RelaxationError(
                f"atom class {atom.label!r} is not a model class"
            ) from None
        return float(P[atom.site_id, column])

    def _forward_one(self, node, values: dict[int, float], P: np.ndarray) -> float:
        if isinstance(node, prov.TrueExpr):
            return 1.0
        if isinstance(node, prov.FalseExpr):
            return 0.0
        if isinstance(node, prov.PredIs):
            return self._prob(node, P)
        if isinstance(node, prov.AndExpr):
            out = 1.0
            for child in node.children:
                out *= values[id(child)]
            return out
        if isinstance(node, prov.OrExpr):
            out = 1.0
            for child in node.children:
                out *= 1.0 - values[id(child)]
            return 1.0 - out
        if isinstance(node, prov.NotExpr):
            return 1.0 - values[id(node.child)]
        if isinstance(node, prov.ConstNum):
            return node.value
        if isinstance(node, prov.BoolAsNum):
            return values[id(node.expr)]
        if isinstance(node, prov.LinearSum):
            return float(
                sum(coeff * values[id(cond)] for coeff, cond in node.terms)
            )
        if isinstance(node, prov.AddExpr):
            return float(sum(values[id(child)] for child in node.children))
        if isinstance(node, prov.MulExpr):
            out = 1.0
            for child in node.children:
                out *= values[id(child)]
            return out
        if isinstance(node, prov.DivExpr):
            denominator = values[id(node.denominator)]
            if denominator == 0.0:
                raise RelaxationError(
                    "relaxed AVG denominator is zero; the complained group is "
                    "unreachable under the current model"
                )
            return values[id(node.numerator)] / denominator
        raise RelaxationError(f"cannot relax node of type {type(node).__name__}")

    def _backward_one(
        self,
        node,
        values: dict[int, float],
        adjoints: dict[int, float],
        grad: np.ndarray,
        P: np.ndarray,
    ) -> None:
        adjoint = adjoints[id(node)]
        if adjoint == 0.0:
            return
        if isinstance(node, prov.PredIs):
            grad[node.site_id, self.class_columns[node.label]] += adjoint
            return
        if isinstance(node, (prov.TrueExpr, prov.FalseExpr, prov.ConstNum)):
            return
        if isinstance(node, prov.AndExpr) or isinstance(node, prov.MulExpr):
            children = node.children
            child_values = [values[id(child)] for child in children]
            for index, child in enumerate(children):
                others = 1.0
                for other_index, value in enumerate(child_values):
                    if other_index != index:
                        others *= value
                adjoints[id(child)] += adjoint * others
            return
        if isinstance(node, prov.OrExpr):
            children = node.children
            complements = [1.0 - values[id(child)] for child in children]
            for index, child in enumerate(children):
                others = 1.0
                for other_index, value in enumerate(complements):
                    if other_index != index:
                        others *= value
                adjoints[id(child)] += adjoint * others
            return
        if isinstance(node, prov.NotExpr):
            adjoints[id(node.child)] -= adjoint
            return
        if isinstance(node, prov.BoolAsNum):
            adjoints[id(node.expr)] += adjoint
            return
        if isinstance(node, prov.LinearSum):
            for coeff, cond in node.terms:
                adjoints[id(cond)] += adjoint * coeff
            return
        if isinstance(node, prov.AddExpr):
            for child in node.children:
                adjoints[id(child)] += adjoint
            return
        if isinstance(node, prov.DivExpr):
            denominator = values[id(node.denominator)]
            numerator = values[id(node.numerator)]
            adjoints[id(node.numerator)] += adjoint / denominator
            adjoints[id(node.denominator)] -= adjoint * numerator / denominator**2
            return
        raise RelaxationError(f"cannot relax node of type {type(node).__name__}")


def _topological(root) -> list:
    """Children-before-parents order over the expression DAG (iterative)."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in _children(node):
            if id(child) not in seen:
                stack.append((child, False))
    return order


def _children(node) -> Sequence:
    if isinstance(node, (prov.AndExpr, prov.OrExpr, prov.AddExpr, prov.MulExpr)):
        return node.children
    if isinstance(node, prov.NotExpr):
        return (node.child,)
    if isinstance(node, prov.BoolAsNum):
        return (node.expr,)
    if isinstance(node, prov.LinearSum):
        return tuple(cond for _, cond in node.terms)
    if isinstance(node, prov.DivExpr):
        return (node.numerator, node.denominator)
    return ()
