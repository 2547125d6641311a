"""The seed's tree-walking TwoStep encoder, kept as the test oracle.

:class:`TreeEncoder` materializes each complaint's provenance as an
expression tree and linearizes it by recursion: one ``add_var`` per AND/OR
node and one ``add_constraint`` per linking row.  It encodes tree results
(:class:`oracles.TreeExecutor`) and compiled ones alike; the production
:class:`repro.ilp.TiresiasEncoder`, which reads the node pool directly, is
pinned to build byte-identical programs on compiled results (compare them
with :func:`program_signature`).

Aux variables are cached on an identity key that pins the expression
(:class:`_ExprKey`).  For trees materialized from a node pool this is the
same as keying on canonical node ids: each pool node materializes to
exactly one object, and a node that folds away to its representative's.
"""

from __future__ import annotations

from repro.complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
)
from repro.errors import ILPError
from repro.ilp.encode import Affine, TiresiasEncoder, _affine_add, _affine_scale
from repro.relational.executor import QueryResult

from . import provenance as prov

__all__ = ["TreeEncoder", "program_signature"]


def program_signature(program) -> tuple:
    """Everything that defines a program except variable names."""
    return (
        program.n_vars,
        tuple(sorted(program.objective.items())),
        program.objective_constant,
        tuple(
            (constraint.sense, constraint.rhs, tuple(constraint.coeffs))
            for constraint in program.constraints
        ),
        tuple(sorted(program.fixed.items())),
    )


class _ExprKey:
    """Identity key for an aux-cache entry that pins its expression alive.

    Keying the cache on a bare ``id(expr)`` is unsound for lazily built
    trees: once an expression is garbage collected its id can be reused by
    a *different* subexpression, silently merging the two.  The wrapper
    holds a strong reference (the cache keeps the key), so the id stays
    taken for as long as the entry exists.
    """

    __slots__ = ("expr",)

    def __init__(self, expr) -> None:
        self.expr = expr

    def __hash__(self) -> int:
        return hash(id(self.expr))

    def __eq__(self, other) -> bool:
        return isinstance(other, _ExprKey) and self.expr is other.expr


class TreeEncoder(TiresiasEncoder):
    """The TwoStep ILP by recursion over materialized provenance trees.

    Site variables, the one-hot rows, the objective and the read-back of
    solutions are the production encoder's; only complaint encoding walks
    trees.
    """

    def __init__(self, result: QueryResult) -> None:
        if not result.debug:
            raise ILPError("TwoStep needs a debug-mode query result")
        self.result = result
        self._layout_sites(result)
        self._aux_cache: dict[_ExprKey, Affine] = {}

    # -- boolean linearization ---------------------------------------------------

    def bool_affine(self, expr: prov.BoolExpr) -> Affine:
        """Affine form whose value equals the boolean expression's truth."""
        if isinstance(expr, prov.TrueExpr):
            return {}, 1.0
        if isinstance(expr, prov.FalseExpr):
            return {}, 0.0
        if isinstance(expr, prov.PredIs):
            key = (expr.site_id, expr.label)
            if key not in self.y_vars:
                raise ILPError(f"atom {expr!r} refers to an unknown site/class")
            return {self.y_vars[key]: 1.0}, 0.0
        if isinstance(expr, prov.NotExpr):
            inner = self.bool_affine(expr.child)
            return _affine_add(({}, 1.0), inner, scale=-1.0)
        key = _ExprKey(expr)
        cached = self._aux_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, prov.AndExpr):
            affine = self._linearize_and(expr)
        elif isinstance(expr, prov.OrExpr):
            affine = self._linearize_or(expr)
        else:
            raise ILPError(f"cannot linearize {type(expr).__name__}")
        self._aux_cache[key] = affine
        return affine

    def _linearize_and(self, expr: prov.AndExpr) -> Affine:
        z = self.program.add_var(f"and_{len(self._aux_cache)}")
        children = [self.bool_affine(child) for child in expr.children]
        # z <= child_i  →  z - child_i <= 0
        for child in children:
            coeffs = {z: 1.0}
            for index, coeff in child[0].items():
                coeffs[index] = coeffs.get(index, 0.0) - coeff
            self.program.add_constraint(coeffs, "<=", child[1])
        # z >= Σ child_i - (k - 1)
        total: Affine = ({}, 0.0)
        for child in children:
            total = _affine_add(total, child)
        coeffs = {z: 1.0}
        for index, coeff in total[0].items():
            coeffs[index] = coeffs.get(index, 0.0) - coeff
        self.program.add_constraint(coeffs, ">=", total[1] - (len(children) - 1))
        return {z: 1.0}, 0.0

    def _linearize_or(self, expr: prov.OrExpr) -> Affine:
        z = self.program.add_var(f"or_{len(self._aux_cache)}")
        children = [self.bool_affine(child) for child in expr.children]
        # z >= child_i
        for child in children:
            coeffs = {z: 1.0}
            for index, coeff in child[0].items():
                coeffs[index] = coeffs.get(index, 0.0) - coeff
            self.program.add_constraint(coeffs, ">=", child[1])
        # z <= Σ child_i
        total: Affine = ({}, 0.0)
        for child in children:
            total = _affine_add(total, child)
        coeffs = {z: 1.0}
        for index, coeff in total[0].items():
            coeffs[index] = coeffs.get(index, 0.0) - coeff
        self.program.add_constraint(coeffs, "<=", total[1])
        return {z: 1.0}, 0.0

    # -- numeric linearization ------------------------------------------------------

    def num_affine(self, expr: prov.NumExpr) -> Affine:
        if isinstance(expr, prov.ConstNum):
            return {}, expr.value
        if isinstance(expr, prov.BoolAsNum):
            return self.bool_affine(expr.expr)
        if isinstance(expr, prov.LinearSum):
            total: Affine = ({}, 0.0)
            for coeff, cond in expr.terms:
                total = _affine_add(total, self.bool_affine(cond), scale=coeff)
            return total
        if isinstance(expr, prov.AddExpr):
            total = ({}, 0.0)
            for child in expr.children:
                total = _affine_add(total, self.num_affine(child))
            return total
        if isinstance(expr, prov.MulExpr):
            return self._linearize_product(expr)
        if isinstance(expr, prov.DivExpr):
            raise ILPError(
                "ratio polynomials must be handled at the complaint level "
                "(AVG complaints are cross-multiplied)"
            )
        raise ILPError(f"cannot linearize numeric node {type(expr).__name__}")

    def _linearize_product(self, expr: prov.MulExpr) -> Affine:
        constant = 1.0
        bools: list[prov.BoolExpr] = []
        linear_sums: list[prov.LinearSum] = []
        for child in expr.children:
            if isinstance(child, prov.ConstNum):
                constant *= child.value
            elif isinstance(child, prov.BoolAsNum):
                bools.append(child.expr)
            elif isinstance(child, prov.LinearSum):
                linear_sums.append(child)
            else:
                raise ILPError(
                    f"product over {type(child).__name__} is not linearizable"
                )
        if len(linear_sums) > 1:
            raise ILPError("products of two non-boolean sums are not linearizable")
        if not linear_sums:
            if not bools:
                return {}, constant
            conjunction = prov.and_(*bools)
            return _affine_scale(self.bool_affine(conjunction), constant)
        # boolean(s) × LinearSum: distribute over the sum's terms.
        linear = linear_sums[0]
        total: Affine = ({}, 0.0)
        for coeff, cond in linear.terms:
            conjunction = prov.and_(*bools, cond)
            total = _affine_add(total, self.bool_affine(conjunction), scale=coeff)
        return _affine_scale(total, constant)

    # -- complaints ---------------------------------------------------------------------

    def add_complaint(self, complaint) -> None:
        if isinstance(complaint, ValueComplaint):
            poly = prov.polynomial(complaint, self.result)
            if isinstance(poly, prov.DivExpr):
                # AVG: num / den op X  →  num - X·den op 0 (den ≥ 0).
                numerator = self.num_affine(poly.numerator)
                denominator = self.num_affine(poly.denominator)
                affine = _affine_add(numerator, denominator, scale=-complaint.value)
                self.program.add_constraint(affine[0], complaint.op, -affine[1])
                return
            affine = self.num_affine(poly)
            self.program.add_constraint(
                affine[0], complaint.op, complaint.value - affine[1]
            )
            return
        if isinstance(complaint, TupleComplaint):
            condition = prov.condition(complaint, self.result)
            affine = self.bool_affine(condition)
            self.program.add_constraint(affine[0], "=", -affine[1])
            return
        if isinstance(complaint, PredictionComplaint):
            site_id = complaint.site_id(self.result)
            key = (site_id, complaint.label)
            if key not in self.y_vars:
                raise ILPError(f"{complaint.label!r} is not a class of the model")
            self.program.add_constraint({self.y_vars[key]: 1.0}, "=", 1.0)
            return
        raise ILPError(f"unknown complaint type {type(complaint).__name__}")
