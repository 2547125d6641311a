"""The seed's expression-tree provenance language, kept as a test oracle.

The library's provenance is node ids in a
:class:`~repro.relational.compile.NodePool`.  This module keeps the seed's
other spelling of the same polynomials, one Python object per operator:

- :class:`BoolExpr` — existence conditions of output tuples (the classic
  boolean provenance of probabilistic databases [Dalvi & Suciu 2004;
  Green et al. 2007]).
- :class:`NumExpr` — aggregate cell polynomials (COUNT/SUM/AVG), following
  the aggregate provenance of [Amsterdamer et al. 2011].

Both evaluate under an assignment of classes to inference sites by
recursion.  Constructor helpers (:func:`and_`, :func:`or_`, :func:`not_`,
:func:`add_`, :func:`mul_`) fold constants eagerly, with the fold rules the
library's ILP encoder shares (:class:`~repro.relational.provenance.AndFolding`,
:class:`~repro.relational.provenance.NumFolding`).

:func:`to_expr` materializes a pool node as a tree; :func:`polynomial`,
:func:`condition` and :func:`all_satisfied` read complaints through trees,
on compiled results and on the tree results of
:class:`~oracles.executor.TreeExecutor` alike.  The tree executor, the
tree-walk ILP encoder and the per-tree relaxation are written over these
classes, and the equivalence tests pin the compiled paths to them.

Worked example: the count query ``SELECT COUNT(*) FROM R WHERE
predict(x) = 'match'`` over rows {0, 1, 2} yields, per row, the existence
condition ``PredIs(i, 'match')`` and the aggregate cell

    ``LinearSum([(1.0, PredIs(0, 'match')), (1.0, PredIs(1, 'match')),
    (1.0, PredIs(2, 'match'))])``

and ``cell.evaluate({0: 'match', 1: 'nonmatch', 2: 'match'})`` recurses
over the three terms and returns ``2.0``.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Mapping, Sequence
from typing import Union

from repro.complaints.complaint import TupleComplaint, ValueComplaint
from repro.errors import ProvenanceError
from repro.relational.compile import (
    FALSE_NODE,
    OP_ADD,
    OP_AND,
    OP_ATOM,
    OP_CONST,
    OP_DIV,
    OP_MUL,
    OP_NOT,
    OP_OR,
    TRUE_NODE,
    NodePool,
)
from repro.relational.provenance import AndFolding, NumFolding

ClassLabel = Union[int, str]
Assignment = Mapping[int, ClassLabel]


# ---------------------------------------------------------------------------
# Boolean provenance
# ---------------------------------------------------------------------------


class BoolExpr:
    """Base class of boolean provenance expressions."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> bool:
        """Evaluate under ``assignment`` mapping ``site_id -> predicted class``."""
        raise NotImplementedError

    def atoms(self) -> "set[PredIs]":
        """The set of :class:`PredIs` atoms mentioned by this expression."""
        collected: set[PredIs] = set()
        _collect_atoms(self, collected)
        return collected

    def is_true(self) -> bool:
        return isinstance(self, TrueExpr)

    def is_false(self) -> bool:
        return isinstance(self, FalseExpr)


class TrueExpr(BoolExpr):
    """The constant TRUE (deterministically satisfied predicate)."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> bool:
        return True

    def __repr__(self) -> str:
        return "⊤"


class FalseExpr(BoolExpr):
    """The constant FALSE (deterministically violated predicate)."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> bool:
        return False

    def __repr__(self) -> str:
        return "⊥"


TRUE = TrueExpr()
FALSE = FalseExpr()


class PredIs(BoolExpr):
    """Atom: the model at ``site_id`` predicts exactly ``label``."""

    __slots__ = ("site_id", "label")

    def __init__(self, site_id: int, label: ClassLabel) -> None:
        self.site_id = site_id
        self.label = label

    def evaluate(self, assignment: Assignment) -> bool:
        try:
            return assignment[self.site_id] == self.label
        except KeyError as exc:
            raise ProvenanceError(
                f"assignment is missing inference site {self.site_id}"
            ) from exc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PredIs)
            and self.site_id == other.site_id
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash((PredIs, self.site_id, self.label))

    def __repr__(self) -> str:
        return f"[site {self.site_id} = {self.label!r}]"


class AndExpr(BoolExpr):
    """Conjunction of two or more children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[BoolExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> bool:
        return all(child.evaluate(assignment) for child in self.children)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(map(repr, self.children)) + ")"


class OrExpr(BoolExpr):
    """Disjunction of two or more children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[BoolExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> bool:
        return any(child.evaluate(assignment) for child in self.children)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(map(repr, self.children)) + ")"


class NotExpr(BoolExpr):
    """Negation of one child."""

    __slots__ = ("child",)

    def __init__(self, child: BoolExpr) -> None:
        self.child = child

    def evaluate(self, assignment: Assignment) -> bool:
        return not self.child.evaluate(assignment)

    def __repr__(self) -> str:
        return f"¬{self.child!r}"



class _TreeAnd(AndFolding):
    true = TRUE
    false = FALSE

    def is_true(self, expr) -> bool:
        return expr.is_true()

    def is_false(self, expr) -> bool:
        return expr.is_false()

    def and_children(self, expr):
        return expr.children if isinstance(expr, AndExpr) else None

    def make_and(self, children: list) -> BoolExpr:
        return AndExpr(children)


_TREE_AND = _TreeAnd()


def and_(*children: BoolExpr) -> BoolExpr:
    """Conjunction with constant folding and flattening."""
    return _TREE_AND.conjunction(children)


def or_(*children: BoolExpr) -> BoolExpr:
    """Disjunction with constant folding and flattening."""
    flat: list[BoolExpr] = []
    for child in children:
        if child.is_true():
            return TRUE
        if child.is_false():
            continue
        if isinstance(child, OrExpr):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrExpr(flat)


def not_(child: BoolExpr) -> BoolExpr:
    """Negation with constant folding and double-negation elimination."""
    if child.is_true():
        return FALSE
    if child.is_false():
        return TRUE
    if isinstance(child, NotExpr):
        return child.child
    return NotExpr(child)


def const(value: bool) -> BoolExpr:
    """TRUE/FALSE constant for a concrete boolean."""
    return TRUE if value else FALSE


def _collect_atoms(expr: "BoolExpr | NumExpr", out: set[PredIs]) -> None:
    stack: list[object] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, PredIs):
            out.add(node)
        elif isinstance(node, (AndExpr, OrExpr)):
            stack.extend(node.children)
        elif isinstance(node, NotExpr):
            stack.append(node.child)
        elif isinstance(node, BoolAsNum):
            stack.append(node.expr)
        elif isinstance(node, (AddExpr, MulExpr)):
            stack.extend(node.children)
        elif isinstance(node, DivExpr):
            stack.append(node.numerator)
            stack.append(node.denominator)
        elif isinstance(node, LinearSum):
            stack.extend(term for _, term in node.terms)
        # constants and ConstNum carry no atoms



# ---------------------------------------------------------------------------
# Numeric provenance (aggregate polynomials)
# ---------------------------------------------------------------------------


class NumExpr:
    """Base class of numeric provenance expressions (aggregate cells)."""

    __slots__ = ()

    def evaluate(self, assignment: Assignment) -> float:
        raise NotImplementedError

    def atoms(self) -> set[PredIs]:
        collected: set[PredIs] = set()
        _collect_atoms(self, collected)
        return collected


class ConstNum(NumExpr):
    """A numeric constant."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def evaluate(self, assignment: Assignment) -> float:
        return self.value

    def __repr__(self) -> str:
        return repr(self.value)


class BoolAsNum(NumExpr):
    """Indicator of a boolean provenance expression (1.0 if true else 0.0)."""

    __slots__ = ("expr",)

    def __init__(self, expr: BoolExpr) -> None:
        self.expr = expr

    def evaluate(self, assignment: Assignment) -> float:
        return 1.0 if self.expr.evaluate(assignment) else 0.0

    def __repr__(self) -> str:
        return f"1[{self.expr!r}]"


class AddExpr(NumExpr):
    """Sum of children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[NumExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> float:
        return float(sum(child.evaluate(assignment) for child in self.children))

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.children)) + ")"


class MulExpr(NumExpr):
    """Product of children."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[NumExpr]) -> None:
        self.children = tuple(children)

    def evaluate(self, assignment: Assignment) -> float:
        result = 1.0
        for child in self.children:
            result *= child.evaluate(assignment)
        return result

    def __repr__(self) -> str:
        return "(" + " · ".join(map(repr, self.children)) + ")"


class DivExpr(NumExpr):
    """Ratio of two numeric expressions (AVG = SUM / COUNT)."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: NumExpr, denominator: NumExpr) -> None:
        self.numerator = numerator
        self.denominator = denominator

    def evaluate(self, assignment: Assignment) -> float:
        den = self.denominator.evaluate(assignment)
        if den == 0.0:
            return float("nan")
        return self.numerator.evaluate(assignment) / den

    def __repr__(self) -> str:
        return f"({self.numerator!r} / {self.denominator!r})"


class LinearSum(NumExpr):
    """Weighted sum ``Σ coeff_i · 1[cond_i]`` — the workhorse for COUNT/SUM.

    COUNT(*) over tuples with existence conditions ``c_i`` is
    ``LinearSum([(1, c_1), ..., (1, c_n)])``; SUM of a deterministic value
    ``v_i`` weights each condition by ``v_i``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[float, BoolExpr]]) -> None:
        self.terms = tuple((float(coeff), cond) for coeff, cond in terms)

    def evaluate(self, assignment: Assignment) -> float:
        return float(
            sum(coeff for coeff, cond in self.terms if cond.evaluate(assignment))
        )

    def constant_part(self) -> float:
        """Sum of the coefficients of deterministically-true terms."""
        return float(sum(coeff for coeff, cond in self.terms if cond.is_true()))

    def __repr__(self) -> str:
        inner = " + ".join(f"{coeff}·1[{cond!r}]" for coeff, cond in self.terms)
        return f"Σ({inner})"


class _TreeNum(NumFolding):
    def const(self, value: float) -> NumExpr:
        return ConstNum(value)

    def const_value(self, expr) -> float | None:
        return expr.value if isinstance(expr, ConstNum) else None

    def sum_terms(self, expr):
        return expr.children if isinstance(expr, AddExpr) else None

    def product_factors(self, expr):
        return expr.children if isinstance(expr, MulExpr) else None

    def make_sum(self, terms: list) -> NumExpr:
        return AddExpr(terms)

    def make_product(self, factors: list) -> NumExpr:
        return MulExpr(factors)


_TREE_NUM = _TreeNum()


def add_(*children: NumExpr) -> NumExpr:
    """Sum with constant folding."""
    return _TREE_NUM.sum(children)


def mul_(*children: NumExpr) -> NumExpr:
    """Product with constant folding."""
    return _TREE_NUM.product(children)


def weighted_sum(coeffs: Sequence[float], terms: Sequence[NumExpr]) -> NumExpr:
    """``Σ coeff·term`` with ``add_``/``mul_``'s folds."""
    return _TREE_NUM.weighted_sum(coeffs, terms)


def pred_value(site_id: int, class_values: Iterable[tuple[ClassLabel, float]]) -> NumExpr:
    """Numeric value of a prediction: ``Σ_c value(c) · 1[pred = c]``.

    Used when ``M.predict(...)`` appears inside an aggregate, e.g.
    ``AVG(predict(*))`` with classes {0, 1} or the appendix's OCR example
    ``SUM(POWER(10, position) * predict(image))``.
    """
    terms = [(float(value), PredIs(site_id, label)) for label, value in class_values]
    return LinearSum(terms)


# ---------------------------------------------------------------------------
# Materializing pool nodes as trees
# ---------------------------------------------------------------------------

# Per pool, node id -> materialized tree.  Repeated calls return the same
# objects, so identity-keyed consumers (the tree-walk encoder's aux cache)
# see one object per node, as the tree-building path shares DAG nodes.
_EXPR_CACHE: "weakref.WeakKeyDictionary[NodePool, dict[int, object]]" = (
    weakref.WeakKeyDictionary()
)


def to_expr(pool: NodePool, node: int) -> BoolExpr | NumExpr:
    """Materialize a compiled node as an equivalent expression tree.

    The result is value-equivalent (and relaxation-equivalent) to the
    compiled node; structural normalizations applied during compilation
    (constant folding, identity elision) are not undone.  Materialized
    trees are cached per node, so repeated calls — and shared
    subexpressions across calls — return the *same* objects, exactly as
    the tree-building path shares DAG nodes.
    """
    memo = _EXPR_CACHE.setdefault(pool, {})
    stack: list[tuple[int, bool]] = [(int(node), False)]
    while stack:
        current, processed = stack.pop()
        if current in memo:
            continue
        start, end = pool._child_start[current], pool._child_end[current]
        children = pool._child[start:end]
        if not processed:
            stack.append((current, True))
            stack.extend((child, False) for child in children if child not in memo)
            continue
        memo[current] = _materialize_one(pool, current, children, memo)
    return memo[int(node)]


def to_exprs(pool: NodePool, nodes: Sequence[int]) -> list:
    return [to_expr(pool, node) for node in nodes]


def _materialize_one(pool: NodePool, node: int, children: list[int], memo: dict):
    op = pool._op[node]
    if node == FALSE_NODE:
        return FALSE
    if node == TRUE_NODE:
        return TRUE
    if op == OP_CONST:
        return ConstNum(pool._value[node])
    if op == OP_ATOM:
        return PredIs(pool._site[node], pool.labels[pool._label[node]])
    kids = [memo[child] for child in children]
    if op == OP_NOT:
        return not_(kids[0])
    if op == OP_AND:
        return and_(*kids)
    if op == OP_OR:
        return or_(*kids)
    if op == OP_MUL:
        return mul_(*[_as_num(kid) for kid in kids])
    if op == OP_DIV:
        return DivExpr(_as_num(kids[0]), _as_num(kids[1]))
    if op == OP_ADD:
        start = pool._child_start[node]
        coeffs = pool._coeff[start : pool._child_end[node]]
        if all(isinstance(kid, BoolExpr) for kid in kids):
            return LinearSum(list(zip(coeffs, kids)))
        return weighted_sum(coeffs, [_as_num(kid) for kid in kids])
    raise ProvenanceError(f"unknown opcode {op}")


def _as_num(expr):
    return BoolAsNum(expr) if isinstance(expr, BoolExpr) else expr


# ---------------------------------------------------------------------------
# Complaints read through trees
# ---------------------------------------------------------------------------


def polynomial(complaint: ValueComplaint, result) -> NumExpr:
    """The provenance polynomial of a value complaint's cell."""
    if result.pool is not None:
        return to_expr(result.pool, complaint.cell_node(result))
    if complaint.group_key is not None:
        group = result.group_by_key(complaint.group_key)
    else:
        group = result._output_group(complaint.row_index)
    return group.cell_polys[complaint.column]


def condition(complaint: TupleComplaint, result) -> BoolExpr:
    """The existence condition of a tuple complaint's offending tuple."""
    if result.pool is not None:
        return to_expr(result.pool, complaint.condition_node(result))
    kind, target = complaint.target(result)
    if kind == "group":
        return target.condition
    if kind == "row" and result.is_aggregate:
        return result.groups[result.output_to_group[target]].condition
    if kind == "row":
        target = result.output_to_candidate[target]
    elif target is None:
        return FALSE
    return result.candidate_conditions[target]


def all_satisfied(case_results) -> bool:
    """True when every complaint in every case is resolved, walking trees."""
    for case, result in case_results:
        assignment = result.assignment()
        for complaint in case.complaints:
            if isinstance(complaint, ValueComplaint):
                value = polynomial(complaint, result).evaluate(assignment)
            elif isinstance(complaint, TupleComplaint):
                value = float(condition(complaint, result).evaluate(assignment))
            else:
                if not complaint.is_satisfied(result):
                    return False
                continue
            if not complaint.satisfied_by(value):
                return False
    return True
