"""Provenance polynomials over model-prediction atoms.

The debug-mode executor (:mod:`repro.relational.executor`) runs a Query 2.0
query *symbolically* with respect to the embedded model's predictions: every
deterministic predicate is evaluated concretely against the queried data,
while every predicate that depends on ``M.predict(...)`` is recorded as a
boolean expression over *prediction atoms*.

A prediction atom :class:`PredIs` states "the model predicts class ``label``
for inference site ``site_id``".  Inference sites are deduplicated per
(model, base relation, base row), so a self-join or a model reused in two
expressions shares atoms, exactly as required by the paper (Section 3.1,
"the query can use the same model in multiple expressions").

Two symbolic languages are provided:

- :class:`BoolExpr` — existence conditions of output tuples (the classic
  boolean provenance of probabilistic databases [Dalvi & Suciu 2004;
  Green et al. 2007]).
- :class:`NumExpr` — aggregate cell polynomials (COUNT/SUM/AVG), following
  the aggregate provenance of [Amsterdamer et al. 2011].

Both support:

- concrete evaluation under an assignment of classes to inference sites
  (used to check complaints and to replay the query after retraining), and
- structural traversal (used by the ILP encoder and the Holistic relaxation).

Constructor helpers (:func:`and_`, :func:`or_`, :func:`not_`) fold constants
eagerly so deterministic sub-predicates disappear from the polynomial and
the remaining expression mentions only genuine prediction atoms.

Two evaluation paths
--------------------

The object trees in this module are the *interpreted* path: one Python
object per operator, evaluated by recursion.  They remain the readable,
golden-reference semantics — randomized equivalence tests pin the compiled
path to them.  The *compiled* path (:mod:`repro.relational.compile`) lowers
the same polynomials into flat index arrays (opcode / CSR-children /
coefficient / atom-site columns) and evaluates **all** of a query's
conditions and aggregate cells in one batched numpy sweep; the debug-mode
executor emits provenance directly in that form and materializes trees
from it lazily when a consumer asks for one.

Worked example: the count query ``SELECT COUNT(*) FROM R WHERE
predict(x) = 'match'`` over rows {0, 1, 2} yields, per row, the existence
condition ``PredIs(i, 'match')`` and the aggregate cell

    ``LinearSum([(1.0, PredIs(0, 'match')), (1.0, PredIs(1, 'match')),
    (1.0, PredIs(2, 'match'))])``

Interpreted, ``cell.evaluate({0: 'match', 1: 'nonmatch', 2: 'match'})``
recurses over the three terms and returns ``2.0``; compiled, the same cell
is an ``OP_ADD`` node whose children array holds three atom node ids, and
evaluation is a single ``np.add.reduceat`` over the gathered atom values —
for every output cell of the query at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import ProvenanceError

ClassLabel = Union[int, str]
Assignment = Mapping[int, ClassLabel]


# ---------------------------------------------------------------------------
# Inference sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InferenceSite:
    """One model inference over one base-relation row.

    Attributes:
        site_id: Dense integer id, unique within a query execution.
        model_name: Name of the model in the model registry.
        relation_name: Name of the *base* relation (not the alias), so that
            self-joins share sites.
        row_id: Row id within the base relation.
    """

    site_id: int
    model_name: str
    relation_name: str
    row_id: int

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.model_name, self.relation_name, self.row_id)


class SiteRegistry:
    """Deduplicating registry of inference sites for one query execution.

    Sites are stored columnar: contiguous *runs* of site ids share one
    (model, relation) pair, with a dense ``row_id -> site_id`` map per pair
    for O(1) vectorized interning (:meth:`intern_batch`).  The
    :class:`InferenceSite` objects of the original API are materialized
    lazily — hot paths only ever touch the integer arrays.
    """

    def __init__(self) -> None:
        # One (start_site_id, model, relation) record per contiguous run.
        self._runs: list[tuple[int, str, str]] = []
        self._run_rows: list[np.ndarray] = []
        self._n = 0
        self._dense: dict[tuple[str, str], np.ndarray] = {}
        self._cache: dict[int, InferenceSite] = {}

    def _dense_for(
        self, model_name: str, relation_name: str, min_size: int
    ) -> np.ndarray:
        from ..utils import grow_array  # local import: utils is a leaf module

        key = (model_name, relation_name)
        table = self._dense.get(key)
        if table is None:
            table = np.full(0, -1, dtype=np.int64)
        table = grow_array(table, min_size, fill=-1)
        self._dense[key] = table
        return table

    def intern_batch(
        self, model_name: str, relation_name: str, row_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Intern many rows at once.

        Returns ``(site_ids, new_rows, first_new_site_id)`` where
        ``new_rows`` are the (sorted, unique) base rows that had no site
        yet; their sites are ``first_new_site_id + arange(len(new_rows))``.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size == 0:
            return row_ids.copy(), row_ids.copy(), self._n
        table = self._dense_for(model_name, relation_name, int(row_ids.max()) + 1)
        sites = table[row_ids]
        first_new = self._n
        missing = sites < 0
        if np.any(missing):
            new_rows = np.unique(row_ids[missing])
            table[new_rows] = np.arange(
                self._n, self._n + new_rows.size, dtype=np.int64
            )
            self._runs.append((self._n, model_name, relation_name))
            self._run_rows.append(new_rows)
            self._n += new_rows.size
            sites = table[row_ids]
        else:
            new_rows = np.empty(0, dtype=np.int64)
        return sites, new_rows, first_new

    def intern(self, model_name: str, relation_name: str, row_id: int) -> InferenceSite:
        """Return the existing site for this key, or create a new one."""
        sites, _, _ = self.intern_batch(
            model_name, relation_name, np.asarray([int(row_id)], dtype=np.int64)
        )
        return self[int(sites[0])]

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return (self[site_id] for site_id in range(self._n))

    def __getitem__(self, site_id: int) -> InferenceSite:
        site_id = int(site_id)
        site = self._cache.get(site_id)
        if site is None:
            if not 0 <= site_id < self._n:
                raise IndexError(f"site id {site_id} out of range [0, {self._n})")
            run_index = _run_of(self._runs, site_id)
            start, model_name, relation_name = self._runs[run_index]
            row_id = int(self._run_rows[run_index][site_id - start])
            site = InferenceSite(site_id, model_name, relation_name, row_id)
            self._cache[site_id] = site
        return site

    @property
    def sites(self) -> list[InferenceSite]:
        return [self[site_id] for site_id in range(self._n)]

    def runs(self) -> Iterable[tuple[int, str, str, np.ndarray]]:
        """Yield ``(start_site_id, model, relation, row_ids)`` per run."""
        for (start, model_name, relation_name), rows in zip(
            self._runs, self._run_rows
        ):
            yield start, model_name, relation_name, rows

    def model_names(self) -> set[str]:
        """Distinct model names across all sites (no object materialization)."""
        return {model_name for _, model_name, _ in self._runs}


def _run_of(runs: Sequence[tuple[int, str, str]], site_id: int) -> int:
    """Index of the run containing ``site_id`` (runs start sorted)."""
    low, high = 0, len(runs) - 1
    while low < high:
        mid = (low + high + 1) // 2
        if runs[mid][0] <= site_id:
            low = mid
        else:
            high = mid - 1
    return low


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


# ---------------------------------------------------------------------------
# Splice-and-fold rules
# ---------------------------------------------------------------------------
#
# ``and_``, ``add_`` and ``mul_`` normalize as they build: a nested
# conjunction, sum or product splices into its parent and constants fold.
# The ILP encoder (``repro.ilp.encode``) mirrors these trees over compiled
# pool nodes without building them, so each rule is written once here and a
# subclass only says how its representation spells constants and operators.


class AndFolding:
    """``and_``'s rule: FALSE absorbs, TRUE drops, nested conjunctions splice.

    Subclasses set ``true``/``false`` and define ``is_true(x)``,
    ``is_false(x)``, ``and_children(x)`` (a conjunction's children, else
    ``None``) and ``make_and(children)``.
    """

    def conjunction(self, children: Iterable):
        flat: list = []
        for child in children:
            if self.is_false(child):
                return self.false
            if self.is_true(child):
                continue
            spliced = self.and_children(child)
            if spliced is None:
                flat.append(child)
            else:
                flat.extend(spliced)
        if not flat:
            return self.true
        if len(flat) == 1:
            return flat[0]
        return self.make_and(flat)


class NumFolding:
    """``add_``/``mul_``'s rules: nested sums (products) splice, constants fold.

    A sum keeps its folded constant last and drops a zero; a product keeps
    it first, drops a one, and folds to the constant 0 on a zero factor.
    Subclasses define ``const(value)``, ``const_value(x)`` (a constant's
    value, else ``None``), ``sum_terms(x)``/``product_factors(x)`` (the
    operands of a sum/product, else ``None``), ``make_sum(terms)`` and
    ``make_product(factors)``.
    """

    def sum(self, children: Iterable):
        total = 0.0
        rest: list = []
        for child in children:
            value = self.const_value(child)
            if value is not None:
                total += value
                continue
            spliced = self.sum_terms(child)
            if spliced is None:
                rest.append(child)
            else:
                rest.extend(spliced)
        if total != 0.0 or not rest:
            rest.append(self.const(total))
        return rest[0] if len(rest) == 1 else self.make_sum(rest)

    def product(self, children: Iterable):
        total = 1.0
        rest: list = []
        for child in children:
            value = self.const_value(child)
            if value is not None:
                total *= value
                continue
            spliced = self.product_factors(child)
            if spliced is None:
                rest.append(child)
            else:
                rest.extend(spliced)
        if total == 0.0:
            return self.const(0.0)
        if total != 1.0 or not rest:
            rest.insert(0, self.const(total))
        return rest[0] if len(rest) == 1 else self.make_product(rest)

    def weighted_sum(self, coeffs: Sequence[float], terms: Sequence):
        """``Σ coeff·term``, a coefficient of 1 elided (an ``OP_ADD`` node)."""
        return self.sum(
            [
                term if coeff == 1.0 else self.product([self.const(coeff), term])
                for coeff, term in zip(coeffs, terms)
            ]
        )


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
