"""Complaints + provenance → 0-1 ILP (the TwoStep SQL step, Section 5.2).

Following Tiresias [Meliou & Suciu 2012], the *marked attribute* is the
model prediction: each inference site ``i`` gets one binary variable
``y[i, c]`` per class with ``Σ_c y[i, c] = 1``; the objective minimizes the
number of prediction changes ``Σ_i (1 - y[i, r_i])`` where ``r_i`` is the
current prediction.  Complaints become linear constraints over the boolean
provenance (compound conditions are linearized with auxiliary variables and
the standard AND/OR linking inequalities).

A satisfying assignment is read back as a per-site *target labelling*
``t_i``; sites with ``t_i ≠ r_i`` are the marked mispredictions handed to
the influence step.

Two encoders produce byte-identical programs:

- :class:`TiresiasEncoder` — the golden reference; walks expression trees
  recursively, one ``add_var``/``add_constraint`` per node.
- :class:`CompiledILPEncoder` — the array path for compiled-provenance
  results; allocates aux variables in bulk per complaint, emits the
  AND/OR linking inequalities as CSR constraint blocks straight from the
  :class:`~repro.relational.compile.NodePool` arrays, and dedups shared
  subtrees across complaints by keying aux variables on canonical pool
  node ids.  Variable allocation order (DFS preorder), constraint order
  (postorder, child rows then sum row, complaint row last) and
  within-row coefficient order all replicate the tree walk exactly, so
  optimal solutions *and* the enumeration order of tied optima match.

:func:`make_encoder` picks between them by the result's provenance:
compiled results get the array path, tree-mode results (no node pool)
the tree walk.  The tree encoder is also the oracle the compiled one is
tested against.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
)
from ..errors import ComplaintError, ILPError
from ..relational import provenance as prov
from ..relational.compile import (
    OP_ADD,
    OP_AND,
    OP_ATOM,
    OP_CONST,
    OP_DIV,
    OP_MUL,
    OP_NOT,
    OP_OR,
    TRUE_NODE,
    _flat_ranges,
)
from ..relational.executor import QueryResult
from .model import BinaryProgram
from .solver import ILPSolution

Affine = tuple[dict[int, float], float]


def make_encoder(result: QueryResult) -> "TiresiasEncoder":
    """The TwoStep encoder for this result: array path when provenance is compiled.

    Tree-mode results carry no node pool and get the tree-walking encoder;
    both encoders build byte-identical programs.
    """
    if getattr(result, "compiled", False):
        return CompiledILPEncoder(result)
    return TiresiasEncoder(result)


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


def _affine_add(a: Affine, b: Affine, scale: float = 1.0) -> Affine:
    coeffs = dict(a[0])
    for index, coeff in b[0].items():
        coeffs[index] = coeffs.get(index, 0.0) + scale * coeff
    return coeffs, a[1] + scale * b[1]


def _affine_scale(a: Affine, scale: float) -> Affine:
    return {index: coeff * scale for index, coeff in a[0].items()}, a[1] * scale


class TiresiasEncoder:
    """Builds the TwoStep ILP for one debug-mode query result."""

    def __init__(self, result: QueryResult) -> None:
        if not result.debug:
            raise ILPError("TwoStep needs a debug-mode query result")
        self.result = result
        self.runtime = result.runtime
        self.program = BinaryProgram()

        self.site_ids = list(range(len(self.runtime.sites)))
        if not self.site_ids:
            raise ILPError("the query contains no model inference; nothing to fix")
        self.classes_by_site: dict[int, list] = {}
        self.current_labels: dict[int, object] = dict(
            enumerate(self.runtime.site_labels())
        )
        # (site_id, label) -> y variable index
        self.y_vars: dict[tuple[int, object], int] = {}
        # Aux-variable cache keyed by canonical pool node id when the
        # expression came from a compiled pool, else by an identity key
        # that keeps the expression alive (see _aux_key / _ExprKey).
        self._aux_cache: dict[object, Affine] = {}
        self._pool = getattr(result, "pool", None) if getattr(
            result, "compiled", False
        ) else None

        # One run of the site registry shares a model, so variables and
        # one-hot constraints are laid out run by run in bulk.
        classes_of_model: dict[str, list] = {}
        for start, model_name, _relation, rows in self.runtime.sites.runs():
            classes = classes_of_model.get(model_name)
            if classes is None:
                classes = self.runtime.model_classes(model_name)
                classes_of_model[model_name] = classes
            run_sites = range(start, start + rows.shape[0])
            names = [
                f"y[{site_id},{label}]" for site_id in run_sites for label in classes
            ]
            first = self.program.add_vars(names).start
            k = len(classes)
            self.y_vars.update(
                {
                    (site_id, label): first + offset * k + column
                    for offset, site_id in enumerate(run_sites)
                    for column, label in enumerate(classes)
                }
            )
            self.classes_by_site.update(dict.fromkeys(run_sites, classes))
            for offset in range(rows.shape[0]):
                base = first + offset * k
                self.program.add_constraint(
                    {base + column: 1.0 for column in range(k)}, "=", 1.0
                )

        # Objective: number of changed predictions.
        objective: dict[int, float] = {}
        constant = 0.0
        for site_id in self.site_ids:
            current = self.current_labels[site_id]
            objective[self.y_vars[(site_id, current)]] = -1.0
            constant += 1.0
        self.program.set_objective(objective, constant)

    # -- boolean linearization ---------------------------------------------------

    def _aux_key(self, expr: prov.BoolExpr) -> object:
        """Stable aux-cache key: canonical pool node id when known.

        Trees materialized from a compiled pool share one canonical node
        per structurally-distinct subexpression, so node-id keys let the
        array encoder and this tree walk share one cache.  Everything else
        gets an identity wrapper that pins the object (``id()`` alone can
        be recycled after GC, merging distinct subexpressions).
        """
        if self._pool is not None:
            node = self._pool.node_for_expr(expr)
            if node is not None:
                return node
        return _ExprKey(expr)

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
        key = self._aux_key(expr)
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

    def add_complaints(self, complaints: Sequence) -> None:
        for complaint in complaints:
            self.add_complaint(complaint)

    def _compiled_value_affine(self, complaint: ValueComplaint) -> Affine | None:
        """Affine form straight from compiled ``Σ coeff·atom`` cell arrays.

        COUNT/SUM cells compile to one ADD-over-atoms node; its flat term
        arrays map directly onto y-variables without materializing a tree.
        Returns ``None`` for other shapes (AVG ratios, deterministic
        members, tree-mode results), which take the interpreted path.
        """
        result = self.result
        if not getattr(result, "compiled", False):
            return None
        node = result.cell_node_for(
            complaint.column,
            row_index=complaint.row_index,
            group_key=complaint.group_key,
        )
        terms = result.pool.linear_atom_terms(node)
        if terms is None:
            return None
        coeffs, sites, label_ids = terms
        labels = result.pool.labels
        affine: dict[int, float] = {}
        for coeff, site, label_id in zip(
            coeffs.tolist(), sites.tolist(), label_ids.tolist()
        ):
            var = self.y_vars.get((site, labels[label_id]))
            if var is None:
                raise ILPError(
                    f"atom [site {site} = {labels[label_id]!r}] refers to an "
                    "unknown site/class"
                )
            affine[var] = affine.get(var, 0.0) + coeff
        return affine, 0.0

    def add_complaint(self, complaint) -> None:
        if isinstance(complaint, ValueComplaint):
            fast = self._compiled_value_affine(complaint)
            if fast is not None:
                self.program.add_constraint(
                    fast[0], complaint.op, complaint.value - fast[1]
                )
                return
            poly = complaint.polynomial(self.result)
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
            condition = complaint.condition(self.result)
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

    # -- reading back solutions -------------------------------------------------------------

    def solution_targets(self, solution: ILPSolution) -> dict[int, object]:
        """``site_id -> target label`` from an integral solution."""
        targets: dict[int, object] = {}
        for site_id in self.site_ids:
            chosen = [
                label
                for label in self.classes_by_site[site_id]
                if solution.values[self.y_vars[(site_id, label)]] > 0.5
            ]
            if len(chosen) != 1:
                raise ILPError(
                    f"site {site_id} has {len(chosen)} selected classes; "
                    "the solution is not a valid labelling"
                )
            targets[site_id] = chosen[0]
        return targets

    def marked_mispredictions(
        self, solution: ILPSolution
    ) -> list[tuple[int, object]]:
        """Sites whose target label differs from the current prediction."""
        targets = self.solution_targets(solution)
        return [
            (site_id, label)
            for site_id, label in targets.items()
            if label != self.current_labels[site_id]
        ]


class CompiledILPEncoder(TiresiasEncoder):
    """Array-native TwoStep encoder over a compiled provenance pool.

    Instead of materializing expression trees and walking them node by
    node, complaints are encoded straight from the pool's flat arrays:

    - the pool's *effective* boolean structure (constant folds, same-op
      flattening and aliasing exactly as tree materialization would apply
      them) comes from :meth:`_FrozenPool.bool_structure`;
    - aux variables for all fresh AND/OR nodes of a complaint are
      allocated as one :meth:`BinaryProgram.add_var_block` in DFS preorder;
    - the linking inequalities land as one CSR
      :meth:`BinaryProgram.add_constraint_block` in DFS postorder;
    - aux variables are keyed on canonical pool node ids (``_aux_var``),
      so a subtree shared by several complaints is linearized once.

    The emitted program is byte-identical to :class:`TiresiasEncoder` on
    the same result — variables, constraint order, coefficient order and
    right-hand sides — which keeps optimal solutions and the enumeration
    order of tied optima bit-identical.  Unsupported cell shapes fall back
    to the tree walk per complaint (sharing the same aux cache).
    """

    def __init__(self, result: QueryResult) -> None:
        super().__init__(result)
        if not getattr(result, "compiled", False):
            raise ILPError("CompiledILPEncoder needs a compiled-provenance result")
        self.pool = result.pool
        f = self.pool.frozen()
        self._f = f
        structure = f.bool_structure()
        self._rep = structure.rep
        self._eff_start = structure.eff_start
        self._eff_end = structure.eff_end
        self._eff_child = structure.eff_child
        # Plain-list mirrors for the DFS hot loop: python ints index lists
        # several times faster than numpy scalars.  The structure's lists
        # are cached per freeze, shared across encoders on this pool.
        self._rep_l, self._eff_start_l, self._eff_end_l, self._eff_child_l = (
            structure.lists()
        )
        self._op_l = f.op.tolist()
        self._child_l = f.child.tolist()
        self._child_start_l = f.child_start.tolist()
        # Canonical node id -> aux variable index (-1 = not yet created);
        # the list is the DFS-side mirror of the array, kept in sync.
        self._aux_var = np.full(f.op.shape[0], -1, dtype=np.int64)
        self._aux_l = [-1] * f.op.shape[0]
        # Dense (site, label_id) -> y variable table (-1 = unknown class).
        ytab = np.full((len(self.runtime.sites), len(f.labels)), -1, dtype=np.int64)
        label_ids = self.pool._label_ids
        for (site, label), var in self.y_vars.items():
            label_id = label_ids.get(label)
            if label_id is not None:
                ytab[site, label_id] = var
        self._ytab = ytab
        self.aux_created = 0
        self.aux_reused = 0

    # -- complaints ------------------------------------------------------------

    def add_complaint(self, complaint) -> None:
        if isinstance(complaint, ValueComplaint):
            if self._try_value_complaint(complaint):
                return
            super().add_complaint(complaint)
            return
        if isinstance(complaint, TupleComplaint):
            self._add_tuple_complaint(complaint)
            return
        super().add_complaint(complaint)

    def _try_value_complaint(self, complaint: ValueComplaint) -> bool:
        """Encode a value complaint from cell node arrays; False = fall back."""
        node = int(
            self.result.cell_node_for(
                complaint.column,
                row_index=complaint.row_index,
                group_key=complaint.group_key,
            )
        )
        f = self._f
        if node >= f.op.shape[0]:
            return False  # appended after the freeze; take the tree path
        if f.op[node] == OP_DIV:
            # AVG: num / den op X  →  num - X·den op 0 (den ≥ 0), with the
            # numerator linearized before the denominator like the tree walk.
            num = int(f.child[f.child_start[node]])
            den = int(f.child[f.child_start[node] + 1])
            num_terms = self._value_terms(num)
            den_terms = self._value_terms(den)
            if num_terms is None or den_terms is None:
                return False
            roots = list(zip(num_terms[0], num_terms[3])) + list(
                zip(den_terms[0], den_terms[3])
            )
            post_nodes, post_z, root_z = self._linearize_roots(roots)
            self._emit_link_rows(post_nodes, post_z)
            n_num = len(num_terms[0])
            affine = _affine_add(
                self._terms_affine(*num_terms[:3], root_z[:n_num]),
                self._terms_affine(*den_terms[:3], root_z[n_num:]),
                scale=-complaint.value,
            )
            self.program.add_constraint(affine[0], complaint.op, -affine[1])
            return True
        terms = self._value_terms(node)
        if terms is None:
            return False
        post_nodes, post_z, root_z = self._linearize_roots(
            list(zip(terms[0], terms[3]))
        )
        self._emit_link_rows(post_nodes, post_z)
        affine = self._terms_affine(*terms[:3], root_z)
        self.program.add_constraint(
            affine[0], complaint.op, complaint.value - affine[1]
        )
        return True

    def _add_tuple_complaint(self, complaint: TupleComplaint) -> None:
        node = self._tuple_condition_node(complaint)
        if node is None:
            # A lineage tuple that is not even a candidate: the tree path
            # linearizes prov.FALSE into the vacuous row 0 = 0.
            self.program.add_constraint({}, "=", -0.0)
            return
        post_nodes, post_z, _ = self._linearize_roots([(node, False)])
        self._emit_link_rows(post_nodes, post_z)
        var, sign, const = self._bool_affine_arrays(
            self._rep[np.asarray([node], dtype=np.int64)]
        )
        affine = {int(var[0]): float(sign[0])} if var[0] >= 0 else {}
        self.program.add_constraint(affine, "=", -float(const[0]))

    def _tuple_condition_node(self, complaint: TupleComplaint) -> int | None:
        """Mirror ``TupleComplaint.condition``'s addressing (and errors) on node ids."""
        result = self.result
        if complaint.group_key is not None:
            if result.groups is None:
                raise ComplaintError("group_key complaint on a non-aggregate result")
            for group in result.groups:
                if group.key == complaint.group_key:
                    return int(group.condition_node)
            raise ComplaintError(f"no group with key {complaint.group_key!r}")
        if complaint.lineage is not None:
            batch = result.candidate_batch
            if batch is None:
                raise ComplaintError("lineage complaints need a debug-mode result")
            wanted = dict(complaint.lineage)
            unknown = set(wanted) - set(batch.alias_row_ids)
            if unknown:
                raise ComplaintError(
                    f"lineage aliases {sorted(unknown)} not in the query "
                    f"(available: {sorted(batch.alias_row_ids)})"
                )
            for index in range(len(batch)):
                if all(
                    int(batch.alias_row_ids[alias][index]) == row_id
                    for alias, row_id in wanted.items()
                ):
                    return int(result.candidate_cond_nodes[index])
            return None
        return int(result.tuple_condition_node(complaint.row_index))

    # -- cell decomposition ----------------------------------------------------

    def _value_terms(
        self, node: int
    ) -> tuple[list[int], list[float], float, list[bool]] | None:
        """Ordered affine decomposition of a cell node over boolean terms.

        Returns ``(term_nodes, coeffs, tail_const, fresh)`` replicating
        exactly what tree materialization + ``num_affine`` would produce:
        boolean terms in child order (TRUE/FALSE contribute their constant
        at their position), ``coeff·const`` products folded into one
        trailing constant (the ``add_`` mixed arm moves constants to the
        end), and ``bool × const`` products collapsed to weighted boolean
        terms.  ``fresh[i]`` marks product terms whose boolean is an AND:
        the tree's ``_linearize_product`` wraps those in ``prov.and_()``,
        which *splices* the conjunction into a brand-new AndExpr, so the
        tree allocates a fresh uncached aux variable per such term instead
        of reusing the condition's.  ``None`` means the shape is
        unsupported (nested ADD/DIV, products of several booleans) and the
        complaint takes the tree path.
        """
        f = self._f
        op = int(f.op[node])
        if op != OP_ADD:
            if node <= TRUE_NODE or op in (OP_ATOM, OP_NOT, OP_AND, OP_OR):
                return [node], [1.0], 0.0, [False]
            if op == OP_CONST:
                return [], [], float(f.value[node]), []
            return None
        start, end = int(f.child_start[node]), int(f.child_end[node])
        children = f.child[start:end]
        coeffs = f.coeff[start:end]
        ops = f.op[children]
        bool_mask = (
            (children <= TRUE_NODE)
            | (ops == OP_ATOM)
            | (ops == OP_NOT)
            | (ops == OP_AND)
            | (ops == OP_OR)
        )
        if bool_mask.all():
            # All-boolean children materialize as one LinearSum: terms in
            # child order, no trailing constant, conditions linearized
            # directly (no and_() wrapper).
            return (
                children.tolist(),
                coeffs.tolist(),
                0.0,
                [False] * children.shape[0],
            )
        # Mixed arm: prov.add_ keeps non-constant terms in order and folds
        # constants into one ConstNum appended at the end.
        out_nodes: list[int] = []
        out_coeffs: list[float] = []
        out_fresh: list[bool] = []
        tail = 0.0
        for child, coeff, is_bool in zip(
            children.tolist(), coeffs.tolist(), bool_mask.tolist()
        ):
            if is_bool:
                if coeff == 0.0:
                    continue  # mul_(ConstNum(0), bool) folds to the constant 0
                out_nodes.append(child)
                out_coeffs.append(coeff)
                # coeff ≠ 1 materializes as mul_(ConstNum(coeff), bool) — a
                # MulExpr whose product walk and_()-wraps an AND condition.
                out_fresh.append(
                    coeff != 1.0
                    and int(f.op[self._rep[child]]) == OP_AND
                )
                continue
            child_op = int(f.op[child])
            if child_op == OP_CONST:
                tail = tail + coeff * float(f.value[child])
                continue
            if child_op != OP_MUL:
                return None  # nested ADD/DIV: tree path
            weight = 1.0
            bools: list[int] = []
            for factor in f.child[
                int(f.child_start[child]) : int(f.child_end[child])
            ].tolist():
                factor_op = int(f.op[factor])
                if factor <= TRUE_NODE:
                    # TRUE/FALSE factors only arise from raw tree lowering;
                    # mirror the and_() folds via the tree path instead.
                    return None
                if factor_op == OP_CONST:
                    weight = weight * float(f.value[factor])
                elif factor_op in (OP_ATOM, OP_NOT, OP_AND, OP_OR):
                    bools.append(factor)
                else:
                    return None
            if len(bools) > 1:
                # and_(b1, b2, …) builds a fresh AndExpr per complaint in
                # the tree walk — no pool node to dedup against.
                return None
            scaled = coeff * weight
            if not bools:
                tail = tail + scaled
                continue
            if scaled == 0.0:
                continue  # mul_ folds the whole product to the constant 0
            out_nodes.append(bools[0])
            out_coeffs.append(scaled)
            # The term stays a MulExpr — and its product walk and_()-wraps
            # an AND condition — unless *both* mul_ folds alias it away:
            # the node's own constants folding to exactly 1.0 and the ADD
            # coefficient being exactly 1.0.
            out_fresh.append(
                not (coeff == 1.0 and weight == 1.0)
                and int(f.op[self._rep[bools[0]]]) == OP_AND
            )
        return out_nodes, out_coeffs, tail, out_fresh

    def _terms_affine(
        self,
        nodes: list[int],
        coeffs: list[float],
        tail: float,
        term_z: list[int] | None = None,
    ) -> Affine:
        """Accumulate weighted boolean terms into an affine dict.

        Matches the tree walk's sequential ``_affine_add`` loop bit for
        bit: variables claim dict positions at first occurrence, repeated
        variables accumulate in term order, and constants accumulate in
        term order with the folded tail added last.  ``term_z`` carries
        the per-term fresh aux variables from :meth:`_linearize_roots`
        (-1 = use the node's canonical affine form).
        """
        if not nodes:
            return {}, tail
        var, sign, const = self._bool_affine_arrays(
            self._rep[np.asarray(nodes, dtype=np.int64)]
        )
        if term_z is not None:
            fz = np.asarray(term_z, dtype=np.int64)
            fresh = fz >= 0
            var[fresh] = fz[fresh]
            sign[fresh] = 1.0
            const[fresh] = 0.0
        affine: dict[int, float] = {}
        total = 0.0
        for v, s, k, c in zip(
            var.tolist(), sign.tolist(), coeffs, const.tolist()
        ):
            if v >= 0:
                affine[v] = affine.get(v, 0.0) + k * s
            total = total + k * c
        return affine, total + tail

    # -- bulk AND/OR linearization ---------------------------------------------

    def _linearize_roots(
        self, roots: Sequence[tuple[int, bool]]
    ) -> tuple[list[int], list[int], list[int]]:
        """DFS over canonical structure; allocates fresh aux vars in preorder.

        ``roots`` pairs each root node with a *fresh* flag (see
        :meth:`_value_terms`): fresh AND roots always get a brand-new,
        uncached aux variable — the structural duplicate the tree's
        ``and_()`` splice would build — while their subtrees still share
        the cache.  Returns ``(post_nodes, post_z, root_z)``: the
        postorder list of nodes whose linking rows still need emitting
        with their aux variables, plus each root's fresh variable (-1 for
        non-fresh roots).  Nodes already linearized — by an earlier
        complaint here, or by a tree-path fallback sharing ``_aux_cache``
        — are reused.
        """
        aux = self._aux_l
        cache_get = self._aux_cache.get
        op_l = self._op_l
        rep_l = self._rep_l
        eff_start = self._eff_start_l
        eff_end = self._eff_end_l
        eff_child = self._eff_child_l
        base = self.program.n_vars
        n_alloc = 0
        reused = 0
        fresh_cached: list[int] = []
        post_nodes: list[int] = []
        post_z: list[int] = []
        root_z: list[int] = [-1] * len(roots)
        # Roots drain one at a time (their subtrees never interleave on
        # the tree walk's recursion either); within a drain the int stack
        # holds canonical AND/OR/NOT nodes to visit, or ``~node`` to emit
        # node's linking rows postorder.  Atom/constant children never
        # allocate or emit, so they are filtered at push time — the
        # traversal order over NOT/AND/OR nodes, and hence the aux
        # variable numbering, matches the recursive walk exactly.
        stack: list[int] = []
        for pos, (root, fresh) in enumerate(roots):
            r = rep_l[int(root)]
            op = op_l[r]
            root_emit = -1
            if fresh and op == OP_AND:
                # The and_() splice: a brand-new uncached aux variable for
                # this term, its subtree still shared through the cache.
                root_emit = base + n_alloc
                n_alloc += 1
                root_z[pos] = root_emit
            elif op == OP_NOT:
                inner = rep_l[self._child_l[self._child_start_l[r]]]
                if op_l[inner] >= OP_NOT:
                    stack.append(inner)
            elif op != OP_AND and op != OP_OR:
                continue
            elif aux[r] >= 0:
                reused += 1
                continue
            else:
                cached = cache_get(r)
                if cached is not None:
                    # A tree-path fallback already linearized this node.
                    var = next(iter(cached[0]))
                    aux[r] = var
                    self._aux_var[r] = var
                    reused += 1
                    continue
                root_emit = base + n_alloc
                aux[r] = root_emit
                n_alloc += 1
                fresh_cached.append(r)
            if root_emit >= 0:
                for child in reversed(eff_child[eff_start[r] : eff_end[r]]):
                    if op_l[child] >= OP_NOT:
                        stack.append(child)
            while stack:
                node = stack.pop()
                if node < 0:
                    node = ~node
                    post_nodes.append(node)
                    post_z.append(aux[node])
                    continue
                op = op_l[node]
                if op == OP_NOT:
                    inner = rep_l[self._child_l[self._child_start_l[node]]]
                    if op_l[inner] >= OP_NOT:
                        stack.append(inner)
                    continue
                if aux[node] >= 0:
                    reused += 1
                    continue
                cached = cache_get(node)
                if cached is not None:
                    var = next(iter(cached[0]))
                    aux[node] = var
                    self._aux_var[node] = var
                    reused += 1
                    continue
                z = base + n_alloc
                aux[node] = z
                n_alloc += 1
                fresh_cached.append(node)
                stack.append(~node)
                for child in reversed(eff_child[eff_start[node] : eff_end[node]]):
                    if op_l[child] >= OP_NOT:
                        stack.append(child)
            if root_emit >= 0:
                # The root's own linking rows come last in its postorder.
                post_nodes.append(r)
                post_z.append(root_emit)
        self.aux_reused += reused
        if n_alloc:
            self.program.add_var_block(n_alloc, prefix="aux")
            self.aux_created += n_alloc
            if fresh_cached:
                vals = [aux[r] for r in fresh_cached]
                self._aux_var[np.asarray(fresh_cached, dtype=np.int64)] = vals
                for r, var in zip(fresh_cached, vals):
                    self._aux_cache[r] = ({var: 1.0}, 0.0)
        return post_nodes, post_z, root_z

    def _emit_link_rows(self, post: list[int], post_z: list[int]) -> None:
        """One CSR block of AND/OR linking rows, in tree postorder.

        Per node: k child rows (``z ≤/≥ child_i``) then the sum row
        (``z ≥/≤ Σ child_i …``), coefficients laid out z-first then
        children in child order — exactly the rows and dict orders the
        recursive walk emits one at a time.
        """
        if not post:
            return
        f = self._f
        nodes = np.asarray(post, dtype=np.int64)
        z = np.asarray(post_z, dtype=np.int64)
        is_and = f.op[nodes] == OP_AND
        k = self._eff_end[nodes] - self._eff_start[nodes]
        flat_children = self._eff_child[
            _flat_ranges(self._eff_start[nodes], self._eff_end[nodes])
        ]
        n_nodes = nodes.shape[0]
        seg_id = np.repeat(np.arange(n_nodes, dtype=np.int64), k)
        cvar, csign, cconst = self._bool_affine_arrays(flat_children)
        # A variable repeated among one node's children gets its own child
        # row per occurrence, but accumulates into ONE sum-row coefficient
        # at its first occurrence (the tree's dict insertion order).
        pair_key = seg_id * self.program.n_vars + cvar
        n_flat = pair_key.shape[0]
        sum_coeff = -csign
        keep = np.ones(n_flat, dtype=bool)
        if np.unique(pair_key).shape[0] != n_flat:
            order = np.argsort(pair_key, kind="stable")
            sorted_key = pair_key[order]
            first = np.ones(n_flat, dtype=bool)
            first[1:] = sorted_key[1:] != sorted_key[:-1]
            group = np.cumsum(first) - 1
            acc = np.bincount(group, weights=sum_coeff[order])
            first_pos = order[first]
            keep = np.zeros(n_flat, dtype=bool)
            keep[first_pos] = True
            sum_coeff = sum_coeff.copy()
            sum_coeff[first_pos] = acc
        k_sum = np.bincount(seg_id[keep], minlength=n_nodes).astype(np.int64)
        rows_per_node = k + 1
        row_end = np.cumsum(rows_per_node)
        row_base = row_end - rows_per_node
        n_rows = int(row_end[-1])
        seg_offsets = np.concatenate([[0], np.cumsum(k)]).astype(np.int64)
        within = np.arange(n_flat, dtype=np.int64) - np.repeat(
            seg_offsets[:-1], k
        )
        child_row = row_base[seg_id] + within
        sum_row = row_end - 1
        nnz = np.empty(n_rows, dtype=np.int64)
        nnz[child_row] = 2
        nnz[sum_row] = 1 + k_sum
        starts = np.concatenate([[0], np.cumsum(nnz)]).astype(np.int64)
        indices = np.empty(int(starts[-1]), dtype=np.int64)
        values = np.empty(int(starts[-1]), dtype=np.float64)
        cpos = starts[child_row]
        indices[cpos] = z[seg_id]
        values[cpos] = 1.0
        indices[cpos + 1] = cvar
        values[cpos + 1] = -csign
        spos = starts[sum_row]
        indices[spos] = z
        values[spos] = 1.0
        within_kept = np.cumsum(keep) - 1
        kept_offsets = np.concatenate([[0], np.cumsum(k_sum)]).astype(np.int64)
        svpos = (
            spos[seg_id[keep]]
            + 1
            + within_kept[keep]
            - np.repeat(kept_offsets[:-1], k_sum)
        )
        indices[svpos] = cvar[keep]
        values[svpos] = sum_coeff[keep]
        rhs = np.empty(n_rows, dtype=np.float64)
        rhs[child_row] = cconst
        seg_const = np.bincount(seg_id, weights=cconst, minlength=n_nodes)
        rhs[sum_row] = np.where(is_and, seg_const - (k - 1), seg_const)
        senses = np.empty(n_rows, dtype=np.int8)
        senses[child_row] = np.where(is_and[seg_id], 0, 1)
        senses[sum_row] = np.where(is_and, 1, 0)
        self.program.add_constraint_block(starts, indices, values, senses, rhs)

    # -- canonical-node affine forms ---------------------------------------------

    def _bool_affine_arrays(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per canonical boolean node: value = sign·x_var + const (var -1 = none)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        f = self._f
        var = np.full(nodes.shape[0], -1, dtype=np.int64)
        sign = np.zeros(nodes.shape[0], dtype=np.float64)
        const = np.zeros(nodes.shape[0], dtype=np.float64)
        if nodes.size == 0:
            return var, sign, const
        op = f.op[nodes]
        const[nodes == TRUE_NODE] = 1.0
        is_atom = op == OP_ATOM
        if np.any(is_atom):
            var[is_atom] = self._atom_vars(nodes[is_atom])
            sign[is_atom] = 1.0
        is_aux = (op == OP_AND) | (op == OP_OR)
        if np.any(is_aux):
            var[is_aux] = self._aux_var[nodes[is_aux]]
            sign[is_aux] = 1.0
        is_not = op == OP_NOT
        if np.any(is_not):
            inner = self._rep[f.child[f.child_start[nodes[is_not]]]]
            inner_op = f.op[inner]
            ivar = np.empty(inner.shape[0], dtype=np.int64)
            atom_mask = inner_op == OP_ATOM
            if np.any(atom_mask):
                ivar[atom_mask] = self._atom_vars(inner[atom_mask])
            if np.any(~atom_mask):
                ivar[~atom_mask] = self._aux_var[inner[~atom_mask]]
            var[is_not] = ivar
            sign[is_not] = -1.0
            const[is_not] = 1.0
        return var, sign, const

    def _atom_vars(self, nodes: np.ndarray) -> np.ndarray:
        f = self._f
        sites = f.site[nodes]
        label_ids = f.label[nodes]
        var = self._ytab[sites, label_ids]
        bad = np.flatnonzero(var < 0)
        if bad.size:
            first = int(bad[0])
            label = f.labels[int(label_ids[first])]
            raise ILPError(
                f"atom [site {int(sites[first])} = {label!r}] refers to an "
                "unknown site/class"
            )
        return var
