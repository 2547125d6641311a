"""Complaints + compiled provenance → 0-1 ILP (the TwoStep SQL step, Section 5.2).

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

:class:`TiresiasEncoder` encodes straight from a compiled result's
:class:`~repro.relational.compile.NodePool` arrays and never materializes
an expression tree:

- a complaint becomes weighted terms over boolean *roots*: canonical pool
  nodes, or *virtual conjunctions* (a list of canonical children) where a
  product multiplies boolean factors into a term — ``SUM(predict(*))``
  under a model-dependent ``WHERE`` conjoins each member's condition with
  each class atom;
- the aux variables of a complaint's unseen AND/OR roots are allocated as
  one block in DFS preorder, and their linking inequalities land as one
  CSR constraint block in DFS postorder;
- aux variables are keyed on canonical pool node ids, so a subtree shared
  by several complaints is linearized once.

The program — variables, row order, coefficient order, and the order in
which each coefficient accumulates in floating point — is byte-identical
to the seed's recursive walk over the materialized trees, which survives
as the test oracle ``tests/oracles/encode.py``.  Optimal solutions and the
enumeration order of tied optima are therefore the same too.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..complaints.complaint import (
    PredictionComplaint,
    TupleComplaint,
    ValueComplaint,
)
from ..errors import ILPError
from ..relational.compile import (
    FALSE_NODE,
    OP_ADD,
    OP_AND,
    OP_ATOM,
    OP_CONST,
    OP_MUL,
    OP_NOT,
    OP_OR,
    TRUE_NODE,
)
from ..relational.executor import QueryResult
from ..relational.provenance import AndFolding, NumFolding
from .model import BinaryProgram
from .solver import ILPSolution

Affine = tuple[dict[int, float], float]

# A pool node's numeric value is handled as the *form* of the expression it
# materializes to (``NodePool.to_expr``), so that every fold of
# ``provenance.add_``/``mul_`` (their shared rules, ``NumFolding``) is
# applied exactly as the tree would have it:
# ``("const", v)`` ConstNum, ``("bool", node)`` the indicator of a canonical
# boolean node, ``("lin", coeffs, nodes)`` LinearSum, ``("add", forms)``
# AddExpr, ``("mul", forms)`` MulExpr, ``("div", num, den)`` DivExpr.
_FORM_CLASS = {"add": "AddExpr", "mul": "MulExpr", "div": "DivExpr"}


def make_encoder(result: QueryResult) -> "TiresiasEncoder":
    """The TwoStep encoder for one compiled debug-mode query result."""
    return TiresiasEncoder(result)


def _affine_add(a: Affine, b: Affine, scale: float = 1.0) -> Affine:
    coeffs = dict(a[0])
    for index, coeff in b[0].items():
        coeffs[index] = coeffs.get(index, 0.0) + scale * coeff
    return coeffs, a[1] + scale * b[1]


def _affine_scale(a: Affine, scale: float) -> Affine:
    return {index: coeff * scale for index, coeff in a[0].items()}, a[1] * scale


class _Forms(NumFolding):
    """``provenance.add_``/``mul_``'s folds over forms."""

    def const(self, value: float) -> tuple:
        return ("const", value)

    def const_value(self, form: tuple) -> float | None:
        return form[1] if form[0] == "const" else None

    def sum_terms(self, form: tuple):
        return form[1] if form[0] == "add" else None

    def product_factors(self, form: tuple):
        return form[1] if form[0] == "mul" else None

    def make_sum(self, terms: list) -> tuple:
        return ("add", terms)

    def make_product(self, factors: list) -> tuple:
        return ("mul", factors)


_FORMS = _Forms()


class _NodeConjunction(AndFolding):
    """``provenance.and_``'s folds over canonical boolean pool nodes.

    A conjunction left with two or more children is *virtual*: the tuple
    of its canonical children, a brand-new AND no pool node stands for.
    """

    true = TRUE_NODE
    false = FALSE_NODE

    def __init__(self, op_l: list, eff_start: list, eff_end: list, eff_child: list):
        self._op_l = op_l
        self._eff_start = eff_start
        self._eff_end = eff_end
        self._eff_child = eff_child

    def is_true(self, node: int) -> bool:
        return node == TRUE_NODE

    def is_false(self, node: int) -> bool:
        return node == FALSE_NODE

    def and_children(self, node: int):
        if self._op_l[node] != OP_AND:
            return None
        return self._eff_child[self._eff_start[node] : self._eff_end[node]]

    def make_and(self, children: list) -> tuple:
        return tuple(children)


class TiresiasEncoder:
    """Builds the TwoStep ILP for one compiled debug-mode query result."""

    def __init__(self, result: QueryResult) -> None:
        if not result.debug:
            raise ILPError("TwoStep needs a debug-mode query result")
        if not result.compiled:
            raise ILPError(
                "TwoStep encodes compiled lineage: Executor.execute(plan, debug=True)"
            )
        self.result = result
        self._layout_sites(result)
        pool = result.pool
        f = pool.frozen()
        self._f = f
        structure = f.bool_structure()
        self._rep = structure.rep
        # Plain lists for the per-node walks: python ints index lists
        # several times faster than numpy scalars.  The structure's lists
        # are cached per freeze; the others are the pool's own.
        self._rep_l, self._eff_start_l, self._eff_end_l, self._eff_child_l = (
            structure.lists()
        )
        self._op_l = pool._op
        self._child_l = pool._child
        self._child_start_l = pool._child_start
        self._child_end_l = pool._child_end
        self._coeff_l = pool._coeff
        self._value_l = pool._value
        self._and = _NodeConjunction(
            self._op_l, self._eff_start_l, self._eff_end_l, self._eff_child_l
        )
        # Canonical node id -> aux variable index (-1 = not yet created);
        # the list is the DFS-side mirror of the array, kept in sync.
        self._aux_var = np.full(f.op.shape[0], -1, dtype=np.int64)
        self._aux_l = [-1] * f.op.shape[0]
        # Dense (site, label_id) -> y variable table (-1 = unknown class).
        ytab = np.full((len(self.runtime.sites), len(f.labels)), -1, dtype=np.int64)
        label_ids = pool._label_ids
        for (site, label), var in self.y_vars.items():
            label_id = label_ids.get(label)
            if label_id is not None:
                ytab[site, label_id] = var
        self._ytab = ytab
        self.aux_created = 0
        self.aux_reused = 0

    def _layout_sites(self, result: QueryResult) -> None:
        """Site variables, their one-hot rows and the objective."""
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

    # -- complaints ------------------------------------------------------------

    def add_complaints(self, complaints: Sequence) -> None:
        for complaint in complaints:
            self.add_complaint(complaint)

    def add_complaint(self, complaint) -> None:
        if isinstance(complaint, ValueComplaint):
            self._add_value_complaint(complaint)
            return
        if isinstance(complaint, TupleComplaint):
            # A lineage tuple that is not even a candidate is FALSE: the
            # vacuous row 0 = 0.
            roots = [self._rep_l[complaint.condition_node(self.result)]]
            affine = self._affine(0, *self._linearize(roots))
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

    def _add_value_complaint(self, complaint: ValueComplaint) -> None:
        node = self.result.cell_node_for(
            complaint.column,
            row_index=complaint.row_index,
            group_key=complaint.group_key,
        )
        form = self._num_form(int(node))
        roots: list = []
        if form[0] == "div":
            # AVG: num / den op X  →  num - X·den op 0 (den ≥ 0), with the
            # numerator's roots linearized before the denominator's.
            num = self._plan(form[1], roots)
            den = self._plan(form[2], roots)
            lookup = self._linearize(roots)
            affine = _affine_add(
                self._affine(num, *lookup),
                self._affine(den, *lookup),
                scale=-complaint.value,
            )
            self.program.add_constraint(affine[0], complaint.op, -affine[1])
            return
        plan = self._plan(form, roots)
        affine = self._affine(plan, *self._linearize(roots))
        self.program.add_constraint(
            affine[0], complaint.op, complaint.value - affine[1]
        )

    # -- cell decomposition ----------------------------------------------------

    def _is_bool(self, node: int) -> bool:
        return node <= TRUE_NODE or OP_ATOM <= self._op_l[node] <= OP_OR

    def _num_form(self, node: int) -> tuple:
        """The form of the numeric expression ``node`` materializes to."""
        if self._is_bool(node):
            return ("bool", self._rep_l[node])
        op = self._op_l[node]
        if op == OP_CONST:
            return ("const", self._value_l[node])
        start, end = self._child_start_l[node], self._child_end_l[node]
        children = self._child_l[start:end]
        if op == OP_ADD:
            coeffs = self._coeff_l[start:end]
            if all(self._is_bool(child) for child in children):
                return ("lin", coeffs, [self._rep_l[child] for child in children])
            return _FORMS.weighted_sum(
                coeffs, [self._num_form(child) for child in children]
            )
        forms = [self._num_form(child) for child in children]
        if op == OP_MUL:
            return _FORMS.product(forms)
        return ("div", forms[0], forms[1])

    def _plan(self, form: tuple, roots: list):
        """How ``form``'s affine value accumulates, appending its roots.

        A plan is a root index (the root's affine form), ``("const", v)``,
        ``("sum", [(scale, plan), ...])`` accumulated term by term, or
        ``("scale", plan, k)``; roots are appended in the order the tree
        walk linearizes them.
        """
        kind = form[0]
        if kind == "const":
            return form
        if kind == "bool":
            roots.append(form[1])
            return len(roots) - 1
        if kind == "lin":
            first = len(roots)
            roots.extend(form[2])
            return ("sum", list(zip(form[1], range(first, len(roots)))))
        if kind == "add":
            return ("sum", [(1.0, self._plan(child, roots)) for child in form[1]])
        if kind == "mul":
            return self._product_plan(form[1], roots)
        raise ILPError(
            "ratio polynomials must be handled at the complaint level "
            "(AVG complaints are cross-multiplied)"
        )

    def _product_plan(self, factors: list, roots: list):
        """A product: constants times one sum distributed over the booleans."""
        constant = 1.0
        bools: list[int] = []
        sums: list[tuple] = []
        for factor in factors:
            kind = factor[0]
            if kind == "const":
                constant *= factor[1]
            elif kind == "bool":
                bools.append(factor[1])
            elif kind == "lin":
                sums.append(factor)
            else:
                raise ILPError(
                    f"product over {_FORM_CLASS[kind]} is not linearizable"
                )
        if len(sums) > 1:
            raise ILPError("products of two non-boolean sums are not linearizable")
        if not sums:
            if not bools:
                return ("const", constant)
            return ("scale", self._conjunction(bools, roots), constant)
        _, coeffs, conditions = sums[0]
        terms = [
            (coeff, self._conjunction(bools + [condition], roots))
            for coeff, condition in zip(coeffs, conditions)
        ]
        return ("scale", ("sum", terms), constant)

    def _conjunction(self, factors: list[int], roots: list) -> int:
        """Root index of ``provenance.and_`` over canonical boolean nodes.

        A virtual conjunction is an AND the aux cache never sees, so it
        gets its own aux variable while its children are shared.
        """
        roots.append(self._and.conjunction(factors))
        return len(roots) - 1

    def _affine(self, plan, var: list, sign: list, const: list) -> Affine:
        """Evaluate a plan given each root's ``sign·x_var + const`` form.

        Accumulates in the tree walk's order (``_affine_add`` term by term,
        each nested sum finished before it is added), so every coefficient
        and constant is bit-identical to it.
        """
        if plan.__class__ is int:
            index = var[plan]
            return ({index: sign[plan]} if index >= 0 else {}), const[plan]
        kind = plan[0]
        if kind == "const":
            return {}, plan[1]
        if kind == "scale":
            return _affine_scale(self._affine(plan[1], var, sign, const), plan[2])
        affine: dict[int, float] = {}
        total = 0.0
        for scale, sub in plan[1]:
            if sub.__class__ is int:
                index = var[sub]
                if index >= 0:
                    affine[index] = affine.get(index, 0.0) + scale * sign[sub]
                total = total + scale * const[sub]
                continue
            coeffs, constant = self._affine(sub, var, sign, const)
            for index, coeff in coeffs.items():
                affine[index] = affine.get(index, 0.0) + scale * coeff
            total = total + scale * constant
        return affine, total

    # -- bulk AND/OR linearization ---------------------------------------------

    def _linearize(self, roots: list) -> tuple[list, list, list]:
        """Linearize ``roots``; per root, its ``(var, sign, const)`` lists."""
        virtual = self._linearize_roots(roots)
        nodes = np.asarray(
            [TRUE_NODE if root.__class__ is tuple else root for root in roots],
            dtype=np.int64,
        )
        var, sign, const = self._bool_affine_arrays(nodes)
        for pos, z in virtual.items():
            var[pos], sign[pos], const[pos] = z, 1.0, 0.0
        return var.tolist(), sign.tolist(), const.tolist()

    def _linearize_roots(self, roots: list) -> dict[int, int]:
        """DFS over canonical structure; allocates aux vars in preorder.

        A root is a canonical boolean node, or a tuple of canonical
        children for a virtual conjunction, which always gets a fresh aux
        variable.  Nodes already linearized by an earlier complaint are
        reused.  Emits every new node's linking rows as one block in
        postorder and returns each virtual root's aux variable by position.
        """
        aux = self._aux_l
        op_l = self._op_l
        rep_l = self._rep_l
        eff_start = self._eff_start_l
        eff_end = self._eff_end_l
        eff_child = self._eff_child_l
        base = self.program.n_vars
        n_alloc = 0
        reused = 0
        created: list[int] = []
        virtual: dict[int, int] = {}
        # Per postorder entry: its aux variable, whether it is an AND, and
        # its children (flat).
        post_z: list[int] = []
        post_and: list[bool] = []
        post_k: list[int] = []
        post_children: list[int] = []
        # Roots drain one at a time (their subtrees never interleave on
        # the tree walk's recursion either); within a drain the int stack
        # holds canonical AND/OR/NOT nodes to visit, or ``~node`` to emit
        # node's linking rows postorder.  Atom/constant children never
        # allocate or emit, so they are filtered at push time — the
        # traversal order over NOT/AND/OR nodes, and hence the aux
        # variable numbering, matches the recursive walk exactly.
        stack: list[int] = []
        for pos, root in enumerate(roots):
            if root.__class__ is tuple:
                z = base + n_alloc
                n_alloc += 1
                virtual[pos] = z
                for child in reversed(root):
                    if op_l[child] >= OP_NOT:
                        stack.append(child)
            elif op_l[root] >= OP_NOT:
                stack.append(root)
            while stack:
                node = stack.pop()
                if node < 0:
                    node = ~node
                    children = eff_child[eff_start[node] : eff_end[node]]
                    post_z.append(aux[node])
                    post_and.append(op_l[node] == OP_AND)
                    post_k.append(len(children))
                    post_children.extend(children)
                    continue
                if op_l[node] == OP_NOT:
                    inner = rep_l[self._child_l[self._child_start_l[node]]]
                    if op_l[inner] >= OP_NOT:
                        stack.append(inner)
                    continue
                if aux[node] >= 0:
                    reused += 1
                    continue
                aux[node] = base + n_alloc
                n_alloc += 1
                created.append(node)
                stack.append(~node)
                for child in reversed(eff_child[eff_start[node] : eff_end[node]]):
                    if op_l[child] >= OP_NOT:
                        stack.append(child)
            if root.__class__ is tuple:
                # The virtual root's own linking rows come last.
                post_z.append(virtual[pos])
                post_and.append(True)
                post_k.append(len(root))
                post_children.extend(root)
        self.aux_reused += reused
        if n_alloc:
            self.program.add_var_block(n_alloc, prefix="aux")
            self.aux_created += n_alloc
            if created:
                self._aux_var[np.asarray(created, dtype=np.int64)] = [
                    aux[node] for node in created
                ]
        if post_z:
            self._emit_link_rows(
                np.asarray(post_z, dtype=np.int64),
                np.asarray(post_and, dtype=bool),
                np.asarray(post_k, dtype=np.int64),
                np.asarray(post_children, dtype=np.int64),
            )
        return virtual

    def _emit_link_rows(
        self,
        z: np.ndarray,
        is_and: np.ndarray,
        k: np.ndarray,
        flat_children: np.ndarray,
    ) -> None:
        """One CSR block of AND/OR linking rows, in tree postorder.

        Per node: k child rows (``z ≤/≥ child_i``) then the sum row
        (``z ≥/≤ Σ child_i …``), coefficients laid out z-first then
        children in child order — exactly the rows and dict orders the
        recursive walk emits one at a time.
        """
        n_nodes = z.shape[0]
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
