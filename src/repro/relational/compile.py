"""Compiled provenance: polynomials as flat node arrays.

The debug-mode executor records every existence condition and aggregate
polynomial (:mod:`repro.relational.provenance`) in a :class:`NodePool`, a
flat columnar store of expression nodes

- ``op``        — one small-int opcode per node,
- ``children``  — a CSR layout (``child_start``/``child_end`` into one flat
  ``child`` array) holding every node's operands,
- ``coeff``     — per-child weights (the ``Σ coeff·child`` of COUNT/SUM
  polynomials),
- ``site``/``label`` — the inference-site id and interned class label of
  each prediction atom,

so that a whole query's provenance is a handful of integer arrays rather
than thousands of heap objects.  :class:`CompiledProvenance` then evaluates
*all* roots (every output tuple's condition, every aggregate cell) in one
level-batched sweep of numpy ops — and, for the Holistic relaxation, one
reverse sweep computes ``∂value/∂P`` for every root simultaneously.

Three evaluation modes share the same tape:

- ``evaluate(assignment)`` — exact boolean/numeric semantics under a
  discrete ``site → class`` assignment (atoms become 0/1 indicators);
- ``relaxed_values(P)`` — the Section 5.3 relaxation at a probability
  matrix ``P[site, class]`` (AND → product, OR → 1-∏(1-x), NOT → 1-x);
- ``relaxed_values_and_pgrad(P, seed)`` — relaxed values plus the seeded
  vector-Jacobian product ``Σ_r seed[r] · ∂value_r/∂P`` via one backward
  pass (exclusive products handle zero factors exactly).

The executor writes nodes in bulk (one constructor call per operator per
batch — see :meth:`NodePool.atoms`, :meth:`NodePool.and2`,
:meth:`NodePool.or_segments`), and every consumer — the complaint check,
TwoStep's ILP encoder, Holistic's relaxation — reads node ids.  The seed's
expression-tree spelling of the same polynomials, with the conversions
between trees and pools, is the test oracle ``tests/oracles/provenance.py``
and ``tests/oracles/lowering.py``.

Worked example — ``COUNT(*) WHERE predict(x) = 'match'`` over three rows::

    pool = NodePool()
    atoms = pool.atoms(np.array([0, 1, 2]), pool.intern_labels(
        np.array(['match', 'match', 'match'], dtype=object)))
    count = pool.add_segments(np.ones(3), atoms, np.array([0, 3]))
    prog = CompiledProvenance(pool, count)
    prog.relaxed_values(P)               # array([P[0,m] + P[1,m] + P[2,m]])
    prog.evaluate({0: 'match', 1: 'no', 2: 'match'})   # array([2.0])
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..errors import ProvenanceError, RelaxationError
from ..utils import grow_array

# Opcodes.  FALSE/TRUE are the two reserved constant nodes 0 and 1.
OP_CONST = 0  # numeric constant; payload = value
OP_ATOM = 1  # prediction atom; payloads = (site_id, label_id)
OP_NOT = 2  # 1 - child                     (boolean)
OP_AND = 3  # ∏ child                       (boolean)
OP_OR = 4  # 1 - ∏ (1 - child)             (boolean)
OP_ADD = 5  # Σ coeff·child                 (numeric; LinearSum/AddExpr)
OP_MUL = 6  # ∏ child                       (numeric)
OP_DIV = 7  # child₀ / child₁               (numeric; AVG cells)

FALSE_NODE = 0
TRUE_NODE = 1


class NodePool:
    """Append-only columnar store of provenance nodes.

    Nodes are created strictly children-before-parents, so node indices
    double as a topological order.  The two reserved nodes ``FALSE_NODE``
    and ``TRUE_NODE`` are boolean constants shared by every expression.
    """

    def __init__(self) -> None:
        self._op: list[int] = []
        self._value: list[float] = []  # OP_CONST payload
        self._site: list[int] = []  # OP_ATOM payload
        self._label: list[int] = []  # OP_ATOM payload (interned label id)
        self._child_start: list[int] = []
        self._child_end: list[int] = []
        self._child: list[int] = []
        self._coeff: list[float] = []
        self._is_bool: list[bool] = []
        self.labels: list[object] = []
        self._label_ids: dict[object, int] = {}
        # label_id -> dense site-indexed table of atom node ids (-1 = none).
        self._atom_tables: dict[int, np.ndarray] = {}
        self._frozen: _FrozenPool | None = None
        # FALSE and TRUE constants.
        self._append_scalar(OP_CONST, value=0.0, is_bool=True)
        self._append_scalar(OP_CONST, value=1.0, is_bool=True)

    # -- low-level append ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._op)

    def _append_scalar(
        self,
        op: int,
        value: float = 0.0,
        site: int = -1,
        label: int = -1,
        children: Sequence[int] = (),
        coeffs: Sequence[float] | None = None,
        is_bool: bool = False,
    ) -> int:
        index = len(self._op)
        self._op.append(op)
        self._value.append(float(value))
        self._site.append(int(site))
        self._label.append(int(label))
        self._child_start.append(len(self._child))
        self._child.extend(int(c) for c in children)
        if coeffs is None:
            self._coeff.extend(1.0 for _ in children)
        else:
            self._coeff.extend(float(c) for c in coeffs)
        self._child_end.append(len(self._child))
        self._is_bool.append(bool(is_bool))
        self._frozen = None
        return index

    def _append_bulk(
        self,
        op: int,
        n: int,
        child_flat: np.ndarray,
        offsets: np.ndarray,
        coeffs: np.ndarray | None = None,
        is_bool: bool = False,
    ) -> np.ndarray:
        """Append ``n`` nodes of one op; returns their indices."""
        if n == 0:
            return np.empty(0, dtype=np.int64)
        first = len(self._op)
        base = len(self._child)
        self._op.extend([op] * n)
        self._value.extend([0.0] * n)
        self._site.extend([-1] * n)
        self._label.extend([-1] * n)
        self._child_start.extend((offsets[:-1] + base).tolist())
        self._child_end.extend((offsets[1:] + base).tolist())
        self._child.extend(np.asarray(child_flat, dtype=np.int64).tolist())
        if coeffs is None:
            self._coeff.extend([1.0] * len(child_flat))
        else:
            self._coeff.extend(np.asarray(coeffs, dtype=np.float64).tolist())
        self._is_bool.extend([is_bool] * n)
        self._frozen = None
        return np.arange(first, first + n, dtype=np.int64)

    # -- labels and atoms ---------------------------------------------------------

    def intern_label(self, label: object) -> int:
        """Intern one class label; returns its dense label id."""
        try:
            return self._label_ids[label]
        except KeyError:
            label_id = len(self.labels)
            self._label_ids[label] = label_id
            self.labels.append(label)
            return label_id

    def intern_labels(self, labels: np.ndarray) -> np.ndarray:
        """Intern an object array of class labels into label-id ints."""
        return np.asarray([self.intern_label(label) for label in labels], dtype=np.int64)

    def _atom_table(self, label_id: int, min_size: int) -> np.ndarray:
        table = self._atom_tables.get(label_id)
        if table is None:
            table = np.full(0, -1, dtype=np.int64)
        table = grow_array(table, min_size, fill=-1)
        self._atom_tables[label_id] = table
        return table

    def atoms(self, site_ids: np.ndarray, label_ids: np.ndarray) -> np.ndarray:
        """Vectorized atom interning for parallel (site, label-id) arrays."""
        site_ids = np.asarray(site_ids, dtype=np.int64)
        label_ids = np.asarray(label_ids, dtype=np.int64)
        if site_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        out = np.empty(site_ids.shape[0], dtype=np.int64)
        for label_id in np.unique(label_ids).tolist():
            mask = label_ids == label_id
            sites = site_ids[mask]
            table = self._atom_table(label_id, int(sites.max()) + 1)
            nodes = table[sites]
            fresh = nodes < 0
            if np.any(fresh):
                new_sites = np.unique(sites[fresh])
                n_fresh = new_sites.shape[0]
                first = len(self._op)
                self._op.extend([OP_ATOM] * n_fresh)
                self._value.extend([0.0] * n_fresh)
                self._site.extend(new_sites.tolist())
                self._label.extend([label_id] * n_fresh)
                start = len(self._child)
                self._child_start.extend([start] * n_fresh)
                self._child_end.extend([start] * n_fresh)
                self._is_bool.extend([True] * n_fresh)
                self._frozen = None
                table[new_sites] = np.arange(first, first + n_fresh, dtype=np.int64)
                nodes = table[sites]
            out[mask] = nodes
        return out

    def const_bool(self, values: np.ndarray) -> np.ndarray:
        """TRUE/FALSE node per boolean value (no new nodes)."""
        return np.where(np.asarray(values, dtype=bool), TRUE_NODE, FALSE_NODE).astype(
            np.int64
        )

    def const_num(self, values: np.ndarray) -> np.ndarray:
        """One numeric-constant node per value."""
        values = np.asarray(values, dtype=np.float64)
        first = len(self._op)
        n = values.shape[0]
        self._op.extend([OP_CONST] * n)
        self._value.extend(values.tolist())
        self._site.extend([-1] * n)
        self._label.extend([-1] * n)
        start = len(self._child)
        self._child_start.extend([start] * n)
        self._child_end.extend([start] * n)
        self._is_bool.extend([False] * n)
        self._frozen = None
        return np.arange(first, first + n, dtype=np.int64)

    # -- boolean builders (constant folding mirrors and_/or_/not_) ----------------

    def and2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise conjunction of two node arrays with folding."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.empty(a.shape[0], dtype=np.int64)
        false_mask = (a == FALSE_NODE) | (b == FALSE_NODE)
        out[false_mask] = FALSE_NODE
        a_true = a == TRUE_NODE
        b_true = b == TRUE_NODE
        take_a = ~false_mask & b_true
        out[take_a] = a[take_a]
        take_b = ~false_mask & a_true & ~b_true
        out[take_b] = b[take_b]
        fresh = ~(false_mask | a_true | b_true)
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh:
            child_flat = np.empty(2 * n_fresh, dtype=np.int64)
            child_flat[0::2] = a[fresh]
            child_flat[1::2] = b[fresh]
            offsets = np.arange(n_fresh + 1, dtype=np.int64) * 2
            out[fresh] = self._append_bulk(
                OP_AND, n_fresh, child_flat, offsets, is_bool=True
            )
        return out

    def not_(self, nodes: np.ndarray) -> np.ndarray:
        """Element-wise negation with TRUE/FALSE and double-negation folding."""
        nodes = np.asarray(nodes, dtype=np.int64)
        out = np.empty(nodes.shape[0], dtype=np.int64)
        out[nodes == TRUE_NODE] = FALSE_NODE
        out[nodes == FALSE_NODE] = TRUE_NODE
        # Index the builder lists per input node (O(batch), not O(pool)).
        op_list, start_list, child_list = self._op, self._child_start, self._child
        op = np.asarray([op_list[node] for node in nodes.tolist()], dtype=np.int8)
        double = op == OP_NOT
        if np.any(double):
            out[double] = np.asarray(
                [child_list[start_list[node]] for node in nodes[double].tolist()],
                dtype=np.int64,
            )
        fresh = (nodes != TRUE_NODE) & (nodes != FALSE_NODE) & ~double
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh:
            offsets = np.arange(n_fresh + 1, dtype=np.int64)
            out[fresh] = self._append_bulk(
                OP_NOT, n_fresh, nodes[fresh], offsets, is_bool=True
            )
        return out

    def _nary_bool(
        self, op: int, child_flat: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Shared n-ary AND/OR builder over CSR segments with folding.

        For OR: any TRUE child short-circuits to TRUE and FALSE children are
        dropped; for AND the roles are swapped.  Empty segments fold to the
        operator's identity (FALSE for OR, TRUE for AND).
        """
        child_flat = np.asarray(child_flat, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        n_seg = offsets.shape[0] - 1
        if n_seg == 0:
            return np.empty(0, dtype=np.int64)
        if op == OP_OR:
            absorbing, identity = TRUE_NODE, FALSE_NODE
        else:
            absorbing, identity = FALSE_NODE, TRUE_NODE
        counts = np.diff(offsets)
        seg_id = np.repeat(np.arange(n_seg, dtype=np.int64), counts)
        short = np.zeros(n_seg, dtype=bool)
        hit = child_flat == absorbing
        if np.any(hit):
            short[seg_id[hit]] = True
        keep = (child_flat != absorbing) & (child_flat != identity) & ~short[seg_id]
        kept_flat = child_flat[keep]
        kept_seg = seg_id[keep]
        kept_counts = np.bincount(kept_seg, minlength=n_seg)

        out = np.full(n_seg, identity, dtype=np.int64)
        out[short] = absorbing
        single = (kept_counts == 1) & ~short
        if np.any(single):
            starts = np.searchsorted(kept_seg, np.flatnonzero(single))
            out[np.flatnonzero(single)] = kept_flat[starts]
        multi = (kept_counts >= 2) & ~short
        n_multi = int(np.count_nonzero(multi))
        if n_multi:
            take = multi[kept_seg]
            new_flat = kept_flat[take]
            new_counts = kept_counts[multi]
            new_offsets = np.concatenate(
                [[0], np.cumsum(new_counts)]
            ).astype(np.int64)
            out[multi] = self._append_bulk(
                op, n_multi, new_flat, new_offsets, is_bool=True
            )
        return out

    def or_segments(self, child_flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """One disjunction node per CSR segment (with constant folding)."""
        return self._nary_bool(OP_OR, child_flat, offsets)

    def and_segments(self, child_flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """One conjunction node per CSR segment (with constant folding)."""
        return self._nary_bool(OP_AND, child_flat, offsets)

    # -- numeric builders -----------------------------------------------------------

    def add_segments(
        self,
        coeffs: np.ndarray,
        child_flat: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """One ``Σ coeff·child`` node per CSR segment (COUNT/SUM cells).

        Boolean children act as 0/1 indicators; an empty segment is the
        constant 0 (an empty COUNT).
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        child_flat = np.asarray(child_flat, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        n_seg = offsets.shape[0] - 1
        counts = np.diff(offsets)
        out = np.empty(n_seg, dtype=np.int64)
        empty = counts == 0
        if np.any(empty):
            n_empty = int(np.count_nonzero(empty))
            # Childless ADD nodes: the constant 0.
            out[empty] = self._append_bulk(
                OP_ADD,
                n_empty,
                np.empty(0, dtype=np.int64),
                np.zeros(n_empty + 1, dtype=np.int64),
            )
        filled = ~empty
        n_filled = int(np.count_nonzero(filled))
        if n_filled:
            seg_id = np.repeat(np.arange(n_seg, dtype=np.int64), counts)
            take = filled[seg_id]
            new_counts = counts[filled]
            new_offsets = np.concatenate([[0], np.cumsum(new_counts)]).astype(np.int64)
            out[filled] = self._append_bulk(
                OP_ADD, n_filled, child_flat[take], new_offsets, coeffs=coeffs[take]
            )
        return out

    def mul2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise product nodes (bool children act as indicators).

        A TRUE factor folds away (matching the reference path, which emits
        the bare value when a member's condition is deterministically true);
        a FALSE factor folds the whole product to the constant 0.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.empty(a.shape[0], dtype=np.int64)
        zero = (a == FALSE_NODE) | (b == FALSE_NODE)
        if np.any(zero):
            out[zero] = self.const_num(np.zeros(int(np.count_nonzero(zero))))
        take_b = ~zero & (a == TRUE_NODE)
        out[take_b] = b[take_b]
        take_a = ~zero & ~take_b & (b == TRUE_NODE)
        out[take_a] = a[take_a]
        fresh = ~(zero | take_a | take_b)
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh:
            child_flat = np.empty(2 * n_fresh, dtype=np.int64)
            child_flat[0::2] = a[fresh]
            child_flat[1::2] = b[fresh]
            offsets = np.arange(n_fresh + 1, dtype=np.int64) * 2
            out[fresh] = self._append_bulk(OP_MUL, n_fresh, child_flat, offsets)
        return out

    def div2(self, numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
        """Element-wise ratio nodes (AVG = SUM / COUNT)."""
        numerator = np.asarray(numerator, dtype=np.int64)
        denominator = np.asarray(denominator, dtype=np.int64)
        n = numerator.shape[0]
        child_flat = np.empty(2 * n, dtype=np.int64)
        child_flat[0::2] = numerator
        child_flat[1::2] = denominator
        offsets = np.arange(n + 1, dtype=np.int64) * 2
        return self._append_bulk(OP_DIV, n, child_flat, offsets)

    # -- frozen view ----------------------------------------------------------------------

    def frozen(self) -> "_FrozenPool":
        """Immutable array view of the pool (cached until the next append)."""
        if self._frozen is None:
            self._frozen = _FrozenPool(self)
        return self._frozen


class _FrozenPool:
    """Numpy snapshot of a :class:`NodePool` with a cached evaluation tape.

    Levels and per-(level, op) step groups depend only on the node arrays,
    so they are computed once per freeze and shared by every
    :class:`CompiledProvenance` built over this snapshot.
    """

    def __init__(self, pool: NodePool) -> None:
        self.op = np.asarray(pool._op, dtype=np.int8)
        self.value = np.asarray(pool._value, dtype=np.float64)
        self.site = np.asarray(pool._site, dtype=np.int64)
        self.label = np.asarray(pool._label, dtype=np.int64)
        self.child_start = np.asarray(pool._child_start, dtype=np.int64)
        self.child_end = np.asarray(pool._child_end, dtype=np.int64)
        self.child = np.asarray(pool._child, dtype=np.int64)
        self.coeff = np.asarray(pool._coeff, dtype=np.float64)
        self.labels = list(pool.labels)
        self._tape: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None = None
        self._level: np.ndarray | None = None
        self._bool_structure: BoolStructure | None = None

    def tape(self) -> tuple[np.ndarray, list]:
        """``(level, steps)`` over the whole pool (children before parents)."""
        if self._tape is not None:
            return self._level, self._tape
        counts = self.child_end - self.child_start
        level = np.zeros(self.op.shape[0], dtype=np.int64)
        internal = np.flatnonzero(counts > 0)
        while internal.size:
            child_levels = level[self.child]
            seg_max = np.maximum.reduceat(child_levels, self.child_start[internal])
            new_level = level.copy()
            new_level[internal] = seg_max + 1
            if np.array_equal(new_level, level):
                break
            level = new_level
        steps: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        max_level = int(level.max()) if level.size else 0
        for lvl in range(1, max_level + 1):
            at_level = np.flatnonzero(level == lvl)
            for op in (OP_NOT, OP_AND, OP_OR, OP_ADD, OP_MUL, OP_DIV):
                nodes = at_level[self.op[at_level] == op]
                if nodes.size == 0:
                    continue
                seg_counts = self.child_end[nodes] - self.child_start[nodes]
                flat = _flat_ranges(self.child_start[nodes], self.child_end[nodes])
                offsets = np.concatenate([[0], np.cumsum(seg_counts)]).astype(np.int64)
                steps.append(
                    (op, nodes, self.child[flat], offsets, self.coeff[flat])
                )
        self._level = level
        self._tape = steps
        return level, steps

    def bool_structure(self) -> "BoolStructure":
        """Canonicalized boolean structure of the pool (cached per freeze).

        A node's *effective* structure is the one the fold rules give
        it: constants fold, single-child operators elide, same-op
        children splice, and double negation collapses (the seed's tree
        constructors, whose materialized trees the oracle encoder walks).
        The ILP encoder must see exactly that structure to stay
        bit-identical with the tree walk, so this pass
        mirrors the folds bottom-up over the node arrays (index order is a
        valid level order — children strictly precede parents):

        - ``rep[i]`` is the canonical node ``i`` aliases to after folding
          (``rep[i] == i`` for canonical nodes);
        - canonical AND/OR nodes get an *effective* children CSR
          (``eff_start``/``eff_end`` into ``eff_child``) holding their
          flattened, constant-free, already-canonical operands (always ≥ 2).
        """
        if self._bool_structure is not None:
            return self._bool_structure
        # Fast path: folds only trigger on TRUE/FALSE children, same-op
        # children (splice / double negation), or AND/OR arity < 2 — and
        # with zero folds anywhere no node aliases, so the raw CSR IS the
        # effective structure.  One vectorized scan decides.
        bool_idx = np.flatnonzero((self.op >= OP_NOT) & (self.op <= OP_OR))
        clean = True
        if bool_idx.size:
            k = self.child_end[bool_idx] - self.child_start[bool_idx]
            flat = _flat_ranges(self.child_start[bool_idx], self.child_end[bool_idx])
            kids = self.child[flat]
            parent_op = np.repeat(self.op[bool_idx], k)
            clean = (
                not np.any((self.op[bool_idx] != OP_NOT) & (k < 2))
                and not np.any(kids <= TRUE_NODE)
                and not np.any(self.op[kids] == parent_op)
            )
        if clean:
            self._bool_structure = BoolStructure(
                rep=np.arange(self.op.shape[0], dtype=np.int64),
                eff_start=self.child_start,
                eff_end=self.child_end,
                eff_child=self.child,
            )
            return self._bool_structure
        op = self.op.tolist()
        child_start = self.child_start.tolist()
        child_end = self.child_end.tolist()
        child = self.child.tolist()
        n = len(op)
        rep = list(range(n))
        # Effective children accumulate straight into one flat list:
        # canonical AND/OR nodes record their [start, end) slice of it,
        # and same-op splices copy an earlier slice (children strictly
        # precede parents, so a child's slice is final when read).
        eff_start = [0] * n
        eff_end = [0] * n
        flat_all: list[int] = []
        append = flat_all.append
        extend = flat_all.extend
        # Only NOT/AND/OR nodes can alias or grow effective children; the
        # fold loop skips everything else (atoms, constants, arithmetic).
        bool_nodes = np.flatnonzero(
            (self.op >= OP_NOT) & (self.op <= OP_OR)
        ).tolist()
        for i in bool_nodes:
            o = op[i]
            if o == OP_NOT:
                r = rep[child[child_start[i]]]
                if r == TRUE_NODE:
                    rep[i] = FALSE_NODE
                elif r == FALSE_NODE:
                    rep[i] = TRUE_NODE
                elif op[r] == OP_NOT:
                    # not_(NotExpr) returns the inner child.
                    rep[i] = rep[child[child_start[r]]]
                continue
            absorbing = FALSE_NODE if o == OP_AND else TRUE_NODE
            identity = TRUE_NODE if o == OP_AND else FALSE_NODE
            start = len(flat_all)
            dead = False
            for c in child[child_start[i] : child_end[i]]:
                r = rep[c]
                if r == absorbing:
                    dead = True
                    break
                if r == identity:
                    continue
                if op[r] == o:
                    # Same-op canonical child: splice its (already
                    # flattened) effective operands, as and_/or_ do.
                    extend(flat_all[eff_start[r] : eff_end[r]])
                else:
                    append(r)
            count = len(flat_all) - start
            if dead:
                rep[i] = absorbing
                del flat_all[start:]
            elif count == 0:
                rep[i] = identity
            elif count == 1:
                rep[i] = flat_all[start]
                del flat_all[start:]
            else:
                eff_start[i] = start
                eff_end[i] = start + count
        self._bool_structure = BoolStructure(
            rep=np.asarray(rep, dtype=np.int64),
            eff_start=np.asarray(eff_start, dtype=np.int64),
            eff_end=np.asarray(eff_end, dtype=np.int64),
            eff_child=np.asarray(flat_all, dtype=np.int64),
            lists=(rep, eff_start, eff_end, flat_all),
        )
        return self._bool_structure


class BoolStructure:
    """Canonical boolean aliasing + effective-children CSR of a frozen pool."""

    __slots__ = ("rep", "eff_start", "eff_end", "eff_child", "_lists")

    def __init__(
        self,
        rep: np.ndarray,
        eff_start: np.ndarray,
        eff_end: np.ndarray,
        eff_child: np.ndarray,
        lists: tuple[list, list, list, list] | None = None,
    ) -> None:
        self.rep = rep
        self.eff_start = eff_start
        self.eff_end = eff_end
        self.eff_child = eff_child
        self._lists = lists

    def lists(self) -> tuple[list, list, list, list]:
        """``(rep, eff_start, eff_end, eff_child)`` as plain lists, cached."""
        if self._lists is None:
            self._lists = (
                self.rep.tolist(),
                self.eff_start.tolist(),
                self.eff_end.tolist(),
                self.eff_child.tolist(),
            )
        return self._lists


class CompiledProvenance:
    """A set of compiled roots with a reusable level-batched evaluation tape.

    Construction extracts the sub-DAG reachable from ``roots``, assigns each
    node a level (children strictly below parents) and groups nodes into
    per-(level, op) steps.  Each evaluation is then a fixed sequence of
    segmented numpy operations — no per-node Python dispatch.
    """

    def __init__(self, pool: NodePool, roots: np.ndarray) -> None:
        self.pool = pool
        self.roots = np.asarray(roots, dtype=np.int64).ravel()
        frozen = pool.frozen()
        self._f = frozen
        n = frozen.op.shape[0]

        # Reachable sub-DAG: frontier expansion over the flat child arrays
        # (children have smaller indices than parents, so depth is bounded).
        counts = frozen.child_end - frozen.child_start
        reachable = np.zeros(n, dtype=bool)
        expanded = np.zeros(n, dtype=bool)
        if self.roots.size:
            reachable[self.roots] = True
            while True:
                frontier = np.flatnonzero(reachable & (counts > 0) & ~expanded)
                if frontier.size == 0:
                    break
                expanded[frontier] = True
                kids = frozen.child[
                    _flat_ranges(frozen.child_start[frontier], frozen.child_end[frontier])
                ]
                reachable[kids] = True
        self.reachable = reachable

        # Restrict the pool-wide cached tape to the reachable sub-DAG.
        level, full_steps = frozen.tape()
        self.level = level
        self._steps: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for op, nodes, child_flat, offsets, coeffs in full_steps:
            keep = reachable[nodes]
            if not keep.any():
                continue
            if keep.all():
                self._steps.append((op, nodes, child_flat, offsets, coeffs))
                continue
            kept = np.flatnonzero(keep)
            seg_counts = offsets[1:][kept] - offsets[:-1][kept]
            flat = _flat_ranges(offsets[:-1][kept], offsets[1:][kept])
            new_offsets = np.concatenate([[0], np.cumsum(seg_counts)]).astype(np.int64)
            self._steps.append(
                (op, nodes[kept], child_flat[flat], new_offsets, coeffs[flat])
            )
        leaf_mask = reachable & (level == 0)
        self._atom_nodes = np.flatnonzero(leaf_mask & (frozen.op == OP_ATOM))
        self._const_nodes = np.flatnonzero(leaf_mask & (frozen.op == OP_CONST))
        # Degenerate childless operators: empty AND/MUL is 1, empty OR/ADD is 0.
        self._unit_nodes = np.flatnonzero(
            leaf_mask & ((frozen.op == OP_AND) | (frozen.op == OP_MUL))
        )
        self._atom_sites = frozen.site[self._atom_nodes]
        self._atom_labels = frozen.label[self._atom_nodes]

    # -- leaves -------------------------------------------------------------------

    def atom_columns(self, class_columns: Mapping[object, int]) -> np.ndarray:
        """Map each reachable atom's label to a column of ``P``."""
        colmap = np.full(len(self._f.labels), -1, dtype=np.int64)
        for label, column in class_columns.items():
            label_id = self.pool._label_ids.get(label)
            if label_id is not None:
                colmap[label_id] = column
        columns = colmap[self._atom_labels]
        if np.any(columns < 0):
            bad = self._f.labels[int(self._atom_labels[int(np.argmax(columns < 0))])]
            raise RelaxationError(f"atom class {bad!r} is not a model class")
        return columns

    # -- evaluation --------------------------------------------------------------------

    def _forward(self, leaf_values: np.ndarray, strict_div: bool) -> np.ndarray:
        f = self._f
        values = np.zeros(f.op.shape[0], dtype=np.float64)
        values[self._const_nodes] = f.value[self._const_nodes]
        values[self._atom_nodes] = leaf_values
        values[self._unit_nodes] = 1.0
        for op, nodes, child_flat, offsets, coeffs in self._steps:
            child_vals = values[child_flat]
            if op == OP_NOT:
                values[nodes] = 1.0 - child_vals
            elif op in (OP_AND, OP_MUL):
                values[nodes] = np.multiply.reduceat(child_vals, offsets[:-1])
            elif op == OP_OR:
                values[nodes] = 1.0 - np.multiply.reduceat(
                    1.0 - child_vals, offsets[:-1]
                )
            elif op == OP_ADD:
                values[nodes] = np.add.reduceat(coeffs * child_vals, offsets[:-1])
            else:  # OP_DIV
                numerator = child_vals[0::2]
                denominator = child_vals[1::2]
                if strict_div and np.any(denominator == 0.0):
                    raise RelaxationError(
                        "relaxed AVG denominator is zero; the complained group "
                        "is unreachable under the current model"
                    )
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = numerator / denominator
                values[nodes] = np.where(denominator == 0.0, np.nan, ratio)
        return values

    def evaluate(self, assignment: Mapping[int, object]) -> np.ndarray:
        """Exact root values under a discrete ``site → class`` assignment."""
        if self._atom_nodes.size:
            label_of_site = np.full(int(self._atom_sites.max()) + 1, -2, dtype=np.int64)
            for site in np.unique(self._atom_sites):
                try:
                    label = assignment[int(site)]
                except KeyError as exc:
                    raise ProvenanceError(
                        f"assignment is missing inference site {int(site)}"
                    ) from exc
                label_of_site[site] = self.pool._label_ids.get(label, -3)
            leaf = (label_of_site[self._atom_sites] == self._atom_labels).astype(
                np.float64
            )
        else:
            leaf = np.empty(0, dtype=np.float64)
        values = self._forward(leaf, strict_div=False)
        return values[self.roots]

    def evaluate_labels(self, site_label_ids: np.ndarray) -> np.ndarray:
        """Exact root values from a dense ``site → label-id`` array."""
        leaf = (
            np.asarray(site_label_ids, dtype=np.int64)[self._atom_sites]
            == self._atom_labels
        ).astype(np.float64)
        return self._forward(leaf, strict_div=False)[self.roots]

    def relaxed_values(
        self, P: np.ndarray, class_columns: Mapping[object, int] | None = None
    ) -> np.ndarray:
        """Section 5.3 relaxation of every root at probability matrix ``P``."""
        columns = self._resolve_columns(class_columns)
        leaf = P[self._atom_sites, columns].astype(np.float64)
        return self._forward(leaf, strict_div=True)[self.roots]

    def relaxed_forward(
        self, P: np.ndarray, class_columns: Mapping[object, int] | None = None
    ) -> tuple[np.ndarray, tuple]:
        """Forward-only relaxation; returns (root values, backward cache)."""
        columns = self._resolve_columns(class_columns)
        leaf = P[self._atom_sites, columns].astype(np.float64)
        values = self._forward(leaf, strict_div=True)
        return values[self.roots], (values, columns, P.shape)

    def relaxed_backward(self, cache: tuple, seed: np.ndarray) -> np.ndarray:
        """Seeded reverse sweep over a :meth:`relaxed_forward` cache."""
        values, columns, p_shape = cache
        adjoint = self._backward(values, seed)
        grad = np.zeros(p_shape, dtype=np.float64)
        np.add.at(grad, (self._atom_sites, columns), adjoint[self._atom_nodes])
        return grad

    def relaxed_values_and_pgrad(
        self,
        P: np.ndarray,
        seed: np.ndarray,
        class_columns: Mapping[object, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Relaxed root values and ``Σ_r seed[r]·∂value_r/∂P`` in one sweep."""
        root_values, cache = self.relaxed_forward(P, class_columns)
        return root_values, self.relaxed_backward(cache, seed)

    def _backward(self, values: np.ndarray, seed: np.ndarray) -> np.ndarray:
        adjoint = np.zeros(values.shape[0], dtype=np.float64)
        np.add.at(adjoint, self.roots, np.asarray(seed, dtype=np.float64))
        for op, nodes, child_flat, offsets, coeffs in reversed(self._steps):
            parent_adj = adjoint[nodes]
            counts = np.diff(offsets)
            parent_rep = np.repeat(parent_adj, counts)
            child_vals = values[child_flat]
            if op == OP_NOT:
                np.add.at(adjoint, child_flat, -parent_rep)
            elif op in (OP_AND, OP_MUL):
                np.add.at(
                    adjoint,
                    child_flat,
                    parent_rep * _exclusive_products(child_vals, offsets),
                )
            elif op == OP_OR:
                np.add.at(
                    adjoint,
                    child_flat,
                    parent_rep * _exclusive_products(1.0 - child_vals, offsets),
                )
            elif op == OP_ADD:
                np.add.at(adjoint, child_flat, parent_rep * coeffs)
            else:  # OP_DIV
                numerator = child_vals[0::2]
                denominator = child_vals[1::2]
                np.add.at(adjoint, child_flat[0::2], parent_adj / denominator)
                np.add.at(
                    adjoint,
                    child_flat[1::2],
                    -parent_adj * numerator / denominator**2,
                )
        return adjoint

    def _resolve_columns(self, class_columns: Mapping[object, int] | None) -> np.ndarray:
        if class_columns is None:
            # Default: label ids double as probability columns.
            return self._atom_labels
        return self.atom_columns(class_columns)


def _flat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, end)`` for each (start, end) pair."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nonempty = counts > 0
    starts = starts[nonempty]
    ends = ends[nonempty]
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    offsets = np.cumsum(counts[nonempty])[:-1]
    out[offsets] = starts[1:] - ends[:-1] + 1
    return np.cumsum(out)


def _exclusive_products(factors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per element, the product of the *other* factors in its segment.

    Zero factors are handled exactly: with one zero in a segment, only the
    zero element sees the product of the non-zeros; with two or more zeros
    every exclusive product is zero.
    """
    counts = np.diff(offsets)
    seg_id = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    is_zero = factors == 0.0
    nonzero = np.where(is_zero, 1.0, factors)
    prod_nonzero = np.multiply.reduceat(nonzero, offsets[:-1])
    prod_nonzero[counts == 0] = 1.0  # reduceat artifacts on empty segments
    zero_count = np.bincount(seg_id[is_zero], minlength=counts.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        exclusive = prod_nonzero[seg_id] / factors
    one_zero = zero_count[seg_id] == 1
    exclusive = np.where(one_zero, 0.0, exclusive)
    exclusive = np.where(one_zero & is_zero, prod_nonzero[seg_id], exclusive)
    exclusive = np.where(zero_count[seg_id] >= 2, 0.0, exclusive)
    return exclusive
