"""Query execution: concrete results plus debug-mode lineage.

The executor evaluates a plan bottom-up over :class:`TupleBatch` objects.
In **debug mode** (the paper's "rerun Q in a debug mode to generate
fine-grained lineage metadata", Section 5.1) every intermediate tuple
carries its boolean existence condition over prediction atoms, and every
aggregate cell yields a numeric provenance polynomial.  Crucially, tuples
that are *currently* filtered out by a model predicate are retained
symbolically — fixing the training data could flip their predictions, so
both TwoStep's ILP and Holistic's relaxation must see them.

Two debug representations are supported:

- ``provenance="compiled"`` (default): conditions and polynomials are
  emitted directly as node ids into the runtime's shared
  :class:`~repro.relational.compile.NodePool`; selects, projections,
  aggregations, and the hash-join probe are columnar batch operations and
  the concrete output is recovered by one vectorized evaluation of all
  conditions/cells (:class:`~repro.relational.compile.CompiledProvenance`).
  Consumers that want trees still get them — ``QueryResult`` and
  ``GroupInfo`` materialize expression trees from the pool lazily.
- ``provenance="tree"``: the original interpreted path — per-tuple
  :class:`~repro.relational.provenance.BoolExpr` objects built row by row.
  Kept verbatim as the golden reference; the compiled path is pinned to it
  by equivalence tests and benchmarks.  The Rain loop never selects it:
  only ``execute(plan, debug=True, provenance="tree")`` reaches it.

The concrete query result is recovered by evaluating each condition /
polynomial under the current prediction assignment, which guarantees the
concrete and symbolic views never diverge.

Compiled lineage is built once per plan and executor.  It is symbolic in
the predictions, and training-set edits never touch the queried
relations, so the pool, the sites and the candidate tuples or groups
depend only on (plan, data).  :meth:`Executor.execute` memoizes them per
plan fingerprint; a later call re-labels the sites under the current
models and evaluates the cached output program.  The labelled result is
kept too and returned again while every model the lineage reads holds
the same parameter array: parameters change only by rebinding that
array (``fit``, ``set_params``), so its identity is an exact key.  An
entry is rebuilt when a relation or model it read was replaced (compared
by identity, plus the model's classes).  A plan that projects a
prediction into an output column is executed afresh each call, since
that column holds concrete values.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ProvenanceError, QueryError
from . import provenance as prov
from .algebra import (
    Aggregate,
    AggSpec,
    Filter,
    Join,
    Plan,
    Project,
    Scan,
    plan_fingerprint,
)
from .compile import FALSE_NODE, TRUE_NODE, CompiledProvenance, NodePool
from .context import QueryRuntime, TupleBatch
from .expressions import BoolAnd, Cmp, Col, Expr, ModelPredict
from .schema import Database, Relation


class GroupInfo:
    """Debug metadata for one (possibly not-currently-existing) group.

    In compiled mode ``condition``/``cell_polys`` materialize expression
    trees lazily from ``condition_node``/``cell_nodes``.
    """

    def __init__(
        self,
        key: tuple,
        condition: prov.BoolExpr | None = None,
        cell_polys: dict | None = None,
        condition_node: int | None = None,
        cell_nodes: dict | None = None,
        pool: NodePool | None = None,
    ) -> None:
        self.key = key
        self._condition = condition
        if cell_polys is None and condition_node is None:
            cell_polys = {}
        self._cell_polys = cell_polys
        self.condition_node = condition_node
        self.cell_nodes = cell_nodes
        self.pool = pool

    @property
    def condition(self) -> prov.BoolExpr:
        if self._condition is None and self.condition_node is not None:
            self._condition = self.pool.to_expr(self.condition_node)
        return self._condition

    @property
    def cell_polys(self) -> dict:
        if self._cell_polys is None:
            self._cell_polys = {
                name: self.pool.to_expr(node) for name, node in self.cell_nodes.items()
            }
        return self._cell_polys

    def __repr__(self) -> str:
        return f"GroupInfo(key={self.key!r})"


class QueryResult:
    """Concrete output plus (in debug mode) full lineage.

    Attributes:
        relation: the concrete output under current predictions.
        runtime: execution state (models, sites, prediction cache).
        candidate_batch: all symbolically-alive tuples (pre-aggregation
            output for SP/SPJ queries); ``None`` outside debug mode.
        candidate_conditions: existence conditions, aligned with
            ``candidate_batch`` (materialized lazily in compiled mode).
        candidate_cond_nodes: compiled condition node ids, aligned with
            ``candidate_batch``; ``None`` in tree mode.
        output_to_candidate: for SP/SPJ queries, index of each concrete
            output row inside the candidate batch.
        groups: for aggregate queries, one :class:`GroupInfo` per candidate
            group (including groups that are currently empty).
        output_to_group: index of each concrete output row inside ``groups``.
        is_aggregate: whether the root plan node is an Aggregate.
        pool: the compiled provenance pool, or ``None`` in tree mode.
    """

    def __init__(
        self,
        relation: Relation,
        runtime: QueryRuntime,
        candidate_batch: TupleBatch | None = None,
        candidate_conditions: list[prov.BoolExpr] | None = None,
        output_to_candidate: list[int] | None = None,
        groups: list[GroupInfo] | None = None,
        output_to_group: list[int] | None = None,
        is_aggregate: bool = False,
        candidate_cond_nodes: np.ndarray | None = None,
        pool: NodePool | None = None,
    ) -> None:
        self.relation = relation
        self.runtime = runtime
        self.candidate_batch = candidate_batch
        self._candidate_conditions = candidate_conditions
        self.candidate_cond_nodes = candidate_cond_nodes
        self.output_to_candidate = output_to_candidate
        self.groups = groups
        self.output_to_group = output_to_group
        self.is_aggregate = is_aggregate
        self.pool = pool
        # Programs over ``pool`` keyed by their root array; every result
        # of one memoized lineage gets the same dict (``_Lineage.keep``).
        self._programs: dict[bytes, CompiledProvenance] | None = None

    @property
    def debug(self) -> bool:
        return self.runtime.debug

    @property
    def compiled(self) -> bool:
        return self.pool is not None

    @property
    def candidate_conditions(self) -> list[prov.BoolExpr] | None:
        if self._candidate_conditions is None and self.candidate_cond_nodes is not None:
            self._candidate_conditions = self.pool.to_exprs(self.candidate_cond_nodes)
        return self._candidate_conditions

    def program(self, roots: np.ndarray) -> CompiledProvenance:
        """A compiled program over ``roots`` in this (compiled) result's pool.

        The pool of an executed lineage never grows, so a program depends
        on its roots alone: results of one lineage share one program per
        root array instead of each building its own.
        """
        roots = np.asarray(roots, dtype=np.int64)
        if self._programs is None:
            return CompiledProvenance(self.pool, roots)
        key = roots.tobytes()
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = CompiledProvenance(self.pool, roots)
        return program

    def assignment(self) -> dict[int, object]:
        """Current ``site_id -> predicted class`` assignment."""
        return self.runtime.current_assignment()

    def scalar(self, column: str | None = None) -> float:
        """The single value of a 1x1 result (global aggregates)."""
        if len(self.relation) != 1:
            raise QueryError(
                f"scalar() needs a single-row result, got {len(self.relation)} rows"
            )
        name = column or self.relation.column_names[-1]
        return float(self.relation.column(name)[0])

    @staticmethod
    def _cell_lookup(group: GroupInfo, column: str, compiled: bool):
        cells = group.cell_nodes if compiled else group.cell_polys
        if cells is None:
            raise ProvenanceError("cell nodes are only available in compiled mode")
        try:
            return cells[column]
        except KeyError:
            raise ProvenanceError(
                f"column {column!r} is not an aggregate output; "
                f"available: {sorted(cells)}"
            ) from None

    def cell_polynomial(self, row_index: int, column: str) -> prov.NumExpr:
        """Aggregate provenance polynomial for an output cell."""
        return self._cell_lookup(self._output_group(row_index), column, compiled=False)

    def cell_node(self, row_index: int, column: str) -> int:
        """Compiled node id of an aggregate output cell."""
        return self._cell_lookup(self._output_group(row_index), column, compiled=True)

    def cell_node_for(
        self,
        column: str,
        row_index: int | None = None,
        group_key: tuple | None = None,
    ) -> int:
        """Compiled cell node addressed by output row or group key."""
        if group_key is not None:
            return self._cell_lookup(
                self.group_by_key(group_key), column, compiled=True
            )
        return self.cell_node(row_index, column)

    def _output_group(self, row_index: int) -> GroupInfo:
        self._require_debug()
        if not self.is_aggregate or self.groups is None or self.output_to_group is None:
            raise ProvenanceError("cell lookups apply to aggregate queries only")
        return self.groups[self.output_to_group[row_index]]

    def group_by_key(self, key: tuple) -> GroupInfo:
        """The candidate group with this key (may be currently empty)."""
        self._require_debug()
        if self.groups is None:
            raise ProvenanceError("no group metadata (not an aggregate query)")
        for group in self.groups:
            if group.key == key:
                return group
        raise ProvenanceError(f"no candidate group with key {key!r}")

    def group_polynomial_by_key(self, key: tuple, column: str) -> prov.NumExpr:
        """Aggregate polynomial looked up by group key (works for currently
        empty groups, which have no output row)."""
        return self.group_by_key(key).cell_polys[column]

    def tuple_condition(self, row_index: int) -> prov.BoolExpr:
        """Existence condition of a concrete output tuple (SP/SPJ queries)."""
        self._require_debug()
        if self.is_aggregate:
            if self.groups is None or self.output_to_group is None:
                raise ProvenanceError("missing group metadata")
            return self.groups[self.output_to_group[row_index]].condition
        if self.output_to_candidate is None:
            raise ProvenanceError("missing candidate metadata")
        candidate = self.output_to_candidate[row_index]
        if self.candidate_cond_nodes is not None:
            return self.pool.to_expr(int(self.candidate_cond_nodes[candidate]))
        if self._candidate_conditions is None:
            raise ProvenanceError("missing candidate metadata")
        return self._candidate_conditions[candidate]

    def tuple_condition_node(self, row_index: int) -> int:
        """Compiled node id of a concrete output tuple's condition."""
        self._require_debug()
        if self.is_aggregate:
            if self.groups is None or self.output_to_group is None:
                raise ProvenanceError("missing group metadata")
            node = self.groups[self.output_to_group[row_index]].condition_node
            if node is None:
                raise ProvenanceError("condition nodes need compiled mode")
            return node
        if self.candidate_cond_nodes is None or self.output_to_candidate is None:
            raise ProvenanceError("condition nodes need compiled mode")
        return int(self.candidate_cond_nodes[self.output_to_candidate[row_index]])

    def _require_debug(self) -> None:
        if not self.debug:
            raise ProvenanceError(
                "lineage requested but the query was not executed in debug mode"
            )


class _Lineage:
    """One plan's debug lineage, which does not depend on the model.

    Everything here is a function of (plan, data): the node pool, the
    inference sites with their recorded features, the candidate batch
    (SP/SPJ) or the candidate groups (aggregates), and the compiled
    program over the output roots.  Only the site labels change when the
    model is refit, so a later execution re-labels this lineage instead
    of rebuilding it.

    It also keeps the last labelled result with the parameter arrays of
    the models it read, and the programs consumers build over its pool
    (:meth:`QueryResult.program`).  Neither refers back to the lineage,
    so dropping the executor frees it without the cyclic collector.
    """

    def __init__(
        self,
        plan: Plan,
        runtime: QueryRuntime,
        roots: np.ndarray,
        batch: TupleBatch | None = None,
        keys: list[tuple] | None = None,
        key_names: list[str] | None = None,
        groups: list[GroupInfo] | None = None,
    ) -> None:
        self.plan = plan
        self.runtime = runtime
        self.program = CompiledProvenance(runtime.pool, roots)
        self.batch = batch
        self.keys = keys
        self.key_names = key_names
        self.groups = groups
        self.n_nodes = len(runtime.pool)
        self.n_sites = len(runtime.sites)
        self.reads = dict(runtime.reads)
        self.classes = {
            name: _classes_of(model)
            for (kind, name), model in self.reads.items()
            if kind == "model"
        }
        self.programs: dict[bytes, CompiledProvenance] = {}
        self._labelled: tuple[tuple, QueryResult] | None = None

    def _model_state(self) -> tuple | None:
        """The parameter array of every model read; None if one has none."""
        state = tuple(
            getattr(model, "_params", None)
            for (kind, _), model in self.reads.items()
            if kind == "model"
        )
        return None if any(params is None for params in state) else state

    def labelled(self) -> QueryResult | None:
        """The kept result, if no model read has new parameters since."""
        if self._labelled is None:
            return None
        state, result = self._labelled
        current = self._model_state()
        if current is None or any(a is not b for a, b in zip(current, state)):
            return None
        return result

    def keep(self, result: QueryResult) -> QueryResult:
        """Keep ``result`` as the labelling under the current parameters.

        It also gets this lineage's programs, shared with every result
        kept before it.
        """
        result._programs = self.programs
        state = self._model_state()
        self._labelled = None if state is None else (state, result)
        return result

    def is_current(self, database: Database) -> bool:
        """Whether every relation and model it read is still registered."""
        for (kind, name), obj in self.reads.items():
            if kind == "relation":
                if not database.has_relation(name) or database.relation(name) is not obj:
                    return False
            elif (
                not database.has_model(name)
                or database.model(name) is not obj
                or _classes_of(obj) != self.classes[name]
            ):
                return False
        return True

    def check_unchanged(self) -> None:
        """Raise if a consumer appended to the shared pool or sites."""
        n_nodes, n_sites = len(self.runtime.pool), len(self.runtime.sites)
        if (n_nodes, n_sites) != (self.n_nodes, self.n_sites):
            raise ProvenanceError(
                f"memoized lineage was modified after execution: pool "
                f"{self.n_nodes} -> {n_nodes} nodes, "
                f"{self.n_sites} -> {n_sites} sites"
            )


def _classes_of(model) -> list:
    return list(getattr(model, "classes", []))


def _projects_predictions(plan: Plan) -> bool:
    """Whether a projection below or at the root evaluates a prediction.

    Such a column holds concrete predicted values, not lineage, so the
    plan is executed afresh instead of re-labelled.
    """
    if isinstance(plan, Project):
        if any(expr.depends_on_model() for expr, _ in plan.items):
            return True
        return _projects_predictions(plan.child)
    if isinstance(plan, Join):
        return _projects_predictions(plan.left) or _projects_predictions(plan.right)
    if isinstance(plan, (Filter, Aggregate)):
        return _projects_predictions(plan.child)
    return False


class Executor:
    """Evaluates plans against a :class:`Database`.

    Compiled debug executions are memoized per plan fingerprint for the
    executor's lifetime: the first call builds the plan's lineage, and a
    later call re-labels it under the current models (one
    ``model.predict`` per run of sites and one evaluation of the output
    roots) or, when no model it reads has new parameters since the last
    call, returns that call's result again.  ``lineage_hits``/
    ``lineage_misses`` count reuses and builds of a lineage.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._lineages: dict[str, _Lineage] = {}
        self.lineage_hits = 0
        self.lineage_misses = 0

    def execute(
        self, plan: Plan, debug: bool = False, provenance: str = "compiled"
    ) -> QueryResult:
        """Run ``plan``; with ``debug=True`` capture full lineage.

        ``provenance`` selects the debug representation: ``"compiled"``
        (columnar node arrays, the default) or ``"tree"`` (the interpreted
        golden-reference path).  A compiled debug call returns the plan's
        previous result object again while every model it reads holds the
        same parameter array, and otherwise a new result with its own
        labels; compiled debug results of one plan share its lineage
        (pool, sites, candidate batch, groups) read-only, so consumers
        must not modify a result.

        Raises :class:`~repro.errors.ProvenanceError` when a memoized
        lineage's pool or site registry grew since it was built.
        """
        if debug and provenance == "compiled":
            return self._execute_debug(plan)
        runtime = QueryRuntime(self.database, debug=debug, provenance=provenance)
        if isinstance(plan, Aggregate):
            if runtime.provenance == "tree":
                return self._execute_aggregate_reference(plan, runtime)
            batch, keys, key_names, member_rows, _, offsets = self._group_columnar(
                plan, runtime
            )
            return self._finish_aggregate_concrete(
                plan, runtime, batch, keys, key_names, member_rows, offsets
            )
        batch = self._eval(plan, runtime)
        return self._finalize_spj(plan, batch, runtime)

    # -- compiled debug: lineage memo -------------------------------------------

    def _execute_debug(self, plan: Plan) -> QueryResult:
        key = plan_fingerprint(plan)
        lineage = self._lineages.get(key)
        if lineage is not None and lineage.is_current(self.database):
            lineage.check_unchanged()
            self.lineage_hits += 1
            result = lineage.labelled()
            if result is None:
                result = lineage.keep(
                    self._labelled_result(lineage, lineage.runtime.relabeled())
                )
            return result
        self.lineage_misses += 1
        runtime = QueryRuntime(self.database, debug=True)
        if isinstance(plan, Aggregate):
            lineage = self._aggregate_lineage(
                plan, runtime, *self._group_columnar(plan, runtime)
            )
        else:
            batch = self._eval(plan, runtime)
            lineage = _Lineage(plan, runtime, batch.cond_nodes, batch=batch)
        result = self._labelled_result(lineage, runtime)
        if not _projects_predictions(plan):
            self._lineages[key] = lineage
            lineage.keep(result)
        return result

    def _labelled_result(self, lineage: _Lineage, runtime: QueryRuntime) -> QueryResult:
        """The concrete result of ``lineage`` under ``runtime``'s labels."""
        values = lineage.program.evaluate_labels(runtime.site_label_ids(runtime.pool))
        if lineage.groups is None:
            alive = np.flatnonzero(values >= 0.5)
            return QueryResult(
                relation=_result_relation(lineage.batch.take(alive)),
                runtime=runtime,
                candidate_batch=lineage.batch,
                candidate_cond_nodes=lineage.batch.cond_nodes,
                output_to_candidate=alive.tolist(),
                is_aggregate=False,
                pool=runtime.pool,
            )
        plan = lineage.plan
        n_groups = len(lineage.keys)
        exists = values[:n_groups] >= 0.5
        if not plan.group_by:
            exists[:] = True  # a global aggregate row always exists
        out_rows = np.flatnonzero(exists)
        out_cells: dict[str, list] = {}
        for position, spec in enumerate(plan.aggregates):
            cells = values[(1 + position) * n_groups : (2 + position) * n_groups]
            out_cells[spec.name] = [float(cells[g]) for g in out_rows]
        return self._build_output(
            plan,
            lineage.key_names,
            [lineage.keys[g] for g in out_rows],
            out_cells,
            runtime,
            lineage.groups,
            out_rows.tolist(),
        )

    # -- SP / SPJ -------------------------------------------------------------

    def _finalize_spj(
        self, plan: Plan, batch: TupleBatch, runtime: QueryRuntime
    ) -> QueryResult:
        """Concrete or tree-provenance SP/SPJ result."""
        conditions = None
        if runtime.debug:
            assignment = runtime.current_assignment()
            conditions = [batch.condition(i) for i in range(len(batch))]
            alive = [
                i for i, cond in enumerate(conditions) if cond.evaluate(assignment)
            ]
        else:
            alive = list(range(len(batch)))
        return QueryResult(
            relation=_result_relation(batch.take(np.asarray(alive, dtype=np.int64))),
            runtime=runtime,
            candidate_batch=batch if runtime.debug else None,
            candidate_conditions=conditions,
            output_to_candidate=alive if runtime.debug else None,
            is_aggregate=False,
        )

    # -- plan dispatch ---------------------------------------------------------

    def _eval(self, plan: Plan, runtime: QueryRuntime) -> TupleBatch:
        if isinstance(plan, Scan):
            return self._eval_scan(plan, runtime)
        if isinstance(plan, Filter):
            return self._eval_filter(plan, runtime)
        if isinstance(plan, Join):
            return self._eval_join(plan, runtime)
        if isinstance(plan, Project):
            return self._eval_project(plan, runtime)
        if isinstance(plan, Aggregate):
            raise QueryError("Aggregate must be the plan root")
        raise QueryError(f"unknown plan node {type(plan).__name__}")

    def _eval_scan(self, plan: Scan, runtime: QueryRuntime) -> TupleBatch:
        relation = runtime.relation(plan.relation_name)
        return TupleBatch.from_relation(
            relation, plan.effective_alias, debug=runtime.debug, pool=runtime.pool
        )

    def _eval_filter(self, plan: Filter, runtime: QueryRuntime) -> TupleBatch:
        batch = self._eval(plan.child, runtime)
        return self._apply_predicate(batch, plan.predicate, runtime)

    def _apply_predicate(
        self, batch: TupleBatch, predicate: Expr, runtime: QueryRuntime
    ) -> TupleBatch:
        if not runtime.debug:
            mask = np.asarray(predicate.eval(batch, runtime), dtype=bool)
            return batch.take(np.flatnonzero(mask))
        if batch.cond_nodes is not None:
            # Compiled: fold symbolically in the node pool; drop only rows
            # whose condition is deterministically FALSE.
            symbolic = predicate.symbolic_bool_nodes(batch, runtime)
            combined = runtime.pool.and2(batch.cond_nodes, symbolic)
            keep = np.flatnonzero(combined != FALSE_NODE)
            return batch.take(keep).with_cond_nodes(combined[keep])
        # Tree (reference): fold the predicate symbolically per row.
        symbolic = predicate.symbolic_bool(batch, runtime)
        combined = [
            prov.and_(batch.condition(i), cond) for i, cond in enumerate(symbolic)
        ]
        keep = [i for i, cond in enumerate(combined) if not cond.is_false()]
        filtered = batch.take(np.asarray(keep, dtype=np.int64))
        return filtered.with_conditions([combined[i] for i in keep])

    def _eval_join(self, plan: Join, runtime: QueryRuntime) -> TupleBatch:
        left = self._eval(plan.left, runtime)
        right = self._eval(plan.right, runtime)
        if plan.condition is None:
            return TupleBatch.cross_product(left, right)
        equi, residual = _split_join_condition(plan.condition, left, right)
        if equi:
            joined = _hash_join(left, right, equi)
        else:
            joined = TupleBatch.cross_product(left, right)
        if residual is not None:
            joined = self._apply_predicate(joined, residual, runtime)
        return joined

    def _eval_project(self, plan: Project, runtime: QueryRuntime) -> TupleBatch:
        batch = self._eval(plan.child, runtime)
        columns: dict[str, np.ndarray] = {}
        for expr, name in plan.items:
            columns[name] = np.asarray(expr.eval(batch, runtime))
        return TupleBatch(
            columns,
            batch.alias_relations,
            batch.alias_row_ids,
            batch.conditions if batch.cond_nodes is None else None,
            cond_nodes=batch.cond_nodes,
            pool=batch.pool,
        )

    # -- aggregation: shared helpers ------------------------------------------

    def _aggregate_keys(
        self, plan: Aggregate, batch: TupleBatch, runtime: QueryRuntime
    ) -> tuple[list[tuple[str, np.ndarray]], list[tuple[str, ModelPredict]]]:
        det_keys: list[tuple[str, np.ndarray]] = []
        model_keys: list[tuple[str, ModelPredict]] = []
        for expr, name in plan.group_by:
            if isinstance(expr, ModelPredict):
                model_keys.append((name, expr))
            elif expr.depends_on_model():
                raise QueryError(
                    "GROUP BY expressions may be plain columns or predict(...)"
                )
            else:
                det_keys.append((name, np.asarray(expr.eval(batch, runtime))))
        if len(model_keys) > 1:
            raise QueryError("at most one predict(...) GROUP BY key is supported")
        return det_keys, model_keys

    def _build_output(
        self,
        plan: Aggregate,
        key_names: list[str],
        out_keys: list[tuple],
        out_cells: dict[str, list],
        runtime: QueryRuntime,
        groups: list[GroupInfo] | None,
        out_rows: list[int],
    ) -> QueryResult:
        columns: dict[str, list] = {name: [] for name in key_names}
        for spec in plan.aggregates:
            columns[spec.name] = out_cells[spec.name]
        for key in out_keys:
            for position, name in enumerate(key_names):
                columns[name].append(key[position])
        if not columns:
            raise QueryError("aggregate query produced no output columns")
        relation = Relation(
            "result",
            {name: np.asarray(values) for name, values in columns.items()},
            row_ids=np.arange(len(out_keys)),
        )
        return QueryResult(
            relation=relation,
            runtime=runtime,
            groups=groups if runtime.debug else None,
            output_to_group=out_rows if runtime.debug else None,
            is_aggregate=True,
            pool=runtime.pool,
        )

    # -- aggregation: columnar (compiled debug + concrete) ----------------------

    def _group_columnar(self, plan: Aggregate, runtime: QueryRuntime) -> tuple:
        """Candidate groups of ``plan`` in output order.

        Returns ``(batch, keys, key_names, member_rows, member_conds,
        offsets)``: group ``g``'s members are
        ``member_rows[offsets[g]:offsets[g + 1]]`` with their membership
        conditions in ``member_conds`` (``None`` outside debug mode).
        """
        batch = self._eval(plan.child, runtime)
        n_rows = len(batch)
        pool = runtime.pool
        debug = runtime.debug
        det_keys, model_keys = self._aggregate_keys(plan, batch, runtime)

        # Factorize deterministic keys into one dense code per row.
        det_codes = np.zeros(n_rows, dtype=np.int64)
        det_uniques: list[np.ndarray] = []
        for _, values in det_keys:
            uniques, inverse = _factorize(values)
            det_uniques.append(uniques)
            det_codes = _compact_codes(det_codes * len(uniques) + inverse)
        # After compaction det_codes are dense, but we need the decoded key
        # parts; keep per-row key parts instead of decoding codes.
        det_parts_per_row = [values for _, values in det_keys]

        if model_keys:
            key_name, predict_expr = model_keys[0]
            classes = runtime.model_classes(predict_expr.model_name)
            site_ids = np.asarray(
                predict_expr.site_ids(batch, runtime), dtype=np.int64
            )
        else:
            classes = None
            site_ids = None

        # Membership entries: (row, class label, condition node).
        if classes is not None and debug:
            k = len(classes)
            label_ids = pool.intern_labels(np.asarray(classes, dtype=object))
            atoms = pool.atoms(np.repeat(site_ids, k), np.tile(label_ids, n_rows))
            entry_conds = pool.and2(np.repeat(batch.cond_nodes, k), atoms)
            keep = entry_conds != FALSE_NODE
            entry_rows = np.repeat(np.arange(n_rows, dtype=np.int64), k)[keep]
            entry_class = np.tile(np.arange(k, dtype=np.int64), n_rows)[keep]
            entry_conds = entry_conds[keep]
            entry_codes = det_codes[entry_rows] * k + entry_class
        elif classes is not None:
            predictions = predict_expr.eval(batch, runtime)
            class_of_label = {label: index for index, label in enumerate(classes)}
            uniques, inverse = _factorize(np.asarray(predictions, dtype=object))
            table = np.asarray(
                [class_of_label[label] for label in uniques.tolist()], dtype=np.int64
            )
            entry_class = table[inverse]
            entry_rows = np.arange(n_rows, dtype=np.int64)
            entry_conds = None
            entry_codes = det_codes * len(classes) + entry_class
        else:
            entry_rows = np.arange(n_rows, dtype=np.int64)
            entry_class = None
            entry_conds = batch.cond_nodes if debug else None
            entry_codes = det_codes

        present_codes, entry_group = np.unique(entry_codes, return_inverse=True)
        n_groups = present_codes.shape[0]

        # Candidate keys, ordered like the reference path (string tokens).
        first_entry = np.zeros(n_groups, dtype=np.int64)
        order_by_group = np.argsort(entry_group, kind="stable")
        group_counts = np.bincount(entry_group, minlength=n_groups)
        group_offsets = np.concatenate([[0], np.cumsum(group_counts)]).astype(np.int64)
        if n_groups:
            first_entry = order_by_group[group_offsets[:-1]]
        keys: list[tuple] = []
        for group_index in range(n_groups):
            entry = int(first_entry[group_index])
            row = int(entry_rows[entry])
            parts = tuple(
                _key_token_value(values[row]) for values in det_parts_per_row
            )
            if entry_class is not None:
                parts = parts + (classes[int(entry_class[entry])],)
            keys.append(parts)
        group_order = sorted(range(n_groups), key=lambda g: _key_sort_token(keys[g]))

        # Global aggregate: exactly one group even with zero entries.
        global_empty = not plan.group_by and n_groups == 0
        if global_empty:
            keys = [()]
            group_order = [0]
            group_counts = np.zeros(1, dtype=np.int64)
            group_offsets = np.zeros(2, dtype=np.int64)
            n_groups = 1

        # Member arrays in final group order.
        member_rows = entry_rows[order_by_group] if entry_rows.size else entry_rows
        member_conds = (
            entry_conds[order_by_group] if (debug and entry_conds is not None) else None
        )
        # Reorder CSR segments into sorted group order.
        sorted_counts = group_counts[np.asarray(group_order, dtype=np.int64)]
        sorted_offsets = np.concatenate([[0], np.cumsum(sorted_counts)]).astype(np.int64)
        if n_groups and not global_empty:
            gather = _flat_ranges(
                group_offsets[:-1][np.asarray(group_order, dtype=np.int64)],
                group_offsets[1:][np.asarray(group_order, dtype=np.int64)],
            )
            member_rows = member_rows[gather]
            if member_conds is not None:
                member_conds = member_conds[gather]
        keys = [keys[g] for g in group_order]

        key_names = [name for name, _ in det_keys] + (
            [model_keys[0][0]] if model_keys else []
        )

        return batch, keys, key_names, member_rows, member_conds, sorted_offsets

    def _aggregate_lineage(
        self,
        plan: Aggregate,
        runtime: QueryRuntime,
        batch: TupleBatch,
        keys: list[tuple],
        key_names: list[str],
        member_rows: np.ndarray,
        member_conds: np.ndarray,
        offsets: np.ndarray,
    ) -> _Lineage:
        pool = runtime.pool
        n_groups = len(keys)
        condition_nodes = pool.or_segments(member_conds, offsets)
        if not plan.group_by:
            # A global aggregate row always exists.
            condition_nodes = np.full(n_groups, TRUE_NODE, dtype=np.int64)

        ones = np.ones(member_rows.shape[0], dtype=np.float64)
        cell_nodes: dict[str, np.ndarray] = {}
        count_nodes: np.ndarray | None = None
        for spec in plan.aggregates:
            if spec.func == "count":
                if count_nodes is None:
                    count_nodes = pool.add_segments(ones, member_conds, offsets)
                cell_nodes[spec.name] = count_nodes
                continue
            value_nodes = spec.arg.symbolic_num_nodes(batch, runtime)
            terms = pool.mul2(member_conds, value_nodes[member_rows])
            total_nodes = pool.add_segments(ones, terms, offsets)
            if spec.func == "sum":
                cell_nodes[spec.name] = total_nodes
            else:  # avg
                if count_nodes is None:
                    count_nodes = pool.add_segments(ones, member_conds, offsets)
                cell_nodes[spec.name] = pool.div2(total_nodes, count_nodes)

        group_infos = [
            GroupInfo(
                key=keys[g],
                condition_node=int(condition_nodes[g]),
                cell_nodes={
                    spec.name: int(cell_nodes[spec.name][g])
                    for spec in plan.aggregates
                },
                pool=pool,
            )
            for g in range(n_groups)
        ]
        # One program recovers existence and every cell value per labelling.
        roots = np.concatenate(
            [condition_nodes] + [cell_nodes[spec.name] for spec in plan.aggregates]
        )
        return _Lineage(
            plan, runtime, roots, keys=keys, key_names=key_names, groups=group_infos
        )

    def _finish_aggregate_concrete(
        self,
        plan: Aggregate,
        runtime: QueryRuntime,
        batch: TupleBatch,
        keys: list[tuple],
        key_names: list[str],
        member_rows: np.ndarray,
        offsets: np.ndarray,
    ) -> QueryResult:
        n_groups = len(keys)
        counts = np.diff(offsets).astype(np.float64)
        out_cells: dict[str, list] = {}
        for spec in plan.aggregates:
            if spec.func == "count":
                cells = counts
            else:
                values = np.asarray(
                    spec.arg.eval(batch, runtime), dtype=np.float64
                )
                group_of_member = np.repeat(
                    np.arange(n_groups, dtype=np.int64), np.diff(offsets)
                )
                sums = np.bincount(
                    group_of_member,
                    weights=values[member_rows],
                    minlength=n_groups,
                )
                if spec.func == "sum":
                    cells = sums
                else:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        cells = np.where(counts == 0.0, np.nan, sums / counts)
            out_cells[spec.name] = [float(cells[g]) for g in range(n_groups)]
        return self._build_output(
            plan,
            key_names,
            keys,
            out_cells,
            runtime,
            None,
            list(range(n_groups)),
        )

    # -- aggregation: interpreted reference ------------------------------------

    def _execute_aggregate_reference(
        self, plan: Aggregate, runtime: QueryRuntime
    ) -> QueryResult:
        batch = self._eval(plan.child, runtime)
        n_rows = len(batch)
        det_keys, model_keys = self._aggregate_keys(plan, batch, runtime)

        # Row membership: (deterministic key tuple, per-class condition).
        if runtime.debug:
            row_conditions = [batch.condition(i) for i in range(n_rows)]
        else:
            row_conditions = [prov.TRUE] * n_rows

        if model_keys:
            key_name, predict_expr = model_keys[0]
            classes = runtime.model_classes(predict_expr.model_name)
            site_ids = predict_expr.site_ids(batch, runtime)
        else:
            classes = None
            site_ids = None

        # Candidate groups: det-key combos present in the batch x classes.
        membership: dict[tuple, list[tuple[int, prov.BoolExpr]]] = {}
        for i in range(n_rows):
            det_part = tuple(
                values[i].item() if hasattr(values[i], "item") else values[i]
                for _, values in det_keys
            )
            if classes is None:
                key = det_part
                cond = row_conditions[i]
                membership.setdefault(key, []).append((i, cond))
            else:
                for label in classes:
                    key = det_part + (label,)
                    cond = prov.and_(
                        row_conditions[i], prov.PredIs(site_ids[i], label)
                    )
                    if cond.is_false():
                        continue
                    membership.setdefault(key, []).append((i, cond))

        # Global aggregate: exactly one group even with zero rows.
        if not plan.group_by and not membership:
            membership[()] = []

        agg_values = self._aggregate_arguments(plan.aggregates, batch, runtime)

        group_order = sorted(membership.keys(), key=_key_sort_token)
        group_infos: list[GroupInfo] = []
        for key in group_order:
            members = membership[key]
            condition = prov.or_(*[cond for _, cond in members]) if members else prov.FALSE
            if not plan.group_by:
                condition = prov.TRUE  # a global aggregate row always exists
            info = GroupInfo(key=key, condition=condition)
            for position, spec in enumerate(plan.aggregates):
                info.cell_polys[spec.name] = _aggregate_polynomial(
                    spec, position, members, agg_values
                )
            group_infos.append(info)

        # The prediction cache is populated in both modes (site_ids/symbolic_num
        # run model inference), so the assignment is always available.
        assignment = runtime.current_assignment()
        # Concrete output: groups that currently exist.
        out_rows: list[int] = []
        for index, info in enumerate(group_infos):
            if not plan.group_by or info.condition.evaluate(assignment):
                out_rows.append(index)

        key_names = [name for name, _ in det_keys] + (
            [model_keys[0][0]] if model_keys else []
        )
        out_cells: dict[str, list] = {spec.name: [] for spec in plan.aggregates}
        out_keys: list[tuple] = []
        for index in out_rows:
            info = group_infos[index]
            out_keys.append(info.key)
            for spec in plan.aggregates:
                out_cells[spec.name].append(
                    info.cell_polys[spec.name].evaluate(assignment)
                )
        result = self._build_output(
            plan, key_names, out_keys, out_cells, runtime, group_infos, out_rows
        )
        return result

    def _aggregate_arguments(
        self,
        aggregates: Sequence[AggSpec],
        batch: TupleBatch,
        runtime: QueryRuntime,
    ) -> dict[int, list[prov.NumExpr]]:
        """Per-aggregate numeric provenance of each input row."""
        out: dict[int, list[prov.NumExpr]] = {}
        for position, spec in enumerate(aggregates):
            if spec.arg is None:
                continue
            out[position] = spec.arg.symbolic_num(batch, runtime)
        return out


def _aggregate_polynomial(
    spec: AggSpec,
    position: int,
    members: list[tuple[int, prov.BoolExpr]],
    agg_values: dict[int, list[prov.NumExpr]],
) -> prov.NumExpr:
    """Provenance polynomial of one aggregate cell."""
    if spec.func == "count":
        return prov.LinearSum([(1.0, cond) for _, cond in members])
    values = agg_values[position]
    terms: list[prov.NumExpr] = []
    for row_index, cond in members:
        value = values[row_index]
        if cond.is_true():
            terms.append(value)
        else:
            terms.append(prov.mul_(prov.BoolAsNum(cond), value))
    total = prov.add_(*terms) if terms else prov.ConstNum(0.0)
    if spec.func == "sum":
        return total
    count = prov.LinearSum([(1.0, cond) for _, cond in members])
    return prov.DivExpr(total, count)


def _result_relation(concrete: TupleBatch) -> Relation:
    return Relation(
        "result",
        concrete.columns if concrete.columns else {"__empty__": np.zeros(0)},
        row_ids=np.arange(len(concrete)),
    )


def _key_token_value(value):
    return value.item() if hasattr(value, "item") else value


def _key_sort_token(key: tuple):
    return tuple(str(part) for part in key)


def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(..., return_inverse=True)`` with an order-insensitive
    fallback for object columns numpy cannot sort."""
    values = np.asarray(values)
    try:
        # equal_nan=False: each NaN key is its own group, matching the
        # reference membership dict (NaN != NaN under Python equality).
        uniques, inverse = np.unique(values, return_inverse=True, equal_nan=False)
        return uniques, inverse.reshape(-1).astype(np.int64)
    except TypeError:
        seen: dict[object, int] = {}
        inverse = np.empty(values.shape[0], dtype=np.int64)
        ordered: list[object] = []
        for index, value in enumerate(values.tolist()):
            code = seen.get(value)
            if code is None:
                code = len(ordered)
                seen[value] = code
                ordered.append(value)
            inverse[index] = code
        return np.asarray(ordered, dtype=object), inverse


def _compact_codes(codes: np.ndarray) -> np.ndarray:
    """Re-densify combined key codes to avoid overflow across columns."""
    _, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64)


def _flat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    from .compile import _flat_ranges as impl

    return impl(np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64))


def _split_join_condition(
    condition: Expr, left: TupleBatch, right: TupleBatch
) -> tuple[list[tuple[str, str]], Expr | None]:
    """Split a join condition into deterministic equi-pairs + residual.

    Returns ``(equi_pairs, residual)`` where each equi pair is a
    (left column, right column) qualified-name pair usable by a hash join.
    Model-dependent or non-equality conjuncts stay in the residual.
    """
    conjuncts = _flatten_and(condition)
    equi: list[tuple[str, str]] = []
    residual: list[Expr] = []
    for conjunct in conjuncts:
        pair = _as_equi_pair(conjunct, left, right)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(conjunct)
    residual_expr: Expr | None = None
    if residual:
        residual_expr = residual[0] if len(residual) == 1 else BoolAnd(residual)
    return equi, residual_expr


def _flatten_and(expr: Expr) -> list[Expr]:
    if isinstance(expr, BoolAnd):
        out: list[Expr] = []
        for child in expr.children():
            out.extend(_flatten_and(child))
        return out
    return [expr]


def _as_equi_pair(
    expr: Expr, left: TupleBatch, right: TupleBatch
) -> tuple[str, str] | None:
    if not isinstance(expr, Cmp) or expr.op != "=" or expr.depends_on_model():
        return None
    if not isinstance(expr.left, Col) or not isinstance(expr.right, Col):
        return None
    try:
        left_name = left.resolve(expr.left.name)
        right_name = right.resolve(expr.right.name)
        return (left_name, right_name)
    except QueryError:
        pass
    try:
        left_name = left.resolve(expr.right.name)
        right_name = right.resolve(expr.left.name)
        return (left_name, right_name)
    except QueryError:
        return None


def _hash_join(
    left: TupleBatch, right: TupleBatch, equi: list[tuple[str, str]]
) -> TupleBatch:
    """Deterministic equi join on equality column pairs.

    The probe is columnar: both sides' key tuples are factorized into dense
    codes (one ``np.unique`` over the concatenated columns per pair), the
    right side is stably grouped by code, and matching (left, right) index
    pairs are emitted with ``searchsorted`` + ``repeat`` — no per-row Python.
    Falls back to the dictionary probe for key columns numpy cannot sort
    (mixed-type or multidimensional feature keys).
    """
    n_left, n_right = len(left), len(right)
    left_codes = np.zeros(n_left, dtype=np.int64)
    right_codes = np.zeros(n_right, dtype=np.int64)
    for left_name, right_name in equi:
        left_values = left.columns[left_name]
        right_values = right.columns[right_name]
        if left_values.ndim != 1 or right_values.ndim != 1:
            return _hash_join_reference(left, right, equi)
        if _unsafe_key_promotion(left_values.dtype, right_values.dtype):
            # np.concatenate would stringify one side (e.g. int vs str
            # columns), silently equating values the reference dict probe
            # keeps distinct.
            return _hash_join_reference(left, right, equi)
        try:
            # equal_nan=False: NaN keys never join, matching the reference
            # dictionary probe (distinct NaN objects are distinct keys).
            _, inverse = np.unique(
                np.concatenate([left_values, right_values]),
                return_inverse=True,
                equal_nan=False,
            )
        except TypeError:
            return _hash_join_reference(left, right, equi)
        inverse = inverse.reshape(-1).astype(np.int64)
        n_codes = int(inverse.max()) + 1 if inverse.size else 1
        left_codes = _compact_join_codes(
            left_codes * n_codes + inverse[:n_left],
            right_codes * n_codes + inverse[n_left:],
        )
        right_codes = left_codes[1]
        left_codes = left_codes[0]
    right_order = np.argsort(right_codes, kind="stable")
    right_sorted = right_codes[right_order]
    starts = np.searchsorted(right_sorted, left_codes, side="left")
    ends = np.searchsorted(right_sorted, left_codes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    left_index = np.repeat(np.arange(n_left, dtype=np.int64), counts)
    base = np.repeat(np.cumsum(counts) - counts, counts)
    position = np.arange(total, dtype=np.int64) - base
    right_index = right_order[np.repeat(starts, counts) + position]
    return TupleBatch.paired(left, right, left_index, right_index)


def _unsafe_key_promotion(left_dtype: np.dtype, right_dtype: np.dtype) -> bool:
    """True when concatenating the key columns would coerce across kinds.

    A str/bytes side paired with anything but the same kind (or object,
    which keeps Python equality) gets promoted by ``np.concatenate`` —
    e.g. ``int 1`` and ``str '1'`` would collapse to one join code even
    though they are unequal under the reference probe's semantics.
    """
    kinds = {left_dtype.kind, right_dtype.kind}
    if not kinds & {"U", "S"}:
        return False
    return len(kinds - {"O"}) > 1


def _compact_join_codes(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly re-densify both sides' codes (keeps cross-side equality)."""
    _, inverse = np.unique(
        np.concatenate([left_codes, right_codes]), return_inverse=True
    )
    inverse = inverse.reshape(-1).astype(np.int64)
    return inverse[: left_codes.shape[0]], inverse[left_codes.shape[0] :]


def _hash_join_reference(
    left: TupleBatch, right: TupleBatch, equi: list[tuple[str, str]]
) -> TupleBatch:
    """The original dictionary-probe hash join (fallback path)."""
    left_keys = [left.columns[l] for l, _ in equi]
    right_keys = [right.columns[r] for _, r in equi]
    table: dict[tuple, list[int]] = {}
    for j in range(len(right)):
        key = tuple(_hashable(values[j]) for values in right_keys)
        table.setdefault(key, []).append(j)
    left_index: list[int] = []
    right_index: list[int] = []
    for i in range(len(left)):
        key = tuple(_hashable(values[i]) for values in left_keys)
        for j in table.get(key, ()):
            left_index.append(i)
            right_index.append(j)
    return TupleBatch.paired(
        left,
        right,
        np.asarray(left_index, dtype=np.int64),
        np.asarray(right_index, dtype=np.int64),
    )


def _hashable(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if hasattr(value, "item"):
        return value.item()
    return value
