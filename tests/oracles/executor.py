"""The seed's tree-provenance executor, kept as a test oracle.

:class:`TreeExecutor` runs a plan the way the seed did: every debug tuple
carries a :class:`~oracles.provenance.BoolExpr` condition built row by
row, every aggregate cell a :class:`~oracles.provenance.NumExpr`
polynomial built from the group's members, and :class:`TreeRuntime`
probes its prediction cache and interns inference sites one row at a
time.  It shares the join probe and the grouping keys with
:class:`~repro.relational.executor.Executor`, never memoizes lineage, and
returns results without a node pool (``result.compiled`` is False).

The library's batches, groups and results carry node ids only, so the
trees ride on types of their own: :class:`TreeBatch` (``conditions``),
:class:`TreeGroupInfo` (``condition``, ``cell_polys``) and
:class:`TreeQueryResult` (``candidate_conditions``).

The compiled executor is pinned to it by the equivalence tests and by the
end-to-end removal-order checks that route the Rain loop through it
(:func:`oracles.tree_reference`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import QueryError
from repro.relational.algebra import Aggregate, AggSpec, Plan, Project, Scan
from repro.relational.context import QueryRuntime, TupleBatch
from repro.relational.executor import (
    Executor,
    QueryResult,
    _key_sort_token,
    _result_relation,
)
from repro.relational.expressions import Expr

from . import provenance as prov
from .expressions import symbolic_bool, symbolic_num


class TreeBatch(TupleBatch):
    """A batch whose debug tuples carry condition trees (``conditions``)."""

    conditions: list[prov.BoolExpr] | None = None

    @classmethod
    def of(
        cls, batch: TupleBatch, conditions: list[prov.BoolExpr] | None
    ) -> "TreeBatch":
        """``batch``'s tuples with the given per-tuple conditions."""
        out = cls(batch.columns, batch.alias_relations, batch.alias_row_ids)
        out.conditions = conditions
        return out

    def condition(self, index: int) -> prov.BoolExpr:
        return prov.TRUE if self.conditions is None else self.conditions[index]

    def take(self, indices: np.ndarray) -> "TreeBatch":
        conditions = None
        if self.conditions is not None:
            conditions = [self.conditions[int(i)] for i in indices]
        return TreeBatch.of(super().take(indices), conditions)

    @classmethod
    def paired(
        cls,
        left: "TreeBatch",
        right: "TreeBatch",
        left_index: np.ndarray,
        right_index: np.ndarray,
    ) -> "TreeBatch":
        conditions = None
        if left.conditions is not None and right.conditions is not None:
            conditions = [
                prov.and_(left.conditions[int(li)], right.conditions[int(ri)])
                for li, ri in zip(left_index, right_index)
            ]
        return cls.of(super().paired(left, right, left_index, right_index), conditions)


class TreeGroupInfo:
    """A candidate group with its condition and cell polynomials as trees."""

    def __init__(self, key: tuple, condition: prov.BoolExpr) -> None:
        self.key = key
        self.condition = condition
        self.cell_polys: dict[str, prov.NumExpr] = {}


class TreeQueryResult(QueryResult):
    """An SP/SPJ result whose candidates' conditions are trees."""

    def __init__(self, *args, candidate_conditions=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.candidate_conditions = candidate_conditions


class TreeRuntime(QueryRuntime):
    """A runtime without a node pool, with the seed's row-at-a-time caches."""

    def __init__(self, database, debug: bool = False) -> None:
        super().__init__(database, debug=debug)
        self.pool = None

    def predict(
        self,
        model_name: str,
        relation_name: str,
        row_ids: np.ndarray,
        features: np.ndarray,
    ) -> np.ndarray:
        model = self.model(model_name)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size == 0:
            return np.asarray([])
        known, labels = self._pred_store(
            model_name, relation_name, int(row_ids.max()) + 1
        )
        return self._predict_reference(model, known, labels, row_ids, features)

    def _predict_reference(
        self,
        model,
        known: np.ndarray,
        labels: np.ndarray,
        row_ids: np.ndarray,
        features: np.ndarray,
    ) -> np.ndarray:
        """The seed's row-at-a-time cache probe (golden-reference path)."""
        missing_positions = [
            position
            for position, row_id in enumerate(row_ids)
            if not known[int(row_id)]
        ]
        if missing_positions:
            missing_features = features[missing_positions]
            predicted = model.predict(missing_features)
            for position, label in zip(missing_positions, predicted):
                cell = (
                    label.item()
                    if np.ndim(label) == 0 and hasattr(label, "item")
                    else label
                )
                labels[int(row_ids[position])] = cell
                known[int(row_ids[position])] = True
        return np.asarray([labels[int(row_id)] for row_id in row_ids])

    def intern_sites(
        self,
        model_name: str,
        relation_name: str,
        row_ids: np.ndarray,
        features: np.ndarray | None = None,
    ) -> np.ndarray:
        row_ids = np.asarray(row_ids, dtype=np.int64)
        return self._intern_sites_reference(
            model_name, relation_name, row_ids, features
        )

    def _intern_sites_reference(
        self,
        model_name: str,
        relation_name: str,
        row_ids: np.ndarray,
        features: np.ndarray | None,
    ) -> np.ndarray:
        """The seed's site-at-a-time interning loop (golden-reference path)."""
        site_ids = []
        for position, row_id in enumerate(row_ids):
            interned, _, _ = self.sites.intern_batch(
                model_name, relation_name, np.asarray([int(row_id)], dtype=np.int64)
            )
            site = self.sites[int(interned[0])]
            site_ids.append(site.site_id)
            self._grow_site_stores(len(self.sites))
            if features is not None and self._feat_rows[site.site_id] < 0:
                self._feat_blocks.append(np.asarray(features[position])[None])
                self._feat_cat = None
                self._feat_rows[site.site_id] = self._feat_total
                self._feat_total += 1
            if not self._labels_known[site.site_id]:
                try:
                    self._labels[site.site_id] = self.prediction_for_site(site.key)
                    self._labels_known[site.site_id] = True
                except QueryError:
                    pass
        return np.asarray(site_ids, dtype=np.int64)


class TreeExecutor(Executor):
    """Executes plans with per-tuple provenance trees (golden reference)."""

    def execute(self, plan: Plan, debug: bool = False) -> QueryResult:
        runtime = TreeRuntime(self.database, debug=debug)
        if isinstance(plan, Aggregate):
            return self._execute_aggregate_reference(plan, runtime)
        batch = self._eval(plan, runtime)
        return self._finalize_spj(plan, batch, runtime)

    def _finalize_spj(
        self, plan: Plan, batch: TreeBatch, runtime: QueryRuntime
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
        return TreeQueryResult(
            relation=_result_relation(batch.take(np.asarray(alive, dtype=np.int64))),
            runtime=runtime,
            candidate_batch=batch if runtime.debug else None,
            candidate_conditions=conditions,
            output_to_candidate=alive if runtime.debug else None,
            is_aggregate=False,
        )

    def _eval_scan(self, plan: Scan, runtime: QueryRuntime) -> TreeBatch:
        relation = runtime.relation(plan.relation_name)
        conditions = [prov.TRUE] * len(relation) if runtime.debug else None
        return TreeBatch.of(
            TupleBatch.from_relation(relation, plan.effective_alias), conditions
        )

    def _eval_project(self, plan: Project, runtime: QueryRuntime) -> TreeBatch:
        batch = self._eval(plan.child, runtime)
        columns = {
            name: np.asarray(expr.eval(batch, runtime)) for expr, name in plan.items
        }
        return TreeBatch.of(
            TupleBatch(columns, batch.alias_relations, batch.alias_row_ids),
            batch.conditions,
        )

    def _apply_predicate(
        self, batch: TreeBatch, predicate: Expr, runtime: QueryRuntime
    ) -> TreeBatch:
        if not runtime.debug:
            return super()._apply_predicate(batch, predicate, runtime)
        # Tree (reference): fold the predicate symbolically per row.
        symbolic = symbolic_bool(predicate, batch, runtime)
        combined = [
            prov.and_(batch.condition(i), cond) for i, cond in enumerate(symbolic)
        ]
        keep = [i for i, cond in enumerate(combined) if not cond.is_false()]
        filtered = batch.take(np.asarray(keep, dtype=np.int64))
        return TreeBatch.of(filtered, [combined[i] for i in keep])

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
        group_infos: list[TreeGroupInfo] = []
        for key in group_order:
            members = membership[key]
            condition = prov.or_(*[cond for _, cond in members]) if members else prov.FALSE
            if not plan.group_by:
                condition = prov.TRUE  # a global aggregate row always exists
            info = TreeGroupInfo(key, condition)
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
        batch: TreeBatch,
        runtime: QueryRuntime,
    ) -> dict[int, list[prov.NumExpr]]:
        """Per-aggregate numeric provenance of each input row."""
        out: dict[int, list[prov.NumExpr]] = {}
        for position, spec in enumerate(aggregates):
            if spec.arg is None:
                continue
            out[position] = symbolic_num(spec.arg, batch, runtime)
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
