"""Execution context shared by expressions and plan operators.

Intermediate results flow through the executor as :class:`TupleBatch`
objects: a set of qualified columns (``alias.column``) plus, per aliased
base relation, the base row ids each output tuple derives from.  In debug
mode each tuple additionally carries its boolean existence condition —
either a tree (:class:`~repro.relational.provenance.BoolExpr`, the golden
reference path) or a node id into the runtime's shared
:class:`~repro.relational.compile.NodePool` (the compiled path, one int64
per tuple).

:class:`QueryRuntime` holds everything that outlives one batch: the model
registry, the inference-site registry, and the per-site prediction cache.
All caches are columnar — predictions, site features, and site labels live
in dense arrays keyed by base row / site id so that batch operations never
loop over tuples.  It also records which relation and model objects an
execution read, so a memoized lineage can tell when its inputs were
replaced, and :meth:`QueryRuntime.relabeled` re-labels a finished
execution's sites under the current models without re-executing it.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import QueryError, SchemaError
from ..utils import grow_array
from .compile import NodePool, TRUE_NODE
from .provenance import TRUE, BoolExpr, SiteRegistry
from .schema import Database


class QueryRuntime:
    """Per-execution state: models, inference sites, prediction cache."""

    def __init__(
        self, database: Database, debug: bool = False, provenance: str = "compiled"
    ) -> None:
        if provenance not in ("compiled", "tree"):
            raise QueryError(
                f"provenance must be 'compiled' or 'tree', got {provenance!r}"
            )
        self.database = database
        self.debug = debug
        self.provenance = provenance
        self.sites = SiteRegistry()
        self.pool: NodePool | None = (
            NodePool() if (debug and provenance == "compiled") else None
        )
        # (model_name, relation_name) -> dense row_id-indexed caches.
        self._pred_known: dict[tuple[str, str], np.ndarray] = {}
        self._pred_labels: dict[tuple[str, str], np.ndarray] = {}
        # site-id-indexed stores (grown on demand).
        self._feat_rows = np.full(0, -1, dtype=np.int64)  # site -> feature row
        self._feat_blocks: list[np.ndarray] = []
        self._feat_total = 0
        self._feat_cat: np.ndarray | None = None
        self._site_feat: np.ndarray | None = None  # site_features(), once built
        self._labels = np.empty(0, dtype=object)  # site -> predicted label
        self._labels_known = np.zeros(0, dtype=bool)
        # ("relation" | "model", name) -> the object this execution read.
        self.reads: dict[tuple[str, str], object] = {}

    def relation(self, relation_name: str):
        relation = self.database.relation(relation_name)
        self.reads[("relation", relation_name)] = relation
        return relation

    def model(self, model_name: str):
        model = self.database.model(model_name)
        self.reads[("model", model_name)] = model
        return model

    def model_classes(self, model_name: str) -> list:
        model = self.model(model_name)
        try:
            return list(model.classes)
        except AttributeError as exc:
            raise QueryError(
                f"model {model_name!r} does not expose a .classes attribute"
            ) from exc

    # -- prediction cache ---------------------------------------------------------

    def _pred_store(
        self, model_name: str, relation_name: str, min_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        key = (model_name, relation_name)
        known = self._pred_known.get(key)
        if known is None:
            known = np.zeros(0, dtype=bool)
            self._pred_labels[key] = np.empty(0, dtype=object)
        self._pred_known[key] = known = grow_array(known, min_size, fill=False)
        self._pred_labels[key] = grow_array(
            self._pred_labels[key], min_size, fill=None
        )
        return known, self._pred_labels[key]

    def predict(
        self,
        model_name: str,
        relation_name: str,
        row_ids: np.ndarray,
        features: np.ndarray,
    ) -> np.ndarray:
        """Predict labels for base rows, caching per (model, relation, row).

        The cache guarantees that the same base row always receives the same
        prediction within one execution, and that debug-mode inference sites
        are consistent with the concrete predictions.  Lookups and inserts
        are dense array operations; the model is invoked once per batch on
        the not-yet-cached rows only.
        """
        model = self.model(model_name)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size == 0:
            return np.asarray([])
        known, labels = self._pred_store(
            model_name, relation_name, int(row_ids.max()) + 1
        )
        if self.provenance == "tree":
            return self._predict_reference(model, known, labels, row_ids, features)
        missing = ~known[row_ids]
        if np.any(missing):
            positions = np.flatnonzero(missing)
            unique_rows, first = np.unique(row_ids[positions], return_index=True)
            take = positions[first]
            predicted = model.predict(features[take])
            labels[unique_rows] = np.asarray(predicted, dtype=object)
            known[unique_rows] = True
        # Re-infer the natural dtype (str/int) the way per-row caching did.
        return np.asarray(labels[row_ids].tolist())

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

    # -- inference sites ----------------------------------------------------------

    def _grow_site_stores(self, n_sites: int) -> None:
        self._feat_rows = grow_array(self._feat_rows, n_sites, fill=-1)
        self._labels = grow_array(self._labels, n_sites, fill=None)
        self._labels_known = grow_array(self._labels_known, n_sites, fill=False)

    def intern_sites(
        self,
        model_name: str,
        relation_name: str,
        row_ids: np.ndarray,
        features: np.ndarray | None = None,
    ) -> np.ndarray:
        """Intern inference sites for base rows; returns site ids per row.

        When ``features`` is given, the per-site feature rows are recorded so
        influence analysis can later rebuild the model inputs of every site.
        Cached predictions (populated by :meth:`predict`) are copied onto the
        new sites so the current assignment is always one array gather away.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if self.provenance == "tree":
            return self._intern_sites_reference(
                model_name, relation_name, row_ids, features
            )
        site_ids, new_rows, first_new = self.sites.intern_batch(
            model_name, relation_name, row_ids
        )
        if new_rows.size:
            self._grow_site_stores(len(self.sites))
            new_sites = np.arange(first_new, first_new + new_rows.size)
            if features is not None:
                unique_rows, first = np.unique(row_ids, return_index=True)
                take = first[np.searchsorted(unique_rows, new_rows)]
                self._feat_blocks.append(np.asarray(features)[take])
                self._feat_cat = None
                self._feat_rows[new_sites] = self._feat_total + np.arange(
                    new_rows.size
                )
                self._feat_total += new_rows.size
            key = (model_name, relation_name)
            known = self._pred_known.get(key)
            if known is not None:
                in_store = new_rows < known.shape[0]
                have = np.zeros(new_rows.shape[0], dtype=bool)
                have[in_store] = known[new_rows[in_store]]
                self._labels[new_sites[have]] = self._pred_labels[key][
                    new_rows[have]
                ]
                self._labels_known[new_sites[have]] = True
        return site_ids

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
            site = self.sites.intern(model_name, relation_name, int(row_id))
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

    def features_for_sites(self, site_ids) -> np.ndarray:
        """Stacked feature array for the given site ids."""
        site_ids = np.asarray(list(site_ids), dtype=np.int64)
        in_range = (site_ids >= 0) & (site_ids < self._feat_rows.shape[0])
        rows = np.full(site_ids.shape[0], -1, dtype=np.int64)
        rows[in_range] = self._feat_rows[site_ids[in_range]]
        if np.any(rows < 0):
            missing = site_ids[rows < 0][0]
            raise QueryError(f"no recorded features for inference site {int(missing)}")
        if self._feat_cat is None:
            self._feat_cat = (
                np.concatenate(self._feat_blocks, axis=0)
                if self._feat_blocks
                else np.zeros((0, 0))
            )
        return self._feat_cat[rows]

    def site_features(self) -> np.ndarray:
        """Every site's recorded features in site-id order, read-only.

        Built once per set of sites and shared, not copied: the relabeled
        runtimes of a memoized lineage and the relaxed objectives over them
        all read this one array, so an in-place write raises.  A site's
        features never change once recorded, so only new sites make it
        out of date.
        """
        n = len(self.sites)
        if self._site_feat is None or self._site_feat.shape[0] != n:
            features = self.features_for_sites(np.arange(n))
            features.flags.writeable = False
            self._site_feat = features
        return self._site_feat

    def prediction_for_site(self, site_key: tuple[str, str, int]):
        model_name, relation_name, row_id = site_key
        known = self._pred_known.get((model_name, relation_name))
        if known is not None and 0 <= row_id < known.shape[0] and known[row_id]:
            return self._pred_labels[(model_name, relation_name)][row_id]
        raise QueryError(f"no cached prediction for site {site_key}")

    def site_labels(self) -> np.ndarray:
        """Object array of the current predicted class per site id."""
        n = len(self.sites)
        if not np.all(self._labels_known[:n]):
            missing = int(np.flatnonzero(~self._labels_known[:n])[0])
            raise QueryError(
                f"no cached prediction for site {self.sites[missing].key}"
            )
        return self._labels[:n]

    def site_label_ids(self, pool: NodePool) -> np.ndarray:
        """Dense ``site -> pool label id`` array for compiled evaluation."""
        labels = self.site_labels()
        out = np.empty(labels.shape[0], dtype=np.int64)
        if labels.shape[0] == 0:
            return out
        # Per distinct class one vectorized comparison; labels the pool has
        # never seen cannot match any atom, so any sentinel id works.
        out[:] = -3
        for label_id, label in enumerate(pool.labels):
            out[labels == label] = label_id
        return out

    def current_assignment(self) -> dict[int, object]:
        """``site_id -> predicted class`` under the current model."""
        return dict(enumerate(self.site_labels()))

    def relabeled(self) -> "QueryRuntime":
        """A runtime over this one's lineage, labelled by the current models.

        The copy shares the site registry, the node pool and the
        :meth:`site_features` array (by reference, not copied), and gets
        its own prediction and site-label stores: one ``model.predict`` per
        run of sites (the rows one ``intern_sites`` call added), over the
        features recorded then.
        Those are the rows and the feature order a fresh execution would
        predict, so the labels equal a re-execution's.
        """
        n = len(self.sites)
        features = self.site_features()
        runtime = QueryRuntime(self.database, debug=self.debug)
        runtime.sites = self.sites
        runtime.pool = self.pool
        runtime._feat_rows = np.arange(n, dtype=np.int64)
        runtime._feat_blocks = [features]
        runtime._feat_total = n
        runtime._feat_cat = features
        runtime._site_feat = features
        runtime._labels = np.empty(n, dtype=object)
        runtime._labels_known = np.ones(n, dtype=bool)
        for start, model_name, relation_name, rows in self.sites.runs():
            stop = start + rows.shape[0]
            predicted = np.asarray(
                runtime.model(model_name).predict(features[start:stop]), dtype=object
            )
            runtime._labels[start:stop] = predicted
            known, labels = runtime._pred_store(
                model_name, relation_name, int(rows.max()) + 1
            )
            known[rows] = True
            labels[rows] = predicted
        return runtime


class TupleBatch:
    """A batch of intermediate tuples with lineage back to base relations.

    Attributes:
        columns: qualified column name (``alias.column``) -> value array.
        alias_relations: alias -> underlying base relation name.
        alias_row_ids: alias -> int64 array of base row ids (one per tuple).
        conditions: per-tuple existence condition trees (tree debug mode),
            or ``None``.  In compiled debug mode this property materializes
            trees from ``cond_nodes`` on first access.
        cond_nodes: per-tuple condition node ids into ``pool`` (compiled
            debug mode), or ``None``.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        alias_relations: Mapping[str, str],
        alias_row_ids: Mapping[str, np.ndarray],
        conditions: list[BoolExpr] | None = None,
        cond_nodes: np.ndarray | None = None,
        pool: NodePool | None = None,
    ) -> None:
        self.columns = dict(columns)
        self.alias_relations = dict(alias_relations)
        self.alias_row_ids = {
            alias: np.asarray(ids, dtype=np.int64)
            for alias, ids in alias_row_ids.items()
        }
        lengths = {array.shape[0] for array in self.columns.values()}
        lengths |= {array.shape[0] for array in self.alias_row_ids.values()}
        if len(lengths) > 1:
            raise SchemaError(f"inconsistent batch column lengths: {lengths}")
        self._n_rows = lengths.pop() if lengths else 0
        if conditions is not None and len(conditions) != self._n_rows:
            raise SchemaError(
                f"{len(conditions)} conditions for {self._n_rows} tuples"
            )
        self._conditions = conditions
        if cond_nodes is not None:
            cond_nodes = np.asarray(cond_nodes, dtype=np.int64)
            if cond_nodes.shape[0] != self._n_rows:
                raise SchemaError(
                    f"{cond_nodes.shape[0]} condition nodes for {self._n_rows} tuples"
                )
            if pool is None:
                raise SchemaError("cond_nodes requires the owning NodePool")
        self.cond_nodes = cond_nodes
        self.pool = pool

    def __len__(self) -> int:
        return self._n_rows

    @property
    def conditions(self) -> list[BoolExpr] | None:
        if self._conditions is None and self.cond_nodes is not None:
            self._conditions = self.pool.to_exprs(self.cond_nodes)
        return self._conditions

    @property
    def column_names(self) -> list[str]:
        return list(self.columns.keys())

    def resolve(self, name: str) -> str:
        """Resolve a possibly-unqualified column name to its qualified form."""
        if name in self.columns:
            return name
        matches = [
            qualified
            for qualified in self.columns
            if qualified.split(".", 1)[-1] == name
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise QueryError(
                f"unknown column {name!r}; available: {sorted(self.columns)}"
            )
        raise QueryError(f"ambiguous column {name!r}: matches {sorted(matches)}")

    def values(self, name: str) -> np.ndarray:
        return self.columns[self.resolve(name)]

    def alias_of_column(self, name: str) -> str:
        qualified = self.resolve(name)
        return qualified.split(".", 1)[0]

    def take(self, indices: np.ndarray) -> "TupleBatch":
        indices = np.asarray(indices, dtype=np.int64)
        columns = {name: values[indices] for name, values in self.columns.items()}
        alias_row_ids = {
            alias: ids[indices] for alias, ids in self.alias_row_ids.items()
        }
        conditions = None
        cond_nodes = None
        if self.cond_nodes is not None:
            cond_nodes = self.cond_nodes[indices]
        elif self._conditions is not None:
            conditions = [self._conditions[int(i)] for i in indices]
        return TupleBatch(
            columns,
            self.alias_relations,
            alias_row_ids,
            conditions,
            cond_nodes=cond_nodes,
            pool=self.pool,
        )

    def with_conditions(self, conditions: list[BoolExpr]) -> "TupleBatch":
        return TupleBatch(
            self.columns, self.alias_relations, self.alias_row_ids, conditions
        )

    def with_cond_nodes(self, cond_nodes: np.ndarray) -> "TupleBatch":
        return TupleBatch(
            self.columns,
            self.alias_relations,
            self.alias_row_ids,
            None,
            cond_nodes=cond_nodes,
            pool=self.pool,
        )

    def condition(self, index: int) -> BoolExpr:
        if self.cond_nodes is not None:
            return self.pool.to_expr(int(self.cond_nodes[index]))
        if self._conditions is None:
            return TRUE
        return self._conditions[index]

    @classmethod
    def from_relation(
        cls,
        relation,
        alias: str,
        debug: bool = False,
        pool: NodePool | None = None,
    ) -> "TupleBatch":
        columns = {
            f"{alias}.{name}": values for name, values in relation.columns.items()
        }
        conditions: list[BoolExpr] | None = None
        cond_nodes: np.ndarray | None = None
        if debug and pool is not None:
            cond_nodes = np.full(len(relation), TRUE_NODE, dtype=np.int64)
        elif debug:
            conditions = [TRUE] * len(relation)
        return cls(
            columns,
            {alias: relation.name},
            {alias: relation.row_ids},
            conditions,
            cond_nodes=cond_nodes,
            pool=pool,
        )

    @classmethod
    def cross_product(cls, left: "TupleBatch", right: "TupleBatch") -> "TupleBatch":
        """All pairs of left/right tuples (the executor filters afterwards)."""
        overlap = set(left.alias_relations) & set(right.alias_relations)
        if overlap:
            raise QueryError(f"duplicate aliases across join sides: {sorted(overlap)}")
        n_left, n_right = len(left), len(right)
        left_index = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
        right_index = np.tile(np.arange(n_right, dtype=np.int64), n_left)
        return cls.paired(left, right, left_index, right_index)

    @classmethod
    def paired(
        cls,
        left: "TupleBatch",
        right: "TupleBatch",
        left_index: np.ndarray,
        right_index: np.ndarray,
    ) -> "TupleBatch":
        """Combine selected (left, right) tuple pairs into one batch."""
        from .provenance import and_  # local import to avoid cycle at module load

        columns: dict[str, np.ndarray] = {}
        for name, values in left.columns.items():
            columns[name] = values[left_index]
        for name, values in right.columns.items():
            columns[name] = values[right_index]
        alias_relations = {**left.alias_relations, **right.alias_relations}
        alias_row_ids: dict[str, np.ndarray] = {}
        for alias, ids in left.alias_row_ids.items():
            alias_row_ids[alias] = ids[left_index]
        for alias, ids in right.alias_row_ids.items():
            alias_row_ids[alias] = ids[right_index]
        conditions = None
        cond_nodes = None
        pool = left.pool or right.pool
        if left.cond_nodes is not None and right.cond_nodes is not None:
            cond_nodes = pool.and2(
                left.cond_nodes[left_index], right.cond_nodes[right_index]
            )
        elif left._conditions is not None and right._conditions is not None:
            conditions = [
                and_(left._conditions[int(li)], right._conditions[int(ri)])
                for li, ri in zip(left_index, right_index)
            ]
        return cls(
            columns,
            alias_relations,
            alias_row_ids,
            conditions,
            cond_nodes=cond_nodes,
            pool=pool,
        )


def empty_like(batch: TupleBatch) -> TupleBatch:
    """An empty batch with the same schema as ``batch``."""
    return batch.take(np.array([], dtype=np.int64))
