"""Complaints: the user's declarative error specifications (Definition 3.1).

Three complaint forms are supported:

- :class:`ValueComplaint` — "this aggregate output value should be
  ``op value``" (``=``, ``<=``, ``>=``).  Targets a cell of an aggregate
  query output, addressed either by output row index or by group key (the
  latter also reaches *currently empty* groups).
- :class:`TupleComplaint` — "this output tuple should not exist" (join /
  selection outputs, or an aggregated group that should be empty).
- :class:`PredictionComplaint` — a complaint on an *intermediate* result:
  one model prediction is wrong and should be ``label``.  These are the
  paper's unambiguous "point complaints" (Sections 6.4, 6.6), equivalent
  to the labeled mispredictions consumed by classic influence analysis.

Complaints are attached to a query via :class:`ComplaintCase`; Rain accepts
multiple cases, possibly over different queries sharing the model
(Section 6.5's multi-query experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import ComplaintError
from ..relational.compile import FALSE_NODE
from ..relational.executor import QueryResult

VALUE_OPS = ("=", "<=", ">=")


@dataclass(frozen=True)
class ValueComplaint:
    """An aggregate output cell should be ``op value``."""

    column: str
    op: str
    value: float
    row_index: int | None = None
    group_key: tuple | None = None

    def __post_init__(self) -> None:
        if self.op not in VALUE_OPS:
            raise ComplaintError(f"value complaint op must be in {VALUE_OPS}")
        if (self.row_index is None) == (self.group_key is None):
            raise ComplaintError(
                "specify exactly one of row_index / group_key for a value complaint"
            )

    def cell_node(self, result: QueryResult) -> int:
        """Node id of the complained-about cell's provenance polynomial."""
        return result.cell_node_for(
            self.column, row_index=self.row_index, group_key=self.group_key
        )

    def current_value(self, result: QueryResult) -> float:
        return float(_node_values(result, [self.cell_node(result)])[0])

    def satisfied_by(self, value: float) -> bool:
        """Whether a cell that evaluates to ``value`` resolves the complaint."""
        if self.op == "=":
            return bool(np.isclose(value, self.value))
        if self.op == "<=":
            return bool(value <= self.value + 1e-9)
        return bool(value >= self.value - 1e-9)

    def is_satisfied(self, result: QueryResult) -> bool:
        return self.satisfied_by(self.current_value(result))


@dataclass(frozen=True)
class TupleComplaint:
    """An output tuple should not be in the result.

    The tuple may be addressed three ways:

    - ``row_index``: position in the *current* concrete output.  Fragile
      across retraining (the output changes), so mainly for one-shot use.
    - ``group_key``: an aggregated group that should not exist.
    - ``lineage``: a mapping ``alias -> base row id`` pinning the tuple by
      the queried records it derives from.  This is stable across the
      train-rank-fix loop — if the tuple later disappears from the output,
      the complaint is simply satisfied — and is how the MNIST join
      experiments of Section 6.3 address join rows.
    """

    row_index: int | None = None
    group_key: tuple | None = None
    lineage: tuple | None = None  # tuple of (alias, row_id) pairs

    def __post_init__(self) -> None:
        provided = sum(
            target is not None
            for target in (self.row_index, self.group_key, self.lineage)
        )
        if provided != 1:
            raise ComplaintError(
                "specify exactly one of row_index / group_key / lineage "
                "for a tuple complaint"
            )
        if self.lineage is not None:
            object.__setattr__(
                self,
                "lineage",
                tuple(sorted((str(a), int(r)) for a, r in dict(self.lineage).items())),
            )

    @classmethod
    def for_lineage(cls, **alias_row_ids: int) -> "TupleComplaint":
        """``TupleComplaint.for_lineage(L=3, R=7)`` — tuple from L row 3 ⋈ R row 7."""
        return cls(lineage=tuple(alias_row_ids.items()))

    def target(self, result: QueryResult) -> tuple[str, object]:
        """What the complaint addresses in ``result``.

        ``("group", GroupInfo)`` for ``group_key``, ``("candidate", index)``
        for ``lineage`` (index into the candidate batch, ``None`` when the
        tuple is not even a candidate: deterministically filtered, it can
        never exist and the complaint is vacuously satisfied), and
        ``("row", row_index)`` otherwise.
        """
        if self.group_key is not None:
            if result.groups is None:
                raise ComplaintError("group_key complaint on a non-aggregate result")
            for group in result.groups:
                if group.key == self.group_key:
                    return "group", group
            raise ComplaintError(f"no group with key {self.group_key!r}")
        if self.lineage is not None:
            batch = result.candidate_batch
            if batch is None:
                raise ComplaintError("lineage complaints need a debug-mode result")
            wanted = dict(self.lineage)
            unknown = set(wanted) - set(batch.alias_row_ids)
            if unknown:
                raise ComplaintError(
                    f"lineage aliases {sorted(unknown)} not in the query "
                    f"(available: {sorted(batch.alias_row_ids)})"
                )
            mask = np.ones(len(batch), dtype=bool)
            for alias, row_id in wanted.items():
                mask &= np.asarray(batch.alias_row_ids[alias]) == row_id
            matches = np.flatnonzero(mask)
            return "candidate", int(matches[0]) if matches.size else None
        return "row", self.row_index

    def condition_node(self, result: QueryResult) -> int:
        """Node id of the existence condition (FALSE for a non-candidate)."""
        kind, target = self.target(result)
        if kind == "row":
            return int(result.tuple_condition_node(target))
        if kind == "group":
            return int(target.condition_node)
        if target is None:
            return FALSE_NODE
        return int(result.candidate_cond_nodes[target])

    def satisfied_by(self, value: float) -> bool:
        """Whether an existence condition that evaluates to ``value`` (0/1)
        resolves the complaint: the tuple must not exist."""
        return value == 0.0

    def is_satisfied(self, result: QueryResult) -> bool:
        node = self.condition_node(result)
        return self.satisfied_by(float(_node_values(result, [node])[0]))


@dataclass(frozen=True)
class PredictionComplaint:
    """An intermediate prediction is wrong: site should be ``label``.

    The site is addressed by the base relation + row id of the queried
    record (how a user would point at it), and resolved against the
    execution's site registry.
    """

    relation_name: str
    row_id: int
    label: Union[int, str]
    model_name: str | None = None

    def site_id(self, result: QueryResult) -> int:
        for site in result.runtime.sites:
            if (
                site.relation_name == self.relation_name
                and site.row_id == self.row_id
                and (self.model_name is None or site.model_name == self.model_name)
            ):
                return site.site_id
        raise ComplaintError(
            f"no inference site for ({self.relation_name!r}, row {self.row_id})"
        )

    def is_satisfied(self, result: QueryResult) -> bool:
        site = result.runtime.sites[self.site_id(result)]
        return result.runtime.prediction_for_site(site.key) == self.label


Complaint = Union[ValueComplaint, TupleComplaint, PredictionComplaint]


@dataclass
class ComplaintCase:
    """One query (SQL text or plan) with the complaints raised against it."""

    query: object  # SQL string or a Plan
    complaints: list

    def __post_init__(self) -> None:
        if not self.complaints:
            raise ComplaintError("a complaint case needs at least one complaint")


def _node_values(result: QueryResult, nodes) -> np.ndarray:
    """Values of pool ``nodes`` under ``result``'s current labels."""
    program = result.program(np.asarray(nodes, dtype=np.int64))
    return program.evaluate_labels(result.runtime.site_label_ids(result.pool))


def all_satisfied(case_results: list[tuple[ComplaintCase, QueryResult]]) -> bool:
    """True when every complaint in every case is resolved.

    All complaint nodes over one result are evaluated in a single
    vectorized forward pass (the result's
    :meth:`~repro.relational.executor.QueryResult.program` over the
    already-frozen pool, built once per lineage and node set, fed the
    dense site-label array), and each value is tested with its
    complaint's ``satisfied_by``.  A prediction complaint reads its site's
    label instead.
    """
    grouped: dict[int, tuple[QueryResult, list[int], list[Complaint]]] = {}
    for case, result in case_results:
        for complaint in case.complaints:
            if isinstance(complaint, PredictionComplaint):
                if not complaint.is_satisfied(result):
                    return False
                continue
            if isinstance(complaint, ValueComplaint):
                node = complaint.cell_node(result)
            else:
                node = complaint.condition_node(result)
            entry = grouped.setdefault(id(result), (result, [], []))
            entry[1].append(node)
            entry[2].append(complaint)
    for result, nodes, complaints in grouped.values():
        for value, complaint in zip(_node_values(result, nodes), complaints):
            if not complaint.satisfied_by(float(value)):
                return False
    return True
