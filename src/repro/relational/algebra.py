"""Logical plan nodes for the supported SPJA fragment.

Plans are small immutable trees.  ``Scan``/``Filter``/``Join``/``Project``
cover SP and SPJ queries; ``Aggregate`` covers the A in SPJA, including
model predictions as GROUP BY keys (the paper's Q5) and inside aggregate
arguments (Q1, Q6, Q7).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..errors import QueryError
from .expressions import Expr

AGG_FUNCS = ("count", "sum", "avg")


@dataclass(frozen=True)
class Plan:
    """Base class for plan nodes."""


@dataclass(frozen=True)
class Scan(Plan):
    """Read a base relation under an alias."""

    relation_name: str
    alias: str | None = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.relation_name


@dataclass(frozen=True)
class Filter(Plan):
    """Keep tuples satisfying ``predicate``."""

    child: Plan
    predicate: Expr


@dataclass(frozen=True)
class Join(Plan):
    """Inner join (``condition=None`` means cross product)."""

    left: Plan
    right: Plan
    condition: Expr | None = None


@dataclass(frozen=True)
class Project(Plan):
    """Evaluate expressions into named output columns."""

    child: Plan
    items: tuple[tuple[Expr, str], ...]

    def __init__(self, child: Plan, items: Sequence[tuple[Expr, str]]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "items", tuple(items))
        if not self.items:
            raise QueryError("projection needs at least one item")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``func(arg) AS name``.

    ``arg`` is ``None`` for COUNT(*).
    """

    func: str
    arg: Expr | None
    name: str

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise QueryError(
                f"unsupported aggregate {self.func!r}; supported: {AGG_FUNCS}"
            )
        if self.func != "count" and self.arg is None:
            raise QueryError(f"{self.func.upper()} requires an argument")


@dataclass(frozen=True)
class Aggregate(Plan):
    """GROUP BY + aggregation.  Empty ``group_by`` is a global aggregate."""

    child: Plan
    group_by: tuple[tuple[Expr, str], ...] = field(default=())
    aggregates: tuple[AggSpec, ...] = field(default=())

    def __init__(
        self,
        child: Plan,
        group_by: Sequence[tuple[Expr, str]] = (),
        aggregates: Sequence[AggSpec] = (),
    ) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "group_by", tuple(group_by))
        object.__setattr__(self, "aggregates", tuple(aggregates))
        if not self.aggregates:
            raise QueryError("aggregate node needs at least one aggregate")


def plan_fingerprint(plan: Plan) -> str:
    """Canonical structural fingerprint of a plan.

    Two plans share a fingerprint exactly when they are structurally
    identical (same node tree, same expressions, same aliases), even if
    they are distinct objects — e.g. the same SQL text parsed twice.  The
    executor keys its lineage memo on this, so complaint cases over the
    same query share one :class:`~repro.relational.compile.NodePool` for
    the whole session.

    Expressions contribute through their ``repr``, which every
    :class:`~repro.relational.expressions.Expr` subclass defines to spell
    out all of its distinguishing fields.
    """
    if isinstance(plan, Scan):
        return f"Scan({plan.relation_name!r},{plan.alias!r})"
    if isinstance(plan, Filter):
        return f"Filter({plan_fingerprint(plan.child)},{plan.predicate!r})"
    if isinstance(plan, Join):
        return (
            f"Join({plan_fingerprint(plan.left)},"
            f"{plan_fingerprint(plan.right)},{plan.condition!r})"
        )
    if isinstance(plan, Project):
        items = ";".join(f"{expr!r} AS {name!r}" for expr, name in plan.items)
        return f"Project({plan_fingerprint(plan.child)},[{items}])"
    if isinstance(plan, Aggregate):
        keys = ";".join(f"{expr!r} AS {name!r}" for expr, name in plan.group_by)
        aggs = ";".join(
            f"{spec.func}({spec.arg!r}) AS {spec.name!r}" for spec in plan.aggregates
        )
        return f"Aggregate({plan_fingerprint(plan.child)},[{keys}],[{aggs}])"
    raise QueryError(f"unknown plan node {type(plan).__name__}")


def plan_relations(plan: Plan) -> list[Scan]:
    """All Scan leaves of a plan, in left-to-right order."""
    if isinstance(plan, Scan):
        return [plan]
    if isinstance(plan, Filter):
        return plan_relations(plan.child)
    if isinstance(plan, Join):
        return plan_relations(plan.left) + plan_relations(plan.right)
    if isinstance(plan, Project):
        return plan_relations(plan.child)
    if isinstance(plan, Aggregate):
        return plan_relations(plan.child)
    raise QueryError(f"unknown plan node {type(plan).__name__}")
