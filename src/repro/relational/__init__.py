"""Relational substrate: relations, expressions, SPJA plans, provenance, SQL.

This package implements the "Query 2.0" query processor that Rain debugs:
an in-memory SPJA engine whose WHERE/SELECT/GROUP BY clauses may embed
``model.predict(...)`` calls, with a debug mode that captures boolean and
aggregate provenance over prediction atoms as compiled node ids.
"""

from .algebra import AggSpec, Aggregate, Filter, Join, Plan, Project, Scan
from .compile import CompiledProvenance, NodePool
from .context import QueryRuntime, TupleBatch
from .executor import Executor, GroupInfo, QueryResult
from .expressions import (
    Arith,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Col,
    Const,
    Expr,
    Like,
    ModelPredict,
    col,
    eq,
    lit,
    predict,
)
from .provenance import InferenceSite, SiteRegistry
from .schema import Database, Relation
from .sql import ParsedQuery, parse, plan_sql

__all__ = [
    "AggSpec", "Aggregate", "Filter", "Join", "Plan", "Project", "Scan",
    "CompiledProvenance", "NodePool",
    "QueryRuntime", "TupleBatch", "Executor", "GroupInfo", "QueryResult",
    "Arith", "BoolAnd", "BoolNot", "BoolOr", "Cmp", "Col", "Const", "Expr",
    "Like", "ModelPredict", "col", "eq", "lit", "predict",
    "InferenceSite", "SiteRegistry",
    "Database", "Relation", "ParsedQuery", "parse", "plan_sql",
]
