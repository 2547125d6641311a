"""Test oracles: the seed implementations the production paths are pinned to.

The library ships one implementation per layer.  The seed's slower,
simpler implementations live here, verbatim where they were moved, and
only tests and benchmarks import them: ``pytest.ini`` puts ``tests/`` on
the import path, and ``tests/analysis/test_oracle_boundary.py`` keeps
``src/repro`` from importing them.

- :mod:`oracles.provenance` — the expression-tree provenance language
  (:class:`BoolExpr`/:class:`NumExpr` and their folding constructors),
  :func:`to_expr` from pool nodes to trees, and complaints read through
  trees (:func:`polynomial`, :func:`condition`, :func:`all_satisfied`);
- :mod:`oracles.executor` — :class:`TreeExecutor`, per-tuple provenance
  trees, with :mod:`oracles.expressions` for the tree-building forms of
  the plan expressions;
- :mod:`oracles.relax` and :mod:`oracles.objective` — the per-tree
  relaxation interpreter and :class:`InterpretedObjective`;
- :mod:`oracles.lowering` — tree → compiled-pool lowering;
- :mod:`oracles.encode` — :class:`TreeEncoder`, TwoStep's ILP built by
  recursion over materialized provenance trees;
- :mod:`oracles.solver` — branch & bound over per-call ``linprog`` LPs.

:func:`tree_reference` routes a whole Rain session through the oracles.
"""

from __future__ import annotations

from repro.core import rain, rankers
from repro.relational.executor import Executor

from .encode import TreeEncoder
from .executor import TreeExecutor, TreeRuntime
from .objective import InterpretedObjective, batched_case_objectives
from .provenance import all_satisfied
from .relax import Relaxer
from .solver import enumerate_optima_reference, solve_reference

__all__ = [
    "InterpretedObjective",
    "Relaxer",
    "TreeEncoder",
    "TreeExecutor",
    "TreeRuntime",
    "enumerate_optima_reference",
    "solve_reference",
    "tree_reference",
]


def _tree_execute(self, plan, debug: bool = False):
    return TreeExecutor(self.database).execute(plan, debug=debug)


def tree_reference(monkeypatch, linprog: bool = False) -> None:
    """Route the Rain loop's execute, encode, relax and drain layers through the oracles.

    Every ``Executor.execute`` call runs on :class:`TreeExecutor` (tree
    lineage, never memoized), TwoStep (and ``auto``'s method choice)
    encodes with :class:`TreeEncoder`, Holistic's objectives are
    :class:`InterpretedObjective`, and the complaint drain walks trees
    (:func:`oracles.provenance.all_satisfied`); with ``linprog=True``
    TwoStep's optimum enumeration runs on the ``linprog`` branch & bound
    as well.
    """
    monkeypatch.setattr(Executor, "execute", _tree_execute)
    monkeypatch.setattr(rain, "all_satisfied", all_satisfied)
    monkeypatch.setattr(rankers, "make_encoder", TreeEncoder)
    monkeypatch.setattr(rain, "make_encoder", TreeEncoder)
    monkeypatch.setattr(rankers, "batched_case_objectives", batched_case_objectives)
    if linprog:
        monkeypatch.setattr(rankers, "enumerate_optima", enumerate_optima_reference)
