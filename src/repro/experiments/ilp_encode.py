"""Array-lowered ILP encoding vs the tree-walking reference encoder.

The fig6-shaped join workload (model inference on both sides of an
L ⋈ R equi-join, AND/OR predicate trees, COUNT/SUM/AVG aggregates) is
where TwoStep's encode step used to dominate: the tree encoder first
materializes every provenance expression out of the compiled NodePool
and then walks it node by Python node, allocating aux variables and
emitting linking rows one ``add_constraint`` call at a time.  The
compiled encoder (:class:`repro.ilp.CompiledILPEncoder`) reads the
opcode/CSR arrays directly — bulk aux-variable blocks, vectorized CSR
constraint blocks, and cross-complaint aux reuse keyed on stable pool
node ids.

For each scenario this experiment re-executes the plan to get a fresh
result (so neither path inherits the other's materialization caches),
times both encoders best-of-N, and verifies the compiled program is
*identical* to the tree program — same variable count, objective,
constraint rows and coefficient order (names aside), and same fixed
variables.  Branch & bound is a pure function of the program, so
identical programs enumerate the same optima in the same order; the
enumeration itself is pinned by the ILP encoder tests.
"""

from __future__ import annotations

import time

import numpy as np

from ..complaints import TupleComplaint, ValueComplaint
from ..ilp import CompiledILPEncoder, TiresiasEncoder
from ..relational import (
    Aggregate,
    AggSpec,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Col,
    Const,
    Database,
    Executor,
    Filter,
    Join,
    ModelPredict,
    Relation,
    Scan,
)
from .common import ExperimentResult


def build_join_database(
    n_left: int = 48, n_right: int = 32, n_keys: int = 8, seed: int = 0
) -> Database:
    """An L ⋈ R fig6-style database with a trained binary model."""
    from ..ml import LogisticRegression

    rng = np.random.default_rng(seed)
    n, d = 80, 4
    X = rng.normal(size=(n, d))
    w = np.asarray([1.5, -2.0, 0.5, 0.0])
    y = (X @ w + 0.2 * rng.normal(size=n) > 0).astype(int)
    model = LogisticRegression((0, 1), n_features=d, l2=1e-2)
    model.fit(X, y, warm_start=False)

    db = Database()
    db.add_relation(
        Relation(
            "L",
            {
                "features": rng.normal(size=(n_left, d)),
                "key": rng.integers(0, n_keys, size=n_left),
            },
        )
    )
    db.add_relation(
        Relation(
            "R",
            {
                "features": rng.normal(size=(n_right, d)),
                "key": rng.integers(0, n_keys, size=n_right),
                "weight": rng.uniform(0.5, 2.5, size=n_right),
            },
        )
    )
    db.add_model("m", model)
    return db


def _random_predicate(rng: np.random.Generator, depth: int):
    if depth == 0:
        leaf = int(rng.integers(4))
        if leaf == 0:
            return Cmp(
                "=", ModelPredict("m", Col("L.features")), Const(int(rng.integers(2)))
            )
        if leaf == 1:
            return Cmp(
                "=", ModelPredict("m", Col("R.features")), Const(int(rng.integers(2)))
            )
        if leaf == 2:
            return Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            )
        return Cmp("<", Col("R.weight"), Const(float(rng.uniform(1.0, 2.0))))
    children = [
        _random_predicate(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))
    ]
    kind = int(rng.integers(3))
    if kind == 0:
        return BoolAnd(children)
    if kind == 1:
        return BoolOr(children)
    return BoolNot(children[0])


def _filtered_join(rng: np.random.Generator, depth: int):
    joined = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
    predicate = BoolAnd(
        [
            Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            ),
            _random_predicate(rng, depth),
        ]
    )
    return Filter(joined, predicate)


def build_scenarios(seed: int = 0, depth: int = 4):
    """(name, plan, complaints_fn) triples spanning the complaint shapes."""
    rng = np.random.default_rng(seed)

    def selection_complaints(result):
        n = len(result.relation)
        return [TupleComplaint(row_index=i) for i in range(min(4, n))]

    def count_complaints(result):
        current = float(result.relation.column("count")[0])
        return [
            ValueComplaint(
                column="count", op="<=", value=max(current - 1.0, 0.0), row_index=0
            )
        ]

    def grouped_complaints(result):
        out = []
        for row in range(min(4, len(result.relation))):
            count = float(result.relation.column("count")[row])
            total = float(result.relation.column("total")[row])
            mean = float(result.relation.column("mean")[row])
            out.append(
                ValueComplaint(
                    column="count", op="<=", value=count - 1.0, row_index=row
                )
            )
            out.append(
                ValueComplaint(
                    column="total", op=">=", value=0.5 * total, row_index=row
                )
            )
            out.append(
                ValueComplaint(
                    column="mean", op="<=", value=mean + 0.1, row_index=row
                )
            )
        return out

    selection = _filtered_join(rng, depth)
    count = Aggregate(
        _filtered_join(rng, depth), (), [AggSpec("count", None, "count")]
    )
    grouped = Aggregate(
        _filtered_join(rng, depth),
        ((Col("L.key"), "key"),),
        [
            AggSpec("count", None, "count"),
            AggSpec("sum", Col("R.weight"), "total"),
            AggSpec("avg", Col("R.weight"), "mean"),
        ],
    )
    return [
        ("selection", selection, selection_complaints),
        ("count", count, count_complaints),
        ("grouped_sum_avg", grouped, grouped_complaints),
    ]


def _program_signature(program):
    return (
        program.n_vars,
        tuple(sorted(program.objective.items())),
        program.objective_constant,
        tuple(
            (constraint.sense, constraint.rhs, tuple(constraint.coeffs))
            for constraint in program.constraints
        ),
        tuple(sorted(program.fixed.items())),
    )


def run(
    n_left: int = 240,
    n_right: int = 160,
    n_keys: int = 8,
    depth: int = 4,
    rounds: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Tree vs compiled encode wall clock, dedup rates, and program parity.

    Each timing round re-executes the plan so every encode starts from a
    fresh result: the tree path pays its real cost (NodePool -> expression
    materialization plus the recursive walk) instead of hitting the
    pool's ``to_expr`` memo warmed by a previous round.
    """
    db = build_join_database(n_left=n_left, n_right=n_right, n_keys=n_keys, seed=seed)
    executor = Executor(db)
    result = ExperimentResult("ilp_encode")

    # Program parity is also checked on a small companion workload per
    # scenario shape (depth 2), so shallow predicate trees are covered too.
    parity_db = build_join_database(n_left=24, n_right=16, n_keys=6, seed=seed)
    parity_executor = Executor(parity_db)
    parity_scenarios = {
        name: (plan, complaints_fn)
        for name, plan, complaints_fn in build_scenarios(seed=seed, depth=2)
    }

    for name, plan, complaints_fn in build_scenarios(seed=seed, depth=depth):
        def encode_with(encoder_cls):
            best = float("inf")
            encoder = None
            for _ in range(max(1, rounds)):
                fresh = executor.execute(plan, debug=True)
                complaints = complaints_fn(fresh)
                start = time.perf_counter()
                encoder = encoder_cls(fresh)
                for complaint in complaints:
                    encoder.add_complaint(complaint)
                n_rows = encoder.program.n_constraints
                best = min(best, time.perf_counter() - start)
            return best, encoder, n_rows

        tree_s, tree_encoder, tree_rows = encode_with(TiresiasEncoder)
        compiled_s, compiled_encoder, compiled_rows = encode_with(CompiledILPEncoder)

        program_identical = _program_signature(
            tree_encoder.program
        ) == _program_signature(compiled_encoder.program)

        parity_plan, parity_fn = parity_scenarios[name]
        parity_result = parity_executor.execute(parity_plan, debug=True)
        parity_tree = TiresiasEncoder(parity_result)
        parity_compiled = CompiledILPEncoder(parity_result)
        for complaint in parity_fn(parity_result):
            parity_tree.add_complaint(complaint)
            parity_compiled.add_complaint(complaint)
        program_identical = program_identical and (
            _program_signature(parity_tree.program)
            == _program_signature(parity_compiled.program)
        )

        created = compiled_encoder.aux_created
        reused = compiled_encoder.aux_reused
        touched = created + reused
        result.rows.append(
            {
                "scenario": name,
                "n_vars": tree_encoder.program.n_vars,
                "n_rows": tree_rows,
                "tree_encode_s": tree_s,
                "compiled_encode_s": compiled_s,
                "speedup": tree_s / compiled_s if compiled_s > 0 else float("inf"),
                "aux_created": created,
                "aux_reused": reused,
                "dedup_hit_rate": reused / touched if touched else 0.0,
                "program_identical": program_identical,
            }
        )
        assert compiled_rows == tree_rows

    aggregate = [row for row in result.rows if row["scenario"] != "selection"]
    tree_total = sum(row["tree_encode_s"] for row in aggregate)
    compiled_total = sum(row["compiled_encode_s"] for row in aggregate)
    result.rows.append(
        {
            "scenario": "AGGREGATE_TOTAL",
            "n_vars": sum(row["n_vars"] for row in aggregate),
            "n_rows": sum(row["n_rows"] for row in aggregate),
            "tree_encode_s": tree_total,
            "compiled_encode_s": compiled_total,
            "speedup": tree_total / compiled_total,
            "aux_created": sum(row["aux_created"] for row in aggregate),
            "aux_reused": sum(row["aux_reused"] for row in aggregate),
            "dedup_hit_rate": 0.0,
            "program_identical": all(r["program_identical"] for r in aggregate),
        }
    )
    result.notes.append(
        "speedup = tree-walk encode (expr materialization + per-node "
        "add_constraint) over array-lowered encode (bulk aux blocks + CSR "
        "constraint blocks); programs must be identical up to var names."
    )
    result.notes.append(
        "selection is the complaint-sparse regime: a handful of tuple "
        "complaints touch a sliver of the pool, so the compiled encoder's "
        "one-time pool canonicalization dominates; TwoStep still picks the "
        "encoder by provenance only.  AGGREGATE_TOTAL sums the "
        "count/grouped rows, where every candidate feeds the complaint."
    )
    return result
