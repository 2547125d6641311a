"""TwoStep's array ILP encoder on the fig6-shaped join workload.

Model inference on both sides of an L ⋈ R equi-join, AND/OR predicate
trees, and COUNT/SUM/AVG aggregates: the workload where TwoStep's encode
step is heaviest.  :class:`repro.ilp.TiresiasEncoder` reads the node
pool's opcode/CSR arrays directly: aux variables in bulk blocks, linking
rows as CSR constraint blocks, and cross-complaint aux reuse keyed on
canonical pool node ids.

Per scenario the experiment reports the program's size, the encode wall
clock (best of N, a re-executed result per round), how many aux
variables were created and how many lookups reused one, and the status
of one node-budgeted branch & bound solve.  That the program is
byte-identical to the seed's tree walk (``tests/oracles/encode.py``) is
checked by the benchmark and the encoder tests, not here.
"""

from __future__ import annotations

import time

import numpy as np

from ..complaints import TupleComplaint, ValueComplaint
from ..errors import ILPError
from ..ilp import TiresiasEncoder, solve
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

# Branch & bound nodes per solve: two nodes prove the selection scenario's
# optimum; the count and grouped programs run out of nodes first.
SOLVE_NODE_LIMIT = 2


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


def solve_status(program, node_limit: int) -> tuple[str, float]:
    """One node-budgeted branch & bound solve: ``(status, seconds)``.

    ``optimal(obj=..)`` is a proven optimum; ``unproven(obj=..)`` is the
    incumbent held when the node budget ran out; an :class:`ILPError`
    reports its class name.
    """
    start = time.perf_counter()
    try:
        solution = solve(program, node_limit=node_limit, time_limit=None)
        kind = "optimal" if solution.proven else "unproven"
        status = f"{kind}(obj={solution.objective:g})"
    except ILPError as exc:
        status = type(exc).__name__
    return status, time.perf_counter() - start


def run(
    n_left: int = 240,
    n_right: int = 160,
    n_keys: int = 8,
    depth: int = 4,
    rounds: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Encode size, wall clock, aux dedup and solve status per scenario.

    Each timing round re-executes the plan and encodes the result anew,
    so no round reuses another's aux variables.  The two-node solve
    (:data:`SOLVE_NODE_LIMIT`) proves the selection scenario's optimum; at
    the default size the count and grouped programs (thousands of
    variables) still had no incumbent after 200 nodes and 57-90 s of
    branch & bound on a 2-vCPU host, so they report ``ILPTimeoutError``.
    """
    db = build_join_database(n_left=n_left, n_right=n_right, n_keys=n_keys, seed=seed)
    executor = Executor(db)
    result = ExperimentResult("ilp_encode")
    for name, plan, complaints_fn in build_scenarios(seed=seed, depth=depth):
        encode_s = float("inf")
        for _ in range(max(1, rounds)):
            fresh = executor.execute(plan, debug=True)
            complaints = complaints_fn(fresh)
            start = time.perf_counter()
            encoder = TiresiasEncoder(fresh)
            encoder.add_complaints(complaints)
            encode_s = min(encode_s, time.perf_counter() - start)
        created = encoder.aux_created
        reused = encoder.aux_reused
        touched = created + reused
        status, solve_s = solve_status(encoder.program, SOLVE_NODE_LIMIT)
        result.rows.append(
            {
                "scenario": name,
                "complaints": len(complaints),
                "n_vars": encoder.program.n_vars,
                "n_rows": encoder.program.n_constraints,
                "encode_s": encode_s,
                "aux_created": created,
                "aux_reused": reused,
                "dedup_hit_rate": reused / touched if touched else 0.0,
                "solve_s": solve_s,
                "solve_status": status,
            }
        )
    result.notes.append(
        "encode_s = best-of-N encode of a re-executed result (bulk aux "
        "blocks + CSR constraint blocks straight from the node pool); "
        "dedup_hit_rate = aux lookups served by an aux variable an earlier "
        "complaint or subtree created."
    )
    result.notes.append(
        f"solve = one branch & bound run with node_limit={SOLVE_NODE_LIMIT} "
        "and no wall-clock limit; unproven(obj=..) and ILPTimeoutError are "
        "reportable outcomes."
    )
    return result
