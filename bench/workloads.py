"""The four benchmark workloads: seeded input generation and session set-up.

Each workload is one paper debugging scenario with 50% label corruption
and ``k = 10`` removals per iteration.  Inputs are built straight from the
``repro.data`` generators with the workload seed; :func:`setup` then turns
the generated arrays into a ready :class:`~repro.RainDebugger` through the
library's public API with library defaults only (no worker, pipeline,
encoder or LP-backend knobs), so later changes that delete those knobs
cannot break the benchmark.

The number of injected corruptions is fixed per workload instead of
following the seed's candidate count: the removal budget (and with it the
iteration count) is then the same for every seed, so seeds change which
records are corrupted, not how much work a session does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import (
    ComplaintCase,
    Database,
    LogisticRegression,
    RainDebugger,
    Relation,
    SoftmaxRegression,
    ValueComplaint,
)
from repro.data import (
    Corruption,
    corrupt_labels,
    corrupt_where_label,
    make_adult,
    make_dblp,
    make_mnist,
    section65_predicate,
)

K_PER_ITERATION = 10
FIRST_K = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why it exists).

    ``scales`` maps a scale name to the generator sizes, ``corrupted`` (the
    removal budget) and ``auccr_floor``, the lowest acceptable normalized
    AUCCR (see the README for how the floors were set).  ``make_inputs``
    draws the arrays for a seed; ``make_program`` builds the database,
    the unfitted model and the complaint cases from them.
    """

    name: str
    method: str
    scales: dict
    make_inputs: Callable[[int, dict], tuple[dict, Corruption]]
    make_program: Callable[[dict], tuple[Database, object, list]]


@dataclass
class Inputs:
    """Generated arrays for one workload seed.

    ``arrays`` is everything the debugged program receives;
    ``corrupted_indices`` is the ground truth, used only to score the
    removal order.
    """

    workload: Workload
    seed: int
    arrays: dict
    corrupted_indices: np.ndarray
    budget: int
    auccr_floor: float


def generate(workload: Workload, seed: int, scale: str = "full") -> Inputs:
    """The workload's inputs for ``seed`` (same seed, same arrays)."""
    sizes = workload.scales[scale]
    arrays, corruption = workload.make_inputs(seed, sizes)
    return Inputs(
        workload=workload,
        seed=seed,
        arrays=arrays,
        corrupted_indices=corruption.corrupted_indices,
        budget=corruption.n_corrupted,
        auccr_floor=sizes["auccr_floor"],
    )


def setup(inputs: Inputs) -> RainDebugger:
    """Generated arrays to a ready debugger: register, fit, plan.

    This is everything ``setup_s`` times.  Each call builds a fresh
    database and model, so sessions never share fitted state.
    """
    arrays = inputs.arrays
    database, model, cases = inputs.workload.make_program(arrays)
    model.fit(arrays["X_train"], arrays["y_train"], warm_start=False)
    database.add_model("model", model)
    return RainDebugger(
        database, "model", arrays["X_train"], arrays["y_train"], cases,
        method=inputs.workload.method, rng=inputs.seed,
    )


def _exactly(n_candidates: int, corrupted: int) -> float:
    """The corruption fraction that flips exactly ``corrupted`` candidates."""
    if n_candidates < corrupted:
        raise ValueError(f"only {n_candidates} candidates for {corrupted} corruptions")
    return corrupted / n_candidates


def _count_case(sql: str, count: int) -> ComplaintCase:
    return ComplaintCase(
        sql, [ValueComplaint(column="count", op="=", value=count, row_index=0)]
    )


# -- DBLP: SELECT COUNT(*) ... WHERE predict(*) = 'match' (Section 6.2) ----------


def _dblp_inputs(seed: int, sizes: dict):
    ds = make_dblp(n_train=sizes["n_train"], n_query=sizes["n_query"], seed=seed)
    corruption = corrupt_where_label(
        ds.y_train, "match", "nonmatch",
        _exactly(int(np.sum(ds.y_train == "match")), sizes["corrupted"]),
        rng=seed + 1,
    )
    arrays = {
        "X_train": ds.X_train,
        "y_train": corruption.y_corrupted,
        "X_query": ds.X_query,
        "true_count": int(np.sum(ds.y_query == "match")),
    }
    return arrays, corruption


def _dblp_program(arrays: dict):
    database = Database()
    database.add_relation(Relation("dblp", {"features": arrays["X_query"]}))
    model = LogisticRegression(
        ("nonmatch", "match"), n_features=arrays["X_train"].shape[1], l2=1e-3
    )
    sql = "SELECT COUNT(*) FROM dblp WHERE predict(*) = 'match'"
    return database, model, [_count_case(sql, arrays["true_count"])]


# -- MNIST: COUNT over L ⋈ R on predict(L) = predict(R) (Fig. 6c/d) ------------


def _mnist_join_inputs(seed: int, sizes: dict):
    n_side = sizes["n_side"]
    ds = make_mnist(n_train=sizes["n_train"], n_query=8 * n_side, seed=seed)
    corruption = corrupt_where_label(
        ds.y_train, 1, 7,
        _exactly(int(np.sum(ds.y_train == 1)), sizes["corrupted"]),
        rng=seed + 1,
    )
    left = np.flatnonzero(np.isin(ds.y_query, (1, 2, 3, 4, 5)))[:n_side]
    right = np.flatnonzero(np.isin(ds.y_query, (6, 7, 8, 9, 0)))[:n_side]
    if left.size < n_side or right.size < n_side:
        raise ValueError("too few query digits for the join sides")
    arrays = {
        "X_train": ds.X_train,
        "y_train": corruption.y_corrupted,
        "X_left": ds.X_query[left],
        "X_right": ds.X_query[right],
        "true_count": int(np.sum(ds.y_query[left][:, None] == ds.y_query[right])),
    }
    return arrays, corruption


def _mnist_join_program(arrays: dict):
    database = Database()
    database.add_relation(Relation("L", {"features": arrays["X_left"]}))
    database.add_relation(Relation("R", {"features": arrays["X_right"]}))
    model = SoftmaxRegression(
        tuple(range(10)), n_features=arrays["X_train"].shape[1], l2=1e-3
    )
    sql = "SELECT COUNT(*) FROM L, R WHERE predict(L) = predict(R)"
    return database, model, [_count_case(sql, arrays["true_count"])]


# -- Adult: one case per group of two GROUP BY queries (Fig. 8) ----------------


def _adult_inputs(seed: int, sizes: dict):
    ds = make_adult(n_train=sizes["n_train"], n_query=sizes["n_query"], seed=seed)
    predicate = section65_predicate(ds.y_train, ds.age_train, ds.gender_train)
    corruption = corrupt_labels(
        ds.y_train, predicate, 1,
        _exactly(int(predicate.sum()), sizes["corrupted"]), rng=seed + 1,
    )
    truths = {
        column: {
            key: float(np.mean(ds.y_query[values == key]))
            for key in sorted(np.unique(values).tolist())
        }
        for column, values in (("gender", ds.gender_query), ("agedecade", ds.age_query))
    }
    arrays = {
        "X_train": ds.X_train,
        "y_train": corruption.y_corrupted,
        "X_query": ds.X_query,
        "gender": ds.gender_query,
        "agedecade": ds.age_query,
        "group_truths": truths,
    }
    return arrays, corruption


def _adult_program(arrays: dict):
    database = Database()
    database.add_relation(
        Relation(
            "adult",
            {
                "features": arrays["X_query"],
                "gender": arrays["gender"],
                "agedecade": arrays["agedecade"],
            },
        )
    )
    model = LogisticRegression((0, 1), n_features=arrays["X_train"].shape[1], l2=1e-3)
    cases = [
        ComplaintCase(
            f"SELECT AVG(predict(*)) FROM adult GROUP BY {column}",
            [ValueComplaint(column="avg", op="=", value=truth, group_key=(key,))],
        )
        for column, truths in arrays["group_truths"].items()
        for key, truth in truths.items()
    ]
    return database, model, cases


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "dblp-twostep", "twostep",
            {
                "full": {"n_train": 540, "n_query": 500, "corrupted": 80,
                         "auccr_floor": 0.8},
                "smoke": {"n_train": 120, "n_query": 60, "corrupted": 20,
                          "auccr_floor": 0.0},
            },
            _dblp_inputs, _dblp_program,
        ),
        Workload(
            "dblp-holistic", "holistic",
            {
                "full": {"n_train": 2000, "n_query": 5000, "corrupted": 300,
                         "auccr_floor": 0.95},
                "smoke": {"n_train": 200, "n_query": 60, "corrupted": 30,
                          "auccr_floor": 0.0},
            },
            _dblp_inputs, _dblp_program,
        ),
        Workload(
            "mnist-join-holistic", "holistic",
            {
                "full": {"n_train": 400, "n_side": 25, "corrupted": 20,
                         "auccr_floor": 0.0},
                "smoke": {"n_train": 100, "n_side": 5, "corrupted": 4,
                          "auccr_floor": 0.0},
            },
            _mnist_join_inputs, _mnist_join_program,
        ),
        Workload(
            "adult-multicase-holistic", "holistic",
            {
                "full": {"n_train": 1500, "n_query": 3000, "corrupted": 80,
                         "auccr_floor": 0.0},
                "smoke": {"n_train": 300, "n_query": 400, "corrupted": 12,
                          "auccr_floor": 0.0},
            },
            _adult_inputs, _adult_program,
        ),
    )
}
