"""Sharded multi-query serving workload (fig8's Adult substrate, scaled out).

The paper's multi-query experiment (Figure 8) serves two complaint cases;
a serving deployment fields many concurrent complaints — typically several
users complaining about different output cells of the *same* dashboard
queries.  This module builds that workload: one complaint case per
aggregate group of Q6 (``GROUP BY gender``) and Q7 (``GROUP BY
agedecade``), all sharing the income model — many cases, two distinct
plans.

``run`` measures the serving layer end to end: the serial loop
(``n_workers=0``) against sharded runs, asserting that removal orders are
identical (the sharding determinism contract) and reporting the measured
wall-clock speedup.  The speedup is algorithmic as much as it is
parallel: the execute stage collapses C case executions into P distinct
plan executions per iteration (plan-fingerprint dedup), and the encode
stage evaluates one probability matrix per distinct result instead of one
per case — wins that hold even on a single core, where threads alone
could not help.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..complaints import ComplaintCase, ValueComplaint
from ..data import corrupt_labels, make_adult, section65_predicate
from ..ml import LogisticRegression
from ..relational import Database, Relation
from .common import ExperimentResult, run_method
from .fig8_multiquery import Q6, Q7


@dataclass
class ServingSetting:
    """A multi-case Adult serving workload over two distinct plans."""

    database: Database
    model: LogisticRegression
    X_train: np.ndarray
    y_corrupted: np.ndarray
    corrupted_indices: np.ndarray
    cases: list[ComplaintCase]
    n_distinct_plans: int


def build_serving_setting(
    flip_fraction: float = 0.5,
    n_train: int = 300,
    n_query: int = 2000,
    seed: int = 0,
    corruption_shards: int | None = None,
) -> ServingSetting:
    """One complaint case per group of Q6 and Q7 — many cases, two plans.

    ``corruption_shards`` optionally samples the corrupted subset with the
    sharded (``SeedSequence.spawn``) scheme, matching how a parallel
    ingest pipeline would corrupt; ``None`` keeps the single-stream
    sampling of the fig8 experiment.
    """
    ds = make_adult(n_train=n_train, n_query=n_query, seed=seed)
    predicate = section65_predicate(ds.y_train, ds.age_train, ds.gender_train)
    corruption = corrupt_labels(
        ds.y_train, predicate, 1, flip_fraction, rng=seed + 1,
        n_shards=corruption_shards,
    )

    model = LogisticRegression((0, 1), n_features=ds.X_train.shape[1], l2=1e-3)
    model.fit(ds.X_train, corruption.y_corrupted, warm_start=False)

    database = Database()
    database.add_relation(
        Relation(
            "adult",
            {
                "features": ds.X_query,
                "gender": ds.gender_query,
                "agedecade": ds.age_query,
            },
        )
    )
    database.add_model("income", model)

    cases: list[ComplaintCase] = []
    for gender in sorted(np.unique(ds.gender_query).tolist()):
        truth = float(np.mean(ds.y_query[ds.gender_query == gender]))
        cases.append(
            ComplaintCase(
                Q6,
                [ValueComplaint(column="avg", op="=", value=truth,
                                group_key=(gender,))],
            )
        )
    for decade in sorted(int(d) for d in np.unique(ds.age_query)):
        truth = float(np.mean(ds.y_query[ds.age_query == decade]))
        cases.append(
            ComplaintCase(
                Q7,
                [ValueComplaint(column="avg", op="=", value=truth,
                                group_key=(decade,))],
            )
        )
    return ServingSetting(
        database=database,
        model=model,
        X_train=ds.X_train,
        y_corrupted=corruption.y_corrupted,
        corrupted_indices=corruption.corrupted_indices,
        cases=cases,
        n_distinct_plans=2,
    )


def run(
    n_workers_grid=(0, 2, 4),
    flip_fraction: float = 0.5,
    n_train: int = 300,
    n_query: int = 2000,
    max_removals: int = 20,
    k_per_iteration: int = 10,
    seed: int = 0,
) -> ExperimentResult:
    """Serial vs sharded serving on the multi-case fig8 workload.

    One row per worker count: wall-clock seconds, speedup over the serial
    loop, whether the removal order matched the serial golden order, and
    the execute stage's plan-dedup hit rate.
    """
    setting = build_serving_setting(
        flip_fraction, n_train=n_train, n_query=n_query, seed=seed
    )
    initial_params = setting.model.get_params()
    result = ExperimentResult("serving_sharded")

    reports = {}
    seconds = {}
    for n_workers in n_workers_grid:
        start = time.perf_counter()
        reports[n_workers] = run_method(
            setting.database,
            "income",
            setting.X_train,
            setting.y_corrupted,
            setting.cases,
            "holistic",
            max_removals=max_removals,
            k_per_iteration=k_per_iteration,
            seed=seed,
            reset_params=initial_params,
            n_workers=n_workers,
        )
        seconds[n_workers] = time.perf_counter() - start

    serial_workers = n_workers_grid[0]
    serial_order = reports[serial_workers].removal_order
    for n_workers in n_workers_grid:
        report = reports[n_workers]
        cache = {}
        for record in report.iterations:
            cache = record.diagnostics.get("execute_cache", cache)
        result.rows.append(
            {
                "n_workers": n_workers,
                "n_cases": len(setting.cases),
                "distinct_plans": cache.get("n_distinct_plans"),
                "seconds": seconds[n_workers],
                "speedup": seconds[serial_workers] / seconds[n_workers],
                "order_matches_serial": report.removal_order == serial_order,
            }
        )
        result.series[f"removal_order@{n_workers}w"] = report.removal_order
    result.notes.append(
        "orders must match at every worker count (sharding determinism "
        "contract); speedup combines plan-fingerprint dedup with the "
        "worker pool."
    )
    return result
