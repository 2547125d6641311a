"""Multi-case Adult workload (fig8's Adult substrate, scaled out).

The paper's multi-query experiment (Figure 8) serves two complaint cases;
a deployment fields many concurrent complaints — typically several users
complaining about different output cells of the *same* dashboard
queries.  This module builds that workload: one complaint case per
aggregate group of Q6 (``GROUP BY gender``) and Q7 (``GROUP BY
agedecade``), all sharing the income model — many cases, two distinct
plans, so the executor's per-plan lineage is reused across cases and
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..complaints import ComplaintCase, ValueComplaint
from ..data import corrupt_labels, make_adult, section65_predicate
from ..ml import LogisticRegression
from ..relational import Database, Relation
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
