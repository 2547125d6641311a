"""Encode/solve timing sweep over the ENRON and Adult paper scenarios.

Table 3's ENRON settings use the rule-based labelling-function
corruption ("label every email containing the token as spam"); the
sweep grades it by only applying the rule to a *fraction* of the
matching emails (via :func:`repro.data.corrupt_labels` over the token
mask), giving a corruption-rate axis the original rule lacks.  Figure
8's Adult setting already takes a flip fraction directly.

For every (scenario, rate) cell the experiment executes the complaint
query, times TwoStep's encoder (best-of-N, a re-executed result per
round), reports the program's size and aux-variable dedup, and times one
deterministic branch & bound solve of the complaint ILP.  The Adult
cells are Section 6.5's Q6/Q7 ``AVG(predict(*)) ... GROUP BY``.
"""

from __future__ import annotations

import time

import numpy as np

from ..complaints import ComplaintCase, ValueComplaint
from ..data import contains_token, corrupt_labels, make_enron
from ..ilp import TiresiasEncoder
from ..ml import LogisticRegression
from ..relational import Database, Executor, Relation, plan_sql
from .common import ExperimentResult
from .fig8_multiquery import build_adult_setting
from .ilp_encode import solve_status


def build_enron_rate_setting(
    token: str,
    rate: float,
    n_train: int = 400,
    n_query: int = 250,
    seed: int = 0,
):
    """ENRON labelling-function corruption applied to ``rate`` of the matches.

    ``rate=1.0`` recovers Table 3's rule exactly (every training email
    containing ``token`` relabelled spam); smaller rates corrupt a
    uniform subset of the matching emails.
    """
    ds = make_enron(n_train=n_train, n_query=n_query, seed=seed)
    mask = contains_token(ds.text_train, token)
    corruption = corrupt_labels(ds.y_train, mask, "spam", rate, rng=seed + 1)
    model = LogisticRegression(ds.classes, n_features=ds.X_train.shape[1], l2=1e-3)
    model.fit(ds.X_train, corruption.y_corrupted, warm_start=False)

    database = Database()
    database.add_relation(
        Relation("enron", {"features": ds.X_query, "text": ds.text_query})
    )
    database.add_model("spam", model)
    query = (
        "SELECT COUNT(*) FROM enron "
        f"WHERE predict(*) = 'spam' AND text LIKE '%{token}%'"
    )
    token_mask = contains_token(ds.text_query, token)
    true_count = int(np.sum((ds.y_query == "spam") & token_mask))
    case = ComplaintCase(
        query, [ValueComplaint(column="count", op="=", value=true_count, row_index=0)]
    )
    return database, case


def scenarios(rates, flip_fractions, n_train, n_query, seed):
    """``(name, rate, database, case)`` per sweep cell, in report order."""
    for token in ("http", "deal"):
        for rate in rates:
            database, case = build_enron_rate_setting(
                token, rate, n_train=n_train, n_query=n_query, seed=seed
            )
            yield f"enron_{token}", rate, database, case
    for fraction in flip_fractions:
        setting = build_adult_setting(
            fraction, n_train=n_train, n_query=n_query, seed=seed
        )
        yield "adult_q6_gender", fraction, setting.database, setting.gender_case
        yield "adult_q7_age", fraction, setting.database, setting.age_case


def run(
    rates=(0.5, 1.0),
    flip_fractions=(0.3, 0.5),
    n_train: int = 400,
    n_query: int = 250,
    rounds: int = 3,
    node_limit: int = 4000,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult("scenario_sweep")
    for name, rate, database, case in scenarios(
        rates, flip_fractions, n_train, n_query, seed
    ):
        executor = Executor(database)
        plan = plan_sql(case.query, database)

        encode_s = float("inf")
        for _ in range(max(1, rounds)):
            fresh = executor.execute(plan, debug=True)
            start = time.perf_counter()
            encoder = TiresiasEncoder(fresh)
            encoder.add_complaints(case.complaints)
            encode_s = min(encode_s, time.perf_counter() - start)
        status, solve_s = solve_status(encoder.program, node_limit)
        result.rows.append(
            {
                "scenario": name,
                "rate": rate,
                "n_vars": encoder.program.n_vars,
                "n_rows": encoder.program.n_constraints,
                "encode_s": encode_s,
                "aux_created": encoder.aux_created,
                "aux_reused": encoder.aux_reused,
                "solve_s": solve_s,
                "solve_status": status,
            }
        )
    result.notes.append(
        "ENRON rate = fraction of token-matching training emails the "
        "labelling-function corruption relabels (1.0 = Table 3's rule); "
        "Adult rate = Figure 8's flip fraction on the Section 6.5 predicate."
    )
    result.notes.append(
        "encode timings are best-of-N on a re-executed debug result per "
        "round; solve is one deterministic branch & bound run (node budget, "
        "no wall-clock limit)."
    )
    return result
