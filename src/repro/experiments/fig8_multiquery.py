"""Figure 8: combining complaints over multiple queries (Adult, Section 6.5).

Two GROUP BY queries share the income model:

- Q6: ``SELECT AVG(predict(*)) FROM adult GROUP BY gender`` — complaint on
  the *male* group's average;
- Q7: ``SELECT AVG(predict(*)) FROM adult GROUP BY agedecade`` — complaint
  on the *40s* decade's average.

Corruption flips a% of labels matching (low income ∧ male ∧ 40-50) to high
income.  The Adult preprocessing (18 binary one-hots, ≤120 unique feature
vectors) makes individual records nearly indistinguishable, which defeats
TwoStep and Loss; Holistic benefits from combining both complaints because
their corrupted subspaces intersect exactly on the corruption predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..complaints import ComplaintCase, ValueComplaint
from ..data import corrupt_labels, make_adult, section65_predicate
from ..ml import LogisticRegression
from ..relational import Database, Relation
from .common import ExperimentResult, compare_methods

Q6 = "SELECT AVG(predict(*)) FROM adult GROUP BY gender"
Q7 = "SELECT AVG(predict(*)) FROM adult GROUP BY agedecade"

# Budgeted in branch & bound nodes only, so results do not depend on host
# speed.  The default run's solves explore at most 2 nodes each.
TWOSTEP_KWARGS = {"ambiguity_cap": 3, "node_limit": 2000}


@dataclass
class AdultSetting:
    database: Database
    model: LogisticRegression
    X_train: np.ndarray
    y_corrupted: np.ndarray
    corrupted_indices: np.ndarray
    gender_case: ComplaintCase
    age_case: ComplaintCase
    n_unique_train: int


def build_adult_setting(
    flip_fraction: float, n_train: int = 1500, n_query: int = 1000, seed: int = 0
) -> AdultSetting:
    ds = make_adult(n_train=n_train, n_query=n_query, seed=seed)
    predicate = section65_predicate(ds.y_train, ds.age_train, ds.gender_train)
    corruption = corrupt_labels(ds.y_train, predicate, 1, flip_fraction, rng=seed + 1)

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

    male = ds.gender_query == "male"
    male_truth = float(np.mean(ds.y_query[male]))
    forties = np.isin(ds.age_query, (40, 50))
    forties_truth = float(np.mean(ds.y_query[forties]))

    gender_case = ComplaintCase(
        Q6, [ValueComplaint(column="avg", op="=", value=male_truth,
                            group_key=("male",))]
    )
    # Complaints for both decades covering ages 40-50.
    age_case = ComplaintCase(
        Q7,
        [
            ValueComplaint(
                column="avg", op="=",
                value=float(np.mean(ds.y_query[ds.age_query == 40])),
                group_key=(40,),
            ),
            ValueComplaint(
                column="avg", op="=",
                value=float(np.mean(ds.y_query[ds.age_query == 50])),
                group_key=(50,),
            ),
        ],
    )
    n_unique = np.unique(ds.X_train, axis=0).shape[0]
    return AdultSetting(
        database, model, ds.X_train, corruption.y_corrupted,
        corruption.corrupted_indices, gender_case, age_case, n_unique,
    )


def run(
    flip_fractions=(0.3, 0.5),
    methods=("loss", "twostep", "holistic"),
    n_train: int = 1500,
    n_query: int = 1000,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult("fig8_multiquery")
    for fraction in flip_fractions:
        setting = build_adult_setting(
            fraction, n_train=n_train, n_query=n_query, seed=seed
        )
        combos = {
            "gender": [setting.gender_case],
            "age": [setting.age_case],
            "both": [setting.gender_case, setting.age_case],
        }
        for combo_name, cases in combos.items():
            run_methods = methods if combo_name == "both" else ("holistic",) + tuple(
                m for m in methods if m == "loss"
            )
            summaries = compare_methods(
                setting.database, "income", setting.X_train,
                setting.y_corrupted, cases, setting.corrupted_indices,
                methods=run_methods, seed=seed,
                ranker_kwargs_by_method={"twostep": TWOSTEP_KWARGS},
            )
            for method, summary in summaries.items():
                result.rows.append(
                    {
                        "flip_fraction": fraction,
                        "complaints": combo_name,
                        "method": method,
                        "auccr": summary["auccr"],
                        "unique_train": setting.n_unique_train,
                    }
                )
                result.series[
                    f"recall[{method}|{combo_name}]@{fraction}"
                ] = summary["recall_curve"]
    result.notes.append(
        "paper Figure 8 shape: TwoStep and Loss find nothing (duplicate "
        "features); Holistic improves when combining both complaints."
    )
    return result
