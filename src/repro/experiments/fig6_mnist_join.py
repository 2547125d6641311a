"""Figure 6 (+ the Section 6.3 mix-rate text experiment): MNIST joins.

Three workloads over disjoint digit subsets with 1→7 label corruption:

- **point complaints** (Fig. 6a/6b): Q3 tuple complaints on individual join
  rows where exactly one side is mispredicted;
- **COUNT complaint** (Fig. 6c/6d): Q4 over {1..5} ⋈ {6..9, 0}, complaint
  "the count should be 0";
- **mix rate**: a fraction of the 1-digit images move to the right side so
  the true output is non-empty — the maximally ambiguous regime where the
  paper's TwoStep cannot solve its ILP within 30 minutes.

Paper shape: Holistic dominates throughout; TwoStep/Loss are poor; the
mix-rate AUCCR for Holistic decays gently (0.78 → 0.57 → 0.48) while Loss
stays flat around 0.24.
"""

from __future__ import annotations

from ..errors import ILPError
from .common import ExperimentResult, compare_methods
from .mnist_common import build_join_setting

# Budgeted in branch & bound nodes only, so results do not depend on host
# speed.  The default fig6ab/fig6cd solves explore at most 2 nodes each.
TWOSTEP_KWARGS = {"ambiguity_cap": 3, "node_limit": 4000}


def run_point_complaints(
    rates=(0.3, 0.5, 0.7),
    methods=("loss", "twostep", "holistic"),
    n_train: int = 300,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult("fig6ab_point_complaints")
    for rate in rates:
        setting = build_join_setting(
            rate, aggregate=False, n_train=n_train, seed=seed
        )
        if not setting.cases:
            result.notes.append(
                f"rate {rate}: no spurious join rows — nothing to complain about"
            )
            continue
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, setting.corrupted_indices,
            methods=methods, seed=seed,
            ranker_kwargs_by_method={"twostep": TWOSTEP_KWARGS},
        )
        n_complaints = len(setting.cases[0].complaints)
        for method, summary in summaries.items():
            result.rows.append(
                {
                    "corruption_rate": rate,
                    "method": method,
                    "auccr": summary["auccr"],
                    "n_complaints": n_complaints,
                    "n_corrupted": len(setting.corrupted_indices),
                }
            )
            result.series[f"recall[{method}]@{rate}"] = summary["recall_curve"]
    return result


def run_count_complaint(
    rates=(0.3, 0.5, 0.7),
    methods=("loss", "twostep", "holistic"),
    n_train: int = 350,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult("fig6cd_count_complaint")
    for rate in rates:
        setting = build_join_setting(
            rate,
            left_digits=(1, 2, 3, 4, 5),
            right_digits=(6, 7, 8, 9, 0),
            aggregate=True,
            n_train=n_train,
            n_left=25,
            n_right=25,
            seed=seed,
        )
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, setting.corrupted_indices,
            methods=methods, seed=seed,
            ranker_kwargs_by_method={"twostep": TWOSTEP_KWARGS},
        )
        for method, summary in summaries.items():
            result.rows.append(
                {
                    "corruption_rate": rate,
                    "method": method,
                    "auccr": summary["auccr"],
                    "true_count": setting.metadata["true_count"],
                }
            )
            result.series[f"recall[{method}]@{rate}"] = summary["recall_curve"]
    return result


def run_mix_rate(
    mix_rates=(0.05, 0.25, 0.35),
    methods=("loss", "holistic"),
    n_train: int = 350,
    seed: int = 0,
) -> ExperimentResult:
    """The Section 6.3 text experiment; TwoStep is attempted with a small
    budget and reported as timed-out when the ILP cannot be solved."""
    result = ExperimentResult("fig6_mix_rate")
    for mix in mix_rates:
        setting = build_join_setting(
            0.5,
            left_digits=(1, 2, 3, 4, 5),
            right_digits=(6, 7, 8, 9, 0),
            aggregate=True,
            mix_rate=mix,
            n_train=n_train,
            n_left=25,
            n_right=25,
            seed=seed,
        )
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, setting.corrupted_indices,
            methods=methods, seed=seed,
        )
        for method, summary in summaries.items():
            result.rows.append(
                {
                    "mix_rate": mix,
                    "method": method,
                    "auccr": summary["auccr"],
                    "true_count": setting.metadata["true_count"],
                }
            )
        # TwoStep with a deliberately small budget: expected to fail, as in
        # the paper ("TwoStep does not solve the ILP within 30 minutes").
        # The solvable mix-0.05 instance needs 1 node per solve; the mixed
        # ones find no incumbent within 4.
        try:
            twostep = compare_methods(
                setting.database, setting.model_name, setting.X_train,
                setting.y_corrupted, setting.cases, setting.corrupted_indices,
                methods=("twostep",), seed=seed,
                ranker_kwargs_by_method={
                    "twostep": {
                        "ambiguity_cap": 1, "node_limit": 4,
                        "on_failure": "raise",
                    }
                },
            )
            result.rows.append(
                {
                    "mix_rate": mix,
                    "method": "twostep",
                    "auccr": twostep["twostep"]["auccr"],
                    "true_count": setting.metadata["true_count"],
                }
            )
        except ILPError as exc:
            result.rows.append(
                {
                    "mix_rate": mix,
                    "method": "twostep",
                    "auccr": None,
                    "true_count": setting.metadata["true_count"],
                }
            )
            result.notes.append(f"mix {mix}: TwoStep ILP budget exhausted ({exc})")
    return result
