"""End-to-end reproduction sanity: small-scale versions of the key results.

These integration tests assert the *qualitative shape* of the paper's
findings on small instances (who wins, directionality), keeping the suite
fast; the full parameter sweeps live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.complaints import ComplaintCase, TupleComplaint, ValueComplaint
from repro.core import RainDebugger
from repro.experiments import build_dblp_setting, compare_methods, execute_sql
from repro.experiments.mnist_common import build_count_setting, build_join_setting
from repro.experiments.table3_auccr import build_enron_setting

from oracles.provenance import condition


class TestDBLPPipeline:
    def test_holistic_dominates_loss_medium_corruption(self):
        setting = build_dblp_setting(0.5, n_train=250, n_query=150, seed=0)
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [setting.case], setting.corrupted_indices,
            methods=("loss", "holistic"), seed=0,
        )
        assert summaries["holistic"]["auccr"] > 0.8
        assert summaries["holistic"]["auccr"] > summaries["loss"]["auccr"]

    def test_recall_curve_monotone(self):
        setting = build_dblp_setting(0.5, n_train=200, n_query=100, seed=1)
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [setting.case], setting.corrupted_indices,
            methods=("holistic",), seed=1,
        )
        curve = summaries["holistic"]["recall_curve"]
        assert np.all(np.diff(curve) >= 0)

    def test_deleting_found_records_moves_count_toward_truth(self):
        setting = build_dblp_setting(0.5, n_train=250, n_query=150, seed=0)
        before = execute_sql(setting.database, setting.query).scalar("count")
        debugger = RainDebugger(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [setting.case], method="holistic", rng=0,
        )
        report = debugger.run(
            max_removals=len(setting.corrupted_indices), k_per_iteration=10
        )
        keep = np.setdiff1d(
            np.arange(len(setting.X_train)), np.asarray(report.removal_order)
        )
        setting.model.fit(
            setting.X_train[keep], setting.y_corrupted[keep], warm_start=True
        )
        after = execute_sql(setting.database, setting.query).scalar("count")
        truth = setting.true_count
        assert abs(after - truth) < abs(before - truth)


class TestEnronPipeline:
    def test_like_predicate_scopes_complaint(self):
        setting = build_enron_setting("deal", n_train=300, n_query=200, seed=0)
        summaries = compare_methods(
            setting.database, "spam", setting.X_train, setting.y_corrupted,
            [setting.case], setting.corrupted_indices,
            methods=("loss", "holistic"), seed=0, max_removals=30,
        )
        assert summaries["holistic"]["auccr"] >= summaries["loss"]["auccr"]


class TestMNISTJoins:
    def test_join_complaints_find_digit_corruptions(self):
        setting = build_join_setting(0.5, n_train=250, seed=0)
        if not setting.cases:
            pytest.skip("no spurious join rows at this seed")
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, setting.corrupted_indices,
            methods=("holistic",), seed=0,
        )
        assert summaries["holistic"]["auccr"] > 0.4

    def test_count_zero_complaint(self):
        setting = build_join_setting(
            0.5, left_digits=(1, 2, 3, 4, 5), right_digits=(6, 7, 8, 9, 0),
            aggregate=True, n_train=250, n_left=20, n_right=20, seed=0,
        )
        assert setting.metadata["true_count"] == 0
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, setting.corrupted_indices,
            methods=("holistic",), seed=0,
        )
        assert summaries["holistic"]["auccr"] > 0.3

    def test_q5_aggregate_complaint(self):
        setting = build_count_setting(
            corruption_rate=0.5, n_train=250, n_query=120, seed=0
        )
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, setting.corrupted_indices,
            methods=("holistic",), seed=0,
        )
        assert summaries["holistic"]["auccr"] > 0.5


class TestComplaintDirectionality:
    def test_wrong_direction_complaint_hurts(self):
        """Fig. 10's core claim: complaints pointing the wrong way mislead."""
        setting = build_count_setting(
            corruption_rate=0.3, n_train=250, n_query=120, seed=0
        )
        current = execute_sql(
            setting.database, setting.metadata["query"]
        ).scalar("count")
        truth = setting.cases[0].complaints[0].value
        # Corruption removes 1-labels, so truth > current; "wrong" goes lower.
        assert truth > current
        wrong_case = ComplaintCase(
            setting.metadata["query"],
            [ValueComplaint(column="count", op="=",
                            value=max(0.0, 0.5 * current), row_index=0)],
        )
        summaries = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, [wrong_case], setting.corrupted_indices,
            methods=("holistic",), seed=0,
        )
        correct = compare_methods(
            setting.database, setting.model_name, setting.X_train,
            setting.y_corrupted, setting.cases, setting.corrupted_indices,
            methods=("holistic",), seed=0,
        )
        assert correct["holistic"]["auccr"] > summaries["holistic"]["auccr"]


class TestTupleComplaintEndToEnd:
    def test_group_should_not_exist(self, simple_db):
        """Tuple complaint on an aggregated group (GROUP BY predict)."""
        result = execute_sql(simple_db, "SELECT COUNT(*) FROM R GROUP BY predict(*)")
        key = (int(result.relation.column("predict(*)")[0]),)
        complaint = TupleComplaint(group_key=key)
        assert not complaint.is_satisfied(result)
        assert len(condition(complaint, result).atoms()) > 0
