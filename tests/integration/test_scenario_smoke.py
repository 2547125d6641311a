"""Tier-1 scenario smokes: Enron http/deal and Adult, pinned recall curves.

Tiny-n versions of the table3 (Enron labelling-function corruption) and
fig8 (Adult multi-query) paths, pinning the actual recall curves — not
just the qualitative shape — so a numerics regression anywhere in the
train-rank-fix stack (executor, relaxation, influence solves, ranking)
shows up as a curve shift here before the slow benchmarks run.  The runs
are fully seeded and the engine is deterministic (see the sharding
determinism contract), so the pins hold exactly; tolerances are
only for cross-platform float noise.
"""

import numpy as np
import pytest

from repro.experiments import compare_methods
from repro.experiments.fig8_multiquery import build_adult_setting
from repro.experiments.table3_auccr import build_enron_setting

PIN_ATOL = 1e-3


class TestEnronScenarios:
    def test_http_token_pinned_curve(self):
        setting = build_enron_setting("http", n_train=300, n_query=200, seed=0)
        summaries = compare_methods(
            setting.database, "spam", setting.X_train, setting.y_corrupted,
            [setting.case], setting.corrupted_indices,
            methods=("loss", "holistic"), seed=0, max_removals=30,
        )
        assert len(setting.corrupted_indices) == 7
        assert summaries["holistic"]["auccr"] == pytest.approx(
            0.892857, abs=PIN_ATOL
        )
        assert summaries["loss"]["auccr"] == pytest.approx(0.25, abs=PIN_ATOL)
        np.testing.assert_allclose(
            summaries["holistic"]["recall_curve"],
            [0.142857, 0.285714, 0.428571, 0.571429, 0.571429, 0.714286,
             0.857143],
            atol=PIN_ATOL,
        )
        assert summaries["holistic"]["auccr"] > summaries["loss"]["auccr"]

    def test_deal_token_pinned_curve(self):
        setting = build_enron_setting("deal", n_train=200, n_query=150, seed=0)
        summaries = compare_methods(
            setting.database, "spam", setting.X_train, setting.y_corrupted,
            [setting.case], setting.corrupted_indices,
            methods=("loss", "holistic"), seed=0, max_removals=30,
        )
        assert len(setting.corrupted_indices) == 38
        assert summaries["holistic"]["auccr"] == pytest.approx(
            0.792173, abs=PIN_ATOL
        )
        assert summaries["loss"]["auccr"] == pytest.approx(
            0.197031, abs=PIN_ATOL
        )
        holistic_curve = np.asarray(summaries["holistic"]["recall_curve"])
        # First 30 removals climb steadily to ~68% of the 38 corruptions.
        np.testing.assert_allclose(
            holistic_curve[-1], 0.684211, atol=PIN_ATOL
        )
        assert np.all(np.diff(holistic_curve) >= 0)
        assert summaries["holistic"]["auccr"] > summaries["loss"]["auccr"]


class TestAdultScenario:
    def test_multiquery_pinned_curve(self):
        setting = build_adult_setting(0.5, n_train=200, n_query=300, seed=0)
        summaries = compare_methods(
            setting.database, "income", setting.X_train, setting.y_corrupted,
            [setting.gender_case, setting.age_case],
            setting.corrupted_indices,
            methods=("loss", "holistic"), seed=0, max_removals=30,
        )
        assert len(setting.corrupted_indices) == 12
        assert summaries["holistic"]["auccr"] == pytest.approx(
            0.525641, abs=PIN_ATOL
        )
        np.testing.assert_allclose(
            summaries["holistic"]["recall_curve"][-1], 0.416667, atol=PIN_ATOL
        )
        # The fig8 claim: aggregate complaints carry signal plain loss
        # ranking cannot see — loss finds nothing at this scale.
        assert summaries["loss"]["auccr"] == pytest.approx(0.0, abs=PIN_ATOL)

    def test_sharded_run_reproduces_pinned_curve(self):
        """Explicit serial and 2-worker runs give the same curve exactly."""
        setting = build_adult_setting(0.5, n_train=200, n_query=300, seed=0)
        runs = {
            n_workers: compare_methods(
                setting.database, "income", setting.X_train,
                setting.y_corrupted,
                [setting.gender_case, setting.age_case],
                setting.corrupted_indices,
                methods=("holistic",), seed=0, max_removals=30,
                n_workers=n_workers,
            )["holistic"]
            for n_workers in (0, 2)
        }
        assert runs[0]["auccr"] == pytest.approx(0.525641, abs=PIN_ATOL)
        np.testing.assert_array_equal(
            runs[2]["recall_curve"], runs[0]["recall_curve"]
        )
        assert runs[2]["auccr"] == runs[0]["auccr"]
