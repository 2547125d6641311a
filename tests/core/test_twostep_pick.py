"""TwoStep's opaque-solver pick: draw first, enumerate optima up to the draw.

Each ILP case draws ``j = rng.integers(ambiguity_cap)`` and enumerates only
``j + 1`` optima; a case with fewer optima redraws among all of them.  These
tests pin the removal order of a multi-case session (the order of
enumerating every capped optimum before drawing), check that the pick stays
uniform when the enumeration runs out, count the enumeration work, and
check that a failing iteration leaves the session rng untouched.
"""

import collections

import numpy as np
import pytest

from repro.core import RainDebugger, rankers
from repro.core.rankers import TwoStepRanker
from repro.errors import ILPTimeoutError
from repro.experiments.fig8_multiquery import build_adult_setting
from repro.ilp import BinaryProgram

CAP = 3
TWOSTEP_KWARGS = {"ambiguity_cap": CAP, "node_limit": 2000, "time_limit": None}


def adult_session(rng=0, **ranker_kwargs) -> RainDebugger:
    """Two Adult GROUP BY cases (Q6 by gender, Q7 by age decade) on TwoStep."""
    setting = build_adult_setting(0.5, n_train=200, n_query=300, seed=0)
    return RainDebugger(
        setting.database, "income", setting.X_train, setting.y_corrupted,
        [setting.gender_case, setting.age_case], method="twostep", rng=rng,
        ranker_kwargs={**TWOSTEP_KWARGS, **ranker_kwargs},
    )


def record_enumerations(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the ranker's enumerate_optima; log (max_solutions, optima found)."""
    calls = []
    enumerate_optima = rankers.enumerate_optima

    def recorded(program, max_solutions, **kwargs):
        solutions = enumerate_optima(program, max_solutions=max_solutions, **kwargs)
        calls.append((max_solutions, len(solutions)))
        return solutions

    monkeypatch.setattr(rankers, "enumerate_optima", recorded)
    return calls


class TestMultiCaseSession:
    # The removal order of enumerating all CAP optima of every case before
    # drawing any pick; every enumeration of this session reaches the cap.
    PINNED = [40, 63, 195, 17, 144, 62, 173, 133, 106, 121,
              162, 98, 142, 130, 4, 161, 123, 169, 8, 179]

    def test_removal_order_is_pinned(self):
        report = adult_session().run(max_removals=20, k_per_iteration=5)
        assert report.removal_order == self.PINNED
        for record in report.iterations:
            enumerated = record.diagnostics["optima_enumerated"]
            exhausted = record.diagnostics["enumeration_exhausted"]
            assert len(enumerated) == len(exhausted) == 2
            assert not any(exhausted)
            assert all(1 <= count <= CAP for count in enumerated)

    def test_each_case_enumerates_up_to_its_draw(self, monkeypatch):
        calls = record_enumerations(monkeypatch)
        adult_session(rng=0).run(max_removals=20, k_per_iteration=5)
        # A copy of the session rng replays the draws: one per case, plus a
        # redraw among the optima found when an enumeration runs out.
        mirror = np.random.default_rng(0)
        assert len(calls) == 8  # two cases in each of four iterations
        for max_solutions, found in calls:
            assert max_solutions == int(mirror.integers(CAP)) + 1
            if found < max_solutions:
                mirror.integers(found)
        assert sum(max_solutions for max_solutions, _ in calls) < CAP * len(calls)

    def test_failed_iteration_leaves_rng_untouched(self, monkeypatch):
        calls = record_enumerations(monkeypatch)
        enumerate_optima = rankers.enumerate_optima

        def second_case_times_out(program, max_solutions, **kwargs):
            if len(calls) == 1:
                raise ILPTimeoutError("budget exhausted on the second case")
            return enumerate_optima(program, max_solutions=max_solutions, **kwargs)

        monkeypatch.setattr(rankers, "enumerate_optima", second_case_times_out)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        debugger = adult_session(rng=rng, on_failure="raise")
        with pytest.raises(ILPTimeoutError):
            debugger.run(max_removals=5, k_per_iteration=5)
        assert len(calls) == 1  # the first case drew and enumerated
        assert rng.bit_generator.state == state


class TestPickWhenOptimaRunOut:
    """Exactly three optima under a cap of five: every pick is one of three."""

    SEEDS = range(300)
    # Binomial(300, 1/3) has standard deviation 0.027 in frequency; the
    # bound is three of them.
    BOUND = 0.08

    @staticmethod
    def three_optima() -> BinaryProgram:
        """min Σx subject to x0 + x1 + x2 = 1: three tied optima."""
        program = BinaryProgram()
        x = [program.add_var() for _ in range(3)]
        program.set_objective({i: 1.0 for i in x})
        program.add_constraint({i: 1.0 for i in x}, "=", 1.0)
        return program

    def test_each_optimum_is_picked_a_third_of_the_time(self):
        ranker = TwoStepRanker(ambiguity_cap=5)
        program = self.three_optima()
        picks = collections.Counter()
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            j = int(np.random.default_rng(seed).integers(5))
            chosen, count, ran_out = ranker._pick_optimum(program, rng)
            assert ran_out == (j >= 3)
            assert count == min(j + 1, 3)
            picks[int(np.argmax(chosen.values))] += 1
        assert sorted(picks) == [0, 1, 2]
        for optimum in range(3):
            assert abs(picks[optimum] / len(self.SEEDS) - 1 / 3) <= self.BOUND
