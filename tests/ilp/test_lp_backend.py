"""The persistent HiGHS solver vs. the scipy ``linprog`` oracle.

:func:`solve` and :func:`enumerate_optima` must return the same optimal
vertices as the seed's per-call ``linprog`` branch & bound
(``tests/oracles/solver.py``: :func:`solve_reference` /
:func:`enumerate_optima_reference`; both are HiGHS underneath), so optimum enumeration — and TwoStep's removal orders —
stay bit-identical to the seed.
"""

import numpy as np
import pytest

from repro.errors import ILPError, InfeasibleError
from repro.ilp import solver
from repro.ilp.model import BinaryProgram
from repro.ilp.solver import PersistentLP, _highs_core, enumerate_optima, solve

from oracles.solver import _lp_relaxation, enumerate_optima_reference, solve_reference

pytestmark = pytest.mark.skipif(
    _highs_core is None, reason="HiGHS bindings unavailable"
)


def flip_program(n=6, target=2):
    """Minimize flips subject to Σ x_i = target (highly degenerate)."""
    program = BinaryProgram()
    for index in range(n):
        program.add_var(f"x{index}")
    program.set_objective({index: 1.0 for index in range(n)})
    program.add_constraint({index: 1.0 for index in range(n)}, "=", float(target))
    return program


def mixed_program():
    program = BinaryProgram()
    for index in range(4):
        program.add_var(f"x{index}")
    program.set_objective({0: 2.0, 1: 1.0, 2: 3.0, 3: 1.0}, constant=0.5)
    program.add_constraint({0: 1.0, 1: 1.0}, ">=", 1.0)
    program.add_constraint({2: 1.0, 3: 1.0}, ">=", 1.0)
    program.add_constraint({0: 1.0, 2: 1.0, 3: -1.0}, "<=", 1.0)
    return program


class TestVertexParity:
    @pytest.mark.parametrize("fixed", [{}, {0: 1}, {1: 0, 3: 1}])
    def test_cold_persistent_matches_linprog(self, fixed):
        program = mixed_program()
        reference = _lp_relaxation(program, fixed)
        persistent = PersistentLP(program).solve_relaxation(fixed)
        assert (reference is None) == (persistent is None)
        if reference is not None:
            assert persistent[0] == pytest.approx(reference[0], abs=1e-8)
            np.testing.assert_allclose(persistent[1], reference[1], atol=1e-8)

    def test_bounds_restored_after_solve(self):
        program = mixed_program()
        lp = PersistentLP(program)
        lp.solve_relaxation({0: 1})
        no_pin = lp.solve_relaxation({})
        reference = _lp_relaxation(program, {})
        np.testing.assert_allclose(no_pin[1], reference[1], atol=1e-8)

    def test_infeasible_returns_none(self):
        program = BinaryProgram()
        program.add_var("x")
        program.add_constraint({0: 1.0}, ">=", 2.0)
        assert PersistentLP(program).solve_relaxation({}) is None


class TestReferenceOracle:
    def test_solve_agrees_with_linprog(self):
        program = mixed_program()
        fast = solve(program)
        slow = solve_reference(program)
        assert fast.objective == pytest.approx(slow.objective)
        np.testing.assert_array_equal(fast.values, slow.values)

    # A cap of 100 runs the enumeration to exhaustion: all C(6, 2) = 15
    # tied optima, ending on an infeasible cut re-solve.
    @pytest.mark.parametrize("cap,expected", [(10, 10), (100, 15)])
    def test_enumeration_sequence_identical(self, cap, expected):
        program = flip_program(n=6, target=2)
        fast = enumerate_optima(program, max_solutions=cap)
        slow = enumerate_optima_reference(program, max_solutions=cap)
        assert len(fast) == len(slow) == expected
        for a, b in zip(fast, slow):
            assert a.objective == pytest.approx(b.objective)
            np.testing.assert_array_equal(a.values, b.values)

    def test_infeasible_program_raises(self):
        program = BinaryProgram()
        program.add_var("x")
        program.add_constraint({0: 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleError):
            solve(program)


class TestBudgets:
    @pytest.mark.parametrize("node_limit", [0, -3])
    def test_solve_rejects_node_limit_below_one(self, node_limit):
        with pytest.raises(ILPError, match="node_limit"):
            solve(mixed_program(), node_limit=node_limit)

    @pytest.mark.parametrize("node_limit", [0, -3])
    def test_enumerate_rejects_node_limit_below_one(self, node_limit):
        with pytest.raises(ILPError, match="node_limit"):
            enumerate_optima(flip_program(), node_limit=node_limit)

    @pytest.mark.parametrize("max_solutions", [0, -3])
    def test_enumerate_rejects_max_solutions_below_one(self, max_solutions):
        with pytest.raises(ILPError, match="max_solutions"):
            enumerate_optima(flip_program(), max_solutions=max_solutions)

    def test_missing_highs_bindings_raise(self, monkeypatch):
        # No silent fallback to the linprog oracle.
        monkeypatch.setattr(solver, "_highs_core", None)
        with pytest.raises(ILPError, match="HiGHS"):
            solve(mixed_program())


class TestProgramPlumbing:
    def test_dense_constraint_matches_dict_form(self):
        sparse = flip_program()
        dense = flip_program()
        values = np.asarray([1.0, -1.0, 0.0, 2.0, 0.0, -1.0])
        sparse.add_constraint(
            {i: v for i, v in enumerate(values) if v != 0.0}, ">=", -1.0
        )
        dense.add_dense_constraint(values, ">=", -1.0)
        assert sparse.constraints[-1] == dense.constraints[-1]
        for a, b in zip(sparse.rows(), dense.rows()):
            np.testing.assert_array_equal(a, b)

    def test_clone_is_independent(self):
        program = flip_program()
        copy = program.clone()
        copy.add_constraint({0: 1.0}, "=", 1.0)
        assert len(copy.constraints) == len(program.constraints) + 1
        x = np.asarray([0, 1, 1, 0, 0, 0])
        assert program.is_feasible(x)
        assert not copy.is_feasible(x)

    def test_vectorized_feasibility(self):
        program = mixed_program()
        assert program.is_feasible(np.asarray([1, 0, 0, 1]))
        assert not program.is_feasible(np.asarray([0, 0, 0, 1]))
        program.fix(1, 1)
        assert not program.is_feasible(np.asarray([1, 0, 0, 1]))
