"""ILP substrate: model validation, B&B vs. brute force, optima enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ILPError, ILPTimeoutError, InfeasibleError
from repro.experiments.ilp_encode import solve_status
from repro.ilp import BinaryProgram, enumerate_optima, pick_solution, solve


def brute_force(program: BinaryProgram):
    """All optimal assignments by exhaustive enumeration."""
    best_value = None
    best: list[tuple] = []
    for bits in itertools.product((0, 1), repeat=program.n_vars):
        if not program.is_feasible(bits):
            continue
        value = program.objective_value(bits)
        if best_value is None or value < best_value - 1e-9:
            best_value = value
            best = [bits]
        elif abs(value - best_value) <= 1e-9:
            best.append(bits)
    return best_value, best


class TestModel:
    def test_variable_indexing(self):
        program = BinaryProgram()
        assert program.add_var("a") == 0
        assert program.add_var() == 1
        assert program.name(0) == "a"
        assert program.name(1) == "x1"

    def test_bad_sense_raises(self):
        program = BinaryProgram()
        program.add_var()
        with pytest.raises(ILPError, match="sense"):
            program.add_constraint({0: 1.0}, "==", 1.0)

    def test_out_of_range_index_raises(self):
        program = BinaryProgram()
        with pytest.raises(ILPError, match="range"):
            program.add_constraint({3: 1.0}, "<=", 1.0)

    def test_fix_validation(self):
        program = BinaryProgram()
        index = program.add_var()
        with pytest.raises(ILPError):
            program.fix(index, 2)

    def test_feasibility_check(self):
        program = BinaryProgram()
        a, b = program.add_var(), program.add_var()
        program.add_constraint({a: 1.0, b: 1.0}, "<=", 1.0)
        assert program.is_feasible([1, 0])
        assert not program.is_feasible([1, 1])

    def test_objective_value(self):
        program = BinaryProgram()
        a, b = program.add_var(), program.add_var()
        program.set_objective({a: 2.0, b: -1.0}, constant=5.0)
        assert program.objective_value([1, 1]) == 6.0

    @staticmethod
    def _grow(program, sync_each_step):
        for _ in range(5):
            program.add_var()
        steps = [
            lambda: program.add_constraint({0: 1.0, 3: -2.0}, "<=", 1.0),
            lambda: program.add_constraint({4: 0.5}, ">=", 0.25),
            lambda: program.add_constraint({}, "<=", 0.0),
            lambda: program.add_constraint({1: 1.0, 2: 1.0, 4: 1.0}, "=", 1.0),
            lambda: program.add_dense_constraint(
                np.asarray([0.0, -1.0, 1.0, 0.0, 1.0]), ">=", 0.0
            ),
            lambda: program.add_constraint({2: 3.0}, ">=", -1.0),
            lambda: program.add_constraint_block(
                np.asarray([0, 2, 3]),
                np.asarray([0, 1, 4]),
                np.asarray([1.0, 1.0, -1.0]),
                np.asarray([2, 0]),
                np.asarray([1.0, 0.0]),
            ),
            lambda: program.add_constraint({3: 1.0, 0: 1.0}, "=", 1.0),
        ]
        for step in steps:
            step()
            if sync_each_step:
                program.rows()
        return program

    def test_batched_rows_match_row_by_row(self):
        batched = self._grow(BinaryProgram(), sync_each_step=False)
        stepwise = self._grow(BinaryProgram(), sync_each_step=True)
        for a, b in zip(batched.rows(), stepwise.rows()):
            np.testing.assert_array_equal(a, b)
        starts, indices, values, lower, upper = batched.rows()
        inf = np.inf
        np.testing.assert_array_equal(starts, [0, 2, 3, 3, 6, 9, 10, 12, 13, 15])
        np.testing.assert_array_equal(
            indices, [0, 3, 4, 1, 2, 4, 1, 2, 4, 2, 0, 1, 4, 3, 0]
        )
        np.testing.assert_array_equal(
            values, [1, -2, 0.5, 1, 1, 1, -1, 1, 1, 3, 1, 1, -1, 1, 1]
        )
        np.testing.assert_array_equal(
            lower, [-inf, 0.25, -inf, 1, 0, -1, 1, -inf, 1]
        )
        np.testing.assert_array_equal(upper, [1, inf, 0, 1, inf, inf, 1, 0, 1])
        assert batched.constraints == stepwise.constraints
        assert batched.constraints[4].coeffs == ((1, -1.0), (2, 1.0), (4, 1.0))
        assert batched.constraints[4].sense == ">="

    def test_clone_of_dense_rows_is_independent(self):
        program = BinaryProgram()
        for _ in range(3):
            program.add_var()
        program.add_dense_constraint(np.asarray([1.0, 0.0, 1.0]), "<=", 1.0)
        copy = program.clone()
        copy.add_dense_constraint(np.asarray([0.0, 1.0, 1.0]), ">=", 1.0)
        assert program.n_constraints == 1
        assert copy.n_constraints == 2
        assert program.constraints[0] == copy.constraints[0]
        assert program.constraints[0].coeffs == ((0, 1.0), (2, 1.0))
        assert program.is_feasible([0, 0, 0])
        assert not copy.is_feasible([0, 0, 0])
        assert copy.is_feasible([0, 1, 0])

    def test_dense_constraint_bad_sense_raises(self):
        program = BinaryProgram()
        program.add_var()
        with pytest.raises(ILPError, match="sense"):
            program.add_dense_constraint(np.asarray([1.0]), "==", 1.0)
        assert program.n_constraints == 0


class TestSolver:
    def test_simple_cover(self):
        # min x0 + x1 + x2 s.t. x0 + x1 >= 1, x1 + x2 >= 1
        program = BinaryProgram()
        x = [program.add_var() for _ in range(3)]
        program.set_objective({i: 1.0 for i in x})
        program.add_constraint({x[0]: 1, x[1]: 1}, ">=", 1)
        program.add_constraint({x[1]: 1, x[2]: 1}, ">=", 1)
        solution = solve(program)
        assert solution.objective == pytest.approx(1.0)
        assert solution.values[x[1]] == 1

    def test_equality_constraint(self):
        program = BinaryProgram()
        x = [program.add_var() for _ in range(4)]
        program.set_objective({i: float(i + 1) for i in x})
        program.add_constraint({i: 1.0 for i in x}, "=", 2.0)
        solution = solve(program)
        assert solution.objective == pytest.approx(1 + 2)
        assert solution.values.sum() == 2

    def test_infeasible_raises(self):
        program = BinaryProgram()
        a = program.add_var()
        program.add_constraint({a: 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleError):
            solve(program)

    def test_fixed_vars_respected(self):
        program = BinaryProgram()
        a, b = program.add_var(), program.add_var()
        program.set_objective({a: 1.0, b: 1.0})
        program.add_constraint({a: 1.0, b: 1.0}, ">=", 1.0)
        program.fix(a, 0)
        solution = solve(program)
        assert solution.values[a] == 0
        assert solution.values[b] == 1

    def test_negative_objective_coefficients(self):
        program = BinaryProgram()
        a, b = program.add_var(), program.add_var()
        program.set_objective({a: -3.0, b: -1.0})
        program.add_constraint({a: 1.0, b: 1.0}, "<=", 1.0)
        solution = solve(program)
        assert solution.values[a] == 1 and solution.values[b] == 0

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        program = BinaryProgram()
        for _ in range(n):
            program.add_var()
        program.set_objective(
            {i: float(rng.integers(-3, 4)) for i in range(n)}
        )
        for _ in range(int(rng.integers(1, 4))):
            coeffs = {i: float(rng.integers(-2, 3)) for i in range(n)}
            sense = ["<=", ">=", "="][int(rng.integers(3))]
            rhs = float(rng.integers(-2, 4))
            program.add_constraint(coeffs, sense, rhs)
        expected_value, expected_solutions = brute_force(program)
        if expected_value is None:
            with pytest.raises(InfeasibleError):
                solve(program)
            return
        solution = solve(program)
        assert solution.objective == pytest.approx(expected_value, abs=1e-6)
        assert tuple(solution.values.tolist()) in {
            tuple(s) for s in expected_solutions
        }


class TestEnumeration:
    def count_program(self, n, k):
        """min #flips subject to: exactly k of n vars set (all start at 0)."""
        program = BinaryProgram()
        x = [program.add_var() for _ in range(n)]
        program.set_objective({i: 1.0 for i in x})
        program.add_constraint({i: 1.0 for i in x}, "=", float(k))
        return program

    def test_enumerates_all_optima(self):
        from math import comb

        program = self.count_program(5, 2)
        solutions = enumerate_optima(program, max_solutions=100)
        assert len(solutions) == comb(5, 2)
        unique = {tuple(s.values.tolist()) for s in solutions}
        assert len(unique) == comb(5, 2)
        for s in solutions:
            assert s.objective == pytest.approx(2.0)

    def test_enumeration_respects_cap(self):
        program = self.count_program(6, 3)
        solutions = enumerate_optima(program, max_solutions=4)
        assert len(solutions) == 4

    def test_capped_enumeration_is_a_prefix(self):
        # The first k optima do not depend on max_solutions: a capped run
        # returns, bit for bit, the head of a longer run.  C(6, 3) = 20
        # tied optima, so no cap below runs out of solutions.
        program = self.count_program(6, 3)
        cap = 8
        full = enumerate_optima(program, max_solutions=cap)
        assert len(full) == cap
        for k in range(1, cap + 1):
            capped = enumerate_optima(program, max_solutions=k)
            assert len(capped) == k
            for got, want in zip(capped, full[:k]):
                assert got.objective == want.objective
                assert got.values.dtype == want.values.dtype
                np.testing.assert_array_equal(got.values, want.values)

    def test_unique_solution(self):
        program = self.count_program(4, 4)
        solutions = enumerate_optima(program, max_solutions=10)
        assert len(solutions) == 1

    def test_enumeration_does_not_mutate_program(self):
        program = self.count_program(4, 2)
        n_constraints = len(program.constraints)
        enumerate_optima(program, max_solutions=10)
        assert len(program.constraints) == n_constraints

    def test_pick_solution_seeded(self):
        program = self.count_program(5, 2)
        solutions = enumerate_optima(program, max_solutions=100)
        a = pick_solution(solutions, np.random.default_rng(0))
        b = pick_solution(solutions, np.random.default_rng(0))
        assert np.array_equal(a.values, b.values)

    def test_pick_from_empty_raises(self):
        with pytest.raises(InfeasibleError):
            pick_solution([], np.random.default_rng(0))


def _triangle_cover(near_one: bool) -> BinaryProgram:
    """min x1 + x2 + x3 s.t. every pair covers: the LP root is 1.5 at all-½.

    With ``near_one`` a fourth variable is held at 1 - 1e-7 by the LP, which
    branch & bound treats as integral; its rounding makes every incumbent
    cost 1e-7 more than the relaxation bound it came from.
    """
    program = BinaryProgram()
    x = [program.add_var(f"x{i}") for i in range(4 if near_one else 3)]
    program.set_objective({index: 1.0 for index in x})
    for a, b in ((0, 1), (0, 2), (1, 2)):
        program.add_constraint({x[a]: 1.0, x[b]: 1.0}, ">=", 1.0)
    if near_one:
        program.add_constraint({x[3]: 1e7}, ">=", 1e7 - 1.0)
    return program


class TestBudget:
    def test_node_limit_one_cannot_prove_a_fractional_root(self):
        program = _triangle_cover(near_one=False)
        with pytest.raises(ILPTimeoutError, match="without an incumbent"):
            solve(program, node_limit=1)
        with pytest.raises(ILPTimeoutError):
            enumerate_optima(program, node_limit=1)
        assert solve_status(program, 1)[0] == "ILPTimeoutError"
        assert solve(program, node_limit=3).objective == 2.0

    def test_unproven_incumbent_is_marked_and_not_enumerated(self):
        program = _triangle_cover(near_one=True)
        # Node 1 branches the root; node 2 finds an incumbent of cost 3,
        # but node 3's bound (3 - 1e-7) still has to be explored.
        unproven = solve(program, node_limit=2)
        assert not unproven.proven
        assert unproven.objective == 3.0
        assert unproven.nodes_explored == 2
        with pytest.raises(ILPTimeoutError, match="without proving"):
            enumerate_optima(program, node_limit=2)
        # The experiments' status column tells it apart from an optimum.
        assert solve_status(program, 2)[0] == "unproven(obj=3)"
        assert solve_status(program, 3)[0] == "optimal(obj=3)"

        proven = solve(program, node_limit=3)
        assert proven.proven
        assert proven.nodes_explored == 3
        assert np.array_equal(proven.values, unproven.values)
        optima = enumerate_optima(program, node_limit=3)
        assert optima[0].proven and optima[0].objective == 3.0
