"""Exact branch & bound for 0-1 ILPs over LP relaxations.

This is the library's replacement for the paper's off-the-shelf solver
(Gurobi / CPLEX).  Best-first branch & bound; each node solves the LP
relaxation, prunes by bound, and branches on the most fractional variable.

Every relaxation is solved by one *persistent* HiGHS instance per program
(:class:`PersistentLP`) built from the program's cached CSR rows.  Branch
decisions only mutate column bounds and no-good cuts are appended as rows,
so a node re-solve skips the matrix rebuild and parse of a per-call LP.
The solver state is cleared before every solve, which keeps the returned
vertices — and therefore branching, optimum enumeration order, and
TwoStep's removal orders — bit-identical to the seed's per-node
``scipy.optimize.linprog`` solver (the same HiGHS under a per-call
wrapper), which survives as the test oracle ``tests/oracles/solver.py``.
The HiGHS bindings ship with scipy >= 1.15; without them
:class:`PersistentLP` raises :class:`~repro.errors.ILPError`.

Also provided:

- :func:`enumerate_optima` — the optimal solutions up to a cap, found by
  repeatedly adding *no-good cuts*, in an order that does not depend on
  the cap.  TwoStep uses it to emulate an opaque solver "picking one" of
  the tied minimal fixes (Section 5.2.2) as a seeded uniform choice,
  matching Theorem A.1's random-pick model: it draws the pick first and
  enumerates only up to it.
- a node/time budget: the paper itself reports TwoStep's ILP not finishing
  within 30 minutes on the mix-rate experiment, so hitting the budget is a
  *reportable outcome* (:class:`~repro.errors.ILPTimeoutError`), not a bug.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ILPError, ILPTimeoutError, InfeasibleError
from .model import BinaryProgram

try:  # HiGHS bindings bundled with scipy >= 1.15
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - environment without the bindings
    _highs_core = None

_INT_TOL = 1e-6


class PersistentLP:
    """One HiGHS instance per program: build once, mutate, re-solve cold.

    The 0-1 box and every constraint row are loaded a single time; branch
    & bound nodes only change column bounds (restored after each solve)
    and :func:`enumerate_optima` appends its objective pin and no-good
    cuts as new rows via :meth:`sync`.
    """

    def __init__(self, program: BinaryProgram) -> None:
        if _highs_core is None:
            raise ILPError("the HiGHS bindings are unavailable (scipy >= 1.15)")
        self.program = program
        n = program.n_vars
        self._highs = _highs_core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("threads", 1)
        self._highs.setOptionValue("random_seed", 0)
        cost = np.zeros(n)
        for index, coeff in program.objective.items():
            cost[index] = coeff
        self._base_lower = np.zeros(n)
        self._base_upper = np.ones(n)
        for index, value in program.fixed.items():
            self._base_lower[index] = float(value)
            self._base_upper[index] = float(value)
        starts, indices, values, lower, upper = program.rows()
        lp = _highs_core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = lower.shape[0]
        lp.col_cost_ = cost
        lp.col_lower_ = self._base_lower.copy()
        lp.col_upper_ = self._base_upper.copy()
        lp.row_lower_ = np.where(np.isneginf(lower), -_highs_core.kHighsInf, lower)
        lp.row_upper_ = np.where(np.isposinf(upper), _highs_core.kHighsInf, upper)
        lp.a_matrix_.format_ = _highs_core.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = starts
        lp.a_matrix_.index_ = indices.astype(np.int32)
        lp.a_matrix_.value_ = values
        if self._highs.passModel(lp) != _highs_core.HighsStatus.kOk:
            raise ILPError("HiGHS rejected the LP relaxation")
        self._n_rows_synced = lower.shape[0]

    def sync(self) -> None:
        """Append constraint rows added to the program since construction.

        All pending rows go down in one ``addRows`` call — the compiled
        encoder emits constraints in blocks of thousands, and per-row
        ``addRow`` round-trips through the bindings dominate otherwise.
        """
        starts, indices, values, lower, upper = self.program.rows()
        n_rows = lower.shape[0]
        first = self._n_rows_synced
        if n_rows == first:
            return
        lo = np.where(
            np.isneginf(lower[first:n_rows]), -_highs_core.kHighsInf, lower[first:n_rows]
        )
        hi = np.where(
            np.isposinf(upper[first:n_rows]), _highs_core.kHighsInf, upper[first:n_rows]
        )
        base = int(starts[first])
        span = slice(base, int(starts[n_rows]))
        status = self._highs.addRows(
            n_rows - first,
            np.asarray(lo, dtype=np.float64),
            np.asarray(hi, dtype=np.float64),
            int(starts[n_rows]) - base,
            (starts[first:n_rows] - base).astype(np.int32),
            indices[span].astype(np.int32),
            values[span],
        )
        if status != _highs_core.HighsStatus.kOk:
            raise ILPError("HiGHS rejected appended constraint rows")
        self._n_rows_synced = n_rows

    def solve_relaxation(
        self, extra_fixed: dict[int, int]
    ) -> tuple[float, np.ndarray] | None:
        """Solve with extra 0/1 pins; returns (objective, x) or None."""
        self.sync()
        columns = list(extra_fixed.items())
        for index, value in columns:
            self._highs.changeColBounds(int(index), float(value), float(value))
        try:
            # Cold solves reproduce the linprog oracle's vertices.
            self._highs.clearSolver()
            self._highs.run()
            status = self._highs.getModelStatus()
            if status != _highs_core.HighsModelStatus.kOptimal:
                return None
            x = np.asarray(self._highs.getSolution().col_value, dtype=np.float64)
            objective = float(self._highs.getInfo().objective_function_value)
            return objective + self.program.objective_constant, x
        finally:
            for index, _ in columns:
                self._highs.changeColBounds(
                    int(index),
                    float(self._base_lower[index]),
                    float(self._base_upper[index]),
                )


@dataclass
class ILPSolution:
    """An integral assignment with its objective value.

    ``proven`` is False when the node or time budget ran out before branch
    & bound could rule out a better assignment.
    """

    values: np.ndarray
    objective: float
    nodes_explored: int
    proven: bool = True


def solve(
    program: BinaryProgram,
    node_limit: int = 20000,
    time_limit: float | None = None,
    _relaxation=None,
) -> ILPSolution:
    """Minimize the program exactly (within the node/time budget).

    Each node's LP relaxation is a cold re-solve of one
    :class:`PersistentLP`; ``_relaxation`` lets :func:`enumerate_optima`
    share that instance across its cut re-solves.

    When the node or time budget runs out after an incumbent was found,
    that incumbent is returned with ``proven=False``.

    Raises:
        ILPError: ``node_limit`` is below 1.
        InfeasibleError: no feasible 0-1 point exists.
        ILPTimeoutError: budget exhausted before any incumbent was found.
    """
    _check_budget("node_limit", node_limit)
    relaxation = _relaxation or PersistentLP(program).solve_relaxation
    start = time.perf_counter()
    root = relaxation({})
    if root is None:
        raise InfeasibleError("LP relaxation is infeasible")

    counter = itertools.count()
    # Heap of (bound, tiebreak, fixed-assignments dict, relaxation solution)
    heap: list[tuple[float, int, dict[int, int], np.ndarray]] = [
        (root[0], next(counter), {}, root[1])
    ]
    best: ILPSolution | None = None
    nodes = 0

    while heap:
        bound, _, fixed, x = heapq.heappop(heap)
        if best is not None and bound >= best.objective - 1e-9:
            continue
        nodes += 1
        if nodes > node_limit or (
            time_limit is not None and time.perf_counter() - start > time_limit
        ):
            if best is not None:
                best.nodes_explored = nodes - 1
                best.proven = False
                return best
            raise ILPTimeoutError(
                f"branch & bound exhausted its budget after {nodes} nodes "
                "without an incumbent"
            )

        distance = np.minimum(x, 1.0 - x)
        fractional = np.flatnonzero(distance > _INT_TOL)
        if fractional.size == 0:
            candidate = np.round(x).astype(np.int8)
            if program.is_feasible(candidate):
                objective = program.objective_value(candidate)
                if best is None or objective < best.objective - 1e-9:
                    best = ILPSolution(candidate, objective, nodes)
            continue

        # Most fractional first; argmax keeps the reference tie-break
        # (lowest index among equally fractional variables).
        branch_var = int(fractional[np.argmax(distance[fractional])])
        for value in (0, 1):
            child_fixed = dict(fixed)
            child_fixed[branch_var] = value
            relaxed = relaxation(child_fixed)
            if relaxed is None:
                continue
            child_bound, child_x = relaxed
            if best is not None and child_bound >= best.objective - 1e-9:
                continue
            heapq.heappush(heap, (child_bound, next(counter), child_fixed, child_x))

    if best is None:
        raise InfeasibleError("no feasible 0-1 assignment exists")
    best.nodes_explored = nodes
    return best


def enumerate_optima(
    program: BinaryProgram,
    max_solutions: int = 100,
    node_limit: int = 20000,
    time_limit: float | None = None,
) -> list[ILPSolution]:
    """All optimal solutions, up to ``max_solutions``.

    Finds one optimum, then repeatedly adds a *no-good cut* excluding the
    last solution while constraining the objective to the optimal value.
    The list is a prefix of any longer enumeration of the same program (a
    higher ``max_solutions`` only appends), and a list shorter than
    ``max_solutions`` holds every optimum.  The cuts are appended to one
    live HiGHS model instead of being re-parsed from scratch on every
    enumeration step.

    The first optimum must be proven: pinning the objective to a value
    branch & bound could not certify would enumerate around a possibly
    suboptimal fix.  Later solutions need no proof, since the pin already
    makes every feasible point optimal.

    Raises:
        ILPError: ``max_solutions`` or ``node_limit`` is below 1.
        ILPTimeoutError: the budget ran out before the first optimum was
            found or proven.
    """
    _check_budget("max_solutions", max_solutions)
    _check_budget("node_limit", node_limit)
    # Work on a copy so the caller's program is untouched; one persistent
    # LP serves the base solve and every cut re-solve (the pin and cuts
    # are appended to the same live HiGHS model by sync()).
    restricted = program.clone()
    relaxation = PersistentLP(restricted).solve_relaxation
    first = solve(
        program,
        node_limit=node_limit,
        time_limit=time_limit,
        _relaxation=relaxation,
    )
    if not first.proven:
        raise ILPTimeoutError(
            f"branch & bound exhausted its budget after {first.nodes_explored} "
            f"nodes without proving its incumbent (objective {first.objective:g}) "
            "optimal"
        )
    solutions = [first]
    optimum = first.objective

    # Pin the objective to the optimal value.
    restricted.add_constraint(
        program.objective, "<=", optimum - program.objective_constant + 1e-6
    )

    while len(solutions) < max_solutions:
        last = solutions[-1].values
        # No-good cut: Σ_{i: last_i=1} (1 - x_i) + Σ_{i: last_i=0} x_i ≥ 1.
        ones = last > 0.5
        signs = np.where(ones, -1.0, 1.0)
        restricted.add_dense_constraint(
            signs, ">=", 1.0 - float(np.count_nonzero(ones))
        )
        try:
            nxt = solve(
                restricted,
                node_limit=node_limit,
                time_limit=time_limit,
                _relaxation=relaxation,
            )
        except InfeasibleError:
            break
        if nxt.objective > optimum + 1e-6:
            break
        solutions.append(nxt)
    return solutions


def _check_budget(name: str, value: int) -> None:
    if value < 1:
        raise ILPError(f"{name} must be at least 1, got {value}")


def pick_solution(
    solutions: list[ILPSolution], rng: np.random.Generator
) -> ILPSolution:
    """Model the opaque solver pick: uniform over the enumerated optima."""
    if not solutions:
        raise InfeasibleError("no solutions to pick from")
    return solutions[int(rng.integers(len(solutions)))]
