"""0-1 integer linear programs: variables, constraints, objective.

The TwoStep SQL step (Section 5.2) translates complaints + provenance into
an ILP à la Tiresias [Meliou & Suciu 2012].  The paper solves these with
Gurobi/CPLEX; this module provides the model representation and
:mod:`repro.ilp.solver` provides an exact branch-and-bound solver over
LP relaxations (one persistent HiGHS instance per program).

Constraints are additionally materialized as one CSR matrix
(:meth:`BinaryProgram.rows`), cached until the next mutation, so that
feasibility checks and LP-relaxation construction are array operations
rather than per-coefficient Python loops.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..errors import ILPError

SENSES = ("<=", ">=", "=")


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``Σ coeffs[i]·x_i  sense  rhs``."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise ILPError(f"constraint sense must be one of {SENSES}, got {self.sense!r}")


class BinaryProgram:
    """A minimization 0-1 ILP."""

    def __init__(self) -> None:
        self._names: list[str | None] = []
        self._name_blocks: list[tuple[int, int, str]] = []
        self._objective: dict[int, float] = {}
        self.objective_constant: float = 0.0
        # Bulk-appended rows live only in the CSR until someone asks for
        # Constraint objects; None marks a not-yet-materialized row.
        self._constraints: list[Constraint | None] = []
        self._n_lazy = 0
        self._fixed: dict[int, int] = {}
        self._objective_arrays: tuple[np.ndarray, np.ndarray] | None = None
        # Incremental CSR builder (constraints are append-only): amortized
        # growable arrays so rows() hands out views, never re-snapshots.
        self._csr_starts = np.zeros(16, dtype=np.int64)
        self._csr_indices = np.zeros(64, dtype=np.int64)
        self._csr_values = np.zeros(64, dtype=np.float64)
        self._csr_lower = np.zeros(16, dtype=np.float64)
        self._csr_upper = np.zeros(16, dtype=np.float64)
        self._csr_nnz = 0
        self._rows_built = 0

    # -- variables ---------------------------------------------------------------

    def add_var(self, name: str | None = None) -> int:
        index = len(self._names)
        self._names.append(name or f"x{index}")
        return index

    def add_vars(self, names: list[str]) -> range:
        """Bulk variable creation; returns the new index range."""
        first = len(self._names)
        self._names.extend(names)
        return range(first, len(self._names))

    def add_var_block(self, count: int, prefix: str = "z") -> range:
        """Bulk anonymous variable creation with lazily formatted names.

        The block's names are ``f"{prefix}{index}"``, materialized only if
        someone asks (solver diagnostics, repr) — the compiled ILP encoder
        allocates thousands of aux variables per program and the f-string
        per variable is measurable.
        """
        if count < 0:
            raise ILPError(f"variable block size must be >= 0, got {count}")
        first = len(self._names)
        self._names.extend([None] * count)
        if count:
            self._name_blocks.append((first, first + count, prefix))
        return range(first, first + count)

    def clone(self) -> "BinaryProgram":
        """A deep-enough copy sharing no mutable state with the original.

        Constraints are immutable, so the copy reuses them (and the already
        built CSR prefix) instead of re-validating every coefficient.
        """
        other = BinaryProgram()
        other._names = list(self._names)
        other._name_blocks = list(self._name_blocks)
        other._objective = dict(self._objective)
        other.objective_constant = self.objective_constant
        other._constraints = list(self._constraints)
        other._n_lazy = self._n_lazy
        other._fixed = dict(self._fixed)
        self._sync_rows_builder()  # materialize the CSR prefix, then copy it
        other._csr_starts = self._csr_starts.copy()
        other._csr_indices = self._csr_indices.copy()
        other._csr_values = self._csr_values.copy()
        other._csr_lower = self._csr_lower.copy()
        other._csr_upper = self._csr_upper.copy()
        other._csr_nnz = self._csr_nnz
        other._rows_built = self._rows_built
        return other

    @property
    def n_vars(self) -> int:
        return len(self._names)

    def name(self, index: int) -> str:
        name = self._names[index]
        if name is None:
            for start, end, prefix in self._name_blocks:
                if start <= index < end:
                    name = f"{prefix}{index}"
                    self._names[index] = name
                    break
        return name

    def fix(self, index: int, value: int) -> None:
        """Pin a variable to 0 or 1 (used for no-good style restrictions)."""
        if value not in (0, 1):
            raise ILPError(f"binary variable can only be fixed to 0/1, got {value}")
        self._fixed[index] = value

    @property
    def fixed(self) -> dict[int, int]:
        return dict(self._fixed)

    # -- objective / constraints ----------------------------------------------------

    def set_objective(self, coeffs: Mapping[int, float], constant: float = 0.0) -> None:
        self._validate_indices(coeffs)
        self._objective = {int(k): float(v) for k, v in coeffs.items() if v != 0.0}
        self.objective_constant = float(constant)
        self._objective_arrays = None

    @property
    def objective(self) -> dict[int, float]:
        return dict(self._objective)

    @property
    def n_constraints(self) -> int:
        """Row count without materializing lazily-held CSR rows."""
        return len(self._constraints)

    @property
    def constraints(self) -> list[Constraint]:
        """All constraints as :class:`Constraint` objects.

        Rows appended via :meth:`add_constraint_block` exist only in the
        CSR until first touched here; accessing this property materializes
        them (senses reconstructed from the row bounds).
        """
        if self._n_lazy:
            self._materialize_lazy_rows()
        return self._constraints

    def _materialize_lazy_rows(self) -> None:
        starts = self._csr_starts
        indices = self._csr_indices
        values = self._csr_values
        for row, constraint in enumerate(self._constraints):
            if constraint is not None:
                continue
            lower = self._csr_lower[row]
            upper = self._csr_upper[row]
            if lower == -np.inf:
                sense, rhs = "<=", upper
            elif upper == np.inf:
                sense, rhs = ">=", lower
            else:
                sense, rhs = "=", upper
            span = slice(starts[row], starts[row + 1])
            packed = tuple(zip(indices[span].tolist(), values[span].tolist()))
            self._constraints[row] = Constraint(packed, sense, float(rhs))
        self._n_lazy = 0

    def add_constraint(
        self, coeffs: Mapping[int, float], sense: str, rhs: float
    ) -> None:
        self._validate_indices(coeffs)
        packed = tuple(
            (int(index), float(coeff)) for index, coeff in coeffs.items() if coeff != 0.0
        )
        self._constraints.append(Constraint(packed, sense, float(rhs)))

    def add_constraint_block(
        self,
        starts: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        senses: np.ndarray,
        rhs: np.ndarray,
    ) -> None:
        """Append many constraints at once from CSR arrays.

        ``starts`` has one extra trailing entry (row ``i`` spans
        ``indices[starts[i]:starts[i+1]]``); ``senses`` holds small-int
        codes indexing :data:`SENSES` (0 = "<=", 1 = ">=", 2 = "=").
        Coefficients must already be packed (no explicit zeros) — callers
        are emitting machine-generated rows, not user input.  The rows land
        directly in the CSR builder; Constraint objects are materialized
        lazily on first access to :attr:`constraints`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        senses = np.asarray(senses)
        rhs = np.asarray(rhs, dtype=np.float64)
        n_rows = starts.shape[0] - 1
        if n_rows <= 0:
            if n_rows < 0:
                raise ILPError("constraint block needs at least the trailing start")
            return
        if senses.shape[0] != n_rows or rhs.shape[0] != n_rows:
            raise ILPError("constraint block arrays disagree on the row count")
        if int(starts[-1]) != indices.shape[0] or indices.shape[0] != values.shape[0]:
            raise ILPError("constraint block starts/indices/values disagree")
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self.n_vars
        ):
            raise ILPError(
                f"constraint block has variable indices outside [0, {self.n_vars})"
            )
        self._sync_rows_builder()
        self._reserve_rows(n_rows, indices.shape[0])
        nnz = self._csr_nnz
        self._csr_indices[nnz : nnz + indices.shape[0]] = indices
        self._csr_values[nnz : nnz + values.shape[0]] = values
        row = self._rows_built
        self._csr_starts[row + 1 : row + 1 + n_rows] = nnz + starts[1:]
        self._csr_lower[row : row + n_rows] = np.where(senses == 0, -np.inf, rhs)
        self._csr_upper[row : row + n_rows] = np.where(senses == 1, np.inf, rhs)
        self._csr_nnz = nnz + indices.shape[0]
        self._rows_built = row + n_rows
        self._constraints.extend([None] * n_rows)
        self._n_lazy += n_rows

    def _validate_indices(self, coeffs: Mapping[int, float]) -> None:
        for index in coeffs:
            if not 0 <= int(index) < self.n_vars:
                raise ILPError(
                    f"variable index {index} out of range [0, {self.n_vars})"
                )

    # -- evaluation -------------------------------------------------------------------

    def objective_value(self, x) -> float:
        if self._objective_arrays is None:
            self._objective_arrays = (
                np.asarray(list(self._objective.keys()), dtype=np.int64),
                np.asarray(list(self._objective.values()), dtype=np.float64),
            )
        indices, coeffs = self._objective_arrays
        return self.objective_constant + float(
            coeffs @ np.asarray(x, dtype=np.float64)[indices]
        )

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All constraints as one CSR: (starts, indices, values, lower, upper).

        ``starts`` has one extra trailing entry; row bounds encode the sense
        (``<=`` → (-inf, rhs), ``>=`` → (rhs, inf), ``=`` → (rhs, rhs)).
        Built incrementally: only constraints added since the last call are
        walked, and the returned arrays are views into amortized buffers.
        """
        self._sync_rows_builder()
        n_rows = self._rows_built
        return (
            self._csr_starts[: n_rows + 1],
            self._csr_indices[: self._csr_nnz],
            self._csr_values[: self._csr_nnz],
            self._csr_lower[:n_rows],
            self._csr_upper[:n_rows],
        )

    def _reserve_rows(self, extra_rows: int, extra_nnz: int) -> None:
        from ..utils import grow_array

        needed_rows = self._rows_built + extra_rows + 1
        for name in ("_csr_starts", "_csr_lower", "_csr_upper"):
            setattr(self, name, grow_array(getattr(self, name), needed_rows))
        needed_nnz = self._csr_nnz + extra_nnz
        for name in ("_csr_indices", "_csr_values"):
            setattr(self, name, grow_array(getattr(self, name), needed_nnz))

    def _push_row(
        self, indices: np.ndarray, values: np.ndarray, sense: str, rhs: float
    ) -> None:
        count = indices.shape[0]
        self._reserve_rows(1, count)
        nnz = self._csr_nnz
        self._csr_indices[nnz : nnz + count] = indices
        self._csr_values[nnz : nnz + count] = values
        self._csr_nnz = nnz + count
        row = self._rows_built
        self._csr_starts[row + 1] = self._csr_nnz
        if sense == "<=":
            self._csr_lower[row] = -np.inf
            self._csr_upper[row] = rhs
        elif sense == ">=":
            self._csr_lower[row] = rhs
            self._csr_upper[row] = np.inf
        else:
            self._csr_lower[row] = rhs
            self._csr_upper[row] = rhs
        self._rows_built = row + 1

    def _sync_rows_builder(self) -> None:
        # Everything below _rows_built is already in the CSR (including
        # lazy block rows, which are born there); the tail is always made
        # of real Constraint objects from add_constraint, packed in one go.
        pending = self._constraints[self._rows_built :]
        if not pending:
            return
        counts = np.fromiter(
            (len(constraint.coeffs) for constraint in pending),
            dtype=np.int64,
            count=len(pending),
        )
        nnz = int(counts.sum())
        indices = np.fromiter(
            (index for constraint in pending for index, _ in constraint.coeffs),
            dtype=np.int64,
            count=nnz,
        )
        values = np.fromiter(
            (coeff for constraint in pending for _, coeff in constraint.coeffs),
            dtype=np.float64,
            count=nnz,
        )
        self._reserve_rows(len(pending), nnz)
        first_nnz = self._csr_nnz
        self._csr_indices[first_nnz : first_nnz + nnz] = indices
        self._csr_values[first_nnz : first_nnz + nnz] = values
        self._csr_nnz = first_nnz + nnz
        row = self._rows_built
        stop = row + len(pending)
        self._csr_starts[row + 1 : stop + 1] = first_nnz + np.cumsum(counts)
        rhs = np.fromiter(
            (constraint.rhs for constraint in pending),
            dtype=np.float64,
            count=len(pending),
        )
        senses = np.asarray([constraint.sense for constraint in pending])
        self._csr_lower[row:stop] = np.where(senses == "<=", -np.inf, rhs)
        self._csr_upper[row:stop] = np.where(senses == ">=", np.inf, rhs)
        self._rows_built = stop

    def add_dense_constraint(
        self, values: np.ndarray, sense: str, rhs: float
    ) -> None:
        """Add a constraint from a dense coefficient vector (C-speed packing).

        Equivalent to ``add_constraint(dict(enumerate(values)), ...)`` but
        packs the row and extends the CSR builder without per-coefficient
        Python loops — the no-good cuts of the optimum enumeration are
        full-width rows, so this is their hot path.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.n_vars:
            raise ILPError(
                f"dense row has {values.shape[0]} coefficients for "
                f"{self.n_vars} variables"
            )
        if sense not in SENSES:
            raise ILPError(f"constraint sense must be one of {SENSES}, got {sense!r}")
        nonzero = np.flatnonzero(values)
        self._sync_rows_builder()
        self._push_row(nonzero, values[nonzero], sense, float(rhs))
        # Held in the CSR only, like add_constraint_block rows.
        self._constraints.append(None)
        self._n_lazy += 1

    def is_feasible(self, x, tol: float = 1e-6) -> bool:
        for index, value in self._fixed.items():
            if abs(float(x[index]) - value) > tol:
                return False
        if not self._constraints:
            return True
        starts, indices, values, lower, upper = self.rows()
        x = np.asarray(x, dtype=np.float64)
        products = values * x[indices]
        counts = np.diff(starts)
        lhs = np.zeros(counts.shape[0], dtype=np.float64)
        nonempty = counts > 0
        if products.size:
            lhs[nonempty] = np.add.reduceat(products, starts[:-1][nonempty])
        return bool(
            np.all(lhs <= upper + tol) and np.all(lhs >= lower - tol)
        )
