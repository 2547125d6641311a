"""Shared experiment harness: settings builders, runners, result tables.

Every reproduction experiment (one module per paper table/figure) returns an
:class:`ExperimentResult`: a list of printable rows plus named series
(recall curves etc.).  Benchmarks render these under ``benchmarks/out/`` and
assert the paper's qualitative *shape* (who wins, directionality), not the
absolute numbers — the substrate is a synthetic laptop-scale simulator, not
the authors' GPU testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..complaints import ComplaintCase, ValueComplaint
from ..core import RainDebugger
from ..core.metrics import auccr_normalized, recall_curve
from ..data import corrupt_where_label, make_dblp
from ..ml import LogisticRegression
from ..relational import Database, Executor, Relation, plan_sql

DEFAULT_METHODS = ("loss", "twostep", "holistic")


@dataclass
class ExperimentResult:
    """Printable result of one experiment."""

    name: str
    rows: list[dict] = field(default_factory=list)
    series: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def table(self) -> str:
        """Render rows as an aligned text table."""
        if not self.rows:
            return f"[{self.name}] (no rows)"
        headers = list(self.rows[0].keys())
        widths = {
            header: max(len(header), *(len(_fmt(row.get(header))) for row in self.rows))
            for header in headers
        }
        lines = [f"== {self.name} =="]
        lines.append("  ".join(header.ljust(widths[header]) for header in headers))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(header)).ljust(widths[header]) for header in headers)
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.txt"
        with open(path, "w") as handle:
            handle.write(self.table() + "\n")
            for key, values in self.series.items():
                handle.write(f"series {key}: {np.round(np.asarray(values, dtype=float), 4).tolist()}\n")
        return path

    def row_lookup(self, **filters) -> dict:
        """The unique row matching all ``filters`` (exact equality)."""
        matches = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in filters.items())
        ]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} rows match {filters} in {self.name}")
        return matches[0]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# DBLP setting (Sections 6.2, 6.6 substrate)
# ---------------------------------------------------------------------------


@dataclass
class DBLPSetting:
    """A corrupted DBLP training setup with its count query + complaint."""

    database: Database
    model: LogisticRegression
    model_name: str
    X_train: np.ndarray
    y_corrupted: np.ndarray
    y_clean: np.ndarray
    corrupted_indices: np.ndarray
    case: ComplaintCase
    query: str
    true_count: int
    X_query: np.ndarray
    y_query: np.ndarray


def build_dblp_setting(
    corruption_rate: float,
    n_train: int = 400,
    n_query: int = 300,
    seed: int = 0,
    l2: float = 1e-3,
) -> DBLPSetting:
    """DBLP: flip ``corruption_rate`` of match labels, complain about Q1's count.

    Mirrors Section 6.2: query ``SELECT COUNT(*) FROM DBLP WHERE
    predict(*) = 'match'`` with an equality value complaint at the
    ground-truth count.
    """
    ds = make_dblp(n_train=n_train, n_query=n_query, seed=seed)
    corruption = corrupt_where_label(
        ds.y_train, "match", "nonmatch", corruption_rate, rng=seed + 1
    )
    model = LogisticRegression(ds.classes, n_features=ds.X_train.shape[1], l2=l2)
    model.fit(ds.X_train, corruption.y_corrupted, warm_start=False)

    database = Database()
    database.add_relation(Relation("dblp", {"features": ds.X_query}))
    database.add_model("er", model)

    query = "SELECT COUNT(*) FROM dblp WHERE predict(*) = 'match'"
    true_count = int(np.sum(ds.y_query == "match"))
    case = ComplaintCase(
        query,
        [ValueComplaint(column="count", op="=", value=true_count, row_index=0)],
    )
    return DBLPSetting(
        database=database,
        model=model,
        model_name="er",
        X_train=ds.X_train,
        y_corrupted=corruption.y_corrupted,
        y_clean=ds.y_train,
        corrupted_indices=corruption.corrupted_indices,
        case=case,
        query=query,
        true_count=true_count,
        X_query=ds.X_query,
        y_query=ds.y_query,
    )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_method(
    setting_database: Database,
    model_name: str,
    X_train: np.ndarray,
    y_train: np.ndarray,
    cases: list[ComplaintCase],
    method: str,
    max_removals: int,
    k_per_iteration: int = 10,
    seed: int = 0,
    damping: float = 1e-4,
    ranker_kwargs: dict | None = None,
    reset_params: np.ndarray | None = None,
    cg_max_iter: int | None = None,
):
    """Run one approach; optionally reset the shared model's params first.

    The model object inside the database is shared across approaches within
    an experiment, so each run restores the initial fitted parameters before
    its own train-rank-fix loop (warm starts then proceed from there).
    """
    model = setting_database.model(model_name)
    if reset_params is not None:
        model.set_params(reset_params)
    debugger = RainDebugger(
        setting_database,
        model_name,
        X_train,
        y_train,
        cases,
        method=method,
        damping=damping,
        rng=seed,
        ranker_kwargs=ranker_kwargs or {},
        cg_max_iter=cg_max_iter,
    )
    return debugger.run(max_removals=max_removals, k_per_iteration=k_per_iteration)


def compare_methods(
    database: Database,
    model_name: str,
    X_train: np.ndarray,
    y_train: np.ndarray,
    cases: list[ComplaintCase],
    corrupted_indices: np.ndarray,
    methods=DEFAULT_METHODS,
    max_removals: int | None = None,
    k_per_iteration: int = 10,
    seed: int = 0,
    damping: float = 1e-4,
    ranker_kwargs_by_method: dict | None = None,
    cg_max_iter: int | None = None,
) -> dict[str, dict]:
    """Run several approaches on one setting; returns per-method summaries."""
    ranker_kwargs_by_method = ranker_kwargs_by_method or {}
    if max_removals is None:
        max_removals = int(len(corrupted_indices))
    model = database.model(model_name)
    initial_params = model.get_params()
    out: dict[str, dict] = {}
    for method in methods:
        report = run_method(
            database,
            model_name,
            X_train,
            y_train,
            cases,
            method,
            max_removals=max_removals,
            k_per_iteration=k_per_iteration,
            seed=seed,
            damping=damping,
            ranker_kwargs=ranker_kwargs_by_method.get(method),
            reset_params=initial_params,
            cg_max_iter=cg_max_iter,
        )
        curve = recall_curve(report.removal_order, corrupted_indices)
        out[method] = {
            "report": report,
            "recall_curve": curve,
            "auccr": auccr_normalized(curve),
        }
    model.set_params(initial_params)
    return out


def execute_sql(database: Database, sql: str, debug: bool = True):
    """Parse + plan + execute in one call (experiment convenience)."""
    return Executor(database).execute(plan_sql(sql, database), debug=debug)
