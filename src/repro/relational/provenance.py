"""Inference sites and the fold rules of provenance polynomials.

The debug-mode executor (:mod:`repro.relational.executor`) runs a Query 2.0
query *symbolically* with respect to the embedded model's predictions: every
deterministic predicate is evaluated concretely against the queried data,
while every predicate that depends on ``M.predict(...)`` is recorded as a
boolean expression over *prediction atoms*, and every aggregate cell as a
numeric polynomial over them (the boolean provenance of probabilistic
databases [Dalvi & Suciu 2004; Green et al. 2007] and the aggregate
provenance of [Amsterdamer et al. 2011]).  Both are node ids in one
:class:`~repro.relational.compile.NodePool`.

A prediction atom states "the model predicts class ``label`` for inference
site ``site_id``".  Inference sites are deduplicated per (model, base
relation, base row) by :class:`SiteRegistry`, so a self-join or a model
reused in two expressions shares atoms, exactly as required by the paper
(Section 3.1, "the query can use the same model in multiple expressions").

Constructors fold constants eagerly so deterministic sub-predicates
disappear from the polynomial and the remaining expression mentions only
genuine prediction atoms.  :class:`AndFolding` and :class:`NumFolding`
state those folds once, for every representation that applies them: the
ILP encoder (:mod:`repro.ilp.encode`) over pool nodes, and the seed's
expression trees, which survive as the test oracle
``tests/oracles/provenance.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Inference sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InferenceSite:
    """One model inference over one base-relation row.

    Attributes:
        site_id: Dense integer id, unique within a query execution.
        model_name: Name of the model in the model registry.
        relation_name: Name of the *base* relation (not the alias), so that
            self-joins share sites.
        row_id: Row id within the base relation.
    """

    site_id: int
    model_name: str
    relation_name: str
    row_id: int

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.model_name, self.relation_name, self.row_id)


class SiteRegistry:
    """Deduplicating registry of inference sites for one query execution.

    Sites are stored columnar: contiguous *runs* of site ids share one
    (model, relation) pair, with a dense ``row_id -> site_id`` map per pair
    for O(1) vectorized interning (:meth:`intern_batch`).  The
    :class:`InferenceSite` objects of the original API are materialized
    lazily — hot paths only ever touch the integer arrays.
    """

    def __init__(self) -> None:
        # One (start_site_id, model, relation) record per contiguous run.
        self._runs: list[tuple[int, str, str]] = []
        self._run_rows: list[np.ndarray] = []
        self._n = 0
        self._dense: dict[tuple[str, str], np.ndarray] = {}
        self._cache: dict[int, InferenceSite] = {}

    def _dense_for(
        self, model_name: str, relation_name: str, min_size: int
    ) -> np.ndarray:
        from ..utils import grow_array  # local import: utils is a leaf module

        key = (model_name, relation_name)
        table = self._dense.get(key)
        if table is None:
            table = np.full(0, -1, dtype=np.int64)
        table = grow_array(table, min_size, fill=-1)
        self._dense[key] = table
        return table

    def intern_batch(
        self, model_name: str, relation_name: str, row_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Intern many rows at once.

        Returns ``(site_ids, new_rows, first_new_site_id)`` where
        ``new_rows`` are the (sorted, unique) base rows that had no site
        yet; their sites are ``first_new_site_id + arange(len(new_rows))``.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size == 0:
            return row_ids.copy(), row_ids.copy(), self._n
        table = self._dense_for(model_name, relation_name, int(row_ids.max()) + 1)
        sites = table[row_ids]
        first_new = self._n
        missing = sites < 0
        if np.any(missing):
            new_rows = np.unique(row_ids[missing])
            table[new_rows] = np.arange(
                self._n, self._n + new_rows.size, dtype=np.int64
            )
            self._runs.append((self._n, model_name, relation_name))
            self._run_rows.append(new_rows)
            self._n += new_rows.size
            sites = table[row_ids]
        else:
            new_rows = np.empty(0, dtype=np.int64)
        return sites, new_rows, first_new

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return (self[site_id] for site_id in range(self._n))

    def __getitem__(self, site_id: int) -> InferenceSite:
        site_id = int(site_id)
        site = self._cache.get(site_id)
        if site is None:
            if not 0 <= site_id < self._n:
                raise IndexError(f"site id {site_id} out of range [0, {self._n})")
            run_index = _run_of(self._runs, site_id)
            start, model_name, relation_name = self._runs[run_index]
            row_id = int(self._run_rows[run_index][site_id - start])
            site = InferenceSite(site_id, model_name, relation_name, row_id)
            self._cache[site_id] = site
        return site

    @property
    def sites(self) -> list[InferenceSite]:
        return [self[site_id] for site_id in range(self._n)]

    def runs(self) -> Iterable[tuple[int, str, str, np.ndarray]]:
        """Yield ``(start_site_id, model, relation, row_ids)`` per run."""
        for (start, model_name, relation_name), rows in zip(
            self._runs, self._run_rows
        ):
            yield start, model_name, relation_name, rows

    def model_names(self) -> set[str]:
        """Distinct model names across all sites (no object materialization)."""
        return {model_name for _, model_name, _ in self._runs}


def _run_of(runs: Sequence[tuple[int, str, str]], site_id: int) -> int:
    """Index of the run containing ``site_id`` (runs start sorted)."""
    low, high = 0, len(runs) - 1
    while low < high:
        mid = (low + high + 1) // 2
        if runs[mid][0] <= site_id:
            low = mid
        else:
            high = mid - 1
    return low


# ---------------------------------------------------------------------------
# Splice-and-fold rules
# ---------------------------------------------------------------------------
#
# A conjunction, sum or product normalizes as it is built: a nested one
# splices into its parent and constants fold.  The ILP encoder
# (``repro.ilp.encode``) applies these folds over compiled pool nodes, and
# the oracle's expression trees as they are constructed, so each rule is
# written once here and a subclass only says how its representation spells
# constants and operators.


class AndFolding:
    """``and_``'s rule: FALSE absorbs, TRUE drops, nested conjunctions splice.

    Subclasses set ``true``/``false`` and define ``is_true(x)``,
    ``is_false(x)``, ``and_children(x)`` (a conjunction's children, else
    ``None``) and ``make_and(children)``.
    """

    def conjunction(self, children: Iterable):
        flat: list = []
        for child in children:
            if self.is_false(child):
                return self.false
            if self.is_true(child):
                continue
            spliced = self.and_children(child)
            if spliced is None:
                flat.append(child)
            else:
                flat.extend(spliced)
        if not flat:
            return self.true
        if len(flat) == 1:
            return flat[0]
        return self.make_and(flat)


class NumFolding:
    """``add_``/``mul_``'s rules: nested sums (products) splice, constants fold.

    A sum keeps its folded constant last and drops a zero; a product keeps
    it first, drops a one, and folds to the constant 0 on a zero factor.
    Subclasses define ``const(value)``, ``const_value(x)`` (a constant's
    value, else ``None``), ``sum_terms(x)``/``product_factors(x)`` (the
    operands of a sum/product, else ``None``), ``make_sum(terms)`` and
    ``make_product(factors)``.
    """

    def sum(self, children: Iterable):
        total = 0.0
        rest: list = []
        for child in children:
            value = self.const_value(child)
            if value is not None:
                total += value
                continue
            spliced = self.sum_terms(child)
            if spliced is None:
                rest.append(child)
            else:
                rest.extend(spliced)
        if total != 0.0 or not rest:
            rest.append(self.const(total))
        return rest[0] if len(rest) == 1 else self.make_sum(rest)

    def product(self, children: Iterable):
        total = 1.0
        rest: list = []
        for child in children:
            value = self.const_value(child)
            if value is not None:
                total *= value
                continue
            spliced = self.product_factors(child)
            if spliced is None:
                rest.append(child)
            else:
                rest.extend(spliced)
        if total == 0.0:
            return self.const(0.0)
        if total != 1.0 or not rest:
            rest.insert(0, self.const(total))
        return rest[0] if len(rest) == 1 else self.make_product(rest)

    def weighted_sum(self, coeffs: Sequence[float], terms: Sequence):
        """``Σ coeff·term``, a coefficient of 1 elided (an ``OP_ADD`` node)."""
        return self.sum(
            [
                term if coeff == 1.0 else self.product([self.const(coeff), term])
                for coeff, term in zip(coeffs, terms)
            ]
        )
