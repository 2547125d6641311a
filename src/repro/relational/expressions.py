"""The expression language of Query 2.0 plans.

Expressions evaluate *concretely* (numpy arrays, one value per tuple) and,
for the debug-mode executor, *symbolically* as node ids in the runtime's
:class:`~repro.relational.compile.NodePool`:

- boolean expressions produce per-tuple existence conditions in which
  deterministic sub-predicates are folded to TRUE/FALSE and model-dependent
  comparisons become prediction atoms;
- numeric expressions (aggregate arguments) produce per-tuple provenance
  polynomials.

The seed's tree-building forms (``symbolic_bool``/``symbolic_num`` over
the expression trees of ``tests/oracles/provenance.py``) survive as the
test oracle ``tests/oracles/expressions.py``.

``M.predict(...)`` is the only source of uncertainty: the queried data is
trusted (the paper's standing assumption), so everything not reachable from
a :class:`ModelPredict` node folds to constants.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from ..errors import QueryError, UnsupportedQueryError
from .context import QueryRuntime, TupleBatch

_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
}


class Expr:
    """Base class for all expressions."""

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        """Concrete per-tuple values (models evaluated through the cache)."""
        raise NotImplementedError

    def depends_on_model(self) -> bool:
        """True if any :class:`ModelPredict` occurs in this subtree."""
        return any(child.depends_on_model() for child in self.children())

    def children(self) -> Sequence["Expr"]:
        return ()

    def referenced_columns(self) -> set[str]:
        out: set[str] = set()
        for child in self.children():
            out |= child.referenced_columns()
        return out

    # -- symbolic (node-emitting) interfaces, overridden where meaningful ----

    def symbolic_bool_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        """Per-tuple boolean provenance as pool node ids (compiled path)."""
        if self.depends_on_model():
            raise UnsupportedQueryError(
                f"cannot build boolean provenance for {self!r}",
                feature=type(self).__name__,
            )
        values = np.asarray(self.eval(batch, runtime), dtype=bool)
        return runtime.pool.const_bool(values)

    def symbolic_num_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        """Per-tuple numeric provenance as pool node ids (compiled path)."""
        if self.depends_on_model():
            raise UnsupportedQueryError(
                f"cannot build numeric provenance for {self!r}",
                feature=type(self).__name__,
            )
        values = np.asarray(self.eval(batch, runtime), dtype=float)
        return runtime.pool.const_num(values)


class Col(Expr):
    """A column reference, optionally qualified (``alias.column``)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        return batch.values(self.name)

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"Col({self.name!r})"


class Const(Expr):
    """A literal constant."""

    def __init__(self, value) -> None:
        self.value = value

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        return np.full(len(batch), self.value)

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Arith(Expr):
    """Binary arithmetic: ``+ - * / **``."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITHMETIC:
            raise QueryError(f"unsupported arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        left = np.asarray(self.left.eval(batch, runtime), dtype=float)
        right = np.asarray(self.right.eval(batch, runtime), dtype=float)
        return _ARITHMETIC[self.op](left, right)

    def symbolic_num_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        if not self.depends_on_model():
            return super().symbolic_num_nodes(batch, runtime)
        pool = runtime.pool
        left = self.left.symbolic_num_nodes(batch, runtime)
        right = self.right.symbolic_num_nodes(batch, runtime)
        n = left.shape[0]
        if self.op in ("+", "-"):
            child_flat = np.empty(2 * n, dtype=np.int64)
            child_flat[0::2] = left
            child_flat[1::2] = right
            coeffs = np.empty(2 * n, dtype=np.float64)
            coeffs[0::2] = 1.0
            coeffs[1::2] = 1.0 if self.op == "+" else -1.0
            offsets = np.arange(n + 1, dtype=np.int64) * 2
            return pool.add_segments(coeffs, child_flat, offsets)
        if self.op == "*":
            return pool.mul2(left, right)
        if self.op == "/":
            return pool.div2(left, right)
        raise UnsupportedQueryError(
            f"operator {self.op!r} over model predictions is not supported",
            feature="arith-over-predict",
        )

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class ModelPredict(Expr):
    """``model.predict(features)`` over a feature column of one relation."""

    def __init__(self, model_name: str, features: Col) -> None:
        if not isinstance(features, Col):
            raise UnsupportedQueryError(
                "predict(...) takes a single feature-column reference",
                feature="predict-arg",
            )
        self.model_name = model_name
        self.features = features

    def children(self) -> Sequence[Expr]:
        return (self.features,)

    def depends_on_model(self) -> bool:
        return True

    def _site_inputs(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> tuple[str, np.ndarray, np.ndarray]:
        """(base relation name, base row ids, feature array) for the batch."""
        alias = batch.alias_of_column(self.features.name)
        relation_name = batch.alias_relations[alias]
        row_ids = batch.alias_row_ids[alias]
        features = batch.values(self.features.name)
        return relation_name, row_ids, features

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        relation_name, row_ids, features = self._site_inputs(batch, runtime)
        return runtime.predict(self.model_name, relation_name, row_ids, features)

    def site_ids(self, batch: TupleBatch, runtime: QueryRuntime) -> list[int]:
        """Intern one inference site per tuple; triggers prediction caching."""
        relation_name, row_ids, features = self._site_inputs(batch, runtime)
        # Populate the prediction cache so sites always have concrete values.
        runtime.predict(self.model_name, relation_name, row_ids, features)
        return runtime.intern_sites(
            self.model_name, relation_name, row_ids, features
        ).tolist()

    def symbolic_num_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        classes = runtime.model_classes(self.model_name)
        try:
            class_values = np.asarray([float(label) for label in classes])
        except (TypeError, ValueError) as exc:
            raise UnsupportedQueryError(
                f"model {self.model_name!r} has non-numeric classes; its "
                "predictions cannot appear in an arithmetic context",
                feature="predict-as-number",
            ) from exc
        pool = runtime.pool
        site_ids = np.asarray(self.site_ids(batch, runtime), dtype=np.int64)
        n, k = site_ids.shape[0], len(classes)
        label_ids = pool.intern_labels(np.asarray(classes, dtype=object))
        atoms = pool.atoms(np.repeat(site_ids, k), np.tile(label_ids, n))
        offsets = np.arange(n + 1, dtype=np.int64) * k
        return pool.add_segments(np.tile(class_values, n), atoms, offsets)

    def __repr__(self) -> str:
        return f"{self.model_name}.predict({self.features.name})"


class Cmp(Expr):
    """Comparison; the bridge between predictions and boolean provenance."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARATORS:
            raise QueryError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        left = self.left.eval(batch, runtime)
        right = self.right.eval(batch, runtime)
        return np.asarray(_COMPARATORS[self.op](left, right), dtype=bool)

    def symbolic_bool_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        left_model = self.left.depends_on_model()
        right_model = self.right.depends_on_model()
        if not left_model and not right_model:
            return super().symbolic_bool_nodes(batch, runtime)
        if isinstance(self.left, ModelPredict) and not right_model:
            return self._predict_vs_values_nodes(
                self.left, self.right, self.op, batch, runtime
            )
        if isinstance(self.right, ModelPredict) and not left_model:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(self.op, self.op)
            return self._predict_vs_values_nodes(
                self.right, self.left, flipped, batch, runtime
            )
        if isinstance(self.left, ModelPredict) and isinstance(self.right, ModelPredict):
            return self._predict_vs_predict_nodes(batch, runtime)
        raise UnsupportedQueryError(
            f"comparison {self!r} mixes predictions into arithmetic; "
            "only direct comparisons of predict(...) are supported in WHERE",
            feature="cmp-over-predict",
        )

    def _predict_vs_values_nodes(
        self,
        predict: ModelPredict,
        other: Expr,
        op: str,
        batch: TupleBatch,
        runtime: QueryRuntime,
    ) -> np.ndarray:
        pool = runtime.pool
        classes = runtime.model_classes(predict.model_name)
        site_ids = np.asarray(predict.site_ids(batch, runtime), dtype=np.int64)
        values = np.asarray(other.eval(batch, runtime))
        compare = _COMPARATORS[op]
        n, k = site_ids.shape[0], len(classes)
        # matches[row, class]: does predicting this class satisfy the filter?
        matches = np.zeros((n, k), dtype=bool)
        for column, label in enumerate(classes):
            matches[:, column] = _safe_compare_array(compare, label, values)
        from .compile import TRUE_NODE

        label_ids = pool.intern_labels(np.asarray(classes, dtype=object))
        all_true = matches.all(axis=1)
        # Exhaustive rows fold to TRUE outright; build atoms only for the rest.
        matches[all_true] = False
        flat = matches.ravel()
        atoms = pool.atoms(
            np.repeat(site_ids, k)[flat], np.tile(label_ids, n)[flat]
        )
        offsets = np.concatenate([[0], np.cumsum(matches.sum(axis=1))]).astype(np.int64)
        out = pool.or_segments(atoms, offsets)
        out[all_true] = TRUE_NODE  # exhaustive classes: always satisfied
        return out

    def _predict_vs_predict_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        from .compile import TRUE_NODE

        pool = runtime.pool
        left: ModelPredict = self.left  # type: ignore[assignment]
        right: ModelPredict = self.right  # type: ignore[assignment]
        left_classes = runtime.model_classes(left.model_name)
        right_classes = runtime.model_classes(right.model_name)
        left_sites = np.asarray(left.site_ids(batch, runtime), dtype=np.int64)
        right_sites = np.asarray(right.site_ids(batch, runtime), dtype=np.int64)
        compare = _COMPARATORS[self.op]
        out = np.empty(left_sites.shape[0], dtype=np.int64)

        same = left_sites == right_sites
        if np.any(same):
            # predict(x) op predict(x): one shared site per row.
            matching = [c for c in left_classes if _safe_compare(compare, c, c)]
            if len(matching) == len(left_classes):
                out[same] = TRUE_NODE
            else:
                sites = left_sites[same]
                label_ids = pool.intern_labels(np.asarray(matching, dtype=object))
                k = len(matching)
                atoms = pool.atoms(np.repeat(sites, k), np.tile(label_ids, sites.shape[0]))
                offsets = np.arange(sites.shape[0] + 1, dtype=np.int64) * k
                out[same] = pool.or_segments(atoms, offsets)
        diff = ~same
        if np.any(diff):
            pairs = [
                (lc, rc)
                for lc in left_classes
                for rc in right_classes
                if _safe_compare(compare, lc, rc)
            ]
            n_diff = int(np.count_nonzero(diff))
            if not pairs:
                offsets = np.zeros(n_diff + 1, dtype=np.int64)
                out[diff] = pool.or_segments(np.empty(0, dtype=np.int64), offsets)
            else:
                k = len(pairs)
                left_label_ids = pool.intern_labels(
                    np.asarray([lc for lc, _ in pairs], dtype=object)
                )
                right_label_ids = pool.intern_labels(
                    np.asarray([rc for _, rc in pairs], dtype=object)
                )
                left_atoms = pool.atoms(
                    np.repeat(left_sites[diff], k),
                    np.tile(left_label_ids, n_diff),
                )
                right_atoms = pool.atoms(
                    np.repeat(right_sites[diff], k),
                    np.tile(right_label_ids, n_diff),
                )
                conj = pool.and2(left_atoms, right_atoms)
                offsets = np.arange(n_diff + 1, dtype=np.int64) * k
                out[diff] = pool.or_segments(conj, offsets)
        return out

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _safe_compare(compare, left, right) -> bool:
    try:
        return bool(compare(left, right))
    except TypeError:
        return False


def _safe_compare_array(compare, label, values: np.ndarray) -> np.ndarray:
    """Vectorized ``_safe_compare(compare, label, value)`` over a column."""
    try:
        result = np.asarray(compare(label, values))
        if result.shape == values.shape and result.dtype == np.bool_:
            return result
    except TypeError:
        pass
    # numpy raised on, or collapsed, an incomparable pairing; fall back to
    # the per-element safe comparison (matching the tree oracle, which
    # folds only the genuinely incomparable elements to False).
    return np.asarray(
        [_safe_compare(compare, label, value) for value in values.tolist()],
        dtype=bool,
    )


class BoolAnd(Expr):
    """N-ary conjunction."""

    def __init__(self, children: Sequence[Expr]) -> None:
        self._children = tuple(children)
        if not self._children:
            raise QueryError("AND needs at least one operand")

    def children(self) -> Sequence[Expr]:
        return self._children

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        result = np.ones(len(batch), dtype=bool)
        for child in self._children:
            result &= np.asarray(child.eval(batch, runtime), dtype=bool)
        return result

    def symbolic_bool_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        parts = [child.symbolic_bool_nodes(batch, runtime) for child in self._children]
        flat = np.stack(parts, axis=1).ravel()
        offsets = np.arange(len(batch) + 1, dtype=np.int64) * len(parts)
        return runtime.pool.and_segments(flat, offsets)

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self._children)) + ")"


class BoolOr(Expr):
    """N-ary disjunction."""

    def __init__(self, children: Sequence[Expr]) -> None:
        self._children = tuple(children)
        if not self._children:
            raise QueryError("OR needs at least one operand")

    def children(self) -> Sequence[Expr]:
        return self._children

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        result = np.zeros(len(batch), dtype=bool)
        for child in self._children:
            result |= np.asarray(child.eval(batch, runtime), dtype=bool)
        return result

    def symbolic_bool_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        parts = [child.symbolic_bool_nodes(batch, runtime) for child in self._children]
        flat = np.stack(parts, axis=1).ravel()
        offsets = np.arange(len(batch) + 1, dtype=np.int64) * len(parts)
        return runtime.pool.or_segments(flat, offsets)

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self._children)) + ")"


class BoolNot(Expr):
    """Negation."""

    def __init__(self, child: Expr) -> None:
        self.child = child

    def children(self) -> Sequence[Expr]:
        return (self.child,)

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        return ~np.asarray(self.child.eval(batch, runtime), dtype=bool)

    def symbolic_bool_nodes(
        self, batch: TupleBatch, runtime: QueryRuntime
    ) -> np.ndarray:
        return runtime.pool.not_(self.child.symbolic_bool_nodes(batch, runtime))

    def __repr__(self) -> str:
        return f"NOT {self.child!r}"


class Like(Expr):
    """SQL ``LIKE`` over a string column with ``%`` wildcards.

    Supports the patterns used in the paper's queries: ``%word%`` (contains),
    ``word%`` (prefix), ``%word`` (suffix), and exact match.
    """

    def __init__(self, column: Expr, pattern: str) -> None:
        self.column = column
        self.pattern = pattern

    def children(self) -> Sequence[Expr]:
        return (self.column,)

    def eval(self, batch: TupleBatch, runtime: QueryRuntime) -> np.ndarray:
        values = self.column.eval(batch, runtime)
        pattern = self.pattern
        contains = pattern.startswith("%") and pattern.endswith("%") and len(pattern) >= 2
        prefix = pattern.endswith("%") and not pattern.startswith("%")
        suffix = pattern.startswith("%") and not pattern.endswith("%")
        needle = pattern.strip("%")
        if "%" in needle:
            raise UnsupportedQueryError(
                f"LIKE pattern {pattern!r} with interior wildcards is not supported",
                feature="like-pattern",
            )
        out = np.zeros(len(values), dtype=bool)
        for index, value in enumerate(values):
            text = str(value)
            if contains:
                out[index] = needle in text
            elif prefix:
                out[index] = text.startswith(needle)
            elif suffix:
                out[index] = text.endswith(needle)
            else:
                out[index] = text == needle
        return out

    def __repr__(self) -> str:
        return f"({self.column!r} LIKE {self.pattern!r})"


# -- convenience constructors used by tests and examples ---------------------


def col(name: str) -> Col:
    return Col(name)


def lit(value) -> Const:
    return Const(value)


def predict(model_name: str, feature_column: str) -> ModelPredict:
    return ModelPredict(model_name, Col(feature_column))


def eq(left: Expr, right: Expr) -> Cmp:
    return Cmp("=", left, right)
