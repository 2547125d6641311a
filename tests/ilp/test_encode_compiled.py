"""Array encoder vs the tree-walk oracle on fig6-shaped join plans.

:class:`TiresiasEncoder` must produce the *same program* as the seed's
tree walk (:class:`oracles.encode.TreeEncoder`) — same variables in the
same order, same constraint rows with the same coefficient order and
right-hand sides — because constraint/variable order changes which tied
optimum the solver enumerates first, and TwoStep removal orders must not
move.  A seeded generator samples AND/OR-heavy predicates over an
L ⋈ R equi-join (the MNIST-join shape of the paper's Figure 6) under
selection / COUNT / grouped SUM-AVG shapes, and every sampled plan must
agree on four levels:

- the emitted :class:`BinaryProgram` (exact, up to variable *names*);
- feasibility verdicts on sampled 0/1 assignments;
- the optimal objective and the enumerated solution sequence;
- end-to-end TwoStep removal orders.

Prediction-valued aggregates (``SUM``/``AVG(predict(*)) ... GROUP BY``,
the paper's Section 6.5 Q6/Q7 shape, with and without a model-dependent
``WHERE``, and group-key complaints on currently empty groups) are
pinned to the oracle's program the same way.
"""

import numpy as np
import pytest

from repro.complaints import ComplaintCase, TupleComplaint, ValueComplaint
from repro.core.rain import RainDebugger
from repro.errors import ILPError
from repro.ilp import (
    BinaryProgram,
    TiresiasEncoder,
    enumerate_optima,
    make_encoder,
)
from repro.relational import (
    Aggregate,
    AggSpec,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Col,
    Const,
    Database,
    Executor,
    ModelPredict,
    Filter,
    Join,
    Relation,
    Scan,
)

from oracles import TreeExecutor
from oracles.encode import TreeEncoder, program_signature

SEEDS = list(range(8))
# Node budgets, not wall clock: every solve that finds an optimum here
# needs a few dozen nodes at most.
NODE_LIMIT = 200


@pytest.fixture(scope="module")
def join_db():
    from repro.ml import LogisticRegression

    rng = np.random.default_rng(23)
    n, d = 60, 4
    X = rng.normal(size=(n, d))
    w = np.asarray([1.5, -2.0, 0.5, 0.0])
    y = (X @ w + 0.2 * rng.normal(size=n) > 0).astype(int)
    model = LogisticRegression((0, 1), n_features=d, l2=1e-2)
    model.fit(X, y, warm_start=False)

    db = Database()
    db.add_relation(
        Relation(
            "L",
            {
                "features": rng.normal(size=(24, d)),
                "key": rng.integers(0, 6, size=24),
            },
        )
    )
    db.add_relation(
        Relation(
            "R",
            {
                "features": rng.normal(size=(16, d)),
                "key": rng.integers(0, 6, size=16),
                # Deliberately includes weights that are exactly 1.0 and
                # pairs multiplying to exactly 1.0: the mul_() constant
                # folds alias those product terms, which the compiled
                # fresh-aux bookkeeping has to reproduce.
                "weight": np.concatenate(
                    [[1.0, 2.0, 0.5], np.linspace(1.0, 2.0, 13)]
                ),
            },
        )
    )
    db.add_model("m", model)
    return db


def random_predicate(rng, depth):
    if depth == 0:
        leaf = int(rng.integers(4))
        if leaf == 0:
            return Cmp(
                "=", ModelPredict("m", Col("L.features")), Const(int(rng.integers(2)))
            )
        if leaf == 1:
            return Cmp(
                "=", ModelPredict("m", Col("R.features")), Const(int(rng.integers(2)))
            )
        if leaf == 2:
            return Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            )
        return Cmp("<", Col("R.weight"), Const(float(rng.uniform(0.5, 2.0))))
    children = [
        random_predicate(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))
    ]
    kind = int(rng.integers(3))
    if kind == 0:
        return BoolAnd(children)
    if kind == 1:
        return BoolOr(children)
    return BoolNot(children[0])


def random_plan(rng):
    joined = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
    predicate = BoolAnd(
        [
            Cmp(
                "=",
                ModelPredict("m", Col("L.features")),
                ModelPredict("m", Col("R.features")),
            ),
            random_predicate(rng, int(rng.integers(2, 4))),
        ]
    )
    filtered = Filter(joined, predicate)
    shape = int(rng.integers(3))
    if shape == 0:
        return filtered, "selection"
    if shape == 1:
        return (
            Aggregate(filtered, (), [AggSpec("count", None, "count")]),
            "count",
        )
    return (
        Aggregate(
            filtered,
            ((Col("L.key"), "key"),),
            [
                AggSpec("count", None, "count"),
                AggSpec("sum", Col("R.weight"), "total"),
                AggSpec("avg", Col("R.weight"), "mean"),
            ],
        ),
        "grouped",
    )


def complaints_for(rng, result, shape):
    relation = result.relation
    if len(relation) == 0:
        return []
    if shape == "selection":
        rows = rng.choice(
            len(relation), size=min(3, len(relation)), replace=False
        )
        return [TupleComplaint(row_index=int(row)) for row in rows]
    if shape == "count":
        current = float(relation.column("count")[0])
        return [
            ValueComplaint(column="count", op=">=", value=current + 1.0, row_index=0)
        ]
    out = []
    for row in range(min(2, len(relation))):
        count = float(relation.column("count")[row])
        total = float(relation.column("total")[row])
        mean = float(relation.column("mean")[row])
        out.append(
            ValueComplaint(column="count", op="<=", value=count - 1.0, row_index=row)
        )
        out.append(
            ValueComplaint(column="total", op=">=", value=0.5 * total, row_index=row)
        )
        out.append(
            ValueComplaint(column="mean", op="<=", value=mean + 0.1, row_index=row)
        )
    return out


def test_program_signature_sees_fixed_variables():
    """Programs differing only in one pinned variable are not identical."""

    def program(pinned):
        built = BinaryProgram()
        x, y = built.add_var("x"), built.add_var("y")
        built.set_objective({x: 1.0, y: 1.0})
        built.add_constraint({x: 1.0, y: 1.0}, ">=", 1.0)
        built.fix(x, pinned)
        return built

    assert program_signature(program(1)) == program_signature(program(1))
    assert program_signature(program(0)) != program_signature(program(1))


def build_encoders(join_db, seed):
    rng = np.random.default_rng(seed)
    plan, shape = random_plan(rng)
    result = Executor(join_db).execute(plan, debug=True)
    complaints = complaints_for(rng, result, shape)
    if not complaints:
        pytest.skip("sampled plan produced an empty relation")
    tree = TreeEncoder(result)
    compiled = TiresiasEncoder(result)
    for complaint in complaints:
        tree.add_complaint(complaint)
        compiled.add_complaint(complaint)
    return tree, compiled, rng


@pytest.mark.parametrize("seed", SEEDS)
class TestCompiledVsTreeProgram:
    def test_identical_program(self, join_db, seed):
        tree, compiled, _ = build_encoders(join_db, seed)
        assert program_signature(tree.program) == program_signature(
            compiled.program
        )

    def test_same_feasible_set_on_sampled_assignments(self, join_db, seed):
        tree, compiled, rng = build_encoders(join_db, seed)
        n = tree.program.n_vars
        assert compiled.program.n_vars == n
        agreed_feasible = 0
        for _ in range(64):
            x = (rng.random(n) < 0.5).astype(float)
            verdict = tree.program.is_feasible(x)
            assert compiled.program.is_feasible(x) == verdict
            agreed_feasible += int(verdict)
        # Also probe assignments that satisfy the one-hot site rows, so
        # some sampled points exercise the complaint/link rows.
        for _ in range(16):
            x = np.zeros(n)
            for site_id in tree.site_ids:
                labels = tree.classes_by_site[site_id]
                pick = labels[int(rng.integers(len(labels)))]
                x[tree.y_vars[(site_id, pick)]] = 1.0
            assert tree.program.is_feasible(x) == compiled.program.is_feasible(x)

    def test_identical_optima_enumeration(self, join_db, seed):
        tree, compiled, _ = build_encoders(join_db, seed)
        # A seed without an incumbent within the budget must fail the same
        # way, at the same node, under both encoders.
        budget = {"max_solutions": 8, "node_limit": NODE_LIMIT, "time_limit": None}
        try:
            tree_solutions = enumerate_optima(tree.program, **budget)
        except ILPError as tree_error:
            with pytest.raises(ILPError) as compiled_error:
                enumerate_optima(compiled.program, **budget)
            assert str(compiled_error.value) == str(tree_error)
            return
        compiled_solutions = enumerate_optima(compiled.program, **budget)
        assert len(tree_solutions) == len(compiled_solutions)
        for left, right in zip(tree_solutions, compiled_solutions):
            assert left.objective == right.objective
            assert np.array_equal(left.values, right.values)


class TestCrossComplaintDedup:
    def test_shared_subtrees_reuse_aux_vars(self, join_db):
        rng = np.random.default_rng(5)
        plan, _ = random_plan(rng)
        while True:
            result = Executor(join_db).execute(
                plan, debug=True
            )
            if result.groups is not None and len(result.relation) >= 1:
                break
            plan, _ = random_plan(rng)
        count = float(result.relation.column("count")[0])
        total = float(result.relation.column("total")[0])
        encoder = TiresiasEncoder(result)
        encoder.add_complaint(
            ValueComplaint(column="count", op="<=", value=count - 1.0, row_index=0)
        )
        created_first = encoder.aux_created
        # The SUM cell is built over the same member conditions the COUNT
        # complaint already linearized: the second complaint must reuse.
        encoder.add_complaint(
            ValueComplaint(column="total", op=">=", value=0.5 * total, row_index=0)
        )
        assert created_first > 0
        assert encoder.aux_reused > 0


class TestTwoStepRemovalOrders:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_removal_orders(self, join_db, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        while True:
            plan, shape = random_plan(rng)
            if shape != "selection":
                break
        result = Executor(join_db).execute(plan, debug=True)
        complaints = complaints_for(rng, result, shape)
        if not complaints:
            pytest.skip("sampled plan produced an empty relation")
        case = ComplaintCase(plan, complaints)
        X = join_db.relation("L").column("features")
        model = join_db.model("m")

        def run_with(encoder_class):
            rng_fit = np.random.default_rng(100 + seed)
            n, d = 40, 4
            X_train = rng_fit.normal(size=(n, d))
            y_train = (X_train @ np.asarray([1.5, -2.0, 0.5, 0.0]) > 0).astype(int)
            params = model.get_params()
            try:
                monkeypatch.setattr(
                    "repro.core.rankers.make_encoder", encoder_class
                )
                debugger = RainDebugger(
                    join_db,
                    "m",
                    X_train,
                    y_train,
                    [case],
                    method="twostep",
                    rng=seed,
                    ranker_kwargs={
                        "ambiguity_cap": 5,
                        "node_limit": NODE_LIMIT,
                        "time_limit": None,
                    },
                )
                report = debugger.run(max_removals=6, k_per_iteration=2)
                return list(report.removal_order)
            finally:
                model.set_params(params)

        # The oracle run encodes with the tree walk on compiled provenance.
        assert run_with(TreeEncoder) == run_with(make_encoder)
        assert X.shape[1] == 4


class TestEncoderDispatch:
    def test_make_encoder_builds_the_array_encoder(self, join_db):
        rng = np.random.default_rng(1)
        plan, _ = random_plan(rng)
        result = Executor(join_db).execute(plan, debug=True)
        assert type(make_encoder(result)) is TiresiasEncoder

    def test_production_encoder_rejects_a_tree_result(self, join_db):
        rng = np.random.default_rng(1)
        plan, _ = random_plan(rng)
        tree_result = TreeExecutor(join_db).execute(plan, debug=True)
        with pytest.raises(ILPError, match="compiled lineage"):
            make_encoder(tree_result)
        # The oracle still encodes it.
        assert TreeEncoder(tree_result).program.n_vars > 0


class TestAuxCacheKeying:
    def test_cache_pins_expressions_against_id_reuse(self):
        """The oracle's aux cache keys expressions by pinned identity.

        Bare ``id(expr)`` keys do not keep the expression alive, so a
        garbage-collected subtree could hand its id to a structurally
        different one and silently merge the two.  ``_ExprKey`` holds a
        strong reference: as long as a cache entry exists, its id cannot
        be recycled.
        """
        import repro.relational.provenance as prov

        from oracles.encode import _ExprKey

        a = prov.and_(prov.PredIs(0, 1), prov.PredIs(1, 1))
        b = prov.and_(prov.PredIs(0, 1), prov.PredIs(1, 1))
        assert _ExprKey(a) == _ExprKey(a)
        assert hash(_ExprKey(a)) == hash(_ExprKey(a))
        # Structurally equal but distinct objects stay distinct keys.
        assert _ExprKey(a) != _ExprKey(b)
        cache = {_ExprKey(a): "affine"}
        assert cache.get(_ExprKey(a)) == "affine"
        key = next(iter(cache))
        assert key.expr is a  # strong reference pins the object


# -- prediction-valued aggregates ----------------------------------------------

PREDICTION_SHAPES = ("grouped", "where", "empty_group")


def prediction_plan(rng, shape):
    """``SUM``/``AVG`` over ``predict(*)`` on the L ⋈ R join.

    - ``grouped``: no model-dependent predicate, so every member is
      certain and each cell sums per-member class-value sums (the
      Section 6.5 Q6/Q7 shape; a site repeats across the members it
      joins into);
    - ``where``: ``WHERE predict(*) = 1`` on one side (usually AND a
      random predicate), so each member's condition multiplies its value;
    - ``empty_group``: as ``where`` but also grouped by ``predict(*)``,
      which leaves candidate groups that are currently empty.
    """
    sides = ("L", "R")

    def predict():
        return ModelPredict("m", Col(f"{sides[int(rng.integers(2))]}.features"))

    joined = Join(
        Scan("L", "L"), Scan("R", "R"), Cmp("=", Col("L.key"), Col("R.key"))
    )
    source = joined
    if shape != "grouped":
        predicate = Cmp("=", predict(), Const(1))
        if rng.random() < 0.75:
            predicate = BoolAnd(
                [predicate, random_predicate(rng, int(rng.integers(1, 3)))]
            )
        source = Filter(joined, predicate)
    keys = ((Col(f"{sides[int(rng.integers(2))]}.key"), "key"),)
    if shape == "empty_group":
        keys = keys + ((predict(), "label"),)
    return Aggregate(
        source,
        keys,
        [
            AggSpec("count", None, "count"),
            AggSpec("sum", predict(), "total"),
            AggSpec("avg", predict(), "mean"),
        ],
    )


def prediction_case(join_db, shape, seed):
    """A sampled plan's result and complaints (group-key ones on empty groups)."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        result = Executor(join_db).execute(prediction_plan(rng, shape), debug=True)
        output = set(result.output_to_group)
        empty = [g for g in range(len(result.groups)) if g not in output]
        if len(result.relation) and (empty or shape != "empty_group"):
            break
    else:
        pytest.fail(f"no {shape} plan with a usable group in 20 draws")
    complaints = []
    n_rows = len(result.relation)
    for row in rng.choice(n_rows, size=min(3, n_rows), replace=False).tolist():
        for column in ("total", "mean"):
            current = float(result.relation.column(column)[row])
            op = ("<=", ">=")[int(rng.integers(2))]
            shift = float(rng.uniform(0.1, 1.5))
            value = current - shift if op == "<=" else current + shift
            complaints.append(
                ValueComplaint(column=column, op=op, value=value, row_index=row)
            )
    for group in empty[:2]:
        key = result.groups[group].key
        complaints.append(
            ValueComplaint(column="count", op=">=", value=1.0, group_key=key)
        )
        complaints.append(
            ValueComplaint(column="mean", op=">=", value=0.5, group_key=key)
        )
        complaints.append(TupleComplaint(group_key=key))
    return result, complaints


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", PREDICTION_SHAPES)
def test_prediction_aggregates_match_oracle(join_db, shape, seed):
    result, complaints = prediction_case(join_db, shape, seed)
    oracle = TreeEncoder(result)
    production = TiresiasEncoder(result)
    oracle.add_complaints(complaints)
    production.add_complaints(complaints)
    assert program_signature(production.program) == program_signature(
        oracle.program
    )
