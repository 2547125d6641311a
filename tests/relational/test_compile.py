"""Compiled provenance vs. the interpreted oracle.

Randomized ``BoolExpr``/``NumExpr`` DAGs are lowered into a
:class:`~repro.relational.compile.NodePool` and evaluated three ways —
discrete assignments, relaxed values, relaxed gradients — against the
tree implementations, with agreement required to 1e-9.
"""

import numpy as np
import pytest

from repro.errors import ProvenanceError, RelaxationError
from repro.relational.compile import (
    FALSE_NODE,
    TRUE_NODE,
    CompiledProvenance,
    NodePool,
)

from oracles import Relaxer
from oracles import provenance as prov
from oracles.lowering import add_expr, add_exprs
from oracles.provenance import to_expr

N_SITES = 8
CLASS_COLUMNS = {0: 0, 1: 1}


def random_bool(rng, depth):
    draw = rng.random()
    if depth == 0 or draw < 0.25:
        return prov.PredIs(int(rng.integers(N_SITES)), int(rng.integers(2)))
    if draw < 0.35:
        return prov.const(bool(rng.integers(2)))
    if draw < 0.5:
        return prov.not_(random_bool(rng, depth - 1))
    children = [random_bool(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))]
    return prov.and_(*children) if draw < 0.8 else prov.or_(*children)


def random_num(rng, depth):
    draw = rng.random()
    if depth == 0 or draw < 0.25:
        return prov.LinearSum(
            [
                (float(rng.normal()), random_bool(rng, 1))
                for _ in range(int(rng.integers(1, 4)))
            ]
        )
    if draw < 0.4:
        return prov.add_(random_num(rng, depth - 1), random_num(rng, depth - 1))
    if draw < 0.6:
        return prov.mul_(
            prov.BoolAsNum(random_bool(rng, depth - 1)), random_num(rng, depth - 1)
        )
    if draw < 0.75:
        # Denominator bounded away from zero so the relaxation is defined.
        return prov.DivExpr(
            random_num(rng, depth - 1),
            prov.LinearSum([(1.0, prov.TRUE), (1.0, random_bool(rng, 1))]),
        )
    return prov.ConstNum(float(rng.normal()))


def atom_nodes(pool, site_ids, label):
    """The atom nodes ``[site = label]`` for each of ``site_ids``."""
    labels = pool.intern_labels(np.asarray([label] * len(site_ids), dtype=object))
    return pool.atoms(np.asarray(site_ids), labels)


def random_assignment(rng):
    return {site: int(rng.integers(2)) for site in range(N_SITES)}


def random_P(rng):
    return rng.uniform(0.05, 0.95, size=(N_SITES, 2))


class TestRandomizedEquivalence:
    def test_discrete_relaxed_and_gradient_match_reference(self):
        rng = np.random.default_rng(0)
        relaxer = Relaxer(CLASS_COLUMNS, 2)
        for _ in range(120):
            exprs = [random_bool(rng, 3) for _ in range(3)]
            exprs += [random_num(rng, 3) for _ in range(3)]
            pool = NodePool()
            roots = add_exprs(pool, exprs)
            program = CompiledProvenance(pool, roots)

            assignment = random_assignment(rng)
            expected = np.asarray(
                [expr.evaluate(assignment) for expr in exprs], dtype=float
            )
            np.testing.assert_allclose(
                program.evaluate(assignment), expected, atol=1e-9
            )

            P = random_P(rng)
            values, grads = [], []
            for expr in exprs:
                value, grad = relaxer.value_and_grad(expr, P)
                values.append(value)
                grads.append(grad)
            seed = rng.normal(size=len(exprs))
            got_values, got_grad = program.relaxed_values_and_pgrad(
                P, seed, CLASS_COLUMNS
            )
            np.testing.assert_allclose(got_values, np.asarray(values), atol=1e-9)
            expected_grad = sum(s * g for s, g in zip(seed, grads))
            np.testing.assert_allclose(got_grad, expected_grad, atol=1e-9)

    def test_materialization_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            expr = random_num(rng, 3)
            pool = NodePool()
            root = add_expr(pool, expr)
            back = to_expr(pool, root)
            assignment = random_assignment(rng)
            want = float(expr.evaluate(assignment))
            got = float(back.evaluate(assignment))
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_materialized_trees_are_shared_objects(self):
        pool = NodePool()
        atom = int(atom_nodes(pool, [0], 1)[0])
        first = to_expr(pool, atom)
        second = to_expr(pool, atom)
        assert first is second


class TestBuilders:
    def test_and2_folds_constants(self):
        pool = NodePool()
        atoms = pool.atoms(np.array([0, 1, 2, 3]), pool.intern_labels(
            np.asarray([1, 1, 1, 1], dtype=object)
        ))
        a = np.asarray([TRUE_NODE, FALSE_NODE, atoms[2], atoms[3]])
        b = np.asarray([atoms[0], atoms[1], TRUE_NODE, FALSE_NODE])
        out = pool.and2(a, b)
        assert out[0] == atoms[0]
        assert out[1] == FALSE_NODE
        assert out[2] == atoms[2]
        assert out[3] == FALSE_NODE

    def test_or_segments_folding(self):
        pool = NodePool()
        atoms = pool.atoms(
            np.array([0, 1]), pool.intern_labels(np.asarray([0, 0], dtype=object))
        )
        #  seg0: [TRUE, atom]  -> TRUE;  seg1: [FALSE]    -> FALSE
        #  seg2: [atom, FALSE] -> atom;  seg3: []         -> FALSE
        #  seg4: [a0, a1]      -> OR node
        flat = np.asarray(
            [TRUE_NODE, atoms[0], FALSE_NODE, atoms[0], FALSE_NODE, atoms[0], atoms[1]]
        )
        offsets = np.asarray([0, 2, 3, 5, 5, 7])
        out = pool.or_segments(flat, offsets)
        assert out[0] == TRUE_NODE
        assert out[1] == FALSE_NODE
        assert out[2] == atoms[0]
        assert out[3] == FALSE_NODE
        tree = to_expr(pool, int(out[4]))
        assert isinstance(tree, prov.OrExpr)

    def test_not_folds_double_negation(self):
        pool = NodePool()
        atom = atom_nodes(pool, [0], 1)
        negated = pool.not_(atom)
        assert pool.not_(negated)[0] == atom[0]
        assert pool.not_(np.asarray([TRUE_NODE]))[0] == FALSE_NODE

    def test_atoms_deduplicate(self):
        pool = NodePool()
        labels = pool.intern_labels(np.asarray([1, 1, 0], dtype=object))
        first = pool.atoms(np.asarray([3, 3, 3]), labels)
        assert first[0] == first[1] != first[2]
        again = atom_nodes(pool, [3], 1)[0]
        assert again == first[0]

    def test_empty_add_segment_is_empty_linear_sum(self):
        pool = NodePool()
        out = pool.add_segments(
            np.empty(0), np.empty(0, dtype=np.int64), np.asarray([0, 0])
        )
        tree = to_expr(pool, int(out[0]))
        assert isinstance(tree, prov.LinearSum)
        assert tree.evaluate({}) == 0.0
        program = CompiledProvenance(pool, out)
        assert program.evaluate({})[0] == 0.0


class TestCompiledProgram:
    def test_missing_site_raises(self):
        pool = NodePool()
        root = add_expr(pool, prov.PredIs(2, 1))
        program = CompiledProvenance(pool, np.asarray([root]))
        with pytest.raises(ProvenanceError):
            program.evaluate({0: 1})

    def test_unknown_class_raises_on_relaxation(self):
        pool = NodePool()
        root = add_expr(pool, prov.PredIs(0, "mystery"))
        program = CompiledProvenance(pool, np.asarray([root]))
        with pytest.raises(RelaxationError):
            program.relaxed_values(np.ones((1, 2)), CLASS_COLUMNS)

    def test_zero_denominator_raises_relaxed_but_not_discrete(self):
        pool = NodePool()
        expr = prov.DivExpr(
            prov.ConstNum(1.0), prov.LinearSum([(1.0, prov.PredIs(0, 1))])
        )
        root = add_expr(pool, expr)
        program = CompiledProvenance(pool, np.asarray([root]))
        with pytest.raises(RelaxationError):
            program.relaxed_values(np.asarray([[1.0, 0.0]]), CLASS_COLUMNS)
        assert np.isnan(program.evaluate({0: 0})[0])

    def test_gradient_handles_zero_factors_exactly(self):
        # AND over factors where one is exactly zero: only the zero factor
        # receives the product of the others.
        pool = NodePool()
        expr = prov.and_(prov.PredIs(0, 1), prov.PredIs(1, 1), prov.PredIs(2, 1))
        root = add_expr(pool, expr)
        program = CompiledProvenance(pool, np.asarray([root]))
        P = np.asarray([[1.0, 0.0], [0.6, 0.4], [0.2, 0.8]])
        _, grad = program.relaxed_values_and_pgrad(P, np.asarray([1.0]), CLASS_COLUMNS)
        relaxer = Relaxer(CLASS_COLUMNS, 2)
        _, expected = relaxer.value_and_grad(expr, P)
        np.testing.assert_allclose(grad, expected, atol=1e-12)
