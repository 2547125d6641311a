"""Unit + property tests for the oracle's provenance trees and the site registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProvenanceError
from repro.relational.provenance import SiteRegistry

from oracles import provenance as prov


class TestConstructors:
    def test_and_constant_folding(self):
        a = prov.PredIs(0, 1)
        assert prov.and_(prov.TRUE, a) is a
        assert prov.and_(prov.FALSE, a).is_false()
        assert prov.and_().is_true()

    def test_or_constant_folding(self):
        a = prov.PredIs(0, 1)
        assert prov.or_(prov.FALSE, a) is a
        assert prov.or_(prov.TRUE, a).is_true()
        assert prov.or_().is_false()

    def test_not_folding(self):
        assert prov.not_(prov.TRUE).is_false()
        assert prov.not_(prov.FALSE).is_true()
        a = prov.PredIs(0, 1)
        assert prov.not_(prov.not_(a)) is a

    def test_and_flattens_nested(self):
        a, b, c = (prov.PredIs(i, 1) for i in range(3))
        nested = prov.and_(prov.and_(a, b), c)
        assert isinstance(nested, prov.AndExpr)
        assert len(nested.children) == 3

    def test_or_flattens_nested(self):
        a, b, c = (prov.PredIs(i, 1) for i in range(3))
        nested = prov.or_(a, prov.or_(b, c))
        assert isinstance(nested, prov.OrExpr)
        assert len(nested.children) == 3

    def test_const(self):
        assert prov.const(True).is_true()
        assert prov.const(False).is_false()


class TestEvaluation:
    def test_atom_evaluation(self):
        atom = prov.PredIs(3, "spam")
        assert atom.evaluate({3: "spam"})
        assert not atom.evaluate({3: "ham"})

    def test_atom_missing_site_raises(self):
        with pytest.raises(ProvenanceError, match="missing"):
            prov.PredIs(3, "spam").evaluate({})

    def test_compound_evaluation(self):
        a, b = prov.PredIs(0, 1), prov.PredIs(1, 0)
        expr = prov.or_(prov.and_(a, b), prov.not_(a))
        assert expr.evaluate({0: 1, 1: 0})
        assert expr.evaluate({0: 0, 1: 1})
        assert not expr.evaluate({0: 1, 1: 1})

    def test_atoms_collection(self):
        a, b = prov.PredIs(0, 1), prov.PredIs(1, 0)
        expr = prov.and_(a, prov.not_(prov.or_(a, b)))
        assert expr.atoms() == {a, b}

    def test_atom_equality_and_hash(self):
        assert prov.PredIs(0, 1) == prov.PredIs(0, 1)
        assert prov.PredIs(0, 1) != prov.PredIs(0, 2)
        assert len({prov.PredIs(0, 1), prov.PredIs(0, 1)}) == 1


class TestNumeric:
    def test_linear_sum(self):
        terms = [(2.0, prov.PredIs(0, 1)), (3.0, prov.TRUE), (5.0, prov.PredIs(1, 1))]
        poly = prov.LinearSum(terms)
        assert poly.evaluate({0: 1, 1: 0}) == 5.0
        assert poly.evaluate({0: 1, 1: 1}) == 10.0
        assert poly.constant_part() == 3.0

    def test_add_mul_constants_fold(self):
        expr = prov.add_(prov.ConstNum(2), prov.ConstNum(3))
        assert isinstance(expr, prov.ConstNum)
        assert expr.value == 5.0
        expr = prov.mul_(prov.ConstNum(2), prov.ConstNum(3))
        assert isinstance(expr, prov.ConstNum)
        assert expr.value == 6.0

    def test_mul_zero_annihilates(self):
        poly = prov.LinearSum([(1.0, prov.PredIs(0, 1))])
        expr = prov.mul_(prov.ConstNum(0.0), poly)
        assert isinstance(expr, prov.ConstNum)
        assert expr.value == 0.0

    def test_div(self):
        num = prov.LinearSum([(1.0, prov.PredIs(0, 1)), (1.0, prov.PredIs(1, 1))])
        den = prov.ConstNum(2.0)
        expr = prov.DivExpr(num, den)
        assert expr.evaluate({0: 1, 1: 1}) == 1.0
        assert expr.evaluate({0: 0, 1: 1}) == 0.5

    def test_div_by_zero_is_nan(self):
        expr = prov.DivExpr(prov.ConstNum(1.0), prov.ConstNum(0.0))
        assert np.isnan(expr.evaluate({}))

    def test_bool_as_num(self):
        expr = prov.BoolAsNum(prov.PredIs(0, 1))
        assert expr.evaluate({0: 1}) == 1.0
        assert expr.evaluate({0: 0}) == 0.0

    def test_pred_value(self):
        expr = prov.pred_value(0, [(0, 0.0), (1, 1.0), (2, 2.0)])
        assert expr.evaluate({0: 2}) == 2.0
        assert expr.evaluate({0: 0}) == 0.0

    def test_numeric_atoms(self):
        poly = prov.DivExpr(
            prov.LinearSum([(1.0, prov.PredIs(0, 1))]),
            prov.add_(prov.ConstNum(1), prov.BoolAsNum(prov.PredIs(1, 2))),
        )
        assert {a.site_id for a in poly.atoms()} == {0, 1}


class TestSiteRegistry:
    @staticmethod
    def intern(registry, model_name, relation_name, row_id):
        sites, _, _ = registry.intern_batch(
            model_name, relation_name, np.asarray([row_id], dtype=np.int64)
        )
        return registry[int(sites[0])]

    def test_intern_dedupes(self):
        registry = SiteRegistry()
        a = self.intern(registry, "m", "R", 5)
        b = self.intern(registry, "m", "R", 5)
        assert a is b
        assert len(registry) == 1

    def test_distinct_keys_distinct_sites(self):
        registry = SiteRegistry()
        a = self.intern(registry, "m", "R", 5)
        b = self.intern(registry, "m", "S", 5)
        c = self.intern(registry, "m2", "R", 5)
        assert len({a.site_id, b.site_id, c.site_id}) == 3

    def test_indexing(self):
        registry = SiteRegistry()
        site = self.intern(registry, "m", "R", 0)
        assert registry[site.site_id] is site
        assert registry.sites == [site]

    def test_batch_interning_reports_new_rows(self):
        registry = SiteRegistry()
        sites, new_rows, first = registry.intern_batch(
            "m", "R", np.asarray([4, 2, 4], dtype=np.int64)
        )
        assert first == 0
        assert new_rows.tolist() == [2, 4]
        assert sites.tolist() == [1, 0, 1]
        again, new_rows, first = registry.intern_batch(
            "m", "R", np.asarray([2, 7], dtype=np.int64)
        )
        assert again.tolist() == [0, 2]
        assert new_rows.tolist() == [7]
        assert first == 2


# -- property tests -----------------------------------------------------------


@st.composite
def bool_exprs(draw, max_sites=4, depth=3):
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return prov.TRUE
        if choice == 1:
            return prov.FALSE
        return prov.PredIs(draw(st.integers(0, max_sites - 1)), draw(st.integers(0, 1)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return prov.not_(draw(bool_exprs(max_sites=max_sites, depth=depth - 1)))
    if kind <= 2:
        children = draw(
            st.lists(bool_exprs(max_sites=max_sites, depth=depth - 1), min_size=1, max_size=3)
        )
        return prov.and_(*children) if kind == 1 else prov.or_(*children)
    return prov.PredIs(draw(st.integers(0, max_sites - 1)), draw(st.integers(0, 1)))


@given(expr=bool_exprs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_constructed_exprs_evaluate_boolean(expr, data):
    assignment = {site: data.draw(st.integers(0, 1)) for site in range(4)}
    value = expr.evaluate(assignment)
    assert isinstance(value, bool)


@given(expr=bool_exprs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_de_morgan(expr, data):
    """not(expr) must always evaluate opposite to expr."""
    assignment = {site: data.draw(st.integers(0, 1)) for site in range(4)}
    assert prov.not_(expr).evaluate(assignment) == (not expr.evaluate(assignment))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_linear_sum_matches_manual(data):
    n_terms = data.draw(st.integers(1, 6))
    terms = []
    for i in range(n_terms):
        coeff = data.draw(st.floats(-5, 5, allow_nan=False))
        terms.append((coeff, prov.PredIs(i, 1)))
    assignment = {i: data.draw(st.integers(0, 1)) for i in range(n_terms)}
    poly = prov.LinearSum(terms)
    manual = sum(coeff for (coeff, atom) in terms if assignment[atom.site_id] == 1)
    assert poly.evaluate(assignment) == pytest.approx(manual)
