"""Sparse module elements and maps against their definitions.

Each map operation is compared with the map defined by its action on basis
vectors through LinMap.from_function, where every image is computed from
the dense matrix with plain Poly arithmetic.  Draws include columns that
cancel exactly and, over Q[x1,x2] truncated at degree 2, products of
nilpotents that truncate to zero.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab.coeff import CoeffAlgebra
from hkrlab.modules import BasedModule, LinMap, StructuralError, Vec

QQ = CoeffAlgebra.rationals()
QX = CoeffAlgebra.polynomial(2, 2)


def module(algebra, n, name):
    return BasedModule(algebra, tuple(f"{name}{i}" for i in range(n)), name)


def coefficients(algebra):
    """Small coefficients, often zero; over QX often of positive degree, so
    that products overflow the degree bound."""
    term = st.tuples(st.sampled_from(algebra.monomials), st.integers(-2, 2))
    return st.lists(term, max_size=3).map(
        lambda ts: sum((algebra.monomial(e, c) for e, c in ts), algebra.zero())
    )


@st.composite
def linmaps(draw, algebra, source, target):
    """A map whose columns are drawn freely, then some copied with a sign
    from another column, so that sums and images can cancel exactly."""
    cols = {}
    for lab in source.labels:
        cols[lab] = Vec(target, {t: draw(coefficients(algebra)) for t in target.labels})
    for lab in source.labels:
        if draw(st.booleans()):
            other = draw(st.sampled_from(source.labels))
            cols[lab] = cols[other].scale(draw(st.sampled_from([1, -1])))
    return LinMap(source, target, cols)


@st.composite
def vectors(draw, algebra, module):
    """Coefficients repeat, so that against columns copied with a sign the
    image cancels exactly."""
    pool = [draw(coefficients(algebra)), draw(coefficients(algebra)), algebra.zero()]
    return Vec(module, {lab: draw(st.sampled_from(pool)) for lab in module.labels})


def apply_by_definition(f, v):
    """f(v) from the dense matrix, one Poly product at a time."""
    rows = f.dense()
    out = {}
    for t, row in zip(f.target.labels, rows):
        acc = f.source.algebra.zero()
        for s, entry in zip(f.source.labels, row):
            acc = acc + entry * v.coeff(s)
        out[t] = acc
    return Vec(f.target, out)


def assert_clean(x):
    """No zero coefficient stored, in a Vec or in any column of a LinMap."""
    vecs = x.cols.values() if isinstance(x, LinMap) else [x]
    for vec in vecs:
        assert vec.data or vec is x, "a zero column is stored"
        for poly in vec.data.values():
            assert poly.terms and all(poly.terms.values()), "a zero coefficient is stored"


def assert_same_map(got, want):
    assert got.source == want.source and got.target == want.target
    assert list(got.cols) == list(want.cols)
    assert got.dense() == want.dense()
    assert_clean(got)


ALGEBRAS = st.sampled_from([QQ, QX])


@st.composite
def map_pair(draw):
    """Two maps between the same modules, and a third composable after them."""
    algebra = draw(ALGEBRAS)
    L, M, N = (module(algebra, draw(st.integers(1, 4)), name) for name in "LMN")
    f = draw(linmaps(algebra, L, M))
    g = draw(st.one_of(linmaps(algebra, L, M), st.just(f.scale(-1)), st.just(f)))
    h = draw(linmaps(algebra, M, N))
    return algebra, f, g, h


@settings(max_examples=60, deadline=None)
@given(map_pair(), st.data())
def test_apply_matches_definition(maps, data):
    algebra, f, g, h = maps
    v = data.draw(vectors(algebra, f.source))
    got = f.apply(v)
    assert got == apply_by_definition(f, v)
    assert_clean(got)


@settings(max_examples=60, deadline=None)
@given(map_pair())
def test_compose_matches_definition(maps):
    algebra, f, g, h = maps
    want = LinMap.from_function(
        f.source, h.target, lambda v: apply_by_definition(h, apply_by_definition(f, v))
    )
    assert_same_map(h.compose(f), want)


@settings(max_examples=60, deadline=None)
@given(map_pair())
def test_sum_and_difference_match_definition(maps):
    algebra, f, g, h = maps
    plus = LinMap.from_function(f.source, f.target, lambda v: apply_by_definition(f, v) + apply_by_definition(g, v))
    minus = LinMap.from_function(f.source, f.target, lambda v: apply_by_definition(f, v) - apply_by_definition(g, v))
    assert_same_map(f + g, plus)
    assert_same_map(f - g, minus)
    assert (f - f).is_zero() and (f + f.scale(-1)).is_zero()


@settings(max_examples=60, deadline=None)
@given(map_pair(), st.data())
def test_scale_matches_definition(maps, data):
    algebra, f, g, h = maps
    c = data.draw(st.one_of(coefficients(algebra), st.integers(-2, 2), st.just(Fraction(1, 3))))
    want = LinMap.from_function(f.source, f.target, lambda v: apply_by_definition(f, v).scale(c))
    assert_same_map(f.scale(c), want)


def test_nilpotent_products_truncate_to_zero():
    x1, x2 = QX.gen(0), QX.gen(1)
    M = module(QX, 2, "M")
    f = LinMap(M, M, {"M0": M.basis_vec("M1", x1 * x2), "M1": M.basis_vec("M0", x1 * x1)})
    assert f.compose(f).is_zero()  # every entry has degree 4 > 2
    assert f.scale(x2).is_zero()  # degree 3
    assert f.apply(M.basis_vec("M0", x1)).is_zero()
    got = f.apply(M.basis_vec("M0", 1) + M.basis_vec("M1", x2))
    assert got == M.basis_vec("M1", x1 * x2)
    assert_clean(got)


def test_vec_arithmetic_keeps_no_zero_coefficient():
    M = module(QX, 3, "M")
    v = M.basis_vec("M0", QX.gen(0)) + M.basis_vec("M1", 2)
    w = M.basis_vec("M0", QX.gen(0)) - M.basis_vec("M2", 1)
    for x in (v - v, v + (-v), v - w, v + w, v.scale(0), v.scale(QX.gen(1) * QX.gen(1)), -v):
        assert_clean(x)
    assert (v - w).data == {"M1": QX.const(2), "M2": QX.const(1)}
    assert (v - v).is_zero() and v.scale(0).is_zero()
    assert v.scale(QX.gen(1) * QX.gen(1)).data == {"M1": QX.monomial((0, 2), 2)}


@st.composite
def term_lists(draw):
    """(label, coeff) pairs over a few labels: labels repeat, and the
    coefficients come from a pool holding its own negatives, zero and
    int, Fraction and Poly values, so that entries cancel and come back."""
    algebra = draw(ALGEBRAS)
    M = module(algebra, draw(st.integers(1, 3)), "M")
    polys = [draw(coefficients(algebra)) for _ in range(2)]
    pool = polys + [-c for c in polys] + [0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]
    terms = draw(st.lists(st.tuples(st.sampled_from(M.labels), st.sampled_from(pool)), max_size=12))
    return M, terms


@settings(max_examples=100, deadline=None)
@given(term_lists())
def test_element_matches_the_fold_of_basis_vectors(drawn):
    M, terms = drawn
    want = M.zero()
    for lab, c in terms:
        want = want + M.basis_vec(lab, c)
    for got in (M.element(terms), M.element(iter(terms))):
        assert got == want
        assert list(got.data) == list(want.data)
        assert_clean(got)


def test_element_rejects_a_foreign_label():
    M = module(QQ, 2, "M")
    with pytest.raises(StructuralError):
        M.element([("M0", 1), ("N0", 1)])
