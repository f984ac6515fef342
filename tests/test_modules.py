"""Sparse module elements and maps against their definitions.

Each map operation is compared with the map defined by its action on basis
vectors through LinMap.from_function, where every image is computed from
the dense matrix with plain Poly arithmetic.  Draws include columns that
cancel exactly and, over Q[x1,x2] truncated at degree 2, products of
nilpotents that truncate to zero.  The sparse flattening (QBasis.flatten,
QBasis.unflatten, flatten_map) is compared with the dense flattening it
replaced, kept here as the reference, on graded modules with and without
a grade window.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab.coeff import CoeffAlgebra, Poly
from hkrlab.modules import BasedModule, LinMap, QBasis, StructuralError, Vec, flatten_map

import dense_rational

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


# -- flattening against the dense reference ---------------------------------


def dense_flatten_vec(fb, vec):
    """The dense flattening of vec over fb (the former QBasis.flatten_vec)."""
    out = [Fraction(0)] * fb.dim
    for lab, poly in vec.data.items():
        for mono, c in poly.terms.items():
            i = fb.index.get((lab, mono))
            if i is not None:
                out[i] = c
    return out


def dense_unflatten(fb, column):
    """The element with dense coordinates column (the former QBasis.unflatten)."""
    data = {}
    for (lab, mono), c in zip(fb.pairs, column):
        if c:
            cur = data.setdefault(lab, {})
            cur[mono] = cur.get(mono, Fraction(0)) + c
    return Vec(fb.module, {lab: Poly(fb.module.algebra, t) for lab, t in data.items()})


def dense_flatten_map(linmap, src_basis, tgt_basis):
    """The dense matrix of linmap on flattened bases (the former flatten_map)."""
    cols = []
    algebra = linmap.source.algebra
    for lab, mono in src_basis.pairs:
        image = linmap.apply(linmap.source.basis_vec(lab, algebra.monomial(mono)))
        cols.append(dense_flatten_vec(tgt_basis, image))
    return [list(row) for row in zip(*cols)] if cols else [[] for _ in range(tgt_basis.dim)]


def sparse(column):
    return {i: c for i, c in enumerate(column) if c}


@st.composite
def graded_module(draw, algebra, name):
    n = draw(st.integers(1, 3))
    grades = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return BasedModule(algebra, tuple(f"{name}{i}" for i in range(n)), name, grades)


WINDOWS = st.one_of(st.none(), st.integers(0, 3))


def in_window(fb, vec):
    """vec without its terms of total grade above the window of fb."""
    M = fb.module
    if fb.window is None:
        return vec
    return Vec(M, {
        lab: Poly(M.algebra, {e: c for e, c in p.terms.items() if M.grade_of(lab) + sum(e) <= fb.window})
        for lab, p in vec.data.items()
    })


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_flatten_matches_the_dense_reference(data):
    algebra = data.draw(ALGEBRAS)
    fb = QBasis(data.draw(graded_module(algebra, "M")), data.draw(WINDOWS))
    v = data.draw(vectors(algebra, fb.module))
    col = fb.flatten(v)
    assert col == sparse(dense_flatten_vec(fb, v))
    assert all(col.values())
    # terms beyond the window are dropped, and inside it the round trip is exact
    back = fb.unflatten(col)
    assert back == dense_unflatten(fb, dense_flatten_vec(fb, v)) == in_window(fb, v)
    assert list(back.data) == list(dense_unflatten(fb, dense_flatten_vec(fb, v)).data)
    assert fb.flatten(back) == col
    assert_clean(back)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unflatten_matches_the_dense_reference(data):
    algebra = data.draw(ALGEBRAS)
    fb = QBasis(data.draw(graded_module(algebra, "M")), data.draw(WINDOWS))
    entry = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)])
    column = data.draw(st.lists(entry, min_size=fb.dim, max_size=fb.dim))
    # the entries may come in any order; the labels keep the basis order
    entries = dict(data.draw(st.permutations(list(sparse(column).items()))))
    v, want = fb.unflatten(entries), dense_unflatten(fb, column)
    assert v == want
    assert list(v.data) == list(want.data)
    assert fb.flatten(v) == sparse(column)
    assert_clean(v)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_flatten_map_matches_the_dense_reference(data):
    algebra = data.draw(ALGEBRAS)
    L, M = data.draw(graded_module(algebra, "L")), data.draw(graded_module(algebra, "M"))
    f = data.draw(linmaps(algebra, L, M))
    sb, tb = QBasis(L, data.draw(WINDOWS)), QBasis(M, data.draw(WINDOWS))
    cols = flatten_map(f.apply, sb, tb)
    dense = dense_flatten_map(f, sb, tb)
    assert len(cols) == sb.dim
    assert all(all(col.values()) for col in cols)
    assert dense_rational.from_columns(cols, tb.dim) == dense
    assert dense_rational.to_columns(dense, sb.dim) == cols


def test_flatten_drops_terms_beyond_the_window():
    x1, x2 = QX.gen(0), QX.gen(1)
    M = BasedModule(QX, ("a", "b"), "M", (0, 1))
    v = M.basis_vec("a", QX.one() + x1 + x1 * x2) + M.basis_vec("b", x2 + 2)
    fb = QBasis(M, 1)
    assert fb.pairs == [("a", (0, 0)), ("a", (0, 1)), ("a", (1, 0)), ("b", (0, 0))]
    assert fb.flatten(v) == {0: 1, 2: 1, 3: 2}
    assert fb.unflatten(fb.flatten(v)) == M.basis_vec("a", x1 + 1) + M.basis_vec("b", 2)
    assert QBasis(M).unflatten(QBasis(M).flatten(v)) == v
