"""Square-zero extension, its exterior algebra, and the shifted dg product."""

from fractions import Fraction
from itertools import product

import pytest

from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import TrivialExtension, build_extension, shifted_complex
from hkrlab.chain_core import homology_dims
from hkrlab.modules import LinMap, StructuralError, Vec
from hkrlab import rational as ql

import dense_rational as dense

QQ = CoeffAlgebra.rationals()
QX2 = CoeffAlgebra.polynomial(1, 2)

ALGEBRAS = [QQ, QX2]


def all_basis(ext, k):
    """Flattened basis elements of the degree-k shifted piece (monomial coefficients)."""
    M = ext.lam_b(k + 1)
    out = []
    for lab in M.labels:
        for mono in ext.algebra.monomials:
            out.append(M.basis_vec(lab, ext.algebra.monomial(mono)))
    return out


def test_rank_zero_rejected():
    with pytest.raises(ValueError):
        build_extension(QQ, 0)


def test_unit_is_two_sided():
    for A in ALGEBRAS:
        ext = build_extension(A, 2)
        one = ext.unit()
        for v in all_basis(ext, 0):
            assert ext.b_mul(one, v) == v
            assert ext.b_mul(v, one) == v


def test_square_zero():
    ext = build_extension(QQ, 3)
    for i in range(3):
        for j in range(3):
            x = ext.b_elem([1 if t == i else 0 for t in range(3)], 0)
            y = ext.b_elem([1 if t == j else 0 for t in range(3)], 0)
            assert ext.b_mul(x, y).is_zero()


def test_b_product_associative_exhaustive():
    for A in ALGEBRAS:
        ext = build_extension(A, 2)
        basis = all_basis(ext, 0)
        for x in basis:
            for y in basis:
                xy = ext.b_mul(x, y)
                for z in basis:
                    assert ext.b_mul(xy, z) == ext.b_mul(x, ext.b_mul(y, z))


def test_split_iso_and_differential_transport():
    # the splitting map (i,j) |-> i + 1_B ^ j is invertible and transports
    # the Koszul differential of pr_2 to (project, include), for all k <= r+1
    for r in (1, 2, 3):
        ext = build_extension(QQ, r)
        for k in range(r + 2):
            iso = ext.eq_split_iso(k)
            rows = dense.mat([[e.constant_term() for e in row] for row in iso.dense()])
            assert ql.inverse(dense.to_columns(rows, iso.source.rank), iso.target.rank) is not None
            if k >= 1:
                lhs = ext.d_unsplit(k).compose(iso)
                rhs = ext.eq_split_iso(k - 1).compose(ext.d(k))
                assert lhs == rhs


def test_split_join_round_trip_and_foreign_module_is_rejected():
    ext = build_extension(QX2, 2)
    other = build_extension(QX2, 3)
    x = QX2.gen(0)
    for k in range(4):
        M = ext.lam_b(k)
        v = M.zero()
        for n, lab in enumerate(M.labels):
            v = v + M.basis_vec(lab, x * (n + 1) + n)
        i_part, j_part = ext.split(v)
        assert ext.join(k, i_part, j_part) == v
        # same module name "L^kB", different rank: its labels are not ext's
        foreign = other.lam_b(k)
        for lab in foreign.labels:
            if lab not in M.label_index:
                with pytest.raises(StructuralError):
                    ext.split(foreign.basis_vec(lab))


def test_degrees_come_from_the_extension_not_from_module_names():
    ext = build_extension(QX2, 2)
    other = build_extension(QX2, 3)
    wedge = ext.exterior.wedge
    for k in range(4):
        assert ext.degree_of(ext.lam_b(k)) == k
    e0, e1 = ext.lam_i(1).basis_vec((0,)), ext.lam_i(1).basis_vec((1,))
    assert wedge(e0, e1) == ext.lam_i(2).basis_vec((0, 1))
    # "L^1(I)" and "L^2B" of the rank-3 extension: the names match, the modules do not
    foreign = other.lam_i(1).basis_vec((0,))
    with pytest.raises(StructuralError):
        wedge(foreign, e1)
    with pytest.raises(StructuralError):
        wedge(e1, foreign)
    with pytest.raises(StructuralError):
        ext.degree_of(other.lam_b(2))
    # a Lambda^k B element is not a Lambda^k I element
    with pytest.raises(StructuralError):
        wedge(ext.lam_b(1).basis_vec(("i", (0,))), e1)
    with pytest.raises(StructuralError):
        ext.degree_of(ext.lam_i(1))


def test_the_extensions_own_context_takes_its_exterior_powers():
    ext = build_extension(QX2, 3)
    ctx = ext.exterior
    for p in range(4):
        assert ctx.ext(p) is ext.lam_i(p)
        assert ctx.degree_of(ext.lam_i(p).zero()) == p
    e0, e12 = ext.lam_i(1).basis_vec((0,), QX2.gen(0)), ext.lam_i(2).basis_vec((1, 2))
    assert ctx.wedge(e0, e12) == ext.lam_i(3).basis_vec((0, 1, 2), QX2.gen(0))
    f012 = ctx.ext(3, dual=True).basis_vec((0, 1, 2))
    assert ctx.contract_left(e12, f012) == ctx.ext(1, dual=True).basis_vec((0,))
    # a foreign extension's Lambda^p I, of another rank or another algebra
    for foreign in (build_extension(QX2, 2), build_extension(QQ, 3)):
        x = foreign.lam_i(1).basis_vec((0,))
        with pytest.raises(StructuralError):
            ctx.wedge(x, e12)
        with pytest.raises(StructuralError):
            ctx.wedge(e12, x)
        with pytest.raises(StructuralError):
            ctx.contract_left(x, f012)


def test_hat_d_squares_to_zero():
    for r in (1, 2, 3):
        ext = build_extension(QQ, r)
        shifted_complex(ext)  # d o d checked at construction


def test_shifted_complex_exact_in_negative_degrees():
    for A in ALGEBRAS:
        for r in (1, 2, 3):
            ext = build_extension(A, r)
            dims = homology_dims(shifted_complex(ext))
            for n, d in dims.items():
                if n < 0:
                    assert d == 0
            # H^0 = B / im(d_2) = B / I = A
            assert dims[0] == A.dimension()


def test_star_unit():
    ext = build_extension(QQ, 2)
    one = ext.unit()
    for k in range(3):
        for v in all_basis(ext, k):
            assert ext.star(0, k, one, v) == v
            assert ext.star(k, 0, v, one) == v


def test_star_cross_validates_abstract_formula():
    for A in ALGEBRAS:
        ext = build_extension(A, 2)
        for k in range(3):
            for l in range(3 - k):
                for x in all_basis(ext, k):
                    for y in all_basis(ext, l):
                        assert ext.star(k, l, x, y) == ext.star_abstract(k, l, x, y)


def test_star_is_b_product_in_degree_zero():
    # b_mul is star(0, 0); it must give the product of B, (i,a)(i',a') =
    # (ia' + ai', aa') on split parts, for basis elements and sums of two
    for A in ALGEBRAS:
        ext = build_extension(A, 2)
        basis = all_basis(ext, 0)
        elems = basis + [u + v.scale(-2) for u, v in zip(basis, reversed(basis))]
        for x in elems:
            for y in elems:
                i1, j1 = ext.split(x)
                i2, j2 = ext.split(y)
                a1, a2 = j1.coeff(()), j2.coeff(())
                want = ext.join(1, i1.scale(a2) + i2.scale(a1), ext.lam_i(0).basis_vec((), a1 * a2))
                assert ext.b_mul(x, y) == want


def test_b_action_formula():
    # (i,0)*(i1,j1) = (i ^ j1, 0) and (0,a)*(i1,j1) = (a i1, a j1)
    ext = build_extension(QQ, 3)
    i = ext.b_elem([1, 0, 0], 0)
    a = ext.b_elem([0, 0, 0], 5)
    M = ext.lam_b(2)
    x = M.basis_vec(("i", (1, 2))) + M.basis_vec(("j", (1,)), 3)
    got_i = ext.b_action(2, i, x)
    i1, j1 = ext.split(x)
    expect_i = ext.join(2, ext.exterior.wedge(ext.lam_i(1).basis_vec((0,)), j1), None)
    assert got_i == expect_i
    got_a = ext.b_action(2, a, x)
    assert got_a == x.scale(5)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_star_associative_exhaustive(r):
    A = QX2 if r <= 2 else QQ
    ext = build_extension(A, r)
    degs = range(r + 1)
    for k in degs:
        for l in degs:
            for m in degs:
                if k + l + m > r:
                    continue
                for x in all_basis(ext, k):
                    for y in all_basis(ext, l):
                        xy = ext.star(k, l, x, y)
                        for z in all_basis(ext, m):
                            lhs = ext.star(k + l, m, xy, z)
                            rhs = ext.star(k, l + m, x, ext.star(l, m, y, z))
                            assert lhs == rhs


@pytest.mark.parametrize("r", [1, 2, 3])
def test_leibniz_exhaustive(r):
    A = QX2 if r <= 2 else QQ
    ext = build_extension(A, r)
    for k in range(r + 1):
        for l in range(r + 1 - k):
            dk, dl, dkl = ext.hat_d(k), ext.hat_d(l), ext.hat_d(k + l)
            for x in all_basis(ext, k):
                dx = dk.apply(x)
                for y in all_basis(ext, l):
                    lhs = dkl.apply(ext.star(k, l, x, y))
                    rhs = ext.star(k - 1, l, dx, y) if k else ext.lam_b(k + l).zero()
                    if l:
                        rhs = rhs + ext.star(k, l - 1, x, dl.apply(y)).scale((-1) ** k)
                    assert lhs == rhs


def test_b_module_axiom_on_every_power():
    # (b b') m = b (b' m) exhaustively
    ext = build_extension(QQ, 2)
    bs = all_basis(ext, 0)
    for k in (1, 2, 3):
        for b1 in bs:
            for b2 in bs:
                b12 = ext.b_mul(b1, b2)
                for m in ext.lam_b(k).basis():
                    assert ext.b_action(k, b12, m) == ext.b_action(k, b1, ext.b_action(k, b2, m))


def test_pi_multiplicative():
    for A in ALGEBRAS:
        ext = build_extension(A, 2)
        # pi on degree 0 is pr_2, higher degrees map to zero
        assert ext.pi(0, ext.unit()) == A.one()
        for k in (1, 2):
            for v in all_basis(ext, k):
                assert ext.pi(k, v).is_zero()
        basis = all_basis(ext, 0)
        for x in basis:
            for y in basis:
                assert ext.pi(0, ext.star(0, 0, x, y)) == ext.pi(0, x) * ext.pi(0, y)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_star_graded_commutative_random(data):
    # the shifted product is graded commutative on random elements
    r = data.draw(st.integers(1, 3))
    ext = build_extension(QQ, r)
    k = data.draw(st.integers(0, r))
    l = data.draw(st.integers(0, r - k))
    def rand_elem(deg):
        M = ext.lam_b(deg + 1)
        out = M.zero()
        for lab in M.labels:
            out = out + M.basis_vec(lab, data.draw(st.integers(-3, 3)))
        return out
    x, y = rand_elem(k), rand_elem(l)
    lhs = ext.star(k, l, x, y)
    rhs = ext.star(l, k, y, x).scale((-1) ** (k * l))
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_b_action_linear_over_products_random(data):
    r = data.draw(st.integers(1, 3))
    ext = build_extension(QQ, r)
    k = data.draw(st.integers(1, r + 1))
    def rand_b():
        out = ext.B.zero()
        for lab in ext.B.labels:
            out = out + ext.B.basis_vec(lab, data.draw(st.integers(-2, 2)))
        return out
    b1, b2 = rand_b(), rand_b()
    M = ext.lam_b(k)
    x = M.zero()
    for lab in M.labels:
        x = x + M.basis_vec(lab, data.draw(st.integers(-2, 2)))
    assert ext.b_action(k, ext.b_mul(b1, b2), x) == ext.b_action(k, b1, ext.b_action(k, b2, x))


def coefficients(algebra):
    """Small coefficients, often of positive degree over QX2, so that
    products overflow the degree bound."""
    term = st.tuples(st.sampled_from(algebra.monomials), st.integers(-2, 2))
    return st.lists(term, max_size=2).map(
        lambda ts: sum((algebra.monomial(e, c) for e, c in ts), algebra.zero())
    )


@st.composite
def shifted_elements(draw, ext, k):
    """An element of the degree-k piece whose coefficients repeat, with a
    sign, from a pool of two, so that terms of a product can cancel."""
    M = ext.lam_b(k + 1)
    pool = [draw(coefficients(ext.algebra)), draw(coefficients(ext.algebra))]
    return Vec(M, {lab: draw(st.sampled_from(pool)) * draw(st.sampled_from([1, -1, 0])) for lab in M.labels})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_star_matches_abstract_formula_random(data):
    A = data.draw(st.sampled_from(ALGEBRAS))
    r = data.draw(st.integers(1, 3))
    ext = build_extension(A, r)
    k = data.draw(st.integers(0, r))
    l = data.draw(st.integers(0, r - k))
    x = data.draw(shifted_elements(ext, k))
    y = data.draw(shifted_elements(ext, l))
    pairs = [(k, l, x, y)]
    if 2 * k <= r:
        pairs.append((k, k, x, x))  # for odd k every term cancels: x*x = -x*x
    for a, b, u, v in pairs:
        got = ext.star(a, b, u, v)
        assert got == ext.star_abstract(a, b, u, v)
        assert all(c.terms for c in got.data.values())
