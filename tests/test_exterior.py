"""Exterior algebra layer: wedge, shuffles, contractions, sign census, Koszul."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab.coeff import CoeffAlgebra
from hkrlab.exterior_core import (
    ExteriorContext,
    SignFunction,
    check_sign_action,
    domain_pairs,
    four_standard_sign_functions,
    koszul_complex,
    koszul_dual_check,
    merge_wedge,
    perm_sign,
    shuffles,
    sign_census,
    sort_sign,
    symmetrizations,
)
from hkrlab.extension_dg import build_extension
from hkrlab.hkr_local import antisymmetrize, tensor_power_module
from hkrlab.chain_core import homology
from hkrlab.modules import BasedModule, StructuralError
from hkrlab import rational as ql

QQ = CoeffAlgebra.rationals()


def ctx(rank):
    return ExteriorContext(QQ, rank)


def vec_of(c, p, coeffs):
    """Element of Lambda^p from {index tuple: coefficient}."""
    m = c.ext(p)
    out = m.zero()
    for K, a in coeffs.items():
        out = out + m.basis_vec(tuple(K), a)
    return out


def random_element(c, p, rng, dual=False):
    m = c.ext(p, dual)
    out = m.zero()
    for K in m.labels:
        out = out + m.basis_vec(K, rng.randint(-3, 3))
    return out


# -- wedge ----------------------------------------------------------------


def test_wedge_alternating_basis():
    c = ctx(3)
    e1 = vec_of(c, 1, {(0,): 1})
    assert c.wedge(e1, e1).is_zero()


def test_wedge_basis_case():
    c = ctx(3)
    e1 = vec_of(c, 1, {(0,): 1})
    e2 = vec_of(c, 1, {(1,): 1})
    assert c.wedge(e1, e2) == vec_of(c, 2, {(0, 1): 1})


def test_wedge_bilinear_expansion():
    # oracle: expand (e1+e2)^(e1-e2) over the basis by hand
    c = ctx(2)
    x = vec_of(c, 1, {(0,): 1, (1,): 1})
    y = vec_of(c, 1, {(0,): 1, (1,): -1})
    assert c.wedge(x, y) == vec_of(c, 2, {(0, 1): -2})


def test_wedge_structural_error():
    c = ctx(2)
    other = ExteriorContext(CoeffAlgebra.polynomial(1, 2), 2)
    with pytest.raises(StructuralError):
        c.wedge(vec_of(c, 1, {(0,): 1}), other.ext(1).basis_vec((0,)))
    with pytest.raises(StructuralError):
        c.wedge(c.ext(1).basis_vec((0,)), c.ext(1, dual=True).basis_vec((0,)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_graded_commutative(data):
    s = data.draw(st.integers(2, 4))
    c = ctx(s)
    p = data.draw(st.integers(0, s))
    q = data.draw(st.integers(0, s - p))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = random_element(c, p, rng)
    y = random_element(c, q, rng)
    lhs = c.wedge(x, y)
    rhs = c.wedge(y, x).scale((-1) ** (p * q))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_wedge_associative(data):
    s = data.draw(st.integers(2, 4))
    c = ctx(s)
    degs = data.draw(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
            lambda t: sum(t) <= s
        )
    )
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x, y, z = (random_element(c, d, rng) for d in degs)
    assert c.wedge(c.wedge(x, y), z) == c.wedge(x, c.wedge(y, z))


# -- antisymmetrization and symmetrization -----------------------------------
#
# kappa writes s_p(j_K) through symmetrizations, and zeta antisymmetrizes
# both parts of a tensor power of B (x) I through hkr_local.antisymmetrize,
# which reads sort_sign: these tests check those two rules.


def tensor_power(ext, p, part, coeffs):
    """Element of the p-th tensor power of B (x) I from {tuple: coefficient} in one part."""
    return tensor_power_module(ext, p).element(((part, T), c) for T, c in coeffs.items())


def test_antisymmetrize_basic():
    ext = build_extension(QQ, 3)
    for part, p in (("j", 2), ("i", 1)):
        t = tensor_power(ext, p, part, {(0, 1): 1})
        assert antisymmetrize(ext, p, t) == ext.lam_b(p + 1).basis_vec((part, (0, 1)))
        assert antisymmetrize(ext, p, tensor_power(ext, p, part, {(0, 0): 1})).is_zero()


def test_antisymmetrize_permutation_sign():
    # oracle: sign of the permutation (2,1,3) -> (1,2,3)
    ext = build_extension(QQ, 3)
    for part, p in (("j", 3), ("i", 2)):
        t = tensor_power(ext, p, part, {(1, 0, 2): 1})
        assert antisymmetrize(ext, p, t) == ext.lam_b(p + 1).basis_vec((part, (0, 1, 2)), -1)


def test_symmetrize_two():
    assert symmetrizations((0, 1)) == [(Fraction(1, 2), (0, 1)), (Fraction(-1, 2), (1, 0))]


def test_symmetrize_section():
    # a_p(s_p(j_K)) = j_K, the path kappa and zeta take, at rank 4; the same on the i part
    ext = build_extension(QQ, 4)
    for part, n in (("j", 0), ("i", 1)):
        for p in range(5 - n):
            for K in combinations(range(4), p + n):
                s = tensor_power(ext, p, part, {T: w for w, T in symmetrizations(K)})
                assert antisymmetrize(ext, p, s) == ext.lam_b(p + 1).basis_vec((part, K))


def test_symmetrize_three_oracle():
    # oracle: enumerate S_3 directly
    got = {}
    for w, T in symmetrizations((0, 1, 2)):
        got[T] = got.get(T, 0) + w
    expect = {tuple((0, 1, 2)[i] for i in sigma): Fraction(perm_sign(sigma), 6) for sigma in permutations(range(3))}
    assert got == expect


# -- shuffles ---------------------------------------------------------------


def shuffle_terms(S, p):
    """W_{p,q}(e_S) as {(K, L): coefficient}."""
    out = {}
    for w, K, L in shuffles(S, p):
        out[K, L] = out.get((K, L), 0) + w
    return out


def test_shuffle_w11():
    assert shuffle_terms((0, 1), 1) == {((0,), (1,)): Fraction(1, 2), ((1,), (0,)): Fraction(-1, 2)}


def test_shuffle_empty_side():
    assert shuffle_terms((0, 2), 2) == {((0, 2), ()): 1}
    assert shuffle_terms((0, 2), 0) == {((), (0, 2)): 1}


def test_shuffle_w21_oracle():
    # oracle: the three (2,1)-shuffles of (e1, e2, e3) with alternating signs
    third = Fraction(1, 3)
    assert shuffle_terms((0, 1, 2), 2) == {((0, 1), (2,)): third, ((0, 2), (1,)): -third, ((1, 2), (0,)): third}


def test_wedge_after_shuffle_is_identity():
    # section property for all basis vectors, ranks up to 4
    for s in range(1, 5):
        c = ctx(s)
        for p in range(s + 1):
            for q in range(s + 1 - p):
                for S in c.ext(p + q).labels:
                    out = c.ext(p + q).zero()
                    for w, K, L in shuffles(S, p):
                        out = out + c.wedge(c.ext(p).basis_vec(K, w), c.ext(q).basis_vec(L))
                    assert out == c.ext(p + q).basis_vec(S)


def test_shuffle_equals_antisym_tensor_sym():
    # W_{p,q} = (a_p (x) a_q) o s_{p+q} as matrices, exhaustively for s <= 4
    for s in range(1, 5):
        c = ctx(s)
        for p in range(s + 1):
            for q in range(s + 1 - p):
                for S in c.ext(p + q).labels:
                    expect = {}
                    for coeff, T in symmetrizations(S):
                        a, b = sort_sign(T[:p]), sort_sign(T[p:])
                        key = (a[1], b[1])
                        expect[key] = expect.get(key, 0) + coeff * a[0] * b[0]
                    assert shuffle_terms(S, p) == {k: v for k, v in expect.items() if v}


# -- translation operator ----------------------------------------------------


def test_translate_wedge_by_element():
    # t^1_{2,0} of (1 |-> e1^e2) is wedging with e1^e2 on Lambda^1
    c = ctx(3)
    from hkrlab.modules import LinMap

    phi = LinMap.from_function(c.ext(0), c.ext(2), lambda v: vec_of(c, 2, {(0, 1): 1}).scale(v.coeff(())))
    t = c.translate(2, 0, 1, phi)
    for k in range(3):
        got = t.apply(c.ext(1).basis_vec((k,)))
        expect = c.wedge(vec_of(c, 2, {(0, 1): 1}), c.ext(1).basis_vec((k,)))
        assert got == expect


def test_translate_identity():
    from hkrlab.modules import LinMap

    for s in (2, 3):
        c = ctx(s)
        for p in range(s):
            for m in range(s - p):
                t = c.translate(p, p, m, LinMap.identity(c.ext(p)))
                assert t == LinMap.identity(c.ext(p + m))


def test_translate_against_direct_composition_oracle():
    # independent oracle: brute-force shuffle expansion of the defining composite
    c = ctx(3)
    from hkrlab.modules import LinMap

    phi = LinMap(c.ext(1), c.ext(1))
    phi.set_column((0,), c.ext(1).basis_vec((1,)))
    phi.set_column((1,), c.ext(1).basis_vec((0,)))
    # phi(e3) = 0
    t = c.translate(1, 1, 1, phi)
    for S in c.ext(2).labels:
        expect = c.ext(2).zero()
        for K in combinations(S, 1):
            L = tuple(i for i in S if i not in K)
            sgn = perm_sign(K + L)
            img = phi.apply(c.ext(1).basis_vec(K))
            expect = expect + c.wedge(img, c.ext(1).basis_vec(L)).scale(Fraction(sgn, 2))
        assert t.apply(c.ext(2).basis_vec(S)) == expect


# -- contractions -------------------------------------------------------------


def test_contract_unit():
    c = ctx(3)
    one = c.ext(0).basis_vec(())
    phi = random_element(c, 2, random.Random(1), dual=True)
    assert c.contract_left(one, phi) == phi
    assert c.contract_right(phi, one) == phi


def test_contract_left_transpose_oracle():
    # oracle: (v -| phi)(x) = phi(x ^ v) evaluated on all basis x, s = 2
    c = ctx(2)
    e1 = c.ext(1).basis_vec((0,))
    f12 = c.ext(2, dual=True).basis_vec((0, 1))
    got = c.contract_left(e1, f12)
    # expected: coefficient of f_J is sign(e_J ^ e1 = +- e_{01})
    assert got == c.ext(1, dual=True).basis_vec((1,), -1)


def test_contract_left_full_degree():
    c = ctx(2)
    e12 = c.ext(2).basis_vec((0, 1))
    f12 = c.ext(2, dual=True).basis_vec((0, 1))
    got = c.contract_left(e12, f12)
    assert got == c.ext(0, dual=True).basis_vec((), 1)


def test_contract_right_oracle():
    c = ctx(2)
    f12 = c.ext(2, dual=True).basis_vec((0, 1))
    e1 = c.ext(1).basis_vec((0,))
    assert c.contract_right(f12, e1) == c.ext(1, dual=True).basis_vec((1,), 1)
    c3 = ctx(3)
    f123 = c3.ext(3, dual=True).basis_vec((0, 1, 2))
    e12 = c3.ext(2).basis_vec((0, 1))
    assert c3.contract_right(f123, e12) == c3.ext(1, dual=True).basis_vec((2,), 1)


def test_contract_higher_into_lower_is_zero():
    c = ctx(3)
    v = c.ext(2).basis_vec((0, 1))
    phi = c.ext(1, dual=True).basis_vec((2,))
    assert c.contract_left(v, phi).is_zero()
    assert c.contract_right(phi, v).is_zero()


def test_contraction_transposes_multiplication():
    # full transpose oracle on every basis triple, s <= 3:
    # <v -| phi, x> = <phi, x ^ v> and <phi |- v, x> = <phi, v ^ x>
    for s in (2, 3):
        c = ctx(s)
        for p in range(s + 1):
            for q in range(s + 1):
                for K in c.ext(p).labels:
                    v = c.ext(p).basis_vec(K)
                    for M in c.ext(q, dual=True).labels:
                        phi = c.ext(q, dual=True).basis_vec(M)
                        left = c.contract_left(v, phi)
                        right = c.contract_right(phi, v)
                        for J in c.ext(q - p).labels if 0 <= q - p else []:
                            x = c.ext(q - p).basis_vec(J)
                            xw = c.wedge(x, v)
                            wx = c.wedge(v, x)
                            assert left.coeff(J) == xw.coeff(M)
                            assert right.coeff(J) == wx.coeff(M)


def test_contraction_module_axioms_exhaustive():
    # associativity on all basis triples, s <= 4
    for s in range(1, 5):
        c = ctx(s)
        for p1 in range(s + 1):
            for p2 in range(s + 1 - p1):
                for q in range(s + 1):
                    for K in c.ext(p1).labels:
                        v = c.ext(p1).basis_vec(K)
                        for L in c.ext(p2).labels:
                            w = c.ext(p2).basis_vec(L)
                            vw = c.wedge(v, w)
                            for M in c.ext(q, dual=True).labels:
                                phi = c.ext(q, dual=True).basis_vec(M)
                                assert c.contract_left(vw, phi) == c.contract_left(
                                    v, c.contract_left(w, phi)
                                )
                                assert c.contract_right(phi, vw) == c.contract_right(
                                    c.contract_right(phi, v), w
                                )


# -- sign census ---------------------------------------------------------------


def test_trivial_sign_function_acts():
    for r in (2, 3):
        chi = SignFunction.from_callable(r, lambda p, q: 1)
        assert check_sign_action(chi, r, "left")
        assert check_sign_action(chi, r, "right")


def test_third_bullet_sign_function_acts():
    for r in (2, 3):
        chi = SignFunction.from_callable(r, lambda p, q: (-1) ** (p * (p + 1) // 2 + p * q))
        assert check_sign_action(chi, r, "left")
        assert check_sign_action(chi, r, "right")


def test_minus_one_fails_unit():
    chi = SignFunction.from_callable(2, lambda p, q: -1)
    assert not check_sign_action(chi, 2, "left")
    assert not check_sign_action(chi, 2, "right")


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("side", ["left", "right"])
def test_census_exactly_four(r, side):
    passing = sign_census(r, side)
    expected = {tuple(chi.values) for chi in four_standard_sign_functions(r)}
    assert len(expected) == 4
    assert {tuple(chi.values) for chi in passing} == expected


# -- Koszul complexes ------------------------------------------------------------


def test_koszul_rank_one():
    A = CoeffAlgebra.polynomial(1, 3, ("y1",))
    c = ExteriorContext(A, 1, name="M")
    L = koszul_complex(c, [A.gen(0)])
    assert L.degrees() == [-1, 0]
    d = L.diff(-1)
    assert d.apply(c.ext(1).basis_vec((0,))) == c.ext(0).basis_vec((), A.gen(0))


def test_koszul_classical_variables():
    # Koszul complex of the variables resolves the ground field gradewise
    A = CoeffAlgebra.polynomial(2, 3, ("y1", "y2"))
    c = ExteriorContext(A, 2, name="M")
    L = koszul_complex(c, [A.gen(0), A.gen(1)])
    for g in range(3):  # grades <= D - 1
        assert homology(L, 0, grade=g).dim == (1 if g == 0 else 0)
        assert homology(L, -1, grade=g).dim == 0
        assert homology(L, -2, grade=g).dim == 0


def test_koszul_differential_squares_random():
    rng = random.Random(7)
    for s in (2, 3, 4):
        c = ctx(s)
        phi = [Fraction(rng.randint(-4, 4)) for _ in range(s)]
        L = koszul_complex(c, phi)  # d o d = 0 checked at construction
        # and the differential is right contraction by phi, on the dual side:
        # the roles of E and E* swapped, phi is an element of Lambda^1 E
        dualctx = ExteriorContext(QQ, s, name="E")
        phi_form = dualctx.ext(1).element(((k,), v) for k, v in enumerate(phi))
        for p in range(1, s + 1):
            for K in c.ext(p).labels:
                img = L.diff(-p).apply(c.ext(p).basis_vec(K))
                contr = dualctx.contract_right(dualctx.ext(p, dual=True).basis_vec(K), phi_form)
                assert sorted((J, cc) for J, cc in img.data.items() if not cc.is_zero()) == sorted(
                    (J, cc) for J, cc in contr.data.items() if not cc.is_zero()
                )


@pytest.mark.parametrize("s", [1, 2, 3])
def test_koszul_duality_random(s):
    rng = random.Random(100 + s)
    c = ctx(s)
    for _ in range(5):
        phi = [Fraction(rng.randint(-5, 5)) for _ in range(s)]
        ok, details = koszul_dual_check(c, phi)
        assert ok, details


def test_koszul_duality_zero_form():
    c = ctx(2)
    ok, _ = koszul_dual_check(c, [0, 0])
    assert ok


def test_koszul_dual_sign_convention():
    # Hom(L, A) differential is -( . ^ phi) for s = 1
    A = QQ
    c = ctx(1)
    phi = [Fraction(3)]
    from hkrlab.chain_core import hom_complex, single_module_complex
    from hkrlab.modules import BasedModule

    L = koszul_complex(c, phi)
    A_cplx = single_module_complex(A, BasedModule(A, ((),), "A"), 0)
    Lstar = hom_complex(L, A_cplx)
    d0 = Lstar.diff(0)
    col = d0.apply(Lstar.module(0).basis_vec((0, ((), ()))))
    assert col == Lstar.module(1).basis_vec((-1, ((0,), ())), -3)


def test_duality_maps_invertible_rank_oracle():
    # invertibility for r <= 3, every degree.  D^r: the flag koszul-duality
    # reads, against the inverse oracle.  D^l: v |-> v -| xi sends the basis
    # of Lambda^p E to distinct +-1 multiples of basis vectors of Lambda^{r-p} E*
    for r in (1, 2, 3):
        c = ctx(r)
        xi = c.ext(r, dual=True).basis_vec(tuple(range(r)))
        for p in range(r + 1):
            _, labels, cols, invertible = c.right_duality(p)
            assert invertible
            assert ql.inverse(cols, len(labels)) is not None
            images = [c.contract_left(c.ext(p).basis_vec(K), xi) for K in c.ext(p).labels]
            assert all(img.module == c.ext(r - p, dual=True) and len(img.data) == 1 for img in images)
            assert all(a in (QQ.const(1), QQ.const(-1)) for img in images for a in img.data.values())
            assert sorted(next(iter(img.data)) for img in images) == list(c.ext(r - p, dual=True).labels)


def test_duality_left_unit_case():
    # D^l(1 (x) xi) = 1 -| xi = xi
    c = ctx(2)
    xi = c.ext(2, dual=True).basis_vec((0, 1))
    assert c.contract_left(c.ext(0).basis_vec(()), xi) == xi


def test_duality_left_intertwines_left_action():
    # D^l((v ^ x) (x) xi) = v -| D^l(x (x) xi): (v ^ x) -| xi = v -| (x -| xi),
    # exhaustively for r = 3
    c = ctx(3)
    xi = c.ext(3, dual=True).basis_vec((0, 1, 2))
    for p in range(4):
        for q in range(4 - p):
            for K in c.ext(p).labels:
                v = c.ext(p).basis_vec(K)
                for L in c.ext(q).labels:
                    x = c.ext(q).basis_vec(L)
                    assert c.contract_left(c.wedge(v, x), xi) == c.contract_left(v, c.contract_left(x, xi))


def test_duality_right_intertwines_right_action():
    # D^r(x (x) xi) |- v = D^r((x ^ v) (x) xi): (xi |- x) |- v = xi |- (x ^ v),
    # exhaustively for r = 3
    c = ctx(3)
    xi = c.ext(3, dual=True).basis_vec((0, 1, 2))
    for p in range(4):
        for q in range(4 - p):
            for K in c.ext(p).labels:
                v = c.ext(p).basis_vec(K)
                for L in c.ext(q).labels:
                    x = c.ext(q).basis_vec(L)
                    assert c.contract_right(c.contract_right(xi, x), v) == c.contract_right(xi, c.wedge(x, v))


def test_translate_rank_too_small_rejected():
    from hkrlab.modules import LinMap, StructuralError

    c = ctx(2)
    with pytest.raises(StructuralError):
        c.translate(2, 1, 1, LinMap(c.ext(1), c.ext(2)))


def test_degree_and_side_are_read_from_the_power_the_context_built():
    ctx = ExteriorContext(QQ, 2)
    zero3 = ctx.ext(3).zero()  # Lambda^3 of a rank-2 module: no basis vectors
    assert ctx.degree_of(zero3) == 3
    w = ctx.wedge(zero3, ctx.ext(1).basis_vec((0,)))
    assert w.module == ctx.ext(4) and w.is_zero()
    e0 = ctx.ext(1).basis_vec((0,))
    assert ctx.contract_right(ctx.ext(3, dual=True).zero(), e0).module == ctx.ext(2, dual=True)
    with pytest.raises(StructuralError):
        ctx.contract_right(zero3, e0)  # a power of E, though it holds no basis vector
    empty = ExteriorContext(QQ, 0)
    assert empty.wedge(empty.ext(2).zero(), empty.ext(0).basis_vec(())).module == empty.ext(2)


def test_module_the_context_did_not_build_is_rejected():
    ctx = ExteriorContext(QQ, 2)
    # a dual-looking name does not make a module a power of E*
    foreign = BasedModule(QQ, ((0,), (1,)), "M(E*)", (1, 1))
    x = foreign.basis_vec((0,))
    with pytest.raises(StructuralError):
        ctx.wedge(x, ctx.ext(1, dual=True).basis_vec((1,)))
    with pytest.raises(StructuralError):
        ctx.degree_of(x)
    with pytest.raises(StructuralError):
        ctx.contract_left(ctx.ext(1).basis_vec((0,)), x)
