"""Exterior algebra layer: wedge, shuffles, contractions, sign census, Koszul."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

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
    koszul_dual_form,
    merge_wedge,
    perm_sign,
    sign_census,
)
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


# -- antisymmetrize / symmetrize -------------------------------------------


def test_antisymmetrize_basic():
    c = ctx(3)
    t = c.tens(2).basis_vec((0, 1))
    assert c.antisymmetrize(t) == vec_of(c, 2, {(0, 1): 1})
    assert c.antisymmetrize(c.tens(2).basis_vec((0, 0))).is_zero()


def test_antisymmetrize_permutation_sign():
    # oracle: sign of the permutation (2,1,3) -> (1,2,3)
    c = ctx(3)
    t = c.tens(3).basis_vec((1, 0, 2))
    assert c.antisymmetrize(t) == vec_of(c, 3, {(0, 1, 2): -1})


def test_symmetrize_two():
    c = ctx(3)
    s = c.symmetrize(vec_of(c, 2, {(0, 1): 1}))
    expect = c.tens(2).basis_vec((0, 1), Fraction(1, 2)) - c.tens(2).basis_vec((1, 0), Fraction(1, 2))
    assert s == expect


def test_symmetrize_section():
    c = ctx(4)
    for p in range(5):
        for K in c.ext(p).labels:
            x = c.ext(p).basis_vec(K)
            assert c.antisymmetrize(c.symmetrize(x)) == x


def test_symmetrize_three_oracle():
    # oracle: enumerate S_3 directly
    c = ctx(3)
    got = c.symmetrize(vec_of(c, 3, {(0, 1, 2): 1}))
    expect = c.tens(3).zero()
    for sigma in permutations(range(3)):
        T = tuple((0, 1, 2)[i] for i in sigma)
        expect = expect + c.tens(3).basis_vec(T, Fraction(perm_sign(sigma), 6))
    assert got == expect


# -- shuffles ---------------------------------------------------------------


def test_shuffle_w11():
    c = ctx(2)
    w = c.shuffle_W(1, 1, vec_of(c, 2, {(0, 1): 1}))
    m = c.ext_pair_module(1, 1)
    expect = m.basis_vec(((0,), (1,)), Fraction(1, 2)) - m.basis_vec(((1,), (0,)), Fraction(1, 2))
    assert w == expect


def test_shuffle_empty_side():
    c = ctx(3)
    x = vec_of(c, 2, {(0, 2): 5})
    w = c.shuffle_W(2, 0, x)
    m = c.ext_pair_module(2, 0)
    assert w == m.basis_vec(((0, 2), ()), 5)


def test_shuffle_w21_oracle():
    # oracle: the three (2,1)-shuffles of (e1, e2, e3) with alternating signs
    c = ctx(3)
    w = c.shuffle_W(2, 1, vec_of(c, 3, {(0, 1, 2): 1}))
    m = c.ext_pair_module(2, 1)
    third = Fraction(1, 3)
    expect = (
        m.basis_vec(((0, 1), (2,)), third)
        - m.basis_vec(((0, 2), (1,)), third)
        + m.basis_vec(((1, 2), (0,)), third)
    )
    assert w == expect


def test_wedge_after_shuffle_is_identity():
    # section property for all basis vectors, ranks up to 4
    for s in range(1, 5):
        c = ctx(s)
        for p in range(s + 1):
            for q in range(s + 1 - p):
                for S in c.ext(p + q).labels:
                    x = c.ext(p + q).basis_vec(S)
                    w = c.shuffle_W(p, q, x)
                    out = c.ext(p + q).zero()
                    for (K, L), coeff in w.data.items():
                        out = out + c.wedge(c.ext(p).basis_vec(K, coeff), c.ext(q).basis_vec(L))
                    assert out == x


def test_shuffle_equals_antisym_tensor_sym():
    # W_{p,q} = (a_p (x) a_q) o s_{p+q} as matrices, exhaustively for s <= 4
    for s in range(1, 5):
        c = ctx(s)
        for p in range(s + 1):
            for q in range(s + 1 - p):
                for S in c.ext(p + q).labels:
                    x = c.ext(p + q).basis_vec(S)
                    w = c.shuffle_W(p, q, x)
                    t = c.symmetrize(x)
                    m = c.ext_pair_module(p, q)
                    expect = m.zero()
                    for T, coeff in t.data.items():
                        a = c.antisymmetrize(c.tens(p).basis_vec(T[:p]))
                        b = c.antisymmetrize(c.tens(q).basis_vec(T[p:]))
                        for K, ca in a.data.items():
                            for L, cb in b.data.items():
                                expect = expect + m.basis_vec((K, L), coeff * ca * cb)
                    assert w == expect


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
        # and the differential is right contraction by phi
        phi_form = koszul_dual_form(c, phi)
        for p in range(1, s + 1):
            for K in c.ext(p).labels:
                img = L.diff(-p).apply(c.ext(p).basis_vec(K))
                # right contraction on the dual side: swap roles of E and E*
                dualctx = ExteriorContext(QQ, s, name="E")
                contr = dualctx.contract_right(
                    dualctx.ext(p, dual=True).basis_vec(K),
                    dualctx.ext(1).zero()
                    + sum(
                        (dualctx.ext(1).basis_vec((k,), v) for k, v in enumerate(phi)),
                        dualctx.ext(1).zero(),
                    ),
                )
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
    # invertibility for r <= 3, every degree, via the flattened rank oracle
    from hkrlab.modules import QBasis, flatten_map

    for r in (1, 2, 3):
        c = ctx(r)
        for p in range(r + 1):
            for dual_map in (c.duality_left(p), c.duality_right(p)):
                sb, tb = QBasis(dual_map.source), QBasis(dual_map.target)
                assert ql.inverse(flatten_map(dual_map.apply, sb, tb), tb.dim) is not None


def test_duality_left_unit_case():
    c = ctx(2)
    src = c.duality_left(0).source
    xi = ((), (0, 1))
    got = c.duality_left(0).apply(src.basis_vec(xi))
    assert got == c.ext(2, dual=True).basis_vec((0, 1))


def test_duality_left_intertwines_left_action():
    # D^l((v ^ x) (x) xi) = v -| D^l(x (x) xi), exhaustively for r = 3
    c = ctx(3)
    r = 3
    xi_lab = (0, 1, 2)
    for p in range(r + 1):
        for q in range(r + 1 - p):
            Dq = c.duality_left(q)
            Dpq = c.duality_left(p + q)
            for K in c.ext(p).labels:
                v = c.ext(p).basis_vec(K)
                for L in c.ext(q).labels:
                    x = c.ext(q).basis_vec(L)
                    vx = c.wedge(v, x)
                    lhs = Dpq.source.zero()
                    for KL, coeff in vx.data.items():
                        lhs = lhs + Dpq.source.basis_vec((KL, xi_lab), coeff)
                    got = Dpq.apply(lhs)
                    want = c.contract_left(v, Dq.apply(Dq.source.basis_vec((L, xi_lab))))
                    assert got == want


def test_duality_right_intertwines_right_action():
    # D^r(x (x) xi) |- v = D^r((x ^ v) (x) xi)
    c = ctx(3)
    r = 3
    xi_lab = (0, 1, 2)
    for p in range(r + 1):
        for q in range(r + 1 - p):
            Dq = c.duality_right(q)
            Dpq = c.duality_right(p + q)
            for K in c.ext(p).labels:
                v = c.ext(p).basis_vec(K)
                for L in c.ext(q).labels:
                    x = c.ext(q).basis_vec(L)
                    xv = c.wedge(x, v)
                    rhs_src = Dpq.source.zero()
                    for KL, coeff in xv.data.items():
                        rhs_src = rhs_src + Dpq.source.basis_vec((KL, xi_lab), coeff)
                    want = Dpq.apply(rhs_src)
                    got = c.contract_right(Dq.apply(Dq.source.basis_vec((L, xi_lab))), v)
                    assert got == want


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
    assert ctx.symmetrize(zero3).module == ctx.tens(3)
    assert ctx.symmetrize(ctx.ext(3, dual=True).zero()).module == ctx.tens(3, dual=True)
    with pytest.raises(StructuralError):
        ctx.shuffle_W(1, 1, zero3)
    empty = ExteriorContext(QQ, 0)
    assert empty.antisymmetrize(empty.tens(2).zero()).module == empty.ext(2)


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
