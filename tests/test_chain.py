"""Chain complex machinery: homology, Hom/tensor, totalization, quasi-isomorphisms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab.coeff import CoeffAlgebra
from hkrlab.chain_core import (
    CochainComplex,
    ComplexMap,
    homology,
    homology_dims,
    hom_complex,
    is_quasi_iso,
    single_module_complex,
    tensor_complex,
    totalize,
)
from hkrlab.hkr_local import LocalModel, k_augmentation, zeta
from hkrlab.modules import BasedModule, LinMap, StructuralError
from hkrlab import rational as ql
from hkrlab.rational import Solver

import dense_rational as dense

QQ = CoeffAlgebra.rationals()


def free_module(n, name):
    return BasedModule(QQ, tuple(range(n)), name)


def two_term(matrix, name="C"):
    """Complex [Q^m -> Q^n] in degrees 0, 1 with the given matrix."""
    m = len(matrix[0]) if matrix else 0
    n = len(matrix)
    M0, M1 = free_module(m, f"{name}0"), free_module(n, f"{name}1")
    d = LinMap(M0, M1)
    for j in range(m):
        col = M1.zero()
        for i in range(n):
            col = col + M1.basis_vec(i, matrix[i][j])
        d.set_column(j, col)
    return CochainComplex(QQ, {0: M0, 1: M1}, {0: d})


def test_d_squared_checked():
    M = free_module(1, "M")
    d = LinMap.identity(M)
    with pytest.raises(ValueError):
        CochainComplex(QQ, {0: M, 1: M, 2: M}, {0: d, 1: d})


def test_zero_complex_homology():
    C = CochainComplex(QQ, {}, {})
    assert homology(C, 0).dim == 0
    assert homology(C, 5).dim == 0  # outside support: zero, not an error


def test_homology_rank_nullity_oracle():
    # random 3-term complex with planted exactness defect, checked against
    # a dense rank oracle
    rng = random.Random(5)
    for _ in range(10):
        n = 4
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        # build C: Q^n -> Q^n -> Q^n with d1 = A, d0 = generator of ker A
        ker = dense.nullspace(A)
        if not ker:
            continue
        d0cols = ker
        M0 = free_module(len(d0cols), "M0")
        M1 = free_module(n, "M1")
        M2 = free_module(n, "M2")
        d0 = LinMap(M0, M1)
        for j, col in enumerate(d0cols):
            v = M1.zero()
            for i, c in col.items():
                v = v + M1.basis_vec(i, c)
            d0.set_column(j, v)
        d1 = LinMap(M1, M2)
        for j in range(n):
            v = M2.zero()
            for i in range(n):
                v = v + M2.basis_vec(i, A[i][j])
            d1.set_column(j, v)
        C = CochainComplex(QQ, {0: M0, 1: M1, 2: M2}, {0: d0, 1: d1})
        # oracle: dim H^1 = dim ker d1 - rank d0
        expect = len(dense.nullspace(A)) - dense.rank(dense.from_columns(d0cols, n))
        assert homology(C, 1).dim == expect


def two_step_homology(d_in, kernel, n):
    """The reference choice of boundary basis and representatives: first
    rref(d_in) picks the boundaries, then rref(boundaries + kernel) picks
    the kernel vectors that complete them."""
    boundaries = []
    if n and d_in:
        _, piv = ql.rref(d_in, n)
        boundaries = [d_in[p] for p in piv]
    reps = []
    if kernel:
        _, piv = ql.rref(boundaries + kernel, n)
        nb = len(boundaries)
        reps = [kernel[p - nb] for p in piv if p >= nb]
    return boundaries, reps


def matrix_map(src, tgt, cols):
    """The LinMap src -> tgt with the given sparse columns."""
    return LinMap(src, tgt, {j: tgt.element(col.items()) for j, col in zip(src.labels, cols)})


@st.composite
def three_term_complexes(draw):
    """Q^a -> Q^b -> Q^c with d1 random and sparse, and d0 random integer
    combinations of a kernel basis of d1 (repeated and zero columns allowed)."""
    a, b, c = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    d1 = [{i: Fraction(x) for i in range(c) if (x := draw(entry))} for _ in range(b)]
    kernel = ql.nullspace(d1, c)
    d0 = []
    for _ in range(a):
        col = {}
        for k in kernel:
            if t := draw(st.integers(-2, 2)):
                ql.add_scaled(col, t, k)
        d0.append(col)
    M0, M1, M2 = (free_module(n, f"M{t}") for t, n in enumerate((a, b, c)))
    return CochainComplex(QQ, {0: M0, 1: M1, 2: M2}, {0: matrix_map(M0, M1, d0), 1: matrix_map(M1, M2, d1)})


@settings(max_examples=200, deadline=None)
@given(three_term_complexes())
def test_one_elimination_picks_the_two_step_boundaries_and_representatives(C):
    for n in (0, 1, 2):
        kernel = ql.nullspace(C.qdiff(n), C.flat(n + 1).dim)
        boundaries, reps = two_step_homology(C.qdiff(n - 1), kernel, C.flat(n).dim)
        H = homology(C, n)
        assert H._boundary_cols == boundaries
        assert H._cycle_cols == reps
        assert H.representatives == [C.flat(n).unflatten(r) for r in reps]


def test_homology_representatives_are_cycles_and_projection_kills_boundaries():
    C = two_term([[1, 0], [0, 0]])
    H = homology(C, 0)
    assert H.dim == 1
    for rep in H.representatives:
        assert C.diff(0).apply(rep).is_zero()
    H1 = homology(C, 1)
    assert H1.dim == 1
    # boundary projects to zero
    b = C.diff(0).apply(C.module(0).basis_vec(0))
    assert H1.project(b) == [0]


def test_hom_complex_identity_is_cycle():
    C = two_term([[1], [1]])
    H = hom_complex(C, C)
    # identity element: sum of (m, (a, a)) over degrees m and labels a
    idv = H.module(0).zero()
    for m in C.degrees():
        for a in C.module(m).labels:
            idv = idv + H.module(0).basis_vec((m, (a, a)))
    assert H.diff(0).apply(idv).is_zero()


def test_hom_complex_two_term_oracle():
    # element-wise oracle for Hom of two 2-term complexes
    rng = random.Random(11)
    A = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    B = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    C = two_term(A, "C")
    D = two_term(B, "D")
    H = hom_complex(C, D)
    # (df)(x) = d(f x) - (-1)^{|f|} f(dx); check on elementary f of degree 0
    for a in C.module(0).labels:
        for b in D.module(0).labels:
            f = H.module(0).basis_vec((0, (a, b)))
            df = H.diff(0).apply(f)
            expect = H.module(1).zero()
            for i in D.module(1).labels:
                if B[i][b]:
                    expect = expect + H.module(1).basis_vec((0, (a, i)), B[i][b])
            # pre-composition part: f o dC lands in Hom(C^{-1}, D^0) = 0 here,
            # so only consider maps out of degree 1 of C:
            assert df == expect
    # elementary f in Hom(C^1, D^0): degree -1; (df) = dD f + f dC
    for a in C.module(1).labels:
        for b in D.module(0).labels:
            f = H.module(-1).basis_vec((1, (a, b)))
            df = H.diff(-1).apply(f)
            expect = H.module(0).zero()
            for i in D.module(1).labels:
                if B[i][b]:
                    expect = expect + H.module(0).basis_vec((1, (a, i)), B[i][b])
            for j in C.module(0).labels:
                if A[a][j]:
                    expect = expect + H.module(0).basis_vec((0, (j, b)), A[a][j])
            assert df == expect


def test_tensor_complex_signs_and_kunneth():
    rng = random.Random(3)
    A = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
    B = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
    C = two_term(A, "C")
    D = two_term(B, "D")
    T = tensor_complex(C, D)  # d^2 = 0 checked at construction
    # Kunneth dimension count over a field
    hc = homology_dims(C)
    hd = homology_dims(D)
    for n in T.degrees():
        expect = sum(hc.get(i, 0) * hd.get(n - i, 0) for i in hc)
        assert homology(T, n).dim == expect


def test_tensor_with_single_module_is_plain_copy():
    C = two_term([[5]])
    P = single_module_complex(QQ, free_module(1, "pt"), 0)
    T = tensor_complex(C, P)
    assert homology_dims(T) == homology_dims(C)


def test_totalize_one_row_and_column():
    M = free_module(2, "M")
    N = free_module(2, "N")
    d = LinMap(M, N)
    d.set_column(0, N.basis_vec(0))
    tot = totalize(QQ, {(0, 0): M, (1, 0): N}, {(0, 0): d}, {})
    assert homology_dims(tot) == {0: 1, 1: 1}
    tot2 = totalize(QQ, {(0, 0): M, (0, 1): N}, {}, {(0, 0): d})
    assert homology_dims(tot2) == {0: 1, 1: 1}


def test_totalize_square_total_differential_squares():
    # 2x2 commuting square; total differential must square to zero
    M = free_module(1, "M")
    one = LinMap.identity(M)
    tot = totalize(
        QQ,
        {(0, 0): M, (1, 0): M, (0, 1): M, (1, 1): M},
        {(0, 0): one, (0, 1): one},
        {(0, 0): one, (1, 0): one},
    )  # raises if the signed total differential fails
    assert homology_dims(tot) == {0: 0, 1: 0, 2: 0}


def test_totalize_rejects_bad_square():
    M = free_module(1, "M")
    one = LinMap.identity(M)
    minus = one.scale(-1)
    with pytest.raises(ValueError):
        totalize(
            QQ,
            {(0, 0): M, (1, 0): M, (0, 1): M, (1, 1): M},
            {(0, 0): one, (0, 1): minus.scale(-1)},
            {(0, 0): one, (1, 0): minus},
        )


def test_is_quasi_iso_identity_and_zero():
    C = two_term([[0]])
    I = ComplexMap(C, C, {n: [{j: Fraction(1)} for j in range(C.flat(n).dim)] for n in C.degrees()})
    assert is_quasi_iso(I)
    Z = ComplexMap(C, C, {n: [{} for _ in range(C.flat(n).dim)] for n in C.degrees()})
    assert not is_quasi_iso(Z)


def test_grade_sliced_homology():
    # Koszul-style complex over Q[y]: y: A -> A, graded with label grades
    A = CoeffAlgebra.polynomial(1, 3, ("y",))
    M0 = BasedModule(A, ("e",), "M0", (1,))
    M1 = BasedModule(A, ("u",), "M1", (0,))
    d = LinMap(M0, M1)
    d.set_column("e", M1.basis_vec("u", A.gen(0)))
    C = CochainComplex(A, {-1: M0, 0: M1}, {-1: d})
    assert C.is_homogeneous()
    for g in range(4):
        assert homology(C, -1, grade=g).dim == 0 or g > 3
        assert homology(C, 0, grade=g).dim == (1 if g == 0 else 0)


def test_graded_homology_checks_homogeneity_once_per_complex(monkeypatch):
    A = CoeffAlgebra.polynomial(1, 3, ("y",))
    M0 = BasedModule(A, ("e",), "M0", (1,))
    M1 = BasedModule(A, ("u",), "M1", (0,))
    d = LinMap(M0, M1)
    d.set_column("e", M1.basis_vec("u", A.gen(0)))
    homogeneous = CochainComplex(A, {-1: M0, 0: M1}, {-1: d})
    # e, of grade 1, goes to u, of grade 0
    lowering = LinMap(M0, M1)
    lowering.set_column("e", M1.basis_vec("u"))
    lowered = CochainComplex(A, {-1: M0, 0: M1}, {-1: lowering})
    # a check walks the complex's degrees once
    checks = []
    for C in (homogeneous, lowered):
        monkeypatch.setattr(C, "degrees", lambda C=C, walk=C.degrees: checks.append(C) or walk())
    for n in (-1, 0):
        for g in range(5):
            homology(homogeneous, n, grade=g)
            with pytest.raises(ValueError, match="homogeneous"):
                homology(lowered, n, grade=g)
    assert checks == [homogeneous, lowered]
    fb = homogeneous.flat(0)
    assert fb.grades() is fb.grades()


def test_homology_is_computed_once_per_degree_and_grade():
    A = CoeffAlgebra.polynomial(1, 3, ("y",))
    M0 = BasedModule(A, ("e",), "M0", (1,))
    M1 = BasedModule(A, ("u",), "M1", (0,))
    d = LinMap(M0, M1)
    d.set_column("e", M1.basis_vec("u", A.gen(0)))
    C = CochainComplex(A, {-1: M0, 0: M1}, {-1: d})
    H = homology(C, 0)
    assert homology(C, 0) is H
    H0 = homology(C, 0, grade=0)
    assert H0 is not H
    assert homology(C, 0, grade=0) is H0
    assert homology(C, 0, grade=1) is not H0
    assert homology(C, -1) is not H


def test_a_complex_keeps_one_view_per_window():
    A = CoeffAlgebra.polynomial(1, 3, ("y",))
    M0 = BasedModule(A, ("e",), "M0", (1,))
    M1 = BasedModule(A, ("u",), "M1", (0,))
    d = LinMap(M0, M1)
    d.set_column("e", M1.basis_vec("u", A.gen(0)))
    C = CochainComplex(A, {-1: M0, 0: M1}, {-1: d})
    assert C.with_window(None) is C
    view = C.with_window(2)
    assert view.window == 2 and C.with_window(2) is view and view.with_window(2) is view
    assert homology(view, -1) is homology(C.with_window(2), -1)
    # e y^3 is a cycle only because y^4 is truncated away, and the window drops it
    assert homology(C, -1).dim == 1 and homology(view, -1).dim == 0


def test_solver_agrees_with_solve_vec():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        entry = lambda: Fraction(rng.choice([0, 0, 1, -1, 2, 3]), rng.choice([1, 2, 3]))
        A = [[entry() for _ in range(m)] for _ in range(n)]
        if n > 1:
            # a repeated combination of rows makes A rank deficient
            A[-1] = [a - 2 * b for a, b in zip(A[0], A[1 % (n - 1)])]
        solver = Solver(dense.to_columns(A, m), n)
        for _ in range(4):
            if rng.random() < 0.5:
                x = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
                b = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in A]
            else:
                b = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            b = {i: c for i, c in enumerate(b) if c}
            got = solver.solve(b)
            got = got if got is None else [got.get(j, Fraction(0)) for j in range(m)]
            assert got == dense.solve_vec(A, b)
            outcomes.add(got is None)
    assert outcomes == {True, False}


# -- sparse complex maps against their dense matrices --------------------

DESK_MODELS = [(1, 3, 3), (1, 3, 4), (2, 2, 4), (1, 4, 4)]


def desk_chi(m, r, D, rng):
    """A random splitting with entries of degree <= 1, coefficients in [-2, 2]."""
    A = CoeffAlgebra.polynomial(m, D)
    linear = [e for e in A.monomials if sum(e) <= 1]
    return [[sum((A.monomial(e, rng.randint(-2, 2)) for e in linear), A.zero()) for _ in range(r)] for _ in range(m)]


@pytest.fixture(scope="module")
def desk_maps():
    """gamma: L -> P, zeta: K -> P and kappa: L -> K on every desk model,
    untwisted and with one seeded random splitting, with the augmentations
    they cover."""
    rng = random.Random(10)
    out = []
    for m, r, D in DESK_MODELS:
        for chi in (None, desk_chi(m, r, D, rng)):
            model = LocalModel(m, r, D, chi=chi)
            maps = {
                "gamma": model.gamma,
                "zeta": zeta(model.ext, model.K, model.P),
                "kappa": model.kappa,
                "aug_p": model.aug_p,
                "aug_k": k_augmentation(model.ext, model.K),
            }
            out.append(((m, r, D, chi is not None), maps))
    return out


def qmap(f, n):
    """The dense matrix of the complex map f at degree n."""
    return dense.from_columns(f.columns(n), f.target.flat(n).dim)


def dense_apply(f, n, vec):
    """f at degree n applied through its dense matrix."""
    nonzero = f.source.flat(n).flatten(vec).items()
    image = (sum((row[j] * c for j, c in nonzero), Fraction(0)) for row in qmap(f, n))
    return f.target.flat(n).unflatten({i: c for i, c in enumerate(image) if c})


def test_apply_matches_dense_matrix_on_desk_models(desk_maps):
    rng = random.Random(11)
    for case, maps in desk_maps:
        for name in ("gamma", "zeta", "kappa"):
            f = maps[name]
            for n in f.cols:
                sb = f.source.flat(n)
                monomial = sb.module.algebra.monomial
                vecs = [sb.module.basis_vec(lab, monomial(mono)) for lab, mono in sb.pairs]
                for _ in range(3):
                    col = [
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else Fraction(0)
                        for _ in range(sb.dim)
                    ]
                    vecs.append(sb.unflatten({j: c for j, c in enumerate(col) if c}))
                for v in vecs:
                    assert f.apply(n, v) == dense_apply(f, n, v), (case, name, n)


def test_perturbed_zeta_is_not_a_chain_map(desk_maps):
    case, maps = desk_maps[0]
    z = maps["zeta"]
    assert z.is_chain_map()
    # an entry (i, j) at degree n whose target differential column i is
    # nonzero: scaling it changes d o zeta and leaves zeta o d alone
    n, j, i = next(
        (n, j, i)
        for n in sorted(z.cols)
        for j, col in enumerate(z.cols[n])
        for i in col
        if z.target.qdiff(n)[i]
    )
    cols = {k: [dict(col) for col in v] for k, v in z.cols.items()}
    cols[n][j][i] *= 2
    bad = ComplexMap(z.source, z.target, cols)
    assert bad.is_chain_map() is False
    Q = qmap(bad, n)
    d_t = dense.from_columns(z.target.qdiff(n), z.target.flat(n + 1).dim)
    d_s = dense.from_columns(z.source.qdiff(n), z.source.flat(n + 1).dim)
    assert not dense.mat_eq(dense.mat_mul(d_t, Q), dense.mat_mul(qmap(bad, n + 1), d_s))
    diff = bad - z
    assert not diff.is_zero()
    assert dense.mat_eq(qmap(diff, n), dense.mat_sub(qmap(bad, n), qmap(z, n)))


def assert_matches_dense(f, dense_fn, degrees):
    for n in degrees:
        assert dense.mat_eq(qmap(f, n), dense_fn(n)), n
    assert f.is_zero() == all(dense.is_zero_matrix(dense_fn(n)) for n in degrees)


def test_compose_sub_is_zero_match_dense_matrices(desk_maps):
    for case, maps in desk_maps:
        gamma, zeta_, kappa_, aug_p, aug_k = (maps[k] for k in ("gamma", "zeta", "kappa", "aug_p", "aug_k"))
        composites = {}
        for name, f, g in (("pg", aug_p, gamma), ("pz", aug_p, zeta_), ("kk", aug_k, kappa_)):
            fg = composites[name] = f.compose(g)
            assert_matches_dense(fg, lambda n: dense.mat_mul(qmap(f, n), qmap(g, n)), set(f.cols) | set(g.cols))
        differences = (
            (composites["pz"], aug_k),
            (composites["pg"], composites["kk"]),
            (gamma, gamma),
            # gamma o 0 stores every column, all of them empty
            (gamma, gamma.compose(ComplexMap(gamma.source, gamma.source, {}))),
        )
        for f, g in differences:
            assert_matches_dense(f - g, lambda n: dense.mat_sub(qmap(f, n), qmap(g, n)), set(f.cols) | set(g.cols))
        # aug_p o zeta covers aug_k, and both routes from L cover the same augmentation
        assert (composites["pz"] - aug_k).is_zero(), case
        assert (composites["pg"] - composites["kk"]).is_zero(), case
        assert not gamma.is_zero()


def identity_map(C):
    return ComplexMap.from_functions(C, C, {n: (lambda v: v) for n in C.degrees()})


def test_complex_map_apply_rejects_a_vector_of_another_module():
    C = two_term([[1, 0], [0, 1]])
    f = identity_map(C)
    assert f.apply(0, C.module(0).basis_vec(1)) == C.module(0).basis_vec(1)
    # C^1 has the same labels as C^0, but it is another module
    with pytest.raises(StructuralError):
        f.apply(0, C.module(1).basis_vec(1))


def test_complex_map_difference_rejects_maps_of_other_shapes():
    f, g = identity_map(two_term([[1]])), identity_map(two_term([[1, 0]]))
    assert (f - f).is_zero()
    with pytest.raises(StructuralError):
        f - g
    with pytest.raises(StructuralError):
        g - f
