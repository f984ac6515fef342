"""Cochains as elements of their Cech complex, against the dict form of
``tests/reference_cochain.py``: arithmetic, values on both orientations,
the differential, the wedge and Yoneda products, the cocycle and class
tests, and the wedge-with-a-class operator l_operator (label for label, in
the same order), on every library nerve."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cochain as ref
from hkrlab.coeff import CoeffAlgebra, Poly
from hkrlab.chain_core import homology
from hkrlab.exterior_core import MERGES
from hkrlab.extension_dg import build_extension
from hkrlab.cech_twist import (
    NERVE_LIBRARY,
    NerveError,
    build_cochain,
    canonical_representative,
    cech_complex,
    class_coordinates,
    class_count,
    cech_delta,
    cochain_module,
    cochain_type,
    cochain_value,
    cochain_wedge,
    cohomologous,
    combine_representatives,
    hom_lam_module,
    is_cocycle,
    l_operator,
    yoneda_compose,
)
from hkrlab.modules import StructuralError

EXT = build_extension(CoeffAlgebra.rationals(), 2)
EXT_X = build_extension(CoeffAlgebra.polynomial(1, 2), 2)
NERVES = {name: make() for name, make in sorted(NERVE_LIBRARY.items())}


def random_values(nerve, degree, module, rng):
    """Random values on a random half of the degree-simplices, with a random
    coefficient at every monomial."""
    monomials = module.algebra.monomials
    return {
        s: module.element((lab, Poly(module.algebra, {m: rng.randint(-2, 2) for m in monomials})) for lab in module.labels)
        for s in nerve.simplices_of_dim(degree)
        if rng.random() < 0.5
    }


def random_pair(nerve, degree, module, rng):
    """A random cochain in both forms."""
    x = ref.Cochain(nerve, degree, module, random_values(nerve, degree, module, rng))
    return x, ref.to_element(x)


def same(nerve, got, want):
    """Does the element cochain got equal the reference cochain want?"""
    return cochain_type(nerve, got) == (want.degree, want.module) and (ref.from_element(nerve, got) - want).is_zero()


def random_cocycle(nerve, degree, module, rng):
    """A class representative with random coefficients plus a random coboundary."""
    H = homology(cech_complex(nerve, module), degree)
    z = cochain_module(nerve, module, degree).zero()
    for rep in H.representatives:
        z = z + rep.scale(rng.randint(-2, 2))
    if degree > 0:
        z = z + cech_delta(nerve, random_pair(nerve, degree - 1, module, rng)[1])
    return z


@pytest.mark.parametrize("name", sorted(NERVES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cochain_operations_match_the_reference(name, seed):
    nerve = NERVES[name]
    rng = random.Random(seed)
    I1, I2 = EXT.lam_i(1), EXT.lam_i(2)
    for l in range(nerve.depth + 1):
        (a, x), (b, y) = random_pair(nerve, l, I1, rng), random_pair(nerve, l, I1, rng)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert same(nerve, x + y, a + b)
        assert same(nerve, x - y, a - b)
        assert same(nerve, x.scale(c), a.scale(c))
        if l in (1, 2):
            for s in nerve.simplices_of_dim(l):
                for t in permutations(s):
                    assert cochain_value(nerve, x, t) == a.value(t)
            v = s[0]
            assert cochain_value(nerve, x, (v,) * (l + 1)) == a.value((v,) * (l + 1)) == I1.zero()
        assert same(nerve, cech_delta(nerve, x), ref.cech_delta(a))
        assert is_cocycle(nerve, x) == ref.is_cocycle(a)
        dy = cech_delta(nerve, y)
        assert is_cocycle(nerve, dy) and ref.is_cocycle(ref.from_element(nerve, dy))
        if l < nerve.depth:
            assert cohomologous(nerve, dy, cochain_module(nerve, I1, l + 1).zero())
        z, w = random_cocycle(nerve, l, I1, rng), random_cocycle(nerve, l, I1, rng)
        zr, wr = ref.from_element(nerve, z), ref.from_element(nerve, w)
        assert cohomologous(nerve, z, w) == ref.cohomologous(zr, wr)
        assert same(nerve, canonical_representative(nerve, z), ref.canonical_representative(zr))
        assert cohomologous(nerve, z, canonical_representative(nerve, z))
    # the products over Q and over Q[x]<=2, where products of x^2 truncate to zero
    for ext in (EXT, EXT_X):
        I1, I2 = ext.lam_i(1), ext.lam_i(2)
        hom21, hom10, hom20 = hom_lam_module(ext, 1, 2), hom_lam_module(ext, 0, 1), hom_lam_module(ext, 0, 2)
        for p in range(nerve.depth + 1):
            for q in range(nerve.depth + 1 - p):
                a, x = random_pair(nerve, p, I1, rng)
                b, y = random_pair(nerve, q, I1, rng)
                want = ref.cochain_wedge(ext.exterior.wedge, a, b, I2)
                assert same(nerve, cochain_wedge(nerve, MERGES, x, y, I2), want)
                a, x = random_pair(nerve, p, hom21, rng)
                b, y = random_pair(nerve, q, hom10, rng)
                assert same(nerve, yoneda_compose(nerve, x, y, hom20), ref.yoneda_compose(a, b, hom20))


@pytest.mark.parametrize("name", sorted(NERVES))
def test_the_front_back_table_is_each_simplex_with_its_front_and_back_faces(name):
    nerve = NERVES[name]
    table = nerve.front_back
    assert sorted(table) == [(p, q) for p in range(nerve.depth + 1) for q in range(nerve.depth + 1 - p)]
    for (p, q), rows in table.items():
        assert rows == tuple((s, s[: p + 1], s[p:]) for s in nerve.simplices_of_dim(p + q))
        # the front p-face and the back q-face share the vertex s[p]
        assert all(nerve.has(f) and nerve.has(b) and f[-1] == b[0] == s[p] for s, f, b in rows)
    assert nerve.front_back is table


@pytest.mark.parametrize("name", sorted(NERVES))
def test_cochains_above_the_depth_are_zero_and_typed(name):
    nerve = NERVES[name]
    top = nerve.depth
    I1, I2 = EXT.lam_i(1), EXT.lam_i(2)
    x = random_pair(nerve, top, I1, random.Random(1))[1]
    dx = cech_delta(nerve, x)
    assert dx.is_zero() and cochain_type(nerve, dx) == (top + 1, I1)
    assert is_cocycle(nerve, dx) and cohomologous(nerve, dx, dx)
    up = cochain_wedge(nerve, MERGES, x, dx, I2)
    assert up.is_zero() and cochain_type(nerve, up) == (2 * top + 1, I2)
    # an empty module of the same degree stands for its coefficient module only
    other = build_extension(CoeffAlgebra.rationals(), 3).lam_i(1)
    assert cochain_type(nerve, cochain_module(nerve, other, top + 1).zero()) == (top + 1, other)
    assert cochain_type(nerve, dx) == (top + 1, I1)


@pytest.mark.parametrize("name", sorted(NERVES))
def test_the_nerve_keeps_one_empty_cochain_module_per_module_and_degree(name):
    nerve = NERVES[name]
    I1, I2 = EXT.lam_i(1), EXT.lam_i(2)
    for degree in (nerve.depth + 1, nerve.depth + 3):
        M = cochain_module(nerve, I1, degree)
        assert cochain_module(nerve, I1, degree) is M
        assert cochain_type(nerve, M.zero()) == (degree, I1)
        # another module or degree gets a module of its own
        assert cochain_module(nerve, I2, degree) is not M
        assert cochain_module(nerve, I1, degree + 1) is not M
        assert cochain_type(nerve, cochain_module(nerve, I2, degree).zero()) == (degree, I2)


def test_cochain_constructor_rejects_bad_simplices():
    nerve = NERVES["sphere2"]
    M = EXT.lam_i(1)
    v = M.basis_vec((0,))
    x = build_cochain(nerve, 1, M, {(0, 1): v, (1, 2): v.scale(2)})
    assert cochain_value(nerve, x, (1, 0)) == v.scale(-1)
    with pytest.raises(NerveError, match="not a sorted 1-simplex"):
        build_cochain(nerve, 1, M, {(1, 0): v})
    with pytest.raises(NerveError, match="not a sorted 1-simplex"):
        build_cochain(nerve, 1, M, {(0, 1, 2): v})
    with pytest.raises(NerveError, match="not in the nerve"):
        build_cochain(nerve, 2, M, {(0, 1, 5): v})
    with pytest.raises(NerveError, match="not in the nerve"):
        build_cochain(NERVES["circle"], 2, M, {(0, 1, 2): v})
    with pytest.raises(StructuralError):
        build_cochain(nerve, 1, M, {(0, 1): EXT.lam_i(2).basis_vec((0, 1))})
    # the reference rejects the same simplices
    with pytest.raises(NerveError):
        ref.Cochain(nerve, 1, M, {(1, 0): v})
    with pytest.raises(NerveError):
        ref.Cochain(NERVES["circle"], 2, M, {(0, 1, 2): v})


def test_a_vector_outside_every_cochain_module_is_no_cochain():
    nerve = NERVES["circle"]
    with pytest.raises(StructuralError, match="not a cochain module"):
        is_cocycle(nerve, EXT.lam_i(1).basis_vec((0,)))
    x = build_cochain(nerve, 0, EXT.lam_i(1), {(0,): EXT.lam_i(1).basis_vec((0,))})
    with pytest.raises(StructuralError, match="not a cochain module"):
        cech_delta(NERVE_LIBRARY["circle"](), x)


def summed_cochain(nerve, degree, module, rng):
    """A seeded cochain built as the sum of two random ones, so that its
    labels need not run simplex by simplex."""
    algebra = module.algebra
    M = cochain_module(nerve, module, degree)

    def coefficient():
        return sum((algebra.monomial(e, rng.randint(-2, 2)) for e in algebra.monomials), algebra.zero())

    def part():
        return M.element(
            ((s, lab), coefficient())
            for s in nerve.simplices_of_dim(degree)
            for lab in module.labels
            if rng.random() < 0.4
        )

    return part() + part()


@pytest.mark.parametrize("name", sorted(NERVES))
@pytest.mark.parametrize("algebra", [CoeffAlgebra.rationals(), CoeffAlgebra.polynomial(1, 2)], ids=["Q", "Q[x]<=2"])
def test_l_operator_matches_the_element_built_reference(name, algebra):
    nerve = NERVES[name]
    ext = build_extension(algebra, 3)
    rng = random.Random(f"l_operator:{name}:{algebra.num_vars}")
    interleaved = False
    for degree in (0, 1):
        for j in range(ext.rank + 1 - degree):
            for _ in range(3):
                v = summed_cochain(nerve, degree, ext.lam_i(degree), rng)
                simplices = [s for (s, _), _ in v.data.items()]
                interleaved |= simplices != sorted(simplices, key=simplices.index)
                got = l_operator(ext, nerve, j + degree, j, v)
                want = ref.l_operator(ext, nerve, j + degree, j, v)
                assert got.module == want.module
                assert list(got.data.items()) == list(want.data.items())
    # some cochain's labels leave a simplex and come back to it, so the
    # label order is pinned where it could differ
    assert interleaved


def coefficient_modules(ext):
    # the wedge twist's coefficients and a Hom-valued twist's
    return [ext.lam_i(1), hom_lam_module(ext, 1, 2)]


@pytest.mark.parametrize("ext", [EXT, EXT_X], ids=["Q", "Q[x1]<=2"])
@pytest.mark.parametrize("name", sorted(NERVES))
def test_the_class_basis_is_the_per_module_homology_basis(name, ext):
    # scalar representative first, then (label, monomial): the basis, in
    # order, that the coefficient module's own Cech complex gives
    nerve = NERVES[name]
    for M in coefficient_modules(ext):
        for l in range(nerve.depth + 1):
            H = homology(cech_complex(nerve, M), l)
            n = class_count(nerve, l, M)
            assert n == H.dim
            assert [combine_representatives(nerve, l, M, [0] * k + [1]) for k in range(n)] == H.representatives
        with pytest.raises(NerveError):
            class_count(nerve, nerve.depth + 1, M)


@pytest.mark.parametrize("ext", [EXT, EXT_X], ids=["Q", "Q[x1]<=2"])
@pytest.mark.parametrize("name", sorted(NERVES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_class_questions_match_the_per_module_route(name, ext, seed):
    # coboundaries and perturbed cocycles (a class plus a coboundary), each
    # asked through the scalar complex and through the module's own
    nerve = NERVES[name]
    rng = random.Random(seed)
    for M in coefficient_modules(ext):
        for l in range(nerve.depth + 1):
            zero = cochain_module(nerve, M, l).zero()
            z = random_cocycle(nerve, l, M, rng)
            b = cech_delta(nerve, random_pair(nerve, l - 1, M, rng)[1]) if l else zero
            x = random_pair(nerve, l, M, rng)[1]
            assert is_cocycle(nerve, x) == ref.is_cocycle(ref.from_element(nerve, x))
            for c in (z, b, z + b):
                cr = ref.from_element(nerve, c)
                assert cohomologous(nerve, c, zero) == ref.cohomologous(cr, ref.from_element(nerve, zero))
                assert cohomologous(nerve, c, z) == ref.cohomologous(cr, ref.from_element(nerve, z))
                assert class_coordinates(nerve, c) == homology(cech_complex(nerve, M), l).project(c)
                assert same(nerve, canonical_representative(nerve, c), ref.canonical_representative(cr))
