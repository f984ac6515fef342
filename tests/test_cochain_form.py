"""Cochains as elements of their Cech complex, against the dict form of
``tests/reference_cochain.py``: arithmetic, values on both orientations,
the differential, the wedge and Yoneda products, and the cocycle and class
tests, on every library nerve."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cochain as ref
from hkrlab.coeff import CoeffAlgebra
from hkrlab.chain_core import homology
from hkrlab.extension_dg import build_extension
from hkrlab.cech_twist import (
    NERVE_LIBRARY,
    NerveError,
    build_cochain,
    canonical_representative,
    cech_complex,
    cech_delta,
    cochain_module,
    cochain_type,
    cochain_value,
    cochain_wedge,
    cohomologous,
    hom_lam_module,
    is_cocycle,
    yoneda_compose,
)
from hkrlab.modules import StructuralError

EXT = build_extension(CoeffAlgebra.rationals(), 2)
NERVES = {name: make() for name, make in sorted(NERVE_LIBRARY.items())}


def random_values(nerve, degree, module, rng):
    """Random values on a random half of the degree-simplices."""
    return {
        s: module.element((lab, rng.randint(-2, 2)) for lab in module.labels)
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
    hom21, hom10, hom20 = hom_lam_module(EXT, 1, 2), hom_lam_module(EXT, 0, 1), hom_lam_module(EXT, 0, 2)
    for p in range(nerve.depth + 1):
        for q in range(nerve.depth + 1 - p):
            a, x = random_pair(nerve, p, I1, rng)
            b, y = random_pair(nerve, q, I1, rng)
            wf = EXT.exterior.wedge
            assert same(nerve, cochain_wedge(nerve, wf, x, y, I2), ref.cochain_wedge(wf, a, b, I2))
            a, x = random_pair(nerve, p, hom21, rng)
            b, y = random_pair(nerve, q, hom10, rng)
            assert same(nerve, yoneda_compose(nerve, x, y, hom20), ref.yoneda_compose(a, b, hom20))


@pytest.mark.parametrize("name", sorted(NERVES))
def test_cochains_above_the_depth_are_zero_and_typed(name):
    nerve = NERVES[name]
    top = nerve.depth
    I1, I2 = EXT.lam_i(1), EXT.lam_i(2)
    x = random_pair(nerve, top, I1, random.Random(1))[1]
    dx = cech_delta(nerve, x)
    assert dx.is_zero() and cochain_type(nerve, dx) == (top + 1, I1)
    assert is_cocycle(nerve, dx) and cohomologous(nerve, dx, dx)
    up = cochain_wedge(nerve, EXT.exterior.wedge, x, dx, I2)
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
