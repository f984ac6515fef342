"""DeltaMatrix.disagreements, the one comparison of two comparison
matrices, answers as the hand-written entry loop of the reference
(tests/reference_comparison.py): on the matrices the comparison suites
compare, on the recursion probe's candidate, and on matrices with one entry
changed, by a coboundary, a cohomology generator or a doubling."""

import random
from fractions import Fraction

import pytest

from hkrlab.cech_twist import (
    DeltaMatrix,
    TwistFamily,
    canonical_representative,
    cech_complex,
    cech_delta,
    circle_nerve,
    cochain_type,
    conjecture_recursion,
    delta_matrix,
    eta_recursion,
    identity_hom_cochain,
    l_operator,
    random_hom_twist,
    random_wedge_cochains,
    sphere_nerve,
    torus_nerve,
)
from hkrlab.chain_core import homology
from hkrlab.cli_report import _wedge_families
from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import build_extension

from reference_comparison import reference_disagreements


def ext_of(r):
    return build_extension(CoeffAlgebra.rationals(), r)


def with_entry(delta, key, value):
    return DeltaMatrix(delta.ext, delta.nerve, {**delta.entries, key: value})


def variants(delta):
    """delta with one stored entry changed: doubled, plus a generator of the
    cohomology it lives in, plus a coboundary."""
    nerve = delta.nerve
    for key, x in delta.entries.items():
        l, module = cochain_type(nerve, x)
        C = cech_complex(nerve, module)
        yield with_entry(delta, key, x.scale(2))
        H = homology(C, l)
        if H.representatives:
            yield with_entry(delta, key, x + H.representatives[0])
        if l > 0 and C.module(l - 1).labels:
            M = C.module(l - 1)
            yield with_entry(delta, key, x + cech_delta(nerve, M.basis_vec(M.labels[0])))


def assert_verdicts_match(delta, expected):
    """disagreements agrees with the reference on expected and on every
    variant of delta, and at least one variant disagrees."""
    assert delta.disagreements(expected) == reference_disagreements(delta, expected)
    seen = []
    for changed in variants(delta):
        got = changed.disagreements(delta)
        assert got == reference_disagreements(changed, delta)
        seen += got
    assert seen


def wedge_expected(ext, nerve, lam, mu):
    """The matrix check_comparison_wedge expects: l(zeta_ij) from the
    recursion on canonical representatives."""
    cs = [canonical_representative(nerve, c) for c in lam.wedge_data]
    ds = [canonical_representative(nerve, d) for d in mu.wedge_data]
    zetas = eta_recursion(ext, nerve, cs, ds)
    return DeltaMatrix(ext, nerve, {(i, j): l_operator(ext, nerve, i, j, z) for (i, j), z in zetas.items()})


@pytest.mark.parametrize("nerve_fn", [lambda: sphere_nerve(2), torus_nerve], ids=["sphere2", "torus"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_disagreements_match_the_reference_on_wedge_families(nerve_fn, r):
    ext, nerve = ext_of(r), nerve_fn()
    rng = random.Random(f"wedge-verdict:{r}")
    lam, mu = [TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng)) for _ in range(2)]
    delta = delta_matrix(ext, nerve, lam, mu, "wedge")
    expected = wedge_expected(ext, nerve, lam, mu)
    assert delta.disagreements(expected) == []
    assert_verdicts_match(delta, expected)


@pytest.mark.parametrize("nerve_fn", [circle_nerve, lambda: sphere_nerve(2)], ids=["circle", "sphere2"])
@pytest.mark.parametrize("r", [2, 3])
def test_disagreements_match_the_reference_on_last_level_families(nerve_fn, r):
    ext, nerve = ext_of(r), nerve_fn()
    rng = random.Random(f"last-verdict:{r}")
    shared = [random_hom_twist(ext, nerve, n, rng) for n in range(r - 1)]
    lam, mu = [TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, r - 1, rng)]) for _ in range(2)]
    delta = delta_matrix(ext, nerve, lam, mu, "last-level")
    want = (lam.cocycles[r - 1].cochain - mu.cocycles[r - 1].cochain).scale(Fraction(1, r))
    expected = DeltaMatrix(ext, nerve, {(r, r - 1): want})
    assert delta.disagreements(expected) == []
    assert_verdicts_match(delta, expected)


def test_disagreements_match_the_reference_on_the_torus_probe():
    # the probe-domains data of seed 0: the literal recursion misses (2, 0)
    ext, nerve = ext_of(2), torus_nerve()
    lam, mu = _wedge_families(ext, nerve, random.Random("0:probe"))
    candidate = conjecture_recursion(ext, nerve, lam, mu)
    reference = delta_matrix(ext, nerve, lam, mu, "wedge")
    assert candidate.disagreements(reference) == reference_disagreements(candidate, reference) == [(2, 0)]


def test_a_missing_diagonal_entry_is_the_identity():
    ext, nerve = ext_of(2), circle_nerve()
    bare = DeltaMatrix(ext, nerve, {})
    for i in range(3):
        assert (bare.entry(i, i) - identity_hom_cochain(ext, nerve, i)).is_zero()
    assert bare.diagonal_is_identity()
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, random.Random(5)))
    delta = delta_matrix(ext, nerve, lam, lam, "wedge")
    assert bare.disagreements(delta) == reference_disagreements(bare, delta) == []
    doubled = with_entry(delta, (1, 1), delta.entry(1, 1).scale(2))
    assert doubled.disagreements(delta) == reference_disagreements(doubled, delta) == [(1, 1)]
