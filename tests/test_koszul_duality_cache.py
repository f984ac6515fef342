"""The Koszul duality check builds its phi-independent parts once per rank.

The terms Lambda^{r-n} M (x) det M*, the right duality map and its
invertibility are kept on the ExteriorContext (right_duality).  The check
answers as the per-call reference (tests/reference_koszul.py) does, its
cached columns equal the reference's, and with the shift sign flipped both
fail."""

import random
from fractions import Fraction

import pytest

from hkrlab.coeff import CoeffAlgebra
from hkrlab.exterior_core import ExteriorContext, koszul_dual_check

from reference_koszul import reference_koszul_dual_check

QQ = CoeffAlgebra.rationals()


def flipped_shift(r, n):
    """(-1)^{rn} in place of (-1)^{(r+1)n}: off by (-1)^n in every degree."""
    return (-1) ** (r * n)


def phis(s):
    rng = random.Random(f"koszul-cache:{s}")
    return [[0] * s] + [[Fraction(rng.randint(-6, 6)) for _ in range(s)] for _ in range(4)]


def assert_matches_the_reference(ctx, phi):
    ok, details = koszul_dual_check(ctx, phi)
    ref_ok, ref_details = reference_koszul_dual_check(ctx, phi)
    assert ok and ref_ok
    for key in ("chain_map", "invertible"):
        assert details[key] == ref_details[key]
    for n in range(ctx.rank + 1):
        cols = ref_details["map"].columns(n)
        assert details["map"].columns(n) == cols
        assert ctx.right_duality(n)[2] == cols


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_cached_duality_matches_the_reference(s):
    ctx = ExteriorContext(QQ, s)
    for phi in phis(s):
        assert_matches_the_reference(ctx, phi)


def test_cached_duality_matches_the_reference_over_a_polynomial_algebra():
    algebra = CoeffAlgebra.polynomial(1, 2)
    ctx = ExteriorContext(algebra, 2)
    x = algebra.gen(0)
    for phi in ([x, algebra.const(3)], [x * x, x]):
        assert_matches_the_reference(ctx, phi)


def test_the_duality_is_built_once_per_degree():
    ctx = ExteriorContext(QQ, 3)
    koszul_dual_check(ctx, [1, 2, 3])
    built = [ctx.right_duality(n) for n in range(4)]
    koszul_dual_check(ctx, [3, -1, 0])
    assert all(ctx.right_duality(n) is got for n, got in enumerate(built))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_flipped_shift_sign_fails(s):
    phi = [Fraction(k + 2) for k in range(s)]
    ok, details = reference_koszul_dual_check(ExteriorContext(QQ, s), phi, flipped_shift)
    assert not ok and not details["chain_map"]
    ctx = ExteriorContext(QQ, s)
    for n in range(s + 1):
        terms, labels, cols, invertible = ctx.right_duality(n)
        if n % 2:
            cols = [{i: -c for i, c in col.items()} for col in cols]
        ctx._right_duality[n] = (terms, labels, cols, invertible)
    ok, details = koszul_dual_check(ctx, phi)
    assert not ok and not details["chain_map"] and details["invertible"]
