"""P and Q complexes, the pairing product, and the contraction realization."""

import pytest

from hkrlab.coeff import CoeffAlgebra
from hkrlab.chain_core import homology, homology_dims
from hkrlab.extension_dg import build_extension
from hkrlab.ak_complexes import (
    build_p_complex,
    build_q_complex,
    contraction_realization_check,
    hat_star_is_chain_map,
    hat_star_matches_module_action,
    homology_action_check,
    p_augmentation,
    p_q_battery,
    q_coaugmentation,
    q_pairing,
    q_realization_identity,
)
from hkrlab import rational as ql
from hkrlab.modules import QBasis, StructuralError, flatten_map

QQ = CoeffAlgebra.rationals()
QX2 = CoeffAlgebra.polynomial(1, 2)


def test_p_rank_one_is_two_term():
    ext = build_extension(QQ, 1)
    P = build_p_complex(ext)
    assert P.degrees() == [-1, 0]
    # P^{-1} = L^2 B = L^1 I under the splitting; the differential is the
    # inclusion of I into B
    d = P.diff(-1)
    img = d.apply(ext.lam_b(2).basis_vec(("j", (0,))))
    assert img == ext.lam_b(1).basis_vec(("i", (0,)))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("algebra", [QQ, QX2])
def test_p_homology(r, algebra):
    ext = build_extension(algebra, r)
    dims = homology_dims(build_p_complex(ext))
    assert dims[0] == algebra.dimension()  # H^0 = A
    assert all(d == 0 for n, d in dims.items() if n < 0)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("algebra", [QQ, QX2])
def test_q_homology(r, algebra):
    ext = build_extension(algebra, r)
    dims = homology_dims(build_q_complex(ext))
    assert dims[-r] == algebra.dimension()  # H^{-r} = theta
    assert all(d == 0 for n, d in dims.items() if n != -r)


def test_q_rank_one_realized():
    ext = build_extension(QQ, 1)
    Q = build_q_complex(ext)
    assert Q.degrees() == [-1, 0]
    # differential on B is -(1) d_1 = -pr_2
    d = Q.diff(-1)
    assert d.apply(ext.lam_b(1).basis_vec(("j", ()))) == ext.lam_b(0).basis_vec(("i", ()), -1)
    assert d.apply(ext.lam_b(1).basis_vec(("i", (0,)))).is_zero()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_q_pairing_invertible(r):
    ext = build_extension(QQ, r)
    for p in range(r):
        phi = q_pairing(ext, p)
        sb, tb = QBasis(phi.source), QBasis(phi.target)
        assert ql.inverse(flatten_map(phi.apply, sb, tb), tb.dim) is not None


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("algebra", [QQ, QX2])
def test_q_realized_differential_identity(r, algebra):
    # (-1)^r times the Hom differential equals -(p+1) d_{r-p} on the nose
    ext = build_extension(algebra, r)
    assert q_realization_identity(ext)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_augmentations_quasi_iso(r):
    for algebra in (QQ, QX2):
        ext = build_extension(algebra, r)
        from hkrlab.chain_core import is_quasi_iso

        assert is_quasi_iso(p_augmentation(ext, build_p_complex(ext)))
        assert is_quasi_iso(q_coaugmentation(ext, build_q_complex(ext)))


def test_hat_star_unit():
    ext = build_extension(QQ, 2)
    one = ext.unit()
    for q in range(3):
        for y in ext.lam_b(q).basis():
            assert ext.star(0, q - 1, one, y) == y


def reference_product(ext, l, q, x, y):
    """The product P^{-l} (x) Q^{-q} -> Q^{-(q+l)} written through split and
    join: (i1, j1) * (i2, j2) = (i1 ^ j2 + (-1)^l j1 ^ i2, j1 ^ j2)."""
    if x.module != ext.lam_b(l + 1) or y.module != ext.lam_b(q):
        raise StructuralError("operands in wrong graded pieces")
    wedge = ext.exterior.wedge
    i1, j1 = ext.split(x)
    i2, j2 = ext.split(y)
    j1_i2 = wedge(j1, i2).scale((-1) ** l)
    if j2 is None:
        return ext.join(q + l, j1_i2, None)
    return ext.join(q + l, j1_i2 + wedge(i1, j2), wedge(j1, j2))


@pytest.mark.parametrize("algebra", [QQ, QX2], ids=["Q", "Q[x1]<=2"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pairing_product_is_star_on_every_basis_pair(algebra, r):
    # q = 0 included, where star reads Lambda^0 B as its degree -1 piece
    ext = build_extension(algebra, r)
    for l in range(r + 1):
        for q in range(r + 1):
            for x in ext.lam_b(l + 1).basis():
                for y in ext.lam_b(q).basis():
                    assert ext.star(l, q - 1, x, y) == reference_product(ext, l, q, x, y)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hat_star_chain_map(r):
    ext = build_extension(QQ, r)
    assert hat_star_is_chain_map(ext)


def test_hat_star_chain_map_polynomial():
    ext = build_extension(QX2, 2)
    assert hat_star_is_chain_map(ext)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hat_star_module_action_and_homology_action(r):
    ext = build_extension(QQ, r)
    assert hat_star_matches_module_action(ext)
    assert homology_action_check(ext)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_contraction_realization(r):
    assert contraction_realization_check(r)


@pytest.mark.parametrize("r", [1, 2])
def test_full_battery(r):
    for algebra in (QQ, QX2):
        ext = build_extension(algebra, r)
        results = p_q_battery(ext)
        assert all(results.values()), results
