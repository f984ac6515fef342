"""Kahler module, connections, derivations, and the induced automorphisms."""

import pytest

from hkrlab.ak_complexes import build_p_complex
from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import build_extension
from hkrlab.modules import QBasis, StructuralError
from hkrlab.connections import (
    Connection,
    DerivationChi,
    KahlerModule,
    induced_auto,
    chi_hat_determinant,
    poly_partial,
    prop_battery,
    r_family_from_connection,
    r_family_from_iso,
    u_chi_checks,
)


def setup(m, r, D):
    A = CoeffAlgebra.polynomial(m, D)
    ext = build_extension(A, r)
    kah = KahlerModule(A)
    return A, ext, kah


def test_poly_partial():
    A = CoeffAlgebra.polynomial(2, 3)
    p = A.parse("x1^2*x2 + 3*x2")
    assert poly_partial(p, 0) == A.parse("2*x1*x2")
    assert poly_partial(p, 1) == A.parse("x1^2 + 3")
    # a term above the degree bound is an error, not a silent zero
    with pytest.raises(ValueError, match="exceeds the degree bound 3"):
        A.parse("x1^2*x2^2")


def test_exterior_derivative_squares_to_zero():
    A, ext, kah = setup(2, 1, 3)
    D = A.degree_bound
    for p in range(2):
        for lab in kah.omega(p).labels:
            for mono in A.monomials:
                v = kah.omega(p).basis_vec(lab, A.monomial(mono))
                ddv = kah.d_vec(kah.d_vec(v))
                # within the window the square vanishes identically
                fb = QBasis(kah.omega(p + 2), D)
                assert fb.flatten(ddv) == {}


def test_exterior_derivative_raises_the_form_degree_by_one():
    # also above the top degree m, where Om^p has no basis vectors to read p from
    for m in (1, 2):
        kah = KahlerModule(CoeffAlgebra.polynomial(m, 2))
        for p in range(m + 2):
            assert kah.d_vec(kah.omega(p).zero()).module == kah.omega(p + 1)


def test_exterior_derivative_leibniz_windowed():
    A, ext, kah = setup(1, 1, 3)
    f = A.parse("x1^2")
    g = A.parse("x1")
    lhs = kah.d_vec(kah.omega(0).basis_vec((), f * g))
    rhs = kah.d_vec(kah.omega(0).basis_vec((), f)).scale(g) + kah.d_vec(
        kah.omega(0).basis_vec((), g)
    ).scale(f)
    fb = QBasis(kah.omega(1), A.degree_bound)
    assert fb.flatten(lhs) == fb.flatten(rhs)


def test_connection_leibniz():
    A, ext, kah = setup(2, 2, 3)
    gamma = {
        0: Connection(ext, kah).form_module(1).basis_vec(((0,), (1,)), A.gen(0)),
        1: Connection(ext, kah).form_module(1).basis_vec(((1,), (0,))),
    }
    nabla = Connection(ext, kah, gamma)
    fb = QBasis(nabla.form_module(2), A.degree_bound)
    for K in ext.lam_i(2).labels:
        for mono in A.monomials:
            d = nabla.leibniz_defect(2, A.monomial(mono), K)
            assert fb.flatten(d) == {}


def test_derivation_leibniz_and_round_trip():
    A, ext, kah = setup(2, 2, 3)
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,), A.gen(1)), ext.lam_i(1).basis_vec((1,))])
    for e1 in A.monomials:
        for e2 in A.monomials:
            if sum(e1) + sum(e2) > A.degree_bound:
                continue
            a, b = A.monomial(e1), A.monomial(e2)
            lhs = chi.chi(a * b)
            rhs = chi.chi(b).scale(a) + chi.chi(a).scale(b)
            assert (lhs - rhs).is_zero()
    # chi_hat round trip: chi(a) = chi_hat(da)
    hat = chi.chi_hat()
    for e in A.monomials:
        a = A.monomial(e)
        via_hat = hat.apply(kah.d_vec(kah.omega(0).basis_vec((), a)))
        assert (via_hat - chi.chi(a)).is_zero()


def test_u_chi_zero_is_identity_and_composition():
    A, ext, kah = setup(1, 1, 3)
    zero = DerivationChi(ext, kah, [ext.lam_i(1).zero()])
    for b in ext.lam_b(1).basis():
        assert zero.u_chi_vec(b) == b
    chi1 = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])
    chi2 = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,), A.gen(0))])
    both = DerivationChi(ext, kah, [chi1.values[0] + chi2.values[0]])
    for lab in ext.lam_b(1).labels:
        for mono in A.monomials:
            b = ext.lam_b(1).basis_vec(lab, A.monomial(mono))
            assert chi1.u_chi_vec(chi2.u_chi_vec(b)) == both.u_chi_vec(b)


def test_u_chi_multiplicative():
    A, ext, kah = setup(1, 1, 3)
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,), A.one() + A.gen(0))])
    assert u_chi_checks(ext, kah, chi, A.degree_bound)


def test_auto_from_flat_connection_chi_zero_is_identity():
    A, ext, kah = setup(1, 1, 3)
    chi = DerivationChi(ext, kah, [ext.lam_i(1).zero()])
    nabla = Connection(ext, kah)
    P = build_p_complex(ext).with_window(A.degree_bound)
    phi = induced_auto(ext, P, r_family_from_connection(ext, chi, nabla))
    from hkrlab import rational as ql

    for p in range(ext.rank + 1):
        assert phi.columns(-p) == ql.identity(P.flat(-p).dim)


def test_battery_from_connection_flat():
    # flat connection, chi = (x1 |-> y1): the worked example at m = r = 1
    A, ext, kah = setup(1, 1, 3)
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])
    nabla = Connection(ext, kah)
    res = prop_battery(ext, chi, r_family_from_connection(ext, chi, nabla), A.degree_bound)
    assert all(res.values()), res


def test_battery_from_connection_nonflat_r2():
    A, ext, kah = setup(1, 2, 3)
    conn_forms = Connection(ext, kah).form_module(1)
    gamma = {0: conn_forms.basis_vec(((0,), (1,)), A.gen(0)), 1: conn_forms.zero()}
    nabla = Connection(ext, kah, gamma)
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((1,), A.gen(0))])
    res = prop_battery(ext, chi, r_family_from_connection(ext, chi, nabla), A.degree_bound)
    assert all(res.values()), res


def test_battery_from_iso_identity_chi_hat():
    A, ext, kah = setup(1, 1, 3)
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])  # chi_hat = id
    res = prop_battery(ext, chi, r_family_from_iso(ext, kah, chi, A.degree_bound), A.degree_bound)
    assert all(res.values()), res


def test_battery_from_iso_unit_diagonal():
    A, ext, kah = setup(2, 2, 3)
    chi = DerivationChi(
        ext,
        kah,
        [ext.lam_i(1).basis_vec((0,)), ext.lam_i(1).basis_vec((1,), A.one() + A.gen(0))],
    )
    det = chi_hat_determinant(ext, kah, chi)
    assert det.is_unit()
    res = prop_battery(ext, chi, r_family_from_iso(ext, kah, chi, A.degree_bound), A.degree_bound)
    assert all(res.values()), res


def test_from_iso_rejects_non_unit():
    A, ext, kah = setup(2, 2, 3)
    chi = DerivationChi(
        ext,
        kah,
        [ext.lam_i(1).basis_vec((0,), A.gen(0)), ext.lam_i(1).basis_vec((1,))],
    )
    with pytest.raises(StructuralError) as err:
        r_family_from_iso(ext, kah, chi, A.degree_bound)
    assert "det" in str(err.value)
