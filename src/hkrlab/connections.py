"""Kahler differentials, connections, and the induced automorphisms of P and Q.

Everything here is only rational-linear (the exterior derivative and
derivations are not module maps), so the maps are kept as flattened
matrices on grade-windowed bases.  Forms are graded with each dx counting
one, so the exterior derivative descends to the truncated quotient.
"""

from __future__ import annotations

from fractions import Fraction

from .ak_complexes import build_p_complex, build_q_complex
from .chain_core import ComplexMap, tensor_module
from .coeff import Poly
from .exterior_core import ExteriorContext, exterior_power_map, merge_wedge, sort_sign
from .modules import LinMap, QBasis, StructuralError, flatten_linmap, flatten_map
from . import rational as ql


def poly_partial(p, i):
    """d/dx_i of a truncated polynomial."""
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            e2 = tuple(e2)
            out[e2] = out.get(e2, Fraction(0)) + c * e[i]
    return Poly(p.algebra, out)


class KahlerModule:
    """Forms over A = Q[x] <= D: the exterior algebra of Om^1, with dx_K
    labels graded by |K|."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.m = algebra.num_vars
        self.D = algebra.degree_bound
        self.forms = ExteriorContext(algebra, self.m, name="Om")

    def omega(self, p):
        return self.forms.ext(p)

    def d_vec(self, v):
        """Exterior derivative of a form, as a vector map."""
        return self.omega(self.forms.degree_of(v) + 1).element(
            (mw[1], poly_partial(f, i) * mw[0])
            for K, f in v.data.items()
            for i in range(self.m)
            if (mw := merge_wedge((i,), K)) is not None
        )


class Connection:
    """nabla = d + Gamma on the free module I, Gamma a matrix of one-forms."""

    def __init__(self, ext, kahler, gamma=None):
        self.ext = ext
        self.kahler = kahler
        r = ext.rank
        self._forms = {}
        if gamma is None:
            gamma = {k: self.form_module(1).zero() for k in range(r)}
        self.gamma = dict(gamma)
        for k in range(r):
            g = self.gamma.get(k)
            if g is None:
                self.gamma[k] = self.form_module(1).zero()
            elif g.module != self.form_module(1):
                raise StructuralError("connection forms must live in Om^1 (x) I")

    def form_module(self, p):
        """Om^1 (x) Lambda^p I."""
        M = self._forms.get(p)
        if M is None:
            M = self._forms[p] = tensor_module(self.kahler.omega(1), self.ext.lam_i(p))
        return M

    def lam_apply(self, p, v):
        """The induced connection on Lambda^p I."""
        terms = []
        for K, f in v.data.items():
            # d f (x) y_K
            terms += [(((i,), K), poly_partial(f, i)) for i in range(self.kahler.m)]
            # f sum_t (..., Gamma(y_{k_t}) in slot t, ...)
            for t, kt in enumerate(K):
                for ((i,), (u,)), c in self.gamma[kt].data.items():
                    s = sort_sign(K[:t] + (u,) + K[t + 1 :])
                    if s is not None:
                        terms.append((((i,), s[1]), f * c * s[0]))
        return self.form_module(p).element(terms)

    def leibniz_defect(self, p, a, K):
        """nabla(a y_K) - a nabla(y_K) - da (x) y_K; zero within the window."""
        lam = self.ext.lam_i(p)
        lhs = self.lam_apply(p, lam.basis_vec(K, a))
        rhs = self.lam_apply(p, lam.basis_vec(K)).scale(a)
        da = [(((i,), K), poly_partial(a, i)) for i in range(self.kahler.m)]
        return lhs - self.form_module(p).element([*rhs.data.items(), *da])


class DerivationChi:
    """A derivation of A valued in I, determined by its values on the x_i."""

    def __init__(self, ext, kahler, values):
        self.ext = ext
        self.kahler = kahler
        self.values = list(values)  # elements of I
        if len(self.values) != kahler.m:
            raise StructuralError("need one value per polynomial generator")
        for v in self.values:
            if v.module != ext.lam_i(1):
                raise StructuralError("derivation values must live in I")

    def chi(self, a):
        """chi(a) = sum_i (da/dx_i) chi_i, by the Leibniz rule."""
        return self.ext.lam_i(1).element(
            t for i, val in enumerate(self.values) for t in val.scale(poly_partial(a, i)).data.items()
        )

    def chi_hat(self):
        """The associated module map Om^1 -> I."""
        om = self.kahler.omega(1)
        m = LinMap(om, self.ext.lam_i(1))
        for i in range(self.kahler.m):
            m.set_column((i,), self.values[i])
        return m

    def chi_hat_wedge(self, p, v):
        """(chi_hat ^ id) on Om^1 (x) Lambda^p I, into Lambda^{p+1} I."""
        return self.ext.lam_i(p + 1).element(
            (mw[1], c * cc * mw[0])
            for ((i,), K), c in v.data.items()
            for (u,), cc in self.values[i].data.items()
            if (mw := merge_wedge((u,), K)) is not None
        )

    def u_chi_vec(self, b):
        """(i, a) |-> (i + chi(a), a) on B."""
        ext = self.ext
        i_part, a_part = ext.split(b)
        a = a_part.coeff(())
        return ext.join(1, i_part + self.chi(a), a_part)


def u_chi_checks(ext, kahler, chi, window):
    """Multiplicativity, unit, and composition law of u_chi, on the window."""
    B = ext.lam_b(1)
    fb = QBasis(B, window)
    pairs = [B.basis_vec(lab, ext.algebra.monomial(mono)) for lab, mono in fb.pairs]
    one = ext.unit()
    if not (chi.u_chi_vec(one) - one).is_zero():
        return False
    for x in pairs:
        for y in pairs:
            lhs = fb.flatten(chi.u_chi_vec(ext.b_mul(x, y)))
            rhs = fb.flatten(ext.b_mul(chi.u_chi_vec(x), chi.u_chi_vec(y)))
            if lhs != rhs:
                return False
    minus = DerivationChi(ext, kahler, [v.scale(-1) for v in chi.values])
    for x in pairs:
        if not (minus.u_chi_vec(chi.u_chi_vec(x)) - x).is_zero():
            return False
    return True


def _r_from_connection(ext, chi, nabla, p):
    """R_p = wedge o (chi_hat (x) id) o Lambda^p nabla."""

    def fn(v):
        return chi.chi_hat_wedge(p, nabla.lam_apply(p, v))

    return fn


def _r_from_iso(ext, kahler, chi, p, window):
    """R_p = Lambda^{p+1} chi_hat o d o (Lambda^p chi_hat)^{-1} (flattened)."""
    lam_hat_p = exterior_power_map(chi.chi_hat(), kahler.omega(p), ext.lam_i(p))
    lam_hat_p1 = exterior_power_map(chi.chi_hat(), kahler.omega(p + 1), ext.lam_i(p + 1))
    sb_om = QBasis(kahler.omega(p), window)
    tb_om = QBasis(kahler.omega(p + 1), window)
    sb_i = QBasis(ext.lam_i(p), window)
    tb_i = QBasis(ext.lam_i(p + 1), window)
    inv = ql.inverse(flatten_linmap(lam_hat_p, sb_om, sb_i), sb_i.dim)
    if inv is None:
        raise StructuralError("windowed flattening of Lambda^p chi_hat is singular")
    d = flatten_map(kahler.d_vec, sb_om, tb_om)
    M_hat_p1 = flatten_linmap(lam_hat_p1, tb_om, tb_i)
    R = ql.compose_columns(M_hat_p1, ql.compose_columns(d, inv))

    def fn(v):
        (col,) = ql.compose_columns(R, [sb_i.flatten(v)])
        return tb_i.unflatten(col)

    return fn


def chi_hat_determinant(ext, kahler, chi):
    """Determinant of chi_hat over A (m = r); the invertibility witness."""
    if kahler.m != ext.rank:
        raise StructuralError("chi_hat can only be inverted when m = r")
    lam_top = exterior_power_map(chi.chi_hat(), kahler.omega(ext.rank), ext.lam_i(ext.rank))
    img = lam_top.apply(kahler.omega(ext.rank).basis_vec(tuple(range(ext.rank))))
    return img.coeff(tuple(range(ext.rank)))


def ak_auto(ext, r_maps, window):
    """The automorphism (i, j) |-> (i + R_p(j), j) of P, as a complex map."""
    P = build_p_complex(ext).with_window(window)

    def component(p):
        def fn(v):
            i_part, j_part = ext.split(v)
            return ext.join(p + 1, i_part + r_maps[p](j_part), j_part)

        return fn

    return P, ComplexMap.from_functions(P, P, {-p: component(p) for p in range(ext.rank + 1)})


def ak_auto_from_connection(ext, kahler, chi, nabla, window):
    """The automorphism induced by a connection; returns (P, phi, R family)."""
    r_maps = {p: _r_from_connection(ext, chi, nabla, p) for p in range(ext.rank + 1)}
    P, phi = ak_auto(ext, r_maps, window)
    return P, phi, r_maps


def ak_auto_from_iso(ext, kahler, chi, window):
    """Canonical automorphism when chi_hat is invertible (m = r)."""
    det = chi_hat_determinant(ext, kahler, chi)
    if not det.is_unit():
        raise StructuralError(f"chi_hat is not invertible: det = {det!r}")
    r_maps = {p: _r_from_iso(ext, kahler, chi, p, window) for p in range(ext.rank + 1)}
    P, phi = ak_auto(ext, r_maps, window)
    return P, phi, r_maps


def r_map_twisted_leibniz(ext, chi, r_map, p, window):
    """R_p(a j) = a R_p(j) + chi(a) ^ j on the windowed basis."""
    lam = ext.lam_i(p)
    fb = QBasis(lam, window)
    tb = QBasis(ext.lam_i(p + 1), window)
    for K in lam.labels:
        base = r_map(lam.basis_vec(K))
        for mono in ext.algebra.monomials:
            a = ext.algebra.monomial(mono)
            if lam.grade_of(K) + sum(mono) > window:
                continue
            lhs = r_map(lam.basis_vec(K, a))
            rhs = base.scale(a) + ext.exterior.wedge(chi.chi(a), lam.basis_vec(K))
            if tb.flatten(lhs) != tb.flatten(rhs):
                return False
    return True


def semilinearity_check(ext, chi, phi, P, window):
    """phi((i,a) * x) = u_chi(i,a) * phi(x) on every windowed basis pair."""
    B = ext.lam_b(1)
    bb = QBasis(B, window)
    b_elems = [B.basis_vec(lab, ext.algebra.monomial(mono)) for lab, mono in bb.pairs]
    for p in range(ext.rank + 1):
        fb = P.flat(-p)
        for lab, mono in fb.pairs:
            x = P.module(-p).basis_vec(lab, ext.algebra.monomial(mono))
            phix = phi.apply(-p, x)
            for b in b_elems:
                lhs = phi.apply(-p, ext.b_action(p + 1, b, x))
                rhs = ext.b_action(p + 1, chi.u_chi_vec(b), phix)
                if fb.flatten(lhs - rhs):
                    return False
    return True


def augmentation_identity_check(ext, chi, phi, P):
    """The degree-0 component covers the identity of A after augmentation."""
    for lab, mono in P.flat(0).pairs:
        x = P.module(0).basis_vec(lab, ext.algebra.monomial(mono))
        _, a1 = ext.split(phi.apply(0, x))
        _, a0 = ext.split(x)
        if not (a1 - a0).is_zero():
            return False
    return True


def dual_auto(ext, r_maps, window):
    """The automorphism of the realized dual complex Q induced by the family
    R: (u, v) |-> (u + R_{q-1}(v), v) on the degree -q term."""
    Q = build_q_complex(ext).with_window(window)

    def component(q):
        def fn(y):
            u_part, v_part = ext.split(y)
            if v_part is None:
                return y
            return ext.join(q, u_part + r_maps[q - 1](v_part), v_part)

        return fn

    return Q, ComplexMap.from_functions(Q, Q, {-q: component(q) for q in range(ext.rank + 1)})


def dual_auto_checks(ext, chi, r_maps, window):
    """Chain map, semilinearity, and coaugmentation checks for the Q side."""
    from .ak_complexes import b_action_on_q, q_coaugmentation

    Q, psi = dual_auto(ext, r_maps, window)
    res = {}
    res["chain_map"] = psi.is_chain_map()
    res["invertible"] = all(
        ql.inverse(psi.columns(-q), Q.flat(-q).dim) is not None for q in range(ext.rank + 1)
    )
    coaug = q_coaugmentation(ext, Q)
    res["coaugmentation"] = (psi.compose(coaug) - coaug).is_zero()
    ok = True
    B = ext.lam_b(1)
    bb = QBasis(B, window)
    b_elems = [B.basis_vec(lab, ext.algebra.monomial(mono)) for lab, mono in bb.pairs]
    for q in range(ext.rank + 1):
        fb = Q.flat(-q)
        for lab, mono in fb.pairs:
            y = Q.module(-q).basis_vec(lab, ext.algebra.monomial(mono))
            psiy = psi.apply(-q, y)
            for b in b_elems:
                lhs = psi.apply(-q, b_action_on_q(ext, q, b, y))
                rhs = b_action_on_q(ext, q, chi.u_chi_vec(b), psiy)
                if fb.flatten(lhs - rhs):
                    ok = False
    res["semilinear"] = ok
    return Q, psi, res


def prop_battery_from_connection(ext, kahler, chi, nabla, window):
    """Full verification battery for the connection-induced automorphisms."""
    return _prop_battery(ext, chi, window, *ak_auto_from_connection(ext, kahler, chi, nabla, window))


def prop_battery_from_iso(ext, kahler, chi, window):
    """The same battery for the canonical automorphism of an invertible chi_hat."""
    return _prop_battery(ext, chi, window, *ak_auto_from_iso(ext, kahler, chi, window))


def _prop_battery(ext, chi, window, P, phi, r_maps):
    """The checks on an automorphism phi of P, its family R and the induced
    automorphism of Q."""
    res = {}
    res["p_chain_map"] = phi.is_chain_map()
    res["p_invertible"] = all(
        ql.inverse(phi.columns(-p), P.flat(-p).dim) is not None for p in range(ext.rank + 1)
    )
    res["p_semilinear"] = semilinearity_check(ext, chi, phi, P, window)
    res["p_augmentation"] = augmentation_identity_check(ext, chi, phi, P)
    res["r_twisted_leibniz"] = all(
        r_map_twisted_leibniz(ext, chi, r_maps[p], p, window) for p in range(ext.rank)
    )
    _, _, qres = dual_auto_checks(ext, chi, r_maps, window)
    res.update({f"q_{k}": v for k, v in qres.items()})
    return res
