"""Kahler differentials, connections, and the induced automorphisms of P and Q.

Everything here is only rational-linear (the exterior derivative and
derivations are not module maps), so the maps are kept as flattened
matrices on grade-windowed bases.  Forms are graded with each dx counting
one, so the exterior derivative descends to the truncated quotient.

A family R_p: Lambda^p I -> Lambda^{p+1} I comes from a connection
(r_family_from_connection) or from an invertible chi_hat
(r_family_from_iso); prop_battery checks R and the automorphisms it induces
on P and Q (induced_auto), both sides in one loop.  Nothing in the
verifier calls this module: atiyah_twist and codim2_matrix read its
connections and derivations, and the battery is the candidate check for a
change of retraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .ak_complexes import b_action_on_q, build_p_complex, build_q_complex, p_augmentation, q_coaugmentation
from .chain_core import ComplexMap, tensor_module
from .coeff import Poly
from .exterior_core import MERGES, ExteriorContext, exterior_power_map, sort_sign
from .modules import LinMap, QBasis, StructuralError, flatten_map
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
            if (mw := MERGES[(i,), K]) is not None
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
            if (mw := MERGES[(u,), K]) is not None
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


def r_family_from_connection(ext, chi, nabla):
    """The family R_p = wedge o (chi_hat (x) id) o Lambda^p nabla, p = 0..r."""

    def r_map(p):
        return lambda v: chi.chi_hat_wedge(p, nabla.lam_apply(p, v))

    return {p: r_map(p) for p in range(ext.rank + 1)}


def r_family_from_iso(ext, kahler, chi, window):
    """The canonical family of an invertible chi_hat (m = r, unit determinant):
    R_p = Lambda^{p+1} chi_hat o d o (Lambda^p chi_hat)^{-1}, flattened at the
    window, p = 0..r."""
    det = chi_hat_determinant(ext, kahler, chi)
    if not det.is_unit():
        raise StructuralError(f"chi_hat is not invertible: det = {det!r}")

    def r_map(p):
        lam_hat_p = exterior_power_map(chi.chi_hat(), kahler.omega(p), ext.lam_i(p))
        lam_hat_p1 = exterior_power_map(chi.chi_hat(), kahler.omega(p + 1), ext.lam_i(p + 1))
        sb_om = QBasis(kahler.omega(p), window)
        tb_om = QBasis(kahler.omega(p + 1), window)
        sb_i = QBasis(ext.lam_i(p), window)
        tb_i = QBasis(ext.lam_i(p + 1), window)
        inv = ql.inverse(flatten_map(lam_hat_p, sb_om, sb_i), sb_i.dim)
        if inv is None:
            raise StructuralError("windowed flattening of Lambda^p chi_hat is singular")
        d = flatten_map(kahler.d_vec, sb_om, tb_om)
        R = ql.compose_columns(flatten_map(lam_hat_p1, tb_om, tb_i), ql.compose_columns(d, inv))

        def fn(v):
            (col,) = ql.compose_columns(R, [sb_i.flatten(v)])
            return tb_i.unflatten(col)

        return fn

    return {p: r_map(p) for p in range(ext.rank + 1)}


def chi_hat_determinant(ext, kahler, chi):
    """Determinant of chi_hat over A (m = r); the invertibility witness."""
    if kahler.m != ext.rank:
        raise StructuralError("chi_hat can only be inverted when m = r")
    lam_top = exterior_power_map(chi.chi_hat(), kahler.omega(ext.rank), ext.lam_i(ext.rank))
    img = lam_top.apply(kahler.omega(ext.rank).basis_vec(tuple(range(ext.rank))))
    return img.coeff(tuple(range(ext.rank)))


def induced_auto(ext, cplx, r_maps):
    """The automorphism (i, j) |-> (i + R_{k-1}(j), j) of each term Lambda^k B
    of cplx (P or Q) that the family R induces; the identity on Lambda^0 B."""

    def component(n):
        k = ext.degree_of(cplx.module(n))

        def fn(v):
            i_part, j_part = ext.split(v)
            return v if j_part is None else ext.join(k, i_part + r_maps[k - 1](j_part), j_part)

        return fn

    return ComplexMap.from_functions(cplx, cplx, {n: component(n) for n in cplx.degrees()})


def r_map_twisted_leibniz(ext, chi, r_map, p, window):
    """R_p(a j) = a R_p(j) + chi(a) ^ j on the windowed basis."""
    lam = ext.lam_i(p)
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


def _is_semilinear(ext, chi, cplx, auto, action, b_elems):
    """auto(b * x) = u_chi(b) * auto(x) for every windowed basis pair x of
    cplx and every b, B acting on the degree -k term by action(k, b, x)."""
    for k in range(ext.rank + 1):
        fb = cplx.flat(-k)
        for lab, mono in fb.pairs:
            x = cplx.module(-k).basis_vec(lab, ext.algebra.monomial(mono))
            auto_x = auto.apply(-k, x)
            for b in b_elems:
                if fb.flatten(auto.apply(-k, action(k, b, x)) - action(k, chi.u_chi_vec(b), auto_x)):
                    return False
    return True


def prop_battery(ext, chi, r_maps, window):
    """The checks on the family R and on the automorphisms it induces on P
    and on Q: each is an invertible chain map, semilinear along u_chi, and
    fixes the augmentation P -> A (the coaugmentation theta[r] -> Q)."""
    P, Q = build_p_complex(ext).with_window(window), build_q_complex(ext).with_window(window)
    phi, psi = induced_auto(ext, P, r_maps), induced_auto(ext, Q, r_maps)
    aug, coaug = p_augmentation(ext, P), q_coaugmentation(ext, Q)
    B = ext.lam_b(1)
    b_elems = [B.basis_vec(lab, ext.algebra.monomial(mono)) for lab, mono in QBasis(B, window).pairs]
    res = {}
    sides = (("p", P, phi, lambda k, b, x: ext.b_action(k + 1, b, x)), ("q", Q, psi, partial(b_action_on_q, ext)))
    for side, cplx, auto, action in sides:
        res[f"{side}_chain_map"] = auto.is_chain_map()
        res[f"{side}_invertible"] = all(
            ql.inverse(auto.columns(-k), cplx.flat(-k).dim) is not None for k in range(ext.rank + 1)
        )
        res[f"{side}_semilinear"] = _is_semilinear(ext, chi, cplx, auto, action, b_elems)
    res["p_augmentation"] = (aug.compose(phi) - aug).is_zero()
    res["q_coaugmentation"] = (psi.compose(coaug) - coaug).is_zero()
    res["r_twisted_leibniz"] = all(
        r_map_twisted_leibniz(ext, chi, r_maps[p], p, window) for p in range(ext.rank)
    )
    return res
