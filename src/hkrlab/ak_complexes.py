"""The extension resolution complex P, its dual Q, and the pairing product.

P has Lambda^{p+1} B in degree -p with differential p d_{p+1}; it resolves
A (augmentation pr_2 in degree 0).  Q is Hom_A(P, theta[r]) (theta = top
exterior power of I) with the differential globally rescaled by (-1)^r;
realized on the terms Lambda^q B in degree -q via the pairing

    (u, v) |-> { (i, j) |-> j ^ u + (-1)^p i ^ v },

under which the differential becomes -(r-q+1) d_q (an exact matrix
identity, kept as a certificate: q_realization_identity checks that the
pairings are an invertible map of complexes Q -> hom_complex(P, theta[r])).
Q resolves theta placed in degree -r; the coaugmentation is the top Koszul
differential, i.e. in split form the inclusion of theta = Lambda^r I into
Lambda^r B.

The product P (x) Q -> Q is the shifted algebra product
TrivialExtension.star, on P^{-l} (x) Q^{-q} = Lambda^{l+1} B (x) Lambda^q B
as star(l, q - 1), and it is a map of complexes.
"""

from __future__ import annotations

from fractions import Fraction

from .chain_core import (
    CochainComplex,
    ComplexMap,
    hom_complex,
    hom_module,
    homology,
    homology_dims,
    is_quasi_iso,
    single_module_complex,
    tensor_complex,
)
from .coeff import CoeffAlgebra
from .exterior_core import MERGES
from .extension_dg import TrivialExtension, shifted_complex
from .modules import BasedModule, LinMap
from . import rational as ql


def build_p_complex(ext):
    """The resolution complex P of A over B, unwindowed, built once and owned
    by the extension; callers must not change it."""
    if "P" not in ext._complexes:
        ext._complexes["P"] = shifted_complex(ext)
    return ext._complexes["P"]


def p_augmentation(ext, P):
    """The quasi-isomorphism P -> A (degree 0: pr_2), at P's window."""
    A_mod = BasedModule(ext.algebra, ((),), "A")
    A_cplx = single_module_complex(ext.algebra, A_mod, 0).with_window(P.window)

    def fn(v):
        _, a = ext.split(v)
        return A_mod.basis_vec((), a.coeff(()))

    return ComplexMap.from_functions(P, A_cplx, {0: fn})


def theta_module(ext):
    return ext.lam_i(ext.rank)


def build_q_complex(ext):
    """The realized dual complex Q: Lambda^q B in degree -q, q = 0..r,
    unwindowed, built once and owned by the extension; callers must not
    change it."""
    if "Q" not in ext._complexes:
        r = ext.rank
        modules = {-q: ext.lam_b(q) for q in range(r + 1)}
        diffs = {-q: ext.d(q).scale(-(r - q + 1)) for q in range(1, r + 1)}
        ext._complexes["Q"] = CochainComplex(ext.algebra, modules, diffs)
    return ext._complexes["Q"]


def q_coaugmentation(ext, Q):
    """theta[r] -> Q, in split form the inclusion of Lambda^r I, at Q's window."""
    r = ext.rank
    theta_cplx = single_module_complex(ext.algebra, theta_module(ext), -r).with_window(Q.window)

    def fn(v):
        return ext.lam_b(r).element((("i", K), c) for K, c in v.data.items())

    return ComplexMap.from_functions(theta_cplx, Q, {-r: fn})


def q_pairing(ext, p):
    """The pairing Lambda^{r-p} B -> Hom_A(Lambda^{p+1} B, theta).

    Columns indexed by (u, v) split labels; Hom targets are labelled by
    (argument label, theta label).
    """
    r = ext.rank
    src = ext.lam_b(r - p)
    arg = ext.lam_b(p + 1)
    theta_lab = tuple(range(r))
    hom = hom_module(arg, theta_module(ext))
    m = LinMap(src, hom)
    for lab in src.labels:
        tag, K = lab
        terms = []
        for alab in arg.labels:
            atag, M = alab
            # f(i, j) = j ^ u + (-1)^p i ^ v
            if tag == "i" and atag == "j":
                mw = MERGES[M, K]
                if mw is not None:
                    terms.append(((alab, theta_lab), mw[0]))
            if tag == "j" and atag == "i":
                mw = MERGES[M, K]
                if mw is not None:
                    terms.append(((alab, theta_lab), mw[0] * (-1) ** p))
        m.set_column(lab, hom.element(terms))
    return m


def q_realization_identity(ext):
    """Certificate: the pairings q_pairing(ext, p), p = 0..r, are the degrees
    of one map of complexes from Q to Hom_A(P, theta[r]) with its Hom
    differential rescaled by (-1)^r, and each degree is invertible.  So Q's
    realized differential -(p+1) d_{r-p} is the transported Hom
    differential.  Exact matrix identities, read off Q itself."""
    r = ext.rank
    theta = single_module_complex(ext.algebra, theta_module(ext), -r)
    hom = hom_complex(build_p_complex(ext), theta).scale_diff((-1) ** r)

    def component(p):
        # Hom's degree p - r is the one spot (-p, .): maps out of P^{-p}
        phi, H = q_pairing(ext, p), hom.module(p - r)
        return lambda v: H.element(((-p, lab), c) for lab, c in phi.apply(v).data.items())

    F = ComplexMap.from_functions(build_q_complex(ext), hom, {p - r: component(p) for p in range(r + 1)})
    return F.is_chain_map() and all(ql.inverse(F.columns(n), hom.flat(n).dim) is not None for n in F.cols)


def hat_star_is_chain_map(ext):
    """Exhaustive check that the product is a map of complexes P (x) Q -> Q."""
    P = build_p_complex(ext)
    Q = build_q_complex(ext)
    T = tensor_complex(P, Q)

    def component(n):
        def fn(v):
            terms = []
            for (m, (plab, qlab)), c in v.data.items():
                l, q = -m, m - n
                w = ext.star(l, q - 1, ext.lam_b(l + 1).basis_vec(plab, c), ext.lam_b(q).basis_vec(qlab))
                terms += w.data.items()
            return Q.module(n).element(terms)

        return fn

    F = ComplexMap.from_functions(T, Q, {n: component(n) for n in T.degrees() if n in Q.modules})
    return F.is_chain_map()


def hat_star_matches_module_action(ext):
    """On degree-0 (x) Q the product is the module action of B, written
    independently of star through split and join."""
    for q in range(ext.rank + 1):
        for b in ext.lam_b(1).basis():
            for y in ext.lam_b(q).basis():
                via_star = ext.star(0, q - 1, b, y)
                via_action = b_action_on_q(ext, q, b, y)
                if not (via_star - via_action).is_zero():
                    return False
    return True


def b_action_on_q(ext, q, b, y):
    """(i,a)*(i2,j2) = (a i2 + i ^ j2, a j2) on Lambda^q B (q possibly 0)."""
    i1, j1 = ext.split(b)
    a = j1.coeff(())
    i2, j2 = ext.split(y)
    i_out = i2.scale(a)
    j_out = j2.scale(a) if j2 is not None else None
    if j2 is not None:
        i_out = i_out + ext.exterior.wedge(i1, j2)
    return ext.join(q, i_out, j_out)


def homology_action_check(ext):
    """H^0(P) = A acts on H^{-r}(Q) = theta through the module structure;
    the ideal part acts by zero."""
    r = ext.rank
    ok = True
    for K in ext.lam_i(r).labels:
        u = ext.lam_b(r).basis_vec(("i", K))
        one = ext.unit()
        ok = ok and (ext.star(0, r - 1, one, u) - u).is_zero()
        for k in range(r):
            i_elt = ext.b_elem([1 if t == k else 0 for t in range(r)], 0)
            ok = ok and ext.star(0, r - 1, i_elt, u).is_zero()
    return ok


# -- the contraction realization ------------------------------------------


def contraction_realization_check(r):
    """The product, reduced along A (x)_B P and Hom_B(A, Q (x) theta*), is
    left contraction under the duality identification.

    Reduced P-terms are the j parts (Lambda^l I), with lift x |-> (0, x);
    the Hom_B(A, -) subterms are the i parts (Lambda^q I, included as
    (u, 0)).  The identification with the exterior algebra of the dual
    carries the per-degree shift sign (-1)^q; with it the induced action
    transported through the left duality is exactly left contraction,
    checked on every basis pair.
    """
    ext = TrivialExtension(CoeffAlgebra.rationals(), r)
    ctx = ext.exterior
    xi = ctx.ext(r, dual=True).basis_vec(tuple(range(r)))
    for l in range(r + 1):
        for q in range(r + 1 - l):
            for K in ext.lam_i(l).labels:
                lifted = ext.lam_b(l + 1).basis_vec(("j", K))
                x_e = ext.lam_i(l).basis_vec(K)
                for M in ext.lam_i(q).labels:
                    included = ext.lam_b(q).basis_vec(("i", M))
                    w = ext.star(l, q - 1, lifted, included)
                    i_w, j_w = ext.split(w)
                    if j_w is not None and not j_w.is_zero():
                        return False
                    # transported action, with the (-1)^q / (-1)^{q+l} signs
                    # of the shift identification on source and target
                    sign = Fraction((-1) ** (q + l) * (-1) ** q)
                    got = ctx.contract_left(i_w.scale(sign), xi)
                    want = ctx.contract_left(
                        x_e, ctx.contract_left(ext.lam_i(q).basis_vec(M), xi)
                    )
                    if not (got - want).is_zero():
                        return False
                # the reduction is well defined: another lift differs by the
                # pure part, which acts into the j part only through zero
                for Kp in ext.lam_i(l + 1).labels:
                    other = ext.lam_b(l + 1).basis_vec(("i", Kp))
                    for M in ext.lam_i(q).labels:
                        included = ext.lam_b(q).basis_vec(("i", M))
                        if not ext.star(l, q - 1, other, included).is_zero():
                            return False
    return True


def ak_battery_failure(ext):
    """The first failing claim of the ak battery on one extension, as a witness
    naming its rank and algebra, else None: the resolution and pairing claims,
    then homology, homogeneity and homology per grade, on one P and one Q."""
    r, algebra = ext.rank, ext.algebra
    where = {"rank": r, "algebra": repr(algebra)}
    P, Q = build_p_complex(ext), build_q_complex(ext)
    results = {
        "p_aug_quasi_iso": is_quasi_iso(p_augmentation(ext, P)),
        "q_coaug_quasi_iso": is_quasi_iso(q_coaugmentation(ext, Q)),
        "q_realized_differential": q_realization_identity(ext),
        "hat_star_chain_map": hat_star_is_chain_map(ext),
        "hat_star_module_action": hat_star_matches_module_action(ext),
        "homology_action": homology_action_check(ext),
    }
    if not all(results.values()):
        return {**where, "results": {k: bool(v) for k, v in results.items()}}
    dims_p, dims_q = homology_dims(P), homology_dims(Q)
    if dims_p.get(0) != algebra.dimension() or any(v for n, v in dims_p.items() if n < 0):
        return {"claim": "resolution of the base", **where}
    if dims_q.get(-r) != algebra.dimension() or any(v for n, v in dims_q.items() if n != -r):
        return {"claim": "dual resolution", **where}
    if not (P.is_homogeneous() and Q.is_homogeneous()):
        return {"claim": "homogeneous differentials", **where}
    # per grade: H^0(P) is the grade-g piece of A; H^{-r}(Q) is it shifted
    # by r, since the top power sits in label grade r
    for g in range(algebra.degree_bound + r + 2):
        piece = sum(1 for mono in algebra.monomials if sum(mono) == g)
        top_piece = sum(1 for mono in algebra.monomials if sum(mono) == g - r)
        slice_p = {n: homology(P, n, grade=g).dim for n in range(-r, 1)}
        slice_q = {n: homology(Q, n, grade=g).dim for n in range(-r, 1)}
        if slice_p != {n: piece if n == 0 else 0 for n in range(-r, 1)}:
            return {"claim": "resolution of the base, per grade", **where, "grade": g}
        if slice_q != {n: top_piece if n == -r else 0 for n in range(-r, 1)}:
            return {"claim": "dual resolution, per grade", **where, "grade": g}
    return None
