"""The splitting-dependent comparison maps of a local model, built through
``ComplexMap.from_functions``: the reference ``LocalModel.gamma`` and
``LocalModel.kappa`` are tested against.

Each function here is the closure the package used before both maps were
read off psi's monomial table, kept unchanged: it applies psi to the
coefficient of a fresh basis vector of L and acts with the result on the
image of the label, and kappa acts on each of the p! symmetrization terms
one at a time.
"""

from __future__ import annotations

from hkrlab.chain_core import ComplexMap
from hkrlab.exterior_core import symmetrizations
from hkrlab.hkr_local import k_b_action, tensor_power_module


def reference_gamma(model):
    """The comparison chain map L -> P: c (x) e_K |-> psi(c) * (1_B ^ y_K)."""
    ext = model.ext

    def component(p):
        M = ext.lam_b(p + 1)

        def fn(v):
            return M.element(
                t
                for K, c in v.data.items()
                for t in ext.b_action(p + 1, model.psi(c), M.basis_vec(("j", K))).data.items()
            )

        return fn

    return ComplexMap.from_functions(model.L, model.P, {-p: component(p) for p in range(model.r + 1)})


def reference_kappa(model):
    """The symmetrization chain map L -> K over C, covering the identity of A:

    c (x) e_K |-> psi(c) . s_p(j_K)  (the (1/p!)-weighted signed sum).
    """
    ext = model.ext

    def component(p):
        M = tensor_power_module(ext, p)

        def fn(v):
            terms = []
            for Kl, c in v.data.items():
                b = model.psi(c)
                for w, T in symmetrizations(Kl):
                    terms += k_b_action(ext, p, b, M.basis_vec(("j", T), w)).data.items()
            return M.element(terms)

        return fn

    return ComplexMap.from_functions(model.L, model.K, {-p: component(p) for p in range(model.r + 1)})
