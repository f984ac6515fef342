"""The Koszul duality check with every map built per call: the reference
``hkrlab.exterior_core.koszul_dual_check`` is tested against.

``reference_koszul_dual_check`` is the closure the package used before the
phi-independent parts (the terms Lambda^{r-n} M (x) det M*, the right
duality map and its invertibility) were built once per rank and kept on the
ExteriorContext, kept unchanged but for ``shift``: the per-degree sign
(-1)^{(r+1)n} of the duality map, which a negative control replaces.
"""

from __future__ import annotations

from hkrlab import rational as ql
from hkrlab.chain_core import CochainComplex, ComplexMap, hom_complex, single_module_complex, tensor_module
from hkrlab.exterior_core import koszul_complex
from hkrlab.modules import BasedModule, LinMap


def standard_shift(r, n):
    return (-1) ** ((r + 1) * n)


def reference_koszul_dual_check(ctx, phi_values, shift=standard_shift):
    """Verify the right-duality isomorphism (L*, d*) = (L, -delta) (x) det M* [-r].

    Builds Hom(L, A) with the standard Hom sign convention, the complex with
    terms Lambda^{r-n} M (x) det M* and differential (-delta) (x) id, and the
    degreewise map shift(r, n) (v (x) xi |-> xi |- v); checks it is a chain
    map with invertible components.  Returns (ok, details).
    """
    r = ctx.rank
    algebra = ctx.algebra
    L = koszul_complex(ctx, phi_values)
    A_cplx = single_module_complex(algebra, BasedModule(algebra, ((),), "A"), 0)
    Lstar = hom_complex(L, A_cplx)
    det_dual = ctx.ext(r, dual=True)
    modules = {}
    diffs = {}
    for n in range(r + 1):
        modules[n] = tensor_module(ctx.ext(r - n), det_dual)
    for n in range(r):
        src, tgt = modules[n], modules[n + 1]
        delta = L.diff(-(r - n))

        def fn(v, delta=delta, tgt=tgt):
            terms = []
            for (K, M), c in v.data.items():
                img = delta.apply(delta.source.basis_vec(K, c))
                terms += [((K2, M), -c2) for K2, c2 in img.data.items()]
            return tgt.element(terms)

        diffs[n] = LinMap.from_function(src, tgt, fn)
    rhs = CochainComplex(algebra, modules, diffs)

    def dual_fn(n):
        tgt = Lstar.module(n)
        shift_sign = shift(r, n)

        def fn(v):
            terms = []
            for (K, M), c in v.data.items():
                img = ctx.contract_right(ctx.ext(r, dual=True).basis_vec(M), ctx.ext(r - n).basis_vec(K, c))
                terms += [((-n, (J, ())), c2 * shift_sign) for J, c2 in img.data.items()]
            return tgt.element(terms)

        return fn

    dr = ComplexMap.from_functions(rhs, Lstar, {n: dual_fn(n) for n in range(r + 1)})
    chain_ok = dr.is_chain_map()
    invertible = all(
        ql.rank(dr.columns(n), Lstar.flat(n).dim) == Lstar.flat(n).dim == rhs.flat(n).dim
        for n in range(r + 1)
    )
    return chain_ok and invertible, {"chain_map": chain_ok, "invertible": invertible, "map": dr}
