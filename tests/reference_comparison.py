"""The comparison morphism on module maps: the references
``hkrlab.cech_twist.build_t_wedge``, ``build_t_last_level`` and
``t_chain_check`` are tested against.

``reference_build_t_wedge`` and ``reference_build_t_last_level`` are the
builders the package used before the components of T became sparse
rational columns, kept unchanged: each component is a ``LinMap``
Lambda^{n+1} B -> Lambda^{n+l+1} B.  ``reference_t_chain_check`` is the
loop the package used before the check moved to sparse rational columns,
kept unchanged: it composes the components of T, the differentials hat_d
and the chart changes as ``LinMap``s, equation by equation, and adds up the
columns of the signed pieces over the coefficient algebra.
``linmaps_of_columns`` turns a table of columns into such a table of
``LinMap``s, and ``chart_change`` reads a family's chart change as one.
"""

from __future__ import annotations

from fractions import Fraction

from hkrlab.cech_twist import UnsupportedTwistError, cochain_values, eta_recursion
from hkrlab.exterior_core import merge_wedge
from hkrlab.modules import LinMap, StructuralError, _accumulate

from reference_complexes import linmap_of_columns


def linmaps_of_columns(ext, T):
    """The table of LinMaps with T's columns: each component (n, l, s) read
    off its columns at the pairs (label, 1)."""
    return {
        (n, l, s): linmap_of_columns(ext.lam_b(n + 1), ext.lam_b(n + l + 1), cols)
        for (n, l, s), cols in T.items()
    }


def chart_change(fam, n, a, b):
    """The family's chart change b -> a on Lambda^{n+1} B as a LinMap, read
    off its columns as linmaps_of_columns reads T."""
    M = fam.ext.lam_b(n + 1)
    return linmap_of_columns(M, M, fam.transition_columns(n, a, b))


def reference_build_t_wedge(ext, nerve, c_cochains, d_cochains):
    """The comparison morphism for wedge-type twists:

    S_{-n,l,s}(i, j) = ((-1)^l eta_{n+l,n,s} ^ i, eta_{n+l,n,s} ^ j).
    """
    r = ext.rank
    etas = eta_recursion(ext, nerve, c_cochains, d_cochains)
    comps = {}
    for n in range(r + 1):
        for l in range(nerve.depth + 1):
            if n + l > r:
                continue
            # a simplex where eta vanishes has a zero component
            for s, ev in cochain_values(nerve, etas[(n + l, n)]).items():
                src = ext.lam_b(n + 1)
                tgt = ext.lam_b(n + l + 1)
                m = LinMap(src, tgt)
                for lab in src.labels:
                    tag, K = lab
                    sgn = (-1) ** l if tag == "i" else 1
                    terms = (
                        ((tag, mw[1]), c * (mw[0] * sgn))
                        for E, c in ev.data.items()
                        if (mw := merge_wedge(E, K)) is not None
                    )
                    m.set_column(lab, tgt.element(terms))
                comps[(n, l, s)] = m
    return comps


def reference_build_t_last_level(ext, nerve, lam, mu):
    """The comparison morphism when only the last twist level differs:

    S_{-n,0} = id; S_{-(r-1),1,(a,b)} = (0, (1/r)(c_{r-1} - d_{r-1})_{ab}(j)).
    """
    r = ext.rank
    for n in range(r - 1):
        if not (lam.cocycles[n].cochain - mu.cocycles[n].cochain).is_zero():
            raise UnsupportedTwistError("lower twist levels must agree")
    comps = {}
    for n in range(r + 1):
        for s in nerve.simplices_of_dim(0):
            comps[(n, 0, s)] = LinMap.identity(ext.lam_b(n + 1))
    diff = lam.cocycles[r - 1].cochain - mu.cocycles[r - 1].cochain
    # an edge where the difference vanishes has a zero component
    for s, dv in cochain_values(nerve, diff).items():
        src = ext.lam_b(r)
        tgt = ext.lam_b(r + 1)
        m = LinMap(src, tgt)
        for lab in src.labels:
            tag, K = lab
            if tag != "j":
                continue
            terms = ((("j", U), c * Fraction(1, r)) for (K2, U), c in dv.data.items() if K2 == K)
            m.set_column(lab, tgt.element(terms))
        comps[(r - 1, 1, s)] = m
    return comps


def reference_t_chain_check(ext, lam, mu, T):
    """For every degree n, Cech level l and l-simplex s:
        delta-part + (-1)^l (n+l) d_{n+l+1} o T_{n,l,s} = n T_{n-1,l,s} o d_{n+1}
    where the delta-part twists the leading face through the mu transitions
    on the target and the lam transitions on the source (n = 0 has zero
    right side)."""
    nerve = lam.nerve
    r = ext.rank
    for n in range(r + 1):
        for l in range(nerve.depth + 1):
            if n - 1 + l > r and n > 0:
                continue
            src = ext.lam_b(n + 1)
            tgt = ext.lam_b(n + l)
            for s in nerve.simplices_of_dim(l):
                # (map, sign) pairs whose signed sum must vanish
                pieces = []
                if l >= 1:
                    for k in range(l + 1):
                        comp = T.get((n, l - 1, s[:k] + s[k + 1 :]))
                        if comp is None:
                            continue
                        if k == 0:
                            conv_out = chart_change(mu, n + l - 1, s[0], s[1])
                            conv_in = chart_change(lam, n, s[1], s[0])
                            comp = conv_out.compose(comp).compose(conv_in)
                        pieces.append((comp, (-1) ** k))
                if (comp := T.get((n, l, s))) is not None:
                    pieces.append((ext.hat_d(n + l).compose(comp), (-1) ** l))  # (n+l) d_{n+l+1}
                if n >= 1 and (comp := T.get((n - 1, l, s))) is not None:
                    pieces.append((comp.compose(ext.hat_d(n)), -1))
                for m, _ in pieces:
                    if m.source != src or m.target != tgt:
                        raise StructuralError("sum of maps with different source/target")
                for lab in src.labels:
                    terms = (
                        (tlab, c if sign == 1 else -c)
                        for m, sign in pieces
                        if (col := m.cols.get(lab)) is not None
                        for tlab, c in col.data.items()
                    )
                    if _accumulate({}, terms):
                        return False
    return True
