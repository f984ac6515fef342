"""The chain-map check of the comparison morphism on module maps: the
reference ``hkrlab.cech_twist.t_chain_check`` is tested against.

``reference_t_chain_check`` is the loop the package used before the check
moved to sparse rational columns, kept unchanged: it composes the
components of T, the differentials hat_d and the chart changes as
``LinMap``s, equation by equation, and adds up the columns of the signed
pieces over the coefficient algebra.
"""

from __future__ import annotations

from hkrlab.modules import StructuralError, _accumulate


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
                            conv_out = mu.transition(n + l - 1, s[0], s[1])
                            conv_in = lam.transition(n, s[1], s[0])
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
