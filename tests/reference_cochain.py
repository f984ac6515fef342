"""Cochains as a dict of values: the reference the element form of
``hkrlab.cech_twist`` is tested against.

``Cochain`` is the class the package used before a cochain became an
element of its Cech complex, kept unchanged: a dict {sorted simplex: value}
that checks every write and has its own sum, difference and multiple.  The
operations below it are the package's former ones, except that the
differential is the alternating face sum itself rather than the complex's.
``to_element`` and ``from_element`` translate between the two forms.
"""

from __future__ import annotations

from hkrlab.chain_core import homology
from hkrlab.cech_twist import NerveError, build_cochain, cech_complex, cochain_type, cochain_values
from hkrlab.exterior_core import perm_sign


class Cochain:
    """Sorted-simplex cochain with values in a based module."""

    def __init__(self, nerve, degree, module, values=None):
        self.nerve = nerve
        self.degree = degree
        self.module = module
        self.values = {}
        if values:
            for s, v in values.items():
                self[s] = v

    def __setitem__(self, simplex, value):
        simplex = tuple(simplex)
        if tuple(sorted(simplex)) != simplex or len(simplex) != self.degree + 1:
            raise NerveError(f"{simplex} is not a sorted {self.degree}-simplex")
        if not self.nerve.has(simplex):
            raise NerveError(f"{simplex} is not in the nerve")
        if not value.is_zero():
            self.values[simplex] = value
        else:
            self.values.pop(simplex, None)

    def value(self, simplex):
        """Value on an ordered tuple; for degree 1 the antisymmetric extension."""
        simplex = tuple(simplex)
        key = tuple(sorted(simplex))
        got = self.values.get(key)
        if got is None:
            return self.module.zero()
        if simplex == key:
            return got
        if self.degree == 1:
            return -got
        s = perm_sign(simplex)
        if s is None:
            return self.module.zero()
        return got if s == 1 else -got

    def __add__(self, other):
        out = Cochain(self.nerve, self.degree, self.module, dict(self.values))
        for s, v in other.values.items():
            out[s] = out.value(s) + v
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Cochain(
            self.nerve, self.degree, self.module, {s: v.scale(c) for s, v in self.values.items()}
        )

    def is_zero(self):
        return all(v.is_zero() for v in self.values.values())


def to_element(c):
    """The reference cochain c in the package's form."""
    return build_cochain(c.nerve, c.degree, c.module, c.values)


def from_element(nerve, x):
    """The package's cochain x as a reference cochain."""
    degree, module = cochain_type(nerve, x)
    return Cochain(nerve, degree, module, cochain_values(nerve, x))


def cech_delta(x):
    """The alternating face sum (dx)_s = sum_k (-1)^k x_{s minus its k-th vertex}."""
    out = Cochain(x.nerve, x.degree + 1, x.module)
    for s in x.nerve.simplices_of_dim(x.degree + 1):
        v = x.module.zero()
        for k in range(len(s)):
            v = v + x.value(s[:k] + s[k + 1 :]).scale((-1) ** k)
        out[s] = v
    return out


def is_cocycle(x):
    return cech_delta(x).is_zero()


def cochain_wedge(wedge_fn, x, y, target_module):
    """(x ^ y)_{a_0..a_{p+q}} = x_{a_0..a_p} ^ y_{a_p..a_{p+q}}."""
    nerve = x.nerve
    p, q = x.degree, y.degree
    out = Cochain(nerve, p + q, target_module)
    for s in nerve.simplices_of_dim(p + q):
        out[s] = wedge_fn(x.value(s[: p + 1]), y.value(s[p:]))
    return out


def yoneda_compose(u, v, hom_module):
    """(-1)^{pq} times composition cup."""
    sgn = (-1) ** (u.degree * v.degree)

    def compose(uf, vb):
        return hom_module.element(
            ((src, tgt), cu * cv * sgn)
            for (mid1, tgt), cu in uf.data.items()
            for (src, mid2), cv in vb.data.items()
            if mid1 == mid2
        )

    return cochain_wedge(compose, u, v, hom_module)


def _element_of(C, c):
    return C.module(c.degree).element(((s, lab), k) for s, v in c.values.items() for lab, k in v.data.items())


def cohomologous(x, y):
    """An exact solve for x - y = d(z) over the Cech complex."""
    C = cech_complex(x.nerve, x.module)
    diff = C.flat(x.degree).flatten(_element_of(C, x) - _element_of(C, y))
    if not diff:
        return True
    return C.qsolver(x.degree - 1).solve(diff) is not None


def canonical_representative(x):
    """The representative of x's class built from the homology basis."""
    C = cech_complex(x.nerve, x.module)
    H = homology(C, x.degree)
    out = Cochain(x.nerve, x.degree, x.module)
    for c, rep in zip(H.project(_element_of(C, x)), H.representatives):
        for (s, lab), k in rep.data.items():
            out[s] = out.value(s) + x.module.basis_vec(lab, k * c)
    return out
