"""The trivial square-zero extension B = I + A and its exterior dg-algebra.

B carries the product (i,a).(i',a') = (ia' + ai', aa').  The exterior
algebra of B over A is stored in split form throughout: Lambda^k B is the
based module with labels ('i', K) for K an increasing k-tuple (the pure
part Lambda^k I) and ('j', L) for L an increasing (k-1)-tuple (the part
1_B ^ Lambda^{k-1} I).  The Koszul differential of the projection onto A
is d_k('j', L) = ('i', L), d_k('i', K) = 0.

The shifted module puts Lambda^{k+1} B in degree k; its product is

    (i1, j1) * (i2, j2) = (i1 ^ j2 + (-1)^k j1 ^ i2, j1 ^ j2)

and its differential is k d_{k+1}.  The fixed maps d_k and k d_{k+1} and
the unit 1_B are built once per extension and shared: callers must not
change them.  Lambda I is the exterior algebra of
the extension's own ExteriorContext; star reads the merge table of its
wedge.  All identities (associativity, Leibniz, module axioms) are exact
in the truncated coefficient algebra because truncation is an algebra
quotient.
"""

from __future__ import annotations

from itertools import combinations

from .chain_core import CochainComplex
from .exterior_core import MERGES, ExteriorContext, merge_wedge
from .modules import BasedModule, LinMap, QBasis, StructuralError, _accumulate, _vec


class TrivialExtension:
    """B = I + A with I free of rank r over A, in split coordinates."""

    def __init__(self, algebra, rank, name="B"):
        if rank < 1:
            raise ValueError("extension by a rank-0 module is degenerate")
        self.algebra = algebra
        self.rank = rank
        self.name = name
        # the exterior algebra of I: its powers, wedge and contractions
        self.exterior = ExteriorContext(algebra, rank, name="I")
        self._lam_b = {}
        self._lam_i = {}
        # k -> QBasis(Lambda^k B), built once; callers must not change them
        self._flat = {}
        self._unsplit = {}
        # k -> d_k and k -> k d_{k+1}, built once; callers must not change them
        self._d = {}
        self._hat_d = {}
        self._unit = None
        # Lambda^k B -> k, filled as lam_b builds them, so degrees are never
        # read off names
        self._degree = {}
        # (j, i) -> Hom(Lambda^j I, Lambda^i I), filled by cech_twist.hom_lam_module
        self._hom_lam = {}
        # p -> the p-th tensor power of B over A, filled by hkr_local.tensor_power_module
        self._tensor_power = {}
        # window -> the zeta battery's results, filled by hkr_local.zeta_checks
        self._zeta_checks = {}

    # -- modules ---------------------------------------------------------

    def lam_i(self, p):
        """Lambda^p I with labels = increasing tuples: the power built by the
        extension's exterior context, kept per p for the hot callers."""
        M = self._lam_i.get(p)
        if M is None:
            M = self._lam_i[p] = self.exterior.ext(p)
        return M

    def lam_b(self, k):
        """Lambda^k B in split form: ('i', K) for |K| = k, ('j', L) for |L| = k-1."""
        if k not in self._lam_b:
            labels = []
            grades = []
            if 0 <= k <= self.rank:
                for K in combinations(range(self.rank), k):
                    labels.append(("i", K))
                    grades.append(k)
            if 1 <= k <= self.rank + 1:
                for L in combinations(range(self.rank), k - 1):
                    labels.append(("j", L))
                    grades.append(k - 1)
            M = self._lam_b[k] = BasedModule(self.algebra, tuple(labels), f"L^{k}{self.name}", tuple(grades))
            self._degree[M] = k
        return self._lam_b[k]

    def flat(self, k):
        """The flattened basis QBasis(Lambda^k B), built once per k: the basis
        the comparison morphism's components and the chart changes are
        written over."""
        basis = self._flat.get(k)
        if basis is None:
            basis = self._flat[k] = QBasis(self.lam_b(k))
        return basis

    @property
    def B(self):
        return self.lam_b(1)

    def b_elem(self, i_coeffs, a):
        """Element (i, a) of B from I coordinates and an algebra element."""
        terms = [(("i", (k,)), c) for k, c in enumerate(i_coeffs)]
        return self.B.element(terms + [(("j", ()), a)])

    def unit(self):
        """1_B, built once; callers must not change it."""
        if self._unit is None:
            self._unit = self.b_elem([0] * self.rank, 1)
        return self._unit

    def split(self, x):
        """Split a Lambda^k B element into its (Lambda^k I, Lambda^{k-1} I) parts."""
        k = self.degree_of(x.module)
        parts = {"i": {}, "j": {}}
        for (tag, K), c in x.data.items():
            parts[tag][K] = c
        i_part = _vec(self.lam_i(k), parts["i"])
        j_part = _vec(self.lam_i(k - 1), parts["j"]) if k >= 1 else None
        return i_part, j_part

    def join(self, k, i_part, j_part):
        M = self.lam_b(k)
        data = {}
        for tag, part in (("i", i_part), ("j", j_part)):
            if part is not None:
                for K, c in part.data.items():
                    label = (tag, K)
                    if label not in M.label_index:
                        raise StructuralError(f"label {label!r} not in module {M.name!r}")
                    data[label] = c
        return _vec(M, data)

    def degree_of(self, module):
        """k for the module Lambda^k B of this extension."""
        k = self._degree.get(module)
        if k is None:
            raise StructuralError(f"{module.name!r} is not a module of this extension")
        return k

    # -- products --------------------------------------------------------

    def b_mul(self, x, y):
        """Product in B, the degree-0 shifted product: (i,a)(i',a') = (ia' + ai', aa')."""
        return self.star(0, 0, x, y)

    def wedge_b(self, x, y):
        """Wedge in Lambda B, computed on split labels.

        ('i', K) is the pure wedge of I vectors, ('j', L) is 1_B ^ (I part);
        two j-labels wedge to zero since 1_B ^ 1_B = 0.
        """
        k = self.degree_of(x.module)
        l = self.degree_of(y.module)
        tgt = self.lam_b(k + l)
        terms = []
        for (t1, K), a in x.data.items():
            for (t2, L), b in y.data.items():
                if t1 == "j" and t2 == "j":
                    continue
                m = merge_wedge(K, L)
                if m is None:
                    continue
                sgn, KL = m
                if t1 == "i" and t2 == "i":
                    lab = ("i", KL)
                elif t1 == "j":
                    lab = ("j", KL)  # (1 ^ K) ^ L = 1 ^ (K ^ L)
                else:
                    # K ^ (1 ^ L) = (-1)^{|K|} 1 ^ (K ^ L)
                    sgn *= (-1) ** len(K)
                    lab = ("j", KL)
                if lab in tgt.label_index:
                    terms.append((lab, a * b * sgn))
        return tgt.element(terms)

    # -- differentials and the shifted product ----------------------------

    def d(self, k):
        """Koszul differential Lambda^k B -> Lambda^{k-1} B of pr_2, built once
        per k; callers must not change the map."""
        m = self._d.get(k)
        if m is None:
            src, tgt = self.lam_b(k), self.lam_b(k - 1)
            m = self._d[k] = LinMap(src, tgt)
            for lab in src.labels:
                tag, K = lab
                if tag == "j" and ("i", K) in tgt.label_index:
                    m.set_column(lab, tgt.basis_vec(("i", K)))
        return m

    def hat_d(self, k):
        """Differential of the shifted module: k d_{k+1} on degree k, built
        once per k; callers must not change the map."""
        m = self._hat_d.get(k)
        if m is None:
            m = self._hat_d[k] = self.d(k + 1).scale(k)
        return m

    def star(self, k, l, x, y):
        """Shifted product on degree-k and degree-l pieces, one pass over split labels:

        (i,K)(j,L) = (i, K^L), (j,K)(i,L) = (-1)^k (i, K^L), (j,K)(j,L) = (j, K^L)
        and (i,K)(i,L) = 0.  With l = q - 1 it is also the product
        P^{-k} (x) Q^{-q} -> Q^{-(k+q)} of ak_complexes, q = 0 included.
        """
        if x.module != self.lam_b(k + 1) or y.module != self.lam_b(l + 1):
            raise StructuralError("star: operands in wrong graded pieces")
        ji_sign = -1 if k % 2 else 1
        terms = []
        for (t1, K), a in x.data.items():
            for (t2, L), b in y.data.items():
                if t1 == "i":
                    if t2 == "i":
                        continue
                    tag, sign = "i", 1
                elif t2 == "i":
                    tag, sign = "i", ji_sign
                else:
                    tag, sign = "j", 1
                m = MERGES[K, L]
                if m is not None:
                    terms.append(((tag, m[1]), a * b if sign * m[0] > 0 else -(a * b)))
        return _vec(self.lam_b(k + l + 1), _accumulate({}, terms))

    def star_abstract(self, k, l, x, y):
        """The defining formula a*a' = a.da' + (-1)^{|a|+1} da.a' + (-1)^{|a|} da.1_B.da'.

        Here |a| is the degree in the unshifted exterior algebra (k+1 for an
        element of the degree-k shifted piece) and the products are wedges in
        Lambda B.  Used to cross-validate the split form of star().
        """
        da = self.d(k + 1).apply(x)
        db = self.d(l + 1).apply(y)
        one = self.unit()
        term1 = self.wedge_b(x, db)
        term2 = self.wedge_b(da, y).scale((-1) ** k)
        term3 = self.wedge_b(self.wedge_b(da, one), db).scale((-1) ** (k + 1))
        return term1 + term2 + term3

    def b_action(self, k, b, x):
        """Module action of B on Lambda^k B: (i,a)*(i1,j1) = (a i1 + i^j1, a j1)."""
        return self.star(0, k - 1, b, x)

    def pi(self, k, x):
        """The algebra map to A: projection of the degree-0 piece.

        On degree 0 (= B) this is pr_2; higher degrees map to zero.
        """
        if k != 0:
            return self.algebra.zero()
        _, a = self.split(x)
        return a.coeff(())

    # -- the unsplit view and the splitting isomorphism -------------------

    def lam_b_unsplit(self, k):
        """Lambda^k B on the wedge basis of (1_B, y_1, ..., y_r).

        Labels are increasing tuples from {-1, 0, .., r-1} where -1 stands
        for the unit 1_B; used only to certify the split form.
        """
        if k not in self._unsplit:
            labels = tuple(combinations(range(-1, self.rank), k))
            self._unsplit[k] = BasedModule(
                self.algebra, labels, f"U^{k}{self.name}", tuple(k for _ in labels)
            )
        return self._unsplit[k]

    def eq_split_iso(self, k):
        """The based isomorphism (i, j) |-> i + 1_B ^ j onto the unsplit view."""
        src, tgt = self.lam_b(k), self.lam_b_unsplit(k)
        m = LinMap(src, tgt)
        for lab in src.labels:
            tag, K = lab
            if tag == "i":
                m.set_column(lab, tgt.basis_vec(K))
            else:
                m.set_column(lab, tgt.basis_vec((-1,) + K))
        return m

    def d_unsplit(self, k):
        """Koszul differential of pr_2 on the unsplit wedge basis."""
        src, tgt = self.lam_b_unsplit(k), self.lam_b_unsplit(k - 1)
        m = LinMap(src, tgt)
        for K in src.labels:
            # pr_2(1_B) = 1, pr_2(y) = 0
            terms = ((K[:i] + K[i + 1 :], (-1) ** i) for i, ki in enumerate(K) if ki == -1)
            m.set_column(K, tgt.element(terms))
        return m


def build_extension(algebra, rank):
    """The trivial square-zero extension of the algebra by a free rank-r module."""
    return TrivialExtension(algebra, rank)


def shifted_complex(ext):
    """The complex with Lambda^{k+1} B in degree -k and differential k d_{k+1}.

    This is the underlying complex of the shifted dg-module; degree -0 has
    no outgoing differential.  (Exactness in negative degrees is witnessed
    by the wedge-with-unit homotopy, see tests.)
    """
    r = ext.rank
    modules = {-k: ext.lam_b(k + 1) for k in range(r + 1)}
    diffs = {-k: ext.hat_d(k) for k in range(1, r + 1)}
    return CochainComplex(ext.algebra, modules, diffs)
