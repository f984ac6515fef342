"""Multilinear algebra over a coefficient algebra.

Exterior powers of a based free module, wedge products, translation
operators, left/right contractions, the census of sign conventions that
make twisted contraction a module action, the right duality isomorphism,
and Koszul complexes.

Basis conventions: Lambda^p has basis e_K for strictly increasing index
tuples K, ordered lexicographically; all signs are relative to this order.
Dual bases pair by det: <f_K, e_L> = delta_{KL}.  Contractions of higher
degree into lower degree return zero.

Every sign and weight convention of the exterior algebra is written once,
here, on labels: sort_sign (the sign of e_{k_1} ^ ... ^ e_{k_n} against
e_{sorted K}), shuffles (the terms of W_{p,q}, weight p!q!/(p+q)!) and
symmetrizations (the terms of s_n, weight 1/n!).  Every other module
builds its exterior powers through an ExteriorContext and wedges through
ExteriorContext.wedge or, on labels, the merge table MERGES (as the Cech
cup product does), or calls these kernels on the labels of its own split
modules: kappa and zeta of hkr_local read symmetrizations and
sort_sign on the tensor powers of B (x) I, and translate, here, reads shuffles.

Of the four sign conventions admitted by the census, the trivial one
(chi = 1) is the convention used by every other module of this package;
the other three are exposed for inspection only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial

from .chain_core import CochainComplex, ComplexMap, hom_complex, single_module_complex, tensor_module
from .coeff import CoeffAlgebra, Poly
from .modules import BasedModule, LinMap, QBasis, StructuralError, _accumulate, _vec, flatten_map
from . import rational as ql


def sort_sign(seq):
    """(sign, sorted tuple) with e_{seq_1} ^ ... ^ e_{seq_n} = sign * e_{sorted};
    None if entries repeat."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign, tuple(sorted(seq))


def perm_sign(seq):
    """Sign of the permutation sorting seq; None if entries repeat."""
    s = sort_sign(seq)
    return None if s is None else s[0]


def merge_wedge(K, L):
    """(sign, sorted tuple) with e_K ^ e_L = sign * e_{K u L}; None if they meet."""
    return sort_sign(tuple(K) + tuple(L))


def shuffles(S, p):
    """The terms (weight * sign, K, L) of W_{p,q}(e_S), q = |S| - p: K runs
    over the p-subsets of S, L is the rest, the sign is that of e_K ^ e_L
    against e_S and the weight is p! q! / (p+q)!."""
    w = Fraction(factorial(p) * factorial(len(S) - p), factorial(len(S)))
    terms = []
    for K in combinations(S, p):
        L = tuple(i for i in S if i not in K)
        terms.append((w * perm_sign(K + L), K, L))
    return terms


def symmetrizations(K):
    """The terms (sign / n!, permuted K) of the symmetrization s_n(e_K), n = |K|."""
    n = len(K)
    w = Fraction(1, factorial(n))
    return [(w * perm_sign(sigma), tuple(K[i] for i in sigma)) for sigma in permutations(range(n))]


class _MergeTable(dict):
    """merge_wedge(K, L) keyed by (K, L), each computed on first use."""

    def __missing__(self, key):
        m = self[key] = merge_wedge(*key)
        return m


# the one table of e_K ^ e_L, shared by every wedge and split product
MERGES = _MergeTable()


def split_sign(J, K):
    """Sign with e_J ^ e_K = sign * e_{sorted(J u K)} for disjoint J, K."""
    m = MERGES[J, K]
    return None if m is None else m[0]


def exterior_power_map(g, src, tgt):
    """The exterior power src -> tgt of a map g between degree-1 modules.

    The basis vectors of g's modules are labelled (k,), and src and tgt are
    degree-p powers of them labelled by increasing p-tuples, so e_K maps to
    the wedge of the images g(e_k) over k in K.
    """
    one = src.algebra.one()

    def column(K):
        acc = [(one, ())]
        for k in K:
            img = g.apply(g.source.basis_vec((k,)))
            acc = [(coeff * c, cur + (u,)) for coeff, cur in acc for (u,), c in img.data.items()]
        return tgt.element((s[1], coeff * s[0]) for coeff, seq in acc if (s := sort_sign(seq)) is not None)

    return LinMap(src, tgt, {K: column(K) for K in src.labels})


class ExteriorContext:
    """Exterior powers of a rank-s free module E and its dual."""

    def __init__(self, algebra, rank, name="E"):
        self.algebra = algebra
        self.rank = rank
        self.name = name
        self._ext = {}
        # each power built here -> (p, dual), the one source of its degree and side
        self._degree = {}
        # n -> the phi-independent degree-n piece of koszul_dual_check, filled
        # by right_duality; callers must not change it
        self._right_duality = {}

    def ext(self, p, dual=False):
        """Lambda^p of E (or of E*)."""
        key = (p, dual)
        if key not in self._ext:
            nm = f"L^{p}({self.name}{'*' if dual else ''})"
            labels = tuple(combinations(range(self.rank), p)) if 0 <= p <= self.rank else ()
            M = self._ext[key] = BasedModule(self.algebra, labels, nm, tuple(p for _ in labels))
            self._degree[M] = key
        return self._ext[key]

    def _record(self, vec):
        """(p, dual) of the power of E or E* that vec lives in."""
        rec = self._degree.get(vec.module)
        if rec is None:
            raise StructuralError(f"{vec.module.name!r} is not a power built by this context")
        return rec

    def degree_of(self, vec):
        return self._record(vec)[0]

    def _side(self, vec):
        return self._record(vec)[1]

    def wedge(self, x, y):
        """x ^ y; bilinear, alternating, graded commutative.  The one wedge on
        Lambda E: one pass over the pairs of terms, through the merge table."""
        p, dual = self._record(x)
        q, y_dual = self._record(y)
        if dual != y_dual:
            raise StructuralError("wedge of elements from different home modules")
        terms = []
        for K, a in x.data.items():
            for L, b in y.data.items():
                m = MERGES[K, L]
                if m is not None:
                    terms.append((m[1], a * b if m[0] > 0 else -(a * b)))
        # beyond the rank every pair meets, and Lambda^{p+q} = 0
        return _vec(self.ext(p + q, dual), _accumulate({}, terms))

    def translate(self, k, p, m, phi):
        """t^m_{k,p}(phi) = wedge o (phi x id) o W_{p,m}."""
        if phi.source != self.ext(p) or phi.target != self.ext(k):
            raise StructuralError("translate: phi must map Lambda^p E -> Lambda^k E")
        if self.rank < max(p + m, k + m):
            raise StructuralError("translate: rank too small")
        lam_p, lam_m, tgt = self.ext(p), self.ext(m), self.ext(k + m)

        def fn(v):
            return tgt.element(
                t
                for S, c in v.data.items()
                for w, K, L in shuffles(S, p)
                for t in self.wedge(phi.apply(lam_p.basis_vec(K, c * w)), lam_m.basis_vec(L)).data.items()
            )

        return LinMap.from_function(self.ext(p + m), tgt, fn)

    # -- contractions ---------------------------------------------------

    def contract_left(self, v, phi):
        """(v -| phi)(x) = phi(x ^ v); left module action of Lambda E on Lambda E*."""
        return self._contract(v, phi, True, "contract_left takes (element of Lambda E, element of Lambda E*)")

    def contract_right(self, phi, v):
        """(phi |- v)(x) = phi(v ^ x); right module action."""
        return self._contract(v, phi, False, "contract_right takes (element of Lambda E*, element of Lambda E)")

    def _contract(self, v, phi, left, usage):
        """v -| phi if left, else phi |- v: the two differ only in the sign
        of splitting each label M of phi into the rest J and the label K of v."""
        if self._side(v) or not self._side(phi):
            raise StructuralError(usage)
        p = self.degree_of(v)
        q = self.degree_of(phi)
        if p > q:
            return self.ext(0, dual=True).zero()
        terms = []
        for K, a in v.data.items():
            for M, b in phi.data.items():
                if set(K) <= set(M):
                    J = tuple(i for i in M if i not in K)
                    terms.append((J, a * b * (split_sign(J, K) if left else split_sign(K, J))))
        return self.ext(q - p, dual=True).element(terms)

    # -- the right duality ----------------------------------------------

    def right_duality(self, n):
        """The phi-independent degree-n piece of koszul_dual_check, built once
        per n: (terms, labels, columns, invertible), where terms is
        Lambda^{r-n} E (x) det E*, labels are those of the degree-n term of
        Hom(L, A) (Hom(Lambda^n E, A) at spot -n), columns are the sparse
        columns of v (x) xi |-> (-1)^{(r+1)n} xi |- v between their flattened
        bases, and invertible says whether those columns are invertible."""
        got = self._right_duality.get(n)
        if got is None:
            r = self.rank
            lam, det_dual = self.ext(r - n), self.ext(r, dual=True)
            terms = tensor_module(lam, det_dual)
            labels = tuple((-n, (J, ())) for J in self.ext(n).labels)
            target = BasedModule(self.algebra, labels)
            shift_sign = (-1) ** ((r + 1) * n)

            def fn(v):
                return target.element(
                    ((-n, (J, ())), c2 * shift_sign)
                    for (K, M), c in v.data.items()
                    for J, c2 in self.contract_right(det_dual.basis_vec(M), lam.basis_vec(K, c)).data.items()
                )

            sb, tb = QBasis(terms), QBasis(target)
            cols = flatten_map(fn, sb, tb)
            invertible = ql.rank(cols, tb.dim) == tb.dim == sb.dim
            got = self._right_duality[n] = (terms, labels, cols, invertible)
        return got


# -- sign function census -------------------------------------------------


class SignFunction:
    """Total map Delta_r = {(i, j): i + j <= r} -> {+1, -1}, compared and
    hashed on (r, values)."""

    def __init__(self, r, values):
        self.r = r
        self.values = values
        self._index = _pair_indices(r)

    @classmethod
    def from_callable(cls, r, fn):
        return cls(r, tuple(fn(i, j) for (i, j) in domain_pairs(r)))

    def __call__(self, i, j):
        k = self._index.get((i, j))
        if k is None:
            raise IndexError(f"({i},{j}) outside Delta_{self.r}")
        return self.values[k]

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.r, self.values) == (other.r, other.values)

    def __hash__(self):
        return hash((self.r, self.values))


def domain_pairs(r):
    return [(i, j) for i in range(r + 1) for j in range(r + 1 - i)]


@cache
def _pair_indices(r):
    """{(i, j): its position in domain_pairs(r)}, built once per rank."""
    return {p: k for k, p in enumerate(domain_pairs(r))}


def four_standard_sign_functions(r):
    """The four conventions under which twisted contraction is an action."""
    return [
        SignFunction.from_callable(r, lambda p, q: 1),
        SignFunction.from_callable(r, lambda p, q: (-1) ** p),
        SignFunction.from_callable(r, lambda p, q: (-1) ** (p * (p + 1) // 2 + p * q)),
        SignFunction.from_callable(r, lambda p, q: (-1) ** (p * (p + 1) // 2 + p * q + p)),
    ]


def _action_constraints(r, side):
    """Constraints from evaluating the twisted action on all basis triples.

    Returns unit constraints [(i, j)] (value forced to +1) and triple
    constraints [((a), (b), (c))] meaning chi(a) = chi(b) * chi(c), computed
    from the nonvanishing untwisted contractions of basis triples.
    """
    ctx = ExteriorContext(CoeffAlgebra.rationals(), r)
    units = [(0, t) for t in range(r + 1)]
    triples = set()
    for pv in range(r + 1):
        for pw in range(r + 1):
            if pv + pw > r:
                continue
            for q in range(r + 1):
                for K in combinations(range(r), pv):
                    v = ctx.ext(pv).basis_vec(K)
                    for L in combinations(range(r), pw):
                        w = ctx.ext(pw).basis_vec(L)
                        vw = ctx.wedge(v, w)
                        if vw.is_zero():
                            continue
                        for M in combinations(range(r), q):
                            phi = ctx.ext(q, dual=True).basis_vec(M)
                            if side == "left":
                                if ctx.contract_left(vw, phi).is_zero():
                                    continue
                                # chi(pv+pw, r-q) = chi(pw, r-q) chi(pv, r-q+pw)
                                triples.add(((pv + pw, r - q), (pw, r - q), (pv, r - q + pw)))
                            else:
                                if ctx.contract_right(phi, vw).is_zero():
                                    continue
                                # chi(pv+pw, r-q) = chi(pv, r-q) chi(pw, r-q+pv)
                                triples.add(((pv + pw, r - q), (pv, r - q), (pw, r - q + pv)))
    return units, sorted(triples)


_CONSTRAINT_CACHE = {}


def check_sign_action(chi, r, side):
    """Does chi-twisted contraction define a module action on Lambda E*?

    Checks the unit axiom and associativity on all basis triples of the
    rank-r exterior algebra (exhaustive; r <= 4).

    The table must in addition depend on the complementary degree only
    through its parity, i.e. define the *same* action along corank-two
    coordinate inclusions E'' < E (untwisted
    contraction restricts identically along these, so a convention -- as
    opposed to an ad-hoc table on one rank -- has no room to differ).
    On a single rank the associativity constraints alone underdetermine
    the table: at rank 3 they admit eight tables, of which exactly four
    are stable.
    """
    if r > 4:
        raise ValueError("exhaustive check capped at rank 4")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    key = (r, side)
    if key not in _CONSTRAINT_CACHE:
        _CONSTRAINT_CACHE[key] = _action_constraints(r, side)
    units, triples = _CONSTRAINT_CACHE[key]
    for u in units:
        if chi(*u) != 1:
            return False
    for a, b, c in triples:
        if chi(*a) != chi(*b) * chi(*c):
            return False
    for i in range(1, r + 1):
        for j in range(r + 1):
            if i + j + 2 <= r and chi(i, j) != chi(i, j + 2):
                return False
    return True


def sign_census(r, side):
    """All sign functions on Delta_r passing check_sign_action for one side."""
    domain = domain_pairs(r)
    passing = []
    for bits in range(1 << len(domain)):
        values = tuple(1 if (bits >> k) & 1 == 0 else -1 for k in range(len(domain)))
        chi = SignFunction(r, values)
        if check_sign_action(chi, r, side):
            passing.append(chi)
    return passing


# -- Koszul complexes ------------------------------------------------------


def koszul_complex(ctx, phi_values):
    """Koszul complex L(M, phi): Lambda^p M in degree -p, differential

    delta_p(m_1 ^ ... ^ m_p) = sum_i (-1)^{i-1} phi(m_i) m_1 ^ ... ^ m_p
    (the i-th factor removed); equivalently right contraction by phi.
    """
    s = ctx.rank
    algebra = ctx.algebra
    phi_values = [v if isinstance(v, Poly) else algebra.const(v) for v in phi_values]
    if len(phi_values) != s:
        raise StructuralError("phi must assign a value to each basis vector")
    modules = {-p: ctx.ext(p) for p in range(s + 1)}
    diffs = {}
    for p in range(1, s + 1):
        d = LinMap(ctx.ext(p), ctx.ext(p - 1))
        for K in ctx.ext(p).labels:
            terms = ((K[:i] + K[i + 1 :], phi_values[ki] * (-1) ** i) for i, ki in enumerate(K))
            d.set_column(K, ctx.ext(p - 1).element(terms))
        diffs[-p] = d
    return CochainComplex(algebra, modules, diffs)


def koszul_dual_check(ctx, phi_values):
    """Verify the right-duality isomorphism (L*, d*) = (L, -delta) (x) det M* [-r].

    Builds Hom(L, A) with the standard Hom sign convention, the complex with
    terms Lambda^{r-n} M (x) det M* and differential (-delta) (x) id, and the
    degreewise map (-1)^{(r+1)n} (v (x) xi |-> xi |- v); checks it is a chain
    map with invertible components.  Returns (ok, details).

    The terms, the duality map and its invertibility do not depend on phi:
    they come from ctx.right_duality, built once per rank.  L, Hom(L, A) and
    (-delta) (x) id, read off delta's stored columns, are built for each
    phi, and the chain-map check runs for each phi.

    The per-degree sign is the canonical bookkeeping for commuting the
    [-r] shift past the tensor factor; it is trivial for odd r.  Together
    with d* = -( . ^ phi) on the Hom side (itself a consequence of the
    Hom-complex convention, see tests) this pins all sign conventions of
    this package against each other.
    """
    r = ctx.rank
    algebra = ctx.algebra
    L = koszul_complex(ctx, phi_values)
    A_cplx = single_module_complex(algebra, BasedModule(algebra, ((),), "A"), 0)
    Lstar = hom_complex(L, A_cplx)
    duality = [ctx.right_duality(n) for n in range(r + 1)]
    modules = {}
    for n, (terms, labels, _, _) in enumerate(duality):
        if Lstar.module(n).labels != labels:
            raise StructuralError(f"degree {n} of Hom(L, A) is not the target of the right duality")
        modules[n] = terms
    diffs = {}
    for n in range(r):
        src, tgt, delta = modules[n], modules[n + 1], L.diff(-(r - n))
        diffs[n] = LinMap(
            src,
            tgt,
            {
                (K, M): _vec(tgt, {(K2, M): -c for K2, c in col.data.items()})
                for K, M in src.labels
                if (col := delta.cols.get(K)) is not None
            },
        )
    rhs = CochainComplex(algebra, modules, diffs)
    dr = ComplexMap(rhs, Lstar, {n: cols for n, (_, _, cols, _) in enumerate(duality)})
    chain_ok = dr.is_chain_map()
    invertible = all(inv for _, _, _, inv in duality)
    return chain_ok and invertible, {"chain_map": chain_ok, "invertible": invertible, "map": dr}
