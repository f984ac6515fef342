"""Cech machinery on finite nerves: twisted resolution complexes, the
comparison morphism into the Cech totalization, the lower-triangular
comparison matrix, cocycle operators, and the recursion probes.

Cochains are simplicial with respect to the sorted vertex order: a
k-cochain with values in M is an element of cech_complex(nerve, M).module(k),
whose label (s, lab) carries the coefficient of lab in the value on the
sorted k-simplex s.  Sums, multiples and the Cech differential are those of
the complex; the nerve records each cochain module's degree and coefficient
module (cochain_type), and cochain_value reads the value on an ordered
simplex with the sign of its sorting permutation, so one-cochain data that
enters transition maps (twist cocycles, line-bundle data) is extended to
both orientations antisymmetrically.  Transitions convert coordinates
from the second vertex's chart to the first: a twist cocycle c gives the
transition (i, j) |-> (i - c_{ab}(j), j) from b-coordinates to
a-coordinates; the sign is pinned by the chain-map equations of the
comparison morphism (see tests).  A chart change is only ever sparse
rational columns (TwistFamily.transition_columns), applied in two places:
cech_total_complex twists the leading faces of copies of the untwisted
Cech rows, and t_chain_check the leading face of the comparison morphism.

The cup product walks the nerve's front-back table (Hatcher, Algebraic
Topology, 3.2) with a rule on labels.  Class questions read (label,
monomial) slices over the scalar complex, whose solver's membership test
(Solver.contains) cohomologous asks.

The comparison morphism is a plain component table {(n, l, simplex):
sparse rational columns over ext.flat(n+1) -> ext.flat(n+l+1)}, in which a
missing key is a zero component: its builders write the columns directly,
and delta_matrix checks its chain-map equations and its augmentation on
them once and reads the matrix entries off their ('j', L) entries.
"""

from __future__ import annotations

import json
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product

from .chain_core import (
    ComplexMap,
    hom_module,
    homology,
    total_complex,
    totalize,
)
from .coeff import CoeffAlgebra
from .exterior_core import MERGES, exterior_power_map, perm_sign
from .extension_dg import TrivialExtension
from .modules import BasedModule, LinMap, QBasis, StructuralError, Vec, _accumulate, _vec, flatten_map
from . import rational as ql


# desk-scale cap on the dimension of a nerve's simplices
MAX_NERVE_DEPTH = 5


class NerveError(ValueError):
    pass


class UnsupportedTwistError(ValueError):
    """The comparison matrix is only computed for the supported twist shapes."""


class Nerve:
    """Finite vertex set with a face-closed family of simplices."""

    def __init__(self, vertices, simplices):
        self.vertices = vertices
        self.simplices = simplices

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.vertices, self.simplices) == (other.vertices, other.simplices)

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    @classmethod
    def build(cls, vertices, simplices):
        verts = tuple(sorted(set(vertices)))
        closed = set()
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not all(v in verts for v in s):
                raise NerveError(f"simplex {s} uses unknown vertices")
            for k in range(1, len(s) + 1):
                for face in combinations(s, k):
                    closed.add(face)
        for v in verts:
            closed.add((v,))
        return cls(verts, frozenset(closed))

    # The caches below live in the instance __dict__; a nerve compares and
    # hashes on (vertices, simplices) only, so they stay out of both.

    @cached_property
    def depth(self):
        return max(len(s) for s in self.simplices) - 1

    @cached_property
    def _by_dim(self):
        by_dim = {}
        for s in sorted(self.simplices):
            by_dim.setdefault(len(s) - 1, []).append(s)
        return {k: tuple(ss) for k, ss in by_dim.items()}

    def simplices_of_dim(self, k):
        """The sorted k-simplices."""
        return self._by_dim.get(k, ())

    @cached_property
    def cofaces(self):
        """Each simplex s -> the pairs (t, k) with s = t minus its k-th vertex,
        ordered by t, then k."""
        table = {s: [] for s in self.simplices}
        for l in range(1, self.depth + 1):
            for t in self.simplices_of_dim(l):
                for k in range(l + 1):
                    table[t[:k] + t[k + 1 :]].append((t, k))
        return {s: tuple(pairs) for s, pairs in table.items()}

    @cached_property
    def front_back(self):
        """(p, q) -> the rows (s, s[:p+1], s[p:]) of the sorted (p+q)-simplices
        s (front p-face, back q-face), for p + q <= depth."""
        d = self.depth
        keys = ((p, q) for p in range(d + 1) for q in range(d + 1 - p))
        return {(p, q): tuple((s, s[: p + 1], s[p:]) for s in self.simplices_of_dim(p + q)) for p, q in keys}

    @cached_property
    def _cech_complexes(self):
        """module -> its untwisted Cech complex, filled by cech_complex."""
        return {}

    @cached_property
    def _empty_cochain_modules(self):
        """(coefficient module, degree) -> the empty cochain module above the
        nerve's depth, filled by cochain_module."""
        return {}

    @cached_property
    def _cochain_types(self):
        """cochain module -> (degree, coefficient module), filled by
        cech_complex and cochain_module, so that neither is read off a name."""
        return {}

    def has(self, simplex):
        return tuple(sorted(simplex)) in self.simplices

    @classmethod
    def from_json(cls, data):
        """Parse and build a nerve; a simplex of more than MAX_NERVE_DEPTH + 1
        distinct vertices is rejected before its faces are formed."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or not {"vertices", "simplices"} <= set(data):
            raise NerveError("a nerve is an object with 'vertices' and 'simplices'")
        vertices, simplices = data["vertices"], data["simplices"]

        def int_list(x):
            return isinstance(x, list) and all(type(v) is int for v in x)

        if not int_list(vertices) or not vertices:
            raise NerveError("'vertices' must be a nonempty list of integers")
        if not isinstance(simplices, list) or not all(int_list(s) for s in simplices):
            raise NerveError("'simplices' must be a list of integer lists")
        if any(len(set(s)) > MAX_NERVE_DEPTH + 1 for s in simplices):
            raise NerveError(
                f"a simplex has more than {MAX_NERVE_DEPTH + 1} vertices, beyond the depth cap {MAX_NERVE_DEPTH}"
            )
        return cls.build(vertices, simplices)

    def to_json(self):
        return {"vertices": list(self.vertices), "simplices": [list(s) for s in sorted(self.simplices)]}


def circle_nerve(n=3):
    """Cycle on n vertices: nonzero classes in degrees 0 and 1."""
    if n < 3:
        raise NerveError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Nerve.build(range(n), edges)


def sphere_nerve(dim):
    """Boundary of the (dim+1)-simplex: nonzero classes in degrees 0 and dim."""
    n = dim + 2
    faces = list(combinations(range(n), n - 1))
    return Nerve.build(range(n), faces)


def torus_nerve():
    """The 7-vertex triangulated torus; carries a nonzero cup square."""
    tris = [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
        (i % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)
    ]
    return Nerve.build(range(7), tris)


NERVE_LIBRARY = {
    "circle": circle_nerve,
    "sphere2": lambda: sphere_nerve(2),
    "sphere3": lambda: sphere_nerve(3),
    "torus": torus_nerve,
}


# -- cochains ---------------------------------------------------------------


def cochain_module(nerve, module, degree):
    """The module of degree-cochains with values in module: the term of
    cech_complex(nerve, module) in that degree, with labels (simplex, label),
    and above the nerve's depth an empty module.  The empty module's name
    records the coefficient module's labels and grades, so that it stands for
    that one coefficient module in nerve._cochain_types."""
    M = cech_complex(nerve, module).modules.get(degree)
    if M is None:
        key = (module, degree)
        M = nerve._empty_cochain_modules.get(key)
        if M is None:
            M = BasedModule(module.algebra, (), f"C^{degree}({module.name}, {module.labels}, {module.grades})")
            nerve._empty_cochain_modules[key] = M
            nerve._cochain_types[M] = (degree, module)
    return M


def cochain_type(nerve, x):
    """(degree, coefficient module) of a cochain x on nerve."""
    got = nerve._cochain_types.get(x.module)
    if got is None:
        raise StructuralError(f"{x.module.name!r} is not a cochain module of this nerve")
    return got


def build_cochain(nerve, degree, module, values):
    """The degree-cochain with the value v on each sorted simplex s of the
    dict values {s: v}; a simplex that is unsorted, of another degree or not
    in the nerve is a NerveError."""
    terms = []
    for s, v in values.items():
        s = tuple(s)
        if tuple(sorted(s)) != s or len(s) != degree + 1:
            raise NerveError(f"{s} is not a sorted {degree}-simplex")
        if not nerve.has(s):
            raise NerveError(f"{s} is not in the nerve")
        if v.module != module:
            raise StructuralError("cochain value outside its coefficient module")
        terms += [((s, lab), c) for lab, c in v.data.items()]
    return cochain_module(nerve, module, degree).element(terms)


def _by_simplex(x):
    """{sorted simplex: [(label, coefficient), ...]} of a cochain's data on the
    simplices where it is nonzero, in the order of x.data."""
    groups = {}
    for (s, lab), c in x.data.items():
        groups.setdefault(s, []).append((lab, c))
    return groups


def cochain_value(nerve, x, simplex):
    """The value of the cochain x on an ordered simplex: its value on the
    sorted simplex times the sign of the sorting permutation (zero where a
    vertex repeats), so in degree 1 the antisymmetric extension."""
    _, module = cochain_type(nerve, x)
    simplex = tuple(simplex)
    key = tuple(sorted(simplex))
    sign = 1 if key == simplex else perm_sign(simplex)
    data = {}
    if sign is not None:
        for lab in module.labels:
            c = x.data.get((key, lab))
            if c is not None:
                data[lab] = c if sign == 1 else -c
    return _vec(module, data)


def cech_delta(nerve, x):
    """The untwisted Cech differential of a cochain."""
    l, module = cochain_type(nerve, x)
    d = cech_complex(nerve, module).diffs.get(l)
    return cochain_module(nerve, module, l + 1).zero() if d is None else d.apply(x)


def is_cocycle(nerve, x):
    """Is x's Cech differential zero?  One product of x's (label, monomial)
    slices with the scalar complex's cached flattened differential."""
    l, C, slices = _slices(nerve, x)
    return not any(ql.compose_columns(C.qdiff(l), list(slices.values())))


def cochain_wedge(nerve, rule, x, y, target_module):
    """Front-back product (x ^ y)_{a_0..a_{p+q}} = x_{a_0..a_p} ^ y_{a_p..a_{p+q}}
    over the nerve's front-back table, through a rule on labels: rule[a, b]
    is (sign, label) with a ^ b = sign * label, or None where it is zero.
    Terms are added in table order, then in x's and y's."""
    p, q = cochain_type(nerve, x)[0], cochain_type(nerve, y)[0]
    xs, ys = _by_simplex(x), _by_simplex(y)
    out = {}
    for s, front, back in nerve.front_back.get((p, q), ()):
        if (xv := xs.get(front)) is not None and (yv := ys.get(back)) is not None:
            pairs = ((m, ca * cb) for a, ca in xv for b, cb in yv if (m := rule[a, b]))
            _accumulate(out, (((s, m[1]), c if m[0] > 0 else -c) for m, c in pairs))
    M = cochain_module(nerve, target_module, p + q)
    if not out.keys() <= M.label_index.keys():
        raise StructuralError(f"a product lands outside {target_module.name!r}")
    return _vec(M, out)


def yoneda_compose(nerve, u, v, hom_module):
    """Yoneda product at cochain level: (-1)^{pq} times composition cup, u after v."""
    (p, U), (q, V) = cochain_type(nerve, u), cochain_type(nerve, v)
    rule = {(a, b): ((-1) ** (p * q), (b[0], a[1])) if a[0] == b[1] else None for a in U.labels for b in V.labels}
    return cochain_wedge(nerve, rule, u, v, hom_module)


# -- cohomology of constant and twisted local systems ------------------------


def cech_complex(nerve, module):
    """The sorted-simplex Cech complex with constant coefficients in module,
    built once per module and kept on the nerve, which records the degree
    and coefficient module of each of its terms (cochain_type)."""
    C = nerve._cech_complexes.get(module)
    if C is not None:
        return C
    spots = {l: [(s, module) for s in nerve.simplices_of_dim(l)] for l in range(nerve.depth + 1)}

    def column(l, s, lab):
        return (((t, lab), (-1) ** k) for t, k in nerve.cofaces[s])

    C = nerve._cech_complexes[module] = total_complex(module.algebra, spots, column, lambda l: f"C^{l}({module.name})")
    for l, M in C.modules.items():
        nerve._cochain_types[M] = (l, module)
    return C


def cech_total_complex(nerve, columns, vertical, transitions=None):
    """Tot of the Cech double complex of a complex of local systems.

    columns maps each complex degree j to the module of that term;
    vertical[j] is the chart-independent differential columns[j] ->
    columns[j + 1] (absent means zero); transitions(j, a, b), when given,
    is the b -> a chart change on columns[j] as sparse rational columns over
    QBasis(columns[j]).  Row j is the nerve's cached Cech complex of
    columns[j]; a chart change twists a copy of its differential, where the
    entry of the column at (s, lab) on the leading face t (t[1:] == s)
    becomes the image of lab under the chart change (t[0], t[1]).  totalize
    inserts (-1)^l on the vertical part, and the total's one d o d check
    covers every row, column and square (a ValueError).
    """
    cech = {j: cech_complex(nerve, M) for j, M in columns.items()}
    modules = {(l, j): C.module(l) for j, C in cech.items() for l in C.degrees()}
    horiz = {(l, j): d for j, C in cech.items() for l, d in C.diffs.items()}
    if transitions is not None:
        images = {}  # (j, a, b) -> {label: its image under the chart change}

        def image(key, lab):
            if key not in images:
                M, cols = columns[key[0]], transitions(*key)
                basis, unit = QBasis(M), M.algebra.constant_exps
                if len(cols) != basis.dim:
                    raise StructuralError(f"chart change {key} has {len(cols)} columns, not {basis.dim}")
                images[key] = {x: basis.unflatten(cols[basis.index[(x, unit)]]) for x in M.labels}
            return images[key][lab]

        for (l, j), d in horiz.items():
            cols = {}
            for (s, lab), col in d.cols.items():
                terms = {}
                for (t, lab2), c in col.data.items():
                    if t[1:] == s:
                        terms.update(((t, x), cx) for x, cx in image((j, t[0], t[1]), lab).data.items())
                    else:
                        terms[(t, lab2)] = c
                cols[(s, lab)] = _vec(d.target, terms)
            horiz[(l, j)] = LinMap(d.source, d.target, cols)
    vert = {}
    for j, v in vertical.items():
        if v.source != columns[j] or v.target != columns[j + 1]:
            raise StructuralError(f"vertical map {j} does not join columns {j} and {j + 1}")
        for l in cech[j].degrees():
            src, tgt = cech[j].module(l), cech[j + 1].module(l)
            d = LinMap(src, tgt)
            for (s, lab) in src.labels:
                if (col := v.cols.get(lab)) is not None:
                    d.set_column((s, lab), Vec(tgt, {(s, lab2): c for lab2, c in col.data.items()}))
            vert[(l, j)] = d
    algebra = next(iter(columns.values())).algebra
    return totalize(algebra, modules, horiz, vert)


# Over Q, C*(N; M) = C*(N; Q) (x) M: every class question about an M-valued cochain is
# asked of the nerve's scalar complex, one (label, monomial) slice at a time.  Its label is ().
SCALARS = BasedModule(CoeffAlgebra.rationals(), ((),), "Q")


def _slices(nerve, x):
    """(degree, the scalar Cech complex, {(label, monomial): x's slice there,
    a sparse column over the scalar complex's flattened degree})."""
    l, _ = cochain_type(nerve, x)
    C = cech_complex(nerve, SCALARS)
    index, slices = C.flat(l).index, {}
    for (s, lab), poly in x.data.items():
        for mono, c in poly.terms.items():
            slices.setdefault((lab, mono), {})[index[((s, ()), ())]] = c
    return l, C, slices


def class_count(nerve, degree, module):
    """dim H^degree(N; module) = dim H^degree(N; Q) * dim_Q(module); a NerveError above the depth."""
    if degree > nerve.depth:
        raise NerveError(f"nerve depth {nerve.depth} cannot support degree {degree}")
    return homology(cech_complex(nerve, SCALARS), degree).dim * QBasis(module).dim


def combine_representatives(nerve, degree, module, coeffs):
    """The cochain sum of c * b over coeffs and the class basis b of H^degree(N;
    module): scalar representative (x) (label, monomial) of QBasis(module), the
    representative first, exactly the basis of homology(cech_complex(nerve,
    module), degree), since rref is unique and _homology picks pivots greedily."""
    reps = homology(cech_complex(nerve, SCALARS), degree).representatives
    monomial = module.algebra.monomial
    return cochain_module(nerve, module, degree).element(
        ((s, lab), monomial(mono, c * v.terms[()]))
        for c, (rep, (lab, mono)) in zip(coeffs, product(reps, QBasis(module).pairs))
        if c
        for (s, _), v in rep.data.items()
    )


def cohomologous(nerve, x, y):
    """Do two cocycles represent the same class?  Each slice of x - y is
    tested for membership in the scalar complex's cached boundary span."""
    l, C, slices = _slices(nerve, x - y)
    return all(C.qsolver(l - 1).contains(col) for col in slices.values())


def class_coordinates(nerve, x):
    """Coordinates of a cocycle's class in the class basis of its degree."""
    l, C, slices = _slices(nerve, x)
    H = homology(C, l)
    coords = [H.project_flat(slices.get(p, {})) for p in QBasis(cochain_type(nerve, x)[1]).pairs]
    return [c[k] for k in range(H.dim) for c in coords]


# -- twist cocycles and twisted transition data ------------------------------


def hom_lam_module(ext, j, i):
    """Hom(Lambda^j I, Lambda^i I) as a based module with (src, tgt) labels,
    built once per (j, i) and kept on the extension."""
    M = ext._hom_lam.get((j, i))
    if M is None:
        M = ext._hom_lam[(j, i)] = hom_module(ext.lam_i(j), ext.lam_i(i))
    return M


def hom_value_to_linmap(ext, j, i, terms):
    cols = {}
    for (a, b), c in terms:
        cols.setdefault(a, []).append((b, c))
    tgt = ext.lam_i(i)
    return LinMap(ext.lam_i(j), tgt, {a: tgt.element(pairs) for a, pairs in cols.items()})


class TwistCocycle:
    """Level-n twist data: a Hom(Lambda^n I, Lambda^{n+1} I)-valued 1-cocycle."""

    def __init__(self, ext, nerve, level, cochain):
        self.ext = ext
        self.nerve = nerve
        self.level = level
        if cochain_type(nerve, cochain) != (1, hom_lam_module(ext, level, level + 1)):
            raise StructuralError("twist data must be a Hom-valued 1-cochain")
        self.cochain = cochain
        if not is_cocycle(nerve, cochain):
            raise StructuralError("twist data violates the cocycle condition")

    @classmethod
    def zero(cls, ext, nerve, level):
        return cls(ext, nerve, level, cochain_module(nerve, hom_lam_module(ext, level, level + 1), 1).zero())


class TwistFamily:
    """Twist cocycles for levels 0..r-1 (the top term is never twisted);
    wedge_data is the I-valued 1-cochains of a wedge-type family, else None."""

    def __init__(self, ext, nerve, cocycles):
        self.ext = ext
        self.nerve = nerve
        self.cocycles = tuple(cocycles)
        if len(self.cocycles) != ext.rank:
            raise StructuralError("need one twist level per 0 <= n < rank")
        for n, c in enumerate(self.cocycles):
            if c.level != n:
                raise StructuralError("twist levels out of order")
        self.wedge_data = None
        self._transitions = {}

    @classmethod
    def zero(cls, ext, nerve):
        return cls(ext, nerve, [TwistCocycle.zero(ext, nerve, n) for n in range(ext.rank)])

    @classmethod
    def from_wedge_cochains(cls, ext, nerve, one_cochains):
        """Wedge-type twists: level n is the image of the n-th I-valued 1-cocycle."""
        images = (l_operator(ext, nerve, n + 1, n, c) for n, c in enumerate(one_cochains))
        fam = cls(ext, nerve, [TwistCocycle(ext, nerve, n, w) for n, w in enumerate(images)])
        fam.wedge_data = list(one_cochains)
        return fam

    def transition_columns(self, n, a, b):
        """Chart change b -> a on Lambda^{n+1} B: (i, j) |-> (i - c_{ab}(j), j),
        as sparse rational columns over ext.flat(n + 1), built once per (n, a, b);
        callers must not change them.  They compose along triangles because
        each c is a cocycle (TwistCocycle)."""
        key = (n, a, b)
        if key not in self._transitions:
            self._transitions[key] = self._build_transition(n, a, b)
        return self._transitions[key]

    def _build_transition(self, n, a, b):
        """The identity plus -c_ab on the j -> i block: the column of the pair
        (('j', L), mono) also holds -(mono c_ab(L)) on the i-part."""
        basis = self.ext.flat(n + 1)
        index = basis.index
        cols = [{i: 1} for i in range(basis.dim)]
        if n < self.ext.rank:
            algebra = self.ext.algebra
            unit = algebra.constant_exps
            # {(L, K): coefficient of K in c_ab(L)}
            for (L, K), c in cochain_value(self.nerve, self.cocycles[n].cochain, (a, b)).data.items():
                for mono in algebra.monomials:
                    col = cols[index[(("j", L), mono)]]
                    shifted = c if mono == unit else algebra.monomial(mono) * c
                    for e, v in shifted.terms.items():
                        col[index[(("i", K), e)]] = -v
        return cols


# -- the Cech totalization of a twisted complex ------------------------------


def twisted_total_complex(ext, twists):
    """Tot of the Cech double complex of the twisted resolution complex.

    Column -n holds Lambda^{n+1} B, twisted by the level-n transitions,
    with vertical differential n d_{n+1}.
    """
    r = ext.rank
    return cech_total_complex(
        twists.nerve,
        {-n: ext.lam_b(n + 1) for n in range(r + 1)},
        {-n: ext.hat_d(n) for n in range(1, r + 1)},
        lambda j, a, b: twists.transition_columns(-j, a, b),
    )


# -- the comparison morphism --------------------------------------------------


def eta_recursion(ext, nerve, c_cochains, d_cochains):
    """The inductive cochains eta_{i,j} built from I-valued 1-cochains:

    eta_{i,i} = 1;
    eta_{i+1,j} = (1/(i+1)) [ j eta_{i,j-1} + (-1)^{i-j} (c_j - d_i) ^ eta_{i,j} ]

    for 0 <= j <= i.  The j = 0 instance keeps the 1/(i+1) prefactor of the
    general line: the level-2 Cech chain-map equations force it (on nerves
    of depth 1 the affected entries vanish, so both normalizations look
    consistent there; see the repository ledger).  Fed with cocycle
    representatives, the same formulas give the class-level zetas.
    """
    r = ext.rank
    etas = {}
    unit = cochain_module(nerve, ext.lam_i(0), 0).element(((s, ()), 1) for s in nerve.simplices_of_dim(0))
    for i in range(r + 1):
        etas[(i, i)] = unit

    for i in range(r):
        base = etas[(i, 0)]
        diff = c_cochains[0] - d_cochains[i]
        nxt = cochain_wedge(nerve, MERGES, diff, base, ext.lam_i(i + 1)).scale(Fraction((-1) ** i, i + 1))
        etas[(i + 1, 0)] = nxt
        for j in range(1, i + 1):
            term1 = etas[(i, j - 1)]
            diffj = c_cochains[j] - d_cochains[i]
            term2 = cochain_wedge(nerve, MERGES, diffj, etas[(i, j)], ext.lam_i(i + 1 - j)).scale((-1) ** (i - j))
            etas[(i + 1, j)] = (term1.scale(j) + term2).scale(Fraction(1, i + 1))
    return etas


def _component_columns(ext, k_src, k_tgt, images):
    """Sparse columns over ext.flat(k_src) -> ext.flat(k_tgt) of the
    algebra-linear map sending each label lab to the sum of sign * c * tlab
    over the (tlab, sign, c) terms of images[lab] (distinct target labels,
    Poly coefficients, signs +-1; a missing label maps to zero): the column
    of the pair (lab, mono) is the flattening of mono times that image, as
    flatten_map defines it."""
    algebra = ext.algebra
    unit = algebra.constant_exps
    index = ext.flat(k_tgt).index
    cols = []
    for lab, mono in ext.flat(k_src).pairs:
        col = {}
        for tlab, sign, c in images.get(lab, ()):
            if mono != unit:
                c = algebra.monomial(mono) * c
            for e, v in c.terms.items():
                col[index[(tlab, e)]] = v if sign > 0 else -v
        cols.append(col)
    return cols


def build_t_wedge(ext, nerve, c_cochains, d_cochains):
    """The comparison morphism for wedge-type twists:

    S_{-n,l,s}(i, j) = ((-1)^l eta_{n+l,n,s} ^ i, eta_{n+l,n,s} ^ j),

    each column written straight from eta's value and the merge table.
    """
    r = ext.rank
    etas = eta_recursion(ext, nerve, c_cochains, d_cochains)
    comps = {}
    for n in range(r + 1):
        labels = ext.lam_b(n + 1).labels
        for l in range(nerve.depth + 1):
            if n + l > r:
                continue
            i_sign = (-1) ** l
            # a simplex where eta vanishes has a zero component
            for s, ev in _by_simplex(etas[(n + l, n)]).items():
                images = {
                    (tag, K): [
                        ((tag, m[1]), m[0] * i_sign if tag == "i" else m[0], c)
                        for E, c in ev
                        if (m := MERGES[E, K]) is not None
                    ]
                    for tag, K in labels
                }
                comps[(n, l, s)] = _component_columns(ext, n + 1, n + l + 1, images)
    return comps


def build_t_last_level(ext, nerve, lam, mu):
    """The comparison morphism when only the last twist level differs:

    S_{-n,0} = id; S_{-(r-1),1,(a,b)} = (0, (1/r)(c_{r-1} - d_{r-1})_{ab}(j)).
    """
    r = ext.rank
    for n in range(r - 1):
        if not (lam.cocycles[n].cochain - mu.cocycles[n].cochain).is_zero():
            raise UnsupportedTwistError("lower twist levels must agree")
    comps = {}
    for n in range(r + 1):
        dim = ext.flat(n + 1).dim
        for s in nerve.simplices_of_dim(0):
            comps[(n, 0, s)] = [{i: 1} for i in range(dim)]
    diff = (lam.cocycles[r - 1].cochain - mu.cocycles[r - 1].cochain).scale(Fraction(1, r))
    # an edge where the difference vanishes has a zero component
    for s, dv in _by_simplex(diff).items():
        images = {}
        for (K, U), c in dv:
            images.setdefault(("j", K), []).append((("j", U), 1, c))
        comps[(r - 1, 1, s)] = _component_columns(ext, r, r + 1, images)
    return comps


def t_chain_check(ext, lam, mu, T):
    """The chain-map equations of the comparison morphism.

    For every degree n, Cech level l and l-simplex s:
        delta-part + (-1)^l (n+l) d_{n+l+1} o T_{n,l,s} = n T_{n-1,l,s} o d_{n+1}
    where the delta-part twists the leading face through the mu transitions
    on the target and the lam transitions on the source (n = 0 has zero
    right side).  This is the computation the construction rests on.

    T's components are sparse rational columns (``rational``) over
    ext.flat(n + 1) -> ext.flat(n + l + 1).  Every equation is linear in T
    alone: the chart changes and hat_d enter as fixed factors, and each
    piece holds one component of T.  So T is a chain map exactly when N T
    is, for any integer N != 0, and the equations are checked on N T, N
    the least common denominator of all of T's entries, as int columns
    (rational.over_common_denominator) that live for this call only; T
    itself is left as it is.  Each hat_d is flattened once per call from
    its stored columns, and each chart change is read as the columns its
    family builds once; both are int columns for integral twist data, so
    the products then stay in int.  Each equation is a signed sum of
    products of these columns, taken one source column at a time, and any
    nonzero entry fails it.  A component with the wrong number of columns,
    or a family over another extension, is a StructuralError.
    """
    nerve = lam.nerve
    r = ext.rank
    for key, cols in T.items():
        want = ext.flat(key[0] + 1).dim
        if len(cols) != want:
            raise StructuralError(f"component {key} of the comparison morphism has {len(cols)} columns, not {want}")
    for fam in (lam, mu):
        if fam.ext.lam_b(1) != ext.lam_b(1):
            raise StructuralError("a twist family over another extension")
    d = [flatten_map(ext.hat_d(k), ext.flat(k + 1), ext.flat(k)) for k in range(r + 1)]
    # N T as int columns, component by component
    ints = iter(ql.over_common_denominator([col for cols in T.values() for col in cols])[0])
    T = {key: [next(ints) for _ in cols] for key, cols in T.items()}

    compose, add = ql.compose_columns, ql.add_scaled
    for n in range(r + 1):
        for l in range(nerve.depth + 1):
            if n - 1 + l > r and n > 0:
                continue
            for s in nerve.simplices_of_dim(l):
                # (sign, a, b): the signed sum of the products a o b must
                # vanish; a is None where the piece is b alone
                pieces = []
                if l >= 1:
                    for k in range(l + 1):
                        comp = T.get((n, l - 1, s[:k] + s[k + 1 :]))
                        if comp is None:
                            continue
                        if k == 0:
                            conv_out = mu.transition_columns(n + l - 1, s[0], s[1])
                            conv_in = lam.transition_columns(n, s[1], s[0])
                            pieces.append((1, conv_out, compose(comp, conv_in)))
                        else:
                            pieces.append(((-1) ** k, None, comp))
                if (comp := T.get((n, l, s))) is not None:
                    pieces.append(((-1) ** l, d[n + l], comp))  # (n+l) d_{n+l+1}
                if n >= 1 and (comp := T.get((n - 1, l, s))) is not None:
                    pieces.append((-1, comp, d[n]))
                for j in range(ext.flat(n + 1).dim):
                    acc = {}
                    for sign, a, b in pieces:
                        if a is None:
                            add(acc, sign, b[j])
                        else:
                            for i, c in b[j].items():
                                add(acc, sign * c, a[i])
                    if acc:
                        return False
    return True


def t_augmentation_check(ext, T, nerve):
    """The comparison morphism covers the identity after augmentation: the
    ('j', L) entries of each degree-0 component's column at a label are
    those of the label itself."""
    basis = ext.flat(1)
    unit = ext.algebra.constant_exps
    for s in nerve.simplices_of_dim(0):
        cols = T.get((0, 0, s))
        for lab in ext.lam_b(1).labels:
            i = basis.index[(lab, unit)]
            got = {} if cols is None else {t: c for t, c in cols[i].items() if basis.pairs[t][0][0] == "j"}
            if got != ({i: 1} if lab[0] == "j" else {}):
                return False
    return True


# -- the comparison matrix ----------------------------------------------------


class DeltaMatrix:
    """Lower-triangular matrix of Hom-valued cohomology classes.

    entries[(i, j)] is a Hom(Lambda^j I, Lambda^i I)-valued (i-j)-cocycle
    representing the class; a missing diagonal entry is the identity and a
    missing entry below it is zero.  disagreements compares two matrices.
    """

    def __init__(self, ext, nerve, entries):
        self.ext = ext
        self.nerve = nerve
        self.entries = entries

    def entry(self, i, j):
        got = self.entries.get((i, j))
        if got is not None:
            return got
        if i == j:
            return identity_hom_cochain(self.ext, self.nerve, i)
        return cochain_module(self.nerve, hom_lam_module(self.ext, j, i), i - j).zero()

    def diagonal_is_identity(self):
        return all(
            (self.entry(i, i) - identity_hom_cochain(self.ext, self.nerve, i)).is_zero()
            for i in range(self.ext.rank + 1)
        )

    def disagreements(self, other):
        """The entries (i, j), j <= i and i - j at most the nerve's depth, in
        row order, whose classes differ from other's.  A diagonal entry is
        a 0-cochain and there are no (-1)-cochains, so its class is the
        cochain itself and it is compared exactly; the entries below it by
        cohomologous.  A list, not a generator, so that the comparisons run
        inside this call."""
        depth = self.nerve.depth
        return [
            (i, j)
            for i in range(self.ext.rank + 1)
            for j in range(max(0, i - depth), i + 1)
            if not self._same_class(other, i, j)
        ]

    def _same_class(self, other, i, j):
        x, y = self.entry(i, j), other.entry(i, j)
        if i == j:
            return (x - y).is_zero()
        return cohomologous(self.nerve, x, y)


def extract_delta(ext, nerve, T):
    """Read the comparison matrix off the reduced comparison morphism.

    The (i, j) entry is the j-part action of T_{-j, i-j}: an (i-j)-cochain
    valued in Hom(Lambda^j I, Lambda^i I), read off the ('j', L) entries of
    the component's columns at the pairs (('j', K), 1) through the target
    basis's pairs; each entry is checked to be a cocycle for the untwisted
    differential (the twists die on the reduced associated-graded pieces) on
    the (label, monomial) slices it collects, as is_cocycle does.
    """
    r = ext.rank
    algebra = ext.algebra
    unit = algebra.constant_exps
    C = cech_complex(nerve, SCALARS)
    entries = {}
    for j in range(r + 1):
        index = ext.flat(j + 1).index
        for i in range(j, r + 1):
            l = i - j
            if l > nerve.depth:
                continue
            pairs = ext.flat(i + 1).pairs
            terms, slices = [], {}
            for s in nerve.simplices_of_dim(l):
                cols = T.get((j, l, s))
                if cols is None:
                    continue
                row = C.flat(l).index[((s, ()), ())]
                for K in ext.lam_i(j).labels:
                    for t, c in cols[index[(("j", K), unit)]].items():
                        (tag, L), e = pairs[t]
                        if tag == "j":
                            terms.append(((s, (K, L)), c if e == unit else algebra.monomial(e, c)))
                            slices.setdefault(((K, L), e), {})[row] = c
            if any(ql.compose_columns(C.qdiff(l), list(slices.values()))):
                raise StructuralError(f"extracted entry ({i},{j}) is not a cocycle")
            entries[(i, j)] = cochain_module(nerve, hom_lam_module(ext, j, i), l).element(terms)
    return DeltaMatrix(ext, nerve, entries)


def delta_matrix(ext, nerve, lam, mu, shape):
    """The comparison matrix between two twist families.

    shape is 'wedge' (both families built by from_wedge_cochains, so
    their wedge_data is set) or 'last-level' (families agreeing below the
    top twist level).  Anything else is reported as unsupported, not
    silently computed.
    """
    if shape == "wedge":
        if lam.wedge_data is None or mu.wedge_data is None:
            raise UnsupportedTwistError("a wedge comparison needs families built from wedge cochains")
        T = build_t_wedge(ext, nerve, lam.wedge_data, mu.wedge_data)
    elif shape == "last-level":
        T = build_t_last_level(ext, nerve, lam, mu)
    else:
        raise UnsupportedTwistError(f"no comparison construction for shape {shape!r}")
    if not t_chain_check(ext, lam, mu, T):
        raise StructuralError("comparison morphism is not a chain map")
    if not t_augmentation_check(ext, T, nerve):
        raise StructuralError("comparison morphism does not cover the identity")
    return extract_delta(ext, nerve, T)


# -- operators on classes -----------------------------------------------------


def l_operator(ext, nerve, i, j, v_cocycle):
    """The Hom-valued cocycle x |-> v ^ x of wedging with a class.

    Its data is written directly from v's and the merge table: the term of
    (E, c) on a simplex s at a label K of Lambda^j I is +-c at the label
    (s, (K, E u K)), which determines E, so no two terms share a label and
    nothing is added up.  The coefficient is c itself or one -c shared by
    the labels of (s, E).  Labels run simplex by simplex, in the order the
    simplices first occur in v, then by E, then by K.  v must be a
    Lambda^{i-j} I-valued (i-j)-cochain.
    """
    if cochain_type(nerve, v_cocycle) != (i - j, ext.lam_i(i - j)):
        raise StructuralError("wedging needs a Lambda^{i-j} I-valued (i-j)-cochain")
    labels = ext.lam_i(j).labels
    data = {}
    for s, terms in _by_simplex(v_cocycle).items():
        for E, c in terms:
            neg = None
            for K in labels:
                m = MERGES[E, K]
                if m is None:
                    continue
                if m[0] < 0:
                    if neg is None:
                        neg = -c
                    data[(s, (K, m[1]))] = neg
                else:
                    data[(s, (K, m[1]))] = c
    return _vec(cochain_module(nerve, hom_lam_module(ext, j, i), i - j), data)


def t_operator(ext, nerve, k, p, m, hom_cochain):
    """The translated Hom-valued cochain: on each simplex the translation
    t^m_{k,p} of the value, read as a map Lambda^p I -> Lambda^k I."""
    l, module = cochain_type(nerve, hom_cochain)
    if module != hom_lam_module(ext, p, k):
        raise StructuralError("translation: wrong Hom type")
    terms = []
    for s, val in _by_simplex(hom_cochain).items():
        t = ext.exterior.translate(k, p, m, hom_value_to_linmap(ext, p, k, val))
        terms += [((s, (S, T)), c) for S, col in t.cols.items() for T, c in col.data.items()]
    return cochain_module(nerve, hom_lam_module(ext, p + m, k + m), l).element(terms)


# -- class-level recursion and comparisons -------------------------------------


def canonical_representative(nerve, x):
    """A representative of the class of a cocycle built from the homology basis."""
    l, module = cochain_type(nerve, x)
    return combine_representatives(nerve, l, module, class_coordinates(nerve, x))


def identity_hom_cochain(ext, nerve, i):
    return cochain_module(nerve, hom_lam_module(ext, i, i), 0).element(
        ((s, (K, K)), 1) for s in nerve.simplices_of_dim(0) for K in ext.lam_i(i).labels
    )


def delta_product(ext, nerve, A, B):
    """Entrywise Yoneda product of two triangular Hom-valued matrices."""
    r = ext.rank
    entries = {}
    for i in range(r + 1):
        for j in range(i + 1):
            if i - j > nerve.depth:
                continue
            hom = hom_lam_module(ext, j, i)
            acc = cochain_module(nerve, hom, i - j).zero()
            for k in range(j, i + 1):
                a = A.entry(i, k)
                b = B.entry(k, j)
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + yoneda_compose(nerve, a, b, hom)
            entries[(i, j)] = acc
    return DeltaMatrix(ext, nerve, entries)


# -- the curvature-difference twist --------------------------------------------


def _linmap_inverse(m):
    sb, tb = QBasis(m.source), QBasis(m.target)
    inv = ql.inverse(flatten_map(m, sb, tb), tb.dim)
    if inv is None:
        raise StructuralError("map is not invertible")

    def fn(v):
        (col,) = ql.compose_columns(inv, [tb.flatten(v)])
        return sb.unflatten(col)

    return LinMap.from_function(m.target, m.source, fn)


def atiyah_twist(ext, kahler, nerve, transitions_g, nablas, chi=None, level=1):
    """The curvature-difference 1-cochain for level-p twists, and its cocycle law.

    transitions_g maps ordered edge pairs to module maps of I (b -> a
    charts); nablas maps vertices to connections.  Returns the dict with
    the difference cochain M, whether it satisfies the (transition-twisted)
    cocycle law, and for trivial transitions and a supplied derivation the
    induced twist cocycle plus the chart-conjugation identity.
    """
    p = level
    g_maps = {}
    for (a, b), g in transitions_g.items():
        g_maps[(a, b)] = exterior_power_map(g, ext.lam_i(p), ext.lam_i(p))

    def through_g(a, b, w):
        """g_{ab} applied to the module slot of w in Om^1 (x) Lambda^p I."""
        terms = []
        for ((i,), K), c in w.data.items():
            img = g_maps[(a, b)].apply(ext.lam_i(p).basis_vec(K, c))
            terms += [(((i,), K2), cc) for K2, cc in img.data.items()]
        return nablas[a].form_module(p).element(terms)

    def m_ab(a, b):
        ga = g_maps.get((a, b))
        nb = nablas[b]
        na = nablas[a]

        def fn(v):
            if ga is None:
                return na.lam_apply(p, v) - nb.lam_apply(p, v)
            inv = _linmap_inverse(g_maps[(a, b)])
            return na.lam_apply(p, v) - through_g(a, b, nb.lam_apply(p, inv.apply(v)))

        return fn

    results = {}
    cocycle_ok = True
    for s in nerve.simplices_of_dim(2):
        a, b, c = s
        for K in ext.lam_i(p).labels:
            v = ext.lam_i(p).basis_vec(K)
            lhs = m_ab(a, c)(v)
            mid = m_ab(b, c)(v)
            # transport the (b,c) difference through g_{ab}
            if (a, b) in g_maps:
                inv = _linmap_inverse(g_maps[(a, b)])
                mid = through_g(a, b, m_ab(b, c)(inv.apply(v)))
            rhs = m_ab(a, b)(v) + mid
            if not (lhs - rhs).is_zero():
                cocycle_ok = False
    results["difference_cocycle"] = cocycle_ok
    if chi is None or transitions_g:
        return results
    # trivial transitions: the induced twist cocycle and the conjugation law
    terms = []
    for s in nerve.simplices_of_dim(1):
        a, b = s
        for K in ext.lam_i(p).labels:
            img = chi.chi_hat_wedge(p, m_ab(a, b)(ext.lam_i(p).basis_vec(K)))
            terms += [((s, (K, K2)), c) for K2, c in img.data.items()]
    cmap = cochain_module(nerve, hom_lam_module(ext, p, p + 1), 1).element(terms)
    twist = TwistCocycle(ext, nerve, p, cmap)
    results["twist"] = twist

    B = ext.lam_b(p + 1)
    basis = ext.flat(p + 1)

    def phi_vertex(v):
        def fn(x):
            i_part, j_part = ext.split(x)
            corr = chi.chi_hat_wedge(p, nablas[v].lam_apply(p, j_part))
            return ext.join(p + 1, i_part - corr, j_part)

        return flatten_map(LinMap.from_function(B, B, fn), basis, basis)

    levels = [TwistCocycle.zero(ext, nerve, n) for n in range(ext.rank)]
    levels[p] = twist
    fam = TwistFamily(ext, nerve, levels)
    phis = {v: phi_vertex(v) for v in nerve.vertices}
    conj_ok = True
    for a, b in nerve.simplices_of_dim(1):
        inv = ql.inverse(phis[b], basis.dim)
        if inv is None:
            raise StructuralError("map is not invertible")
        if ql.compose_columns(phis[a], inv) != fam.transition_columns(p, a, b):
            conj_ok = False
    results["conjugation"] = conj_ok
    return results


def codim2_matrix(ext, kahler, nerve, nablas, chi):
    """The 3x3 comparison matrix for a rank-2 conormal with a derivation twist.

    Level 0 never twists (all connections restrict to the same derivative
    on functions), so only the top level differs and the last-level
    construction applies; the (2,1) entry must be half the image of the
    curvature-difference cocycle under the derivation, the rest diagonal;
    theta_entry and others_zero read one disagreements call.
    """
    if ext.rank != 2:
        raise StructuralError("this comparison is specific to rank 2")
    at = atiyah_twist(ext, kahler, nerve, {}, nablas, chi=chi, level=1)
    if not at["difference_cocycle"] or not at["conjugation"]:
        raise StructuralError("curvature difference data is inconsistent")
    twist = at["twist"]
    lam = TwistFamily(ext, nerve, [TwistCocycle.zero(ext, nerve, 0), twist])
    mu = TwistFamily.zero(ext, nerve)
    delta = delta_matrix(ext, nerve, lam, mu, "last-level")
    theta = twist.cochain.scale(Fraction(1, 2))
    wrong = delta.disagreements(DeltaMatrix(ext, nerve, {(2, 1): theta}))
    checks = {
        "diagonal": delta.diagonal_is_identity(),
        "theta_entry": (2, 1) not in wrong,
        "others_zero": (1, 0) not in wrong and (2, 0) not in wrong,
    }
    return delta, theta, checks


# -- the divisor class ---------------------------------------------------------


def divisor_class(nerve, delta_cochain):
    """The class of a rank-one cycle twisted by a line-bundle datum.

    delta_cochain is an I-valued 1-cocycle on the nerve (rank 1).  Chases
    the three-column comparison of two-term complexes and returns the pair
    (degree-0 coefficient, representative 1-cochain of the degree-1 part);
    the theorem under test is that these equal (1, [delta]).
    """
    algebra = CoeffAlgebra.rationals()
    ext = TrivialExtension(algebra, 1)
    if cochain_type(nerve, delta_cochain) != (1, ext.lam_i(1)):
        raise StructuralError("divisor data must be an I-valued 1-cochain")
    if not is_cocycle(nerve, delta_cochain):
        raise StructuralError("divisor data must be a cocycle")
    N = ext.lam_i(1)
    O = ext.lam_i(0)
    B = ext.lam_b(1)
    OO = BasedModule(algebra, ("o1", "o2"), "O+O")
    unit = ("j", ())
    # s': the inclusion of N* in L
    s_prime = LinMap(N, B, {K: B.basis_vec(("i", K)) for K in N.labels})

    # W1: [N* -> B] with x |-> -(x, 0); trivial transitions
    W1 = cech_total_complex(nerve, {-1: N, 0: B}, {-1: s_prime.scale(-1)})

    # W2: [L_{-delta} -> O + O] with (i,a) |-> (-a, -a); L transitions twist
    def w2_tr(j, a, b):
        if j == 0:
            return ql.identity(OO.rank)
        dval = cochain_value(nerve, delta_cochain, (a, b))
        image = B.element([(unit, 1)] + [(("i", (k,)), -c) for (k,), c in dval.data.items()])
        cols = ql.identity(ext.flat(1).dim)
        cols[ext.flat(1).index[(unit, algebra.constant_exps)]] = ext.flat(1).flatten(image)
        return cols

    w2_v = LinMap(B, OO, {unit: OO.basis_vec("o1", -1) + OO.basis_vec("o2", -1)})
    W2 = cech_total_complex(nerve, {-1: B, 0: OO}, {-1: w2_v}, w2_tr)

    # W3: [N* -> O] with the zero differential
    W3 = cech_total_complex(nerve, {-1: N, 0: O}, {})

    def column_map(src, tgt, maps):
        """The map of totals applying the chart-independent maps[j] on column j."""

        def on_degree(n):
            T = tgt.module(n)

            def fn(v):
                terms = []
                for ((l, j), (s, lab)), c in v.data.items():
                    img = maps[j].apply(maps[j].source.basis_vec(lab, c))
                    terms += [(((l, j), (s, lab2)), c2) for lab2, c2 in img.data.items()]
                return T.element(terms)

            return fn

        degrees = sorted(set(src.degrees()) | set(tgt.degrees()))
        return ComplexMap.from_functions(src, tgt, {n: on_degree(n) for n in degrees})

    # G1: W1 -> W2; bottom: s'; top: (t, 0)
    G1 = column_map(W1, W2, {-1: s_prime, 0: LinMap(B, OO, {unit: OO.basis_vec("o1")})})
    if not G1.is_chain_map():
        raise StructuralError("left comparison is not a chain map")

    # G2: W3 -> W2; bottom: s'; top: (0, id)
    G2 = column_map(W3, W2, {-1: s_prime, 0: LinMap(O, OO, {K: OO.basis_vec("o2") for K in O.labels})})
    if not G2.is_chain_map():
        raise StructuralError("right comparison is not a chain map")

    # the unit of H^0(W1): the 0-cochain with value (0, -1) in the top term
    w = W1.module(0).element((((0, 0), (s, unit)), -1) for s in nerve.simplices_of_dim(0))
    if not W1.diff(0).apply(w).is_zero():
        raise StructuralError("unit section is not a cocycle")
    v2 = W2.flat(0).flatten(G1.apply(0, w))
    # solve G2(u) + d(h) = v2
    sol = ql.Solver(G2.cols[0] + W2.qdiff(-1), W2.flat(0).dim).solve(v2)
    if sol is None:
        raise StructuralError("comparison system is not solvable")
    u = [sol.get(k, ql.ZERO) for k in range(W3.flat(0).dim)]
    # split u into the degree-0 coefficient and the degree-1 cochain
    q1 = cochain_module(nerve, N, 1).element(
        ((s, lab), algebra.monomial(mono) * val)
        for val, (((l, j), (s, lab)), mono) in zip(u, W3.flat(0).pairs)
        if val and j == -1
    )
    # the degree-0 part must be a constant cocycle
    per_vertex = {}
    for val, (((l, j), (s, lab)), mono) in zip(u, W3.flat(0).pairs):
        if j == 0:
            per_vertex[s] = per_vertex.get(s, Fraction(0)) + val
    consts = set(per_vertex.values())
    if len(consts) > 1:
        raise StructuralError("degree-0 part of the class is not constant")
    q0 = consts.pop() if consts else Fraction(0)
    return q0, q1


# -- the comparison recursion probe ---------------------------------------------


def wedge_part_of_level0(ext, nerve, hom_cochain):
    """Recover the vector-valued cochain underlying a level-0 twist."""
    return cochain_module(nerve, ext.lam_i(1), 1).element(
        ((s, K2), c) for (s, (K, K2)), c in hom_cochain.data.items() if K == ()
    )


def conjecture_recursion(ext, nerve, lam, mu, corrected=False):
    """The inductive candidate for the comparison matrix, at cocycle level.

    Built from the twist data alone with the translation operator and the
    cochain-level Yoneda product:

      D_{i,i} = id
      D_{i+1,0} = 1/(i+1) (-1)^i (l(lam_0) - mu_i) * D_{i,0}
      D_{i+1,j} = 1/(i+1) [ j t^1(D_{i,j-1})
                            + (-1)^{i-j} (t^{i-j}(lam_j) - mu_i) * D_{i,j} ]

    (the translation superscript on the twist is read as i-j, the unique
    type-correct choice, and the j = 0 line keeps the 1/(i+1), matching
    the corrected base recursion; see ledger).

    On wedge-type data the Yoneda sign rule turns the composed term into
    (+1)^{i-j} times the cup of the underlying classes, whereas the proved
    recursion carries (-1)^{i-j}: the two differ whenever classes with odd
    degree gap have nonvanishing cups.  With corrected=True the composed
    term is multiplied by the extra (-1)^{i-j} that restores agreement;
    the probe reports both readings.
    """
    r = ext.rank
    out = {}
    for i in range(r + 1):
        out[(i, i)] = identity_hom_cochain(ext, nerve, i)
    lam0_vec = wedge_part_of_level0(ext, nerve, lam.cocycles[0].cochain)
    for i in range(r):
        left = l_operator(ext, nerve, i + 1, i, lam0_vec) - mu.cocycles[i].cochain
        sgn0 = Fraction((-1) ** i, i + 1)
        if corrected:
            sgn0 *= (-1) ** i  # degree gap i at the (i+1, 0) entry
        out[(i + 1, 0)] = yoneda_compose(nerve, left, out[(i, 0)], hom_lam_module(ext, 0, i + 1)).scale(sgn0)
        for j in range(1, i + 1):
            term1 = t_operator(ext, nerve, i, j - 1, 1, out[(i, j - 1)]).scale(j)
            shifted = t_operator(ext, nerve, j + 1, j, i - j, lam.cocycles[j].cochain)
            diff = shifted - mu.cocycles[i].cochain
            sgn = (-1) ** (i - j)
            if corrected:
                sgn *= (-1) ** (i - j)
            term2 = yoneda_compose(nerve, diff, out[(i, j)], hom_lam_module(ext, j, i + 1)).scale(sgn)
            out[(i + 1, j)] = (term1 + term2).scale(Fraction(1, i + 1))
    return DeltaMatrix(ext, nerve, out)


def conjecture_probe(ext, nerve, lam, mu, shape=None):
    """Run the recursion and compare with the comparison matrix where a
    construction exists.  Disagreement is data; the report never raises
    for it.  Both the literal reading and the cup-sign-corrected variant
    are compared when a reference exists, each by one disagreements call
    that sets the statuses of the entries it reads; the corrected variant
    is computed only then."""
    report = {"entries": {}, "shape": shape}
    candidate = conjecture_recursion(ext, nerve, lam, mu)
    for (i, j), entry in candidate.entries.items():
        status = {"cocycle": is_cocycle(nerve, entry)}
        report["entries"][f"{i},{j}"] = status
    try:
        reference = delta_matrix(ext, nerve, lam, mu, shape)
    except UnsupportedTwistError:
        reference = None
    if reference is None:
        for key in report["entries"]:
            report["entries"][key]["status"] = "untestable"
        report["agrees"] = None
        report["agrees_corrected"] = None
        return report
    wrong = candidate.disagreements(reference)
    corrected = conjecture_recursion(ext, nerve, lam, mu, corrected=True)
    wrong_corr = corrected.disagreements(reference)
    # the reference stores exactly the entries a comparison reads
    for i, j in reference.entries:
        rec = report["entries"][f"{i},{j}"]
        rec["status"] = "disagree" if (i, j) in wrong else "agree"
        rec["corrected_status"] = "disagree" if (i, j) in wrong_corr else "agree"
    report["agrees"] = not wrong
    report["agrees_corrected"] = not wrong_corr
    return report


# -- seeded random twist data -----------------------------------------------------


def random_wedge_cochains(ext, nerve, rng):
    """Seeded wedge-type twist data: multiples of a degree-1 class plus noise."""
    n = class_count(nerve, 1, ext.lam_i(1)) if nerve.depth else 0
    cochains = []
    for _ in range(ext.rank):
        c = combine_representatives(nerve, 1, ext.lam_i(1), [rng.randint(-2, 2) for _ in range(n)])
        noise = cochain_module(nerve, ext.lam_i(1), 0).element(
            ((s, (k,)), rng.randint(-2, 2)) for s in nerve.simplices_of_dim(0) for k in range(ext.rank)
        )
        cochains.append(c + cech_delta(nerve, noise))
    return cochains


def random_hom_twist(ext, nerve, level, rng):
    """Seeded Hom-valued twist cocycle: a class representative plus noise."""
    hom = hom_lam_module(ext, level, level + 1)
    n = class_count(nerve, 1, hom) if nerve.depth else 0
    c = combine_representatives(nerve, 1, hom, [rng.randint(-2, 2) for _ in range(n)])
    noise = cochain_module(nerve, hom, 0).element(
        ((s, lab), rng.randint(-1, 1)) for s in nerve.simplices_of_dim(0) for lab in hom.labels
    )
    c = c + cech_delta(nerve, noise)
    return TwistCocycle(ext, nerve, level, c)

