"""Bounded cochain complexes, maps, homology, Hom/tensor complexes.

Conventions, fixed once for the whole package:

* cohomological grading; every differential has degree +1;
* Hom complexes: (df) = d o f - (-1)^{|f|} f o d;
* shifts C[k] reindex only (C[k]^n = C^{n+k}, same differential); where a
  sign-twisted differential is wanted it is written out explicitly;
* totalization of a bicomplex with commuting squares: on the (i, j) spot
  the total differential is d_h + (-1)^i d_v.

All rank computations happen on flattened rational matrices.  A complex
may carry a grade window w: its flattened space is the quotient spanned
by basis vectors of total grade <= w (label grade plus monomial degree).
A map of complexes (ComplexMap) stores each degree as sparse columns over
the flattened bases and is applied, composed and chain-checked on them;
its dense matrix exists only through ComplexMap.qmap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from .coeff import Poly
from .modules import BasedModule, LinMap, QBasis, StructuralError, Vec, flatten_map
from . import rational as ql


def zero_module(algebra):
    return BasedModule(algebra, (), name="0")


class CochainComplex:
    """Finite collection of based modules with degree +1 differentials."""

    def __init__(self, algebra, modules, diffs, window=None, check=True):
        self.algebra = algebra
        self.modules = dict(modules)
        self.diffs = {}
        self.window = window
        self._flat = {}
        self._qdiff = {}
        self._qsolver = {}
        self._homology = {}
        for n, d in diffs.items():
            if d is None or d.is_zero():
                continue
            if d.source != self.modules.get(n) or d.target != self.modules.get(n + 1):
                raise StructuralError(f"differential at degree {n} has wrong source/target")
            self.diffs[n] = d
        if check:
            for n, d in self.diffs.items():
                nxt = self.diffs.get(n + 1)
                if nxt is not None and not nxt.compose(d).is_zero():
                    raise ValueError(f"d o d != 0 at degree {n}")

    def degrees(self):
        return sorted(self.modules)

    def module(self, n):
        return self.modules.get(n) or zero_module(self.algebra)

    def diff(self, n):
        d = self.diffs.get(n)
        if d is not None:
            return d
        return LinMap.zero(self.module(n), self.module(n + 1))

    def flat(self, n):
        if n not in self._flat:
            self._flat[n] = QBasis(self.module(n), self.window)
        return self._flat[n]

    def qdiff(self, n):
        if n not in self._qdiff:
            self._qdiff[n] = flatten_map(self.diff(n), self.flat(n), self.flat(n + 1))
        return self._qdiff[n]

    def qsolver(self, n):
        """The exact solver for the flattened differential out of degree n."""
        if n not in self._qsolver:
            self._qsolver[n] = ql.Solver(self.qdiff(n))
        return self._qsolver[n]

    def shift(self, k):
        """Reindex-only shift: C[k]^n = C^{n+k} with the same differential."""
        return CochainComplex(
            self.algebra,
            {n - k: M for n, M in self.modules.items()},
            {n - k: d for n, d in self.diffs.items()},
            window=self.window,
            check=False,
        )

    def with_window(self, window):
        return CochainComplex(self.algebra, self.modules, self.diffs, window=window, check=False)

    def scale_diff(self, c):
        return CochainComplex(
            self.algebra,
            self.modules,
            {n: d.scale(c) for n, d in self.diffs.items()},
            window=self.window,
            check=False,
        )

    def is_homogeneous(self):
        """Do all differentials preserve total grade?"""
        for n in self.degrees():
            fb, tb = self.flat(n), self.flat(n + 1)
            M = self.qdiff(n)
            for j, (slab, smono) in enumerate(fb.pairs):
                g = fb.module.grade_of(slab) + sum(smono)
                for i, (tlab, tmono) in enumerate(tb.pairs):
                    if M[i][j] and tb.module.grade_of(tlab) + sum(tmono) != g:
                        return False
        return True

    def to_json(self):
        return {
            str(n): {
                "rank": self.module(n).rank,
                "labels": [str(l) for l in self.module(n).labels],
                "diff": self.diff(n).to_json(),
            }
            for n in self.degrees()
        }


def single_module_complex(algebra, module, degree=0):
    return CochainComplex(algebra, {degree: module}, {}, check=False)


class ComplexMap:
    """Degree-preserving map of complexes, stored as sparse flattened columns.

    The component at degree n is a list with one column per pair of
    ``source.flat(n)``; a column is a dict {target index: Fraction} over
    ``target.flat(n)`` that stores no zero entry.  Working on the flattened
    bases lets a map be only rational-linear, or change coefficient
    algebras.  ``apply``, ``compose``, ``-`` and the chain-map check work on
    the columns; ``qmap`` builds the dense matrix only for the callers that
    need rank, inverse or matrix equality.
    """

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.cols = dict(components)

    @classmethod
    def from_functions(cls, source, target, fns):
        comps = {}
        for n, fn in fns.items():
            sb, index = source.flat(n), target.flat(n).index
            monomial = sb.module.algebra.monomial
            basis_vec = sb.module.basis_vec
            comps[n] = [_flatten(index, fn(basis_vec(lab, monomial(mono)))) for lab, mono in sb.pairs]
        return cls(source, target, comps)

    def _columns(self, n):
        cols = self.cols.get(n)
        return cols if cols is not None else [{}] * self.source.flat(n).dim

    def qmap(self, n):
        """The dense rational matrix at degree n, rows indexed by target.flat(n)."""
        out = ql.zeros(self.target.flat(n).dim, self.source.flat(n).dim)
        for j, col in enumerate(self._columns(n)):
            for i, c in col.items():
                out[i][j] = c
        return out

    def apply(self, n, vec):
        (image,) = _compose_columns(self._columns(n), [_flatten(self.source.flat(n).index, vec)])
        return _unflatten(self.target.flat(n), image)

    def is_chain_map(self):
        """d_T o f = f o d_S in every degree, compared column by column."""
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for n in degs:
            d_t = _matrix_columns(self.target.qdiff(n), self.target.flat(n).dim)
            d_s = _matrix_columns(self.source.qdiff(n), self.source.flat(n).dim)
            lhs = _compose_columns(d_t, self._columns(n))
            rhs = _compose_columns(self._columns(n + 1), d_s)
            if any(a != b for a, b in zip_longest(lhs, rhs, fillvalue={})):
                return False
        return True

    def compose(self, other):
        """self o other."""
        degs = set(self.cols) | set(other.cols)
        for n in degs:
            if self.source.flat(n).pairs != other.target.flat(n).pairs:
                raise StructuralError("composition of non-matching complex maps")
        return ComplexMap(
            other.source,
            self.target,
            {n: _compose_columns(self._columns(n), other._columns(n)) for n in degs},
        )

    def __sub__(self, other):
        comps = {}
        for n in set(self.cols) | set(other.cols):
            pairs = zip_longest(self._columns(n), other._columns(n), fillvalue={})
            comps[n] = [_add_scaled(dict(a), -1, b) for a, b in pairs]
        return ComplexMap(self.source, self.target, comps)

    def is_zero(self):
        return not any(col for cols in self.cols.values() for col in cols)


def _add_scaled(out, c, col):
    """out += c * col on sparse columns, dropping zeros as they arise.
    Returns out."""
    for i, e in col.items():
        s = out.get(i)
        if s is None:
            out[i] = c * e
        else:
            s += c * e
            if s:
                out[i] = s
            else:
                del out[i]
    return out


def _compose_columns(a, b):
    """Sparse columns of A o B from those of A and B."""
    out = []
    for col in b:
        acc = {}
        for i, c in col.items():
            _add_scaled(acc, c, a[i])
        out.append(acc)
    return out


def _matrix_columns(M, width):
    """Sparse columns of a dense matrix with width columns (M may have no rows)."""
    cols = [{} for _ in range(width)]
    for i, row in enumerate(M):
        for j, c in enumerate(row):
            if c:
                cols[j][i] = c
    return cols


def _flatten(index, vec):
    """Sparse flattened coordinates {index: Fraction} of vec; terms outside
    the flattened basis (beyond its grade window) are dropped."""
    return {
        i: c
        for lab, poly in vec.data.items()
        for mono, c in poly.terms.items()
        if (i := index.get((lab, mono))) is not None
    }


def _unflatten(fb, entries):
    """The element of fb.module with flattened coordinates {index: Fraction}."""
    data = {}
    pairs = fb.pairs
    for i in sorted(entries):
        lab, mono = pairs[i]
        data.setdefault(lab, {})[mono] = entries[i]
    algebra = fb.module.algebra
    return Vec(fb.module, {lab: Poly(algebra, t) for lab, t in data.items()})


# -- Hom and tensor complexes -------------------------------------------


def tensor_module(M, N, name=None):
    if M.algebra != N.algebra:
        raise StructuralError("tensor of modules over different algebras")
    labels = [(a, b) for a in M.labels for b in N.labels]
    grades = [M.grade_of(a) + N.grade_of(b) for a, b in labels]
    return BasedModule(M.algebra, labels, name or f"{M.name}(x){N.name}", grades)


def hom_module(M, N):
    labels = [(a, b) for a in M.labels for b in N.labels]
    grades = [N.grade_of(b) - M.grade_of(a) for a, b in labels]
    return BasedModule(M.algebra, labels, f"Hom({M.name},{N.name})", grades)


def hom_complex(C, D):
    """Hom complex with differential d o f - (-1)^{|f|} f o d."""
    algebra = C.algebra
    cdegs, ddegs = C.degrees(), D.degrees()
    modules = {}
    for m in cdegs:
        for n in ddegs:
            deg = n - m
            pairs = modules.setdefault(deg, [])
            pairs.append((m, n))
    hom_modules = {}
    for deg, pairs in modules.items():
        labels, grades = [], []
        for m, n in pairs:
            hm = hom_module(C.module(m), D.module(n))
            for lab, g in zip(hm.labels, hm.grades):
                labels.append((m, lab))
                grades.append(g)
        hom_modules[deg] = BasedModule(algebra, labels, f"Hom(C,D)^{deg}", grades)
    diffs = {}
    for deg in sorted(hom_modules):
        src = hom_modules[deg]
        tgt = hom_modules.get(deg + 1)
        if tgt is None:
            continue
        dmap = LinMap(src, tgt)
        for m, (a, b) in src.labels:
            # elementary map sending basis vector a of C^m to b of D^{m+deg}
            # post-compose with d_D
            img = D.diff(m + deg).apply(D.module(m + deg).basis_vec(b))
            terms = [((m, (a, b2)), c) for b2, c in img.data.items()]
            # pre-compose with d_C, Koszul sign -(-1)^deg
            sgn = -1 if deg % 2 == 0 else 1
            dC = C.diff(m - 1)
            for a2 in dC.source.labels:
                colv = dC.cols.get(a2)
                if colv is not None:
                    terms.append(((m - 1, (a2, b)), colv.coeff(a) * sgn))
            dmap.set_column((m, (a, b)), tgt.element(terms))
        diffs[deg] = dmap
    return CochainComplex(algebra, hom_modules, diffs, check=True)


def tensor_complex(C, D):
    """Tensor product complex with d(x tensor y) = dx tensor y + (-1)^{|x|} x tensor dy."""
    algebra = C.algebra
    modules = {}
    for m in C.degrees():
        for n in D.degrees():
            modules.setdefault(m + n, []).append((m, n))
    t_modules = {}
    for deg, pairs in modules.items():
        labels, grades = [], []
        for m, n in pairs:
            tm = tensor_module(C.module(m), D.module(n))
            for lab, g in zip(tm.labels, tm.grades):
                labels.append((m, lab))
                grades.append(g)
        t_modules[deg] = BasedModule(algebra, labels, f"(C(x)D)^{deg}", grades)
    diffs = {}
    for deg in sorted(t_modules):
        src = t_modules[deg]
        tgt = t_modules.get(deg + 1)
        if tgt is None:
            continue
        dmap = LinMap(src, tgt)
        for m, (a, b) in src.labels:
            n = deg - m
            img = C.diff(m).apply(C.module(m).basis_vec(a))
            terms = [((m + 1, (a2, b)), c) for a2, c in img.data.items()]
            sgn = -1 if m % 2 else 1
            img = D.diff(n).apply(D.module(n).basis_vec(b))
            terms += [((m, (a, b2)), c * sgn) for b2, c in img.data.items()]
            dmap.set_column((m, (a, b)), tgt.element(terms))
        diffs[deg] = dmap
    return CochainComplex(algebra, t_modules, diffs, check=True)


# -- bicomplexes ---------------------------------------------------------


class Bicomplex:
    """Modules indexed by (i, j) with commuting horizontal/vertical differentials."""

    def __init__(self, algebra, modules, horiz, vert, check=True):
        self.algebra = algebra
        self.modules = dict(modules)
        self.horiz = {k: v for k, v in horiz.items() if v is not None and not v.is_zero()}
        self.vert = {k: v for k, v in vert.items() if v is not None and not v.is_zero()}
        if check:
            self.validate()

    @classmethod
    def from_rows(cls, algebra, rows, vert):
        """The bicomplex with the complex rows[j] along row j and the vertical
        maps vert[(i, j)].  Each row's d o d was checked when its
        CochainComplex was built; d_v^2 and the squares are checked here."""
        modules, horiz = {}, {}
        for j, C in rows.items():
            for i in C.degrees():
                modules[(i, j)] = C.module(i)
            for i, d in C.diffs.items():
                horiz[(i, j)] = d
        bic = cls(algebra, modules, horiz, vert, check=False)
        bic._validate_vertical()
        return bic

    def module(self, ij):
        return self.modules.get(ij) or zero_module(self.algebra)

    def h(self, ij):
        d = self.horiz.get(ij)
        if d is None:
            i, j = ij
            return LinMap.zero(self.module(ij), self.module((i + 1, j)))
        return d

    def v(self, ij):
        d = self.vert.get(ij)
        if d is None:
            i, j = ij
            return LinMap.zero(self.module(ij), self.module((i, j + 1)))
        return d

    def validate(self):
        for (i, j) in self.modules:
            if not self.h((i + 1, j)).compose(self.h((i, j))).is_zero():
                raise ValueError(f"horizontal d^2 != 0 at {(i, j)}")
        self._validate_vertical()

    def _validate_vertical(self):
        """d_v^2 = 0 and commuting squares."""
        for (i, j) in self.modules:
            if not self.v((i, j + 1)).compose(self.v((i, j))).is_zero():
                raise ValueError(f"vertical d^2 != 0 at {(i, j)}")
            lhs = self.v((i + 1, j)).compose(self.h((i, j)))
            rhs = self.h((i, j + 1)).compose(self.v((i, j)))
            if not (lhs - rhs).is_zero():
                raise ValueError(f"square at {(i, j)} does not commute")


def totalize(bic):
    """Total complex; the vertical differential picks up the sign (-1)^i."""
    spots = {}
    for (i, j) in bic.modules:
        spots.setdefault(i + j, []).append((i, j))
    t_modules = {}
    for n, ijs in spots.items():
        labels, grades = [], []
        for ij in sorted(ijs):
            M = bic.module(ij)
            for lab, g in zip(M.labels, M.grades):
                labels.append((ij, lab))
                grades.append(g)
        t_modules[n] = BasedModule(bic.algebra, labels, f"Tot^{n}", grades)
    diffs = {}
    for n in sorted(t_modules):
        src = t_modules[n]
        tgt = t_modules.get(n + 1)
        if tgt is None:
            continue
        dmap = LinMap(src, tgt)
        for (i, j), lab in src.labels:
            x = bic.module((i, j)).basis_vec(lab)
            img = bic.h((i, j)).apply(x)
            terms = [(((i + 1, j), lab2), c) for lab2, c in img.data.items()]
            sgn = -1 if i % 2 else 1
            img = bic.v((i, j)).apply(x)
            terms += [(((i, j + 1), lab2), c * sgn) for lab2, c in img.data.items()]
            dmap.set_column(((i, j), lab), tgt.element(terms))
        diffs[n] = dmap
    return CochainComplex(bic.algebra, t_modules, diffs, check=True)


# -- homology ------------------------------------------------------------


@dataclass
class HomologyResult:
    degree: int
    grade: "int | None"
    dim: int
    representatives: list
    _cycle_cols: list = field(repr=False, default_factory=list)
    _boundary_cols: list = field(repr=False, default_factory=list)
    _flat: QBasis = field(repr=False, default=None)
    _indices: list = field(repr=False, default=None)
    _solver: ql.Solver = field(repr=False, default=None)

    def project_flat(self, col):
        """Coordinates of a cycle in the representative basis (boundaries die)."""
        if self._indices is not None:
            col = [col[i] for i in self._indices]
        basis = self._cycle_cols + self._boundary_cols
        if not basis:
            if any(col):
                raise ValueError("vector is not a cycle")
            return []
        if self._solver is None:
            self._solver = ql.Solver(ql.transpose(basis))
        coords = self._solver.solve(col)
        if coords is None:
            raise ValueError("vector is not a cycle")
        return coords[: self.dim]

    def project(self, vec):
        return self.project_flat(self._flat.flatten_vec(vec))


def homology(C, degree, grade=None):
    """Exact homology at one degree (optionally one internal grade slice),
    computed once per (degree, grade) and kept on the complex."""
    key = (degree, grade)
    if key not in C._homology:
        C._homology[key] = _homology(C, degree, grade)
    return C._homology[key]


def _homology(C, degree, grade):
    fb = C.flat(degree)
    d_in = C.qdiff(degree - 1)
    d_out = C.qdiff(degree)
    indices = None
    if grade is not None:
        if not C.is_homogeneous():
            raise ValueError("grade slicing requires a homogeneous complex")
        indices = fb.grade_indices(grade)
        in_idx = C.flat(degree - 1).grade_indices(grade)
        out_idx = C.flat(degree + 1).grade_indices(grade)
        d_in = [[d_in[i][j] for j in in_idx] for i in indices]
        d_out = [[d_out[i][j] for j in indices] for i in out_idx]
    n_cols = len(indices) if indices is not None else fb.dim
    if n_cols == 0:
        kernel = []
    elif not d_out:
        kernel = list(ql.identity(n_cols))
    else:
        kernel = ql.nullspace(d_out)
    boundaries = []
    if d_in and d_in[0]:
        cols = ql.transpose(d_in)
        _, piv = ql.rref(d_in)
        boundaries = [cols[p] for p in piv]
    # choose representatives: kernel vectors completing the boundary span
    reps = []
    if kernel:
        stacked = ql.transpose([list(b) for b in boundaries] + [list(k) for k in kernel])
        _, piv = ql.rref(stacked)
        nb = len(boundaries)
        reps = [kernel[p - nb] for p in piv if p >= nb]
    dim = len(reps)
    rep_vecs = []
    for r in reps:
        if indices is not None:
            full = [Fraction(0)] * fb.dim
            for pos, i in enumerate(indices):
                full[i] = r[pos]
            rep_vecs.append(fb.unflatten(full))
        else:
            rep_vecs.append(fb.unflatten(r))
    return HomologyResult(degree, grade, dim, rep_vecs, reps, boundaries, fb, indices)


def homology_dims(C):
    return {n: homology(C, n).dim for n in C.degrees()}


def is_quasi_iso(f, degrees=None):
    """True iff the induced maps on homology are isomorphisms.

    degrees optionally restricts the cohomological degrees checked (used
    when a source complex is a brutal truncation of an unbounded
    resolution, whose homology is only computed faithfully away from the
    cut).
    """
    degs = degrees if degrees is not None else sorted(
        set(f.source.degrees()) | set(f.target.degrees())
    )
    for n in degs:
        hs = homology(f.source, n)
        ht = homology(f.target, n)
        if hs.dim != ht.dim:
            return False
        if hs.dim == 0:
            continue
        cols = []
        for rep in hs.representatives:
            img = f.apply(n, rep)
            cols.append(ht.project(img))
        if ql.rank(ql.transpose(cols)) != ht.dim:
            return False
    return True
