"""Bounded cochain complexes, maps, homology, direct-sum complexes.

Conventions, fixed once for the whole package:

* cohomological grading; every differential has degree +1;
* Hom complexes: (df) = d o f - (-1)^{|f|} f o d;
* shifts C[k] reindex only (C[k]^n = C^{n+k}, same differential); where a
  sign-twisted differential is wanted it is written out explicitly;
* every complex assembled from labelled blocks (Hom, tensor, Cech, and
  the totalization of a double complex) is built by total_complex, which
  checks d o d once;
* totalization (totalize): on the (i, j) spot the total differential is
  D = d_h + (-1)^i d_v.  On that spot D^2 has three parts, each in its
  own spot: d_h^2 in (i + 2, j), d_v^2 in (i, j + 2), and
  (-1)^i (d_h d_v - d_v d_h) in (i + 1, j + 1).  So D^2 = 0 holds exactly
  when the rows and columns are complexes and every square commutes, and
  the total's one d o d check is the whole check of the double complex.

All rank computations happen on flattened rational matrices.  A complex
may carry a grade window w: its flattened space is the quotient spanned
by basis vectors of total grade <= w (label grade plus monomial degree).
Every flattened differential (CochainComplex.qdiff, read off the stored
LinMap's columns) and every degree of a map of complexes
(ComplexMap.columns) is kept as the sparse columns that
modules.flatten_map returns; maps are applied, composed and chain-checked
on them, and homology, ranks and inverses hand them to ``rational`` as
they are.  A solve against a differential (is this a boundary?) asks the
complex's ``qsolver``: one ``rational.Solver`` per degree, reduced once.
"""

from __future__ import annotations

from itertools import zip_longest

from .modules import BasedModule, LinMap, QBasis, StructuralError, flatten_map
from . import rational as ql


def zero_module(algebra):
    """The rank-0 module over algebra: one object per algebra object, kept
    on the algebra."""
    M = getattr(algebra, "_zero_module", None)
    if M is None:
        M = algebra._zero_module = BasedModule(algebra, (), name="0")
    return M


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
        self._homogeneous = None
        # window -> the complex's view at that window, built by with_window
        self._windows = {}
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
        """The flattened differential out of degree n, as sparse columns."""
        cols = self._qdiff.get(n)
        if cols is None:
            d = self.diffs.get(n)
            if d is None:
                cols = [{} for _ in range(self.flat(n).dim)]
            else:
                cols = flatten_map(d, self.flat(n), self.flat(n + 1))
            self._qdiff[n] = cols
        return cols

    def qsolver(self, n):
        """The exact solver for the flattened differential out of degree n."""
        if n not in self._qsolver:
            self._qsolver[n] = ql.Solver(self.qdiff(n), self.flat(n + 1).dim)
        return self._qsolver[n]

    def with_window(self, window):
        """The view of this complex at a grade window, built once per window
        and kept by the complex, so every caller shares its flattened
        differentials, solvers and homology; callers must not change it.  At
        the complex's own window the view is the complex itself."""
        if window == self.window:
            return self
        view = self._windows.get(window)
        if view is None:
            view = self._windows[window] = CochainComplex(
                self.algebra, self.modules, self.diffs, window=window, check=False
            )
        return view

    def scale_diff(self, c):
        return CochainComplex(
            self.algebra,
            self.modules,
            {n: d.scale(c) for n, d in self.diffs.items()},
            window=self.window,
            check=False,
        )

    def is_homogeneous(self):
        """Do all differentials preserve total grade?  Answered once: a complex does not change."""
        if self._homogeneous is None:
            self._homogeneous = True
            for n in self.degrees():
                tgt = self.flat(n + 1).grades()
                if any(tgt[i] != g for g, col in zip(self.flat(n).grades(), self.qdiff(n)) for i in col):
                    self._homogeneous = False
                    break
        return self._homogeneous

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
    ``source.flat(n)``; a column is a dict {target index: value} over
    ``target.flat(n)`` that stores no zero entry.  Working on the flattened
    bases lets a map be only rational-linear, or change coefficient
    algebras.  ``apply``, ``compose``, ``-`` and the chain-map check work on
    the columns, and ``columns(n)`` hands them to ``rational`` for a rank
    or an inverse, or to a comparison.
    """

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.cols = dict(components)

    @classmethod
    def from_functions(cls, source, target, fns):
        return cls(
            source,
            target,
            {n: flatten_map(fn, source.flat(n), target.flat(n)) for n, fn in fns.items()},
        )

    def columns(self, n):
        """The sparse columns at degree n, over target.flat(n)."""
        cols = self.cols.get(n)
        return cols if cols is not None else [{}] * self.source.flat(n).dim

    def apply(self, n, vec):
        if vec.module != self.source.module(n):
            raise StructuralError(f"complex map at degree {n} applied to {vec.module.name!r}")
        (image,) = ql.compose_columns(self.columns(n), [self.source.flat(n).flatten(vec)])
        return self.target.flat(n).unflatten(image)

    def is_chain_map(self):
        """d_T o f = f o d_S in every degree, compared column by column."""
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for n in degs:
            lhs = ql.compose_columns(self.target.qdiff(n), self.columns(n))
            rhs = ql.compose_columns(self.columns(n + 1), self.source.qdiff(n))
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
            {n: ql.compose_columns(self.columns(n), other.columns(n)) for n in degs},
        )

    def __sub__(self, other):
        comps = {}
        for n in set(self.cols) | set(other.cols):
            if (
                self.source.flat(n).pairs != other.source.flat(n).pairs
                or self.target.flat(n).pairs != other.target.flat(n).pairs
            ):
                raise StructuralError("difference of complex maps with different source/target")
            comps[n] = [ql.add_scaled(dict(a), -1, b) for a, b in zip(self.columns(n), other.columns(n))]
        return ComplexMap(self.source, self.target, comps)

    def is_zero(self):
        return not any(col for cols in self.cols.values() for col in cols)


# -- direct-sum complexes: Hom, tensor, totals ---------------------------


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


def total_complex(algebra, spots, column, name):
    """The direct-sum complex of labelled blocks, checked for d o d once.

    spots is {n: [(spot, module), ...]}: the degree-n term is the direct sum
    of those modules in the listed order, with labels (spot, label) and the
    grades of the spot modules, named name(n).  column(n, spot, label)
    yields the (target label, coefficient) terms of the differential on
    that basis vector.
    """
    modules = {}
    for n, blocks in spots.items():
        labels, grades = [], []
        for spot, M in blocks:
            labels += [(spot, lab) for lab in M.labels]
            grades += M.grades
        modules[n] = BasedModule(algebra, labels, name(n), grades)
    diffs = {}
    for n in sorted(modules):
        src, tgt = modules[n], modules.get(n + 1)
        if tgt is not None:
            d = diffs[n] = LinMap(src, tgt)
            for spot, lab in src.labels:
                d.set_column((spot, lab), tgt.element(column(n, spot, lab)))
    return CochainComplex(algebra, modules, diffs)


def _column(d, lab):
    """The (target label, coefficient) terms of d's stored column at lab; a
    missing map (None) or column is zero."""
    col = None if d is None else d.cols.get(lab)
    return () if col is None else col.data.items()


def hom_complex(C, D):
    """Hom complex with differential d o f - (-1)^{|f|} f o d."""
    spots = {}
    for m in C.degrees():
        for n in D.degrees():
            spots.setdefault(n - m, []).append((m, hom_module(C.module(m), D.module(n))))

    def column(deg, m, lab):
        # the elementary map sending basis vector a of C^m to b of D^{m+deg},
        # post-composed with d_D, then pre-composed with d_C with sign -(-1)^deg
        a, b = lab
        yield from (((m, (a, b2)), c) for b2, c in _column(D.diffs.get(m + deg), b))
        sgn = -1 if deg % 2 == 0 else 1
        dC = C.diffs.get(m - 1)
        if dC is not None:
            for a2 in dC.source.labels:
                colv = dC.cols.get(a2)
                if colv is not None:
                    yield (m - 1, (a2, b)), colv.coeff(a) * sgn

    return total_complex(C.algebra, spots, column, lambda deg: f"Hom(C,D)^{deg}")


def tensor_complex(C, D):
    """Tensor product complex with d(x tensor y) = dx tensor y + (-1)^{|x|} x tensor dy."""
    spots = {}
    for m in C.degrees():
        for n in D.degrees():
            spots.setdefault(m + n, []).append((m, tensor_module(C.module(m), D.module(n))))

    def column(deg, m, lab):
        a, b = lab
        n = deg - m
        yield from (((m + 1, (a2, b)), c) for a2, c in _column(C.diffs.get(m), a))
        sgn = -1 if m % 2 else 1
        yield from (((m, (a, b2)), c * sgn) for b2, c in _column(D.diffs.get(n), b))

    return total_complex(C.algebra, spots, column, lambda deg: f"(C(x)D)^{deg}")


def totalize(algebra, modules, horiz, vert):
    """Tot of the double complex with spot modules {(i, j): M} and the maps
    horiz[(i, j)]: (i, j) -> (i + 1, j) and vert[(i, j)]: (i, j) -> (i, j + 1)
    (a missing map is zero).  See the module docstring for the convention."""
    spots = {}
    for i, j in sorted(modules):
        spots.setdefault(i + j, []).append(((i, j), modules[(i, j)]))
    for maps in (horiz, vert):
        for ij, m in maps.items():
            if m.source != modules[ij]:
                raise StructuralError(f"the map out of spot {ij} starts elsewhere")

    def column(n, ij, lab):
        i, j = ij
        if ij in horiz:
            yield from ((((i + 1, j), lab2), c) for lab2, c in _column(horiz[ij], lab))
        if ij in vert:
            sgn = -1 if i % 2 else 1
            yield from ((((i, j + 1), lab2), c * sgn) for lab2, c in _column(vert[ij], lab))

    return total_complex(algebra, spots, column, lambda n: f"Tot^{n}")


# -- homology ------------------------------------------------------------


class HomologyResult:
    def __init__(self, degree, grade, dim, representatives, _cycle_cols=None, _boundary_cols=None,
                 _flat=None, _positions=None, _solver=None):
        self.degree = degree
        self.grade = grade
        self.dim = dim
        self.representatives = representatives
        self._cycle_cols = [] if _cycle_cols is None else _cycle_cols
        self._boundary_cols = [] if _boundary_cols is None else _boundary_cols
        self._flat = _flat
        self._positions = _positions
        self._solver = _solver

    def project_flat(self, col):
        """Coordinates of a cycle, given as a sparse column over the flattened
        basis, in the representative basis (boundaries die)."""
        pos = self._positions
        if pos is not None:
            col = {pos[i]: c for i, c in col.items() if i in pos}
        basis = self._cycle_cols + self._boundary_cols
        if not basis:
            if col:
                raise ValueError("vector is not a cycle")
            return []
        if self._solver is None:
            n = len(pos) if pos is not None else self._flat.dim
            self._solver = ql.Solver(basis, n)
        coords = self._solver.solve(col)
        if coords is None:
            raise ValueError("vector is not a cycle")
        return [coords.get(k, ql.ZERO) for k in range(self.dim)]

    def project(self, vec):
        return self.project_flat(self._flat.flatten(vec))


def homology(C, degree, grade=None):
    """Exact homology at one degree (optionally one internal grade slice),
    computed once per (degree, grade) and kept on the complex."""
    key = (degree, grade)
    if key not in C._homology:
        C._homology[key] = _homology(C, degree, grade)
    return C._homology[key]


def _slice(cols, col_indices, positions):
    """The columns at col_indices, restricted to the rows in positions
    {row index: new row index}."""
    return [{positions[i]: c for i, c in cols[j].items() if i in positions} for j in col_indices]


def _homology(C, degree, grade):
    fb = C.flat(degree)
    d_in = C.qdiff(degree - 1)
    d_out = C.qdiff(degree)
    n_out = C.flat(degree + 1).dim
    positions = None
    if grade is not None:
        if not C.is_homogeneous():
            raise ValueError("grade slicing requires a homogeneous complex")
        indices = fb.grade_indices(grade)
        positions = {i: k for k, i in enumerate(indices)}
        d_in = _slice(d_in, C.flat(degree - 1).grade_indices(grade), positions)
        out_idx = C.flat(degree + 1).grade_indices(grade)
        d_out = _slice(d_out, indices, {i: k for k, i in enumerate(out_idx)})
        n_out = len(out_idx)
    n = len(positions) if positions is not None else fb.dim
    kernel = ql.nullspace(d_out, n_out)
    # a pivot of [d_in | kernel] is a column independent of the columns before
    # it: the pivots in d_in are a boundary basis, and those in the kernel
    # complete it, so they represent the homology
    boundaries, reps = [], []
    if n and (d_in or kernel):  # else there is nothing to reduce
        _, piv = ql.rref(d_in + kernel, n)
        nb = len(d_in)
        boundaries = [d_in[p] for p in piv if p < nb]
        reps = [kernel[p - nb] for p in piv if p >= nb]
    if positions is not None:
        rep_vecs = [fb.unflatten({indices[k]: c for k, c in r.items()}) for r in reps]
    else:
        rep_vecs = [fb.unflatten(r) for r in reps]
    return HomologyResult(degree, grade, len(reps), rep_vecs, reps, boundaries, fb, positions)


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
        # one column of class coordinates per image of a representative
        cols = [
            {k: c for k, c in enumerate(ht.project(f.apply(n, rep))) if c} for rep in hs.representatives
        ]
        if ql.rank(cols, ht.dim) != ht.dim:
            return False
    return True
