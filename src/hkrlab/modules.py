"""Based modules over a coefficient algebra, their elements, and linear maps.

A BasedModule is a free module with a finite ordered basis of hashable
labels.  Labels may carry an internal grade (exterior degree, Cech degree,
...); the total grade of a flattened basis vector is the label grade plus
the degree of its monomial.  Flattening turns any module into a finite
dimensional rational vector space, optionally restricted to total grade
<= window (the quotient by the span of higher-grade basis vectors).

There is one flattened form: a vector is a sparse column {index: value}
over a QBasis (QBasis.flatten and QBasis.unflatten convert), and a map is
the list of such columns that flatten_map returns, one per source pair;
flatten_map reads a LinMap's stored columns and applies any other map to
basis vectors.  A value is an int when its denominator is 1, else a
Fraction, as in the Poly coefficients it comes from.  ``rational``
reduces, solves and inverts matrices in this form.

Vec and Poly values are never changed in place, so a value may be shared:
a stored column, a coefficient or a constant of the algebra.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .coeff import Poly


class StructuralError(ValueError):
    """Mismatched modules or coefficient algebras."""


class BasedModule:
    """Free module with a finite labelled basis."""

    __slots__ = ("algebra", "labels", "name", "grades", "label_index", "_hash")

    def __init__(self, algebra, labels, name="", grades=None):
        self.algebra = algebra
        self.labels = tuple(labels)
        self.name = name
        if grades is None:
            grades = (0,) * len(self.labels)
        self.grades = tuple(grades)
        if len(self.grades) != len(self.labels):
            raise ValueError("grades length mismatch")
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        # a module is a dict key in many caches; hashing its labels once suffices
        self._hash = hash((algebra, self.labels, self.grades, name))

    @property
    def rank(self):
        return len(self.labels)

    def grade_of(self, label):
        return self.grades[self.label_index[label]]

    def zero(self):
        return _vec(self, {})

    def basis_vec(self, label, coeff=1):
        if label not in self.label_index:
            raise StructuralError(f"label {label!r} not in module {self.name!r}")
        c = coeff if isinstance(coeff, Poly) else self.algebra.const(coeff)
        return Vec(self, {label: c})

    def element(self, terms):
        """The element sum c * label over the (label, coeff) pairs of terms;
        a coeff may be an int, a Fraction or a Poly, and labels may repeat."""
        index = self.label_index
        const = self.algebra.const
        # _accumulate's loop, with each label checked and coerced in it
        out = {}
        for lab, c in terms:
            if lab not in index:
                raise StructuralError(f"label {lab!r} not in module {self.name!r}")
            if not isinstance(c, Poly):
                c = const(c)
            if not c.terms:
                continue
            s = out.get(lab)
            if s is None:
                out[lab] = c
            else:
                s = s + c
                if s.terms:
                    out[lab] = s
                else:
                    del out[lab]
        return _vec(self, out)

    def basis(self):
        return [self.basis_vec(lab) for lab in self.labels]

    def __eq__(self, other):
        # nearly every comparison is of a module with itself
        if self is other:
            return True
        # the name participates: two exterior powers with identical label
        # sets but different underlying modules must not be confused
        return (
            isinstance(other, BasedModule)
            and self.algebra == other.algebra
            and self.labels == other.labels
            and self.grades == other.grades
            and self.name == other.name
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BasedModule({self.name or self.labels}, rank={self.rank})"


class Vec:
    """Sparse module element: {label: Poly}, each Poly holding int values
    where their denominator is 1, else Fraction ones.

    Invariant: no stored coefficient is zero.  The constructor cleans its
    input; arithmetic keeps the invariant as it goes and builds its result
    through ``_vec`` without a second cleaning pass.
    """

    __slots__ = ("module", "data")

    def __init__(self, module, data):
        self.module = module
        clean = {}
        for lab, c in data.items():
            if isinstance(c, (int, Fraction)):
                c = module.algebra.const(c)
            if not c.is_zero():
                clean[lab] = c
        self.data = clean

    def is_zero(self):
        return not self.data

    def coeff(self, label):
        return self.data.get(label, self.module.algebra.zero())

    def __add__(self, other):
        self._check(other)
        return _vec(self.module, _accumulate(dict(self.data), other.data.items()))

    def __neg__(self):
        return _vec(self.module, {lab: -c for lab, c in self.data.items()})

    def __sub__(self, other):
        """Subtracted as it accumulates, in _accumulate's label order."""
        self._check(other)
        out = dict(self.data)
        for lab, c in other.data.items():
            s = out.get(lab)
            if s is None:
                out[lab] = -c
            elif (s := s - c).terms:
                out[lab] = s
            else:
                del out[lab]
        return _vec(self.module, out)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = self.module.algebra.const(c)
        out = {}
        for lab, v in self.data.items():
            p = c * v
            if p.terms:
                out[lab] = p
        return _vec(self.module, out)

    def _check(self, other):
        if not isinstance(other, Vec) or other.module != self.module:
            raise StructuralError("elements live in different modules")

    def __eq__(self, other):
        return isinstance(other, Vec) and self.module == other.module and self.data == other.data

    def __repr__(self):
        if not self.data:
            return "0"
        return " + ".join(f"({c})*{lab}" for lab, c in sorted(self.data.items(), key=lambda t: str(t[0])))


def _vec(module, data):
    """The Vec holding data as is; every value must be a nonzero Poly."""
    v = object.__new__(Vec)
    v.module = module
    v.data = data
    return v


def _accumulate(out, terms):
    """out[label] += c for each (label, c) of terms, c a Poly, dropping zeros
    as they arise: labels keep the order that adding the terms one at a time
    to a Vec gives.  Returns out."""
    for lab, c in terms:
        if not c.terms:
            continue
        s = out.get(lab)
        if s is None:
            out[lab] = c
        else:
            s = s + c
            if s.terms:
                out[lab] = s
            else:
                del out[lab]
    return out


def _image(cols, data):
    """Coefficients of sum_lab data[lab] * cols[lab], accumulated term by
    term in _accumulate's order."""
    out = {}
    for lab, c in data.items():
        col = cols.get(lab)
        if col is None:
            continue
        for tlab, v in col.data.items():
            p = c * v
            if not p.terms:
                continue
            s = out.get(tlab)
            if s is None:
                out[tlab] = p
            else:
                s = s + p
                if s.terms:
                    out[tlab] = s
                else:
                    del out[tlab]
    return out


class LinMap:
    """Algebra-linear map between based modules, stored column-wise.

    Only nonzero columns are stored.  Composition, sums and scalar multiples
    work on the stored columns directly.
    """

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols=None):
        if source.algebra != target.algebra:
            raise StructuralError("source/target over different algebras")
        self.source = source
        self.target = target
        self.cols = {}
        if cols:
            for lab, vec in cols.items():
                self.set_column(lab, vec)

    @classmethod
    def from_function(cls, source, target, fn):
        m = cls(source, target)
        for lab in source.labels:
            m.set_column(lab, fn(source.basis_vec(lab)))
        return m

    @classmethod
    def identity(cls, module):
        return cls.from_function(module, module, lambda v: v)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target)

    def set_column(self, label, vec):
        if label not in self.source.label_index:
            raise StructuralError(f"no source label {label!r}")
        if not isinstance(vec, Vec) or vec.module != self.target:
            raise StructuralError("column vector not in target module")
        if vec.is_zero():
            self.cols.pop(label, None)
        else:
            self.cols[label] = vec

    def apply(self, vec):
        if vec.module != self.source:
            raise StructuralError(
                f"map {self.source.name!r}->{self.target.name!r} applied to {vec.module.name!r}"
            )
        return _vec(self.target, _image(self.cols, vec.data))

    def compose(self, other):
        """self o other."""
        if other.target != self.source:
            raise StructuralError("composition of non-matching maps")
        cols = {}
        for lab in other.source.labels:
            col = other.cols.get(lab)
            if col is not None:
                data = _image(self.cols, col.data)
                if data:
                    cols[lab] = _vec(self.target, data)
        return _linmap(other.source, self.target, cols)

    def __add__(self, other):
        return self._combine(other, Vec.__add__)

    def __sub__(self, other):
        return self._combine(other, Vec.__sub__)

    def _combine(self, other, op):
        if other.source != self.source or other.target != self.target:
            raise StructuralError("sum of maps with different source/target")
        zero = self.target.zero()
        cols = {}
        for lab in self.source.labels:
            col = op(self.cols.get(lab, zero), other.cols.get(lab, zero))
            if col.data:
                cols[lab] = col
        return _linmap(self.source, self.target, cols)

    def scale(self, c):
        cols = {}
        for lab in self.source.labels:
            col = self.cols.get(lab)
            if col is not None:
                col = col.scale(c)
                if col.data:
                    cols[lab] = col
        return _linmap(self.source, self.target, cols)

    def is_zero(self):
        return not self.cols

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return False
        if other.source != self.source or other.target != self.target:
            return False
        return (self - other).is_zero()

    def dense(self):
        """Dense matrix of Poly entries, rows indexed by target labels."""
        rows = []
        for tlab in self.target.labels:
            row = []
            for slab in self.source.labels:
                col = self.cols.get(slab)
                row.append(col.coeff(tlab) if col is not None else self.target.algebra.zero())
            rows.append(row)
        return rows

    def to_json(self):
        from .coeff import poly_to_string

        return [[poly_to_string(e) for e in row] for row in self.dense()]


def _linmap(source, target, cols):
    """The LinMap with these columns as is; each must be a nonzero Vec in target."""
    m = object.__new__(LinMap)
    m.source = source
    m.target = target
    m.cols = cols
    return m


# -- flattening to rational vector spaces -------------------------------


class QBasis:
    """Flattened rational basis of a module: pairs (label, monomial)."""

    __slots__ = ("module", "window", "pairs", "index", "_grades")

    def __init__(self, module, window=None):
        self.module = module
        self.window = window
        monomials = module.algebra.monomials
        if window is None:
            self.pairs = [(lab, mono) for lab in module.labels for mono in monomials]
        else:
            # the algebra lists its monomials by degree, so each label grade keeps a prefix of them
            degrees = [sum(mono) for mono in monomials]
            kept = {g: monomials[: bisect_right(degrees, window - g)] for g in set(module.grades)}
            self.pairs = [(lab, mono) for lab, g in zip(module.labels, module.grades) for mono in kept[g]]
        self.index = {p: i for i, p in enumerate(self.pairs)}
        self._grades = None

    @property
    def dim(self):
        return len(self.pairs)

    def flatten(self, vec):
        """Sparse coordinates {index: value} of vec, each value an int when
        its denominator is 1, else a Fraction; terms outside the basis
        (beyond its grade window) are dropped."""
        index = self.index
        return {
            i: c
            for lab, poly in vec.data.items()
            for mono, c in poly.terms.items()
            if (i := index.get((lab, mono))) is not None
        }

    def unflatten(self, entries):
        """The element of the module with sparse coordinates {index: value},
        values int or Fraction; Poly stores the integral ones as int."""
        data = {}
        pairs = self.pairs
        for i in sorted(entries):
            lab, mono = pairs[i]
            data.setdefault(lab, {})[mono] = entries[i]
        algebra = self.module.algebra
        return Vec(self.module, {lab: Poly(algebra, t) for lab, t in data.items()})

    def grades(self):
        """The total grade (label grade plus monomial degree) of each pair,
        listed once per basis; callers must not change the list."""
        if self._grades is None:
            grade = self.module.grade_of
            self._grades = [grade(lab) + sum(mono) for lab, mono in self.pairs]
        return self._grades

    def grade_indices(self, grade):
        return [i for i, g in enumerate(self.grades()) if g == grade]


def flatten_map(m, src_basis, tgt_basis):
    """Sparse rational columns of a map m from src_basis.module to
    tgt_basis.module: the column of the pair (label, mono) is the flattening
    of m(basis_vec(label, mono)), one per src_basis pair.  A LinMap's columns
    are read off its stored ones, mono times the column of label; any other
    m is called on each basis vector and need only be rational-linear.
    Entries outside the target window are dropped (quotient semantics)."""
    module = src_basis.module
    monomial = module.algebra.monomial
    flatten = tgt_basis.flatten
    if isinstance(m, LinMap):
        if m.source != module:
            raise StructuralError(f"map out of {m.source.name!r} flattened over {module.name!r}")
        unit = module.algebra.constant_exps
        cols = m.cols
        out = []
        for lab, mono in src_basis.pairs:
            col = cols.get(lab)
            if col is None:
                out.append({})
            else:
                out.append(flatten(col if mono == unit else col.scale(monomial(mono))))
        return out
    return [flatten(m(_vec(module, {lab: monomial(mono)}))) for lab, mono in src_basis.pairs]
