"""Exact linear algebra over the rationals, on sparse columns.

A rational matrix is a list of sparse columns, one dict {row index: value}
per column that stores no zero entry, together with its number of rows: the
columns alone cannot tell a matrix with no rows from one whose rows are all
zero.  A value is an ``int`` when its denominator is 1, else a ``Fraction``;
``rref`` reads every entry as a ``Fraction``, so eliminations stay exact,
and what it returns holds ``Fraction``s.  ``modules.flatten_map`` returns
a map in this form and ``QBasis.flatten`` a vector; the degrees of a
``ComplexMap``, a Cech complex's flattened differentials, the chart changes
of a twist family and the components of the comparison morphism are held
in it.  ``compose_columns`` multiplies matrices (``ComplexMap.is_chain_map``,
``cech_twist.is_cocycle`` and the comparison morphism's chain-map check
``cech_twist.t_chain_check`` compare products this way); ``rref``, ``rank``,
``nullspace``, ``Solver`` and ``inverse`` take (cols, nrows), and
solutions, kernels and inverses come back as sparse columns.  ``Solver`` is
the one solve: a system is reduced once and each right-hand side is a
sparse product, never a column stacked into a new elimination, and
``Solver.contains`` is its membership test, for ``cech_twist.cohomologous``.
Every elimination is one ``rref``, a Gauss-Jordan reduction on sparse rows.
``over_common_denominator`` is the one way columns become ints over one
denominator: ``Solver`` keeps each reduced row so and clears each
right-hand side so, once per solve, and ``cech_twist.t_chain_check``
checks the comparison morphism's equations on its integer multiple, so
their products are int arithmetic.  Sizes in this package are small (a few
hundred rows at most), so it is fast enough and keeps everything exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n):
    return [{i: ONE} for i in range(n)]


def add_scaled(out, c, col):
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


def compose_columns(a, b):
    """Sparse columns of A o B from those of A and B."""
    out = []
    for col in b:
        acc = {}
        for i, c in col.items():
            add_scaled(acc, c, a[i])
        out.append(acc)
    return out


def rref(cols, nrows):
    """Reduced row echelon form of the matrix with nrows rows and columns cols.

    Returns (rows, pivots): the nonzero rows of the form, top to bottom, as
    sparse dicts {column: Fraction}, and the pivot column of each.  Rows
    are taken in order; each is cleared at the pivot columns it holds, and
    a nonzero remainder, scaled to 1 at its least column, becomes the row
    of that new pivot, which is cleared from the rows before it.  The rows
    kept are then reduced and lead with their pivots, so the result is the
    unique reduced row echelon form.
    """
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            # an int entry is read as a Fraction, so every division stays exact
            rows[i][j] = c if type(c) is Fraction else Fraction(c)
    by_pivot = {}
    for row in rows:
        # a pivot row is 0 at every other pivot column, so one pass clears them all
        for p in [j for j in row if j in by_pivot]:
            add_scaled(row, -row[p], by_pivot[p])
        if not row:
            continue
        c = min(row)
        pv = row[c]
        if pv != 1:
            row = {j: x / pv for j, x in row.items()}
        for other in by_pivot.values():
            f = other.get(c)
            if f:
                add_scaled(other, -f, row)
        by_pivot[c] = row
    pivots = sorted(by_pivot)
    return [by_pivot[p] for p in pivots], pivots


def rank(cols, nrows):
    if not cols or not nrows:
        return 0
    return len(rref(cols, nrows)[1])


def nullspace(cols, nrows):
    """Basis of the right kernel, as sparse columns."""
    if not cols or not nrows:
        return identity(len(cols))
    rows, pivots = rref(cols, nrows)
    pivset = set(pivots)
    basis = []
    for f in range(len(cols)):
        if f in pivset:
            continue
        v = {f: ONE}
        for row, p in zip(rows, pivots):
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


class Solver:
    """Exact solves A x = b for one matrix A and many right-hand sides b.

    A is reduced once: rref([A | I]) = [R | E] with E A = R.  Then A x = b
    is solvable iff (E b)_i = 0 on every zero row i of R, and the solution
    whose free variables are zero has x[p_i] = (E b)_i at the i-th pivot
    column p_i: the solution ``solve`` returns.  ``contains`` reads the zero
    rows alone, kept by column.  Rows of E are kept as sparse integers over
    one denominator, so a solve is int products and one Fraction per pivot.
    """

    def __init__(self, cols, nrows):
        m = len(cols)
        rows, pivots = rref(cols + identity(nrows), nrows)
        self._solution_rows = []
        self._null_columns = {}  # column j -> [(pivot, entry), ...] of the null rows
        for row, p in zip(rows, pivots):
            (ints,), d = over_common_denominator([{j - m: c for j, c in row.items() if j >= m}])
            if p < m:
                self._solution_rows.append((p, ints, d))
            else:
                for j, e in ints.items():
                    self._null_columns.setdefault(j, []).append((p, e))

    def solve(self, b):
        """The solution of A x = b for a sparse column b, as a sparse column,
        or None if b is not in the column span."""
        (ints_b,), d = over_common_denominator([b])
        if not self._contains_ints(ints_b):
            return None
        x = {}
        for p, ints, e in self._solution_rows:
            s = sum(ints[j] * v for j, v in ints_b.items() if j in ints)
            if s:
                x[p] = Fraction(s, e * d)
        return x

    def contains(self, b):
        """Is the sparse column b in the column span?  The null rows alone
        decide it, read by column over b's entries; no solution is built."""
        (ints_b,), _ = over_common_denominator([b])
        return self._contains_ints(ints_b)

    def _contains_ints(self, ints_b):
        """contains on b's entries cleared to ints over one denominator."""
        acc = {}
        for j, v in ints_b.items():
            for p, e in self._null_columns.get(j, ()):
                acc[p] = acc.get(p, 0) + e * v
        return not any(acc.values())


def over_common_denominator(cols):
    """(ints, d) with cols[k][j] = ints[k][j] / d for sparse columns cols: d
    is the least common denominator of all their entries and ints holds
    int columns."""
    d = lcm(*{x.denominator for col in cols for x in col.values()})
    return [{j: x.numerator * (d // x.denominator) for j, x in col.items()} for col in cols], d


def inverse(cols, nrows):
    """The inverse of a square matrix, as sparse columns; None if the matrix
    is not square or singular."""
    if len(cols) != nrows:
        return None
    solver = Solver(cols, nrows)
    inv = [solver.solve({i: ONE}) for i in range(nrows)]
    if None in inv or compose_columns(cols, inv) != identity(nrows):
        return None
    return inv
