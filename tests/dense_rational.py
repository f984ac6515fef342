"""Dense exact linear algebra over the rationals: the reference the sparse
``hkrlab.rational`` is tested against.

A matrix here is a list of row lists of Fractions.  This is the dense code
the package used before its elimination moved to sparse columns, kept
unchanged, including its handling of matrices with no rows (``nullspace``
returns no vectors, ``solve`` reads the number of unknowns off the first
row) and of wide matrices (``inverse`` returns a right inverse).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows):
    """Coerce nested lists of numbers into a Fraction matrix."""
    return [[Fraction(x) for x in row] for row in rows]


def zeros(n, m):
    return [[ZERO] * m for _ in range(n)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def copy(M):
    return [row[:] for row in M]


def from_columns(cols, nrows):
    """The dense matrix with nrows rows whose j-th column is the sparse cols[j]."""
    out = zeros(nrows, len(cols))
    for j, col in enumerate(cols):
        for i, c in col.items():
            out[i][j] = c
    return out


def to_columns(M, ncols):
    """Sparse columns of a dense matrix with ncols columns (M may have no rows)."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(M):
        for j, c in enumerate(row):
            if c:
                cols[j][i] = c
    return cols


def mat_mul(A, B):
    n = len(A)
    k = len(B)
    m = len(B[0]) if k else 0
    out = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        oi = out[i]
        for t in range(k):
            a = Ai[t]
            if not a:
                continue
            Bt = B[t]
            for j in range(m):
                b = Bt[j]
                if b:
                    oi[j] += a * b
    return out


def _entry(M, i, j):
    if i < len(M) and j < len(M[i]):
        return M[i][j]
    return ZERO


def mat_sub(A, B):
    """Entrywise difference; shapes are reconciled by zero padding.

    Products with a zero-dimensional inner factor legitimately produce
    matrices with no columns, so all binary operations treat a matrix as
    the finite corner of an infinite zero matrix.
    """
    n = max(len(A), len(B))
    m = max([len(r) for r in A + B], default=0)
    return [[_entry(A, i, j) - _entry(B, i, j) for j in range(m)] for i in range(n)]


def is_zero_matrix(A):
    return all(not x for row in A for x in row)


def mat_eq(A, B):
    n = max(len(A), len(B))
    m = max([len(r) for r in A + B], default=0)
    return all(_entry(A, i, j) == _entry(B, i, j) for i in range(n) for j in range(m))


def rref(M):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    R = copy(M)
    n = len(R)
    m = len(R[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        if r == n:
            break
        # pick a pivot; favour entries of small complexity
        piv = None
        for i in range(r, n):
            if R[i][c]:
                piv = i
                if abs(R[i][c]) == 1:
                    break
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        pv = R[r][c]
        if pv != 1:
            R[r] = [x / pv for x in R[r]]
        Rr = R[r]
        for i in range(n):
            if i == r:
                continue
            f = R[i][c]
            if f:
                Ri = R[i]
                for j in range(c, m):
                    if Rr[j]:
                        Ri[j] -= f * Rr[j]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M):
    if not M or not M[0]:
        return 0
    return len(rref(M)[1])


def nullspace(M):
    """Basis of the right kernel, as sparse columns."""
    if not M:
        return []
    m = len(M[0])
    R, pivots = rref(M)
    pivset = set(pivots)
    free = [j for j in range(m) if j not in pivset]
    basis = []
    for f in free:
        v = {f: ONE}
        for i, p in enumerate(pivots):
            if R[i][f]:
                v[p] = -R[i][f]
        basis.append(v)
    return basis


def solve(A, B):
    """Solve A X = B for a matrix of right-hand columns.  None if inconsistent."""
    n = len(A)
    m = len(A[0]) if n else 0
    k = len(B[0]) if B else 0
    aug = [A[i][:] + B[i][:] for i in range(n)]
    R, pivots = rref(aug)
    pivots_in_A = [p for p in pivots if p < m]
    # inconsistency: a pivot in the augmented part
    if len(pivots_in_A) != len(pivots):
        return None
    X = zeros(m, k)
    for i, p in enumerate(pivots_in_A):
        for j in range(k):
            X[p][j] = R[i][m + j]
    return X


def solve_vec(A, b):
    """The solution of A x = b for a sparse column b, as a list; None if inconsistent."""
    sol = solve(A, [[b.get(i, ZERO)] for i in range(len(A))])
    if sol is None:
        return None
    return [row[0] for row in sol]


class Solver:
    """Exact solves A x = b for one matrix A and many right-hand sides b.

    A is reduced once: rref([A | I]) = [R | E] with E A = R.  Then A x = b
    is solvable iff (E b)_i = 0 on every zero row i of R, and the solution
    whose free variables are zero has x[p_i] = (E b)_i at the i-th pivot
    column p_i: the solution solve_vec(A, b) returns.  Each row of E is
    kept as integers over one denominator, so a solve is integer dot
    products and one Fraction per pivot.
    """

    def __init__(self, A):
        n = len(A)
        m = len(A[0]) if n else 0
        aug = [A[i][:] + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
        R, pivots = rref(aug)
        self.pivots = [p for p in pivots if p < m]
        self.ncols = m
        r = len(self.pivots)
        self._solution_rows = [_over_common_denominator(row[m:]) for row in R[:r]]
        self._null_rows = [_over_common_denominator(row[m:])[0] for row in R[r:]]

    def solve(self, b):
        """The solution of A x = b for a sparse column b, as a list, or None
        if b is not in the column span."""
        d = lcm(*(c.denominator for c in b.values()))
        nonzero = [(j, c.numerator * (d // c.denominator)) for j, c in b.items()]

        def dot(ints):
            return sum(ints[j] * v for j, v in nonzero)

        if any(dot(ints) for ints in self._null_rows):
            return None
        x = [ZERO] * self.ncols
        for p, (ints, e) in zip(self.pivots, self._solution_rows):
            s = dot(ints)
            if s:
                x[p] = Fraction(s, e * d)
        return x


def _over_common_denominator(row):
    """(ints, d) with row[j] = ints[j] / d, d the least common denominator."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def inverse(A):
    n = len(A)
    X = solve(A, identity(n))
    if X is None:
        return None
    if not mat_eq(mat_mul(A, X), identity(n)):
        return None
    return X

