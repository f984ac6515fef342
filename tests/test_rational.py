"""Sparse exact linear algebra against the dense reference, and the shapes
the dense form could not hold (no rows, no columns, wide matrices)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_rational as dense
from hkrlab import rational as ql

# zero-heavy, with entries whose denominators are not 1
ENTRIES = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(c) for c in (1, -1, 2)] + [Fraction(1, 3), Fraction(-3, 2), Fraction(5, 4)]
)


@st.composite
def matrices(draw):
    """A dense matrix of shape 0..8 x 0..8; some rows are combinations of
    earlier ones, so the rank is often below both dimensions."""
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows = []
    for i in range(n):
        if i >= 2 and draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c = draw(ENTRIES)
            rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append(draw(st.lists(ENTRIES, min_size=m, max_size=m)))
    return rows, n, m


@st.composite
def right_hand_sides(draw, M, n, m):
    """b = M x for a random x (a consistent system), or a random b."""
    if draw(st.booleans()):
        x = draw(st.lists(ENTRIES, min_size=m, max_size=m))
        b = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in M]
    else:
        b = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    return {i: c for i, c in enumerate(b) if c}


def densify(col, n):
    return [col.get(i, Fraction(0)) for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_the_dense_reference(data):
    M, n, m = data
    cols = dense.to_columns(M, m)
    rows, pivots = ql.rref(cols, n)
    R, want_pivots = dense.rref(M)
    assert pivots == want_pivots
    assert [densify(row, m) for row in rows] + [[Fraction(0)] * m] * (n - len(rows)) == R
    assert all(all(row.values()) for row in rows)
    assert ql.rank(cols, n) == dense.rank(M)
    if n:  # the dense nullspace of a matrix with no rows is empty
        assert ql.nullspace(cols, n) == dense.nullspace(M)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solves_and_inverse_match_the_dense_reference(data):
    M, n, m = data.draw(matrices())
    cols = dense.to_columns(M, m)
    solver = ql.Solver(cols, n)
    for _ in range(3):
        b = data.draw(right_hand_sides(M, n, m))
        x = ql.solve(cols, n, b)
        assert solver.solve(b) == x
        if x is not None:
            assert all(x.values())
            assert ql.compose_columns(cols, [x]) == [b]
        if n:  # the dense solves read the number of unknowns off the first row
            want = dense.solve_vec(M, b)
            assert (x if x is None else densify(x, m)) == want
            assert dense.Solver(M).solve(b) == want
    inv = ql.inverse(cols, n)
    if n != m:
        assert inv is None
    else:
        want = dense.inverse(M)
        assert inv == (want if want is None else dense.to_columns(want, n))


def test_inverse_of_a_wide_or_tall_matrix_is_none():
    wide = [{0: Fraction(1)}, {1: Fraction(1)}, {}]
    assert ql.inverse(wide, 2) is None
    assert ql.inverse([{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1)}], 3) is None
    assert ql.inverse(wide[:2], 2) == ql.identity(2)


@pytest.mark.parametrize("nrows, ncols", [(0, 3), (3, 0), (0, 0)], ids=["0x3", "3x0", "0x0"])
def test_matrices_with_no_rows_or_no_columns(nrows, ncols):
    cols = [{} for _ in range(ncols)]
    assert ql.rref(cols, nrows) == ([], [])
    assert ql.rank(cols, nrows) == 0
    # every vector is in the kernel
    assert ql.nullspace(cols, nrows) == ql.identity(ncols)
    solver = ql.Solver(cols, nrows)
    assert ql.solve(cols, nrows, {}) == solver.solve({}) == {}
    if nrows:
        assert ql.solve(cols, nrows, {0: Fraction(1)}) is solver.solve({0: Fraction(1)}) is None
    assert ql.inverse(cols, nrows) == ([] if nrows == ncols else None)


def _entries(result):
    """Every entry of a sparse column, a list of columns, or rref's rows."""
    if result is None:
        return []
    if isinstance(result, dict):
        return list(result.values())
    return [x for col in result for x in col.values()]


def test_int_columns_stay_exact():
    assert ql.rref([{0: 2}, {0: 1}], 1) == ([{0: Fraction(1), 1: Fraction(1, 2)}], [0])
    assert ql.solve([{0: 3}], 1, {0: 1}) == {0: Fraction(1, 3)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_columns_give_the_fraction_results(data):
    # rref, nullspace, solve, Solver.solve and inverse return Fractions on
    # int columns, equal to their results on the same columns as Fractions
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    ints = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -4])
    cols = [
        {i: c for i, c in enumerate(data.draw(st.lists(ints, min_size=n, max_size=n))) if c} for _ in range(m)
    ]
    b = {i: c for i, c in enumerate(data.draw(st.lists(ints, min_size=n, max_size=n))) if c}
    fcols = [{i: Fraction(c) for i, c in col.items()} for col in cols]
    fb = {i: Fraction(c) for i, c in b.items()}
    pairs = [
        (ql.rref(cols, n)[0], ql.rref(fcols, n)[0]),
        (ql.nullspace(cols, n), ql.nullspace(fcols, n)),
        (ql.solve(cols, n, b), ql.solve(fcols, n, fb)),
        (ql.Solver(cols, n).solve(b), ql.Solver(fcols, n).solve(fb)),
        (ql.inverse(cols[:n], n), ql.inverse(fcols[:n], n)),
    ]
    for got, want in pairs:
        assert got == want
        assert all(type(x) is Fraction for x in _entries(got))
