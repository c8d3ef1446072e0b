"""The exact linear algebra kit against sympy as an independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nsx import _linalg

# Zeros, small ints, small rationals, and numerators and denominators
# beyond 2**64, so the integer scaling meets long integers.
entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70)),
)


# The entries of marked int rows: zeros, small ints, bools, and ints of
# 2**63 and beyond in absolute value.
int_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.booleans(),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63)),
)


@st.composite
def matrices(draw, nrows=st.integers(0, 6), ncols=st.integers(1, 7), square=False, entry=entries):
    """Rational matrices, wide and tall, half of them built as a product
    through fewer dimensions (so rank-deficient), with some rows and
    columns then set to zero."""
    r = draw(nrows)
    c = r if square else draw(ncols)
    if draw(st.booleans()):
        k = draw(st.integers(0, max(min(r, c) - 1, 0)))
        left = [[draw(entry) for _ in range(k)] for _ in range(r)]
        right = [[draw(entry) for _ in range(c)] for _ in range(k)]
        m = [[sum((left[i][t] * right[t][j] for t in range(k)), 0) for j in range(c)] for i in range(r)]
    else:
        m = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if r and c:
        for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
            m[i] = [0] * c
        for j in draw(st.sets(st.integers(0, c - 1), max_size=2)):
            for row in m:
                row[j] = 0
    return m


def _sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])


def _fraction(q):
    return Fraction(int(q.p), int(q.q))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_and_rref_match_sympy(m):
    ncols = len(m[0]) if m else 1
    want, want_pivots = _sympy(m, ncols).rref()
    rank = len(want_pivots)
    assert _linalg.exact_rank(m, ncols) == rank
    if m:
        assert _linalg.exact_rank(m) == rank
    rref, pivots = _linalg.exact_rref(m, ncols)
    assert pivots == list(want_pivots)
    assert len(rref) == rank
    for i, row in enumerate(rref):
        assert all(type(x) is Fraction for x in row)
        assert row == [_fraction(want[i, j]) for j in range(ncols)]
    # An integer basis of the same row space.
    basis = _linalg.row_basis(m, ncols)
    assert len(basis) == rank
    assert all(type(x) is int for row in basis for x in row)
    if basis:
        assert _sympy(basis, ncols).rank() == rank
        assert _sympy(m + basis, ncols).rank() == rank


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_is_a_basis_of_the_null_space(m):
    ncols = len(m[0]) if m else 1
    basis = _linalg.exact_kernel(m, ncols)
    pivots = _sympy(m, ncols).rref()[1]
    assert len(basis) == ncols - len(pivots)
    for v in basis:
        assert len(v) == ncols
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    # Each vector sets its own free variable to 1 and the others to 0,
    # so the basis is independent.
    free = [c for c in range(ncols) if c not in pivots]
    for v, f in zip(basis, free):
        assert [v[c] for c in free] == [int(c == f) for c in free]
    # The integer kernel holds a positive multiple of each vector.
    integer = _linalg.integer_kernel(m, ncols)
    assert len(integer) == len(basis)
    for w, v, f in zip(integer, basis, free):
        assert all(type(x) is int for x in w)
        assert w[f] > 0 and w == [w[f] * x for x in v]


@given(matrices(nrows=st.integers(0, 6), square=True))
@settings(max_examples=150, deadline=None)
def test_det_and_inverse_match_sympy(m):
    n = len(m)
    s = _sympy(m, n)
    det = _linalg.exact_det(m)
    assert type(det) is Fraction
    assert det == _fraction(s.det())
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            _linalg.exact_inverse(m)
        return
    inv = _linalg.exact_inverse(m)
    want = s.inv()
    assert inv == [[_fraction(want[i, j]) for j in range(n)] for i in range(n)]


@given(matrices(nrows=st.integers(1, 5), ncols=st.integers(1, 4)), st.data())
@settings(max_examples=100, deadline=None)
def test_column_span_equal_matches_sympy(a, data):
    b = data.draw(matrices(nrows=st.just(len(a)), ncols=st.integers(1, 4)))
    sa, sb = _sympy(a, len(a[0])), _sympy(b, len(b[0]))
    rank = sa.rank()
    want = rank == sb.rank() == sa.row_join(sb).rank()
    assert _linalg.column_span_equal(a, b) is want
    assert _linalg.column_span_equal(a, a)


def _marked(m):
    return [_linalg.IntRow(row) for row in m]


@given(matrices(entry=int_entries))
@settings(max_examples=150, deadline=None)
def test_marked_int_rows_match_sympy(m):
    # IntRows are taken without a scan of their entries' types; every
    # answer is sympy's, and the same as on the unmarked rows.
    ncols = len(m[0]) if m else 1
    marked = _marked(m)
    pivots = _sympy(m, ncols).rref()[1]
    rank = len(pivots)
    assert _linalg.exact_rank(marked, ncols) == rank
    if m:
        assert _linalg.exact_rank(marked) == rank
    basis = _linalg.row_basis(marked, ncols)
    assert len(basis) == rank
    assert all(isinstance(x, int) for row in basis for x in row)
    if basis:
        assert _sympy(basis, ncols).rank() == rank
        assert _sympy(m + [list(row) for row in basis], ncols).rank() == rank
    kernel = _linalg.integer_kernel(marked, ncols)
    assert kernel == _linalg.integer_kernel(m, ncols)
    assert len(kernel) == ncols - rank
    free = [c for c in range(ncols) if c not in pivots]
    for v, f in zip(kernel, free):
        assert all(type(x) is int for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        assert v[f] > 0 and all(v[c] == 0 for c in free if c != f)
    # The rows given are left as they were.
    assert marked == _marked(m)


@given(matrices(nrows=st.integers(1, 5), ncols=st.integers(1, 4), entry=int_entries), st.data())
@settings(max_examples=100, deadline=None)
def test_column_span_equal_on_marked_rows_matches_sympy(a, data):
    b = data.draw(matrices(nrows=st.just(len(a)), ncols=st.integers(1, 4), entry=int_entries))
    sa, sb = _sympy(a, len(a[0])), _sympy(b, len(b[0]))
    want = sa.rank() == sb.rank() == sa.row_join(sb).rank()
    assert _linalg.column_span_equal(_marked(a), _marked(b)) is want
    assert _linalg.column_span_equal(_marked(a), b) is want
    assert _linalg.column_span_equal(_marked(a), _marked(a))


def test_column_span_equal_needs_equal_row_counts():
    with pytest.raises(ValueError, match="row counts"):
        _linalg.column_span_equal([[1], [0]], [[1]])
    with pytest.raises(ValueError, match="row counts"):
        _linalg.column_span_equal([[1]], [[1], [0]])


def test_empty_and_degenerate_shapes():
    assert _linalg.exact_rank([]) == 0
    assert _linalg.exact_rref([], 3) == ([], [])
    assert _linalg.exact_kernel([], 2) == [[1, 0], [0, 1]]
    assert _linalg.exact_det([]) == 1
    assert _linalg.exact_inverse([]) == []
    assert _linalg.exact_rank([[0, 0], [0, 0]]) == 0
    assert _linalg.exact_det([[Fraction(1, 2), 3], [Fraction(1, 6), 1]]) == 0


def test_bool_entries_decide_as_their_ints():
    # A row holding a bool is not a row of ints, and is scaled like any
    # other; True and 1 give the same answers.
    with_bool = [[True, 2], [2, 4], [0, True]]
    with_ints = [[1, 2], [2, 4], [0, 1]]
    assert _linalg.exact_rank(with_bool) == _linalg.exact_rank(with_ints) == 2
    assert _linalg.exact_rref(with_bool, 2) == _linalg.exact_rref(with_ints, 2)
    assert _linalg.exact_kernel([[True, 2]], 2) == _linalg.exact_kernel([[1, 2]], 2) == [[-2, 1]]
