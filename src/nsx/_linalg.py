"""Small exact and floating linear algebra kit.

Exact routines take matrices as sequences of rows of Fractions or ints and
never approximate.  Each routine puts its rows into ints first: a row
holding a Fraction is scaled by the lcm of its denominators, a row of ints
is taken as it is, and an `IntRow`, a row marked as holding only ints, is
taken with no scan of its entries.  One fraction-free elimination on the
int rows then serves rank, RREF, row basis, kernel, determinant and
inverse: a row operation p*a - f*b is followed by division by the row's
content, so no Fraction is built until an output needs one.  Point
matrices arrive as IntRows over one positive scale (pointcheck._point_rows
and the tables of pointcheck._point_table); integer_kernel and row_basis
answer in ints, so a caller on such rows builds no Fraction at all.  The
floating rank uses an SVD with a relative threshold plus an explicit
undecided band, so borderline spectra are reported as such instead of
being silently rounded to a rank.
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

_F0 = Fraction(0)


class IntRow(tuple):
    """A matrix row that holds only ints.  The exact routines take it as it
    is, without checking its entries' types."""

    __slots__ = ()


def _integer_rows(rows):
    """Each row times the lcm of its denominators, as rows of ints, and
    the product of those lcms.  An IntRow or a row of ints is kept as it
    is."""
    rows = list(rows)
    # One C-level pass over the rows: point matrices arrive as IntRows.
    if {*map(type, rows)} == {IntRow}:
        return rows, 1
    out = []
    scale = 1
    for row in rows:
        # One C-level pass per row.
        if type(row) is IntRow or {*map(type, row)} == {int}:
            # Rows are replaced, never edited in place, so no copy is made.
            out.append(row)
            continue
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        den = lcm(*[x.denominator for x in row])
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // x.denominator) for x in row])
            scale *= den
    return out, scale


def _eliminate(rows, ncols, reduced):
    """`_reduce` of rows put into ints by `_integer_rows`."""
    m, den = _integer_rows(rows)
    return _reduce(m, den, ncols, reduced)


def _reduce(m, den, ncols, reduced):
    """Fraction-free Gaussian elimination of the int rows m over their
    first ncols columns, m a list this call may reorder, den the scale of
    `_integer_rows`.

    Returns (int_rows, pivots, num, den).  The first len(pivots) rows are
    the pivot rows, in order.  A row p*a - f*b is divided by the gcd of its
    entries, so the integers stay small.  With reduced, each pivot column
    is zero outside its pivot row, so pivot row i divided by its pivot is
    row i of the RREF.  Without it, only the rows below a pivot are cleared
    (echelon form), and a square matrix of full rank has determinant
    num / den times the product of the diagonal.
    """
    n = len(m)
    num = 1
    pivots = []
    r = 0
    for c in range(ncols):
        if r == n:
            break
        for piv in range(r, n):
            if m[piv][c]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            num = -num
        prow = m[r]
        p = prow[c]
        for i in range(0 if reduced else r + 1, n):
            row = m[i]
            f = row[c]
            if not f or i == r:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(row, prow)]
            # The new row is (a*row - b*prow) / g, so det scales by a / g.
            den *= a
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
                num *= g
            m[i] = row
        pivots.append(c)
        r += 1
    return m, pivots, num, den


def exact_rref(rows, ncols):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m, pivots, _, _ = _eliminate(rows, ncols, True)
    rref = []
    for row, c in zip(m, pivots):
        p = row[c]
        rref.append([Fraction(x, p) for x in row])
    return rref, pivots


def row_basis(rows, ncols):
    """A basis of the row space: the pivot rows of an echelon form, as
    rows of ints (lists, or IntRows given and left as they were)."""
    m, pivots, _, _ = _eliminate(rows, ncols, False)
    return m[: len(pivots)]


def exact_rank(rows, ncols=None):
    m, den = _integer_rows(rows)
    if not m:
        return 0
    if ncols is None:
        ncols = len(m[0])
    return len(_reduce(m, den, ncols, False)[1])


def _kernel(rows, ncols):
    """(s, v) per free column f, in order: v an integer null vector with
    s > 0 at f and 0 at every other free column."""
    m, pivots, _, _ = _eliminate(rows, ncols, True)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        scale = lcm(*[row[p] for row, p in zip(m, pivots) if row[f]])
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(m, pivots):
            if row[f]:
                v[p] = -row[f] * scale // row[p]
        out.append((scale, v))
    return out


def integer_kernel(rows, ncols):
    """Basis of the right null space as lists of ints, each a positive
    multiple of the matching exact_kernel vector."""
    return [v for _, v in _kernel(rows, ncols)]


def exact_kernel(rows, ncols):
    """Basis of the right null space, as lists of Fractions.

    Free variables are set to 1 one at a time, so the basis is
    deterministic given the row order.
    """
    return [[Fraction(x, s) for x in v] for s, v in _kernel(rows, ncols)]


def exact_det(rows):
    n = len(rows)
    m, pivots, num, den = _eliminate(rows, n, False)
    if len(pivots) < n:
        return _F0
    for i in range(n):
        num *= m[i][i]
    return Fraction(num, den)


def exact_inverse(rows):
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    m, pivots, _, _ = _eliminate(aug, 2 * n, True)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(m[:n])]


def column_span_equal(a_rows, b_rows):
    """Whether two matrices with the same row count share a column span.

    Checked exactly through ranks: span(A) == span(B) iff
    rank(A) == rank(B) == rank([A | B]).
    """
    if len(a_rows) != len(b_rows):
        raise ValueError(
            f"column spans compared need equal row counts, got {len(a_rows)} and {len(b_rows)}"
        )
    ra = exact_rank(a_rows)
    rb = exact_rank(b_rows)
    if ra != rb:
        return False
    joined = [
        IntRow(x + y) if type(x) is type(y) is IntRow else list(x) + list(y) for x, y in zip(a_rows, b_rows)
    ]
    return exact_rank(joined) == ra


def inertia(rows):
    """Signature (pos, neg, zero) of a symmetric rational matrix.

    Symmetric Gaussian congruence with 1x1 pivots where a nonzero
    diagonal exists and hyperbolic 2x2 pivots otherwise.  Exact, so
    semidefiniteness decisions carry no tolerance.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("inertia needs a symmetric matrix")
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is not None:
            d = m[piv][piv]
            if d > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in active if i != piv]
            for r in rest:
                if m[r][piv]:
                    f = m[r][piv] / d
                    for s in rest:
                        m[r][s] -= f * m[piv][s]
            active = rest
            continue
        pair = None
        for ii, i in enumerate(active):
            for j in active[ii + 1 :]:
                if m[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        a = m[i][j]
        pos += 1
        neg += 1
        rest = [r for r in active if r not in pair]
        for r in rest:
            bi, bj = m[r][i], m[r][j]
            if bi or bj:
                for s in rest:
                    m[r][s] -= (bi * m[j][s] + bj * m[i][s]) / a
        active = rest
    return pos, neg, zero


def float_rank(matrix, threshold=1e-8, band_floor=1e-10):
    """Numeric rank with an undecided band.

    Singular values above threshold*scale count toward the rank, values
    below band_floor*scale count as zero, and anything in between sets
    the undecided flag.  scale is the largest singular value, so the
    thresholds are relative; an exactly zero matrix is rank 0 decided.
    A matrix with a NaN or infinite entry has no SVD and is rank 0
    undecided.
    """
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0, False
    if not np.all(np.isfinite(a)):
        return 0, True
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or float(sv[0]) == 0.0:
        return 0, False
    scale = float(sv[0])
    hi = threshold * scale
    lo = band_floor * scale
    rank = int(np.sum(sv > hi))
    undecided = bool(np.any((sv <= hi) & (sv >= lo)))
    return rank, undecided
