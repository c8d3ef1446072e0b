"""Small exact and floating linear algebra kit.

Exact routines take matrices as sequences of rows of Fractions and
never approximate.  The floating rank uses an SVD with a relative
threshold plus an explicit undecided band, so borderline spectra are
reported as such instead of being silently rounded to a rank.
"""

from fractions import Fraction

import numpy as np

_F0 = Fraction(0)


def exact_rref(rows, ncols):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        m[r] = [x / d for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def exact_rank(rows, ncols=None):
    rows = list(rows)
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(exact_rref(rows, ncols)[1])


def exact_kernel(rows, ncols):
    """Basis of the right null space, as lists of Fractions.

    Free variables are set to 1 one at a time, so the basis is
    deterministic given the row order.
    """
    rref, pivots = exact_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [_F0] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def exact_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return _F0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def exact_inverse(rows):
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    rref, pivots = exact_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rref]


def column_span_equal(a_rows, b_rows):
    """Whether two matrices with the same row count share a column span.

    Checked exactly through ranks: span(A) == span(B) iff
    rank(A) == rank(B) == rank([A | B]).
    """
    ra = exact_rank(a_rows)
    rb = exact_rank(b_rows)
    if ra != rb:
        return False
    joined = [list(x) + list(y) for x, y in zip(a_rows, b_rows)]
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
