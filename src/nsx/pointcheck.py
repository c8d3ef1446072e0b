"""Pointwise linear-algebra verdicts for forms and maps.

Everything here answers a question at a point or over a prepared sample
set: the rank of a 2-form, the rank of a map's Jacobian, the
intrinsic-gradient rank of a form, the 4-dimensional-kernel degeneracy
test with its semi-definiteness condition, the contact-sign sweep, and
the dyadic search for a stabilizing constant.

Rational inputs stay rational: rank, kernel, and signature questions on
exact matrices are decided by exact elimination with no tolerance at
all.  An exact point matrix (a 2-form's matrix, a Jacobian, a gradient
matrix, the partials behind D_K) is built as integer rows over one
positive scale, which changes no rank, kernel, image or sign; no Fraction
is built on the way.  The rows are `_linalg.IntRow`s, so the elimination
takes them without scanning their entries.  At a point of a point set
(`points.PointView`) the rows come from integer columns built once per
matrix and set: a table of every point's rows, built once and read by one
index.  Elsewhere, or where an entry has no column value, they come from
symexpr's integer-pair values at that point.  A matrix with a float entry
goes through an SVD with a relative threshold and an explicit undecided
band; one with a NaN or infinite entry decides nothing.

A point check over a point set runs once per class of points that agree
on the coordinates its entries read (`per_class`), and every other point
of the class reads its class's verdict.

`Outcome` is the one outcome record of a sampled check, here and in
`locus`, and its `verdict` the one verdict rule.  `point_claim` is the
one loop that records point verdicts on it: a NaN or infinite matrix
under non_finite, any other undecided verdict under band, and a decided
one that does not hold as a counterexample; `rank_claim` is its rank
case.  The stabilize search records each constant it tries on its own
outcome through `rank_claim`, and stops at the first that does not fail.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from operator import mul

import numpy as np

from . import _linalg
from ._linalg import IntRow
from .charts import ChartMap
from .errors import DomainError
from .points import PointSet, PointView
from .records import FrozenRecord, Record
from .symexpr import _EXP, _PI, DEFAULT_REGISTRY, _point_value, compile_numpy, rat, ratio_float

RANK_THRESHOLD = 1e-8
RANK_BAND_FLOOR = 1e-10


def check_tolerance(tol):
    """tol, when it is a finite number at least 0; otherwise a DomainError
    naming it.  A NaN tol would make every comparison with it false."""
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"a tolerance must be a finite number at least 0, got {tol!r}")
    return tol


class RankVerdict(FrozenRecord):
    """A matrix's rank; undecided inside the float band, or when an entry
    is NaN or infinite (non_finite)."""

    _fields = ("rank", "undecided", "exact", "non_finite")

    def __init__(self, rank, undecided, exact, non_finite=False):
        vars(self).update(rank=rank, undecided=undecided, exact=exact, non_finite=non_finite)


def _finite(rows):
    return all(map(math.isfinite, [x for row in rows for x in row]))


def per_class(check, subject, envs):
    """check(subject, env) at every point of envs, in order, as an iterator
    that computes each verdict when it is read.

    subject is a form or a map, and check one of this module's point
    checks.  Over a point set, check runs once per class of points that
    agree on the coordinates subject's entries read (`PointSet.classes`):
    a map's Jacobian, a form's coefficients, which its partials and wedge
    powers read no more of.  Every other point of a class gets the
    verdict of its class's first point, the same object, which no caller
    changes.  Elsewhere, where no two points agree, or over a set that
    does not look for classes (`PointSet.may_repeat`), check runs at every
    point.
    """
    reps = None
    if isinstance(envs, PointSet) and envs.may_repeat:
        if isinstance(subject, ChartMap):
            exprs = [e for row in subject.jacobian() for e in row]
        else:
            exprs = subject.comps.values()
        reps = envs.classes(set().union(*(e.free_coords() for e in exprs)))
    if reps is None:
        return map(check, repeat(subject), envs)
    verdicts = {}

    def verdict(rep, env):
        if rep not in verdicts:
            verdicts[rep] = check(subject, env)
        return verdicts[rep]

    return map(verdict, reps, envs)


_MAX_RECORDED_COUNTEREXAMPLES = 5


class Outcome(Record):
    """The outcome record of a sampled check.  Samples are counted per side:
    on the locus ("on") or off it ("off"), each either failed, non-finite,
    in the band, or holding; a check without a locus counts on "on".

    `verdict` is the one verdict rule of a sampled check: undecided when
    any sample was undecided (or the check was left undecided), else pass
    unless a counterexample or a failed requirement was recorded."""

    _fields = (
        "kind", "passed", "on_count", "off_count", "on_failures", "off_failures", "on_non_finite",
        "off_non_finite", "on_band", "off_band", "counterexamples", "notes", "undecided",
    )

    def __init__(
        self, kind, passed=True, on_count=0, off_count=0, on_failures=0, off_failures=0, on_non_finite=0,
        off_non_finite=0, on_band=0, off_band=0, counterexamples=None, notes=None, undecided=False,
    ):
        self.kind = kind
        self.passed = passed
        self.on_count = on_count
        self.off_count = off_count
        self.on_failures = on_failures
        self.off_failures = off_failures
        self.on_non_finite = on_non_finite
        self.off_non_finite = off_non_finite
        self.on_band = on_band
        self.off_band = off_band
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.notes = [] if notes is None else notes
        self.undecided = undecided

    @property
    def verdict(self):
        if self.undecided:
            return "undecided"
        return "pass" if self.passed else "fail"

    @property
    def non_finite(self):
        return self.on_non_finite + self.off_non_finite

    @property
    def band(self):
        return self.on_band + self.off_band

    def fail(self, note=None):
        self.passed = False
        if note:
            self.notes.append(note)

    def add_undecided(self, side, band, non_finite=0):
        """Count samples on `side` that no value decides, inside the band
        or non-finite; any such sample leaves the outcome undecided."""
        if side == "on":
            self.on_band += band
            self.on_non_finite += non_finite
        else:
            self.off_band += band
            self.off_non_finite += non_finite
        if band or non_finite:
            self.undecided = True

    def add_counterexample(self, env, reason, value=None, side=None):
        self.passed = False
        if side == "on":
            self.on_failures += 1
        elif side == "off":
            self.off_failures += 1
        if len(self.counterexamples) < _MAX_RECORDED_COUNTEREXAMPLES:
            point = {c: _printable(v) for c, v in env.items()}
            rec = {"point": point, "reason": reason}
            if value is not None:
                rec["value"] = _printable(value)
            self.counterexamples.append(rec)


def _printable(v):
    return v if isinstance(v, float) else str(v)


def point_claim(outcome, envs, check, subject, failure, side):
    """Hold the verdict `check(subject, env)`, taken by `per_class`, at
    every point of envs, on the outcome's `side`: a verdict on a matrix
    with a NaN or infinite entry counts under the side's non_finite, any
    other undecided verdict under its band, and a verdict for which
    failure(verdict) gives a reason is a counterexample with that reason;
    failure gives None where the point holds.  Returns the verdicts, in
    the order of envs."""
    verdicts = list(per_class(check, subject, envs))
    for env, verdict in zip(envs, verdicts):
        if verdict.non_finite:
            outcome.add_undecided(side, 0, 1)
        elif verdict.undecided:
            outcome.add_undecided(side, 1)
        elif (reason := failure(verdict)) is not None:
            outcome.add_counterexample(env, reason, side=side)
    return verdicts


def rank_claim(outcome, envs, check, subject, expected, label, side):
    """`point_claim` of a rank verdict held to `expected`: any other decided
    rank is a counterexample, "<label>: rank r, expected e"."""

    def failure(v):
        return None if v.rank == expected else f"{label}: rank {v.rank}, expected {expected}"

    return point_claim(outcome, envs, check, subject, failure, side)


# The point value of a zero entry.
_ZERO = (0, 1)


def _point_rows(values):
    """A matrix of point values as integer rows over one positive scale.

    values holds what symexpr._point_value gives: exact pairs (p, q) with
    q > 0, or floats.  When every value is a pair, returns (rows, s) with
    rows `_linalg.IntRow`s and s the lcm of the q's, so entry / s is each
    value.  Otherwise returns the values as floats and None, so the matrix
    goes to the float SVD.  A positive scale keeps every rank, kernel, RREF
    and sign decided on the rows.  This is the path at a plain env, and at
    a point of a set whose matrix has an entry without a column value
    (see `_matrix_rows`).
    """
    try:
        s = math.lcm(*[q for row in values for _, q in row])
    except TypeError:  # a float value is not a pair
        return [[ratio_float(*x) if type(x) is tuple else float(x) for x in r] for r in values], None
    if s == 1:
        return [IntRow([p for p, _ in row]) for row in values], 1
    return [IntRow([p * (s // q) for p, q in row]) for row in values], s


def _matrix_rows(env, owner, tag, entries):
    """A point matrix at env as `_point_rows` decides it: (rows, s).

    entries() gives the matrix as rows of (Expr, sign) pairs, None for a
    zero entry.  At a point of a point set, entries() is called once per
    (owner, tag) and set, and so is `_point_table`: where every entry has
    a column value, the point's rows are one index into its table.
    Elsewhere each distinct entry is evaluated once at the point.
    """
    if type(env) is PointView:
        points = env.points
        table, s, entries = points.cached(owner, tag, lambda: _point_table(points, entries()))
        if table is not None:
            return table[env.index], s
    else:
        entries = entries()
    values = {}

    def value(entry):
        if entry is None:
            return _ZERO
        expr, sign = entry
        v = values.get(id(expr))
        if v is None:
            v = values[id(expr)] = _point_value(expr, env)
        if sign == 1:
            return v
        return (-v[0], v[1]) if type(v) is tuple else -v

    return _point_rows([[value(entry) for entry in row] for row in entries])


def _point_table(points, entries):
    """(table, s, entries): table[i] the rows of the matrix at point i, as
    IntRows over one positive scale s, the lcm of the entries' column
    denominators.  Where an entry has no column value, found before any
    column is computed, table and s are None."""
    exprs = {id(entry[0]): entry[0] for row in entries for entry in row if entry is not None}
    if not points.has_columns(exprs.values()):
        return None, None, entries
    values = {key: points.column(expr) for key, expr in exprs.items()}
    s = math.lcm(*[den for _, den in values.values()])
    zeros = [0] * len(points)

    def scaled(entry):
        if entry is None:
            return zeros
        nums, den = values[id(entry[0])]
        m = s // den * entry[1]
        return nums if m == 1 else [x * m for x in nums]

    # A chart has a coordinate, so the matrix has a row and a column.  Row
    # r at every point is zip's transpose of its entries' columns.
    by_row = [map(IntRow, zip(*map(scaled, row))) for row in entries]
    return list(map(list, zip(*by_row))), s, entries


def _form_entries(form):
    n = form.chart.dim
    m = [[None] * n for _ in range(n)]
    for (i, j), coeff in form.comps.items():
        m[i][j] = (coeff, 1)
        m[j][i] = (coeff, -1)
    return m


def _form_rows(form, env):
    """The skew matrix of a 2-form at env as `_point_rows` gives it."""
    if form.degree != 2:
        raise DomainError("form_matrix_at needs a 2-form")
    return _matrix_rows(env, form, "form", lambda: _form_entries(form))


def form_matrix_at(form, env):
    """Skew matrix of a 2-form at a point, with its exactness flag: a
    matrix of Fractions when every entry is exact, of floats otherwise."""
    rows, s = _form_rows(form, env)
    if s is None:
        return rows, False
    return [[Fraction(x, s) for x in row] for row in rows], True


@lru_cache(maxsize=None)
def _exact_verdict(rank):
    # A verdict is frozen, so one per rank serves every exact point.
    return RankVerdict(rank, False, True)


def _matrix_rank(rows, scale):
    if scale is not None:
        return _exact_verdict(_linalg.exact_rank(rows))
    rank, und = _linalg.float_rank(rows, RANK_THRESHOLD, RANK_BAND_FLOOR)
    return RankVerdict(rank, und, False, not _finite(rows))


def rank_at(form, env):
    return _matrix_rank(*_form_rows(form, env))


def map_rank_at(cmap, env):
    jac = cmap.jacobian()
    return _matrix_rank(*_matrix_rows(env, cmap, "jacobian", lambda: [[(e, 1) for e in row] for row in jac]))


def _gradient_entries(form):
    cols = list(combinations(range(form.chart.dim), form.degree))
    return [
        [None if (c := partial.comps.get(idx)) is None else (c, 1) for idx in cols]
        for partial in form.partials()
    ]


def gradient_matrix_at(form, env):
    """First partials of every coefficient: rows by coordinate, columns
    by increasing index tuple over the full C(n, k) tuple space, as
    _point_rows gives them (integer rows and a scale, or floats and None)."""
    return _matrix_rows(env, form, "gradient", lambda: _gradient_entries(form))


def gradient_rank_at(form, env):
    return _matrix_rank(*gradient_matrix_at(form, env))


# -- degeneracy-point test ----------------------------------------------

# Pair ordering for the 6 coordinates of a 2-form on a 4-dim kernel.
_K_PAIRS = list(combinations(range(4), 2))


def _wedge_square_gram(u, v):
    # Polarization of q(u) = (u wedge u) against the kernel orientation:
    # pairs ordered (01, 02, 03, 12, 13, 23).
    return (
        u[0] * v[5]
        + u[5] * v[0]
        - u[1] * v[4]
        - u[4] * v[1]
        + u[2] * v[3]
        + u[3] * v[2]
    )


class DegeneracyVerdict(Record):
    """The degeneracy test's outcome at one point.  kernel and d_matrix are
    integer: each kernel vector is a positive multiple of exact_kernel's,
    and D_K's rows and columns carry positive scales.

    A verdict is built whole and never changed: `per_class` gives one
    verdict object to every point of a class.  It is a mutable record all
    the same, whose `__init__` is plain assignments, the cheapest build: a
    sweep of distinct points builds one per point."""

    _fields = (
        "passed", "reason", "rank", "kernel_dim", "kernel", "d_matrix", "image_dim", "ker_dk_dim",
        "q_signature", "q_sign", "grad_kernel_consistent", "exact", "non_finite", "undecided",
    )

    def __init__(
        self, passed, reason, rank=None, kernel_dim=None, kernel=None, d_matrix=None, image_dim=None,
        ker_dk_dim=None, q_signature=None, q_sign=None, grad_kernel_consistent=None, exact=True,
        non_finite=False, undecided=False,
    ):
        self.passed = passed
        self.reason = reason
        self.rank = rank
        self.kernel_dim = kernel_dim
        self.kernel = [] if kernel is None else kernel
        self.d_matrix = [] if d_matrix is None else d_matrix
        self.image_dim = image_dim
        self.ker_dk_dim = ker_dk_dim
        self.q_signature = q_signature
        self.q_sign = q_sign
        self.grad_kernel_consistent = grad_kernel_consistent
        self.exact = exact
        self.non_finite = non_finite
        self.undecided = undecided


def _inexact(rows, dim=None):
    """The verdict at a point whose matrix `rows` has a float entry.  A NaN
    or infinite entry decides nothing (non_finite).  With the chart's dim,
    rows are the form's matrix and its decided float rank fails the test
    where it is dim or another rank than dim - 4.  Anything else, a rank in
    the band, a float rank of dim - 4 or a float partial matrix, whose D_K
    no float decides, is a band hit (undecided)."""
    if not _finite(rows):
        return DegeneracyVerdict(False, "non-finite point value", exact=False, non_finite=True)
    if dim is not None:
        rank, undecided = _linalg.float_rank(rows, RANK_THRESHOLD, RANK_BAND_FLOOR)
        if not undecided and rank == dim:
            return DegeneracyVerdict(False, "nondegenerate point", rank=rank, kernel_dim=0, exact=False)
        if not undecided and rank != dim - 4:
            return DegeneracyVerdict(False, "kernel not 4-dim", rank=rank, kernel_dim=dim - rank, exact=False)
    return DegeneracyVerdict(False, "point evaluation is not exact", exact=False, undecided=True)


def near_symplectic_at(form, env):
    """The 4-dim-kernel transversality test at a single point.

    Pass requires: rank of the 2-form drops to dim-4 there, the
    restricted first-order matrix D_K has a 3-dimensional image, and
    the wedge-square quadratic form is semi-definite on that image.
    The kernel consistency between the form and its half-top power is
    computed and reported but does not gate the verdict.  A point whose
    form or partial matrix has a float entry is decided only as far as
    the form's float rank goes (`_inexact`).
    """
    chart = form.chart
    dim = chart.dim
    if dim % 2 or dim < 4:
        raise DomainError("degeneracy test needs an even chart dimension >= 4")
    m, scale = _form_rows(form, env)
    if scale is None:
        return _inexact(m, dim)
    rank = _linalg.exact_rank(m)
    if rank == dim:
        return DegeneracyVerdict(False, "nondegenerate point", rank=rank, kernel_dim=0)
    if rank != dim - 4:
        return DegeneracyVerdict(
            False, "kernel not 4-dim", rank=rank, kernel_dim=dim - rank
        )
    kernel = _linalg.integer_kernel(m, dim)
    partials = []
    for partial in form.partials():
        rows, scale = _form_rows(partial, env)
        if scale is None:
            return _inexact(rows)
        partials.append((rows, scale))
    # D_K on integers: row c, column (a, b) is the sum over coordinates v of
    # k_c[v] * (k_a^T P_v k_b), P_v the partial along v, put over one scale
    # by the weights common / s_v.  Each kernel vector is a positive multiple
    # s_k of exact_kernel's, so row c is scaled by s_c and column (a, b) by
    # s_a*s_b.  Row scales keep the image; column scales multiply the
    # wedge square q by s_0*s_1*s_2*s_3 > 0, so its signature is kept.
    common = math.lcm(*(s for _, s in partials))
    used = [any(k[v] for k in kernel) for v in range(dim)]
    pairings = []
    for v, (rows, s) in enumerate(partials):
        if used[v] and any(map(any, rows)):
            pk = [[sum(map(mul, row, kb)) for row in rows] for kb in kernel]
            weight = common // s
            pairings.append((v, [weight * sum(map(mul, kernel[a], pk[b])) for a, b in _K_PAIRS]))
    d_rows = []
    for k in kernel:
        row = [0] * 6
        for v, g in pairings:
            if kv := k[v]:
                row = [x + kv * y for x, y in zip(row, g)]
        d_rows.append(row)
    image_basis = _linalg.row_basis(d_rows, 6)
    image_dim = len(image_basis)
    fields = dict(
        rank=rank,
        kernel_dim=4,
        kernel=kernel,
        d_matrix=d_rows,
        image_dim=image_dim,
        ker_dk_dim=4 - image_dim,
        grad_kernel_consistent=_grad_kernel_consistent(form, env),
    )
    if image_dim != 3:
        return DegeneracyVerdict(False, "image rank != 3", **fields)
    gram = [
        [_wedge_square_gram(bi, bj) for bj in image_basis] for bi in image_basis
    ]
    pos, neg, zero = _linalg.inertia(gram)
    if pos and neg:
        return DegeneracyVerdict(False, "indefinite image", q_signature=(pos, neg, zero), **fields)
    q_sign = "positive" if pos else ("negative" if neg else "zero")
    return DegeneracyVerdict(True, "", q_signature=(pos, neg, zero), q_sign=q_sign, **fields)


def _grad_kernel_consistent(form, env):
    # Directions that freeze the form to first order should equally
    # freeze its half-top wedge power; compared through column spans.
    half = form.chart.dim // 2
    if half - 1 < 2:
        return True
    a, a_scale = gradient_matrix_at(form, env)
    b, b_scale = gradient_matrix_at(form.wedge_power(half - 1), env)
    if a_scale is None or b_scale is None:
        return None
    return _linalg.column_span_equal(a, b)


# -- contact sweep -------------------------------------------------------


class ContactChartReport(Record):
    _fields = (
        "label", "mode", "sign", "symbolic_value", "samples", "n_pos", "n_neg", "n_zero", "non_finite",
        "min_abs", "worst_point", "jacobian_drops", "jacobian_band", "jacobian_non_finite",
    )

    def __init__(
        self, label, mode, sign, symbolic_value=None, samples=0, n_pos=0, n_neg=0, n_zero=0, non_finite=0,
        min_abs=None, worst_point=None, jacobian_drops=0, jacobian_band=0, jacobian_non_finite=0,
    ):
        self.label = label
        self.mode = mode  # "symbolic" | "sampled"
        self.sign = sign
        self.symbolic_value = symbolic_value
        self.samples = samples
        self.n_pos = n_pos
        self.n_neg = n_neg
        self.n_zero = n_zero
        self.non_finite = non_finite
        self.min_abs = min_abs
        self.worst_point = worst_point
        self.jacobian_drops = jacobian_drops
        self.jacobian_band = jacobian_band
        self.jacobian_non_finite = jacobian_non_finite


class ContactVerdict(Record):
    _fields = ("passed", "orientation_reversed", "reason", "charts", "undecided")

    def __init__(self, passed, orientation_reversed, reason, charts, undecided=False):
        self.passed = passed
        self.orientation_reversed = orientation_reversed
        self.reason = reason
        self.charts = charts
        self.undecided = undecided


def _constant_sign(expr):
    """Sign of an expression that is provably single-signed.

    Enumerated rule: exactly one term whose atoms are powers of pi or
    exponentials.  pi > 0 and exp(u) > 0, so the coefficient decides.
    Returns +1/-1, 0 for the zero expression, None when undecidable.
    """
    if expr.is_zero:
        return 0
    if len(expr.terms) != 1:
        return None
    mono, numerator = expr.terms[0]
    for atom, _e in mono:
        if atom[0] not in (_PI, _EXP):
            return None
    return 1 if numerator > 0 else -1


def _top_form(alpha):
    n = alpha.chart.dim
    if n % 2 == 0:
        raise DomainError("contact test needs an odd-dimensional chart")
    m = (n - 1) // 2
    return alpha.wedge(alpha.d().wedge_power(m))


def contact_test(
    alpha,
    parametrizations=(None,),
    *,
    grid_n=64,
    aux_count=8,
    seed=0,
    tol=1e-9,
):
    """Sign verdict for alpha wedge (d alpha)^m, restricted per chart.

    parametrizations: iterable of ChartMap or None (None = work on
    alpha's own chart).  For parametrized charts the last two source
    coordinates sweep an equiangular grid offset by half a step (so
    grid points avoid the poles of polar charts) and the remaining
    coordinates take aux_count seeded points in [-1, 1].  Identity
    entries first try the symbolic constant-sign rule; if that is
    inconclusive they fall back to grid_n^2 seeded random points.

    Pass needs one strict sign across every sample of every chart;
    all-negative passes flagged orientation_reversed.  A parametrization
    whose Jacobian decidedly drops rank at any sample fails the whole
    check.  Otherwise a Jacobian sample with a NaN or infinite entry, or
    one whose rank lies in the float band (smallest singular value
    between RANK_BAND_FLOOR and RANK_THRESHOLD times the largest), leaves
    it undecided, and so does any chart with a NaN or infinite density
    sample.  A symbolic zero fails, and so do decided signs of both
    kinds, samples beyond tol or symbolic signs; otherwise a sample
    within tol of zero, which no float decides, leaves the check
    undecided.  The Jacobian rank test (`_count_jacobian_drops`) runs one
    SVD batch per group of independent blocks, each over the axes its own
    entries read, and once per parametrization and sampled sub-grid: its
    counts are kept on the map and scaled by each sweep's multiplicity.
    tol must be a finite number at least 0 (`check_tolerance`).
    """
    check_tolerance(tol)
    rng = random.Random(seed)
    reports = []
    for k, parm in enumerate(parametrizations):
        if parm is None:
            beta = alpha
            label = f"chart{k}:{alpha.chart.name}"
        else:
            beta = parm.pullback(alpha)
            label = f"chart{k}:{parm.name}"
        top = _top_form(beta)
        coeff = top.top_coefficient()
        sign = _constant_sign(coeff)
        if sign is not None and sign != 0:
            reports.append(
                ContactChartReport(label, "symbolic", sign, symbolic_value=str(coeff))
            )
            continue
        if sign == 0:
            reports.append(
                ContactChartReport(label, "symbolic", 0, symbolic_value="0")
            )
            continue
        reports.append(
            _sampled_chart_report(
                label, coeff, beta.chart, parm, grid_n, aux_count, rng, tol
            )
        )
    signs = {r.sign for r in reports}
    drops = sum(r.jacobian_drops for r in reports)
    if drops:
        return ContactVerdict(False, False, "degenerate parametrization samples", reports)
    if any(r.jacobian_non_finite for r in reports):
        return ContactVerdict(False, False, "non-finite parametrization samples", reports, undecided=True)
    if any(r.jacobian_band for r in reports):
        return ContactVerdict(False, False, "parametrization samples in band", reports, undecided=True)
    if any(r.non_finite for r in reports):
        return ContactVerdict(False, False, "non-finite samples", reports, undecided=True)
    if signs == {1}:
        return ContactVerdict(True, False, "", reports)
    if signs == {-1}:
        return ContactVerdict(True, True, "uniform negative sign", reports)
    if any(r.sign == 0 and r.mode == "symbolic" for r in reports):
        return ContactVerdict(False, False, "vanishing samples", reports)
    if any(r.n_pos or r.sign == 1 for r in reports) and any(r.n_neg or r.sign == -1 for r in reports):
        return ContactVerdict(False, False, "mixed signs", reports)
    return ContactVerdict(False, False, "samples in band", reports, undecided=True)


def _sampled_chart_report(label, coeff, chart, parm, grid_n, aux_count, rng, tol):
    if parm is not None:
        aux = chart.coords[:-2]
        th, ph = chart.coords[-2], chart.coords[-1]
        env = {
            th: ((np.arange(grid_n) + 0.5) * math.pi / grid_n).reshape(1, -1, 1),
            ph: ((np.arange(grid_n) + 0.5) * 2 * math.pi / grid_n).reshape(1, 1, -1),
        }
        for c in aux:
            env[c] = _unit_draws(rng, aux_count).reshape(-1, 1, 1)
        shape = (aux_count, grid_n, grid_n)
    else:
        n = grid_n * grid_n
        env = {c: _unit_draws(rng, n) for c in chart.coords}
        shape = (n,)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite sample is counted
        values = np.broadcast_to(np.asarray(compile_numpy(coeff)(env), dtype=float), shape)
    report = ContactChartReport(label, "sampled", 0, samples=int(values.size))
    # A NaN or infinite sample is neither signed nor zero, and is left
    # out of the smallest absolute value.
    finite = np.isfinite(values)
    report.non_finite = report.samples - int(np.count_nonzero(finite))
    report.n_pos = int(np.count_nonzero(finite & (values > tol)))
    report.n_neg = int(np.count_nonzero(finite & (values < -tol)))
    report.n_zero = report.samples - report.non_finite - report.n_pos - report.n_neg
    if report.non_finite < report.samples:
        abs_values = np.where(finite, np.abs(values), np.inf)
        worst = int(np.argmin(abs_values))
        report.min_abs = float(abs_values.flat[worst])
        report.worst_point = _env_at(env, np.unravel_index(worst, shape), shape)
    if report.non_finite == 0 and report.n_zero == 0:
        if report.n_neg == 0:
            report.sign = 1
        elif report.n_pos == 0:
            report.sign = -1
    if parm is not None:
        report.jacobian_drops, report.jacobian_band, report.jacobian_non_finite = _count_jacobian_drops(
            parm, env, shape
        )
    return report


def _unit_draws(rng, n):
    """n seeded floats k / 2**12 in [-1, 1], k an integer."""
    return np.array([rng.randint(-(1 << 12), 1 << 12) / float(1 << 12) for _ in range(n)])


def _env_at(env, idx, shape):
    out = {}
    for c, arr in env.items():
        full = np.broadcast_to(np.asarray(arr, dtype=float), shape)
        out[c] = float(full[idx])
    return out


def _count_jacobian_drops(parm, env, shape):
    """(drops, band, non_finite): the samples of the sweep shape where the
    Jacobian decidedly drops rank, where its rank lies in the float band,
    and where an entry is NaN or infinite.

    The rank rule is `_linalg.float_rank`'s: a smallest singular value
    below RANK_BAND_FLOOR times the largest is a drop, one up to
    RANK_THRESHOLD times the largest is in the band.  A sample with a
    non-finite entry has no SVD and counts under non_finite alone.  The
    singular values come from `_jacobian_extremes`, one SVD batch per
    group of independent blocks.

    The entries are evaluated only over the axes spanned by the
    coordinates they use, and each count counts once for every sample
    that repeats that matrix along the other axes.  The counts over that
    sub-grid are kept on the map, keyed by the used coordinates' exact
    arrays and the numerics of the Jacobian's opaque functions, so a
    later sweep over the same sub-grid runs no SVD and only scales the
    counts by its own multiplicity.
    """
    jac = parm.jacobian()
    used = set().union(*(e.free_coords() for row in jac for e in row))
    sub_env = {c: v for c, v in env.items() if c in used}
    sub_shape = np.broadcast_shapes(*(np.shape(v) for v in sub_env.values()))
    multiplicity = math.prod(shape) // math.prod(sub_shape)
    arrays = [(c, np.asarray(sub_env[c])) for c in sorted(sub_env)]
    opaque = set().union(*(e.opaque_names() for row in jac for e in row))
    key = (
        tuple((c, a.dtype.str, a.shape, a.tobytes()) for c, a in arrays),
        tuple((name, DEFAULT_REGISTRY.numeric(name)) for name in sorted(opaque)),
    )
    counts = parm._jacobian_drops.get(key)
    if counts is None:
        smin, smax, bad = (np.broadcast_to(a, sub_shape) for a in _jacobian_extremes(jac, sub_env))
        smax = np.maximum(smax, 1e-300)
        drop = ~bad & (smin < RANK_BAND_FLOOR * smax)
        band = ~bad & ~drop & (smin <= RANK_THRESHOLD * smax)
        counts = tuple(int(np.count_nonzero(m)) for m in (drop, band, bad))
        parm._jacobian_drops[key] = counts
    return tuple(multiplicity * n for n in counts)


def _jacobian_blocks(jac):
    """The Jacobian's independent blocks: the connected components of its
    rows and columns, a row and a column joined by every entry that is not
    identically zero, as (rows, columns) pairs of sorted index lists in the
    order of their first rows.  A zero row or column is in no block."""
    blocks = []
    for i, row in enumerate(jac):
        cols = {j for j, e in enumerate(row) if not e.is_zero}
        if not cols:
            continue
        rows = {i}
        for b in [b for b in blocks if b[1] & cols]:
            blocks.remove(b)
            rows |= b[0]
            cols |= b[1]
        blocks.append((rows, cols))
    return sorted((sorted(rows), sorted(cols)) for rows, cols in blocks)


def _jacobian_extremes(jac, env):
    """(smin, smax, non_finite) of the Jacobian over env's sub-grid, as
    arrays that broadcast to it: its smallest and largest singular values
    (the src_dim-th and the first), and whether an entry is NaN or
    infinite.

    The singular values of the Jacobian are those of its independent
    blocks (`_jacobian_blocks`), padded with zeros.  So the largest is the
    largest over the blocks; the smallest is 0 at every sample when a
    column has no nonzero entry or a block has more columns than rows,
    and otherwise the smallest over the blocks.  Blocks whose entries span
    the same sub-grid axes run as one batch over those axes alone, a
    block-diagonal matrix with the same singular values; a block of
    constants is a single matrix.  A matrix with a non-finite entry is
    zeroed before its SVD, which would fail on it.
    """
    blocks = _jacobian_blocks(jac)
    groups = {}
    for rows, cols in blocks:
        coords = set().union(*(jac[r][c].free_coords() for r in rows for c in cols))
        group_shape = np.broadcast_shapes(*(np.shape(env[c]) for c in coords))
        g_rows, g_cols, g_coords = groups.setdefault(group_shape, ([], [], set()))
        g_rows += rows
        g_cols += cols
        g_coords |= coords
    wide = sum(len(cols) for _, cols in blocks) < len(jac[0]) or any(
        len(cols) > len(rows) for rows, cols in blocks
    )
    smin = 0.0 if wide else np.inf
    smax = 0.0
    bad = False
    for group_shape, (rows, cols, coords) in groups.items():
        group_env = {c: env[c] for c in coords}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            stacked = np.stack(
                [
                    np.stack(
                        [np.broadcast_to(compile_numpy(jac[r][c])(group_env), group_shape) for c in cols],
                        axis=-1,
                    )
                    for r in rows
                ],
                axis=-2,
            )  # (*group_shape, rows, cols)
        non_finite = ~np.isfinite(stacked).all(axis=(-2, -1))
        if non_finite.any():
            stacked = np.where(non_finite[..., None, None], 0.0, stacked)
        sv = np.linalg.svd(stacked, compute_uv=False)
        smin = np.minimum(smin, sv[..., -1])
        smax = np.maximum(smax, sv[..., 0])
        bad = bad | non_finite
    return smin, smax, bad


# -- stabilizing constant ------------------------------------------------


def stabilizing_constant_search(eta, base, sample_envs, *, k_max=1 << 16):
    """The smallest dyadic K = 2^j <= k_max that makes eta + K*base full
    rank at every sample, as (K, outcome): K the last constant tried and
    outcome its `Outcome`, by `rank_claim` against the chart's dim.

    The search stops at the first K whose outcome is not `fail`: a pass
    found K, and an undecided outcome, a rank in the band or a matrix with
    a NaN or infinite entry, decides nothing further.  When every K up to
    k_max fails, the outcome of the last one holds its counterexamples."""
    if eta.chart != base.chart or eta.degree != 2 or base.degree != 2:
        raise DomainError("stabilization needs two 2-forms on one chart")
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    k = Fraction(1)
    while True:
        outcome = Outcome("stabilize", on_count=len(sample_envs))
        rank_claim(outcome, sample_envs, rank_at, eta + base * rat(k), eta.chart.dim, f"K = {k}", "on")
        if outcome.verdict != "fail" or 2 * k > k_max:
            return k, outcome
        k *= 2
