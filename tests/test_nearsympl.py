"""near_symplectic_at on integer point matrices against its Fraction form.

`_reference_near_symplectic_at` is the test as it was before the point
matrices became integer rows over one scale: Fraction kernel vectors, a
Fraction triple product per kernel pair and partial, and the RREF of D_K
as the image basis.  Scaling a kernel vector or the partials by positive
factors cannot move a verdict, and these tests check that it does not, on
the suite's forms and on drawn 2-forms with every kind of outcome.  At a
point where the form's matrix is float, the reference decides by its float
rank alone, and where a partial's is, it decides nothing.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nsx import _linalg
from nsx.charts import Chart, DForm
from nsx.dsl import parse_scenario
from nsx.pointcheck import (
    _K_PAIRS,
    RANK_BAND_FLOOR,
    RANK_THRESHOLD,
    DegeneracyVerdict,
    _wedge_square_gram,
    form_matrix_at,
    near_symplectic_at,
)
from nsx.runner import RunConfig, elaborate_scope
from nsx.scenarios import SUITE
from nsx.symexpr import evaluate, rat, sin_of, sym


def _reference_gradient_matrix_at(form, env):
    cols = list(combinations(range(form.chart.dim), form.degree))
    rows = [
        [Fraction(0) if (c := p.comps.get(idx)) is None else evaluate(c, env) for idx in cols]
        for p in form.partials()
    ]
    return rows, all(isinstance(v, Fraction) for row in rows for v in row)


def _reference_grad_kernel_consistent(form, env):
    half = form.chart.dim // 2
    if half - 1 < 2:
        return True
    a, a_exact = _reference_gradient_matrix_at(form, env)
    b, b_exact = _reference_gradient_matrix_at(form.wedge_power(half - 1), env)
    if not (a_exact and b_exact):
        return None
    return _linalg.column_span_equal(a, b)


def _reference_near_symplectic_at(form, env):
    dim = form.chart.dim
    m, exact = form_matrix_at(form, env)
    if not exact:
        rank, band = _linalg.float_rank(m, RANK_THRESHOLD, RANK_BAND_FLOOR)
        if not band and rank == dim:
            return DegeneracyVerdict(False, "nondegenerate point", rank=rank, kernel_dim=0, exact=False)
        if not band and rank != dim - 4:
            return DegeneracyVerdict(False, "kernel not 4-dim", rank=rank, kernel_dim=dim - rank, exact=False)
        return DegeneracyVerdict(False, "point evaluation is not exact", exact=False, undecided=True)
    rank = _linalg.exact_rank(m)
    if rank == dim:
        return DegeneracyVerdict(False, "nondegenerate point", rank=rank, kernel_dim=0)
    if rank != dim - 4:
        return DegeneracyVerdict(False, "kernel not 4-dim", rank=rank, kernel_dim=dim - rank)
    kernel = _linalg.exact_kernel(m, dim)
    partials = []
    for partial in form.partials():
        rows, exact = form_matrix_at(partial, env)
        if not exact:
            return DegeneracyVerdict(False, "point evaluation is not exact", exact=False, undecided=True)
        partials.append(rows)

    def pairing(w, mv, u):
        total = Fraction(0)
        for i in range(dim):
            if w[i]:
                row = mv[i]
                for j in range(dim):
                    if u[j]:
                        total += w[i] * row[j] * u[j]
        return total

    d_rows = []
    for wc in kernel:
        row = []
        for a, b in _K_PAIRS:
            total = Fraction(0)
            for v in range(dim):
                if wc[v]:
                    total += wc[v] * pairing(kernel[a], partials[v], kernel[b])
            row.append(total)
        d_rows.append(row)
    image_basis, image_pivots = _linalg.exact_rref(d_rows, 6)
    image_dim = len(image_pivots)
    verdict = DegeneracyVerdict(
        True, "", rank=rank, kernel_dim=4, image_dim=image_dim, ker_dk_dim=4 - image_dim
    )
    verdict.grad_kernel_consistent = _reference_grad_kernel_consistent(form, env)
    if image_dim != 3:
        verdict.passed = False
        verdict.reason = "image rank != 3"
        return verdict
    gram = [[_wedge_square_gram(bi, bj) for bj in image_basis] for bi in image_basis]
    pos, neg, zero = _linalg.inertia(gram)
    verdict.q_signature = (pos, neg, zero)
    if pos and neg:
        verdict.passed = False
        verdict.reason = "indefinite image"
        return verdict
    verdict.q_sign = "positive" if pos else ("negative" if neg else "zero")
    return verdict


FIELDS = (
    "passed",
    "reason",
    "rank",
    "kernel_dim",
    "image_dim",
    "q_signature",
    "q_sign",
    "grad_kernel_consistent",
    "exact",
    "undecided",
)


def _same_verdict(form, env):
    got = near_symplectic_at(form, env)
    want = _reference_near_symplectic_at(form, env)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), (name, env)
    return got


def _suite_form(sid):
    text = next(text for s, _, text in SUITE if s == sid)
    scope = elaborate_scope(parse_scenario(text), RunConfig())
    return scope.named("form", "om"), scope.named("locus", "L")


def test_suite_forms_match_the_reference():
    # S1-S3 at the lattice points of their slices, at random rational
    # points on the slices, and at random rational points off them.
    rng = random.Random(11)
    reasons = set()
    for sid in ("S1", "S2", "S3"):
        form, locus = _suite_form(sid)
        pins = dict(locus.values)
        coords = form.chart.coords
        free = [c for c in coords if c not in pins]
        envs = []
        for values in product((-1, 0, 1), repeat=len(free)):
            envs.append({**pins, **dict(zip(free, map(Fraction, values)))})
        for _ in range(12):
            point = {c: Fraction(rng.randint(-60, 60), rng.choice((1, 3, 8, 64, 4096))) for c in coords}
            envs += [{**point, **pins}, point]
        for env in envs:
            reasons.add(_same_verdict(form, env).reason)
    assert reasons == {"", "nondegenerate point"}


C6 = Chart("c6", tuple(f"u{i}" for i in range(6)))
_PAIRS = list(combinations(range(6), 2))
_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_nonzero = _small.filter(bool)


def _skew(entries):
    m = [[0] * 6 for _ in range(6)]
    for (i, j), v in zip(_PAIRS, entries):
        m[i][j], m[j][i] = v, -v
    return m


def _degenerate_form(center, alpha, beta, a, ns, extras):
    """A 2-form on a 6-chart of rank 2 at the point center.

    At center the form is alpha wedge beta, so its kernel is the annihilator
    of alpha and beta: 4-dimensional unless they are dependent.  Its
    partial along coordinate v is the sum over t of a[v][t] * ns[t], with
    ns[t] skew, so D_K has rank at most len(ns), and the wedge square on
    its image may take any signature.  Where a column of a is a multiple
    of alpha, every kernel vector annihilates it, which lowers the rank
    of D_K once more; that image then depends on the partials' relative
    scales.  Each extra (i, j, c, p, q, sine)
    adds c * (u_p - center_p) * (u_q - center_q), or the sine of the
    second factor, to the (i, j) coefficient: it vanishes to second order
    at center, so it changes the form elsewhere but not at center.
    """
    shifted = [sym(c) - rat(v) for c, v in zip(C6.coords, center)]
    items = []
    for i, j in _PAIRS:
        coeff = rat(alpha[i] * beta[j] - alpha[j] * beta[i])
        for v in range(6):
            slope = sum(a[v][t] * n[i][j] for t, n in enumerate(ns))
            if slope:
                coeff = coeff + rat(slope) * shifted[v]
        items.append(((i, j), coeff))
    for i, j, c, p, q, sine in extras:
        items.append(((i, j), rat(c) * shifted[p] * (sin_of(shifted[q]) if sine else shifted[q])))
    return DForm.build(C6, 2, items), dict(zip(C6.coords, center))


def _block(*pairs):
    """A skew matrix with +-1 at the given (sign, i, j) entries."""
    m = [[0] * 6 for _ in range(6)]
    for sign, i, j in pairs:
        m[i][j], m[j][i] = sign, -sign
    return m


# Self-dual and anti-self-dual 2-forms on coordinates 2..5.  With alpha and
# beta nonzero only at 0 and at 1 among the first two coordinates, the kernel
# vectors are e_f plus multiples of e_0 and e_1 for f = 2..5, so partials
# built from three of these give a definite (or, mixed, an indefinite) image.
_SD = [_block((1, 2, 3), (1, 4, 5)), _block((1, 2, 4), (-1, 3, 5)), _block((1, 2, 5), (1, 3, 4))]
_ASD = [_block((1, 2, 3), (-1, 4, 5)), _block((1, 2, 4), (1, 3, 5)), _block((1, 2, 5), (-1, 3, 4))]
_BLOCKS = (_SD, _ASD, _SD[:2] + _ASD[2:])


@st.composite
def degenerate_forms(draw):
    vector = st.lists(_small, min_size=6, max_size=6)
    alpha, beta = draw(vector), draw(vector)
    if draw(st.booleans()):
        ns = draw(st.sampled_from(_BLOCKS))
        alpha[0], alpha[1], beta[0], beta[1] = draw(_nonzero), 0, 0, draw(_nonzero)
    else:
        k = draw(st.integers(1, 4))
        ns = [_skew(draw(st.lists(st.integers(-2, 2), min_size=15, max_size=15))) for _ in range(k)]
    k = len(ns)
    a = [draw(st.lists(_small, min_size=k, max_size=k)) for _ in range(6)]
    if draw(st.booleans()):
        c = draw(_small)
        for v in range(6):
            a[v][-1] = c * alpha[v]
    extra = st.tuples(
        st.sampled_from(_PAIRS), _small, st.integers(0, 5), st.integers(0, 5), st.booleans()
    ).map(lambda t: (*t[0], *t[1:]))
    extras = draw(st.lists(extra, max_size=3))
    return _degenerate_form(draw(vector), alpha, beta, a, ns, extras)


_offsets = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=12), min_size=6, max_size=6
)


def test_drawn_forms_reach_every_outcome():
    # Seeded draws of the same construction reach every reason, so the
    # comparison covers more than nondegenerate points.
    rng = random.Random(3)

    def small(nonzero=False):
        return Fraction(rng.randint(1, 6) if nonzero else rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))

    reasons = set()
    for i in range(48):
        alpha = [small() for _ in range(6)]
        # Now and then beta is a multiple of alpha, so the rank is 0.
        beta = [x * 2 for x in alpha] if i % 8 == 6 else [small() for _ in range(6)]
        if i % 2:
            ns = _BLOCKS[i % 3]
            alpha[0], alpha[1], beta[0], beta[1] = small(True), 0, 0, -small(True)
        else:
            ns = [_skew([rng.randint(-2, 2) for _ in range(15)]) for _ in range(rng.randint(1, 4))]
        a = [[small() for _ in ns] for _ in range(6)]
        if i % 4 == 2:
            c = small()
            for v in range(6):
                a[v][-1] = c * alpha[v]
        extras = [(*rng.choice(_PAIRS), small(), rng.randrange(6), rng.randrange(6), rng.random() < 0.5)]
        form, center = _degenerate_form([small() for _ in range(6)], alpha, beta, a, ns, extras)
        reasons.add(_same_verdict(form, center).reason)
    assert reasons == {"", "image rank != 3", "indefinite image", "kernel not 4-dim"}


@given(degenerate_forms(), _offsets)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_drawn_forms_match_the_reference(drawn, offset):
    form, center = drawn
    _same_verdict(form, center)
    _same_verdict(form, {c: v + d for (c, v), d in zip(center.items(), offset)})
