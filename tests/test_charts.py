import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsx.charts import (
    Chart,
    ChartMap,
    DForm,
    Metric,
    VectorField,
    coord_differential,
    function_form,
    zero_form,
)
from nsx.errors import DomainError, UnsupportedMetricError
from nsx.symexpr import ONE, ZERO, cos_of, evaluate, exp_of, rat, sin_of, sym

C3 = Chart("c3", ("x", "y", "z"))
C4 = Chart("c4", ("t", "x1", "x2", "x3"))


def _rand_poly(rng, chart, max_deg=2):
    e = rat(rng.randint(-3, 3))
    for _ in range(rng.randint(1, 3)):
        t = rat(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for c in chart.coords:
            t = t * sym(c) ** rng.randint(0, max_deg)
        e = e + t
    return e


def _rand_form(rng, chart, degree):
    items = []
    for idx in itertools.combinations(range(chart.dim), degree):
        if rng.random() < 0.7:
            items.append((idx, _rand_poly(rng, chart)))
    return DForm.build(chart, degree, items)


def _rand_env(rng, chart):
    return {c: Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for c in chart.coords}


# -- chart basics ------------------------------------------------------


def test_chart_properties():
    assert C3.dim == 3
    assert C3.index("y") == 1
    with pytest.raises(DomainError):
        C3.index("w")


def test_chart_validation():
    with pytest.raises(DomainError):
        Chart("dup", ("x", "x"))
    with pytest.raises(DomainError):
        Chart("big", tuple(f"c{i}" for i in range(9)))


# -- construction and normalization ------------------------------------


def test_build_sorts_indices_with_sign():
    f = DForm.build(C3, 2, [((1, 0), ONE)])
    assert f.comps == {(0, 1): -ONE}
    g = DForm.build(C3, 2, [((0, 1), ONE), ((1, 0), ONE)])
    assert g.is_zero


def test_build_drops_repeated_indices():
    assert DForm.build(C3, 2, [((1, 1), ONE)]).is_zero


def test_build_validations():
    with pytest.raises(DomainError):
        DForm.build(C3, 4, [])
    with pytest.raises(DomainError):
        DForm.build(C3, 1, [((0, 1), ONE)])
    with pytest.raises(DomainError):
        DForm.build(C3, 1, [((3,), ONE)])


def test_constructors():
    assert zero_form(C3, 2).is_zero
    assert function_form(C3, 5).coefficient(()) == rat(5)
    dx = coord_differential(C3, "x")
    assert dx.degree == 1 and dx.coefficient((0,)) == ONE
    assert coord_differential(C3, "y").coefficient((0,)) is ZERO


def test_coefficient_lookup_is_raw():
    f = DForm.build(C3, 2, [((0, 1), rat(2))])
    assert f.coefficient((0, 1)) == rat(2)
    assert f.coefficient((0, 2)) is ZERO


# -- arithmetic --------------------------------------------------------


def test_add_sub_neg_scalar():
    rng = random.Random(0)
    a = _rand_form(rng, C3, 2)
    b = _rand_form(rng, C3, 2)
    assert a + b == b + a
    assert (a - b) + b == a
    assert -(-a) == a
    assert a * 2 == a + a
    assert rat(3) * a == a * 3
    assert (a * Fraction(1, 2)) * 2 == a


def test_arithmetic_mate_checks():
    a = zero_form(C3, 1)
    with pytest.raises(DomainError):
        a + zero_form(C3, 2)
    with pytest.raises(DomainError):
        a + zero_form(C4, 1)


# -- wedge, against an independent implementation ----------------------


def _naive_wedge(a, b):
    """Concatenate index tuples and sort with an explicit bubble count."""
    out = {}
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            idx = list(ia + ib)
            if len(set(idx)) != len(idx):
                continue
            sign = 1
            for i in range(len(idx)):
                for j in range(i + 1, len(idx)):
                    if idx[i] > idx[j]:
                        sign = -sign
            key = tuple(sorted(idx))
            cur = out.get(key, ZERO)
            out[key] = cur + (ca * cb if sign > 0 else -(ca * cb))
    return DForm(
        a.chart,
        min(a.degree + b.degree, a.chart.dim),
        {k: v for k, v in out.items() if not v.is_zero},
    )


def test_wedge_matches_naive_oracle():
    rng = random.Random(1)
    for _ in range(40):
        chart = rng.choice((C3, C4))
        p = rng.randint(0, chart.dim)
        q = rng.randint(0, chart.dim - p)
        a = _rand_form(rng, chart, p)
        b = _rand_form(rng, chart, q)
        assert a.wedge(b) == _naive_wedge(a, b)


def test_wedge_overweight_is_top_degree_zero():
    rng = random.Random(2)
    a = _rand_form(rng, C3, 2)
    b = _rand_form(rng, C3, 2)
    w = a.wedge(b)
    assert w.is_zero and w.degree == C3.dim


def test_wedge_associativity_spot():
    rng = random.Random(3)
    a = _rand_form(rng, C4, 1)
    b = _rand_form(rng, C4, 1)
    c = _rand_form(rng, C4, 2)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_power():
    rng = random.Random(4)
    a = _rand_form(rng, C4, 2)
    assert a.wedge_power(0) == function_form(C4, 1)
    assert a.wedge_power(2) == a.wedge(a)
    with pytest.raises(DomainError):
        a.wedge_power(-1)


def _unit_wedge_power(form, k):
    """The unit 0-form wedged with the form k times: the reference for
    wedge_power."""
    out = function_form(form.chart, rat(1))
    for _ in range(k):
        out = out.wedge(form)
    return out


C6 = Chart("c6", ("u", "v", "w", "x", "y", "z"))
_U, _V = sym("u"), sym("v")
# Polynomial, exp and sin/cos factors; sin(u) and cos(u) squares meet in
# products, so the Pythagorean collapse runs on the sums.
_FACTORS = [_U, sym("x"), _V**2, exp_of(_V), exp_of(-_U), sin_of(_U), cos_of(_U), sin_of(_U + _V), cos_of(_U + _V)]
_term = st.builds(
    lambda q, factors: math.prod(factors, start=rat(q)),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]),
    st.lists(st.sampled_from(_FACTORS), max_size=3),
)
_wedge_coeffs = st.lists(_term, min_size=1, max_size=3).map(lambda ts: sum(ts, ZERO))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), chart=st.sampled_from([C4, C6]), degree=st.integers(0, 4))
def test_wedge_powers_match_the_unit_wedge_loop(data, chart, degree):
    # Expr for Expr: the square's pair sum gives the same canonical sums as
    # the full product, and so do the generic loop's other powers.
    keys = st.sampled_from(list(itertools.combinations(range(chart.dim), degree)))
    form = DForm.build(chart, degree, data.draw(st.lists(st.tuples(keys, _wedge_coeffs), min_size=1, max_size=8)))
    assert form.wedge_power(1) is form
    for k in (1, 2, 3):
        got, want = form.wedge_power(k), _unit_wedge_power(form, k)
        assert (got.degree, got.comps) == (want.degree, want.comps)
        assert list(got.comps) == list(want.comps)


@settings(max_examples=50, deadline=None)
@given(comps=st.lists(_wedge_coeffs, min_size=1, max_size=4))
def test_a_single_differential_is_the_unit_wedge_of_it(comps):
    m = ChartMap("m", C6, Chart("t", tuple(f"t{i}" for i in range(len(comps)))), tuple(comps))
    for i, row in enumerate(m.jacobian()):
        d = DForm(C6, 1, {(j,): e for j, e in enumerate(row) if not e.is_zero})
        got, want = m._differential_wedge((i,)), function_form(C6, ONE).wedge(d)
        assert (got.degree, got.comps) == (want.degree, want.comps)


# -- exterior derivative, against finite differences -------------------


def _fd_partial(coeff, env, coord, h=1e-6):
    up = {k: float(v) for k, v in env.items()}
    dn = dict(up)
    up[coord] += h
    dn[coord] -= h
    return (float(evaluate(coeff, up)) - float(evaluate(coeff, dn))) / (2 * h)


def test_d_matches_finite_differences():
    rng = random.Random(5)
    for chart, degree in ((C3, 1), (C4, 1), (C4, 2)):
        w = _rand_form(rng, chart, degree)
        dw = w.d()
        env = {c: rng.uniform(-1, 1) for c in chart.coords}
        for idx in itertools.combinations(range(chart.dim), degree + 1):
            want = 0.0
            for pos, v in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1 :]
                part = _fd_partial(w.coefficient(rest), env, chart.coords[v])
                want += part if pos % 2 == 0 else -part
            got = float(evaluate(dw.coefficient(idx), env))
            assert math.isclose(got, want, rel_tol=1e-5, abs_tol=1e-5)


def test_dd_zero_spot():
    rng = random.Random(6)
    for _ in range(10):
        w = _rand_form(rng, C4, rng.randint(0, 3))
        assert w.d().d().is_zero


def test_d_of_top_form_is_zero_at_top_degree():
    rng = random.Random(7)
    w = _rand_form(rng, C3, 3)
    dw = w.d()
    assert dw.is_zero and dw.degree == C3.dim


# -- interior product, against direct multilinear evaluation -----------


def _form_value(form, env, vectors):
    """Evaluate a k-form on k numeric vectors via minors."""
    total = 0.0
    for idx, coeff in form.comps.items():
        if vectors:
            m = [[vectors[r][i] for i in idx] for r in range(len(vectors))]
            det = float(np.linalg.det(np.array(m)))
        else:
            det = 1.0
        total += float(evaluate(coeff, env)) * det
    return total


def test_interior_matches_direct_contraction():
    rng = random.Random(8)
    for _ in range(15):
        degree = rng.randint(1, 3)
        w = _rand_form(rng, C4, degree)
        X = VectorField.build(
            C4, [(i, _rand_poly(rng, C4)) for i in range(C4.dim)]
        )
        env = {c: rng.uniform(-1, 1) for c in C4.coords}
        xv = [float(evaluate(X.comps.get(i, ZERO), env)) for i in range(C4.dim)]
        vs = [[rng.uniform(-1, 1) for _ in range(C4.dim)] for _ in range(degree - 1)]
        got = _form_value(w.interior(X), env, vs)
        want = _form_value(w, env, [xv] + vs)
        assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-8)


def test_interior_on_functions_and_mismatches():
    f = function_form(C3, 7)
    X = VectorField.build(C3, [("x", 1)])
    assert f.interior(X).is_zero
    with pytest.raises(DomainError):
        zero_form(C4, 1).interior(X)


def test_top_coefficient():
    rng = random.Random(9)
    w = _rand_form(rng, C3, 3)
    assert w.top_coefficient() == w.coefficient((0, 1, 2))
    with pytest.raises(DomainError):
        _rand_form(rng, C3, 2).top_coefficient()


# -- vector fields -----------------------------------------------------


def test_vfield_build_accepts_names_and_indices():
    a = VectorField.build(C3, [("x", 2), (2, sym("y"))])
    assert a.comps[0] == rat(2) and a.comps[2] == sym("y")
    with pytest.raises(DomainError):
        VectorField.build(C3, [("w", 1)])


def test_apply_to_is_directional_derivative():
    X = VectorField.build(C3, [("x", sym("y")), ("z", 1)])
    e = sym("x") ** 2 * sym("z")
    got = X.apply_to(e)
    want = sym("y") * 2 * sym("x") * sym("z") + sym("x") ** 2
    assert got == want


# -- chart maps --------------------------------------------------------


def _polar():
    src = Chart("pol", ("r", "th"))
    tgt = Chart("eu2", ("u", "v"))
    from nsx.symexpr import cos_of, sin_of

    r, th = sym("r"), sym("th")
    return ChartMap("polar", src, tgt, (r * cos_of(th), r * sin_of(th)))


def test_map_validations():
    src = Chart("s", ("a",))
    tgt = Chart("t", ("b", "c"))
    with pytest.raises(DomainError):
        ChartMap("bad", src, tgt, (sym("a"),))


def test_substitution_and_apply():
    m = _polar()
    subs = m.substitution()
    assert set(subs) == {"u", "v"}
    env = m.apply({"r": Fraction(2), "th": Fraction(0)})
    assert env["u"] == 2 and env["v"] == 0


def test_jacobian_shape():
    m = _polar()
    J = m.jacobian()
    assert len(J) == 2 and len(J[0]) == 2
    # d(r cos th)/dr = cos th
    from nsx.symexpr import cos_of

    assert J[0][0] == cos_of(sym("th"))


def test_jacobian_is_differentiated_once_per_map(monkeypatch):
    from nsx.symexpr import Expr

    calls = []
    diff = Expr.diff
    monkeypatch.setattr(Expr, "diff", lambda self, c: calls.append(c) or diff(self, c))
    m = _polar()
    first = m.jacobian()
    n = len(calls)
    assert n >= 4
    assert m.jacobian() is first and len(calls) == n
    assert m == _polar() and hash(m) == hash(_polar())


def test_pullback_reuses_the_cached_jacobian(monkeypatch):
    from nsx.symexpr import Expr

    m = _polar()
    m.jacobian()
    w = _rand_form(random.Random(3), m.target, 1)
    expected = m.pullback(w)
    calls = []
    diff = Expr.diff
    monkeypatch.setattr(Expr, "diff", lambda self, c: calls.append(c) or diff(self, c))
    assert m.pullback(w) == expected
    assert calls == []


def test_pullback_against_numeric_jacobian():
    m = _polar()
    rng = random.Random(10)
    w = _rand_form(rng, m.target, 1)
    pw = m.pullback(w)
    for _ in range(8):
        env = {"r": rng.uniform(0.2, 2), "th": rng.uniform(-3, 3)}
        tenv = {c: float(evaluate(e, env)) for c, e in zip(m.target.coords, m.comps)}
        jac = [
            [_fd_partial(comp, env, s) for s in m.source.coords] for comp in m.comps
        ]
        for j, s in enumerate(m.source.coords):
            want = sum(
                float(evaluate(w.coefficient((i,)), tenv)) * jac[i][j]
                for i in range(m.target.dim)
            )
            got = float(evaluate(pw.coefficient((j,)), env))
            assert math.isclose(got, want, rel_tol=1e-5, abs_tol=1e-5)


def test_pullback_commutes_with_d_spot():
    m = _polar()
    rng = random.Random(11)
    w = _rand_form(rng, m.target, 1)
    assert m.pullback(w.d()) == m.pullback(w).d()


def test_pullback_overweight_degree_clamps():
    line = Chart("ln", ("s",))
    tgt = Chart("pl", ("u", "v"))
    m = ChartMap("emb", line, tgt, (sym("s"), sym("s") ** 2))
    w = DForm.build(tgt, 2, [((0, 1), ONE)])
    pw = m.pullback(w)
    assert pw.is_zero and pw.degree == line.dim


def test_then_composes():
    a = Chart("a", ("p",))
    b = Chart("b", ("q",))
    c = Chart("c", ("r",))
    f = ChartMap("f", a, b, (sym("p") ** 2,))
    g = ChartMap("g", b, c, (sym("q") + 1,))
    h = f.then(g)
    assert h.source == a and h.target == c
    assert h.comps[0] == sym("p") ** 2 + 1
    rng = random.Random(12)
    w = _rand_form(rng, c, 1)
    assert h.pullback(w) == f.pullback(g.pullback(w))
    with pytest.raises(DomainError):
        g.then(f)


def _pullback_by_sequential_wedges(m, form):
    """The pullback with each component's substituted coefficient wedged
    with the differentials of the map one at a time."""
    differentials = [
        DForm(m.source, 1, {(j,): d for j, d in enumerate(row) if not d.is_zero})
        for row in m.jacobian()
    ]
    items = []
    for idx, coeff in form.comps.items():
        piece = function_form(m.source, coeff.subs(m.substitution()))
        for i in idx:
            piece = piece.wedge(differentials[i])
        items += piece.comps.items()
    return DForm.build(m.source, min(form.degree, m.source.dim), items)


def _assert_same_pullback(m, form):
    got = m.pullback(form)
    want = _pullback_by_sequential_wedges(m, form)
    assert got == want and list(got.comps) == list(want.comps)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source_dim=st.integers(1, 4), target_dim=st.integers(1, 4))
def test_pullback_equals_sequential_wedges_on_polynomial_maps(seed, source_dim, target_dim):
    rng = random.Random(seed)
    source = Chart("src", tuple(f"s{i}" for i in range(source_dim)))
    target = Chart("tgt", tuple(f"t{i}" for i in range(target_dim)))
    m = ChartMap("m", source, target, tuple(_rand_poly(rng, source) for _ in target.coords))
    for degree in range(target_dim + 1):
        _assert_same_pullback(m, _rand_form(rng, target, degree))


def test_pullback_equals_sequential_wedges_on_the_sphere_maps():
    from nsx.dsl import parse_scenario
    from nsx.runner import RunConfig, elaborate_scope
    from nsx.scenarios import SUITE

    (text,) = [text for sid, _, text in SUITE if sid == "S8"]
    scope = elaborate_scope(parse_scenario(text), RunConfig())
    rng = random.Random(15)
    for name in ("sphN", "sphS"):
        m = scope.named("map", name)
        forms = [f for _, f in scope.of_kind("form") if f.chart == m.target]
        assert forms
        forms += [_rand_form(rng, m.target, degree) for degree in range(m.target.dim + 1)]
        for form in forms:
            _assert_same_pullback(m, form)


def test_pullback_rejects_wrong_chart():
    m = _polar()
    with pytest.raises(DomainError):
        m.pullback(zero_form(m.source, 1))


# -- metrics -----------------------------------------------------------


def test_metric_validations():
    with pytest.raises(UnsupportedMetricError):
        Metric(C3, [[1, 0], [0, 1]])
    with pytest.raises(UnsupportedMetricError):
        Metric(C3, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(UnsupportedMetricError):
        Metric.diagonal(C3, [1, -1, 1])
    # determinant 2 is not a rational square
    with pytest.raises(UnsupportedMetricError):
        Metric.diagonal(C3, [2, 1, 1])


def test_euclidean_star_known_values():
    g = Metric.euclidean(C4)
    dt = coord_differential(C4, "t")
    dx1 = coord_differential(C4, "x1")
    dx2 = coord_differential(C4, "x2")
    dx3 = coord_differential(C4, "x3")
    assert g.star(dt.wedge(dx1)) == dx2.wedge(dx3)
    assert g.star(dt.wedge(dx2)) == -dx1.wedge(dx3)
    assert g.star(function_form(C4, 1)) == _volume_form(g)


def _volume_form(metric):
    """sqrt(det g) times the top coordinate form: the reference for star(1)."""
    dim = metric.chart.dim
    return DForm(metric.chart, dim, {tuple(range(dim)): ONE * rat(metric.sqrt_det)})


def test_volume_form():
    g = Metric.diagonal(C3, [1, 4, 9])
    assert _volume_form(g).top_coefficient() == rat(6)


def _inner(metric, a, b):
    total = ZERO
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            minor = [[metric.inverse[r][c] for c in ib] for r in ia]
            det = Fraction(1)
            if minor:
                n = len(minor)
                import nsx._linalg as _linalg

                det = _linalg.exact_det(minor)
            total = total + ca * cb * det
    return total


def test_star_pairing_identity():
    # a /\ *b == <a, b> vol for same-degree forms
    rng = random.Random(13)
    for entries in ([1, 1, 1], [1, 4, 9], [4, 4, 1]):
        g = Metric.diagonal(C3, entries)
        for degree in (1, 2):
            a = _rand_form(rng, C3, degree)
            b = _rand_form(rng, C3, degree)
            lhs = a.wedge(g.star(b)).top_coefficient()
            rhs = (_inner(g, a, b) * _volume_form(g).top_coefficient())
            assert lhs == rhs


def test_star_star_sign():
    rng = random.Random(14)
    g = Metric.euclidean(C4)
    for degree in range(C4.dim + 1):
        w = _rand_form(rng, C4, degree)
        sign = (-1) ** (degree * (C4.dim - degree))
        assert g.star(g.star(w)) == (w if sign > 0 else -w)


def _perm_sign(seq):
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])
    return -1 if inversions % 2 else 1


def _leibniz_det(m):
    n = len(m)
    return sum(
        (_perm_sign(p) * math.prod((m[i][p[i]] for i in range(n)), start=Fraction(1))
         for p in itertools.permutations(range(n))),
        Fraction(0),
    )


def _star_over_all_minors(metric, form):
    """The Hodge star from all C(n, k) minors of every component."""
    n = metric.chart.dim
    items = []
    for jj in itertools.combinations(range(n), n - form.degree):
        jc = tuple(i for i in range(n) if i not in jj)
        for idx, coeff in form.comps.items():
            det = _leibniz_det([[metric.inverse[r][c] for c in idx] for r in jc])
            if det:
                items.append((jj, coeff * rat(det * metric.sqrt_det * _perm_sign(jc + jj))))
    return DForm.build(metric.chart, n - form.degree, items)


def _assert_star_matches_all_minors(metric, rng):
    for degree in range(metric.chart.dim + 1):
        for form in (_rand_form(rng, metric.chart, degree), DForm.build(
            metric.chart, degree, [(idx, ONE) for idx in itertools.combinations(range(metric.chart.dim), degree)]
        )):
            got, want = metric.star(form), _star_over_all_minors(metric, form)
            assert got == want and list(got.comps) == list(want.comps)


# Two 2x2 blocks of determinants 1 and 16: not diagonal, and zero off the blocks.
_BLOCK = Metric(C4, [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 5, 3], [0, 0, 3, 5]])


@pytest.mark.parametrize("name", ["dense", "block", "euclidean"])
def test_star_equals_the_all_minors_reference(name):
    metric = {"dense": _DENSE, "block": _BLOCK, "euclidean": Metric.euclidean(C4)}[name]
    _assert_star_matches_all_minors(metric, random.Random(16))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    entries=st.lists(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8), max_size=4),
)
def test_star_equals_the_all_minors_reference_on_diagonal_metrics(seed, entries):
    # The last entry makes the determinant a rational square.
    entries = [*entries, math.prod(entries, start=Fraction(1))]
    chart = Chart(f"d{len(entries)}", tuple(f"x{i}" for i in range(len(entries))))
    _assert_star_matches_all_minors(Metric.diagonal(chart, entries), random.Random(seed))


def test_star_rejects_foreign_form():
    g = Metric.euclidean(C3)
    with pytest.raises(DomainError):
        g.star(zero_form(C4, 1))


# -- accumulation order --------------------------------------------------
#
# A form or field operation sums each coefficient once over all of its
# contributions, so its result depends only on their multiset.  Separate
# `+` calls do not: with s = sin(x)^2 and c = cos(x)^2, (s + c) + s is
# 1 + s while (s + s) + c is 2*s + c.  The draws favour such partners.

_S = sin_of(sym("x")) ** 2
_C = cos_of(sym("x")) ** 2
_coeffs = st.builds(
    lambda a, q: a * q,
    st.one_of(st.sampled_from([_S, _C]), st.sampled_from([sym("x"), sym("y"), sym("z"), ONE])),
    st.sampled_from([rat(1), rat(-1), rat(1, 2)]),
)
# Every 1-form on C3 pulls back to a multiple of dx; 2- and 3-forms to zero.
_DIAGONAL = ChartMap("diag", C3, C3, (sym("x"), sym("x"), sym("x")))
_SHEAR = ChartMap("shear", C3, C3, (sym("x") + sym("y"), sym("y") + sym("z"), sym("x") + sym("z")))
# Every entry of the inverse is nonzero, so each output collects from all inputs.
_DENSE = Metric(C3, [[2, 1, 1], [1, 2, 1], [1, 1, 2]])


def _comps(degree):
    keys = st.sampled_from(list(itertools.combinations(range(C3.dim), degree)))
    return st.lists(st.tuples(keys, _coeffs), min_size=1, max_size=4, unique_by=lambda kv: kv[0])


def test_s_c_s_sums_to_one_coefficient_in_every_order():
    orders = list(itertools.permutations([((0,), _S), ((1,), _C), ((2,), _S)]))
    ones = VectorField.build(C3, [(i, 1) for i in range(3)])
    assert len({DForm.build(C3, 1, [((0,), c) for _, c in o]) for o in orders}) == 1
    assert len({VectorField.build(C3, [(0, c) for _, c in o]).comps[0] for o in orders}) == 1
    assert len({_DIAGONAL.pullback(DForm(C3, 1, dict(o))) for o in orders}) == 1
    assert len({DForm(C3, 1, dict(o)).interior(ones) for o in orders}) == 1


@settings(max_examples=100, deadline=None)
@given(data=st.data(), degree=st.integers(0, 3))
def test_build_ignores_the_order_of_its_items(data, degree):
    index = st.lists(st.integers(0, 2), min_size=degree, max_size=degree)
    items = data.draw(st.lists(st.tuples(index, _coeffs), max_size=6))
    assert DForm.build(C3, degree, items) == DForm.build(C3, degree, data.draw(st.permutations(items)))
    items = data.draw(st.lists(st.tuples(st.integers(0, 2), _coeffs), max_size=6))
    assert VectorField.build(C3, items) == VectorField.build(C3, data.draw(st.permutations(items)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), degree=st.integers(1, 3), other_degree=st.integers(0, 2))
def test_form_operations_ignore_the_order_of_comps(data, degree, other_degree):
    items = data.draw(_comps(degree))
    a = DForm(C3, degree, dict(items))
    b = DForm(C3, degree, dict(data.draw(st.permutations(items))))
    other = DForm(C3, other_degree, dict(data.draw(_comps(other_degree))))
    field = VectorField(C3, {idx[0]: c for idx, c in data.draw(_comps(1))})
    assert a.wedge(other) == b.wedge(other) and other.wedge(a) == other.wedge(b)
    assert a.d() == b.d()
    assert a.interior(field) == b.interior(field)
    assert _DIAGONAL.pullback(a) == _DIAGONAL.pullback(b)
    assert _SHEAR.pullback(a) == _SHEAR.pullback(b)
    assert _DENSE.star(a) == _DENSE.star(b)
