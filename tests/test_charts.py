import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

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
from nsx.symexpr import ONE, ZERO, evaluate, rat, sym

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
    assert [str(e) for e in C3.coord_exprs()] == ["x", "y", "z"]
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
    assert g.star(function_form(C4, 1)) == g.volume_form()


def test_volume_form():
    g = Metric.diagonal(C3, [1, 4, 9])
    assert g.volume_form().top_coefficient() == rat(6)


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
            rhs = (_inner(g, a, b) * g.volume_form().top_coefficient())
            assert lhs == rhs


def test_star_star_sign():
    rng = random.Random(14)
    g = Metric.euclidean(C4)
    for degree in range(C4.dim + 1):
        w = _rand_form(rng, C4, degree)
        sign = (-1) ** (degree * (C4.dim - degree))
        assert g.star(g.star(w)) == (w if sign > 0 else -w)


def test_star_rejects_foreign_form():
    g = Metric.euclidean(C3)
    with pytest.raises(DomainError):
        g.star(zero_form(C4, 1))
