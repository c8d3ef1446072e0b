import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsx import _linalg, pointcheck
from nsx.charts import Chart, ChartMap, coord_differential, zero_form
from nsx.errors import DomainError
from nsx.pointcheck import (
    RANK_BAND_FLOOR,
    RANK_THRESHOLD,
    contact_test,
    form_matrix_at,
    gradient_rank_at,
    map_rank_at,
    near_symplectic_at,
    per_class,
    rank_at,
    stabilizing_constant_search,
    _constant_sign,
    _count_jacobian_drops,
    _unit_draws,
)
from nsx.runner import RunConfig, run_scenario_text
from nsx.symexpr import ONE, PI, ZERO, compile_numpy, cos_of, exp_of, opaque_fn, rat, sin_of, sym

C3 = Chart("c3", ("x", "y", "z"))
C4 = Chart("c4", ("t", "x1", "x2", "x3"))
SP3 = Chart("sp3", ("a", "th", "ph"))


def _dx(chart, coord):
    return coord_differential(chart, coord)


def _w(i, j):
    return _dx(C4, C4.coords[i]).wedge(_dx(C4, C4.coords[j]))


def _origin(chart):
    return {c: Fraction(0) for c in chart.coords}


# Standard symplectic form and the (anti-)self-dual 2-form bases.
OM_STD = _w(0, 1) + _w(2, 3)
SD = (_w(0, 1) + _w(2, 3), _w(0, 2) - _w(1, 3), _w(0, 3) + _w(1, 2))
ASD = (_w(0, 1) - _w(2, 3), _w(0, 2) + _w(1, 3), _w(0, 3) - _w(1, 2))


# -- matrices and ranks ---------------------------------------------------


def test_form_matrix_exact_skew():
    om = _w(0, 1) * sym("x1")
    m, exact = form_matrix_at(om, {"t": Fraction(0), "x1": Fraction(2), "x2": Fraction(0), "x3": Fraction(0)})
    assert exact
    assert m[0][1] == Fraction(2) and m[1][0] == Fraction(-2)
    assert all(isinstance(v, Fraction) for row in m for v in row)


def test_form_matrix_float_promotion():
    om = _w(0, 1) * sym("x1")
    env = {"t": 0.0, "x1": 0.5, "x2": 0.0, "x3": 0.0}
    m, exact = form_matrix_at(om, env)
    assert not exact
    assert all(isinstance(v, float) for row in m for v in row)


def test_form_matrix_needs_degree_two():
    with pytest.raises(DomainError):
        form_matrix_at(_dx(C4, "t"), _origin(C4))


def test_rank_at_exact():
    v = rank_at(OM_STD, _origin(C4))
    assert (v.rank, v.undecided, v.exact) == (4, False, True)


def test_rank_at_degenerate_exact():
    v = rank_at(_w(0, 1), _origin(C4))
    assert (v.rank, v.undecided, v.exact) == (2, False, True)


def test_rank_at_float():
    # A constant coefficient evaluates exactly even at a float point;
    # only a coordinate bound to a float demotes the matrix.
    om = OM_STD + _w(0, 1) * sym("t")
    env = {"t": 0.25, "x1": 0.0, "x2": 0.0, "x3": 0.0}
    v = rank_at(om, env)
    assert (v.rank, v.undecided, v.exact) == (4, False, False)
    assert rank_at(OM_STD, env).exact


def test_rank_at_undecided_band():
    # Singular value 1e-9 sits between the hard floor (1e-10) and the
    # rank threshold (1e-8): counted out of the rank but flagged.
    om = _w(0, 1) + _w(2, 3) * sym("t")
    env = {"t": 1e-9, "x1": 0.0, "x2": 0.0, "x3": 0.0}
    v = rank_at(om, env)
    assert (v.rank, v.undecided, v.exact) == (2, True, False)


def test_rank_at_below_band_floor_decided():
    om = _w(0, 1) + _w(2, 3) * sym("t")
    env = {"t": 1e-12, "x1": 0.0, "x2": 0.0, "x3": 0.0}
    v = rank_at(om, env)
    assert (v.rank, v.undecided) == (2, False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rank_at_non_finite_entry_is_undecided(register_opaque, bad):
    register_opaque("badf", lambda t: np.full(np.shape(t), bad))
    om = OM_STD + _w(0, 1) * opaque_fn("badf", "t")
    v = rank_at(om, _origin(C4))
    assert (v.undecided, v.exact, v.non_finite) == (True, False, True)


def _exact_kernel_at(form, env):
    m, exact = form_matrix_at(form, env)
    assert exact
    return _linalg.exact_kernel(m, form.chart.dim)


def test_exact_kernel_of_form_matrix():
    ker = _exact_kernel_at(_w(0, 1), _origin(C4))
    assert len(ker) == 2
    for vec in ker:
        assert vec[0] == 0 and vec[1] == 0
    assert _exact_kernel_at(OM_STD, _origin(C4)) == []


def test_map_rank_at():
    half_sq = sym("z") ** 2 * Fraction(1, 2)
    fold = ChartMap("fold", C3, C3, (sym("x"), sym("y"), half_sq))
    assert map_rank_at(fold, {"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)}).rank == 3
    v0 = map_rank_at(fold, _origin(C3))
    assert (v0.rank, v0.exact) == (2, True)
    vf = map_rank_at(fold, {"x": 0.0, "y": 0.0, "z": 0.0})
    assert (vf.rank, vf.exact) == (2, False)


def test_gradient_rank_at():
    om = _w(0, 1) * sym("x1")
    v = gradient_rank_at(om, _origin(C4))
    assert (v.rank, v.exact) == (1, True)
    om3 = SD[0] * sym("x1") + SD[1] * sym("x2") + SD[2] * sym("x3")
    assert gradient_rank_at(om3, _origin(C4)).rank == 3


# -- degeneracy-point verdicts -------------------------------------------


def test_near_symplectic_rejects_bad_dimension():
    om3 = _dx(C3, "x").wedge(_dx(C3, "y"))
    with pytest.raises(DomainError):
        near_symplectic_at(om3, _origin(C3))
    c2 = Chart("c2", ("u", "v"))
    om2 = coord_differential(c2, "u").wedge(coord_differential(c2, "v"))
    with pytest.raises(DomainError):
        near_symplectic_at(om2, {"u": Fraction(0), "v": Fraction(0)})


def test_near_symplectic_float_env_refused():
    # The float matrix is zero, of rank dim - 4, and no float decides D_K.
    om = SD[0] * sym("x1") + SD[1] * sym("x2") + SD[2] * sym("x3")
    v = near_symplectic_at(om, {"t": 0.0, "x1": 0.0, "x2": 0.0, "x3": 0.0})
    assert not v.passed and v.undecided
    assert v.reason == "point evaluation is not exact"
    assert not v.exact


def test_near_symplectic_float_point_decides_by_float_rank():
    om = SD[0] * sym("x1") + SD[1] * sym("x2") + SD[2] * sym("x3")
    v = near_symplectic_at(om, {"t": 0.0, "x1": 0.1, "x2": 0.0, "x3": 0.0})
    assert (v.passed, v.undecided, v.exact, v.reason, v.rank) == (False, False, False, "nondegenerate point", 4)
    v = near_symplectic_at(_w(0, 1) * exp_of(sym("t")), {"t": 0.5, "x1": 0.0, "x2": 0.0, "x3": 0.0})
    assert (v.passed, v.undecided, v.reason, v.kernel_dim) == (False, False, "kernel not 4-dim", 2)
    # A singular value inside the rank band decides nothing.
    v = near_symplectic_at(_w(0, 1) + _w(2, 3) * exp_of(rat(-21)), _origin(C4))
    assert (v.passed, v.undecided, v.non_finite) == (False, True, False)


def test_nearsympl_at_at_a_float_point_agrees_with_rank_at():
    text = (
        "chart C(w, x, y, z)\nform om on C = exp(x)*d(w) /\\ d(x) + d(y) /\\ d(z)\n"
        "check nearsympl_at om at (w=0, x=1/2, y=0, z=0) expect fail\n"
        "check rank_at om, 4 at (w=0, x=1/2, y=0, z=0)\n"
    )
    report = run_scenario_text(text, "T", "float point", RunConfig())
    assert [(c.verdict, c.detail) for c in report.checks] == [("fail", "(nondegenerate point)"), ("pass", "(rank 4)")]


def test_near_symplectic_nondegenerate_point():
    v = near_symplectic_at(OM_STD, _origin(C4))
    assert not v.passed
    assert v.reason == "nondegenerate point"
    assert v.rank == 4


def test_near_symplectic_kernel_dimension_gate():
    v = near_symplectic_at(_w(0, 1), _origin(C4))
    assert not v.passed
    assert v.reason == "kernel not 4-dim"
    assert v.kernel_dim == 2


def test_near_symplectic_image_rank_gate():
    v = near_symplectic_at(_w(0, 1) * sym("x1"), _origin(C4))
    assert not v.passed
    assert v.reason == "image rank != 3"
    assert v.image_dim == 1


def test_near_symplectic_positive_model():
    om = SD[0] * (rat(-2) * sym("x1")) + SD[1] * sym("x2") + SD[2] * sym("x3")
    v = near_symplectic_at(om, _origin(C4))
    assert v.passed and v.exact
    assert (v.rank, v.kernel_dim, v.image_dim) == (0, 4, 3)
    assert v.q_sign == "positive"
    assert v.q_signature == (3, 0, 0)


def test_near_symplectic_negative_model():
    om = ASD[0] * sym("x1") + ASD[1] * sym("x2") + ASD[2] * sym("x3")
    v = near_symplectic_at(om, _origin(C4))
    assert v.passed
    assert v.q_sign == "negative"
    assert v.q_signature == (0, 3, 0)


def test_near_symplectic_indefinite_image_fails():
    om = SD[0] * sym("x1") + ASD[1] * sym("x2") + SD[2] * sym("x3")
    v = near_symplectic_at(om, _origin(C4))
    assert not v.passed
    assert v.reason == "indefinite image"
    assert v.q_signature[0] > 0 and v.q_signature[1] > 0


def test_near_symplectic_null_image_passes():
    om = _w(0, 1) * sym("x1") + _w(0, 2) * sym("x2") + _w(0, 3) * sym("x3")
    v = near_symplectic_at(om, _origin(C4))
    assert v.passed
    assert v.q_sign == "zero"
    assert v.q_signature == (0, 0, 3)



def _s3_declarations():
    from nsx.scenarios import SUITE

    text = next(text for sid, _, text in SUITE if sid == "S3")
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("check "))


def test_nearsympl_at_differentiates_once_per_check(monkeypatch):
    # The partials of the form and of its wedge square are built once per
    # form, so the number of points does not change the number of diffs.
    from nsx.runner import RunConfig, run_scenario_text
    from nsx.symexpr import Expr

    calls = []
    diff = Expr.diff
    monkeypatch.setattr(Expr, "diff", lambda self, c: calls.append(c) or diff(self, c))
    counts = []
    for points in (3, 10):
        calls.clear()
        text = _s3_declarations() + f"check nearsympl_at om on L region R points {points}\n"
        (rec,) = run_scenario_text(text, "T", "unit scenario", RunConfig()).checks
        assert rec.verdict == "pass" and rec.evidence["points"] == points
        assert rec.evidence["grad_kernel_consistent"] is True
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_point_matrix_table_is_built_once_per_owner_and_tag(monkeypatch):
    # However many of a set's points are read, each (owner, tag) builds one
    # table, and each point's rows are the plain env's rows.
    from nsx import pointcheck
    from nsx.points import points_of

    calls = []
    table = pointcheck._point_table
    monkeypatch.setattr(pointcheck, "_point_table", lambda p, e: calls.append(e) or table(p, e))
    om = SD[0] * sym("x1") + SD[1] * (sym("x2") ** 2 + rat(1, 3)) + SD[2] * sym("x3")
    rng = random.Random(3)
    envs = [{c: Fraction(rng.randint(-8, 8), 4) for c in C4.coords} for _ in range(7)]
    points = points_of(envs, C4.coords)
    for _ in range(2):
        for view, env in zip(points, envs):
            rows, s = pointcheck._form_rows(om, view)
            assert all(type(row) is _linalg.IntRow for row in rows)
            want, t = pointcheck._form_rows(om, env)
            assert [[Fraction(x, s) for x in row] for row in rows] == [[Fraction(x, t) for x in row] for row in want]
            assert rank_at(om, view) == rank_at(om, env)
            assert gradient_rank_at(om, view) == gradient_rank_at(om, env)
    assert len(calls) == 2


def test_at_point_rank_builds_its_entries_once(monkeypatch):
    # S8's `at (point)` sample is a one-point set whose matrix has exp
    # entries: no column of any entry is computed, and the entries are
    # built once for the exact fallback at the point.
    from nsx import pointcheck, points
    from nsx.runner import RunConfig, run_scenario_text
    from nsx.scenarios import SUITE

    text = next(text for sid, _, text in SUITE if sid == "S8")
    decls = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("check "))
    entries, columns = [], []
    form_entries = pointcheck._form_entries
    column_value = points.column_value
    monkeypatch.setattr(pointcheck, "_form_entries", lambda f: entries.append(f) or form_entries(f))
    monkeypatch.setattr(points, "column_value", lambda *a: columns.append(a[0]) or column_value(*a))
    check = "check rank_at omA, 2 at (z1=1/2, z2=1/3, z3=-1/4, x1=0, x2=0, x3=0)\n"
    (rec,) = run_scenario_text(decls + check, "T", "unit scenario", RunConfig()).checks
    assert (rec.verdict, rec.detail) == ("pass", "(rank 2)")
    assert len(entries) == 1
    assert columns == []


# Few values per coordinate, so that points repeat on the coordinates a
# form reads; 0 makes degenerate points.
_POOL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3)])
_READ = st.lists(st.sampled_from(C4.coords), min_size=0, max_size=4, unique=True)
_WEIGHTS = st.lists(st.integers(-2, 2), min_size=5, max_size=5)


def _linear(weights, coords):
    return rat(weights[0]) + sum((rat(w) * sym(c) for w, c in zip(weights[1:], coords)), ZERO)


@st.composite
def _point_class_cases(draw):
    """A 2-form and a map on C4 that read a few coordinates, and points that
    repeat on them."""
    read = draw(_READ)
    form = sum((basis * _linear(draw(_WEIGHTS), read) for basis in SD + ASD[:1]), zero_form(C4, 2))
    comps = tuple(_linear(draw(_WEIGHTS), read) * sym(c) if c in read else sym(c) for c in C4.coords)
    cmap = ChartMap("m", C4, C4, comps)
    envs = draw(st.lists(st.fixed_dictionaries({c: _POOL for c in C4.coords}), min_size=1, max_size=12))
    return form, cmap, envs


def _distinct(points, exprs):
    coords = sorted(set().union(*(e.free_coords() for e in exprs)))
    return len({tuple(p[c] for c in coords) for p in points})


@settings(max_examples=80, deadline=None)
@given(_point_class_cases())
def test_point_checks_run_once_per_distinct_projection(case):
    # Over a point set, each check runs once per class of points that agree
    # on the coordinates its entries read, and every verdict equals the
    # per-point verdict on a plain dict.
    from nsx.points import points_of

    form, cmap, envs = case
    points = points_of(envs, C4.coords)
    want_rank = [rank_at(form, env) for env in envs]
    want_map = [map_rank_at(cmap, env) for env in envs]
    want_near = [near_symplectic_at(form, env) for env in envs]
    calls = []
    exact_rank = _linalg.exact_rank
    _linalg.exact_rank = lambda *a: calls.append(a) or exact_rank(*a)
    try:
        assert list(per_class(rank_at, form, points)) == want_rank
        assert len(calls) == _distinct(points, form.comps.values())
        calls.clear()
        assert list(per_class(map_rank_at, cmap, points)) == want_map
        assert len(calls) == _distinct(points, [e for row in cmap.jacobian() for e in row])
    finally:
        _linalg.exact_rank = exact_rank
    checked = []
    near = list(per_class(lambda f, e: checked.append(e) or near_symplectic_at(f, e), form, points))
    assert near == want_near and len(checked) == _distinct(points, form.comps.values())
    assert list(per_class(rank_at, form, envs)) == want_rank  # plain dicts: every point
    eta, base = form, OM_STD
    assert stabilizing_constant_search(eta, base, points, k_max=4) == stabilizing_constant_search(
        eta, base, envs, k_max=4
    )


def test_partials_and_powers_are_built_once_per_form(monkeypatch):
    from nsx.symexpr import Expr

    om = SD[0] * sym("x1") + SD[1] * sym("x2") + SD[2] * sym("x3")
    calls = []
    diff = Expr.diff
    monkeypatch.setattr(Expr, "diff", lambda self, c: calls.append(c) or diff(self, c))
    first = om.partials()
    n = len(calls)
    assert n > 0
    assert om.partials() is first and len(calls) == n
    for coord, partial in zip(C4.coords, first):
        assert partial.comps == {k: v.diff(coord) for k, v in om.comps.items() if not v.diff(coord).is_zero}
    assert om.wedge_power(2) is om.wedge_power(2)
    assert om.wedge_power(2) == om.wedge(om)

# -- contact sweeps -------------------------------------------------------


def test_constant_sign_rule():
    assert _constant_sign(ZERO) == 0
    assert _constant_sign(rat(2) * PI) == 1
    assert _constant_sign(rat(-3) * exp_of(sym("x"))) == -1
    assert _constant_sign(sym("x")) is None
    assert _constant_sign(ONE + sym("x")) is None


def test_contact_symbolic_positive():
    al = _dx(C3, "z") + _dx(C3, "y") * sym("x") - _dx(C3, "x") * sym("y")
    v = contact_test(al)
    assert v.passed and not v.orientation_reversed and v.reason == ""
    (r,) = v.charts
    assert (r.mode, r.sign) == ("symbolic", 1)
    assert r.symbolic_value == "2"


def test_contact_symbolic_reversed():
    al = _dx(C3, "y") + _dx(C3, "z") * sym("x")
    v = contact_test(al)
    assert v.passed and v.orientation_reversed
    assert v.reason == "uniform negative sign"
    assert v.charts[0].sign == -1


def test_contact_symbolic_zero():
    v = contact_test(_dx(C3, "x"))
    assert not v.passed
    assert v.reason == "vanishing samples"
    (r,) = v.charts
    assert (r.mode, r.sign, r.symbolic_value) == ("symbolic", 0, "0")


def test_contact_sampled_positive():
    # density x^2 + 1/4: strictly positive but not a single monomial,
    # so the symbolic rule defers to sampling.
    g = sym("x") ** 3 * Fraction(1, 3) + sym("x") * Fraction(1, 4)
    al = _dx(C3, "z") + _dx(C3, "y") * g
    v = contact_test(al, grid_n=8)
    assert v.passed and not v.orientation_reversed
    (r,) = v.charts
    assert (r.mode, r.sign, r.samples) == ("sampled", 1, 64)
    assert r.n_pos == 64 and r.n_neg == 0 and r.n_zero == 0
    assert r.min_abs >= 0.25
    assert set(r.worst_point) == {"x", "y", "z"}


def test_contact_band_hits_are_undecided():
    # density 2*exp(-40)*x: contact wherever x != 0, and every sample lies
    # inside the tolerance band.
    al = _dx(C3, "z") + _dx(C3, "y") * (exp_of(rat(-40)) * sym("x") ** 2)
    v = contact_test(al, grid_n=4)
    assert (v.passed, v.undecided, v.reason) == (False, True, "samples in band")
    (r,) = v.charts
    assert (r.n_pos, r.n_neg, r.n_zero) == (0, 0, 16)
    # Beside band hits, decided samples of one sign still leave it
    # undecided, and of both signs fail it: density x^2 + 1/4, then x - 1/3.
    pos = sym("x") ** 3 * Fraction(1, 3) + sym("x") * Fraction(1, 4)
    mixed = sym("x") ** 2 * Fraction(1, 2) - sym("x") * Fraction(1, 3)
    for g, want in ((pos, (True, "samples in band")), (mixed, (False, "mixed signs"))):
        v = contact_test(_dx(C3, "z") + _dx(C3, "y") * g, grid_n=8, tol=0.3)
        (r,) = v.charts
        assert r.n_zero > 0 and r.n_pos > 0 and (r.n_neg > 0) == (g is mixed)
        assert not v.passed and (v.undecided, v.reason) == want


def test_contact_sampled_mixed_signs():
    # density x - 1/3 changes sign and misses every dyadic sample.
    g = sym("x") ** 2 * Fraction(1, 2) - sym("x") * Fraction(1, 3)
    al = _dx(C3, "z") + _dx(C3, "y") * g
    v = contact_test(al, grid_n=8)
    assert not v.passed
    assert v.reason == "mixed signs"
    (r,) = v.charts
    assert r.n_pos > 0 and r.n_neg > 0 and r.n_zero == 0


def test_contact_parametrized_sweep():
    g = sym("x") ** 3 * Fraction(1, 3) + sym("x") * Fraction(1, 4)
    al = _dx(C3, "z") + _dx(C3, "y") * g
    emb = ChartMap("emb", SP3, C3, (sym("a"), sym("th"), sym("ph")))
    v = contact_test(al, (emb,), grid_n=8, aux_count=2)
    assert v.passed
    (r,) = v.charts
    assert r.label == "chart0:emb"
    assert (r.mode, r.sign, r.samples) == ("sampled", 1, 128)
    assert r.jacobian_drops == 0


def test_contact_degenerate_parametrization():
    # y-component sin(8 th)/8 has derivative cos(8 th), which vanishes
    # at every offset grid angle (k + 1/2) pi / 8; the rank drop must
    # fail the check even though the sampled values are all ~0 too.
    comps = (sym("a"), sin_of(rat(8) * sym("th")) * Fraction(1, 8), sym("ph"))
    emb = ChartMap("pinch", SP3, C3, comps)
    al = _dx(C3, "z") + _dx(C3, "y") * sym("x")
    v = contact_test(al, (emb,), grid_n=8, aux_count=2)
    assert not v.passed
    assert v.reason == "degenerate parametrization samples"
    assert v.charts[0].jacobian_drops == 128


SP5 = Chart("sp5", ("z1", "z2", "z3", "th", "ph"))
P6 = Chart("p6", ("z1", "z2", "z3", "x1", "x2", "x3"))
TH, PH = sym("th"), sym("ph")
SPH_N = ChartMap(
    "sphN",
    SP5,
    P6,
    (sym("z1"), sym("z2"), sym("z3"), cos_of(TH), sin_of(TH) * cos_of(PH), sin_of(TH) * sin_of(PH)),
)


def _sweep_env(chart, grid_n, aux_count, seed=0):
    """The contact sweep's sample grid over a parametrization's source."""
    rng = random.Random(seed)
    env = {
        "th": ((np.arange(grid_n) + 0.5) * math.pi / grid_n).reshape(1, -1, 1),
        "ph": ((np.arange(grid_n) + 0.5) * 2 * math.pi / grid_n).reshape(1, 1, -1),
    }
    for c in chart.coords[:-2]:
        env[c] = _unit_draws(rng, aux_count).reshape(-1, 1, 1)
    return env, (aux_count, grid_n, grid_n)


def _full_batch_ratios(parm, env, shape):
    """Per sample of the sweep shape: the ratio of the Jacobian's smallest
    singular value (the src_dim-th) to its largest, from one SVD of the
    whole matrix per sample, and whether an entry is NaN or infinite."""
    src_dim = parm.source.dim
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stacked = np.stack(
            [
                np.stack([np.broadcast_to(compile_numpy(e)(env), shape) for e in row], axis=-1)
                for row in parm.jacobian()
            ],
            axis=-2,
        )
    bad = ~np.isfinite(stacked).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(bad[..., None, None], 0.0, stacked), compute_uv=False)
    smin = sv[..., src_dim - 1] if src_dim <= sv.shape[-1] else np.zeros(shape)
    return smin / np.maximum(sv[..., 0], 1e-300), bad


def _full_batch_drops(parm, env, shape):
    # The (drops, band, non_finite) counts with one SVD of the whole
    # Jacobian per sample: the reference for _count_jacobian_drops.
    ratio, bad = _full_batch_ratios(parm, env, shape)
    drop = ~bad & (ratio < RANK_BAND_FLOOR)
    band = ~bad & ~drop & (ratio <= RANK_THRESHOLD)
    return tuple(int(np.count_nonzero(m)) for m in (drop, band, bad))


@pytest.mark.parametrize(
    "parm, grid_n, aux_count, drops",
    [
        # The Jacobian uses the auxiliary a: its determinant a*cos(th)
        # vanishes on the th = pi/2 row of an odd grid, for every a and ph.
        (ChartMap("asin", SP3, C3, (sym("a"), sym("a") * sin_of(TH), PH)), 7, 3, 3 * 7),
        # cos(8 th) vanishes at every offset angle of an 8-point grid.
        (ChartMap("pinch", SP3, C3, (sym("a"), sin_of(rat(8) * TH) * Fraction(1, 8), PH)), 8, 2, 128),
        (SPH_N, 8, 2, 0),
    ],
    ids=["aux", "pinch", "sphN"],
)
def test_jacobian_drops_match_the_full_batch(parm, grid_n, aux_count, drops):
    env, shape = _sweep_env(parm.source, grid_n, aux_count)
    assert _full_batch_drops(parm, env, shape) == (drops, 0, 0)
    assert _count_jacobian_drops(parm, env, shape) == (drops, 0, 0)


SP4 = Chart("sp4", ("a", "b", "th", "ph"))
A, B = sym("a"), sym("b")
# Pieces of a random map's components by the Jacobian entries they give:
# constant, trigonometric, vanishing at 0, a product that joins two
# coordinates, a constant far above 1 (a ratio of e^-21, in the band,
# beside an entry of size 1), and a difference of exps that is NaN where
# both overflow, u > 1.77, and below 1e-60 for u < 0.7.
_PIECES = [
    lambda u, v: u * Fraction(3, 2),
    lambda u, v: sin_of(u),
    lambda u, v: u**2,
    lambda u, v: u * v,
    lambda u, v: exp_of(rat(21)) * u,
    lambda u, v: exp_of(rat(800) * u - rat(700)) - exp_of(rat(799) * u - rat(699)),
]
_SOURCE = [A, B, TH, PH]
_components = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(_PIECES)), max_size=2),
    min_size=3,
    max_size=6,
)


def _random_map(components):
    """A map SP4 -> R^m whose Jacobian's blocks follow from which source
    coordinates each component's pieces read.  Component k starts from the
    source coordinate k mod 4, so most maps reach every column."""
    comps = tuple(
        sum((piece(_SOURCE[i], _SOURCE[j]) for i, j, piece in pieces), _SOURCE[k % 4])
        for k, pieces in enumerate(components)
    )
    target = Chart("rm", tuple(f"y{k}" for k in range(len(comps))))
    return ChartMap("rand", SP4, target, comps)


@settings(max_examples=300, deadline=None)
@given(
    components=_components,
    grid_n=st.integers(1, 4),
    aux_count=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_block_counts_match_the_full_batch_outside_the_band_edges(components, grid_n, aux_count, seed):
    parm = _random_map(components)
    env, shape = _sweep_env(SP4, grid_n, aux_count, seed=seed)
    ratio, bad = _full_batch_ratios(parm, env, shape)
    # The block SVDs and the full one agree to rounding, so no ratio may
    # lie within a factor of 4 of either edge of the band.
    edges = [RANK_BAND_FLOOR, RANK_THRESHOLD]
    assume(not any(np.any(~bad & (ratio > e / 4) & (ratio < e * 4)) for e in edges))
    assert _count_jacobian_drops(parm, env, shape) == _full_batch_drops(parm, env, shape)


@pytest.mark.parametrize(
    "comps, counts",
    [
        # The ph column has no nonzero entry: every sample drops.
        ((A, TH, TH), (2 * 16, 0, 0)),
        # All entries are zero: every sample drops.
        ((rat(1), rat(2), rat(3)), (2 * 16, 0, 0)),
        # Row 0 reads a and th and no other row reads them: a block with
        # more columns than rows, beside a zero row.  Every sample drops.
        ((A + TH, rat(1), PH), (2 * 16, 0, 0)),
        # One block of constants, a single matrix of ratio e^-21: the band.
        ((exp_of(rat(21)) * A + TH, TH, PH), (0, 2 * 16, 0)),
        # exp(1000 th - 2000) overflows on the last grid row of th, and is
        # below 1e-12 on the others, which are regular.
        ((A, exp_of(rat(1000) * TH - rat(2000)) + TH, PH), (0, 0, 2 * 4)),
        # The same row as inf - inf: NaN, on which the SVD would fail.
        ((A, exp_of(rat(1000) * TH - rat(2000)) - exp_of(rat(999) * TH - rat(1998)) + TH, PH), (0, 0, 2 * 4)),
    ],
    ids=["zero column", "all zero", "wide block", "constant band", "infinite", "nan"],
)
def test_jacobian_edge_cases_match_the_full_batch(comps, counts):
    parm = ChartMap("edge", SP3, C3, comps)
    env, shape = _sweep_env(SP3, 4, 2)
    assert _count_jacobian_drops(parm, env, shape) == counts
    assert _full_batch_drops(parm, env, shape) == counts


def test_a_constant_jacobian_runs_one_svd_of_one_matrix(svd_batches):
    lin = ChartMap("lin", SP3, C3, (A + TH, TH * 2 - PH, PH * Fraction(1, 3)))
    env, shape = _sweep_env(SP3, 8, 3)
    assert _count_jacobian_drops(lin, env, shape) == (0, 0, 0)
    assert svd_batches == [()]


@pytest.fixture
def svd_batches(monkeypatch):
    """The batch shapes of every np.linalg.svd call made during the test."""
    batches = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        batches.append(a.shape[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return batches


def test_jacobian_svd_runs_once_per_distinct_matrix(svd_batches):
    # sphN's Jacobian splits into the identity on z1, z2, z3, a single
    # constant matrix, and the sphere block, which reads th and ph only:
    # one SVD per grid point, not one per sample.  A fresh map, since
    # SPH_N keeps the counts of the sweeps other tests ran on it.
    sph_n = ChartMap("sphN", SP5, P6, SPH_N.comps)
    env, shape = _sweep_env(SP5, 8, 3)
    assert _count_jacobian_drops(sph_n, env, shape) == (0, 0, 0)
    assert svd_batches == [(), (1, 8, 8)]
    # The same grid again is read from the map, with no SVD.
    assert _count_jacobian_drops(sph_n, env, shape) == (0, 0, 0)
    assert svd_batches == [(), (1, 8, 8)]


def test_kept_jacobian_drops_scale_with_each_sweeps_multiplicity(svd_batches):
    # pinch's Jacobian reads th only: the aux draws of a second sweep do
    # not change its count, only how many samples repeat each matrix.
    pinch = ChartMap("pinch", SP3, C3, (sym("a"), sin_of(rat(8) * TH) * Fraction(1, 8), PH))
    for aux_count in (2, 3):
        env, shape = _sweep_env(SP3, 8, aux_count)
        assert _count_jacobian_drops(pinch, env, shape) == _full_batch_drops(pinch, env, shape)
    # The constant block of a and ph and the th block for the memo, run
    # once; the other two are the reference's.
    assert svd_batches == [(), (1, 8, 1), (2, 8, 8), (3, 8, 8)]
    assert _count_jacobian_drops(pinch, env, shape) == (192, 0, 0)


def test_another_grid_runs_a_new_svd(svd_batches):
    pinch = ChartMap("pinch", SP3, C3, (sym("a"), sin_of(rat(8) * TH) * Fraction(1, 8), PH))
    for grid_n in (8, 7, 8):
        env, shape = _sweep_env(SP3, grid_n, 2)
        _count_jacobian_drops(pinch, env, shape)
    assert svd_batches == [(), (1, 8, 1), (), (1, 7, 1)]


def test_other_aux_draws_run_a_new_svd_when_the_jacobian_reads_them(svd_batches):
    # asin's Jacobian reads the auxiliary a, so its draws are in the key.
    # Its block of a and th runs over both axes, the ph block is constant.
    asin = ChartMap("asin", SP3, C3, (sym("a"), sym("a") * sin_of(TH), PH))
    for seed in (0, 1, 0):
        env, shape = _sweep_env(SP3, 7, 3, seed=seed)
        assert _count_jacobian_drops(asin, env, shape) == (3 * 7, 0, 0)
    assert svd_batches == [(3, 7, 1), (), (3, 7, 1), ()]


def test_a_new_numeric_for_an_opaque_entry_runs_a_new_svd(register_opaque, svd_batches):
    # The Jacobian entry f'(th) is looked up in the registry on every
    # evaluation, so the numeric it names is part of the key.
    fmap = ChartMap("fmap", SP3, C3, (sym("a"), opaque_fn("f", "th"), PH))
    env, shape = _sweep_env(SP3, 8, 2)
    register_opaque("f'", lambda t: np.ones_like(np.asarray(t, dtype=float)))
    assert _count_jacobian_drops(fmap, env, shape) == (0, 0, 0)
    register_opaque("f'", lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    assert _count_jacobian_drops(fmap, env, shape) == (128, 0, 0)
    assert svd_batches == [(), (1, 8, 1), (), (1, 8, 1)]


def test_s8_contact_sweeps_rank_test_each_map_once(svd_batches):
    # Checks 11-13 sweep alpha_K for three K through the same two sphere
    # charts: per map over the whole scope, one SVD of the constant z
    # block and one batch of the sphere block, and a second run of the
    # three reads the kept counts with the same evidence.
    from nsx.dsl import parse_scenario
    from nsx.runner import RunConfig, elaborate_scope, run_check
    from nsx.scenarios import SUITE

    config = RunConfig()
    (text,) = [t for sid, _anchor, t in SUITE if sid == "S8"]
    scenario = parse_scenario(text)
    scope = elaborate_scope(scenario, config)
    checks = scenario.checks()
    assert [checks[i].kind for i in (11, 12, 13)] == ["contact"] * 3

    def run():
        return [run_check(scope, checks[i], "S8", i, config).evidence for i in (11, 12, 13)]

    first = run()
    assert svd_batches == [(), (1, 64, 64), (), (1, 64, 64)]
    assert run() == first
    assert len(svd_batches) == 4
    assert all(
        chart["jacobian_drops"] == 0 and chart["samples"] == 8 * 64 * 64
        for evidence in first
        for chart in evidence["charts"]
    )


def test_contact_non_finite_samples_are_undecided(register_opaque):
    # The density is f'(x), whose registered numeric is NaN for x < 0;
    # those samples are neither signed nor zero, and the sweep is undecided.
    register_opaque("f'", lambda t: np.where(np.asarray(t, dtype=float) < 0, np.nan, 1.0))
    al = _dx(C3, "z") + _dx(C3, "y") * opaque_fn("f", "x")
    v = contact_test(al, grid_n=8)
    assert (v.passed, v.undecided, v.reason) == (False, True, "non-finite samples")
    (r,) = v.charts
    assert (r.mode, r.sign, r.samples) == ("sampled", 0, 64)
    assert 0 < r.non_finite < 64
    assert (r.n_pos, r.n_neg, r.n_zero) == (64 - r.non_finite, 0, 0)
    assert r.min_abs == 1.0 and r.worst_point["x"] >= 0


def test_contact_all_non_finite_samples_have_no_worst_point(register_opaque):
    register_opaque("f'", lambda t: np.full(np.shape(t), np.inf))
    al = _dx(C3, "z") + _dx(C3, "y") * opaque_fn("f", "x")
    v = contact_test(al, grid_n=4)
    assert v.undecided
    (r,) = v.charts
    assert (r.non_finite, r.n_pos, r.n_neg, r.n_zero) == (16, 0, 0, 0)
    assert r.min_abs is None and r.worst_point is None


def test_contact_needs_odd_chart():
    om = _w(0, 1) + _w(2, 3)
    with pytest.raises(DomainError):
        contact_test(_dx(C4, "t") + om.interior(_field_t()))


def _field_t():
    from nsx.charts import VectorField

    return VectorField.build(C4, [("t", ONE)])


def test_contact_mixed_chart_verdicts():
    # One symbolic-positive entry plus one mixed-sample entry: the
    # sweep fails as a whole.
    good = _dx(C3, "z") + _dx(C3, "y") * sym("x") - _dx(C3, "x") * sym("y")
    g = sym("x") ** 2 * Fraction(1, 2) - sym("x") * Fraction(1, 3)
    bad_map = ChartMap("skew", SP3, C3, (sym("a"), sym("th"), sym("ph")))
    bad = _dx(C3, "z") + _dx(C3, "y") * g
    v_good = contact_test(good, (None,), grid_n=8)
    v_bad = contact_test(bad, (None, bad_map), grid_n=8, aux_count=2)
    assert v_good.passed
    assert not v_bad.passed and v_bad.reason == "mixed signs"
    assert len(v_bad.charts) == 2


# -- stabilizing constant -------------------------------------------------


def test_stabilize_immediate():
    k, outcome = stabilizing_constant_search(_w(0, 1), _w(2, 3), [_origin(C4)])
    assert k == 1 and outcome.verdict == "pass"
    assert outcome.counterexamples == []


def test_stabilize_needs_doubling():
    # Pfaffian of eta + K*base at the two samples is K-1 and K-2, so
    # K = 1 and K = 2 each lose rank at one sample and K = 4 clears.
    eta = _w(0, 1) + _w(2, 3) * sym("x1")
    envs = [
        {"t": Fraction(0), "x1": Fraction(-1), "x2": Fraction(0), "x3": Fraction(0)},
        {"t": Fraction(0), "x1": Fraction(-2), "x2": Fraction(0), "x3": Fraction(0)},
    ]
    k, outcome = stabilizing_constant_search(eta, _w(2, 3), envs)
    assert k == 4 and outcome.verdict == "pass"
    # A budget of 1 or 2 ends the search on a failing K; its witness is
    # the one sample where that K loses rank.
    for j, failed in [(1, envs[0]), (2, envs[1])]:
        k, outcome = stabilizing_constant_search(eta, _w(2, 3), envs, k_max=j)
        assert k == j and outcome.verdict == "fail"
        assert [c["point"] for c in outcome.counterexamples] == [{c: str(v) for c, v in failed.items()}]


def test_stabilize_exhausts_budget():
    k, outcome = stabilizing_constant_search(_w(0, 1), _w(0, 2), [_origin(C4)], k_max=8)
    assert k == 8 and outcome.verdict == "fail"
    assert outcome.counterexamples == [
        {"point": {c: "0" for c in C4.coords}, "reason": "K = 8: rank 2, expected 4"}
    ]


def test_stabilize_rejects_bad_arguments():
    with pytest.raises(DomainError):
        stabilizing_constant_search(_dx(C4, "t"), _w(0, 1), [_origin(C4)])
    om3 = _dx(C3, "x").wedge(_dx(C3, "y"))
    with pytest.raises(DomainError):
        stabilizing_constant_search(_w(0, 1), om3, [_origin(C4)])
    with pytest.raises(DomainError, match="k_max must be at least 1"):
        stabilizing_constant_search(_w(0, 1), _w(2, 3), [_origin(C4)], k_max=0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_contact_test_rejects_a_tolerance_that_is_not_finite_and_at_least_0(tol):
    al = _dx(C3, "z") + coord_differential(C3, "y") * sym("x")
    with pytest.raises(DomainError, match=f"a tolerance must be a finite number at least 0, got {tol!r}"):
        contact_test(al, tol=tol)
