import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nsx import locus as locus_mod
from nsx.charts import Chart, ChartMap, DForm, VectorField, coord_differential, function_form, zero_form
from nsx.errors import DomainError
from nsx.locus import (
    CoordLocus,
    EmptyLocus,
    ImageLocus,
    LocusSampler,
    PointsLocus,
    Region,
    UnionLocus,
    derive_seed,
    lattice_envs,
    off_locus_envs,
    random_env,
    region_envs,
    verify_dividing_set,
    verify_fixed_points,
    verify_positive,
    verify_rank_drop_locus,
    verify_vanishing_locus,
)
from nsx.pointcheck import (
    form_matrix_at,
    gradient_matrix_at,
    gradient_rank_at,
    map_rank_at,
    near_symplectic_at,
    rank_at,
)
from nsx.points import PointSet, points_of
from nsx.symexpr import PI, evaluate, exp_of, opaque_fn, rat, sin_of, sym

C2 = Chart("c2", ("x", "y"))
P2 = Chart("p2", ("u", "v"))

F = Fraction


def _region(intervals=((F(-1), F(1)), (F(-1), F(1))), lattice=(3, 3), count=16, chart=C2):
    return Region(chart, intervals, lattice, count)


def _dy_times_x():
    return coord_differential(C2, "y") * sym("x")


def _nan_left(t):
    """Numeric of an opaque that is NaN for t < 0 and 1 elsewhere."""
    return np.where(np.asarray(t, dtype=float) < 0, np.nan, 1.0)


# -- seeds, lattices, sampling --------------------------------------------


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed("s", 1)
    assert a == derive_seed("s", 1)
    assert a != derive_seed("s", 2)
    assert 0 <= a < 1 << 63


def test_lattice_envs_inclusive_endpoints():
    envs = lattice_envs(_region(lattice=(3, 3), count=0))
    assert len(envs) == 9
    xs = sorted({e["x"] for e in envs})
    assert xs == [F(-1), F(0), F(1)]
    assert all(isinstance(e["x"], Fraction) for e in envs)


def test_lattice_resolution_one_takes_midpoint():
    envs = lattice_envs(_region(intervals=((F(0), F(1)), (F(2), F(4))), lattice=(1, 1)))
    assert envs == [{"x": F(1, 2), "y": F(3)}]


def test_lattice_float_bounds_stay_float():
    envs = lattice_envs(_region(intervals=((0.0, 0.5), (F(-1), F(1))), lattice=(2, 2)))
    assert {e["x"] for e in envs} == {0.0, 0.5}
    assert all(isinstance(e["x"], float) for e in envs)
    assert all(isinstance(e["y"], Fraction) for e in envs)


def test_random_env_dyadic_and_bounded():
    rng = random.Random(5)
    for _ in range(50):
        env = random_env(_region(), rng)
        for c in ("x", "y"):
            v = env[c]
            assert isinstance(v, Fraction)
            assert F(-1) <= v <= F(1)
            assert (v.denominator & (v.denominator - 1)) == 0  # dyadic


_RATIONALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
_FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


def _old_dyadic_between(rng, lo, hi):
    k = rng.randrange(0, 4097)
    if isinstance(lo, (int, Fraction)) and isinstance(hi, (int, Fraction)):
        return Fraction(lo) + (Fraction(hi) - Fraction(lo)) * Fraction(k, 4096)
    return float(lo) + (float(hi) - float(lo)) * (k / float(4096))


def _dyadic_between(rng, lo, hi):
    return locus_mod._dyadic_between(rng, lo, hi, locus_mod._dyadic_axis(lo, hi))


def _same_draw(lo, hi, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    got, want = _dyadic_between(rng, lo, hi), _old_dyadic_between(ref, lo, hi)
    assert rng.getstate() == ref.getstate()  # one randrange per draw
    return got, want


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS, st.integers(0, 2**32))
def test_dyadic_between_matches_fraction_reference(lo, hi, seed):
    for a, b in ((lo, hi), (hi, lo), (lo, lo)):
        got, want = _same_draw(a, b, seed)
        assert isinstance(got, Fraction) and got == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(_FLOATS, _RATIONALS), _FLOATS, st.integers(0, 2**32))
def test_dyadic_between_float_bounds_are_bit_identical(lo, hi, seed):
    for a, b in ((lo, hi), (hi, lo), (hi, hi)):
        got, want = _same_draw(a, b, seed)
        assert isinstance(got, float) and got.hex() == want.hex()


class _FixedDraw:
    """A stand-in generator whose one draw is a chosen k."""

    def __init__(self, k):
        self.k = k

    def randrange(self, start, stop):
        assert (start, stop) == (0, 4097)
        return self.k


@pytest.mark.parametrize("lo, hi", [(F(-3, 7), F(5, 11)), (-2, 3), (F(9, 4), -1), (F(1, 3), F(1, 3))])
def test_dyadic_between_every_k_matches_fraction_reference(lo, hi):
    for k in range(4097):
        got = _dyadic_between(_FixedDraw(k), lo, hi)
        assert got == _old_dyadic_between(_FixedDraw(k), lo, hi)


def test_region_validation():
    with pytest.raises(DomainError):
        Region(C2, ((F(0), F(1)),), (3, 3), 1)
    with pytest.raises(DomainError):
        Region(C2, ((F(0), F(1)), (F(0), F(1))), (3,), 1)
    with pytest.raises(DomainError):
        Region(C2, ((F(1), F(0)), (F(0), F(1))), (3, 3), 1)
    with pytest.raises(DomainError):
        _region(count=-1)
    with pytest.raises(DomainError):
        lattice_envs(_region(lattice=(0, 1)))


def test_region_contains():
    r = _region(count=4)
    assert r.contains({"x": F(0), "y": F(1)})
    assert not r.contains({"x": F(2), "y": F(0)})


# -- locus flavours --------------------------------------------------------


def test_coord_locus_validation():
    with pytest.raises(DomainError):
        CoordLocus(C2, (("z", F(0)),))
    with pytest.raises(DomainError):
        CoordLocus(C2, ())
    assert CoordLocus(C2, (("x", F(0)),)).pinned == {"x": F(0)}


def test_coord_locus_samples_sweep_free_axes():
    s = LocusSampler(CoordLocus(C2, (("x", F(0)),)), _region(lattice=(5, 3)), seed=1)
    assert len(s.on_envs) == 3
    assert all(e["x"] == 0 for e in s.on_envs)
    assert sorted(e["y"] for e in s.on_envs) == [F(-1), F(0), F(1)]


def test_partial_coord_locus_needs_matching_region():
    locus = CoordLocus(C2, (("x", F(0)),))
    for region in (_region(chart=P2), None):
        with pytest.raises(DomainError):
            LocusSampler(locus, region, seed=0)
    full = CoordLocus(C2, (("x", F(0)), ("y", F(2))))
    s = LocusSampler(full, None, seed=0)
    assert s.on_envs == [{"x": F(0), "y": F(2)}]


def test_off_locus_samples_need_a_region():
    # A fully pinned coordinate locus samples on itself with no region,
    # but every check that also samples off the locus needs one.
    origin = CoordLocus(C2, (("x", F(0)), ("y", F(0))))
    fold = ChartMap("fold", C2, C2, (sym("x"), sym("y") ** 2))
    radial = VectorField.build(C2, [("x", sym("x")), ("y", sym("y"))])
    ey = VectorField.build(C2, [("y", rat(1))])
    checks = [
        lambda: verify_vanishing_locus(_dy_times_x(), origin, None),
        lambda: verify_rank_drop_locus(fold, origin, None, regular_rank=2, singular_rank=1),
        lambda: verify_fixed_points(radial, origin, None),
        lambda: verify_dividing_set(_dy_times_x(), ey, sym("x"), origin, None),
    ]
    for check in checks:
        with pytest.raises(DomainError, match="^off-locus samples need a region$"):
            check()
    waived = verify_vanishing_locus(_dy_times_x(), origin, None, off_mode="none")
    assert (waived.on_count, waived.off_count) == (1, 0)


def test_a_locus_and_its_region_must_share_a_chart():
    same_names = Chart("c2b", C2.coords)
    for chart in (P2, same_names):
        for locus in (CoordLocus(C2, (("x", F(0)), ("y", F(0)))), EmptyLocus(C2)):
            with pytest.raises(DomainError, match=f"^locus on chart c2 but region on chart {chart.name}$"):
                LocusSampler(locus, _region(chart=chart), seed=0)


def test_points_locus_samples():
    locus = PointsLocus(C2, ((("x", F(0)), ("y", F(0))), (("x", F(1)), ("y", F(1)))))
    s = LocusSampler(locus, _region(), seed=0)
    assert s.on_envs == [{"x": F(0), "y": F(0)}, {"x": F(1), "y": F(1)}]


def test_image_locus_samples():
    src = Region(P2, ((F(0), F(1)), (F(0), F(1))), (2, 2), 3)
    ident = LocusSampler(ImageLocus(None, src), None, seed=7)
    assert len(ident.on_envs) == 4 + 3
    sq = ChartMap("sq", P2, C2, (sym("u") ** 2, sym("v")))
    mapped = LocusSampler(ImageLocus(sq, src), None, seed=7)
    assert mapped.locus.chart == C2
    assert len(mapped.on_envs) == 7
    for e in mapped.on_envs:
        assert set(e) == {"x", "y"}
        assert e["x"] >= 0


def test_union_locus_concatenates_and_validates():
    a = CoordLocus(C2, (("x", F(0)), ("y", F(0))))
    b = PointsLocus(C2, ((("x", F(1)), ("y", F(1))),))
    u = UnionLocus((a, b))
    s = LocusSampler(u, None, seed=0)
    assert len(s.on_envs) == 2
    with pytest.raises(DomainError):
        UnionLocus((a, PointsLocus(P2, ())))


def test_empty_locus_has_no_samples():
    s = LocusSampler(EmptyLocus(C2), _region(), seed=0)
    assert s.on_envs == []
    assert s.distance_sq({"x": F(0), "y": F(0)}) is None


# -- distances and rejection ----------------------------------------------


def test_coord_locus_distance_is_exact():
    s = LocusSampler(CoordLocus(C2, (("x", F(0)),)), _region(), seed=0)
    d = s.distance_sq({"x": F(3, 4), "y": F(17)})
    assert d == F(9, 16) and isinstance(d, Fraction)


def _old_coord_dist_sq(values, env):
    total = Fraction(0)
    for c, v in values:
        d = env[c] - v
        total = total + d * d
    return total


@settings(max_examples=200, deadline=None)
@given(st.lists(_RATIONALS, min_size=2, max_size=2), st.lists(_RATIONALS, min_size=2, max_size=2))
def test_coord_locus_distance_matches_fraction_sum(pins, point):
    for values in ((("x", pins[0]),), (("y", pins[1]),), (("x", pins[0]), ("y", pins[1]))):
        s = LocusSampler(CoordLocus(C2, values), None if len(values) == 2 else _region(), seed=0)
        env = {"x": point[0], "y": point[1]}
        d = s.distance_sq(env)
        assert isinstance(d, Fraction)
        assert d == sum(((env[c] - v) ** 2 for c, v in values), Fraction(0))


def test_coord_locus_distance_with_a_float_is_exact():
    # A float reads as the binary rational it is, wherever it stands.
    values = (("x", F(1, 3)), ("y", F(-2, 7)))
    s = LocusSampler(CoordLocus(C2, values), None, seed=0)
    for env in ({"x": 0.1, "y": F(5, 9)}, {"x": F(5, 9), "y": 0.1}, {"x": 0.1, "y": -2.75}):
        d = s.distance_sq(env)
        want = _old_coord_dist_sq(values, {c: F(*v.as_integer_ratio()) for c, v in env.items()})
        assert isinstance(d, Fraction) and d == want
        assert d != _old_coord_dist_sq(values, env)  # the float sum rounds
    # A NaN, or an infinity meeting one of its own sign, makes the distance
    # NaN; otherwise an infinity makes it inf.
    cases = [(math.nan, F(0), "nan"), (math.inf, F(10**400), "inf"), (-math.inf, math.inf, "inf")]
    for pin, x, want in cases + [(math.inf, math.inf, "nan")]:
        d = locus_mod._coord_dist_sq((("y", F(1, 3)), ("x", pin)), {"x": x, "y": F(0)})
        assert isinstance(d, float) and repr(d) == want


def test_union_parts_draw_their_clouds_once(monkeypatch):
    src = Region(P2, ((F(0), F(1)), (F(0), F(1))), (2, 2), 5)
    sq = ChartMap("sq", P2, C2, (sym("u") ** 2, sym("v")))
    shift = ChartMap("shift", P2, C2, (sym("u") + 2, sym("v") - 1))
    parts = (ImageLocus(sq, src), ImageLocus(shift, src))
    u = UnionLocus(parts)
    s = LocusSampler(u, _region(), seed=11)

    drawn = []
    original = locus_mod._locus_on_envs
    monkeypatch.setattr(
        locus_mod, "_locus_on_envs", lambda lc, r, seed: drawn.append(lc) or original(lc, r, seed)
    )
    envs = [random_env(_region(), random.Random(i)) for i in range(20)]
    got = [s.distance_sq(e) for e in envs]
    assert len(drawn) == 2 and {id(p) for p in drawn} == {id(p) for p in parts}

    # A part's cloud is drawn with the sampler's seed itself.
    clouds = [original(p, None, 11) for p in parts]
    for env, d in zip(envs, got):
        want = min(
            sum(((env[c] - q[c]) ** 2 for c in ("x", "y")), Fraction(0))
            for cloud in clouds
            for q in cloud
        )
        assert d == want


def test_points_locus_distance_takes_nearest():
    locus = PointsLocus(C2, ((("x", F(0)), ("y", F(0))), (("x", F(4)), ("y", F(0)))))
    s = LocusSampler(locus, _region(), seed=0)
    assert s.distance_sq({"x": F(3), "y": F(4)}) == F(17)


def test_union_distance_is_minimum():
    u = UnionLocus(
        (CoordLocus(C2, (("x", F(0)),)), CoordLocus(C2, (("y", F(0)),)))
    )
    s = LocusSampler(u, _region(), seed=0)
    assert s.distance_sq({"x": F(3), "y": F(4)}) == F(9)


def test_off_locus_envs_respect_margin():
    s = LocusSampler(CoordLocus(C2, (("x", F(0)),)), _region(count=0), seed=3)
    envs, exhausted = off_locus_envs(s, F(1, 8), 20, seed=3)
    assert not exhausted and len(envs) == 20
    assert all(s.distance_sq(e) >= F(1, 64) for e in envs)
    again, _ = off_locus_envs(s, F(1, 8), 20, seed=3)
    assert again == envs
    with pytest.raises(DomainError, match="a margin must be rational"):
        off_locus_envs(s, 0.125, 20, seed=3)


def test_off_locus_envs_exhaust():
    flat = Region(C2, ((F(0), F(0)), (F(0), F(1))), (1, 2), 0)
    s = LocusSampler(CoordLocus(C2, (("x", F(0)),)), flat, seed=0)
    envs, exhausted = off_locus_envs(s, F(1, 8), 4, seed=0)
    assert exhausted and envs == []


# -- off-locus draws as integer numerators ---------------------------------


def _reference_off_locus_envs(sampler, margin, count, seed):
    """The rejection loop on random_env dicts and distance_sq, one draw at
    a time."""
    rng = random.Random(derive_seed(seed, "off-locus"))
    margin_sq = margin * margin
    out = []
    budget = max(64, 50 * count)
    draws = 0
    while len(out) < count and draws < budget:
        draws += 1
        env = random_env(sampler.region, rng)
        d = sampler.distance_sq(env)
        if d is None or d >= margin_sq:
            out.append(env)
    return out, len(out) < count


def _assert_same_values(got, want):
    """The same envs: equal Fractions, and floats with the same bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for c in w:
            assert type(g[c]) is type(w[c])
            assert g[c].hex() == w[c].hex() if isinstance(w[c], float) else g[c] == w[c]


def _assert_same_off_locus_envs(locus, region, margin, count, seed):
    """The draws equal the reference's: the same values, the same
    exhausted flag, and bit-identical float columns."""
    sampler = LocusSampler(locus, region, seed=0)
    got, exhausted = off_locus_envs(sampler, margin, count, seed)
    want, want_exhausted = _reference_off_locus_envs(sampler, margin, count, seed)
    assert isinstance(got, locus_mod._DyadicPoints)
    assert exhausted == want_exhausted
    _assert_same_values(list(got), want)
    for c, col in zip(region.chart.coords, got.floats):
        want_col = np.array([float(e[c]) for e in want], dtype=np.float64)
        assert col.dtype == np.float64 and col.tobytes() == want_col.tobytes()
    return got


# Every strategy is built once, here: a strategy built inside a composite is
# a new object on every draw, and hypothesis analyses each one again, which
# made data generation most of the cost of shrinking a failure.
def _rationals(lo, hi, max_denominator):
    """Rationals in [lo, hi] with denominators up to max_denominator: the
    nearest one to a point of the 1/max_denominator grid, clamped.  Drawn
    from two independent integers: st.fractions builds new strategies on
    every draw."""
    n = max_denominator
    return st.tuples(st.integers(math.ceil(lo * n), math.floor(hi * n)), st.integers(1, n)).map(
        lambda t: min(max(F(t[0], n).limit_denominator(t[1]), F(lo)), F(hi))
    )


_SMALL_RATIONALS = _rationals(-8, 8, 1000)
_BIG_RATIONALS = _rationals(-(10**9), 10**9, 10**9)
_FLOAT_ENDS = st.one_of(st.floats(-8, 8), st.floats(-(10**9), 10**9))
_WIDE_INTEGERS = st.integers(-(2**60), 2**60)  # numerators past 2**53
_PIN_VALUES = st.one_of(_SMALL_RATIONALS, st.integers(-2, 2))
_SOURCE = Chart("s", ("u", "w"))
_CHARTS = {dim: Chart("h", tuple(f"x{i}" for i in range(dim))) for dim in (1, 2, 3)}


def _interval(ends):
    return st.lists(ends, min_size=2, max_size=2).map(lambda pair: tuple(sorted(pair)))


_SOURCE_INTERVALS = _interval(_rationals(F(1, 4), 2, 16))
# Rational, float-bounded and mixed intervals, with numerators and
# denominators on both sides of 2**53.
_INTERVALS = _interval(
    st.one_of(_SMALL_RATIONALS, _SMALL_RATIONALS.map(int), _BIG_RATIONALS, _WIDE_INTEGERS, _FLOAT_ENDS)
)
_MONOMIALS = st.lists(
    st.tuples(_SMALL_RATIONALS, st.sampled_from(_SOURCE.coords), st.integers(0, 2)), min_size=1, max_size=3
)
_PART_KINDS = st.sampled_from(("coords", "points", "image", "identity", "sine", "empty"))
_MARGINS = st.one_of(_rationals(0, 2, 64), st.integers(0, 2))
_LATTICE_SIZES = st.integers(1, 2)
_RANDOM_COUNTS = st.integers(0, 2)
_DIMS = st.integers(1, 3)
_AXES = {dim: st.integers(0, dim - 1) for dim in _CHARTS}
_COUNTS = st.integers(0, 30)
_SEEDS = st.integers(0, 2**32)


def _source_region(draw, chart):
    """A small rational region inside [1/4, 2]^n, away from sin's zero."""
    intervals = tuple(draw(_SOURCE_INTERVALS) for _ in chart.coords)
    lattice = tuple(draw(_LATTICE_SIZES) for _ in chart.coords)
    return Region(chart, intervals, lattice, draw(_RANDOM_COUNTS))


def _polynomial(draw):
    """A polynomial over the source chart."""
    return sum((rat(c) * sym(u) ** k for c, u, k in draw(_MONOMIALS)), rat(0))


@st.composite
def _part(draw, chart, pinned, orders):
    """A non-union locus on the chart; a sine image has float targets."""
    kind = draw(_PART_KINDS)
    if kind == "coords":
        return CoordLocus(chart, tuple((c, draw(_PIN_VALUES)) for c in draw(pinned)))
    if kind == "points":
        return PointsLocus(chart, tuple(tuple((c, draw(_PIN_VALUES)) for c in cs) for cs in draw(orders)))
    if kind == "identity":
        return ImageLocus(None, _source_region(draw, chart))
    if kind == "empty":
        return EmptyLocus(chart)
    comps = [_polynomial(draw) for _ in chart.coords]
    if kind == "sine":
        comps[0] = comps[0] + sin_of(sym("u"))
    return ImageLocus(ChartMap("m", _SOURCE, chart, tuple(comps)), _source_region(draw, _SOURCE))


_PARTS = {
    dim: _part(
        chart,
        st.lists(st.sampled_from(chart.coords), min_size=1, max_size=dim, unique=True),
        st.lists(st.permutations(chart.coords), min_size=1, max_size=3),
    )
    for dim, chart in _CHARTS.items()
}
_UNIONS = {dim: st.lists(part, min_size=1, max_size=3) for dim, part in _PARTS.items()}


@st.composite
def _locus_cases(draw):
    dim = draw(_DIMS)
    chart = _CHARTS[dim]
    intervals = tuple(draw(_INTERVALS) for _ in range(dim))
    if draw(st.booleans()):  # an interval with lo == hi
        i = draw(_AXES[dim])
        intervals = intervals[:i] + ((intervals[i][0],) * 2,) + intervals[i + 1:]
    if draw(st.booleans()):
        locus = draw(_PARTS[dim])
    else:
        locus = UnionLocus(tuple(draw(_UNIONS[dim])))
    region = Region(chart, intervals, (1,) * dim, 0)
    margin = draw(_MARGINS)
    return locus, region, margin, draw(_COUNTS), draw(_SEEDS)


# Without the explain phase: after shrinking, it reruns the failing example
# with parts varied and has pytest format every failure it sees, at about
# 0.2 s each for this module; a failure took minutes to report with it.
@settings(max_examples=200, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(_locus_cases())
def test_integer_off_locus_draws_match_the_reference(case):
    _assert_same_off_locus_envs(*case)


@st.composite
def _region_cases(draw):
    dim = draw(_DIMS)
    intervals = tuple(draw(_INTERVALS) for _ in range(dim))
    lattice = tuple(draw(_LATTICE_SIZES) for _ in range(dim))
    return Region(_CHARTS[dim], intervals, lattice, draw(_COUNTS)), draw(_SEEDS)


@settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(_region_cases())
def test_region_envs_match_random_env(case):
    region, seed = case
    rng = random.Random(seed)
    want = [random_env(region, rng) for _ in range(region.random_count)]
    _assert_same_values(region_envs(region, seed), list(lattice_envs(region)) + want)
    # The float columns of the same draws carry the same bits.
    stream = locus_mod._DyadicStream(random.Random(seed))
    cols = locus_mod._DyadicPoints.read(region, stream, region.random_count).floats
    for c, col in zip(region.chart.coords, cols):
        assert col.tobytes() == np.array([float(e[c]) for e in want], dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "lo, narrow",
    [
        (-F(1, 2**41 - 1), True),  # denominator (2**41 - 1) * 2**12, just below 2**53
        (-F(1, 2**41 + 1), False),  # denominator just above 2**53
        (-(2**41 - 1), True),  # numerator of lo just below 2**53
        (-(2**41), False),  # numerator of lo at 2**53
    ],
)
def test_off_locus_float_bound_picks_the_path(lo, narrow):
    # The numerators of an axis are int64 below 2**53 and Python ints past it.
    region = _region(intervals=((lo, 0), (F(-1), F(1))))
    locus = CoordLocus(C2, (("y", F(0)),))
    got = _assert_same_off_locus_envs(locus, region, F(1, 8), 40, seed=11)
    assert len(got) == 40
    assert got.numerators[0].dtype == (np.int64 if narrow else object)


def test_off_locus_margin_is_inclusive():
    # Every draw has x = 1/2, at squared distance exactly margin**2 from x = 0.
    region = _region(intervals=((F(1, 2), F(1, 2)), (F(-1), F(1))))
    got = _assert_same_off_locus_envs(CoordLocus(C2, (("x", F(0)),)), region, F(1, 2), 12, seed=2)
    assert len(got) == 12 and {e["x"] for e in got} == {F(1, 2)}


def test_off_locus_exhausted_budget_matches_the_reference():
    region = _region(intervals=((F(0), F(0)), (F(0), F(1))))
    got = _assert_same_off_locus_envs(CoordLocus(C2, (("x", F(0)),)), region, F(1, 8), 4, seed=0)
    assert len(got) == 0


_POINTS = PointsLocus(C2, ((("y", F(1, 3)), ("x", F(0))), (("x", F(-1, 2)), ("y", 1))))
_SQUARE = Region(P2, ((F(1, 4), F(1)), (F(0), F(1))), (2, 2), 3)
_RATIONAL_IMAGE = ImageLocus(ChartMap("sq", P2, C2, (sym("u") ** 2, sym("v") - sym("u"))), _SQUARE)
_SINE_IMAGE = ImageLocus(ChartMap("sine", P2, C2, (sin_of(sym("u")), sym("v"))), _SQUARE)
_RATIONAL_UNION = UnionLocus((CoordLocus(C2, (("x", F(0)),)), _POINTS, _RATIONAL_IMAGE, EmptyLocus(C2)))
_RATIONAL_BOX = ((F(-1), F(1)), (F(-1), F(1)))


@pytest.mark.parametrize(
    "locus",
    [_POINTS, _RATIONAL_IMAGE, EmptyLocus(C2), _RATIONAL_UNION],
    ids=["points", "image", "empty", "union"],
)
def test_rational_targets_take_the_integer_path(locus):
    got = _assert_same_off_locus_envs(locus, _region(intervals=_RATIONAL_BOX), F(1, 8), 16, seed=4)
    assert len(got) == 16


@pytest.mark.parametrize(
    "locus, intervals",
    [
        (CoordLocus(C2, (("x", F(0)),)), ((-1.0, 1.0), (F(-1), F(1)))),
        (_POINTS, ((F(-1), F(1)), (-1.0, 1.0))),
        (UnionLocus((_POINTS, PointsLocus(C2, ((("x", math.inf), ("y", F(0))),)))), _RATIONAL_BOX),
    ],
    ids=["float-region", "points-in-float-region", "infinite-target"],
)
def test_float_regions_and_targets_match_the_reference(locus, intervals):
    # A rational pin on a float-bounded axis is a float term, as is an
    # infinite one, which no draw is near.
    got = _assert_same_off_locus_envs(locus, _region(intervals=intervals), F(1, 8), 16, seed=4)
    assert len(got) == 16


def test_a_nan_target_rejects_every_draw_in_any_union_order():
    # Every draw is at NaN distance from the NaN target.
    nan_target = PointsLocus(C2, ((("x", math.nan), ("y", F(0))),))
    line = CoordLocus(C2, (("x", F(0)),))
    samplers = [
        LocusSampler(UnionLocus(parts), _region(intervals=_RATIONAL_BOX), seed=0)
        for parts in ((nan_target, line), (line, nan_target))
    ]
    assert [off_locus_envs(s, F(1, 8), 8, seed=3) for s in samplers] == [([], True)] * 2
    # The per-draw reference takes the nearest target with min(), which
    # keeps a NaN only when it comes first.
    first, last = (_reference_off_locus_envs(s, F(1, 8), 8, seed=3) for s in samplers)
    assert first == ([], True) and len(last[0]) == 8


C3 = Chart("c3", ("x", "y", "z"))
# Rational and float pins in one target, in either order.
_EXACT_PREFIX = PointsLocus(
    C3,
    (
        (("x", F(1, 3)), ("y", F(-2, 7)), ("z", 0.1)),
        (("z", F(1, 5)), ("x", 0.7), ("y", F(3, 11))),
    ),
)


@pytest.mark.parametrize(
    "locus, region",
    [
        (_SINE_IMAGE, _region(intervals=_RATIONAL_BOX)),
        (UnionLocus((_POINTS, _SINE_IMAGE)), _region(intervals=_RATIONAL_BOX)),
        (_EXACT_PREFIX, Region(C3, ((F(-1), F(1)),) * 3, (2, 2, 2), 0)),
    ],
    ids=["sine-image", "union-with-sine-image", "rational-before-float"],
)
def test_finite_float_targets_take_the_array_path(locus, region):
    got = _assert_same_off_locus_envs(locus, region, F(1, 8), 16, seed=4)
    assert len(got) == 16


@pytest.mark.parametrize(
    "margin, accepted",
    # float(1/25) is above 1/25 and float(1/9) below 1/9.
    [(F(1, 5), 8), (F(1, 3), 8)],
)
def test_a_float_distance_tied_with_the_margin_is_decided_exactly(margin, accepted):
    # Every draw is the origin, at exact distance margin**2 from the target
    # whose x pin is the float 0.0, so the inclusive margin accepts it,
    # whichever way the float distance and float(margin**2) round.
    region = _region(intervals=((F(0), F(0)), (F(0), F(0))))
    target = PointsLocus(C2, ((("x", 0.0), ("y", -margin)),))
    got = _assert_same_off_locus_envs(target, region, margin, 8, seed=0)
    assert len(got) == accepted


@pytest.mark.parametrize(
    "locus, margin",
    [
        (CoordLocus(C2, (("x", F(1, 3)),)), F(1, 8)),
        (PointsLocus(C2, ((("x", 0.5), ("y", F(1, 3))), (("y", F(-1, 7)), ("x", F(2, 9))))), F(2**39)),
    ],
    ids=["rational", "float"],
)
def test_squares_beyond_int64_use_python_ints(locus, margin):
    # Draws reach +-2**40, so the squares pass 2**80 and the filter's
    # bound scales with them.
    region = _region(intervals=((-(2**40), 2**40), (-(2**40), 2**40)))
    got = _assert_same_off_locus_envs(locus, region, margin, 40, seed=5)
    assert 0 < len(got)


def _many_targets(with_nan):
    """A union of 70 rational points, 20 points with a float x, 6 lines with
    a rational pin before a float one, and two targets whose squares pass
    int64 (one exact, one with a float pin), among them; with_nan adds a
    point whose x is NaN to the float-x points."""
    rng = random.Random(8)
    rational = [(("x", F(rng.randint(-16, 16), 16)), ("y", F(rng.randint(-9, 9), 9))) for _ in range(70)]
    float_x = [(("x", rng.uniform(-1, 1)), ("y", F(rng.randint(-7, 7), 7))) for _ in range(20)]
    rational[35:35] = [(("x", F(1, 3**25)), ("y", F(2, 7)))]
    float_x[10:10] = [(("x", 0.25), ("y", F(1, 3**25)))] + ([(("x", math.nan), ("y", F(0)))] if with_nan else [])
    lines = [CoordLocus(C2, (("y", F(rng.randint(-5, 5), 5)), ("x", rng.uniform(-1, 1)))) for _ in range(6)]
    return UnionLocus((PointsLocus(C2, tuple(rational)), *lines, PointsLocus(C2, tuple(float_x))))


@pytest.mark.parametrize("with_nan", [False, True], ids=["finite", "nan-pin"])
def test_grouped_targets_match_the_reference_draw_for_draw(with_nan):
    # Targets that pin the same axes in the same order are tested as one
    # array, at most 64 at a time: the 92 points make two groups and the 6
    # lines, which pin y first, a third.  Every draw's verdict is the exact
    # `_coord_dist_sq` test at every target.  A NaN pin rejects every draw,
    # from inside its group.
    region, margin = _region(intervals=_RATIONAL_BOX), F(1, 16)
    sampler = LocusSampler(_many_targets(with_nan), region, seed=0)
    tests = locus_mod._margin_test(sampler, margin)
    assert len(sampler.targets) == 98 + with_nan and len(tests) == 3
    batch = locus_mod._DyadicPoints.read(region, locus_mod._DyadicStream(random.Random(6)), 400)
    ok = np.ones(len(batch), dtype=bool)
    for passes in tests:
        passes(batch, ok)
    want = [all(locus_mod._coord_dist_sq(t, env) >= margin * margin for t in sampler.targets) for env in batch]
    assert ok.tolist() == want
    assert any(want) != with_nan and not all(want)
    if not with_nan:
        assert len(_assert_same_off_locus_envs(sampler.locus, region, margin, 16, seed=4)) == 16


# Rational, float-bounded and +-2**40 regions; draws and near pins on them.
_FILTER_REGIONS = st.one_of(
    st.tuples(_interval(_SMALL_RATIONALS), _interval(_SMALL_RATIONALS)),
    st.tuples(_interval(st.floats(-8, 8)), _interval(st.floats(-8, 8))),
    st.just(((-(2**40), 2**40),) * 2),
)
_NEAR_PINS = st.lists(
    st.tuples(st.integers(0, 31), st.integers(-4, 4), st.sampled_from(("x", "y", "xy")), st.booleans()),
    min_size=1,
    max_size=6,
)


@st.composite
def _filter_cases(draw):
    """A region, a margin, a batch of 32 draws, and targets whose distance
    to one draw each is margin**2 times (1 + j*2**-52)**2 for a small j,
    with pins as exact rationals or rounded to floats."""
    region = Region(C2, draw(_FILTER_REGIONS), (1, 1), 0)
    margin = draw(_rationals(F(1, 64), 2, 64))
    batch = locus_mod._DyadicPoints.read(region, locus_mod._DyadicStream(random.Random(draw(_SEEDS))), 32)
    targets = []
    for i, j, axes, as_float in draw(_NEAR_PINS):
        reach = margin * (1 + F(j, 2**52))
        offsets = {axes: reach} if len(axes) == 1 else {"x": reach * F(3, 5), "y": reach * F(4, 5)}
        pins = tuple((c, F(batch[i][c]) - d) for c, d in offsets.items())
        targets.append(tuple((c, float(v)) for c, v in pins) if as_float else pins)
    return region, margin, batch, targets


def test_the_margin_filter_decides_every_draw_as_the_exact_distance(monkeypatch):
    # Each target's float test matches `_coord_dist_sq` at every draw, and
    # pins within a few ulps of the margin send pairs to that exact fallback.
    exact = locus_mod._coord_dist_sq
    fallbacks = []
    monkeypatch.setattr(locus_mod, "_coord_dist_sq", lambda pins, env: fallbacks.append(pins) or exact(pins, env))

    @settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
    @given(_filter_cases())
    def check(case):
        region, margin, batch, targets = case
        for target in targets:
            locus = CoordLocus(C2, target) if len(target) == 1 else PointsLocus(C2, (target,))
            (passes,) = locus_mod._margin_test(LocusSampler(locus, region, seed=0), margin)
            ok = np.ones(len(batch), dtype=bool)
            passes(batch, ok)
            assert ok.tolist() == [exact(target, env) >= margin * margin for env in batch]

    check()
    assert fallbacks


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("sizes", [(0, 1, 5), (513,), (3, 1000, 1, 64)])
def test_dyadic_stream_is_the_randrange_sequence(seed, sizes):
    reader = locus_mod._DyadicStream(random.Random(seed))
    reference = random.Random(seed)
    for n in sizes:
        got = reader.take(n)
        assert got.dtype == np.int64
        assert got.tolist() == [reference.randrange(0, 4097) for _ in range(n)]


def test_dyadic_stream_batch_ending_on_a_rejected_word():
    # A seed whose first read, of 2*n + 64 words, ends on a word whose top
    # 13 bits exceed 4096, so the next batch starts after a rejection.
    n, words = 10, 2 * 10 + 64
    seed = next(s for s in range(100) if random.Random(s).getrandbits(32 * words) >> 32 * words - 13 > 4096)
    reader = locus_mod._DyadicStream(random.Random(seed))
    reference = random.Random(seed)
    for size in (n, 2 * n + 70, 1):
        assert reader.take(size).tolist() == [reference.randrange(0, 4097) for _ in range(size)]


def test_random_draws_run_a_point_check_at_every_draw():
    # Seeded draws do not look for classes (`PointSet.may_repeat`), so a
    # check runs at every draw, also where two draws agree; the same points
    # as a plain point set run it once per class.
    from nsx.pointcheck import per_class

    cmap = ChartMap("m", C2, C2, (sym("x") ** 2, sym("x") * sym("y")))
    draws = locus_mod._DyadicPoints(_region(), np.array([[5, 7], [5, 7], [9, 1], [5, 2]]))
    for points, runs in ((draws, 4), (points_of(list(draws), C2.coords), 3)):
        calls = []
        verdicts = list(per_class(lambda f, env: calls.append(env) or map_rank_at(f, env), cmap, points))
        assert len(calls) == runs
        assert verdicts == [map_rank_at(cmap, env) for env in draws]


def test_dyadic_points_read_like_a_list():
    s = LocusSampler(CoordLocus(C2, (("x", F(0)),)), _region(), seed=0)
    envs, _ = off_locus_envs(s, F(1, 8), 6, seed=1)
    assert isinstance(envs, locus_mod._DyadicPoints)
    as_list = list(envs)
    assert envs[0] == as_list[0] and envs[-1] == as_list[-1]
    assert envs == as_list and envs == off_locus_envs(s, F(1, 8), 6, seed=1)[0]
    assert all(isinstance(v, Fraction) for e in envs for v in e.values())


# -- vanishing locus -------------------------------------------------------


def test_vanishing_locus_passes():
    rep = verify_vanishing_locus(_dy_times_x(), CoordLocus(C2, (("x", F(0)),)), _region())
    assert rep.passed
    assert rep.kind == "vanishing_locus"
    assert (rep.on_count, rep.off_count) == (3, 16)
    assert rep.on_failures == 0 and rep.off_failures == 0
    assert rep == verify_vanishing_locus(
        _dy_times_x(), CoordLocus(C2, (("x", F(0)),)), _region()
    )


def test_vanishing_locus_detects_on_failures():
    rep = verify_vanishing_locus(_dy_times_x(), CoordLocus(C2, (("y", F(0)),)), _region())
    assert not rep.passed
    assert rep.on_failures == 2  # x = -1 and x = 1 on the y = 0 line
    assert all(c["reason"] == "nonzero on locus" for c in rep.counterexamples)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_vanishing_locus_non_finite_on_samples_are_undecided(register_opaque, bad):
    # badf(y) is NaN or inf at each of the 3 lattice points on x = 0: no
    # sample fails, and each is counted under non_finite on the locus side.
    register_opaque("badf", lambda t: np.full(np.shape(t), bad))
    form = coord_differential(C2, "x") * opaque_fn("badf", "y")
    locus = CoordLocus(C2, (("x", F(0)),))
    rep = verify_vanishing_locus(form, locus, _region(count=8), off_mode="none")
    assert rep.undecided and rep.on_failures == 0 and not rep.counterexamples
    assert (rep.on_count, rep.on_non_finite, rep.off_non_finite, rep.non_finite) == (3, 3, 0, 3)


def test_on_locus_failures_count_once_per_sample():
    # Neither coefficient vanishes at the 3 samples on x = 0; each sample
    # is one counterexample, valued at its first coefficient, 1 + y^2.
    form = coord_differential(C2, "x") * (sym("y") ** 2 + 1) + coord_differential(C2, "y") * (sym("y") ** 2 + 2)
    rep = verify_vanishing_locus(form, CoordLocus(C2, (("x", F(0)),)), _region(), off_mode="none")
    assert rep.on_failures == 3
    assert [c["value"] for c in rep.counterexamples] == ["2", "1", "2"]


def test_on_locus_exact_nonzero_decides_beside_a_float():
    # Both coefficients are below tol: the first is the exact 10^-12 and the
    # second the float pi/10^12.  The exact value still fails every sample.
    form = coord_differential(C2, "x") * rat(1, 10**12) + coord_differential(C2, "y") * (PI * rat(1, 10**12))
    rep = verify_vanishing_locus(form, CoordLocus(C2, (("x", F(0)),)), _region(), off_mode="none")
    assert rep.on_failures == 3 and not rep.undecided
    assert {c["value"] for c in rep.counterexamples} == {"1/1000000000000"}


def test_vanishing_counterexamples_are_capped():
    wide = _region(lattice=(17, 17), count=0)
    rep = verify_vanishing_locus(_dy_times_x(), CoordLocus(C2, (("y", F(0)),)), wide)
    assert rep.on_failures == 16
    assert len(rep.counterexamples) == 5
    assert rep.counterexamples[0]["point"]["x"] == "-1"


def test_vanishing_locus_off_positive_mode():
    form = _dy_times_x()
    off = function_form(C2, sym("x") ** 2 + rat(1))
    locus = CoordLocus(C2, (("x", F(0)),))
    rep = verify_vanishing_locus(form, locus, _region(), off_form=off, off_mode="positive")
    assert rep.passed
    bad = verify_vanishing_locus(form, locus, _region(), off_form=off, off_mode="negative")
    assert not bad.passed and bad.off_failures == 16


def test_off_locus_band_hits_are_rechecked_exactly():
    # x^2 / 10^12 is below tol at every off-locus sample, so each float
    # value lands in the band and the exact value decides the sample.
    form = _dy_times_x()
    tiny = function_form(C2, sym("x") ** 2 * F(1, 10**12))
    locus = CoordLocus(C2, (("x", F(0)),))
    for mode in ("positive", "nonzero"):
        rep = verify_vanishing_locus(form, locus, _region(), off_form=tiny, off_mode=mode)
        assert rep.passed and rep.off_count == 16, mode
    bad = verify_vanishing_locus(form, locus, _region(), off_form=tiny, off_mode="negative")
    assert bad.off_failures == 16
    first = bad.counterexamples[0]
    assert F(first["value"]) == F(first["point"]["x"]) ** 2 / 10**12


def test_vanishing_locus_non_finite_off_samples_are_undecided(register_opaque):
    # x*nanf(y) is an exact 0 on x = 0 and NaN at every off-locus sample.
    register_opaque("nanf", lambda t: np.full(np.shape(t), np.nan))
    form = coord_differential(C2, "y") * (sym("x") * opaque_fn("nanf", "y"))
    rep = verify_vanishing_locus(form, CoordLocus(C2, (("x", F(0)),)), _region())
    assert rep.undecided and rep.on_failures == 0
    assert (rep.off_count, rep.non_finite, rep.off_failures) == (16, 16, 0)


@pytest.mark.parametrize("mode", ["positive", "negative"])
def test_signed_off_mode_leaves_non_finite_samples_undecided(register_opaque, mode):
    # nanl(x) is NaN at the samples with x < 0 and 1 at the others, which
    # still meet (positive) or violate (negative) the sign requirement.
    register_opaque("nanl", _nan_left)
    off = function_form(C2, opaque_fn("nanl", "x"))
    locus = CoordLocus(C2, (("x", F(0)),))
    rep = verify_vanishing_locus(_dy_times_x(), locus, _region(), off_form=off, off_mode=mode)
    assert rep.undecided and 0 < rep.non_finite < rep.off_count == 16
    assert rep.off_failures == (0 if mode == "positive" else 16 - rep.non_finite)
    assert all(c["value"] == 1.0 for c in rep.counterexamples)


def test_vanishing_locus_positive_mode_needs_one_coefficient():
    two = _dy_times_x() + coord_differential(C2, "x") * sym("y")
    with pytest.raises(DomainError):
        verify_vanishing_locus(
            _dy_times_x(),
            CoordLocus(C2, (("x", F(0)),)),
            _region(),
            off_form=two,
            off_mode="positive",
        )


def test_vanishing_locus_zero_form():
    z = zero_form(C2, 1)
    locus = CoordLocus(C2, (("x", F(0)),))
    waived = verify_vanishing_locus(z, locus, _region(), off_mode="none")
    assert waived.passed
    assert "off-locus requirement waived" in waived.notes
    assert "form is identically zero" in waived.notes
    strict = verify_vanishing_locus(z, locus, _region())
    assert not strict.passed
    assert "off-locus form is identically zero" in strict.notes


def test_vanishing_locus_exhaustion_fails():
    flat = Region(C2, ((F(0), F(0)), (F(-1), F(1))), (1, 3), 4)
    rep = verify_vanishing_locus(_dy_times_x(), CoordLocus(C2, (("x", F(0)),)), flat)
    assert not rep.passed
    assert any("rejection sampling exhausted" in n for n in rep.notes)
    assert any("off-locus samples" in n for n in rep.notes)


def test_vanishing_locus_empty_locus_waives_on_floor():
    form = function_form(C2, sym("x") ** 2 + rat(1))
    rep = verify_vanishing_locus(form, EmptyLocus(C2), _region())
    assert rep.passed
    assert rep.on_count == 0 and rep.off_count == 16


def test_vanishing_locus_via_map():
    # Subject lives downstream of the map; the locus pins the source.
    sq = ChartMap("sq", P2, C2, (sym("u") ** 2, sym("v")))
    form = coord_differential(C2, "y") * (sym("x") - rat(F(1, 4)))
    locus = CoordLocus(P2, (("u", F(1, 2)),))
    region = Region(P2, ((F(0), F(1)), (F(-1), F(1))), (3, 3), 16)
    rep = verify_vanishing_locus(form, locus, region, via=sq)
    assert rep.passed
    assert rep.on_count == 3


def test_vanishing_locus_flags_samples_outside_region():
    locus = PointsLocus(C2, ((("x", F(5)), ("y", F(0))),))
    rep = verify_vanishing_locus(_dy_times_x(), locus, _region())
    assert not rep.passed
    assert any(c["reason"] == "locus sample outside region" for c in rep.counterexamples)


@pytest.mark.parametrize("check", ["vanishing_locus", "fixed_points", "dividing_set", "rank_drop_locus"])
def test_an_outside_sample_fails_once_and_is_not_decided(check):
    # x = 2 lies outside [-1, 1]^2: each of the 3 lattice samples of the locus
    # is one counterexample, named for the region, and is not decided.
    locus = CoordLocus(C2, (("x", F(2)),))
    region = _region(count=8)
    field = VectorField.build(C2, [("y", rat(1))])
    if check == "vanishing_locus":
        rep = verify_vanishing_locus(coord_differential(C2, "y"), locus, region)
    elif check == "fixed_points":
        rep = verify_fixed_points(field, locus, region)
    elif check == "rank_drop_locus":
        identity = ChartMap("id", C2, C2, (sym("x"), sym("y")))
        rep = verify_rank_drop_locus(identity, locus, region, regular_rank=2, singular_rank=2)
    else:
        rep = verify_dividing_set(coord_differential(C2, "y"), field, rat(1), locus, region)
    assert not rep.passed and rep.on_count == 3 and rep.on_failures == 3
    assert [c["reason"] for c in rep.counterexamples] == ["locus sample outside region"] * 3
    assert [c["point"] for c in rep.counterexamples] == [{"x": "2", "y": y} for y in ("-1", "0", "1")]


def test_outside_region_counterexamples_keep_their_order():
    # The pin y = 3/2 lies outside [-1, 1]: every lattice sample of the
    # locus is outside the region, each one counterexample, in lattice order,
    # its point printed with the pin first and then the free coordinates.
    c3 = Chart("c3", ("x", "y", "z"))
    region = Region(c3, ((F(-1), F(1)),) * 3, (2, 3, 3), 0)
    locus = CoordLocus(c3, (("y", F(3, 2)),))
    form = coord_differential(c3, "z") * (sym("y") - F(3, 2))
    rep = verify_vanishing_locus(form, locus, region, off_mode="none")
    assert not rep.passed and rep.on_count == 6 and rep.on_failures == 6
    points = [(x, z) for x in ("-1", "1") for z in ("-1", "0", "1")][:5]
    assert [list(c["point"].items()) for c in rep.counterexamples] == [
        [("y", "3/2"), ("x", x), ("z", z)] for x, z in points
    ]
    assert {c["reason"] for c in rep.counterexamples} == {"locus sample outside region"}
    # The samples are views of one point set, equal to plain dicts.
    on_envs = LocusSampler(locus, region, seed=0).on_envs
    assert on_envs == [{"y": F(3, 2), "x": F(x), "z": F(z)} for x in (-1, 1) for z in (-1, 0, 1)]
    for view in on_envs:
        assert view == dict(view) and dict(view) == view and list(view) == ["y", "x", "z"]
        assert not region.contains(view) and not region.contains(dict(view))


# -- point sets against their plain envs -----------------------------------


def test_point_sets_concatenate_by_coordinate_name():
    # Each union part is a point set; the union reads every point in its
    # first part's key order, with the other parts' columns found by name.
    union = UnionLocus((CoordLocus(C2, (("x", F(0)),)), CoordLocus(C2, (("y", F(1, 2)),))))
    on_envs = LocusSampler(union, _region(lattice=(2, 2)), seed=0).on_envs
    assert isinstance(on_envs, PointSet) and on_envs.coords == ("x", "y")
    assert on_envs == [
        {"x": F(0), "y": F(-1)},
        {"x": F(0), "y": F(1)},
        {"x": F(-1), "y": F(1, 2)},
        {"x": F(1), "y": F(1, 2)},
    ]
    mixed = points_of([{"y": 0.5, "x": F(2)}], ("y", "x"))
    assert list(map(dict, on_envs[:1] + mixed)) == [{"x": F(0), "y": F(-1)}, {"x": F(2), "y": 0.5}]

_Q4 = Chart("q4", ("t", "x1", "x2", "x3"))
_Q3 = Chart("q3", ("a", "b", "c"))
_POWERS = st.tuples(st.sampled_from(_Q4.coords), st.integers(1, 3)).map(lambda ce: sym(ce[0]) ** ce[1])
# Negative exponents, pi and chi, which the column path declines.
_OTHER_ATOMS = st.one_of(
    st.tuples(st.sampled_from(_Q4.coords), st.integers(-2, -1)).map(lambda ce: sym(ce[0]) ** ce[1]),
    st.just(PI),
    st.sampled_from(_Q4.coords).map(lambda c: opaque_fn("chi", c)),
)
_COEFFICIENTS = st.one_of(_SMALL_RATIONALS, _WIDE_INTEGERS)


def _exprs(atoms):
    """Zero (no terms), constants and sums of up to three terms."""
    terms = st.tuples(_COEFFICIENTS, st.lists(atoms, max_size=3))
    terms = terms.map(lambda t: math.prod(t[1], start=rat(t[0])))
    return st.lists(terms, max_size=3).map(lambda ts: sum(ts, rat(0)))


# Polynomials that the column path takes, or expressions with some atoms it
# declines; one kind per case, so that a matrix often has every entry exact.
_EXPR_KINDS = st.sampled_from((_exprs(_POWERS), _exprs(_POWERS), _exprs(st.one_of(_POWERS, _OTHER_ATOMS))))
_FORM_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]
_SET_INTERVALS = st.sampled_from(
    (
        (F(-1), F(1)),
        (F(0), F(1, 3)),
        (F(-3, 7), F(5, 11)),
        (F(-(2**41)), F(0)),  # numerators at 2**53
        (F(2**60), F(2**60 + 3)),  # numerators past 2**63
        (F(-(2**70), 3), F(2**70)),
        (-1.5, 2.25),  # float-bounded
    )
)
_SET_PINS = st.one_of(st.just(F(0)), _SMALL_RATIONALS, _WIDE_INTEGERS)
_SET_KINDS = st.sampled_from(("lattice", "draws", "region"))
_PINNED = st.lists(st.sampled_from(_Q4.coords), unique=True, max_size=4)
_PREFIXES = st.one_of(st.none(), st.integers(0, 6))


@st.composite
def _point_sets(draw):
    """A point set on _Q4: a coordinate locus's lattice with its pins, seeded
    dyadic draws, or a region's lattice and draws; sometimes a prefix."""
    region = Region(
        _Q4,
        tuple(draw(_SET_INTERVALS) for _ in _Q4.coords),
        tuple(draw(_LATTICE_SIZES) for _ in _Q4.coords),
        draw(_RANDOM_COUNTS),
    )
    kind, seed = draw(_SET_KINDS), draw(_SEEDS)
    if kind == "lattice":
        pins = tuple((c, F(0) if c == "x1" else draw(_SET_PINS)) for c in draw(_PINNED))
        if pins:
            points = LocusSampler(CoordLocus(_Q4, pins), region, seed).on_envs
        else:
            points = locus_mod.lattice_envs(region)
    elif kind == "draws":
        stream = locus_mod._DyadicStream(random.Random(seed))
        points = locus_mod._DyadicPoints.read(region, stream, draw(_COUNTS) % 7)
    else:
        points = region_envs(region, seed)
    cap = draw(_PREFIXES)
    return region, points if cap is None else points[:cap]


@st.composite
def _set_cases(draw):
    region, points = draw(_point_sets())
    # A factor of x1 in every coefficient makes the form vanish where x1 = 0,
    # so the degeneracy test reaches D_K there.
    factor = sym("x1") if draw(st.booleans()) else rat(1)
    exprs = draw(_EXPR_KINDS)
    form = DForm.build(_Q4, 2, [(pair, draw(exprs) * factor) for pair in _FORM_PAIRS])
    cmap = ChartMap("m", _Q4, _Q3, tuple(draw(exprs) for _ in _Q3.coords))
    return region, points, form, cmap, draw(exprs)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _gradient_values(form, env):
    """gradient_matrix_at's entries as values: Fractions over its scale, or floats."""
    rows, scale = gradient_matrix_at(form, env)
    return rows if scale is None else [[F(x, scale) for x in row] for row in rows]


def _primitive(v):
    g = math.gcd(*v)
    return [x // g for x in v] if g else v


def _degeneracy(form, env):
    """near_symplectic_at's decisions at env; its integer kernel vectors up to
    a positive factor, which the scale of the rows may change."""
    v = _outcome(near_symplectic_at, form, env)
    if isinstance(v, tuple):
        return v
    return (
        v.passed, v.reason, v.rank, v.kernel_dim, v.image_dim, v.ker_dk_dim,
        v.q_signature, v.q_sign, v.grad_kernel_consistent, v.exact, [_primitive(k) for k in v.kernel],
    )


@settings(max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(_set_cases())
def test_point_sets_decide_as_their_plain_envs(case):
    region, points, form, cmap, expr = case
    assert list(points) == [dict(view) for view in points]
    for view in points:
        env = dict(view)
        value = _outcome(evaluate, expr, env)
        assert _outcome(evaluate, expr, view) == value
        col = view.points.column(expr)
        if col is not None:
            assert F(col[0][view.index], col[1]) == value
        assert region.contains(view) == region.contains(env)
        assert _outcome(form_matrix_at, form, view) == _outcome(form_matrix_at, form, env)
        assert _outcome(_gradient_values, form, view) == _outcome(_gradient_values, form, env)
        assert _outcome(rank_at, form, view) == _outcome(rank_at, form, env)
        assert _outcome(map_rank_at, cmap, view) == _outcome(map_rank_at, cmap, env)
        assert _outcome(gradient_rank_at, form, view) == _outcome(gradient_rank_at, form, env)
        assert _degeneracy(form, view) == _degeneracy(form, env)


# -- positivity ------------------------------------------------------------


def test_verify_positive():
    rep = verify_positive(function_form(C2, sym("x") ** 2 + rat(1)), _region())
    assert rep.passed and rep.on_count == 9 + 16


def test_verify_positive_exact_zero_at_lattice_point():
    rep = verify_positive(function_form(C2, sym("x")), _region(count=0))
    assert not rep.passed
    assert any(c["value"] == "0" for c in rep.counterexamples)


def test_verify_positive_non_finite_samples_are_undecided(register_opaque):
    # nanf is NaN everywhere: no sample is a sign violation, every one is
    # counted under non_finite, and the report is undecided.
    register_opaque("nanf", lambda t: np.full(np.shape(t), np.nan))
    rep = verify_positive(function_form(C2, opaque_fn("nanf", "x")), _region())
    assert rep.undecided and rep.on_failures == 0 and not rep.counterexamples
    assert rep.on_count == rep.non_finite == 9 + 16


def test_verify_positive_keeps_finite_violations_beside_non_finite(register_opaque):
    # -nanl(x) is NaN for x < 0 and -1 elsewhere: the finite samples still
    # violate the positive sign, and the NaN ones leave the report undecided.
    register_opaque("nanl", _nan_left)
    rep = verify_positive(function_form(C2, -opaque_fn("nanl", "x")), _region())
    assert rep.undecided and 0 < rep.non_finite < rep.on_count
    assert rep.on_failures == rep.on_count - rep.non_finite
    assert all(c["value"] == -1.0 for c in rep.counterexamples)


def test_verify_positive_band_hits_are_undecided():
    # e^(-100 x^2) is positive but below tol at |x| = 1; a clearly
    # negative float elsewhere would still be a counterexample.
    rep = verify_positive(function_form(C2, exp_of(-sym("x") ** 2 * 100)), _region())
    assert rep.undecided and not rep.counterexamples and rep.on_failures == 0
    assert rep.band > 0
    neg = verify_positive(function_form(C2, exp_of(-sym("x") ** 2 * 100) - rat(1)), _region())
    assert not neg.passed and neg.on_failures > 0


def test_verify_positive_needs_single_coefficient():
    rep = verify_positive(_dy_times_x() + coord_differential(C2, "x"), _region())
    assert not rep.passed
    assert "form does not have exactly one coefficient" in rep.notes


# -- rank drops ------------------------------------------------------------


def test_rank_drop_locus():
    half_sq = sym("v") ** 2 * F(1, 2)
    fold = ChartMap("fold", P2, P2, (sym("u"), half_sq))
    locus = CoordLocus(P2, (("v", F(0)),))
    region = _region(chart=P2)
    rep = verify_rank_drop_locus(fold, locus, region, regular_rank=2, singular_rank=1)
    assert rep.passed
    assert rep.kind == "rank_drop_locus"
    assert (rep.on_count, rep.off_count) == (3, 16)
    wrong = verify_rank_drop_locus(fold, locus, region, regular_rank=2, singular_rank=2)
    assert not wrong.passed and wrong.on_failures == 3
    assert "rank 1, expected 2" in wrong.counterexamples[0]["reason"]


def test_rank_drop_locus_undecided_ranks_are_band_hits(register_opaque):
    # tiny' is 1e-9 everywhere, so every Jacobian has the singular values 1
    # and 1e-9, inside the band: each sample counts under its side's band,
    # and none is a failure.
    register_opaque("tiny", lambda t: 1e-9 * np.asarray(t, dtype=float))
    register_opaque("tiny'", lambda t: np.full(np.shape(t), 1e-9))
    cmap = ChartMap("tiny", P2, P2, (sym("u"), opaque_fn("tiny", "v")))
    locus = CoordLocus(P2, (("v", F(0)),))
    rep = verify_rank_drop_locus(cmap, locus, _region(chart=P2), regular_rank=2, singular_rank=1)
    assert rep.undecided and rep.passed and not rep.counterexamples
    assert (rep.on_failures, rep.off_failures, rep.non_finite) == (0, 0, 0)
    assert (rep.on_band, rep.off_band, rep.on_count, rep.off_count) == (3, 16, 3, 16)


def test_rank_drop_locus_non_finite_ranks_are_undecided(register_opaque):
    # nanf and nanf' are NaN everywhere, so no Jacobian rank is decided: each
    # sample counts under its side's non_finite, not its band, and none is a
    # failure.
    register_opaque("nanf", lambda t: np.full(np.shape(t), np.nan))
    register_opaque("nanf'", lambda t: np.full(np.shape(t), np.nan))
    cmap = ChartMap("nan", P2, P2, (sym("u"), opaque_fn("nanf", "v")))
    locus = CoordLocus(P2, (("v", F(0)),))
    rep = verify_rank_drop_locus(cmap, locus, _region(chart=P2), regular_rank=2, singular_rank=1)
    assert rep.undecided and rep.passed and not rep.counterexamples
    assert (rep.on_failures, rep.off_failures, rep.band) == (0, 0, 0)
    assert (rep.on_non_finite, rep.off_non_finite, rep.on_count, rep.off_count) == (3, 16, 3, 16)


# -- fixed points ----------------------------------------------------------


def test_fixed_points_pass_and_fail():
    radial = VectorField.build(C2, [("x", sym("x")), ("y", sym("y"))])
    origin = PointsLocus(C2, ((("x", F(0)), ("y", F(0))),))
    rep = verify_fixed_points(radial, origin, _region())
    assert rep.passed and rep.on_count == 1
    shifted = PointsLocus(C2, ((("x", F(1, 2)), ("y", F(0))),))
    bad = verify_fixed_points(radial, shifted, _region())
    assert not bad.passed and bad.on_failures == 1


def test_fixed_points_non_finite_off_samples_are_undecided(register_opaque):
    register_opaque("nanl", _nan_left)
    field = VectorField.build(C2, [("x", sym("x")), ("y", sym("y") * opaque_fn("nanl", "x"))])
    origin = PointsLocus(C2, ((("x", F(0)), ("y", F(0))),))
    rep = verify_fixed_points(field, origin, _region())
    assert rep.undecided and rep.on_failures == 0 and rep.off_failures == 0
    assert 0 < rep.non_finite < rep.off_count == 16


def test_fixed_points_exact_zero_off_locus_stays_a_counterexample():
    # Every draw has x = 0, where the polynomial field x*e(x) is exactly zero.
    field = VectorField.build(C2, [("x", sym("x"))])
    origin = PointsLocus(C2, ((("x", F(0)), ("y", F(0))),))
    region = _region(intervals=((F(0), F(0)), (F(-1), F(1))))
    rep = verify_fixed_points(field, origin, region)
    assert not rep.passed and not rep.undecided and rep.band == 0
    assert rep.off_failures == rep.off_count == 16
    assert rep.counterexamples[0]["reason"] == "field zero off locus"
    assert rep.counterexamples[0]["value"] == "0"


def test_fixed_points_band_hit_without_exact_value_is_undecided():
    field = VectorField.build(C2, [("x", sym("x") * exp_of(-sym("x") ** 2 * 2000))])
    origin = PointsLocus(C2, ((("x", F(0)), ("y", F(0))),))
    rep = verify_fixed_points(field, origin, _region())
    assert rep.undecided and rep.off_failures == 0 and not rep.counterexamples
    assert 0 < rep.band <= rep.off_count == 16


def test_fixed_points_zero_field_degenerate():
    zero = VectorField(C2, {})
    origin = PointsLocus(C2, ((("x", F(0)), ("y", F(0))),))
    rep = verify_fixed_points(zero, origin, _region())
    assert not rep.passed
    assert "field is identically zero" in rep.notes


def test_fixed_points_via_map():
    ident = ChartMap("ident", P2, C2, (sym("u"), sym("v")))
    radial = VectorField.build(C2, [("x", sym("x")), ("y", sym("y"))])
    origin = PointsLocus(P2, ((("u", F(0)), ("v", F(0))),))
    rep = verify_fixed_points(radial, origin, _region(chart=P2), via=ident)
    assert rep.passed


# -- dividing sets ---------------------------------------------------------


def test_dividing_set_passes():
    alpha = _dy_times_x()
    ey = VectorField.build(C2, [("y", rat(1))])
    locus = CoordLocus(C2, (("x", F(0)),))
    rep = verify_dividing_set(alpha, ey, sym("x"), locus, _region())
    assert rep.passed
    assert "computed pairing matches the declared scalar" in rep.notes
    assert (rep.on_count, rep.off_count) == (3, 16)


def test_dividing_set_scalar_mismatch():
    alpha = _dy_times_x()
    ey = VectorField.build(C2, [("y", rat(1))])
    locus = CoordLocus(C2, (("x", F(0)),))
    rep = verify_dividing_set(alpha, ey, sym("x") + rat(1), locus, _region())
    assert not rep.passed
    assert "computed pairing disagrees with the declared scalar" in rep.notes
    assert rep.counterexamples and rep.counterexamples[0]["reason"] == "scalar mismatch"


def test_dividing_set_inconclusive_scalar(register_opaque):
    # Two opaque names backed by the same numeric: samples agree but the
    # comparison cannot be settled, so the verdict carries undecided.
    register_opaque("f", lambda t: t)
    register_opaque("g", lambda t: t)
    alpha = coord_differential(C2, "y") * opaque_fn("f", "x")
    ey = VectorField.build(C2, [("y", rat(1))])
    locus = CoordLocus(C2, (("x", F(0)),))
    rep = verify_dividing_set(alpha, ey, opaque_fn("g", "x"), locus, _region())
    assert rep.undecided
    assert "scalar comparison inconclusive" in rep.notes
    assert rep.passed


def test_dividing_set_non_finite_off_samples_are_undecided(register_opaque):
    register_opaque("nanf", lambda t: np.full(np.shape(t), np.nan))
    scalar = sym("x") * opaque_fn("nanf", "y")
    alpha = coord_differential(C2, "y") * scalar
    ey = VectorField.build(C2, [("y", rat(1))])
    rep = verify_dividing_set(alpha, ey, scalar, CoordLocus(C2, (("x", F(0)),)), _region())
    assert "computed pairing matches the declared scalar" in rep.notes
    assert rep.undecided and rep.on_failures == 0
    assert (rep.off_count, rep.non_finite, rep.off_failures) == (16, 16, 0)


def test_dividing_set_degenerate_pairing():
    alpha = coord_differential(C2, "x") * sym("x")
    ey = VectorField.build(C2, [("y", rat(1))])
    locus = CoordLocus(C2, (("x", F(0)),))
    rep = verify_dividing_set(alpha, ey, rat(0), locus, _region())
    assert not rep.passed
    assert "pairing is identically zero; locus claim is degenerate" in rep.notes
