import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsx import locus as locus_mod
from nsx.charts import Chart, ChartMap, VectorField, coord_differential, function_form, zero_form
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
    verify_dividing_set,
    verify_fixed_points,
    verify_positive,
    verify_rank_drop_locus,
    verify_vanishing_locus,
)
from nsx.symexpr import opaque_fn, rat, sym

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


def _same_draw(lo, hi, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    got, want = locus_mod._dyadic_between(rng, lo, hi), _old_dyadic_between(ref, lo, hi)
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
        got = locus_mod._dyadic_between(_FixedDraw(k), lo, hi)
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
    with pytest.raises(DomainError):
        LocusSampler(locus, _region(chart=P2), seed=0)
    full = CoordLocus(C2, (("x", F(0)), ("y", F(2))))
    s = LocusSampler(full, None, seed=0)
    assert s.on_envs == [{"x": F(0), "y": F(2)}]


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


def test_coord_locus_distance_with_a_float_keeps_its_bits():
    values = (("x", F(1, 3)), ("y", F(-2, 7)))
    s = LocusSampler(CoordLocus(C2, values), None, seed=0)
    for env in ({"x": 0.1, "y": F(5, 9)}, {"x": F(5, 9), "y": 0.1}, {"x": 0.1, "y": -2.75}):
        d = s.distance_sq(env)
        want = _old_coord_dist_sq(values, env)
        assert isinstance(d, float) and d.hex() == want.hex()


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


def test_off_locus_envs_exhaust():
    flat = Region(C2, ((F(0), F(0)), (F(0), F(1))), (1, 2), 0)
    s = LocusSampler(CoordLocus(C2, (("x", F(0)),)), flat, seed=0)
    envs, exhausted = off_locus_envs(s, F(1, 8), 4, seed=0)
    assert exhausted and envs == []


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
