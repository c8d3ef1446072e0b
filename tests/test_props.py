import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nsx.props import _rand_poly, run_property_battery
from nsx.symexpr import Expr, rat, sym


def _rand_poly_by_arithmetic(rng, coords, max_terms=3, max_deg=2):
    # The build one `*` and `+` at a time that _rand_poly replaced; it
    # is the reference for both the result and the RNG draws.
    total = Expr(())
    for _ in range(rng.randrange(1, max_terms + 1)):
        coeff = rat(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 3)))
        term = coeff
        for _ in range(rng.randrange(0, max_deg + 1)):
            term = term * sym(rng.choice(coords))
        total = total + term
    return total


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    coords=st.lists(st.sampled_from(("w1", "w2", "w3", "x", "y")), min_size=1, max_size=4),
    max_terms=st.integers(1, 6),
    max_deg=st.integers(0, 5),
)
def test_rand_poly_matches_the_arithmetic_build(seed, coords, max_terms, max_deg):
    coords = tuple(coords)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = _rand_poly(rng, coords, max_terms, max_deg)
    want = _rand_poly_by_arithmetic(ref_rng, coords, max_terms, max_deg)
    assert got.key == want.key
    assert str(got) == str(want)
    assert rng.getstate() == ref_rng.getstate()


def test_batteries_pass_and_report_their_budget():
    for name in ("dd_zero", "graded_comm", "functorial", "antiderivation"):
        passed, evidence = run_property_battery(name, 5, (2, 3), seed=1)
        assert passed and evidence == {"samples": 5, "failures": 0, "dims": [2, 3]}


def test_one_dimensional_batteries_stay_on_declared_or_larger_charts():
    # functorial needs a target chart unlike the source; with only
    # dimension 1 declared it moves up to 2, never down to 0.
    for name in ("dd_zero", "graded_comm", "functorial", "antiderivation"):
        passed, evidence = run_property_battery(name, 3, (1,), seed=1)
        assert passed and evidence == {"samples": 3, "failures": 0, "dims": [1]}
    passed, evidence = run_property_battery("double_star", None, (1,), seed=1)
    assert passed and evidence == {"checked": 2, "failures": 0, "dims": [1]}


def test_rand_form_keeps_the_draws_and_the_form_of_build():
    from itertools import combinations

    from nsx.charts import DForm
    from nsx.props import _chart, _rand_form

    for seed in range(40):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for dim in (1, 2, 3, 4, 5, 6):
            chart = _chart(dim)
            for degree in range(dim + 1):
                got = _rand_form(rng, chart, degree)
                keys = list(combinations(range(dim), degree))
                ref_rng.shuffle(keys)
                items = [(k, _rand_poly(ref_rng, chart.coords)) for k in keys[: ref_rng.randrange(1, 3)]]
                want = DForm.build(chart, degree, items)
                assert got == want and list(got.comps) == list(want.comps)
        assert rng.getstate() == ref_rng.getstate()
