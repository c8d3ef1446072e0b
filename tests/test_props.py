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
