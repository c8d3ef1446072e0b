import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsx.props as props
from nsx.charts import MAX_DIM
from nsx.errors import DomainError
from nsx.props import _BATTERIES, _below, _rand_poly, run_property_battery
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


def test_the_monomial_memo_stays_within_its_bound(monkeypatch):
    # Once the memo is full, new monomials are built and not kept.
    monkeypatch.setattr(props, "_monomials", {})
    monkeypatch.setattr(props, "_MONOMIAL_MEMO", 4)
    coords = ("w1", "w2", "w3", "x", "y")
    for seed in range(30):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = _rand_poly(rng, coords, 4, 3)
        want = _rand_poly_by_arithmetic(ref_rng, coords, 4, 3)
        assert got.key == want.key
    assert len(props._monomials) == 4


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


# -- the whole draw stream of S12's random batteries ---------------------
#
# S12's report holds only sample and failure counts, so its bytes cannot
# show a changed random stream.  This digest pins the text of every form
# and map the four random batteries build at the default seed, in draw
# order.  The file was written by the engine while the batteries still
# drew through randrange, choice and shuffle.

GOLDEN_DRAWS = Path(__file__).parent / "golden" / "prop_draws.txt"


def _battery_draws_digest(monkeypatch):
    from nsx.runner import DEFAULT_SEED, RunConfig, run_suite

    lines = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            lines.append(repr(out))
            return out

        return wrapper

    monkeypatch.setattr(props, "_rand_form", recorded(props._rand_form))
    monkeypatch.setattr(props, "_rand_map", recorded(props._rand_map))
    suite = run_suite(only=("S12",), config=RunConfig(seed=DEFAULT_SEED))
    assert suite.scenarios[0].status == "pass"
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"sha256 {digest}\nobjects {len(lines)}\n"


def test_battery_draw_stream_matches_golden(monkeypatch):
    assert _battery_draws_digest(monkeypatch) == GOLDEN_DRAWS.read_text()


def test_randbelow_is_the_getrandbits_rejection_rule():
    # The batteries read getrandbits(n.bit_length()) and redraw while the
    # value is >= n, which gives randrange's draws only under this rule.
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.one_of(st.integers(1, 70), st.integers(1, 2**70)))
def test_below_is_randbelow(seed, n):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert _below(rng.getrandbits, n) == ref_rng._randbelow(n)
    assert rng.getstate() == ref_rng.getstate()


# The battery samples as they were written on choice and randrange; the
# draws of the generators they call are the same in both.


def _dd_zero_by_choice(rng, dims):
    chart = props._chart(rng.choice(dims))
    degree = rng.randrange(0, chart.dim)
    form = props._rand_form(rng, chart, degree)
    return bool(form.d().d().comps)


def _graded_comm_by_choice(rng, dims):
    chart = props._chart(rng.choice(dims))
    p = rng.randrange(0, chart.dim + 1)
    q = rng.randrange(0, chart.dim - p + 1)
    a = props._rand_form(rng, chart, p)
    b = props._rand_form(rng, chart, q)
    rhs = b.wedge(a)
    return a.wedge(b) != (-rhs if p * q % 2 else rhs)


def _functorial_by_choice(rng, dims):
    db = rng.choice(dims)
    da = rng.choice(dims)
    source, target = props._chart(da), props._chart(db)
    if source == target:
        target = props._chart(db + 1 if db < max(dims) or db == 1 else db - 1)
    phi = props._rand_map(rng, source, target)
    p = rng.randrange(0, target.dim)
    q = rng.randrange(0, target.dim - p + 1)
    a = props._rand_form(rng, target, p)
    b = props._rand_form(rng, target, q)
    return phi.pullback(a.wedge(b)) != phi.pullback(a).wedge(phi.pullback(b))


def _antiderivation_by_choice(rng, dims):
    chart = props._chart(rng.choice(dims))
    p = rng.randrange(0, chart.dim)
    q = rng.randrange(0, chart.dim - p)
    a = props._rand_form(rng, chart, p)
    b = props._rand_form(rng, chart, q)
    second = a.wedge(b.d())
    return a.wedge(b).d() != a.d().wedge(b) + (-second if p % 2 else second)


_BY_CHOICE = {
    "dd_zero": _dd_zero_by_choice,
    "graded_comm": _graded_comm_by_choice,
    "functorial": _functorial_by_choice,
    "antiderivation": _antiderivation_by_choice,
}


@pytest.mark.parametrize("name", sorted(_BY_CHOICE))
@pytest.mark.parametrize("dims", [(1,), (2, 3), (6, 2), (2, 3, 4, 5, 6), (1, 8)])
def test_battery_samples_draw_as_choice_and_randrange(name, dims, monkeypatch):
    # Each drawn form and map is recorded, so the test compares the
    # instances both draw, not only their verdicts and the end state.
    drawn = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            drawn.append(repr(out))
            return out

        return wrapper

    monkeypatch.setattr(props, "_rand_form", recorded(props._rand_form))
    monkeypatch.setattr(props, "_rand_map", recorded(props._rand_map))
    sample = _BATTERIES[name]
    for seed in (0, 1, 7):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = [sample(rng, dims) for _ in range(12)]
        got_drawn = drawn[:]
        drawn.clear()
        want = [_BY_CHOICE[name](ref_rng, dims) for _ in range(12)]
        assert got == want
        assert got_drawn == drawn
        drawn.clear()
        assert rng.getstate() == ref_rng.getstate()


# -- arguments the scenario language cannot express ----------------------


@pytest.mark.parametrize("samples", [0, -5])
def test_battery_rejects_a_budget_below_one(samples):
    with pytest.raises(DomainError, match="samples must be at least 1"):
        run_property_battery("dd_zero", samples, None, 1)


def test_battery_rejects_an_unknown_name():
    with pytest.raises(DomainError, match="unknown property battery 'dd_one'"):
        run_property_battery("dd_one", 3, None, 1)


def test_battery_rejects_a_bool_budget():
    with pytest.raises(DomainError, match="samples must be an integer"):
        run_property_battery("dd_zero", True, None, 1)


@pytest.mark.parametrize(
    "dims, message",
    [
        ((0,), "dims must be at least 1"),
        ((2, MAX_DIM + 1), f"dims must be at most {MAX_DIM}"),
        ((3.0,), "dims must be an integer"),
        ((True,), "dims must be an integer"),
    ],
)
def test_battery_rejects_dimensions_outside_the_charts(dims, message):
    for name in ("dd_zero", "double_star"):
        with pytest.raises(DomainError, match=message):
            run_property_battery(name, 3, dims, 1)


def test_battery_takes_the_extreme_dimensions():
    passed, evidence = run_property_battery("dd_zero", 2, (1, MAX_DIM), 1)
    assert passed and evidence["dims"] == [1, MAX_DIM]
