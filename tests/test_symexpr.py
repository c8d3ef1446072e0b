import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsx.dsl import parse_scenario, random_scenario
from nsx.errors import DomainError, ElaborationError, EvaluationError
from nsx.runner import RunConfig, elaborate_scope
from nsx.scenarios import SUITE
from nsx.symexpr import (
    ONE,
    PI,
    ZERO,
    _EXP,
    _OPQ,
    _PI,
    _SIN,
    _SYM,
    Equal,
    Expr,
    NotEqual,
    Undecided,
    _as_expr,
    _canonical,
    _mono_product,
    _monomial_expr,
    _pythagorean_fixpoint,
    _sum,
    bump,
    bump_prime,
    compile_numpy,
    cos_of,
    evaluate,
    exp_of,
    opaque_fn,
    rat,
    semantically_equal,
    sin_of,
    sym,
)

x, y, z = sym("x"), sym("y"), sym("z")


# -- strategies -------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


@st.composite
def polynomials(draw, names=("x", "y", "z"), max_terms=4):
    e = ZERO
    for _ in range(draw(st.integers(1, max_terms))):
        t = rat(draw(rationals))
        for n in names:
            t = t * sym(n) ** draw(st.integers(0, 3))
        e = e + t
    return e


def _poly_env(rng):
    return {n: Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for n in "xyz"}


# -- the representation against an independent oracle -------------------

SP = {n: sympy.Symbol(n) for n in "xyz"}


@st.composite
def expr_pairs(draw, depth=3, transcendental=False):
    """(Expr, sympy expression) built by the same random sequence of
    + - * **, diff and subs; with transcendental, exp/sin/cos and pi
    leaves occur too."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(["coord", "rational", "atom"][: 3 if transcendental else 2]))
        if leaf == "coord":
            n = draw(st.sampled_from("xyz"))
            return sym(n), SP[n]
        if leaf == "rational":
            q = draw(rationals)
            return rat(q), sympy.Rational(q.numerator, q.denominator)
        kind = draw(st.sampled_from(["pi", "exp", "sin", "cos"]))
        if kind == "pi":
            return PI, sympy.pi
        a, sa = draw(expr_pairs(depth=1))
        f, sf = {"exp": (exp_of, sympy.exp), "sin": (sin_of, sympy.sin), "cos": (cos_of, sympy.cos)}[kind]
        return f(a), sf(sa)
    sub = expr_pairs(depth=depth - 1, transcendental=transcendental)
    a, sa = draw(sub)
    op = draw(st.sampled_from(["+", "-", "*", "**", "diff", "subs"]))
    if op == "**":
        k = draw(st.integers(0, 2))
        return a**k, sa**k
    if op in ("diff", "subs"):
        n = draw(st.sampled_from("xyz"))
        if op == "diff":
            return a.diff(n), sympy.diff(sa, SP[n])
        b, sb = draw(sub)
        return a.subs({n: b}), sa.subs(SP[n], sb)
    b, sb = draw(sub)
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    return a * b, sa * sb


def _assert_canonical(e):
    """den > 0, no factor common to den and every numerator, nonzero
    numerators, strictly increasing monomials; also inside atoms."""
    assert isinstance(e.den, int) and e.den > 0
    assert all(isinstance(n, int) and n != 0 for _, n in e.terms)
    assert math.gcd(e.den, *(n for _, n in e.terms)) == 1
    monos = [m for m, _ in e.terms]
    assert all(a < b for a, b in zip(monos, monos[1:]))
    for mono in monos:
        for atom, power in mono:
            assert power != 0
            if isinstance(atom[-1], Expr):
                _assert_canonical(atom[-1])


dyadics = st.builds(lambda k: Fraction(k, 16), st.integers(-48, 48))


@given(expr_pairs(), st.tuples(dyadics, dyadics, dyadics))
@settings(max_examples=100, deadline=None)
def test_polynomials_are_canonical_and_evaluate_as_sympy(pair, point):
    e, se = pair
    _assert_canonical(e)
    env = dict(zip("xyz", point))
    want = se.subs({SP[n]: sympy.Rational(v.numerator, v.denominator) for n, v in env.items()})
    assert evaluate(e, env) == Fraction(int(want.p), int(want.q))


@given(expr_pairs(transcendental=True))
@settings(max_examples=100, deadline=None)
def test_transcendental_expressions_are_canonical(pair):
    _assert_canonical(pair[0])


# -- canonical arithmetic ---------------------------------------------


def test_constants():
    assert ZERO.is_zero
    assert ONE.as_fraction() == 1
    assert (PI - PI).is_zero
    assert not PI.is_rational


def test_rational_arithmetic_matches_fraction():
    rng = random.Random(7)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        assert (rat(a) + rat(b)).as_fraction() == a + b
        assert (rat(a) * rat(b)).as_fraction() == a * b
        assert (rat(a) - rat(b)).as_fraction() == a - b


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_mixed_scalar_operands():
    assert x + 1 == 1 + x
    assert 2 * x == x * 2
    assert x - Fraction(1, 2) == -(Fraction(1, 2) - x)
    assert x / 2 == Fraction(1, 2) * x


def test_power_rules():
    assert x**0 == ONE
    assert x**3 * x**2 == x**5
    assert (x * y) ** 2 == x**2 * y**2
    m = rat(3) * x**2
    assert m**-1 == rat(Fraction(1, 3)) * x**-2
    assert m * m**-1 == ONE


# Sums of up to three terms over atoms that carry sin, cos and exp, with
# sin(x) and cos(x) together so that powers meet Pythagorean partners.
_TRIG_ATOMS = [x, y, sin_of(x), cos_of(x), exp_of(y), sin_of(x + y), PI]
trig_sums = st.lists(
    st.tuples(rationals, st.lists(st.sampled_from(_TRIG_ATOMS), max_size=3)),
    min_size=1,
    max_size=3,
).map(lambda terms: sum((rat(c) * math.prod(atoms, start=ONE) for c, atoms in terms), ZERO))


@given(st.one_of(trig_sums, polynomials(max_terms=3)), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_power_equals_the_repeated_product(e, n):
    product = ONE
    for _ in range(n):
        product = product * e
    assert e**n == product
    _assert_canonical(e**n)


def test_power_one_is_the_base_itself():
    e = sin_of(x) + exp_of(y)
    assert e**1 is e


def test_division_requires_monomial():
    assert (x**2 / x).single_monomial()
    with pytest.raises(DomainError):
        _ = ONE / (x + y)
    with pytest.raises(DomainError):
        _ = (x + y) ** -1


def test_exp_merge():
    # at most one exponential atom survives per monomial
    e = exp_of(x) * exp_of(y)
    assert e == exp_of(x + y)
    assert exp_of(ZERO) == ONE
    assert exp_of(x) * exp_of(-x) == ONE


def test_trig_special_values():
    assert sin_of(ZERO).is_zero
    assert cos_of(ZERO) == ONE


def test_pythagorean_collapse():
    u = x + y
    e = rat(3) * z * sin_of(u) ** 2 + rat(3) * z * cos_of(u) ** 2
    assert e == rat(3) * z
    # unequal coefficients must not collapse
    e2 = rat(3) * z * sin_of(u) ** 2 + rat(2) * z * cos_of(u) ** 2
    assert e2 != rat(3) * z
    assert e2 != rat(2) * z


def test_str_roundtrip_stability():
    e = rat(2) * x**2 * sin_of(y) - exp_of(z) / 3
    assert str(e) == str(e + ZERO)


# -- differentiation --------------------------------------------------


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_diff_product_rule(a, b):
    lhs = (a * b).diff("x")
    rhs = a.diff("x") * b + a * b.diff("x")
    assert lhs == rhs


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_diff_linearity(a):
    assert (a + a).diff("y") == rat(2) * a.diff("y")


def test_diff_chain_rules():
    u = x**2 * y
    assert exp_of(u).diff("x") == rat(2) * x * y * exp_of(u)
    assert sin_of(u).diff("y") == x**2 * cos_of(u)
    assert cos_of(u).diff("y") == -(x**2) * sin_of(u)
    assert PI.diff("x").is_zero
    assert (PI * x).diff("x") == PI


# -- the fast paths of diff, single-term products and _canonical ---------
#
# Each is compared with the general code it short-cuts, kept here as it
# was: structural equality, since the Pythagorean collapse is not
# confluent and a different order of summing would show.

_FAST_PATH_ATOMS = [
    x, y, PI, exp_of(y), exp_of(x * y), sin_of(x), cos_of(x), sin_of(x + y), cos_of(x + y),
    opaque_fn("chi", "x"),
]

monomial_exprs = st.tuples(
    st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]),
    st.lists(st.tuples(st.sampled_from(_FAST_PATH_ATOMS), st.integers(-1, 3)), max_size=3),
).map(lambda t: rat(t[0]) * math.prod((a**e for a, e in t[1]), start=ONE))

# Sums taken one `+` at a time, whose result depends on their order, and
# sums taken in one step.
fast_path_sums = st.one_of(
    st.lists(monomial_exprs, min_size=1, max_size=4).map(lambda es: sum(es, ZERO)),
    st.lists(monomial_exprs, max_size=4).map(_sum),
)


def _diff_by_terms(e, name):
    pieces = []
    for mono, n in e.terms:
        for i, (atom, k) in enumerate(mono):
            da = _atom_derivative_by_terms(atom, name)
            if da.is_zero:
                continue
            lowered = ((atom, k - 1),) if k != 1 else ()
            piece = _monomial_expr(mono[:i] + lowered + mono[i + 1 :], n * k, e.den)
            pieces.append(piece if atom[0] == _SYM else piece * da)
    return _sum(pieces)


def _atom_derivative_by_terms(atom, name):
    kind = atom[0]
    if kind == _SYM:
        return ONE if atom[1] == name else ZERO
    if kind == _PI:
        return ZERO
    if kind == _OPQ:
        return opaque_fn(atom[1] + "'", atom[2]) if atom[2] == name else ZERO
    du = _diff_by_terms(atom[1], name)
    if du.is_zero:
        return ZERO
    if kind == _EXP:
        return exp_of(atom[1]) * du
    if kind == _SIN:
        return cos_of(atom[1]) * du
    return -sin_of(atom[1]) * du


def _mul_by_dict(a, b):
    acc = {}
    for m1, n1 in a.terms:
        for m2, n2 in b.terms:
            m = m2 if not m1 else m1 if not m2 else _mono_product(m1, m2)
            acc[m] = acc.get(m, 0) + n1 * n2
    return _canonical(acc, a.den * b.den)


def _canonical_by_full_scan(acc, den):
    if len(acc) > 1 and any(a[0] == _SIN and e >= 2 for m in acc for a, e in m):
        _pythagorean_fixpoint(acc)
    g = math.gcd(den, *acc.values())
    return Expr(tuple(sorted((m, n // g) for m, n in acc.items() if n)), den // g)


def _same(a, b):
    return (a.terms, a.den) == (b.terms, b.den)


@given(fast_path_sums, st.sampled_from("xyz"))
@settings(max_examples=300, deadline=None)
def test_diff_matches_the_term_by_term_derivative(e, name):
    assert _same(e.diff(name), _diff_by_terms(e, name))


def test_diff_collapses_partners_from_coordinate_and_other_pieces_together():
    # d/dx gives exp(x)*sin(y)^2 from the exp atom and exp(x)*cos(y)^2
    # from the coordinate x: one sum over both pieces collapses them.
    e = exp_of(x) * sin_of(y) ** 2 + x * exp_of(x) * cos_of(y) ** 2
    got = e.diff("x")
    assert _same(got, _diff_by_terms(e, "x"))
    assert got == exp_of(x) + x * exp_of(x) * cos_of(y) ** 2


@given(monomial_exprs, st.one_of(monomial_exprs, fast_path_sums, rationals, st.integers(-3, 3)))
@settings(max_examples=300, deadline=None)
def test_products_match_the_dict_product(a, b):
    for left, right in ((a, b), (b, a)):
        got = left * right
        assert _same(got, _mul_by_dict(_as_expr(left), _as_expr(right)))


x_mono = x.terms[0][0]


@given(
    st.lists(
        st.tuples(monomial_exprs.map(lambda e: e.terms[0][0]), st.integers(-2, 2)), max_size=6
    ),
    st.integers(1, 12),
    st.sampled_from([1, 2, 3, 6]),
)
@settings(max_examples=300, deadline=None)
@example([((), 0)], 1, 1)
@example([((), 2), ((), -2)], 3, 1)
@example([(x_mono, 1), ((), 0)], 1, 1)
@example([(x_mono, 1), ((), 1)], 1, 2)
@example([(x_mono, 2), ((), -1), ((), 1)], 2, 3)
def test_canonical_sin_precheck_matches_the_full_scan(pairs, den, common):
    # `common` scales every numerator and den, so they share that factor;
    # a numerator of 0, drawn or summed to, must drop its term.
    acc = {}
    for mono, n in pairs:
        acc[mono] = acc.get(mono, 0) + n * common
    assert _same(_canonical(dict(acc), den * common), _canonical_by_full_scan(dict(acc), den * common))


def test_diff_opaque_uses_primed_name():
    f = opaque_fn("chi", "x")
    d = f.diff("x")
    assert d.opaque_names() == {"chi'"}
    assert f.diff("y").is_zero


def _central_difference(fn, env, name, h=1e-5):
    up = dict(env)
    dn = dict(env)
    up[name] = float(up[name]) + h
    dn[name] = float(dn[name]) - h
    return (fn(up) - fn(dn)) / (2 * h)


def test_diff_against_finite_differences_spot():
    # The full 200-expression sweep lives in the acceptance module; this
    # is the cheap always-on version.
    e = rat(2) * x**3 * y - sin_of(x * y) + exp_of(rat(1, 3) * x) + PI * y**2
    rng = random.Random(3)
    for name in ("x", "y"):
        d = e.diff(name)
        for _ in range(10):
            env = {n: rng.uniform(-1, 1) for n in ("x", "y")}
            got = float(evaluate(d, env))
            want = _central_difference(lambda v: float(evaluate(e, v)), env, name)
            assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-6)


# -- substitution -----------------------------------------------------


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_subs_matches_composed_evaluation(a, b):
    rng = random.Random(11)
    composed = a.subs({"x": b})
    for _ in range(5):
        env = _poly_env(rng)
        inner = evaluate(b, env)
        assert evaluate(composed, env) == evaluate(a, {**env, "x": inner})


def test_subs_with_numbers():
    e = x**2 + y
    assert e.subs({"x": 3, "y": Fraction(1, 2)}).as_fraction() == Fraction(19, 2)


def test_subs_opaque_argument_renaming():
    f = opaque_fn("chi", "x") * y
    assert f.subs({"x": sym("t")}) == opaque_fn("chi", "t") * y
    with pytest.raises(DomainError):
        f.subs({"x": x + y})
    with pytest.raises(DomainError):
        f.subs({"x": rat(2)})


def test_subs_untouched_opaque_survives():
    f = opaque_fn("chi", "t") + x
    assert f.subs({"x": rat(1)}) == opaque_fn("chi", "t") + 1


# -- structure queries ------------------------------------------------


def test_free_coords_and_opaque_names():
    e = opaque_fn("chi", "t") * x + PI * y
    assert e.free_coords() == {"t", "x", "y"}
    assert e.opaque_names() == {"chi"}
    assert e.is_polynomial() is False
    assert (x * y + 1).is_polynomial() is True
    # pi stays inside the polynomial fragment: exact and closed under diff
    assert (PI * x).is_polynomial() is True
    assert not exp_of(x).is_polynomial()


def test_single_monomial_and_as_fraction():
    assert rat(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    with pytest.raises(DomainError):
        (x + y).as_fraction()
    assert (rat(2) * x * y).single_monomial() is not None
    with pytest.raises(DomainError):
        (x + y).single_monomial()


@pytest.mark.parametrize("zero", [ZERO, rat(0), x - x])
@pytest.mark.parametrize("n", [-1, -3])
def test_a_negative_power_of_zero_is_division_by_zero(zero, n):
    with pytest.raises(DomainError, match="^division by zero$"):
        zero**n
    with pytest.raises(DomainError, match="^division by zero$"):
        ONE / zero


def test_a_negative_power_needs_a_single_term_base():
    with pytest.raises(DomainError, match="^negative powers need a single-term base, got 2 terms$"):
        (x + y) ** -2
    with pytest.raises(DomainError, match="negative powers need a single-term base, got 3 terms"):
        x / (x + y + 1)
    assert (rat(-2, 3) * x * y**2) ** -1 == rat(-3, 2) / x / y**2
    assert (-x) ** -2 == ONE / x**2


# -- evaluation -------------------------------------------------------


def test_evaluate_exact_fraction_path():
    e = x**2 - y / 2
    v = evaluate(e, {"x": Fraction(3, 2), "y": Fraction(1, 3)})
    assert isinstance(v, Fraction) and v == Fraction(25, 12)


def test_evaluate_float_path():
    v = evaluate(PI * x + exp_of(y), {"x": 2, "y": 0.5})
    assert isinstance(v, float)
    assert math.isclose(v, 2 * math.pi + math.exp(0.5), rel_tol=1e-12)


def test_evaluate_zero_factor_keeps_exactness():
    # the x factor kills the term before the opaque contributes a float,
    # so the result stays an exact Fraction
    e = x * opaque_fn("chi", "t")
    v = evaluate(e, {"x": Fraction(0), "t": Fraction(1, 2)})
    assert isinstance(v, Fraction) and v == 0


def test_evaluate_unknown_opaque_rejected_up_front():
    e = x * opaque_fn("mystery", "t")
    with pytest.raises(EvaluationError):
        evaluate(e, {"x": Fraction(0), "t": Fraction(2)})


def test_evaluate_missing_coordinate():
    with pytest.raises(EvaluationError):
        evaluate(x + y, {"x": 1})


def test_evaluate_registry_default_bump():
    v = evaluate(opaque_fn("chi", "t"), {"t": Fraction(0)})
    assert math.isclose(v, 1.0)
    v = evaluate(opaque_fn("chi", "t"), {"t": 2})
    assert v == 0.0
    with pytest.raises(EvaluationError):
        evaluate(opaque_fn("nope", "t"), {"t": 1})


@pytest.mark.parametrize("fn", [bump, bump_prime])
def test_bump_is_zero_far_outside_without_warnings(fn):
    far = [1e200, -1e200, math.inf, -math.inf, math.nan, 1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [fn(t) for t in far] == [0.0] * len(far)
        assert fn(np.array(far + [0.0])).tolist() == [0.0] * len(far) + [fn(0.0)]


def _bump_grid():
    """A dense grid over [-3/2, 3/2] and the floats next to, at and past +-1."""
    near = [1.0 - 2.0**-k for k in range(1, 54)] + [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 2**-30]
    special = [0.0, -0.0, 5e-324, 1e-300, math.inf, -math.inf, math.nan, 1e200]
    grid = np.concatenate([np.linspace(-1.5, 1.5, 20001), near, np.negative(near), special])
    return grid


@pytest.mark.parametrize("fn", [bump, bump_prime])
def test_bump_array_calls_equal_scalar_calls_bit_for_bit(fn):
    # A point set reads an opaque value off one array call over its column,
    # where a plain point calls the numeric on one float.
    grid = _bump_grid()
    scalar = np.array([fn(float(t)) for t in grid], dtype=np.float64)
    assert fn(grid).tobytes() == scalar.tobytes()
    assert np.count_nonzero(scalar) > 10000


def test_reregistering_a_numeric_between_evaluations_over_one_set_takes_effect(register_opaque):
    from nsx.points import points_of

    calls = []

    def numeric(scale):
        return lambda t: calls.append(np.shape(t)) or scale * np.asarray(t, dtype=float)

    register_opaque("g", numeric(2.0))
    e = opaque_fn("g", "x") * y + opaque_fn("g", "y")
    envs = [{"x": Fraction(k, 4), "y": Fraction(1 - k, 3)} for k in range(5)]
    points = points_of(envs, ("x", "y"))
    first = [evaluate(e, p) for p in points]
    assert first == [2 * float(env["x"]) * float(env["y"]) + 2 * float(env["y"]) for env in envs]
    assert calls == [(5,), (5,)]  # one call per column, not per point
    register_opaque("g", numeric(3.0))
    second = [evaluate(e, p) for p in points]
    assert second == [evaluate(e, env) for env in envs]
    assert second == [3 * float(env["x"]) * float(env["y"]) + 3 * float(env["y"]) for env in envs]


def test_evaluate_exact_trig_folding():
    # sin at an argument that evaluates to exactly zero stays a Fraction
    e = rat(5) * sin_of(x - 1) + y
    v = evaluate(e, {"x": Fraction(1), "y": Fraction(3)})
    assert isinstance(v, Fraction) and v == 3


@given(polynomials())
@settings(max_examples=30, deadline=None)
def test_compile_numpy_agrees_with_evaluate(e):
    import numpy as np

    fn = compile_numpy(e)
    rng = random.Random(5)
    envs = [_poly_env(rng) for _ in range(6)]
    vec = {n: np.array([float(env[n]) for env in envs]) for n in "xyz"}
    out = fn(vec)
    for i, env in enumerate(envs):
        want = float(evaluate(e, env))
        got = float(out[i]) if getattr(out, "ndim", 0) else float(out)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_compile_numpy_transcendentals():
    import numpy as np

    e = sin_of(x) * exp_of(y) + PI
    fn = compile_numpy(e)
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(0, 2, 7)
    out = fn({"x": xs, "y": ys})
    want = np.sin(xs) * np.exp(ys) + np.pi
    assert np.allclose(out, want)


def test_compile_numpy_registry():
    import numpy as np

    e = opaque_fn("chi", "t") * x
    fn = compile_numpy(e)
    ts = np.array([0.0, 0.5, 2.0])
    xs = np.ones(3)
    out = fn({"t": ts, "x": xs})
    assert out[2] == 0.0 and out[0] == pytest.approx(1.0)
    with pytest.raises(EvaluationError):
        compile_numpy(opaque_fn("nope", "t") * x)


def test_registering_a_name_again_takes_effect_everywhere(register_opaque):
    import numpy as np

    e = opaque_fn("q", "x")
    env = {"x": np.zeros(2)}
    register_opaque("q", lambda t: np.full(np.shape(t), 1.0))
    fn = compile_numpy(e)
    assert fn(env).tolist() == [1.0, 1.0]
    register_opaque("q", lambda t: np.full(np.shape(t), 2.0))
    assert compile_numpy(e)(env).tolist() == [2.0, 2.0]
    assert fn(env).tolist() == [2.0, 2.0]
    assert evaluate(e, {"x": Fraction(0)}) == 2.0


# -- semantic equality ------------------------------------------------


def test_semantically_equal_exact():
    assert isinstance(semantically_equal((x + y) ** 2, x**2 + 2 * x * y + y**2), Equal)


def test_semantically_equal_polynomial_separation():
    v = semantically_equal(x * y, x + y)
    assert isinstance(v, NotEqual)
    assert v.witness is not None


def test_semantically_equal_transcendental_witness():
    v = semantically_equal(exp_of(x), exp_of(y))
    assert isinstance(v, NotEqual)


def test_semantically_equal_undecided_on_unknown_opaque():
    v = semantically_equal(opaque_fn("f", "x"), opaque_fn("g", "x"))
    assert isinstance(v, Undecided)


def test_semantically_equal_sampled_match_is_undecided(register_opaque):
    # exp(x)*exp(-x) merges exactly; an opaque pair can only ever sample
    register_opaque("h", lambda t: t * 0 + 1.0)
    register_opaque("k", lambda t: t * 0 + 1.0)
    v = semantically_equal(opaque_fn("h", "x"), opaque_fn("k", "x"))
    assert isinstance(v, Undecided)
    assert v.samples > 0


def test_semantically_equal_skips_non_finite_samples():
    # exp(exp(exp(x))) overflows a float for x above about 1.9.
    big = exp_of(exp_of(exp_of(x)))
    v = semantically_equal(big * sin_of(x) ** 2, big - big * cos_of(x) ** 2, seed=2)
    assert v == Undecided(samples=30, non_finite=2)
    # Polynomials differ exactly; a witness overflowing a float is skipped.
    v = semantically_equal(x**1200, x**1201)
    assert isinstance(v, NotEqual) and all(abs(value) < math.inf for value in v.values)


def test_semantically_equal_seed_stability():
    a, b = x * y, x + y
    v1 = semantically_equal(a, b, seed=4)
    v2 = semantically_equal(a, b, seed=4)
    assert v1.witness == v2.witness


# -- golden text of every declared expression ---------------------------

# str() of every const, form and field that the 12 suite texts and the
# elaborating ones among 400 seeded random scenarios declare.  The file was
# written by the engine while Expr still held Fraction coefficients; it pins
# canonical term order and coefficient printing, exp atoms included.
GOLDEN_EXPR_TEXT = Path(__file__).parent / "golden" / "expr_text.txt"


def _declared_expr_text():
    texts = [(sid, parse_scenario(text)) for sid, _, text in SUITE]
    rng = random.Random(0xC0FFEE)
    texts += [(f"random {i}", random_scenario(rng)) for i in range(400)]
    lines = []
    for source, scenario in texts:
        try:
            scope = elaborate_scope(scenario, RunConfig())
        except ElaborationError:
            continue
        for kind in ("const", "form", "field"):
            for name, value in scope.of_kind(kind):
                lines.append(f"{source} {kind} {name} = {value}\n")
    return "".join(lines)


def test_declared_expressions_print_as_golden():
    assert _declared_expr_text() == GOLDEN_EXPR_TEXT.read_text()
