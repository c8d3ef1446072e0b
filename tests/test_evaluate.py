"""The exact evaluator against the Fraction evaluator it replaced.

`_reference_evaluate` is the evaluator as it was before terms were summed
as integer pairs: a Fraction per factor and per term.  The property draws
polynomial, Laurent, pi, exp, sin, cos and opaque expressions and points
of ints, Fractions, floats and mixtures, zeros included, and requires the
same value of the same type, the same float bits and the same exception.
Past the float range the reference takes numpy's value, an infinity, and
sin or cos of an infinity is NaN, where Python's float arithmetic raises.
"""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nsx.errors import DomainError, EvaluationError
from nsx.symexpr import (
    _COS,
    _EXP,
    _KIND_NAMES,
    _OPQ,
    _PI,
    _SIN,
    _SYM,
    PI,
    _opaque_numeric,
    cos_of,
    evaluate,
    exp_of,
    opaque_fn,
    rat,
    sin_of,
    sym,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


def _reference_evaluate(expr, env):
    for name in sorted(expr.opaque_names()):
        _opaque_numeric(name)
    den = expr.den
    exact_sum = _F0
    float_sum = 0.0
    has_float = False
    for mono, n in expr.terms:
        value = _reference_term(mono, n, den, env)
        if value is None:
            continue
        if isinstance(value, float):
            float_sum += value
            has_float = True
        else:
            exact_sum += value
    if den != 1:
        exact_sum /= den
    if has_float:
        return float(exact_sum) + float_sum
    return exact_sum


def _reference_env_value(env, name):
    try:
        v = env[name]
    except KeyError:
        raise EvaluationError(f"no value for coordinate {name}") from None
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, float)):
        return v
    raise EvaluationError(f"bad value for coordinate {name}: {v!r}")


def _reference_term(mono, n, den, env):
    result = n
    deferred = []
    for atom, e in mono:
        if atom[0] == _SYM:
            v = _reference_env_value(env, atom[1])
            if isinstance(v, Fraction):
                if v == 0:
                    if e < 0:
                        raise EvaluationError(
                            f"coordinate {atom[1]} is 0 but appears to power {e}"
                        )
                    return None
                result = v**e * result
                continue
        deferred.append((atom, e))
    for atom, e in deferred:
        v = _reference_atom(atom, env)
        if v == 0 and e < 0:
            raise EvaluationError(f"zero atom {_KIND_NAMES[atom[0]]} raised to power {e}")
        if isinstance(v, float):
            if not isinstance(result, float):
                result = float(result / den)
            result = result * _reference_power(v, e)
        elif v == 0:
            return None
        else:
            result = v**e * result
    return result


def _reference_atom(atom, env):
    kind = atom[0]
    if kind == _SYM:
        return _reference_env_value(env, atom[1])
    if kind == _PI:
        return math.pi
    if kind == _OPQ:
        v = _reference_env_value(env, atom[2])
        return float(_opaque_numeric(atom[1])(float(v)))
    arg = _reference_evaluate(atom[1], env)
    if isinstance(arg, Fraction):
        if arg == 0:
            return _F0 if kind == _SIN else _F1
        arg = float(arg)
    try:
        return {_EXP: math.exp, _SIN: math.sin, _COS: math.cos}[kind](arg)
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.exp(arg))
    except ValueError:  # sin or cos of an infinity
        return math.nan


def _reference_power(v, e):
    try:
        return v**e
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.float64(v) ** e)


# -- strategies -----------------------------------------------------------

COORDS = ("x", "y", "z")

def _power(base, n):
    try:
        return base**n
    except DomainError:  # a negative power of zero
        return base


_coords = st.sampled_from([sym(c) for c in COORDS])
# exp, sin and cos arguments: small linear forms, so that an argument is
# often exactly zero at a drawn point.
_args = st.builds(
    lambda a, b, c: a * b + c,
    st.sampled_from([1, -1, 2]),
    _coords,
    st.one_of(st.just(0), _coords.map(lambda v: -v), st.builds(rat, st.integers(-2, 2))),
)
# chi and chi' are registered by default; nope is not, so an expression
# holding it must raise before any term is looked at.
_factors = st.one_of(
    st.builds(lambda v, n: v**n, _coords, st.sampled_from([-3, -2, -1, 1, 2, 3])),
    st.just(PI),
    st.builds(
        lambda f, u, n: _power(f(u), n),
        st.sampled_from([exp_of, sin_of, cos_of]),
        _args,
        st.sampled_from([-1, 1, 2]),
    ),
    st.builds(opaque_fn, st.sampled_from(["chi", "chi'", "nope"]), st.sampled_from(COORDS)),
)
# Coefficients up to 2**70, so that a numerator exceeds 2**53 and the one
# rounding of an exact part into a float shows.
_coefficients = st.builds(
    rat,
    st.one_of(st.integers(-6, 6), st.integers(2**53, 2**70), st.integers(-(2**70), -(2**53))),
    st.integers(1, 12),
)


@st.composite
def exprs(draw):
    """Sums of up to four terms, each a coefficient times up to four
    factors; a term may also be a nested sum raised to a small power."""
    total = rat(0)
    for _ in range(draw(st.integers(1, 4))):
        term = draw(_coefficients)
        for f in draw(st.lists(_factors, max_size=4)):
            term = term * f
        if draw(st.integers(0, 5)) == 0:
            term = (term + draw(_factors)) ** draw(st.integers(0, 2))
        total = total + term
    return total


# Few distinct values, so exact zeros, equal coordinates and zero
# arguments of exp, sin and cos come up often.
_values = st.one_of(
    st.sampled_from([0, 1, -2, 3, 2**60 + 1]),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(2**70 + 1, 3**7)]),
    st.fractions(min_value=-8, max_value=8, max_denominator=1 << 12),
    st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, 1e-300, 1e300, math.inf, math.nan]),
    st.floats(min_value=-8, max_value=8),
    st.sampled_from([np.float64(0.5), np.float64(0.0)]),
)


@st.composite
def points(draw):
    env = {}
    for c in COORDS:
        kind = draw(st.integers(0, 19))
        if kind == 0:
            continue  # a missing coordinate
        env[c] = "1/2" if kind == 1 else draw(_values)
    return env


def _outcome(fn, expr, env):
    try:
        v = fn(expr, env)
    except Exception as exc:  # the reference and the evaluator must agree
        return ("raises", type(exc), str(exc))
    if isinstance(v, float):
        return ("float", type(v), struct.pack("<d", v))
    return ("exact", type(v), v)


@given(exprs(), points())
# A float factor before an exact zero factor, and an exact part whose
# numerator a float cannot hold.
@example(sym("y") * sin_of(sym("x")), {"x": 0, "y": 0.5})
@example(rat(2**70 + 1, 3) * sym("x") * sym("y"), {"x": Fraction(1, 7), "y": 0.5})
@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_evaluate_matches_the_fraction_reference(expr, env):
    assert _outcome(evaluate, expr, env) == _outcome(_reference_evaluate, expr, env)


def test_reference_cases_cover_each_outcome():
    x, y = sym("x"), sym("y")
    cases = [
        (x * y + rat(1, 3), {"x": Fraction(1, 2), "y": 3}, Fraction(11, 6)),
        (x**-2 * sin_of(y), {"x": Fraction(-2, 3), "y": 0}, Fraction(0)),
        (x * exp_of(y) + PI, {"x": Fraction(1, 3), "y": 0.5}, None),
        (x**-1, {"x": 0}, "coordinate x is 0 but appears to power -1"),
        (sin_of(y) ** -1, {"y": Fraction(0)}, "zero atom sin raised to power -1"),
        (x**-1 * PI, {"x": 0.0}, "zero atom sym raised to power -1"),
        (x * opaque_fn("nope", "y"), {"x": 0}, "opaque function nope has no registered numeric"),
        (x + y, {"x": 1}, "no value for coordinate y"),
    ]
    for expr, env, want in cases:
        got = _outcome(evaluate, expr, env)
        assert got == _outcome(_reference_evaluate, expr, env)
        if isinstance(want, Fraction):
            assert got == ("exact", Fraction, want)
        elif isinstance(want, str):
            assert got[2] == want
        else:
            assert got[0] == "float"
    # Past the float range a value is non-finite, as numpy gives it, not an
    # OverflowError or a ValueError.
    for expr, env, want in [
        (x**2, {"x": 1e200}, math.inf),
        (x**3, {"x": -1e200}, -math.inf),
        (x**-3, {"x": -1e-200}, -math.inf),
        (exp_of(rat(1000) * x) * y, {"x": 1, "y": Fraction(-1, 2)}, -math.inf),
    ]:
        assert evaluate(expr, env) == want
    assert math.isnan(evaluate(sin_of(exp_of(rat(1000) * x)), {"x": 1}))
    # A float coordinate keeps numpy's float type.
    assert type(evaluate(x * y, {"x": Fraction(1, 3), "y": np.float64(0.5)})) is np.float64
