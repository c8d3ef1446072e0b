"""Randomized algebraic property batteries.

Each battery draws random polynomial forms over small charts from a
seeded generator and counts violations of an exact identity.  The
identities are checked structurally on canonical coefficients, so a
single violation would be a real bug, not noise; the expected failure
count is always zero.
"""

from __future__ import annotations

import random
from itertools import combinations

from .charts import MAX_DIM, Chart, ChartMap, DForm, Metric
from .errors import DomainError
from .symexpr import _SYM, _canonical, _normalize_monomial, rat

__all__ = ["run_property_battery", "PROPERTY_NAMES"]

_DEFAULT_DIMS = (2, 3, 4, 5, 6)

_NUMERATORS = (-3, -2, -1, 1, 2, 3)

_charts = {}


def _chart(dim):
    if dim not in _charts:
        _charts[dim] = Chart(f"w{dim}", tuple(f"w{i}" for i in range(1, dim + 1)))
    return _charts[dim]


# The index tuples of each (dimension, degree) pair, in `combinations`
# order: increasing and distinct, so a form built from them needs no
# sorting or summing.
_INDEX_TUPLES = {
    (dim, degree): tuple(combinations(range(dim), degree))
    for dim in range(1, MAX_DIM + 1)
    for degree in range(dim + 1)
}

# The steps of random.shuffle over n items: each position i from n - 1
# down to 1 with the bit length of i + 1, the draw's range.
_SHUFFLE_STEPS = {
    n: tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))
    for n in {len(keys) for keys in _INDEX_TUPLES.values()}
}

# Every draw here is an int in [0, n) taken as getrandbits(k), with
# k = n.bit_length(), and redrawn while it is >= n.  That is the rule of
# random.Random._randbelow, so the draws are, one for one, those that
# randrange, choice and shuffle would make from the same stream, without
# those functions' call layers.  The generators inline the rule in their
# loops; everything else draws through `_below`.


def _below(bits, n):
    """An int in [0, n) for n >= 1, drawn from `bits` (an RNG's
    getrandbits) as random.Random._randbelow(n) draws it."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


# Bound of the monomial memo of `_rand_poly`; the built-in suite's
# batteries draw 115 distinct (coords, factor picks) keys.
_MONOMIAL_MEMO = 1024

# (coords, factor picks) -> monomial
_monomials = {}


def _new_monomial(key):
    """The sorted monomial of the coordinates coords[i] for i in picks,
    key being (coords, picks), kept in the memo while it has room."""
    coords, picks = key
    mono = _normalize_monomial([((_SYM, coords[i]), 1) for i in picks])
    if len(_monomials) < _MONOMIAL_MEMO:
        _monomials[key] = mono
    return mono


def _rand_poly(rng, coords, max_terms=3, max_deg=2):
    """A random polynomial: up to max_terms terms, each a coefficient
    +-{1, 2, 3}/{1, 2} times up to max_deg coordinate factors, summed in
    one dict of numerators over 2 and canonicalized once.  The draws are
    those of randrange(1, max_terms + 1), then per term choice of the
    numerator, randrange(1, 3) for the denominator, randrange(0,
    max_deg + 1) for the degree and choice(coords) per factor.  The
    monomial of each term's factors is looked up in the memo."""
    bits, monomials = rng.getrandbits, _monomials
    n_coords, n_degs = len(coords), max_deg + 1
    k_terms, k_coords, k_degs = max_terms.bit_length(), n_coords.bit_length(), n_degs.bit_length()
    terms = bits(k_terms)
    while terms >= max_terms:
        terms = bits(k_terms)
    acc = {}
    for _ in range(terms + 1):
        i = bits(3)
        while i >= 6:
            i = bits(3)
        half = bits(2)
        while half >= 2:
            half = bits(2)
        # 2 // randrange(1, 3) is 2 - half.
        numerator = _NUMERATORS[i] * (2 - half)
        degree = bits(k_degs)
        while degree >= n_degs:
            degree = bits(k_degs)
        picks = []
        for _ in range(degree):
            i = bits(k_coords)
            while i >= n_coords:
                i = bits(k_coords)
            picks.append(i)
        key = (coords, tuple(picks))
        mono = monomials.get(key)
        if mono is None:
            mono = _new_monomial(key)
        acc[mono] = acc.get(mono, 0) + numerator
    return _canonical(acc, 2)


def _rand_form(rng, chart, degree, max_terms=2):
    """A random form with up to max_terms components: the index tuples
    shuffled as random.shuffle does, then the first randrange(1,
    max_terms + 1) of them, each with a random coefficient; only a zero
    coefficient is dropped."""
    bits = rng.getrandbits
    keys = list(_INDEX_TUPLES[chart.dim, degree])
    for i, k in _SHUFFLE_STEPS[len(keys)]:
        j = bits(k)
        while j > i:
            j = bits(k)
        keys[i], keys[j] = keys[j], keys[i]
    k = max_terms.bit_length()
    count = bits(k)
    while count >= max_terms:
        count = bits(k)
    items = [(key, _rand_poly(rng, chart.coords)) for key in keys[: count + 1]]
    return DForm(chart, degree, {key: c for key, c in items if c.terms})


def _rand_map(rng, source, target):
    comps = tuple(_rand_poly(rng, source.coords, max_terms=2) for _ in target.coords)
    return ChartMap("phi", source, target, comps)


def _dd_zero(rng, dims):
    bits = rng.getrandbits
    chart = _chart(dims[_below(bits, len(dims))])
    degree = _below(bits, chart.dim)
    form = _rand_form(rng, chart, degree)
    return bool(form.d().d().comps)


def _graded_comm(rng, dims):
    bits = rng.getrandbits
    chart = _chart(dims[_below(bits, len(dims))])
    p = _below(bits, chart.dim + 1)
    q = _below(bits, chart.dim - p + 1)
    a = _rand_form(rng, chart, p)
    b = _rand_form(rng, chart, q)
    rhs = b.wedge(a)
    return a.wedge(b) != (-rhs if p * q % 2 else rhs)


def _functorial(rng, dims):
    bits = rng.getrandbits
    db = dims[_below(bits, len(dims))]
    da = dims[_below(bits, len(dims))]
    source, target = _chart(da), _chart(db)
    if source == target:
        # Move the target up a dimension, or down from the largest
        # declared one; no chart has 0 coordinates, so 1 moves up.
        target = _chart(db + 1 if db < max(dims) or db == 1 else db - 1)
    phi = _rand_map(rng, source, target)
    p = _below(bits, target.dim)
    q = _below(bits, target.dim - p + 1)
    a = _rand_form(rng, target, p)
    b = _rand_form(rng, target, q)
    return phi.pullback(a.wedge(b)) != phi.pullback(a).wedge(phi.pullback(b))


def _antiderivation(rng, dims):
    bits = rng.getrandbits
    chart = _chart(dims[_below(bits, len(dims))])
    p = _below(bits, chart.dim)
    q = _below(bits, chart.dim - p)
    a = _rand_form(rng, chart, p)
    b = _rand_form(rng, chart, q)
    second = a.wedge(b.d())
    return a.wedge(b).d() != a.d().wedge(b) + (-second if p % 2 else second)


# The sampled batteries: each identity draws one random instance and
# returns whether it is violated.
_BATTERIES = {
    "dd_zero": _dd_zero,
    "graded_comm": _graded_comm,
    "functorial": _functorial,
    "antiderivation": _antiderivation,
}

PROPERTY_NAMES = (*_BATTERIES, "double_star")


def _run_double_star(dims):
    """Exhaustive over basis forms: (failures, forms checked)."""
    failures = 0
    checked = 0
    for dim in dims:
        chart = _chart(dim)
        metric = Metric.euclidean(chart)
        for degree in range(dim + 1):
            for key in combinations(range(dim), degree):
                form = DForm.build(chart, degree, [(key, rat(1))])
                twice = metric.star(metric.star(form))
                expected = form if (degree * (dim - degree)) % 2 == 0 else -form
                checked += 1
                if twice != expected:
                    failures += 1
    return failures, checked


def _check_count(name, n, most=None):
    """The scenario language's rule for a sample budget or a chart
    dimension: an int, not a bool, of at least 1 and of at most `most`
    when given."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"{name} must be at least 1, got {n}")
    if most is not None and n > most:
        raise DomainError(f"{name} must be at most {most}, got {n}")


def run_property_battery(name, samples, dims, seed):
    """Returns (passed, evidence dict).  `samples` may be None, for 100
    samples, and `dims` empty or None, for dimensions 2 to 6; double_star
    checks every basis form and ignores `samples`."""
    if name not in PROPERTY_NAMES:
        raise DomainError(f"unknown property battery {name!r}")
    if samples is not None:
        _check_count("samples", samples)
    dims = tuple(dims) if dims else _DEFAULT_DIMS
    for dim in dims:
        _check_count("dims", dim, MAX_DIM)
    if name == "double_star":
        failures, checked = _run_double_star(dims)
        return failures == 0, {"checked": checked, "failures": failures, "dims": list(dims)}
    rng = random.Random(seed)
    count = 100 if samples is None else samples
    failures = sum(_BATTERIES[name](rng, dims) for _ in range(count))
    return failures == 0, {"samples": count, "failures": failures, "dims": list(dims)}
