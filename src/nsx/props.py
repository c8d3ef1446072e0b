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

from .charts import Chart, ChartMap, DForm, Metric
from .symexpr import _SYM, _canonical, _normalize_monomial, rat

__all__ = ["run_property_battery", "PROPERTY_NAMES"]

PROPERTY_NAMES = ("dd_zero", "graded_comm", "functorial", "antiderivation", "double_star")

_DEFAULT_DIMS = (2, 3, 4, 5, 6)

_charts = {}


def _chart(dim):
    if dim not in _charts:
        _charts[dim] = Chart(f"w{dim}", tuple(f"w{i}" for i in range(1, dim + 1)))
    return _charts[dim]


def _rand_poly(rng, coords, max_terms=3, max_deg=2):
    """A random polynomial: up to max_terms terms, each a coefficient
    +-{1, 2, 3}/{1, 2} times up to max_deg coordinate factors, summed in
    one dict of numerators over 2 and canonicalized once."""
    acc = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        numerator = rng.choice((-3, -2, -1, 1, 2, 3)) * (2 // rng.randrange(1, 3))
        factors = [
            ((_SYM, rng.choice(coords)), 1) for _ in range(rng.randrange(0, max_deg + 1))
        ]
        mono = _normalize_monomial(factors)
        acc[mono] = acc.get(mono, 0) + numerator
    return _canonical(acc, 2)


def _rand_form(rng, chart, degree, max_terms=2):
    """A random form with up to max_terms components.  The keys come from
    `combinations`, so they are increasing and distinct and the form needs
    no sorting or summing; only a zero coefficient is dropped."""
    keys = list(combinations(range(chart.dim), degree))
    rng.shuffle(keys)
    items = [
        (k, _rand_poly(rng, chart.coords))
        for k in keys[: rng.randrange(1, max_terms + 1)]
    ]
    return DForm(chart, degree, {k: c for k, c in items if not c.is_zero})


def _rand_map(rng, source, target):
    comps = tuple(_rand_poly(rng, source.coords, max_terms=2) for _ in target.coords)
    return ChartMap("phi", source, target, comps)


def _run_dd_zero(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        chart = _chart(rng.choice(dims))
        degree = rng.randrange(0, chart.dim)
        form = _rand_form(rng, chart, degree)
        if form.d().d().comps:
            failures += 1
    return failures


def _run_graded_comm(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        chart = _chart(rng.choice(dims))
        p = rng.randrange(0, chart.dim + 1)
        q = rng.randrange(0, chart.dim - p + 1)
        a = _rand_form(rng, chart, p)
        b = _rand_form(rng, chart, q)
        lhs = a.wedge(b)
        rhs = b.wedge(a)
        if p * q % 2:
            rhs = -rhs
        if lhs != rhs:
            failures += 1
    return failures


def _run_functorial(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        db = rng.choice(dims)
        da = rng.choice(dims)
        source, target = _chart(da), _chart(db)
        if source == target:
            # Move the target up a dimension, or down from the largest
            # declared one; no chart has 0 coordinates, so 1 moves up.
            target = _chart(db + 1 if db < max(dims) or db == 1 else db - 1)
        phi = _rand_map(rng, source, target)
        p = rng.randrange(0, target.dim)
        q = rng.randrange(0, target.dim - p + 1)
        a = _rand_form(rng, target, p)
        b = _rand_form(rng, target, q)
        if phi.pullback(a.wedge(b)) != phi.pullback(a).wedge(phi.pullback(b)):
            failures += 1
    return failures


def _run_antiderivation(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        chart = _chart(rng.choice(dims))
        p = rng.randrange(0, chart.dim)
        q = rng.randrange(0, chart.dim - p)
        a = _rand_form(rng, chart, p)
        b = _rand_form(rng, chart, q)
        lhs = a.wedge(b).d()
        second = a.wedge(b.d())
        if p % 2:
            second = -second
        rhs = a.d().wedge(b) + second
        if lhs != rhs:
            failures += 1
    return failures


def _run_double_star(rng, samples, dims):
    """Exhaustive over basis forms; `samples` is ignored and the checked
    count is returned through the evidence instead."""
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


def run_property_battery(name, samples, dims, seed):
    """Returns (passed, evidence dict)."""
    dims = tuple(dims) if dims else _DEFAULT_DIMS
    rng = random.Random(seed)
    if name == "double_star":
        failures, checked = _run_double_star(rng, samples, dims)
        return failures == 0, {"checked": checked, "failures": failures, "dims": list(dims)}
    runners = {
        "dd_zero": _run_dd_zero,
        "graded_comm": _run_graded_comm,
        "functorial": _run_functorial,
        "antiderivation": _run_antiderivation,
    }
    if name not in runners:
        raise ValueError(f"unknown property battery {name!r}")
    count = 100 if samples is None else samples
    failures = runners[name](rng, count, dims)
    return failures == 0, {"samples": count, "failures": failures, "dims": list(dims)}
