"""Regions, loci, and sampled verification of vanishing and rank claims.

A Region is a product of closed intervals on a chart together with a
lattice resolution per axis and a count of pseudo-random samples.  All
randomness flows through seeds derived by hashing, never through the
process-global generator, so a report is a pure function of its inputs.

A locus is a declared subset of a chart.  Checks draw on-locus samples
from the locus itself and off-locus samples from the ambient region by
rejection against a distance margin, then test pointwise claims on the
two populations.  Sample counts are part of the verdict: too few points
on either side fails the check rather than silently passing it.

A random draw on a rational interval is one of its 2**12 + 1 dyadic
points, (base + step*k) / den for a seeded k, where `Region.dyadic_axes`
holds (base, step, den) per axis.  Lattice points and most draws are
{coord: Fraction} dicts.  Off-locus draws against a rational coordinate
locus are held as integer numerators over those fixed denominators
(`_DyadicPoints`): the margin test is one integer comparison, the float
columns are one integer array divided by the denominators, and a dict is
built only for a point that is read one at a time.

A float value inside the tolerance band decides nothing by itself: it
is a counterexample only when an exact value confirms it, and otherwise
the report counts it under `band` and is undecided.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError
from .pointcheck import map_rank_at
from .symexpr import (
    Equal,
    NotEqual,
    compile_numpy,
    evaluate,
    semantically_equal,
)

__all__ = [
    "derive_seed",
    "Region",
    "CoordLocus",
    "PointsLocus",
    "ImageLocus",
    "UnionLocus",
    "EmptyLocus",
    "LocusSampler",
    "LocusReport",
    "verify_vanishing_locus",
    "verify_positive",
    "verify_rank_drop_locus",
    "verify_fixed_points",
    "verify_dividing_set",
]

MIN_ON_SAMPLES = 1
MIN_OFF_SAMPLES = 8
DEFAULT_MARGIN = Fraction(1, 8)
_DYADIC_BITS = 12
_FLOAT_EXACT = 1 << 53  # every int of smaller magnitude is exact as a float64
_REJECTION_CAP_FACTOR = 50
_MAX_RECORDED_COUNTEREXAMPLES = 5


def derive_seed(*parts):
    """A 63-bit seed from a hash of the printed parts.

    Built-in hash() is salted per process, so it never touches sampling.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _is_rational_number(v):
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _dyadic_axis(lo, hi):
    """The dyadic draws of [lo, hi] as (base, step, den): draw k, for k in
    0..2**bits, is (base + step*k) / den.  None when an end is a float."""
    if not (_is_rational_number(lo) and _is_rational_number(hi)):
        return None
    # lo + (hi - lo) * k / 2**bits over the common denominator
    # lo.d * hi.d * 2**bits, so only the result is a Fraction.
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    return ln * hd << _DYADIC_BITS, hn * ld - ln * hd, ld * hd << _DYADIC_BITS


def _dyadic_between(rng, lo, hi, axis):
    """One seeded draw from [lo, hi], whose `_dyadic_axis` is `axis`."""
    k = rng.randrange(0, (1 << _DYADIC_BITS) + 1)
    if axis is None:
        return float(lo) + (float(hi) - float(lo)) * (k / float(1 << _DYADIC_BITS))
    base, step, den = axis
    return Fraction(base + step * k, den)


def _axis_lattice(lo, hi, res):
    if res < 1:
        raise DomainError("lattice resolution must be at least 1")
    exact = _is_rational_number(lo) and _is_rational_number(hi)
    if res == 1:
        mid = (Fraction(lo) + Fraction(hi)) / 2 if exact else (float(lo) + float(hi)) / 2
        return [mid]
    pts = []
    for i in range(res):
        if exact:
            pts.append(Fraction(lo) + (Fraction(hi) - Fraction(lo)) * Fraction(i, res - 1))
        else:
            pts.append(float(lo) + (float(hi) - float(lo)) * (i / (res - 1)))
    return pts


@dataclass(frozen=True)
class Region:
    """Product of closed coordinate intervals with sampling parameters."""

    chart: object
    intervals: tuple  # one (lo, hi) per chart coordinate
    lattice: tuple  # resolution per axis
    random_count: int

    def __post_init__(self):
        n = self.chart.dim
        if len(self.intervals) != n:
            raise DomainError(f"region needs {n} intervals, got {len(self.intervals)}")
        if len(self.lattice) != n:
            raise DomainError(f"region needs {n} lattice resolutions")
        for lo, hi in self.intervals:
            if float(lo) > float(hi):
                raise DomainError(f"empty interval [{lo}, {hi}]")
        if self.random_count < 0:
            raise DomainError("random sample count must be nonnegative")

    @cached_property
    def dyadic_axes(self):
        """The `_dyadic_axis` of each interval, in coordinate order."""
        return tuple(_dyadic_axis(lo, hi) for lo, hi in self.intervals)

    def contains(self, env):
        for c, (lo, hi) in zip(self.chart.coords, self.intervals):
            v = env[c]
            if v < lo or v > hi:
                return False
        return True


def lattice_envs(region):
    return _lattice_product({}, region, region.chart.coords)


def _lattice_product(pinned, region, coords):
    """`pinned` extended by every combination of the region's lattice
    points on `coords`, the first coordinate varying slowest."""
    idx = {c: i for i, c in enumerate(region.chart.coords)}
    axes = [_axis_lattice(*region.intervals[idx[c]], region.lattice[idx[c]]) for c in coords]
    envs = [dict(pinned)]
    for coord, pts in zip(coords, axes):
        envs = [dict(e, **{coord: p}) for e in envs for p in pts]
    return envs


def random_env(region, rng):
    return {
        c: _dyadic_between(rng, lo, hi, axis)
        for c, (lo, hi), axis in zip(region.chart.coords, region.intervals, region.dyadic_axes)
    }


def region_envs(region, seed):
    """The region's lattice followed by its `random_count` seeded draws."""
    rng = random.Random(seed)
    return lattice_envs(region) + [random_env(region, rng) for _ in range(region.random_count)]


# ---------------------------------------------------------------------------
# Locus flavours


@dataclass(frozen=True)
class CoordLocus:
    """Coordinates pinned to rational values, the rest free."""

    chart: object
    values: tuple  # ((coord, Fraction), ...)

    def __post_init__(self):
        for c, v in self.values:
            if c not in self.chart.coords:
                raise DomainError(f"unknown coordinate {c!r}")
        if not self.values:
            raise DomainError("a coordinate locus must pin at least one coordinate")

    @property
    def pinned(self):
        return dict(self.values)


@dataclass(frozen=True)
class PointsLocus:
    """An explicit finite set of points."""

    chart: object
    points: tuple  # tuple of env-tuples ((coord, value), ...)

    def env_list(self):
        return [dict(p) for p in self.points]


@dataclass(frozen=True)
class ImageLocus:
    """The image of a region under a chart map (identity if cmap is None).

    The locus is known only through its sample cloud; distances are
    measured against that cloud.
    """

    cmap: object
    source_region: Region

    @property
    def chart(self):
        if self.cmap is None:
            return self.source_region.chart
        return self.cmap.target


@dataclass(frozen=True)
class UnionLocus:
    parts: tuple

    def __post_init__(self):
        charts = {p.chart for p in self.parts}
        if len(charts) != 1:
            raise DomainError("union locus parts must share a chart")

    @property
    def chart(self):
        return self.parts[0].chart


@dataclass(frozen=True)
class EmptyLocus:
    """A locus declared to be empty; waives the on-sample floor."""

    chart: object


def _locus_on_envs(locus, region, seed):
    if isinstance(locus, EmptyLocus):
        return []
    if isinstance(locus, PointsLocus):
        return locus.env_list()
    if isinstance(locus, CoordLocus):
        pinned = locus.pinned
        if region is None or locus.chart != region.chart:
            if len(pinned) != len(locus.chart.coords):
                raise DomainError(
                    "a partial coordinate locus needs an ambient region on its chart"
                )
            return [dict(pinned)]
        free = [c for c in locus.chart.coords if c not in pinned]
        return _lattice_product(pinned, region, free)
    if isinstance(locus, ImageLocus):
        src = region_envs(locus.source_region, derive_seed(seed, "image-locus"))
        if locus.cmap is None:
            return src
        return [locus.cmap.apply(e) for e in src]
    if isinstance(locus, UnionLocus):
        out = []
        for i, part in enumerate(locus.parts):
            out.extend(_locus_on_envs(part, region, derive_seed(seed, "union", i)))
        return out
    raise DomainError(f"unknown locus flavour {type(locus).__name__}")


class LocusSampler:
    """On-locus samples and a distance oracle for one locus in one region."""

    def __init__(self, locus, region, seed):
        self.locus = locus
        self.region = region
        self.seed = seed
        self.on_envs = _locus_on_envs(locus, region, seed)
        # Point clouds back the distance oracle for loci without a
        # coordinate description, keyed by the id of their locus.  A
        # top-level cloud is drawn now; a union part's cloud is drawn on
        # its first distance query, with the sampler's own seed.
        self._clouds = {}
        if isinstance(locus, (PointsLocus, ImageLocus)):
            self._clouds[id(locus)] = _locus_on_envs(locus, region, derive_seed(seed, "cloud"))

    def _cloud(self, locus):
        cloud = self._clouds.get(id(locus))
        if cloud is None:
            cloud = self._clouds[id(locus)] = _locus_on_envs(locus, self.region, self.seed)
        return cloud

    def distance_sq(self, env):
        """Squared distance from env to the locus, None for an empty locus.

        Exact Fractions whenever every participating value is rational.
        """
        return self._dist_sq(self.locus, env)

    def _dist_sq(self, locus, env):
        if isinstance(locus, EmptyLocus):
            return None
        if isinstance(locus, CoordLocus):
            return _coord_dist_sq(locus.values, env)
        if isinstance(locus, (PointsLocus, ImageLocus)):
            best = None
            coords = locus.chart.coords
            for p in self._cloud(locus):
                t = Fraction(0)
                for c in coords:
                    d = env[c] - p[c]
                    t = t + d * d
                if best is None or t < best:
                    best = t
            return best
        if isinstance(locus, UnionLocus):
            ds = [self._dist_sq(p, env) for p in locus.parts]
            ds = [d for d in ds if d is not None]
            return min(ds) if ds else None
        raise DomainError(f"unknown locus flavour {type(locus).__name__}")


def _coord_dist_sq(values, env):
    """Sum of (env[c] - v)**2 over the pinned (c, v) pairs.

    Rational values are summed as one integer numerator over one integer
    denominator; any other value takes the Fraction-then-float sum, so a
    float result keeps its bits.
    """
    num, den = 0, 1
    for c, v in values:
        e = env[c]
        if not (_is_rational_number(e) and _is_rational_number(v)):
            return _coord_dist_sq_mixed(values, env)
        ed, vd = e.denominator, v.denominator
        a = e.numerator * vd - v.numerator * ed  # (e - v) == a / (ed * vd)
        b = (ed * vd) ** 2
        num, den = num * b + a * a * den, den * b
    return Fraction(num, den)


def _coord_dist_sq_mixed(values, env):
    total = Fraction(0)
    for c, v in values:
        d = env[c] - v
        total = total + d * d
    return total


class _DyadicPoints:
    """Dyadic draws of a rational region, each one tuple of integer
    numerators over the region's fixed per-axis denominators.

    An item is the {coord: Fraction} env that `random_env` draws, built
    when it is read.  Every numerator and denominator is below 2**53.
    """

    def __init__(self, coords, dens, rows):
        self.coords, self.dens, self.rows = coords, dens, rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return {c: Fraction(n, d) for c, n, d in zip(self.coords, self.rows[i], self.dens)}

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, _DyadicPoints) else other)

    def float_columns(self, coords):
        """{coord: float64 array} bit-identical to float() of each Fraction.

        Both integers of a quotient are exact as floats, so the one IEEE
        division is correctly rounded, as `float(Fraction)` is.
        """
        nums = np.array(self.rows, dtype=np.int64).reshape(len(self.rows), len(self.coords))
        vals = nums.T.astype(np.float64, order="C") / np.array(self.dens, dtype=np.float64)[:, None]
        cols = dict(zip(self.coords, vals))
        return {c: cols[c] for c in coords}


def _integer_margin_test(sampler, margin):
    """`distance_sq(env) >= margin**2` as integer data, or None.

    Returns (pins, threshold), one (axis, q, p*den, weight) per pinned
    value p/q, such that a draw with numerators n accepts exactly when
    sum(weight * (n[axis]*q - p*den)**2) >= threshold.  That needs a
    rational coordinate locus on the region's chart, a rational margin
    and a rational region whose numerators and denominators stay below
    2**53; otherwise None.
    """
    locus, region = sampler.locus, sampler.region
    axes = region.dyadic_axes
    if not (
        isinstance(locus, CoordLocus)
        and locus.chart == region.chart
        and _is_rational_number(margin)
        and all(_is_rational_number(v) for _, v in locus.values)
        and None not in axes
    ):
        return None
    for base, step, den in axes:
        if max(abs(base), abs(base + (step << _DYADIC_BITS)), den) >= _FLOAT_EXACT:
            return None
    # (n/den - p/q)**2 == (n*q - p*den)**2 / (den*q)**2; scale every term
    # and margin**2 to the common denominator lcm((den*q)**2) * margin.d**2.
    coords = region.chart.coords
    pins = []
    for c, v in locus.values:
        i = coords.index(c)
        den = axes[i][2]
        pins.append((i, v.denominator, v.numerator * den, (den * v.denominator) ** 2))
    common = math.lcm(*(sq for *_, sq in pins))
    md_sq = margin.denominator**2
    pins = [(i, q, pd, common // sq * md_sq) for i, q, pd, sq in pins]
    return pins, margin.numerator**2 * common


def off_locus_envs(sampler, margin, count, seed):
    """Accepted-count rejection sampling of the ambient region.

    Returns (envs, exhausted): at most `count` region samples at squared
    distance >= margin**2 from the locus; exhausted is True when the
    draw budget ran out first.

    Each draw makes `random_env`'s RNG calls in the same order.  Where
    `_integer_margin_test` applies, a draw stays integer numerators, the
    margin test is one integer comparison, and envs is a `_DyadicPoints`;
    for every other locus, region or margin, envs is a list of
    `random_env` dicts tested with `LocusSampler.distance_sq`.
    """
    region = sampler.region
    rng = random.Random(derive_seed(seed, "off-locus"))
    budget = max(64, _REJECTION_CAP_FACTOR * count)
    draws = 0
    test = _integer_margin_test(sampler, margin)
    if test is None:
        margin_sq = margin * margin
        out = []
        while len(out) < count and draws < budget:
            draws += 1
            env = random_env(region, rng)
            d = sampler.distance_sq(env)
            if d is None or d >= margin_sq:
                out.append(env)
        return out, len(out) < count
    pins, threshold = test
    lines = [(base, step) for base, step, _ in region.dyadic_axes]
    randrange, top = rng.randrange, (1 << _DYADIC_BITS) + 1
    rows = []
    while len(rows) < count and draws < budget:
        draws += 1
        row = tuple([base + step * randrange(0, top) for base, step in lines])
        total = 0
        for i, q, pd, weight in pins:
            a = row[i] * q - pd
            total += weight * a * a
        if total >= threshold:
            rows.append(row)
    dens = tuple(den for *_, den in region.dyadic_axes)
    return _DyadicPoints(region.chart.coords, dens, rows), len(rows) < count


# ---------------------------------------------------------------------------
# Reports


@dataclass
class LocusReport:
    kind: str
    passed: bool
    on_count: int = 0
    off_count: int = 0
    on_failures: int = 0
    off_failures: int = 0
    non_finite: int = 0
    band: int = 0
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    undecided: bool = False

    def fail(self, note=None):
        self.passed = False
        if note:
            self.notes.append(note)

    def band_hit(self):
        """Count a float sample inside the tolerance band that no exact
        value decides; it leaves the report undecided."""
        self.band += 1
        self.undecided = True

    def add_counterexample(self, env, reason, value=None, side=None):
        self.passed = False
        if side == "on":
            self.on_failures += 1
        elif side == "off":
            self.off_failures += 1
        if len(self.counterexamples) < _MAX_RECORDED_COUNTEREXAMPLES:
            point = {c: _printable(v) for c, v in env.items()}
            rec = {"point": point, "reason": reason}
            if value is not None:
                rec["value"] = _printable(value)
            self.counterexamples.append(rec)


def _printable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v
    return str(v)


def _pull_subject(subject, via):
    """Rewrite a form, field-component list, or scalar through a map.

    With `via`, the locus and region live on via.source and the subject
    on via.target; composing with the map moves the whole check to the
    source chart.
    """
    if via is None:
        return subject
    subst = via.substitution()
    if isinstance(subject, list):
        return [e.subs(subst) for e in subject]
    return subject.subs(subst)


def _float_values(exprs, envs, coords):
    """Float values of the expressions over the envs, one row per expression."""
    if isinstance(envs, _DyadicPoints):
        envf = envs.float_columns(coords)
    else:
        envf = {c: np.array([float(e[c]) for e in envs]) for c in coords}
    return np.stack([np.broadcast_to(compile_numpy(e)(envf), (len(envs),)) for e in exprs])


def _finite_samples(report, vals):
    """Mask of the samples (columns of vals) whose values are all finite.

    A NaN or infinite sample neither meets nor violates an off-locus
    requirement; it is counted on the report and leaves it undecided.
    """
    finite = np.all(np.isfinite(vals), axis=0)
    report.non_finite += int(np.count_nonzero(~finite))
    if report.non_finite:
        report.undecided = True
    return finite


def _check_on_vanishing(report, exprs, envs, tol):
    for env in envs:
        for e in exprs:
            v = evaluate(e, env)
            if isinstance(v, Fraction):
                ok = v == 0
            else:
                ok = abs(v) <= tol
            if not ok:
                report.add_counterexample(env, "nonzero on locus", v, side="on")


def _exact_recheck(exprs, env):
    """Exact values of the expressions at env, or None unless every one is
    polynomial and the point is rational."""
    if not all(e.is_polynomial() for e in exprs):
        return None
    if not all(_is_rational_number(v) for v in env.values()):
        return None
    return [evaluate(e, env) for e in exprs]


_EXACT_HOLDS = {
    "nonzero": lambda xs: any(x != 0 for x in xs),
    "positive": lambda xs: xs[0] > 0,
    "negative": lambda xs: xs[0] < 0,
}


def _check_off_requirement(report, exprs, envs, mode, tol, coords):
    """Sign or nonvanishing requirement over the off-locus population.

    Floats drive the sweep.  A violating sample is re-checked exactly when
    the expressions are polynomial and the point rational, so a float
    underflow cannot manufacture a failure.  Without an exact value, a
    float beyond the tolerance band on the wrong side is a violation, and
    one inside the band (every value within tol of zero) is a band hit.
    """
    if not envs:
        return
    vals = _float_values(exprs, envs, coords)
    size = np.max(np.abs(vals), axis=0)
    if mode == "nonzero":
        violated = size <= tol
    elif mode == "positive":
        violated = vals[0] <= tol
    elif mode == "negative":
        violated = vals[0] >= -tol
    else:
        raise DomainError(f"unknown off-locus mode {mode!r}")
    finite = _finite_samples(report, vals)
    for i in map(int, np.nonzero(violated & finite)[0]):
        env = envs[i]
        exact = _exact_recheck(exprs, env)
        if exact is None:
            if size[i] <= tol:
                report.band_hit()
                continue
            value = float(vals[0, i])  # one expression: sign modes only
        elif _EXACT_HOLDS[mode](exact):
            continue  # the float was inside the band; the exact value holds
        else:
            value = exact[0]
        report.add_counterexample(env, f"off-locus {mode} violated", value, side="off")


def _off_envs(report, sampler, margin, seed):
    """Margin-separated off-locus samples of the sampler's region, counted
    on the report, which fails when the draw budget runs out first."""
    count = max(MIN_OFF_SAMPLES, sampler.region.random_count)
    envs, exhausted = off_locus_envs(sampler, margin, count, seed)
    report.off_count = len(envs)
    if exhausted:
        report.fail("rejection sampling exhausted before the requested count")
    return envs


def _enforce_floors(report, locus, off_mode):
    if report.on_count < MIN_ON_SAMPLES and not isinstance(locus, EmptyLocus):
        report.fail(f"only {report.on_count} on-locus samples, need {MIN_ON_SAMPLES}")
    if off_mode != "none" and report.off_count < MIN_OFF_SAMPLES:
        report.fail(f"only {report.off_count} off-locus samples, need {MIN_OFF_SAMPLES}")


def verify_vanishing_locus(
    form,
    locus,
    region,
    *,
    off_form=None,
    off_mode="nonzero",
    via=None,
    margin=DEFAULT_MARGIN,
    tol=1e-9,
    seed=0,
):
    """Every coefficient of `form` vanishes on the locus; off the locus,
    `off_form` (default: `form` itself) meets the declared requirement.

    Modes: nonzero (some coefficient exceeds tol in absolute value),
    positive / negative (single-coefficient forms only, strict sign
    beyond tol), none (off requirement waived; an identically zero form
    passes only under this waiver).  A NaN or infinite off-locus sample
    leaves the check undecided.

    With `via`, the forms live on via.target while locus and region live
    on via.source; coefficients are composed with the map, which tests
    vanishing at the parametrized points (not the pullback, which could
    also vanish by restriction).
    """
    report = LocusReport(kind="vanishing_locus", passed=True)
    sampler = LocusSampler(locus, region, seed)
    on_envs = sampler.on_envs
    report.on_count = len(on_envs)

    if region is not None and locus.chart == region.chart:
        outside = [e for e in on_envs if not region.contains(e)]
        for e in outside:
            report.add_counterexample(e, "locus sample outside region", side="on")

    on_exprs = _pull_subject([form.comps[k] for k in sorted(form.comps)], via)
    if not on_exprs:
        report.notes.append("form is identically zero")
    _check_on_vanishing(report, on_exprs, on_envs, tol)

    if off_mode != "none":
        target = form if off_form is None else off_form
        off_exprs = _pull_subject([target.comps[k] for k in sorted(target.comps)], via)
        if off_mode in ("positive", "negative") and len(off_exprs) > 1:
            raise DomainError(f"{off_mode} requires a single-coefficient form")
        envs = _off_envs(report, sampler, margin, seed)
        if not off_exprs:
            for env in envs:
                report.add_counterexample(env, f"off-locus {off_mode} violated", 0, side="off")
            report.fail("off-locus form is identically zero")
        else:
            _check_off_requirement(report, off_exprs, envs, off_mode, tol, region.chart.coords)
    else:
        report.notes.append("off-locus requirement waived")

    _enforce_floors(report, locus, off_mode)
    return report


def verify_positive(
    form,
    region,
    *,
    tol=1e-9,
    seed=0,
):
    """Single-coefficient form is strictly positive on the whole region.

    The sign is exact wherever the value is; a float must be beyond tol.
    A float within tol of zero is counted under band, and a NaN or
    infinite value under non_finite; either leaves the report undecided.
    """
    report = LocusReport(kind="positive", passed=True)
    exprs = [form.comps[k] for k in sorted(form.comps)]
    if len(exprs) != 1:
        report.fail("form does not have exactly one coefficient")
        return report
    expr = exprs[0]
    envs = region_envs(region, derive_seed(seed, "positive"))
    report.on_count = len(envs)
    for env in envs:
        v = evaluate(expr, env)
        if isinstance(v, Fraction):
            ok = v > 0
        elif not math.isfinite(v):
            report.non_finite += 1
            report.undecided = True
            continue
        elif abs(v) <= tol:
            report.band_hit()
            continue
        else:
            ok = v > tol
        if not ok:
            report.add_counterexample(env, "positive sign violated", v, side="on")
    return report


def verify_rank_drop_locus(
    cmap,
    locus,
    region,
    *,
    regular_rank,
    singular_rank,
    margin=DEFAULT_MARGIN,
    seed=0,
):
    """Jacobian rank of `cmap` equals singular_rank on the locus and
    regular_rank at margin-separated off-locus samples.
    """
    report = LocusReport(kind="rank_drop_locus", passed=True)
    sampler = LocusSampler(locus, region, seed)
    report.on_count = len(sampler.on_envs)

    def rank_claim(envs, expected, label, side):
        for env in envs:
            verdict = map_rank_at(cmap, env)
            if verdict.undecided:
                report.add_counterexample(env, f"{label}: rank undecided", side=side)
                report.undecided = True
            elif verdict.rank != expected:
                report.add_counterexample(
                    env, f"{label}: rank {verdict.rank}, expected {expected}", side=side
                )

    rank_claim(sampler.on_envs, singular_rank, "on locus", "on")
    rank_claim(_off_envs(report, sampler, margin, seed), regular_rank, "off locus", "off")
    _enforce_floors(report, locus, "nonzero")
    return report


def verify_fixed_points(
    xfield,
    locus,
    region,
    *,
    via=None,
    margin=DEFAULT_MARGIN,
    tol=1e-9,
    seed=0,
):
    """The field vanishes on the locus and is bounded away from zero off
    it: squared norm > tol**2 at every off-locus sample.  A smaller norm
    is a counterexample only where the exact components are all zero;
    without exact components it is a band hit.  A band hit or a NaN or
    infinite off-locus sample leaves the check undecided.

    With `via`, the field lives on via.target while locus, region, and
    margins live on via.source; components are pulled through the map.
    """
    report = LocusReport(kind="fixed_points", passed=True)
    chart = xfield.chart if via is None else via.source
    comps = [xfield.comps.get(i, None) for i in range(xfield.chart.dim)]
    comps = [c for c in comps if c is not None]
    comps = _pull_subject(comps, via)
    if not comps:
        report.fail("field is identically zero")
        return report

    sampler = LocusSampler(locus, region, seed)
    report.on_count = len(sampler.on_envs)
    _check_on_vanishing(report, comps, sampler.on_envs, tol)

    envs = _off_envs(report, sampler, margin, seed)
    if envs:
        vals = _float_values(comps, envs, chart.coords)
        norm_sq = np.sum(vals * vals, axis=0)
        finite = _finite_samples(report, vals)
        for i in map(int, np.nonzero((norm_sq <= tol * tol) & finite)[0]):
            env = envs[i]
            exact = _exact_recheck(comps, env)
            if exact is None:
                report.band_hit()
            elif not any(exact):
                report.add_counterexample(env, "field zero off locus", 0, side="off")
    _enforce_floors(report, locus, "nonzero")
    return report


def verify_dividing_set(
    alpha,
    xfield,
    declared_scalar,
    locus,
    region,
    *,
    via=None,
    margin=DEFAULT_MARGIN,
    tol=1e-9,
    seed=0,
):
    """The pairing of a 1-form with a field cuts out the declared locus.

    Two stages: the computed scalar alpha(X) must agree symbolically
    with `declared_scalar` (an inconclusive comparison leaves the whole
    check undecided), and the declared scalar must vanish on the locus
    while staying nonzero at margin-separated off-locus samples.  An
    identically zero pairing is flagged as degenerate and fails; a
    declared-empty locus passes when the off-locus requirement holds
    everywhere sampled.  A NaN or infinite off-locus sample leaves the
    check undecided.
    """
    report = LocusReport(kind="dividing_set", passed=True)
    paired = alpha.interior(xfield)
    computed = paired.coefficient(())
    outcome = semantically_equal(computed, declared_scalar)
    if isinstance(outcome, NotEqual):
        report.fail("computed pairing disagrees with the declared scalar")
        # The witness is a tuple of (coord, value) pairs and may be absent.
        if outcome.witness is not None:
            report.add_counterexample(
                dict(outcome.witness), "scalar mismatch", outcome.values
            )
        return report
    if not isinstance(outcome, Equal):
        report.undecided = True
        report.notes.append("scalar comparison inconclusive")
    else:
        report.notes.append("computed pairing matches the declared scalar")

    if computed.is_zero:
        report.fail("pairing is identically zero; locus claim is degenerate")
        return report

    scalar = _pull_subject(declared_scalar, via)
    chart = region.chart
    sampler = LocusSampler(locus, region, seed)
    report.on_count = len(sampler.on_envs)
    _check_on_vanishing(report, [scalar], sampler.on_envs, tol)

    envs = _off_envs(report, sampler, margin, seed)
    _check_off_requirement(report, [scalar], envs, "nonzero", tol, chart.coords)
    _enforce_floors(report, locus, "nonzero")
    return report
