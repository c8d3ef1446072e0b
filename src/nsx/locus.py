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

A random draw of an interval is one of its 2**12 + 1 dyadic points:
(base + step*k) / den for a seeded k on a rational interval, where
`Region.dyadic_axes` holds (base, step, den) per axis, and the same
fraction of the way in floats on a float-bounded one.  Seeded draws read
their k values in batches from their own generator (`_DyadicStream`) and
are kept as `_DyadicPoints`.  Every sample population is a point set
(`points.PointSet`) over its chart's coordinates: the draws, a region's
lattice, a coordinate locus's lattice with its pins, a points locus, a
map's image points and a union's parts in turn.  A point reads as a
read-only view of its set, and exact values, point matrices and region
tests are computed once per set, by column.  Off-locus draws are taken
by rejection against the targets, the tuples of (coord, value) pins that
`LocusSampler.targets` measures the distance to a locus by: the margin
test is array work over a batch and over the targets of one shape, exact
in integers for rational pins on rational axes and bit for bit the float
sum of `_coord_dist_sq` otherwise.

Every sample claim is decided by `_decide` under one rule: a float
decides only outside the tolerance band, an exact value decides where
one is computed, and a float inside the band or a NaN or infinite value
decides nothing; the outcome counts such a sample under `band` or
`non_finite`, per side, and is undecided.  `vanishing_locus`,
`fixed_points` and `dividing_set` run one on/off sequence,
`_verify_locus`, in which an on-locus sample outside the region is one
counterexample and is not decided.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from operator import eq, gt, lt, ne

import numpy as np

from .errors import DomainError
from .pointcheck import map_rank_at, per_class
from .points import Column, PointSet, PointView, is_rational, points_of
from .symexpr import (
    Equal,
    NotEqual,
    _point_value,
    compile_numpy,
    ratio_float,
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
    "Outcome",
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


def _float(v):
    """float(v), or an infinity of v's sign where v is beyond the float range."""
    if isinstance(v, (int, Fraction)):
        return ratio_float(v.numerator, v.denominator)
    return float(v)


def _dyadic_axis(lo, hi):
    """The dyadic draws of [lo, hi] as (base, step, den): draw k, for k in
    0..2**bits, is (base + step*k) / den.  None when an end is a float."""
    if not (is_rational(lo) and is_rational(hi)):
        return None
    # lo + (hi - lo) * k / 2**bits over the common denominator
    # lo.d * hi.d * 2**bits, so only the result is a Fraction.
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    return ln * hd << _DYADIC_BITS, hn * ld - ln * hd, ld * hd << _DYADIC_BITS


def _dyadic_value(lo, hi, axis, k):
    """Draw k, for k in 0..2**bits, of [lo, hi], whose `_dyadic_axis` is `axis`."""
    if axis is None:
        return float(lo) + (float(hi) - float(lo)) * (k / float(1 << _DYADIC_BITS))
    base, step, den = axis
    return Fraction(base + step * k, den)


def _dyadic_between(rng, lo, hi, axis):
    """One seeded draw from [lo, hi], whose `_dyadic_axis` is `axis`."""
    return _dyadic_value(lo, hi, axis, rng.randrange(0, (1 << _DYADIC_BITS) + 1))


def _axis_lattice(lo, hi, res):
    """The res lattice points of [lo, hi] as a `Column`: lo + (hi - lo)*i/(res - 1),
    or the midpoint when res is 1, as integers over one denominator when
    both ends are rational and as floats otherwise."""
    if res < 1:
        raise DomainError("lattice resolution must be at least 1")
    if not (is_rational(lo) and is_rational(hi)):
        if res == 1:
            return Column([(float(lo) + float(hi)) / 2])
        return Column([float(lo) + (float(hi) - float(lo)) * (i / (res - 1)) for i in range(res)])
    # The midpoint is the lattice point 1 of 2 steps.
    steps, idx = (2, [1]) if res == 1 else (res - 1, range(res))
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    base, step = ln * hd * steps, hn * ld - ln * hd
    return Column([base + step * i for i in idx], ld * hd * steps)


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
            if lo > hi:
                raise DomainError(f"empty interval [{lo}, {hi}]")
        if self.random_count < 0:
            raise DomainError("random sample count must be nonnegative")

    @cached_property
    def dyadic_axes(self):
        """The `_dyadic_axis` of each interval, in coordinate order."""
        return tuple(_dyadic_axis(lo, hi) for lo, hi in self.intervals)

    def contains(self, env):
        """Whether a point lies in the region: a `PointView`, read off its
        set's `_inside`, or a plain dict, taken as a one-point set."""
        if type(env) is not PointView:
            env = points_of([env], self.chart.coords)[0]
        points = env.points
        return points.cached(self, "inside", lambda: self._inside(points))[env.index]

    def _inside(self, points):
        """contains() at every point of a set, read by column: an exact
        column against rational ends in integers, n*lo.d >= lo.n*den."""
        inside = [True] * len(points)
        for c, (lo, hi) in zip(self.chart.coords, self.intervals):
            col = points.columns[points.slots[c]]
            exact = col.exact()
            if exact is not None and is_rational(lo) and is_rational(hi):
                nums, den = exact
                lo_n, lo_d = lo.numerator * den, lo.denominator
                hi_n, hi_d = hi.numerator * den, hi.denominator
                ok = [lo_d * x >= lo_n and hi_d * x <= hi_n for x in nums]
            else:
                ok = [not (v < lo or v > hi) for v in map(col.value, range(len(points)))]
            inside = [a and b for a, b in zip(inside, ok)]
        return inside


def lattice_envs(region):
    return _lattice_product({}, region, region.chart.coords)


def _lattice_product(pinned, region, coords):
    """The point set of `pinned` extended by every combination of the
    region's lattice points on `coords`, the first coordinate varying
    slowest; its keys are the pins, then `coords`."""
    idx = {c: i for i, c in enumerate(region.chart.coords)}
    axes = [_axis_lattice(*region.intervals[idx[c]], region.lattice[idx[c]]) for c in coords]
    n = math.prod(len(axis.items) for axis in axes)
    columns = [Column([v]).tiled(n, 1) for v in pinned.values()]
    run = n  # how many points in a row share a value of the axis
    for axis in axes:
        size = len(axis.items)
        run //= size
        columns.append(axis.tiled(run, n // (run * size)))
    return PointSet((*pinned, *coords), columns, n)


def random_env(region, rng):
    """One draw, one `randrange` per coordinate: what `_DyadicPoints` reads in batches."""
    return {
        c: _dyadic_between(rng, lo, hi, axis)
        for c, (lo, hi), axis in zip(region.chart.coords, region.intervals, region.dyadic_axes)
    }


def region_envs(region, seed):
    """The region's lattice followed by its `random_count` seeded draws."""
    draws = _DyadicPoints.read(region, _DyadicStream(random.Random(seed)), region.random_count)
    return lattice_envs(region) + draws


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
    """The locus's on-locus samples as one point set; a coordinate locus's
    points read with the pins first, then the free coordinates."""
    if isinstance(locus, EmptyLocus):
        return points_of([], locus.chart.coords)
    if isinstance(locus, PointsLocus):
        return points_of(map(dict, locus.points), locus.chart.coords)
    if isinstance(locus, CoordLocus):
        pinned = locus.pinned
        if region is None:
            if len(pinned) != len(locus.chart.coords):
                raise DomainError("a partial coordinate locus needs an ambient region")
            return points_of([pinned], tuple(pinned))
        free = [c for c in locus.chart.coords if c not in pinned]
        return _lattice_product(pinned, region, free)
    if isinstance(locus, ImageLocus):
        src = region_envs(locus.source_region, derive_seed(seed, "image-locus"))
        if locus.cmap is None:
            return src
        return points_of(map(locus.cmap.apply, src), locus.chart.coords)
    if isinstance(locus, UnionLocus):
        parts = [_locus_on_envs(part, region, derive_seed(seed, "union", i)) for i, part in enumerate(locus.parts)]
        return sum(parts[1:], parts[0])
    raise DomainError(f"unknown locus flavour {type(locus).__name__}")


class LocusSampler:
    """On-locus samples and a distance oracle for one locus in one region.

    For distance, a locus is a list of targets, each a tuple of
    (coord, value) pins: a coordinate locus is one target, each cloud
    point of a points or image locus is one target pinning every chart
    coordinate, a union holds its parts' targets, and an empty locus has
    none.  The distance to the locus is the distance to the nearest target.
    A region, when given, is on the locus's chart.
    """

    def __init__(self, locus, region, seed):
        if region is not None and locus.chart != region.chart:
            raise DomainError(f"locus on chart {locus.chart.name} but region on chart {region.chart.name}")
        self.locus = locus
        self.region = region
        self.seed = seed
        self.on_envs = _locus_on_envs(locus, region, seed)

    @cached_property
    def targets(self):
        """The locus's targets, drawn on first use.  A top-level cloud is
        drawn with a seed derived from the sampler's, a union part's cloud
        with the sampler's own seed."""
        return _locus_targets(self.locus, self.region, self.seed, derive_seed(self.seed, "cloud"))

    def distance_sq(self, env):
        """Squared distance from env to the nearest target, None without
        targets; a Fraction whenever every value involved is rational."""
        return min((_coord_dist_sq(t, env) for t in self.targets), default=None)


def _locus_targets(locus, region, seed, cloud_seed):
    if isinstance(locus, EmptyLocus):
        return []
    if isinstance(locus, CoordLocus):
        return [locus.values]
    if isinstance(locus, (PointsLocus, ImageLocus)):
        coords = locus.chart.coords
        return [tuple((c, p[c]) for c in coords) for p in _locus_on_envs(locus, region, cloud_seed)]
    if isinstance(locus, UnionLocus):
        return [t for part in locus.parts for t in _locus_targets(part, region, seed, seed)]
    raise DomainError(f"unknown locus flavour {type(locus).__name__}")


def _coord_dist_sq(pins, env):
    """Sum of (env[c] - v)**2 over the (c, v) pins, in pin order from
    Fraction(0), so a float result keeps its bits."""
    total = Fraction(0)
    for c, v in pins:
        d = env[c] - v
        total = total + d * d
    return total


class _DyadicPoints(PointSet):
    """Seeded dyadic draws of a region, kept as their k indices: an
    (n_draws x n_axes) int64 array, each k in 0..2**12.

    As a point set, point i holds the values that `random_env` draws.  For
    array work an axis is read as a numpy column: on a rational axis the
    numerators base + step*k over its fixed denominator, in int64 when they
    and the denominator are below 2**53 and as Python ints otherwise; on a
    float-bounded axis the float64 draws themselves.
    """

    # An axis has 4097 draws, so two of 64 draws agree on one axis about
    # half the time and on two about once in 8000 sets: a class would save a
    # point check now and then, less than finding classes costs.
    may_repeat = False

    def __init__(self, region, ks):
        self.region, self.ks = region, ks
        self.coords = region.chart.coords
        self.n = len(ks)
        self.cache = {}

    @classmethod
    def read(cls, region, stream, n):
        """The region's next n draws from a `_DyadicStream`."""
        dim = len(region.intervals)
        return cls(region, stream.take(n * dim).reshape(n, dim))

    def _part(self, part):
        return _DyadicPoints(self.region, self.ks[part])

    @cached_property
    def columns(self):
        """The point set's columns: each rational axis's numerators over its
        denominator, each float-bounded axis's draws."""
        r = self.region
        return [
            Column(_dyadic_value(lo, hi, None, k).tolist()) if axis is None else Column(nums.tolist(), axis[2])
            for (lo, hi), axis, nums, k in zip(r.intervals, r.dyadic_axes, self.numerators, self.ks.T)
        ]

    @cached_property
    def numerators(self):
        """The numerator column of each rational axis, None for a float one."""
        return [axis and _numerator_column(axis, k) for axis, k in zip(self.region.dyadic_axes, self.ks.T)]

    @cached_property
    def floats(self):
        """The float64 column of each axis: float() of the items' values, bit for bit."""
        r = self.region
        return [
            _dyadic_value(lo, hi, None, k) if axis is None else _float_quotients(nums, axis[2])
            for (lo, hi), axis, nums, k in zip(r.intervals, r.dyadic_axes, self.numerators, self.ks.T)
        ]


def _axis_extreme(axis):
    """The largest |base + step*k| over the draws of a `_dyadic_axis`."""
    base, step, _ = axis
    return max(abs(base), abs(base + (step << _DYADIC_BITS)))


def _numerator_column(axis, k):
    base, step, den = axis
    wide = max(_axis_extreme(axis), den) >= _FLOAT_EXACT
    return base + step * (k.astype(object) if wide else k)


def _float_quotients(nums, den):
    """float(Fraction(n, d)) of every numerator n over its den d, an
    infinity of its sign past the float range; den is one int or an array
    that broadcasts against nums.  An int64 array holds numerators below
    2**53 over dens below 2**53, so the one IEEE division is correctly
    rounded, as `float(Fraction)` is; Python ints in object arrays are
    divided singly.
    """
    if nums.dtype == object:
        n, d = np.broadcast_arrays(nums, np.asarray(den, dtype=object))
        return np.array(list(map(ratio_float, n.flat, d.flat)), dtype=np.float64).reshape(n.shape)
    return nums.astype(np.float64) / den


class _DyadicStream:
    """The results of successive `rng.randrange(0, 2**12 + 1)` calls, read
    in batches.

    randrange(0, 4097) takes getrandbits(13), the top 13 bits of one 32-bit
    Mersenne-Twister word, until it is at most 4096, and getrandbits(32*w)
    returns w successive words, the first in the lowest bits.  So one call
    yields the results of many randrange calls, in order.  It also moves the
    generator past the words a batch leaves unread, which only a generator
    that nothing else reads can afford.
    """

    def __init__(self, rng):
        self.rng = rng
        self.pending = np.empty(0, dtype=np.int64)

    def take(self, n):
        while len(self.pending) < n:
            # Half the words are rejected; read a few more than twice the need.
            words = 2 * (n - len(self.pending)) + 64
            raw = self.rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            k = np.frombuffer(raw, dtype="<u4") >> (32 - _DYADIC_BITS - 1)
            self.pending = np.concatenate((self.pending, k[k <= 1 << _DYADIC_BITS].astype(np.int64)))
        out, self.pending = self.pending[:n], self.pending[n:]
        return out


def _square_bound(terms, extremes):
    """A bound on every constant and on sum(w * (n_i*q - pd)**2) over the
    (i, q, pd, w) terms, where `extremes[i]` bounds |n_i|."""
    return sum(w * ((extremes[i] + 1) * q + abs(pd)) ** 2 for i, q, pd, w in terms)


def _square_sum(axes, per_target, wide):
    """A function of a batch of draws giving sum(w * (n_i*q - pd)**2) over
    a target's (i, q, pd, w) terms, n_i a draw's numerator on axis i, per
    target and draw.  Every target of per_target has its terms on `axes`,
    in that order.  The sums are int64, or Python ints when `wide`, so
    each is exact in any order of its terms."""
    fields = np.array([[term[1:] for term in terms] for terms in per_target], dtype=object if wide else np.int64)
    q, pd, w = fields[..., None].transpose(2, 0, 1, 3)  # each (targets, axes, 1)

    def total(points):
        n = np.stack([points.numerators[i] for i in axes])  # (axes, draws)
        a = (n.astype(object) if wide else n) * q
        a -= pd
        a *= a
        a *= w
        return a.sum(1)

    return total


def _common_terms(pins, dens):
    """The squared distances to rational pins (axis, p/q) over one
    denominator: (n/den - p/q)**2 == (n*q - p*den)**2 / (den*q)**2, so
    their sum is sum(w * (n[axis]*q - p*den)**2) / common over the
    returned (axis, q, p*den, w) terms, with common = lcm((den*q)**2)."""
    sqs = [(dens[i] * v.denominator) ** 2 for i, v in pins]
    common = math.lcm(*sqs)
    return [(i, v.denominator, v.numerator * dens[i], common // sq) for (i, v), sq in zip(pins, sqs)], common


def _target_plan(pins, dens, extremes, margin):
    """(shape, values): `_coord_dist_sq(target, env) >= margin**2` for a
    target's pins, as parts of one shape and one value per part.

    Rational pins on rational axes make one part, ("int", axes, wide)
    with value (terms, threshold): one integer comparison per draw,
    sum(w * (n_i*q - pd)**2) >= threshold, over the common denominator
    lcm((den*q)**2) * margin.denominator**2.

    Any other target reproduces `_coord_dist_sq` bit for bit.  It sums
    from Fraction(0): the rational pins on rational axes before the first
    other pin sum exactly, and their sum becomes a float once, a part
    ("exact", axes, wide) with value (terms, common).  Then every other
    pin adds (x - v)**2 in floats, a part ("float", axis) with value
    float(v), and a rational pin on a rational axis adds the float of its
    exact square, an "exact" part of its own.  wide is whether the sums
    need Python ints.
    """
    is_exact = [is_rational(v) and dens[i] is not None for i, v in pins]
    if all(is_exact):
        terms, common = _common_terms(pins, dens)
        md_sq = margin.denominator**2
        terms = [(i, q, pd, w * md_sq) for i, q, pd, w in terms]
        threshold = margin.numerator**2 * common
        wide = max(_square_bound(terms, extremes), threshold) >= 1 << 63
        return (("int", tuple(i for i, _ in pins), wide),), ((terms, threshold),)
    shape, values = [], []

    def exact(rational_pins):
        terms, common = _common_terms(rational_pins, dens)
        wide = max(_square_bound(terms, extremes), common) >= _FLOAT_EXACT
        shape.append(("exact", tuple(i for i, _ in rational_pins), wide))
        values.append((terms, common))

    first = is_exact.index(False)
    if first:
        exact(pins[:first])
    for (i, v), e in zip(pins[first:], is_exact[first:]):
        if e:
            exact([(i, v)])
        else:
            shape.append(("float", i))
            values.append(_float(v))
    return tuple(shape), tuple(values)


def _column(values, dtype):
    """One value per target as a column in dtype."""
    return np.array(values, dtype=dtype)[:, None]


def _group_test(shape, values, margin):
    """The margin test of targets of one shape, `values` holding each
    target's values: a function of a batch of draws giving a bool per
    draw, whether it passes every target.  The targets are the rows of one
    (targets x draws) array: its integer sums are exact, and its every
    float element takes the operations, in the order, of its target's test
    alone, so every bit is kept.

    A float distance d compares exactly with the rational margin**2,
    which rounds to m: d > m means d > margin**2, d < m means d <
    margin**2, and the tie d == m is decided once.  When margin**2 is past
    the float range, m is inf and only d == inf passes.  A value past the
    float range is an infinity of its sign here, where `_coord_dist_sq`
    raises OverflowError, and a NaN distance passes no test.
    """
    parts = []
    for part, column in zip(shape, zip(*values)):
        if part[0] == "float":
            v = _column(column, np.float64)
            parts.append(lambda points, i=part[1], v=v: (points.floats[i] - v) ** 2)
            continue
        total = _square_sum(part[1], [terms for terms, _ in column], part[2])
        bound = _column([b for _, b in column], object if part[2] else np.int64)
        if part[0] == "int":
            return lambda points: (total(points) >= bound).all(0)
        parts.append(lambda points, total=total, common=bound: _float_quotients(total(points), common))
    margin_sq = margin * margin
    m = _float(margin_sq)
    tie_passes = m == math.inf or Fraction(m) >= margin_sq

    def passes(points):
        d = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for part in parts:
                d = d + part(points)
        ok = d >= m if tie_passes else d > m
        return ok.all(0)

    return passes


# Targets per group test.  A group's arrays hold targets x axes x draws
# elements, so with _BATCH_DRAWS this caps their size.  Uncapped, one
# 512-draw batch against 4096 targets on Python ints peaked at 327 MB,
# against 5 MB at 64, and took no less time; from 16 to 64 targets a
# group, the time per target stays within about 15%
# (BENCH_pointclasses.json, "group_cap").
_GROUP_TARGETS = 64


def _margin_test(sampler, margin):
    """`distance_sq(env) >= margin**2` over a batch of draws.

    Returns functions of a `_DyadicPoints` batch, each giving a bool per
    draw; a draw is accepted when every function passes it.  Targets are
    tested in groups: those of one shape (`_target_plan`: the same pin
    axes, the same exact pins, the same int64 or Python-int path), at most
    _GROUP_TARGETS at a time, are one `_group_test`.  A draw passes when it
    passes every target: that is the nearest target's test, and it rejects
    a draw at NaN distance from any target.  A target of rational pins on
    rational axes is decided in integers; any other reproduces the bits of
    `_coord_dist_sq`.
    """
    axes = sampler.region.dyadic_axes
    extremes = [None if axis is None else _axis_extreme(axis) for axis in axes]
    dens = [None if axis is None else axis[2] for axis in axes]
    index = {c: i for i, c in enumerate(sampler.region.chart.coords)}
    groups = {}
    for target in sampler.targets:
        shape, values = _target_plan([(index[c], v) for c, v in target], dens, extremes, margin)
        groups.setdefault(shape, []).append(values)
    return [
        _group_test(shape, group[k : k + _GROUP_TARGETS], margin)
        for shape, group in groups.items()
        for k in range(0, len(group), _GROUP_TARGETS)
    ]


_BATCH_DRAWS = 512  # draws per margin test; a cap on the arrays' size


def off_locus_envs(sampler, margin, count, seed):
    """Accepted-count rejection sampling of the ambient region.

    Returns (envs, exhausted): a `_DyadicPoints` of at most `count` region
    draws at squared distance >= margin**2 from every target of the locus;
    exhausted is True when the draw budget ran out first.  The draws are
    those `random_env` makes, in order, read in batches from one
    `_DyadicStream`, and each batch is margin-tested as a whole.
    """
    if not is_rational(margin):
        raise DomainError(f"a margin must be rational, got {margin!r}")
    region = sampler.region
    tests = _margin_test(sampler, margin)
    stream = _DyadicStream(random.Random(derive_seed(seed, "off-locus")))
    budget = max(64, _REJECTION_CAP_FACTOR * count)
    draws, kept, accepted = 0, 0, []
    while kept < count and draws < budget:
        # Enough draws for the rest at the acceptance rate seen so far.
        size = min(_BATCH_DRAWS, budget - draws, (count - kept) * (draws + 1) // (kept + 1) + 1)
        batch = _DyadicPoints.read(region, stream, size)
        ok = np.ones(size, dtype=bool)
        for passes in tests:
            ok &= passes(batch)
        accepted.append(batch.ks[np.flatnonzero(ok)[: count - kept]])
        kept += len(accepted[-1])
        draws += size
    ks = np.concatenate(accepted) if accepted else np.empty((0, len(region.intervals)), dtype=np.int64)
    return _DyadicPoints(region, ks), kept < count


# ---------------------------------------------------------------------------
# Outcomes


@dataclass
class Outcome:
    """The outcome record of a sampled check.  Samples are counted per side:
    on the locus ("on") or off it ("off"), each either failed, non-finite,
    in the band, or holding; a check without a locus counts on "on".

    `verdict` is the one verdict rule of a sampled check: undecided when
    any sample was undecided (or the check was left undecided), else pass
    unless a counterexample or a failed requirement was recorded."""

    kind: str
    passed: bool = True
    on_count: int = 0
    off_count: int = 0
    on_failures: int = 0
    off_failures: int = 0
    on_non_finite: int = 0
    off_non_finite: int = 0
    on_band: int = 0
    off_band: int = 0
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    undecided: bool = False

    @property
    def verdict(self):
        if self.undecided:
            return "undecided"
        return "pass" if self.passed else "fail"

    @property
    def non_finite(self):
        return self.on_non_finite + self.off_non_finite

    @property
    def band(self):
        return self.on_band + self.off_band

    def fail(self, note=None):
        self.passed = False
        if note:
            self.notes.append(note)

    def add_undecided(self, side, band, non_finite=0):
        """Count samples on `side` that no value decides, inside the band
        or non-finite; any such sample leaves the outcome undecided."""
        if side == "on":
            self.on_band += band
            self.on_non_finite += non_finite
        else:
            self.off_band += band
            self.off_non_finite += non_finite
        if band or non_finite:
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
    return v if isinstance(v, float) else str(v)


def _pull_subject(via, *expr_lists):
    """Each list of expressions composed with a map, each distinct
    expression once; the lists as given without a map.

    With `via`, the locus and region live on via.source and the
    expressions on via.target; composing with the map moves the whole
    check to the source chart.
    """
    if via is None:
        return expr_lists
    subst = via.substitution()
    distinct = dict.fromkeys(e for exprs in expr_lists for e in exprs)
    pulled = {e: e.subs(subst) for e in distinct}
    return [[pulled[e] for e in exprs] for exprs in expr_lists]


@dataclass(frozen=True)
class _Mode:
    """A claim on the values of a sample, one value per expression.

    An exact value (p, q), q > 0, holds when holds(p) does (0 == p, 0 != p,
    0 < p or 0 > p), and a sample's exact values are joined by `join`, all
    or any.  floats(vals, tol) takes a (values x samples) matrix of finite
    floats and gives two masks over the samples: those a float shows
    violated, and those inside the tolerance band, which a float does not
    decide.
    """

    join: object
    holds: object
    floats: object

    def settle(self, values):
        """True or False when the exact values among `values` decide the
        claim; otherwise the values as floats, for the float rule."""
        nums = [v[0] for v in values if type(v) is tuple]
        if not nums:
            return values if values else self.join(())
        got = self.join(map(self.holds, nums))
        if len(nums) == len(values) or got != self.join(()):
            return got
        return [ratio_float(*v) if type(v) is tuple else v for v in values]

    def witness(self, values):
        """The first exact value of a violated sample that does not hold."""
        return next(Fraction(*v) for v in values if type(v) is tuple and not self.holds(v[0]))


def _never(vals):
    return np.zeros(vals.shape[1], dtype=bool)


_MODES = {
    # Within tol counts as vanishing, not as a band hit: on-locus points at
    # float latitudes (S11's fourth check) never have exact values, so the
    # band rule would leave such checks undecided until rational
    # enclosures can decide them.
    "vanish": _Mode(all, partial(eq, 0), lambda v, tol: ((np.abs(v) > tol).any(0), _never(v))),
    "nonzero": _Mode(any, partial(ne, 0), lambda v, tol: (_never(v), np.abs(v).max(0) <= tol)),
    "positive": _Mode(any, partial(lt, 0), lambda v, tol: (v[0] < -tol, np.abs(v[0]) <= tol)),
    "negative": _Mode(any, partial(gt, 0), lambda v, tol: (v[0] > tol, np.abs(v[0]) <= tol)),
    "field-norm": _Mode(any, partial(ne, 0), lambda v, tol: (_never(v), (v * v).sum(0) <= tol * tol)),
}


def _point_values(exprs, envs):
    """Per point of the set envs, in order, a tuple of each expression's
    value as an exact pair (p, q), q > 0, or a float: the set's integer
    column entry where the set has one, else `_point_value` at the point."""
    columns = []
    for e in exprs:
        col = envs.column(e)
        columns.append([_point_value(e, env) for env in envs] if col is None else [(p, col[1]) for p in col[0]])
    return zip(*columns)


def _float_values(exprs, envs):
    """Float values of the expressions over a `_DyadicPoints`, one row per expression."""
    envf = dict(zip(envs.region.chart.coords, envs.floats))
    return np.stack([np.broadcast_to(compile_numpy(e)(envf), (len(envs),)) for e in exprs])


def _decide(outcome, exprs, envs, mode, tol, side, reason, screen):
    """Decide the claim `_MODES[mode]` of the expressions at every point of
    envs, and record each sample on the outcome's `side`, "on" or "off".

    Exact first (screen False): each value is read off the point's set by
    column, else computed at the point, and only the samples whose exact
    values do not decide them go to the float rule.  Float screen (screen
    True, envs a `_DyadicPoints`): every value is a numpy float, and only
    the finite samples that the floats do not show holding are evaluated
    exactly, where every expression is a polynomial and the point
    rational; no column is built.  A float inside the tolerance band counts
    under band, and a sample with a NaN or infinite value under
    non_finite; either leaves the outcome undecided.  Each violated sample
    is a counterexample, in the order of envs, whose value is its first
    exact value that does not hold, else its first float beyond tol.
    """
    rule = _MODES[mode]
    fails = []  # (index, value) per violated sample
    if screen:
        rows = range(len(envs))
        vals = _float_values(exprs, envs) if rows else None
    else:
        rows, floated = [], []
        for i, values in enumerate(_point_values(exprs, envs)):
            holds = rule.settle(values)
            if holds is False:
                fails.append((i, rule.witness(values)))
            elif holds is not True:
                rows.append(i)
                floated.append(holds)
        vals = np.array(floated, dtype=float).T
    non_finite = band = 0
    if rows:
        finite = np.isfinite(vals).all(0)
        non_finite = len(rows) - int(finite.sum())
        violated, in_band = rule.floats(vals, tol)
        for j in np.flatnonzero((violated | in_band) & finite).tolist():
            env = envs[rows[j]]
            holds = None
            if screen and all(e.is_polynomial() for e in exprs) and all(map(is_rational, env.values())):
                values = [_point_value(e, env) for e in exprs]
                holds = rule.settle(values)
            if holds is False:
                fails.append((rows[j], rule.witness(values)))
            elif holds is True:
                continue
            elif in_band[j]:
                band += 1
            else:
                fails.append((rows[j], next(float(v) for v in vals[:, j] if abs(v) > tol)))
    outcome.add_undecided(side, band, non_finite)
    for i, value in sorted(fails, key=lambda f: f[0]):
        outcome.add_counterexample(envs[i], reason, value, side=side)


def _off_envs(outcome, sampler, margin, seed):
    """Margin-separated off-locus samples of the sampler's region, counted
    on the outcome, which fails when the draw budget runs out first."""
    if sampler.region is None:
        raise DomainError("off-locus samples need a region")
    count = max(MIN_OFF_SAMPLES, sampler.region.random_count)
    envs, exhausted = off_locus_envs(sampler, margin, count, seed)
    outcome.off_count = len(envs)
    if exhausted:
        outcome.fail("rejection sampling exhausted before the requested count")
    return envs


def _enforce_floors(outcome, locus, off_mode):
    if outcome.on_count < MIN_ON_SAMPLES and not isinstance(locus, EmptyLocus):
        outcome.fail(f"only {outcome.on_count} on-locus samples, need {MIN_ON_SAMPLES}")
    if off_mode != "none" and outcome.off_count < MIN_OFF_SAMPLES:
        outcome.fail(f"only {outcome.off_count} off-locus samples, need {MIN_OFF_SAMPLES}")


def _verify_locus(outcome, on_exprs, off_exprs, off_mode, reason, locus, region, via, margin, tol, seed):
    """The on/off sequence of a locus check, recorded on the outcome.

    The locus is sampled and each sample tested against the region: a
    sample outside it is one counterexample and is not decided further.
    The expressions are pulled through `via`; `_decide` holds on_exprs to
    vanish at the other samples, exact first, and off_exprs to `off_mode`
    (`_MODES`, or "none" to waive it) at margin-separated off-locus samples
    behind the float screen, with `reason` for each violation.  No
    off-locus expression means an identically zero off-locus form, which
    fails at every off-locus sample.  Then the sample floors apply.
    """
    sampler = LocusSampler(locus, region, seed)
    on_envs = sampler.on_envs
    outcome.on_count = len(on_envs)
    if region is not None:
        outside = [e for e in on_envs if not region.contains(e)]
        for e in outside:
            outcome.add_counterexample(e, "locus sample outside region", side="on")
        if outside:
            on_envs = points_of([e for e in on_envs if region.contains(e)], on_envs.coords)
    on_exprs, off_exprs = _pull_subject(via, on_exprs, off_exprs)
    _decide(outcome, on_exprs, on_envs, "vanish", tol, "on", "nonzero on locus", screen=False)
    if off_mode != "none":
        envs = _off_envs(outcome, sampler, margin, seed)
        if off_exprs:
            _decide(outcome, off_exprs, envs, off_mode, tol, "off", reason, screen=True)
        else:
            for env in envs:
                outcome.add_counterexample(env, reason, 0, side="off")
            outcome.fail("off-locus form is identically zero")
    _enforce_floors(outcome, locus, off_mode)
    return outcome


def rank_claim(outcome, envs, check, subject, expected, label, side):
    """Hold the rank verdict `check(subject, env)`, taken by `per_class`, to
    `expected` at every point of envs, on the outcome's `side`: as in
    `_decide`, a rank of a matrix with
    a NaN or infinite entry counts under the side's non_finite, any other
    undecided rank under its band, and any other rank is a counterexample,
    "<label>: rank r, expected e".  Returns the verdicts, in the order of
    envs."""
    verdicts = list(per_class(check, subject, envs))
    for env, verdict in zip(envs, verdicts):
        if verdict.non_finite:
            outcome.add_undecided(side, 0, 1)
        elif verdict.undecided:
            outcome.add_undecided(side, 1)
        elif verdict.rank != expected:
            outcome.add_counterexample(env, f"{label}: rank {verdict.rank}, expected {expected}", side=side)
    return verdicts


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
    passes only under this waiver).  `_verify_locus` runs the on/off
    sequence.

    With `via`, the forms live on via.target while locus and region live
    on via.source; coefficients are composed with the map, which tests
    vanishing at the parametrized points (not the pullback, which could
    also vanish by restriction).
    """
    if off_mode not in ("nonzero", "positive", "negative", "none"):
        raise DomainError(f"unknown off-locus mode {off_mode!r}")
    outcome = Outcome("vanishing_locus")
    on_exprs = [form.comps[k] for k in sorted(form.comps)]
    if not on_exprs:
        outcome.notes.append("form is identically zero")
    target = form if off_form is None else off_form
    off_exprs = [target.comps[k] for k in sorted(target.comps)]
    if off_mode in ("positive", "negative") and len(off_exprs) > 1:
        raise DomainError(f"{off_mode} requires a single-coefficient form")
    if off_mode == "none":
        outcome.notes.append("off-locus requirement waived")
    reason = f"off-locus {off_mode} violated"
    return _verify_locus(outcome, on_exprs, off_exprs, off_mode, reason, locus, region, via, margin, tol, seed)


def verify_positive(
    form,
    region,
    *,
    tol=1e-9,
    seed=0,
):
    """Single-coefficient form is strictly positive on the whole region.

    The sign is exact wherever the value is; a float must be beyond tol.
    `_decide` decides every sample exact first, on the outcome's "on" side.
    """
    outcome = Outcome("positive")
    exprs = [form.comps[k] for k in sorted(form.comps)]
    if len(exprs) != 1:
        outcome.fail("form does not have exactly one coefficient")
        return outcome
    envs = region_envs(region, derive_seed(seed, "positive"))
    outcome.on_count = len(envs)
    _decide(outcome, exprs, envs, "positive", tol, "on", "positive sign violated", screen=False)
    return outcome


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
    regular_rank at margin-separated off-locus samples, by `rank_claim`.
    """
    outcome = Outcome("rank_drop_locus")
    sampler = LocusSampler(locus, region, seed)
    outcome.on_count = len(sampler.on_envs)
    rank_claim(outcome, sampler.on_envs, map_rank_at, cmap, singular_rank, "on locus", "on")
    rank_claim(outcome, _off_envs(outcome, sampler, margin, seed), map_rank_at, cmap, regular_rank, "off locus", "off")
    _enforce_floors(outcome, locus, "nonzero")
    return outcome


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
    without exact components it is a band hit (`_decide`'s field-norm).

    With `via`, the field lives on via.target while locus, region, and
    margins live on via.source; components are pulled through the map.
    """
    outcome = Outcome("fixed_points")
    comps = [xfield.comps[i] for i in sorted(xfield.comps)]
    if not comps:
        outcome.fail("field is identically zero")
        return outcome
    return _verify_locus(outcome, comps, comps, "field-norm", "field zero off locus", locus, region, via, margin, tol, seed)


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
    everywhere sampled.
    """
    outcome = Outcome("dividing_set")
    paired = alpha.interior(xfield)
    computed = paired.coefficient(())
    comparison = semantically_equal(computed, declared_scalar)
    if isinstance(comparison, NotEqual):
        outcome.fail("computed pairing disagrees with the declared scalar")
        # The witness is a tuple of (coord, value) pairs and may be absent.
        if comparison.witness is not None:
            outcome.add_counterexample(
                dict(comparison.witness), "scalar mismatch", comparison.values
            )
        return outcome
    if not isinstance(comparison, Equal):
        outcome.undecided = True
        outcome.notes.append("scalar comparison inconclusive")
    else:
        outcome.notes.append("computed pairing matches the declared scalar")

    if computed.is_zero:
        outcome.fail("pairing is identically zero; locus claim is degenerate")
        return outcome

    scalar = [declared_scalar]
    return _verify_locus(outcome, scalar, scalar, "nonzero", "off-locus nonzero violated", locus, region, via, margin, tol, seed)
