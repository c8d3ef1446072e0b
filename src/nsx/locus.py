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
`LocusSampler.targets` measures the distance to a locus by.  The exact
squared distance `_coord_dist_sq` defines the margin test, and a float
filter decides it over a batch as array work, over the targets that pin
the same axes at once: a float distance decides only outside a proven
error bound, and every other (target, draw) pair falls back to the exact
distance (`_margin_test`).

Every sample claim is decided by `_decide` under one rule: a float
decides only outside the tolerance band, an exact value decides where
one is computed, and a float inside the band or a NaN or infinite value
decides nothing; the outcome counts such a sample under `band` or
`non_finite`, per side, and is undecided.  `vanishing_locus`,
`fixed_points` and `dividing_set` run one on/off sequence,
`_verify_locus`, in which an on-locus sample outside the region is one
counterexample and is not decided; `rank_drop_locus` shares that rule
for its on-locus samples (`_on_envs`) and holds its Jacobian ranks
through `pointcheck.rank_claim`.  Every check records on one
`pointcheck.Outcome`, whose `verdict` is the check's.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from functools import cached_property, partial
from operator import eq, gt, lt, ne

import numpy as np

from .errors import DomainError
from .pointcheck import Outcome, map_rank_at, rank_claim
from .points import Column, PointSet, PointView, is_rational, points_of
from .records import FrozenRecord
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


class Region(FrozenRecord):
    """Product of closed coordinate intervals with sampling parameters:
    one (lo, hi) interval and one lattice resolution per chart coordinate,
    and a count of random draws."""

    _fields = ("chart", "intervals", "lattice", "random_count")

    def __init__(self, chart, intervals, lattice, random_count):
        n = chart.dim
        if len(intervals) != n:
            raise DomainError(f"region needs {n} intervals, got {len(intervals)}")
        if len(lattice) != n:
            raise DomainError(f"region needs {n} lattice resolutions")
        for lo, hi in intervals:
            if lo > hi:
                raise DomainError(f"empty interval [{lo}, {hi}]")
        if random_count < 0:
            raise DomainError("random sample count must be nonnegative")
        vars(self).update(chart=chart, intervals=intervals, lattice=lattice, random_count=random_count)

    @cached_property
    def reach(self):
        """Per axis, a float at least |x| and |float(x)| at every draw x of
        its interval: the larger |end| as a float, widened by 2**-50, which
        covers the rounding of a rational end and the draws of a
        float-bounded interval, computed in floats."""
        return [max(abs(_float(lo)), abs(_float(hi))) * (1 + 2.0**-50) for lo, hi in self.intervals]

    @cached_property
    def dyadic_axes(self):
        """The `_dyadic_axis` of each interval, in coordinate order."""
        return tuple(_dyadic_axis(lo, hi) for lo, hi in self.intervals)

    def contains(self, env):
        """Whether a point lies in the region: a `PointView`, read off its
        set's `inside`, or a plain dict, taken as a one-point set."""
        if type(env) is not PointView:
            env = points_of([env], self.chart.coords)[0]
        return self.inside(env.points)[env.index]

    def inside(self, points):
        """contains() at every point of a set, computed once per set."""
        return points.cached(self, "inside", lambda: self._inside(points))

    def _inside(self, points):
        """`inside`, read by column: an exact column against rational ends
        in integers, n*lo.d >= lo.n*den, at its least and greatest
        numerators first, and at every point only when those fall outside."""
        inside = [True] * len(points)
        for c, (lo, hi), axis in zip(self.chart.coords, self.intervals, self.dyadic_axes):
            col = points.columns[points.slots[c]]
            exact = None if axis is None else col.exact()
            if exact is not None:
                nums, den = exact
                lo_n, lo_d = lo.numerator * den, lo.denominator
                hi_n, hi_d = hi.numerator * den, hi.denominator
                if not nums or (lo_d * min(nums) >= lo_n and hi_d * max(nums) <= hi_n):
                    continue
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


class CoordLocus(FrozenRecord):
    """Coordinates pinned to rational values, ((coord, Fraction), ...), the
    rest free."""

    _fields = ("chart", "values")

    def __init__(self, chart, values):
        for c, v in values:
            if c not in chart.coords:
                raise DomainError(f"unknown coordinate {c!r}")
        if not values:
            raise DomainError("a coordinate locus must pin at least one coordinate")
        vars(self).update(chart=chart, values=values)

    @property
    def pinned(self):
        return dict(self.values)


class PointsLocus(FrozenRecord):
    """An explicit finite set of points, each a tuple ((coord, value), ...)."""

    _fields = ("chart", "points")

    def __init__(self, chart, points):
        vars(self).update(chart=chart, points=points)


class ImageLocus(FrozenRecord):
    """The image of a region under a chart map (identity if cmap is None).

    The locus is known only through its sample cloud; distances are
    measured against that cloud.
    """

    _fields = ("cmap", "source_region")

    def __init__(self, cmap, source_region):
        vars(self).update(cmap=cmap, source_region=source_region)

    @property
    def chart(self):
        if self.cmap is None:
            return self.source_region.chart
        return self.cmap.target


class UnionLocus(FrozenRecord):
    _fields = ("parts",)

    def __init__(self, parts):
        if len({p.chart for p in parts}) != 1:
            raise DomainError("union locus parts must share a chart")
        vars(self).update(parts=parts)

    @property
    def chart(self):
        return self.parts[0].chart


class EmptyLocus(FrozenRecord):
    """A locus declared to be empty; waives the on-sample floor."""

    _fields = ("chart",)

    def __init__(self, chart):
        vars(self).update(chart=chart)


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
        """Squared distance from env to the nearest target by
        `_coord_dist_sq`, None without targets: a Fraction wherever every
        value involved is finite."""
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
    """Sum of (env[c] - v)**2 over the (c, v) pins, the one exact
    definition of the distance to a target: every finite value reads as
    the rational it is, so the sum is a Fraction.  A term holding a NaN or
    an infinity is taken in floats, with a finite value beside an infinity
    read as 0, so a NaN (or inf - inf) makes the distance NaN and, failing
    that, an infinity makes it inf."""
    exact, other = Fraction(0), 0.0
    for c, v in pins:
        x = env[c]
        if _finite(x) and _finite(v):
            d = Fraction(x) - Fraction(v)
            exact += d * d
        else:
            other += ((0.0 if _finite(x) else x) - (0.0 if _finite(v) else v)) ** 2
    return exact if other == 0 else other


def _finite(v):
    return not isinstance(v, float) or math.isfinite(v)


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
        self.float_columns = {}

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

    @property
    def floats(self):
        """The float64 column of each axis, by `axis_floats`."""
        return list(map(self.axis_floats, range(len(self.coords))))

    def axis_floats(self, i):
        """The float64 column of axis i: float() of the items' values, bit
        for bit.  Computed once per axis and kept in `float_columns`."""
        col = self.float_columns.get(i)
        if col is None:
            (lo, hi), axis, k = self.region.intervals[i], self.region.dyadic_axes[i], self.ks[:, i]
            if axis is None:
                col = _dyadic_value(lo, hi, None, k)
            else:
                col = _float_quotients(_numerator_column(axis, k), axis[2])
            self.float_columns[i] = col
        return col


def _axis_extreme(axis):
    """The largest |base + step*k| over the draws of a `_dyadic_axis`."""
    base, step, _ = axis
    return max(abs(base), abs(base + (step << _DYADIC_BITS)))


def _numerator_column(axis, k):
    base, step, den = axis
    wide = max(_axis_extreme(axis), den) >= _FLOAT_EXACT
    return base + step * (k.astype(object) if wide else k)


def _float_quotients(nums, den):
    """float(Fraction(n, den)) of every numerator n, an infinity of its
    sign past the float range.  An int64 array holds numerators below
    2**53 over a den below 2**53, so the one IEEE division is correctly
    rounded, as `float(Fraction)` is; Python ints in object arrays are
    divided singly.
    """
    if nums.dtype == object:
        return np.array([ratio_float(n, den) for n in nums.tolist()], dtype=np.float64)
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


# Targets per group.  A group's float arrays hold targets x draws
# elements, so with _BATCH_DRAWS this caps their size.  One 512-draw batch
# against 4096 rational points (2 axes, on a 2-vCPU Xeon VM) took 10.7 ms
# and peaked at 1.0 MB in groups of 64, 14.3 ms in groups of 16, and
# 23.5 ms and 33.9 MB in one group; from 32 to 128 targets a group the
# time stays within about 15%.
_GROUP_TARGETS = 64


def _margin_test(sampler, margin):
    """`distance_sq(env) >= margin**2` over a batch of draws, as a float
    filter with an exact fallback.

    Returns functions `passes(points, ok)` of a `_DyadicPoints` batch and a
    bool per draw, each of which clears ok at the draws it rejects; a draw
    passes when it passes every target.  Targets are grouped by their pin
    axes, at most _GROUP_TARGETS to a group, and a group's float squared
    distances over `_DyadicPoints.floats` are one (targets x draws) array.

    The float distance decides a (target, draw) pair only outside a proven
    error bound (a floating-point filter, as in Shewchuk, Discrete Comput.
    Geom. 18, 1997).  For a target of k pins, let D be the exact squared
    distance of a draw and D~ the float sum, from 0.0, of fl(fl(x~ - v~)**2)
    over the pins, x~ = float(x) of the draw's value x and v~ = float(v) of
    the pin v.  With u = 2**-53 and eta = 2**-1074, a rounding turns w into
    w*(1 + d) + e, |d| <= u and |e| <= eta, where e is nonzero only below
    the normal range and never for a sum or a difference.  Per pin let
    R = reach + |v~|, reach the axis's `Region.reach`, which bounds |x| and
    |x~|; as |v| <= (1 + u)*|v~| + eta, x~ - v~ is within about u*R + 2*eta
    of x - v.  The difference and the square add one relative rounding
    each and the k - 1 sums one each, so (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3)

        |D~ - D| <= gamma(k + 8) * sum(R**2) + 7*k*eta,

    gamma(n) = n*u / (1 - n*u), with the eta*R cross terms folded into
    u*R**2 + eta.  m = float(margin**2) is within u*m + eta of margin**2.
    The test widens the bound to

        tol = (k + 8) * 2**-51 * S + 2**-50 * m + k * 2**-1060,

    S the float sum of R**2: more than twice the bound, which covers the
    error of m and the roundings of S, tol and m +- tol.  A draw with
    D~ > m + tol is then at D > margin**2, and one with D~ < m - tol at
    D < margin**2.  Every other pair is decided by `_coord_dist_sq`, the
    one exact definition: a tie with the margin, a NaN distance (which
    rejects the draw), and every pair where a value, m or m + tol is past
    the float range, where the bound does not hold.  An infinite pin gives
    D~ = inf, which passes, as the exact distance does, unless it meets an
    infinite draw.
    """
    index = {c: i for i, c in enumerate(sampler.region.chart.coords)}
    reach = sampler.region.reach
    margin_sq = margin * margin
    m = _float(margin_sq)
    groups = {}
    for target in sampler.targets:
        groups.setdefault(tuple(index[c] for c, _ in target), []).append(target)
    tests = []
    for axes, targets in groups.items():
        k = len(axes)
        for start in range(0, len(targets), _GROUP_TARGETS):
            part = targets[start : start + _GROUP_TARGETS]
            pins = [[_float(v) for _, v in t] for t in part]
            lo, hi = [], []
            for vs in pins:
                # Python floats: past the float range inf or NaN, never an error.
                r = [reach[i] + abs(v) for i, v in zip(axes, vs)]
                tol = (k + 8) * 2.0**-51 * sum(x * x for x in r) + 2.0**-50 * m + k * 2.0**-1060
                hi.append(m + tol)
                lo.append(m - tol if math.isfinite(m + tol) else -math.inf)
            cols = list(np.array(pins, dtype=np.float64).T[:, :, None])
            tests.append(partial(_filter, axes, part, cols, np.array(lo)[:, None], np.array(hi)[:, None], margin_sq))
    return tests


def _filter(axes, targets, pins, lo, hi, margin_sq, points, ok):
    """One group's test of `_margin_test` over the batch `points`: clears
    ok at every draw that a target rejects.  `pins` holds a (targets x 1)
    float column per axis of `axes`, and lo and hi the targets' m -+ tol.
    The caller ignores numpy's overflow and invalid warnings, since a
    distance past the float range is inf or NaN by design."""
    d = sum((points.axis_floats(i) - v) ** 2 for i, v in zip(axes, pins))
    ok &= ~(d < lo).any(0)
    unsure = ~(d > hi) & ok
    if unsure.any():
        for i in np.flatnonzero(unsure.any(0)).tolist():
            env = points[i]
            ok[i] = all(_coord_dist_sq(targets[t], env) >= margin_sq for t in np.flatnonzero(unsure[:, i]).tolist())


_BATCH_DRAWS = 512  # draws per margin test; a cap on the arrays' size


def off_locus_envs(sampler, margin, count, seed):
    """Accepted-count rejection sampling of the ambient region.

    Returns (envs, exhausted): a `_DyadicPoints` of at most `count` region
    draws at squared distance >= margin**2 from every target of the locus;
    exhausted is True when the draw budget ran out first.  The draws are
    those `random_env` makes, in order, read in batches from one
    `_DyadicStream`, and each batch is margin-tested as a whole; the float
    columns the test reads are kept for the accepted draws.
    """
    if not is_rational(margin):
        raise DomainError(f"a margin must be rational, got {margin!r}")
    region = sampler.region
    tests = _margin_test(sampler, margin)
    stream = _DyadicStream(random.Random(derive_seed(seed, "off-locus")))
    budget = max(64, _REJECTION_CAP_FACTOR * count)
    draws, kept, accepted, floats = 0, 0, [], []
    with np.errstate(over="ignore", invalid="ignore"):
        while kept < count and draws < budget:
            # Enough draws for the rest at the acceptance rate seen so far.
            size = min(_BATCH_DRAWS, budget - draws, (count - kept) * (draws + 1) // (kept + 1) + 1)
            batch = _DyadicPoints.read(region, stream, size)
            ok = np.ones(size, dtype=bool)
            for passes in tests:
                passes(batch, ok)
            rows = np.flatnonzero(ok)[: count - kept]
            accepted.append(batch.ks[rows])
            floats.append({i: col[rows] for i, col in batch.float_columns.items()})
            kept += len(rows)
            draws += size
    ks = np.concatenate(accepted) if accepted else np.empty((0, len(region.intervals)), dtype=np.int64)
    points = _DyadicPoints(region, ks)
    if floats:
        points.float_columns = {i: np.concatenate([f[i] for f in floats]) for i in floats[0]}
    return points, kept < count


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


class _Mode(FrozenRecord):
    """A claim on the values of a sample, one value per expression.

    An exact value (p, q), q > 0, holds when holds(p) does (0 == p, 0 != p,
    0 < p or 0 > p), and a sample's exact values are joined by `join`, all
    or any.  floats(vals, tol) takes a (values x samples) matrix of finite
    floats and gives two masks over the samples: those a float shows
    violated, and those inside the tolerance band, which a float does not
    decide.
    """

    _fields = ("join", "holds", "floats")

    def __init__(self, join, holds, floats):
        vars(self).update(join=join, holds=holds, floats=floats)

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
    """Float values of the expressions over a `_DyadicPoints`, one row per
    expression; past the float range inf or NaN, which `_decide` counts."""
    envf = dict(zip(envs.region.chart.coords, envs.floats))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):  # only finite samples are read
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


def _on_envs(outcome, sampler):
    """The sampler's on-locus samples inside its region, all of them
    counted on the outcome: a sample outside the region is one
    counterexample and is not decided further."""
    on_envs = sampler.on_envs
    outcome.on_count = len(on_envs)
    inside = [True] if sampler.region is None else sampler.region.inside(on_envs)
    if not all(inside):
        for e, ok in zip(on_envs, inside):
            if not ok:
                outcome.add_counterexample(e, "locus sample outside region", side="on")
        on_envs = points_of([e for e, ok in zip(on_envs, inside) if ok], on_envs.coords)
    return on_envs


def _enforce_floors(outcome, locus, off_mode):
    if outcome.on_count < MIN_ON_SAMPLES and not isinstance(locus, EmptyLocus):
        outcome.fail(f"only {outcome.on_count} on-locus samples, need {MIN_ON_SAMPLES}")
    if off_mode != "none" and outcome.off_count < MIN_OFF_SAMPLES:
        outcome.fail(f"only {outcome.off_count} off-locus samples, need {MIN_OFF_SAMPLES}")


def _verify_locus(outcome, on_exprs, off_exprs, off_mode, reason, locus, region, via, margin, tol, seed):
    """The on/off sequence of a locus check, recorded on the outcome.

    The locus is sampled and each sample tested against the region: a
    sample outside it is one counterexample and is not decided further
    (`_on_envs`).  The expressions are pulled through `via`; `_decide` holds on_exprs to
    vanish at the other samples, exact first, and off_exprs to `off_mode`
    (`_MODES`, or "none" to waive it) at margin-separated off-locus samples
    behind the float screen, with `reason` for each violation.  No
    off-locus expression means an identically zero off-locus form, which
    fails at every off-locus sample.  Then the sample floors apply.
    """
    sampler = LocusSampler(locus, region, seed)
    on_exprs, off_exprs = _pull_subject(via, on_exprs, off_exprs)
    _decide(outcome, on_exprs, _on_envs(outcome, sampler), "vanish", tol, "on", "nonzero on locus", screen=False)
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
    regular_rank at margin-separated off-locus samples, by `rank_claim`;
    an on-locus sample outside the region is one counterexample and is not
    decided (`_on_envs`).
    """
    outcome = Outcome("rank_drop_locus")
    sampler = LocusSampler(locus, region, seed)
    rank_claim(outcome, _on_envs(outcome, sampler), map_rank_at, cmap, singular_rank, "on locus", "on")
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
    comparison = semantically_equal(computed, declared_scalar, seed=seed, tol=tol)
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
