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
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charts import ChartMap, DForm, VectorField
from .errors import DomainError
from .pointcheck import map_rank_at
from .symexpr import (
    DEFAULT_REGISTRY,
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


def _dyadic_between(rng, lo, hi):
    k = rng.randrange(0, (1 << _DYADIC_BITS) + 1)
    if _is_rational_number(lo) and _is_rational_number(hi):
        # lo + (hi - lo) * k / 2**bits over the common denominator
        # lo.d * hi.d * 2**bits, so only the result is a Fraction.
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        return Fraction(
            (ln * hd << _DYADIC_BITS) + (hn * ld - ln * hd) * k, ld * hd << _DYADIC_BITS
        )
    return float(lo) + (float(hi) - float(lo)) * (k / float(1 << _DYADIC_BITS))


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

    def contains(self, env):
        for c, (lo, hi) in zip(self.chart.coords, self.intervals):
            v = env[c]
            if v < lo or v > hi:
                return False
        return True

    def with_random_count(self, count):
        return Region(self.chart, self.intervals, self.lattice, count)


def lattice_envs(region):
    axes = [
        _axis_lattice(lo, hi, res)
        for (lo, hi), res in zip(region.intervals, region.lattice)
    ]
    envs = [{}]
    for coord, pts in zip(region.chart.coords, axes):
        envs = [dict(e, **{coord: p}) for e in envs for p in pts]
    return envs


def random_env(region, rng):
    return {
        c: _dyadic_between(rng, lo, hi)
        for c, (lo, hi) in zip(region.chart.coords, region.intervals)
    }


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
        if not free:
            return [dict(pinned)]
        idx = {c: i for i, c in enumerate(region.chart.coords)}
        axes = [
            _axis_lattice(*region.intervals[idx[c]], region.lattice[idx[c]])
            for c in free
        ]
        envs = [dict(pinned)]
        for coord, pts in zip(free, axes):
            envs = [dict(e, **{coord: p}) for e in envs for p in pts]
        return envs
    if isinstance(locus, ImageLocus):
        rng = random.Random(derive_seed(seed, "image-locus"))
        src = lattice_envs(locus.source_region)
        src += [
            random_env(locus.source_region, rng)
            for _ in range(locus.source_region.random_count)
        ]
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


def off_locus_envs(sampler, margin, count, seed):
    """Accepted-count rejection sampling of the ambient region.

    Returns (envs, exhausted): at most `count` region samples at squared
    distance >= margin**2 from the locus; exhausted is True when the
    draw budget ran out first.
    """
    region = sampler.region
    rng = random.Random(derive_seed(seed, "off-locus"))
    margin_sq = margin * margin
    out = []
    budget = max(64, _REJECTION_CAP_FACTOR * count)
    draws = 0
    while len(out) < count and draws < budget:
        draws += 1
        env = random_env(region, rng)
        d = sampler.distance_sq(env)
        if d is None or d >= margin_sq:
            out.append(env)
    return out, len(out) < count


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
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    undecided: bool = False

    def fail(self, note=None):
        self.passed = False
        if note:
            self.notes.append(note)

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


def _float_env(envs, coords):
    return {c: np.array([float(e[c]) for e in envs]) for c in coords}


def _check_on_vanishing(report, exprs, envs, tol, registry):
    for env in envs:
        for e in exprs:
            v = evaluate(e, env, registry)
            if isinstance(v, Fraction):
                ok = v == 0
            else:
                ok = abs(v) <= tol
            if not ok:
                report.add_counterexample(env, "nonzero on locus", v, side="on")


def _exact_recheck(expr, env):
    """Exact value when both the expression and the point allow it."""
    if not expr.is_polynomial():
        return None
    if not all(_is_rational_number(v) or isinstance(v, Fraction) for v in env.values()):
        return None
    return evaluate(expr, env, None)


def _check_off_requirement(report, exprs, envs, mode, tol, registry, coords):
    """Sign or nonvanishing requirement over the off-locus population.

    Floats drive the sweep; any sample that lands inside the tolerance
    band is re-checked exactly when the expression is polynomial and the
    point rational, so a float underflow cannot manufacture a failure.
    """
    if not envs:
        return
    envf = _float_env(envs, coords)
    fns = [compile_numpy(e, registry) for e in exprs]
    vals = np.stack([np.broadcast_to(f(envf), (len(envs),)) for f in fns])
    if mode == "nonzero":
        score = np.max(np.abs(vals), axis=0)
        bad = np.nonzero(score <= tol)[0]
    elif mode == "positive":
        bad = np.nonzero(vals[0] <= tol)[0]
    elif mode == "negative":
        bad = np.nonzero(vals[0] >= -tol)[0]
    else:
        raise DomainError(f"unknown off-locus mode {mode!r}")
    for i in bad:
        env = envs[int(i)]
        rescued = False
        if len(exprs) == 1:
            exact = _exact_recheck(exprs[0], env)
            if exact is not None:
                if mode == "nonzero":
                    rescued = exact != 0
                elif mode == "positive":
                    rescued = exact > 0
                else:
                    rescued = exact < 0
                if not rescued:
                    report.add_counterexample(
                        env, f"off-locus {mode} violated", exact, side="off"
                    )
                    continue
        if not rescued:
            col = vals[:, int(i)]
            report.add_counterexample(
                env,
                f"off-locus {mode} violated",
                float(col.flat[np.argmax(np.abs(col))]),
                side="off",
            )


def _enforce_floors(report, locus, off_mode, min_on, min_off):
    if report.on_count < min_on and not isinstance(locus, EmptyLocus):
        report.fail(f"only {report.on_count} on-locus samples, need {min_on}")
    if off_mode != "none" and report.off_count < min_off:
        report.fail(f"only {report.off_count} off-locus samples, need {min_off}")


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
    registry=None,
    min_on=MIN_ON_SAMPLES,
    min_off=MIN_OFF_SAMPLES,
):
    """Every coefficient of `form` vanishes on the locus; off the locus,
    `off_form` (default: `form` itself) meets the declared requirement.

    Modes: nonzero (some coefficient exceeds tol in absolute value),
    positive / negative (single-coefficient forms only, strict sign
    beyond tol), none (off requirement waived; an identically zero form
    passes only under this waiver).

    With `via`, the forms live on via.target while locus and region live
    on via.source; coefficients are composed with the map, which tests
    vanishing at the parametrized points (not the pullback, which could
    also vanish by restriction).
    """
    registry = DEFAULT_REGISTRY if registry is None else registry
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
    _check_on_vanishing(report, on_exprs, on_envs, tol, registry)

    if off_mode != "none":
        target = form if off_form is None else off_form
        off_exprs = _pull_subject([target.comps[k] for k in sorted(target.comps)], via)
        if off_mode in ("positive", "negative") and len(off_exprs) > 1:
            raise DomainError(f"{off_mode} requires a single-coefficient form")
        count = max(min_off, region.random_count)
        envs, exhausted = off_locus_envs(sampler, margin, count, seed)
        report.off_count = len(envs)
        if exhausted:
            report.fail("rejection sampling exhausted before the requested count")
        if not off_exprs:
            for env in envs:
                report.add_counterexample(env, f"off-locus {off_mode} violated", 0, side="off")
            report.fail("off-locus form is identically zero")
        else:
            _check_off_requirement(
                report, off_exprs, envs, off_mode, tol, registry, region.chart.coords
            )
    else:
        report.notes.append("off-locus requirement waived")

    _enforce_floors(report, locus, off_mode, min_on, min_off)
    return report


def verify_positive(
    form,
    region,
    *,
    negative=False,
    tol=1e-9,
    seed=0,
    registry=None,
):
    """Single-coefficient form is strictly positive (or negative) on the
    whole region: exact sign at lattice points, float sign beyond tol at
    random points.
    """
    registry = DEFAULT_REGISTRY if registry is None else registry
    report = LocusReport(kind="positive", passed=True)
    exprs = [form.comps[k] for k in sorted(form.comps)]
    if len(exprs) != 1:
        report.fail("form does not have exactly one coefficient")
        return report
    expr = exprs[0]
    rng = random.Random(derive_seed(seed, "positive"))
    envs = lattice_envs(region)
    envs += [random_env(region, rng) for _ in range(region.random_count)]
    report.on_count = len(envs)
    mode = "negative" if negative else "positive"
    for env in envs:
        v = evaluate(expr, env, registry)
        if isinstance(v, Fraction):
            ok = v < 0 if negative else v > 0
        else:
            ok = v < -tol if negative else v > tol
        if not ok:
            report.add_counterexample(env, f"{mode} sign violated", v, side="on")
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
    min_on=MIN_ON_SAMPLES,
    min_off=MIN_OFF_SAMPLES,
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
    count = max(min_off, region.random_count)
    envs, exhausted = off_locus_envs(sampler, margin, count, seed)
    report.off_count = len(envs)
    if exhausted:
        report.fail("rejection sampling exhausted before the requested count")
    rank_claim(envs, regular_rank, "off locus", "off")
    _enforce_floors(report, locus, "nonzero", min_on, min_off)
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
    registry=None,
    min_on=MIN_ON_SAMPLES,
    min_off=MIN_OFF_SAMPLES,
):
    """The field vanishes on the locus and is bounded away from zero off
    it: squared norm > tol**2 at every off-locus sample.

    With `via`, the field lives on via.target while locus, region, and
    margins live on via.source; components are pulled through the map.
    """
    registry = DEFAULT_REGISTRY if registry is None else registry
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
    _check_on_vanishing(report, comps, sampler.on_envs, tol, registry)

    count = max(min_off, region.random_count)
    envs, exhausted = off_locus_envs(sampler, margin, count, seed)
    report.off_count = len(envs)
    if exhausted:
        report.fail("rejection sampling exhausted before the requested count")
    if envs:
        envf = _float_env(envs, chart.coords)
        vals = np.stack(
            [np.broadcast_to(compile_numpy(c, registry)(envf), (len(envs),)) for c in comps]
        )
        norm_sq = np.sum(vals * vals, axis=0)
        for i in np.nonzero(norm_sq <= tol * tol)[0]:
            report.add_counterexample(
                envs[int(i)],
                "field approximately zero off locus",
                float(norm_sq[int(i)]),
                side="off",
            )
    _enforce_floors(report, locus, "nonzero", min_on, min_off)
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
    registry=None,
    min_on=MIN_ON_SAMPLES,
    min_off=MIN_OFF_SAMPLES,
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
    registry = DEFAULT_REGISTRY if registry is None else registry
    report = LocusReport(kind="dividing_set", passed=True)
    paired = alpha.interior(xfield)
    computed = paired.coefficient(())
    outcome = semantically_equal(computed, declared_scalar, registry=registry)
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
    _check_on_vanishing(report, [scalar], sampler.on_envs, tol, registry)

    count = max(min_off, region.random_count)
    envs, exhausted = off_locus_envs(sampler, margin, count, seed)
    report.off_count = len(envs)
    if exhausted:
        report.fail("rejection sampling exhausted before the requested count")
    _check_off_requirement(report, [scalar], envs, "nonzero", tol, registry, chart.coords)
    _enforce_floors(report, locus, "nonzero", min_on, min_off)
    return report
