"""Differential forms, vector fields, and smooth maps on coordinate charts.

A chart is a named tuple of coordinate names, at most eight of them.  A
k-form stores a dict from strictly increasing index tuples into the
chart's coordinates to nonzero scalar expressions; everything downstream
(wedge, d, interior product, pullback, Hodge star) is bookkeeping over
those dicts with exact permutation signs.

The Hodge star supports constant symmetric positive-definite rational
metrics whose determinant is a rational square, which keeps the star
inside exact arithmetic.  Anything else raises UnsupportedMetricError
rather than quietly going numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import _linalg
from .errors import DomainError, UnsupportedMetricError
from .symexpr import Expr, _as_expr, rat, sym

MAX_DIM = 8


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart."""

    name: str
    coords: tuple

    def __post_init__(self):
        if not (1 <= len(self.coords) <= MAX_DIM):
            raise DomainError(
                f"chart {self.name} has {len(self.coords)} coordinates;"
                f" supported range is 1..{MAX_DIM}"
            )
        if len(set(self.coords)) != len(self.coords):
            raise DomainError(f"chart {self.name} repeats a coordinate name")

    @property
    def dim(self):
        return len(self.coords)

    def index(self, coord):
        try:
            return self.coords.index(coord)
        except ValueError:
            raise DomainError(f"{coord} is not a coordinate of chart {self.name}") from None

    def coord_exprs(self):
        return {c: sym(c) for c in self.coords}


def _merge_indices(left, right):
    """Concatenate two increasing index tuples with the sorting sign.

    Returns (merged, sign) or (None, 0) when an index repeats.
    """
    if set(left) & set(right):
        return None, 0
    inversions = sum(1 for i in left for j in right if j < i)
    merged = tuple(sorted(left + right))
    return merged, (-1 if inversions % 2 else 1)


class DForm:
    """A differential form of fixed degree on a chart."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart, degree, comps):
        # comps must already be canonical: strictly increasing tuples,
        # nonzero Expr values.  Use the constructors below otherwise.
        self.chart = chart
        self.degree = degree
        self.comps = comps

    @classmethod
    def build(cls, chart, degree, items):
        """Assemble a form from possibly unsorted index tuples."""
        if not (0 <= degree <= chart.dim):
            raise DomainError(
                f"degree {degree} is outside 0..{chart.dim} on chart {chart.name}"
            )
        acc = {}
        for idx, coeff in items:
            coeff = _as_expr(coeff)
            if coeff is NotImplemented:
                raise DomainError(f"bad coefficient for indices {idx}")
            idx = tuple(idx)
            if len(idx) != degree:
                raise DomainError(f"index tuple {idx} does not match degree {degree}")
            if any(not (0 <= i < chart.dim) for i in idx):
                raise DomainError(f"index tuple {idx} leaves chart {chart.name}")
            if len(set(idx)) != len(idx):
                continue
            sign = _sort_sign(idx)
            key = tuple(sorted(idx))
            cur = acc.get(key)
            add = coeff if sign > 0 else -coeff
            acc[key] = add if cur is None else cur + add
        return cls(chart, degree, {k: v for k, v in acc.items() if not v.is_zero})

    @property
    def is_zero(self):
        return not self.comps

    def coefficient(self, idx):
        from .symexpr import ZERO

        return self.comps.get(tuple(idx), ZERO)

    # -- ring structure ------------------------------------------------

    def _check_mate(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise DomainError(
                f"forms live on different charts: {self.chart.name} vs {other.chart.name}"
            )
        if self.degree != other.degree:
            raise DomainError(
                f"cannot add forms of degree {self.degree} and {other.degree}"
            )

    def __add__(self, other):
        if not isinstance(other, DForm):
            return NotImplemented
        self._check_mate(other)
        acc = dict(self.comps)
        for k, v in other.comps.items():
            cur = acc.get(k)
            acc[k] = v if cur is None else cur + v
        return DForm(self.chart, self.degree, {k: v for k, v in acc.items() if not v.is_zero})

    def __sub__(self, other):
        if not isinstance(other, DForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DForm(self.chart, self.degree, {k: -v for k, v in self.comps.items()})

    def __mul__(self, scalar):
        scalar = _as_expr(scalar)
        if scalar is NotImplemented:
            return NotImplemented
        if scalar.is_zero:
            return DForm(self.chart, self.degree, {})
        acc = {}
        for k, v in self.comps.items():
            w = v * scalar
            if not w.is_zero:
                acc[k] = w
        return DForm(self.chart, self.degree, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.chart, self.degree, tuple(sorted(self.comps.items(), key=lambda kv: kv[0]))))

    def wedge(self, other):
        if not isinstance(other, DForm):
            raise DomainError("wedge needs two forms")
        if self.chart != other.chart:
            raise DomainError(
                f"forms live on different charts: {self.chart.name} vs {other.chart.name}"
            )
        deg = self.degree + other.degree
        if deg > self.chart.dim:
            return DForm(self.chart, min(deg, self.chart.dim), {})
        acc = {}
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                merged, sign = _merge_indices(i1, i2)
                if merged is None:
                    continue
                term = c1 * c2 if sign > 0 else -(c1 * c2)
                cur = acc.get(merged)
                acc[merged] = term if cur is None else cur + term
        return DForm(self.chart, deg, {k: v for k, v in acc.items() if not v.is_zero})

    def wedge_power(self, k):
        if k < 0:
            raise DomainError("wedge powers are nonnegative")
        out = function_form(self.chart, rat(1))
        for _ in range(k):
            out = out.wedge(self)
        return out

    # -- calculus ------------------------------------------------------

    def d(self):
        """Exterior derivative."""
        acc = {}
        for idx, coeff in self.comps.items():
            for v in range(self.chart.dim):
                if v in idx:
                    continue
                dc = coeff.diff(self.chart.coords[v])
                if dc.is_zero:
                    continue
                merged, sign = _merge_indices((v,), idx)
                term = dc if sign > 0 else -dc
                cur = acc.get(merged)
                acc[merged] = term if cur is None else cur + term
        # d of a top form is identically zero; clamp the degree the same
        # way wedge does so the result stays a legal form.
        deg = min(self.degree + 1, self.chart.dim)
        return DForm(self.chart, deg, {k: v for k, v in acc.items() if not v.is_zero})

    def interior(self, field):
        """Interior product with a vector field (contraction in slot one)."""
        if field.chart != self.chart:
            raise DomainError("vector field and form live on different charts")
        if self.degree == 0:
            return DForm(self.chart, 0, {})
        acc = {}
        for idx, coeff in self.comps.items():
            for pos, i in enumerate(idx):
                comp = field.comps.get(i)
                if comp is None:
                    continue
                rest = idx[:pos] + idx[pos + 1 :]
                term = comp * coeff
                if pos % 2:
                    term = -term
                cur = acc.get(rest)
                acc[rest] = term if cur is None else cur + term
        return DForm(self.chart, self.degree - 1, {k: v for k, v in acc.items() if not v.is_zero})

    def top_coefficient(self):
        if self.degree != self.chart.dim:
            raise DomainError("top_coefficient needs a top-degree form")
        return self.coefficient(tuple(range(self.chart.dim)))

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            coeff = self.comps[idx]
            basis = "/\\".join("d" + self.chart.coords[i] for i in idx)
            c = str(coeff)
            if len(coeff.terms) > 1:
                c = f"({c})"
            parts.append(c if not idx else (f"{c}*{basis}" if c != "1" else basis))
        return " + ".join(parts)

    def __repr__(self):
        return f"DForm[{self.chart.name}, deg {self.degree}]({self})"


def _sort_sign(idx):
    inversions = sum(
        1 for a in range(len(idx)) for b in range(a + 1, len(idx)) if idx[a] > idx[b]
    )
    return -1 if inversions % 2 else 1


def zero_form(chart, degree):
    return DForm(chart, degree, {})

def function_form(chart, expr):
    expr = _as_expr(expr)
    return DForm(chart, 0, {} if expr.is_zero else {(): expr})

def coord_differential(chart, coord):
    """The 1-form d<coord>."""
    from .symexpr import ONE

    return DForm(chart, 1, {(chart.index(coord),): ONE})


class VectorField:
    """A vector field as components against the coordinate frame."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart, comps):
        self.chart = chart
        self.comps = {i: c for i, c in comps.items() if not c.is_zero}

    @classmethod
    def build(cls, chart, items):
        acc = {}
        for coord, coeff in items:
            coeff = _as_expr(coeff)
            i = chart.index(coord) if isinstance(coord, str) else coord
            acc[i] = acc.get(i, rat(0)) + coeff
        return cls(chart, acc)

    def __add__(self, other):
        if not isinstance(other, VectorField) or other.chart != self.chart:
            return NotImplemented
        acc = dict(self.comps)
        for i, c in other.comps.items():
            acc[i] = acc.get(i, rat(0)) + c
        return VectorField(self.chart, acc)

    def __neg__(self):
        return VectorField(self.chart, {i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        scalar = _as_expr(scalar)
        if scalar is NotImplemented:
            return NotImplemented
        return VectorField(self.chart, {i: c * scalar for i, c in self.comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.comps == other.comps

    def apply_to(self, expr):
        """Directional derivative of a scalar."""
        out = rat(0)
        for i, c in self.comps.items():
            out = out + c * expr.diff(self.chart.coords[i])
        return out

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for i in sorted(self.comps):
            c = str(self.comps[i])
            if len(self.comps[i].terms) > 1:
                c = f"({c})"
            head = "" if c == "1" else f"{c}*"
            parts.append(f"{head}e({self.chart.coords[i]})")
        return " + ".join(parts)


@dataclass(frozen=True)
class ChartMap:
    """A smooth map between charts, one scalar expression per target coordinate."""

    name: str
    source: Chart
    target: Chart
    comps: tuple

    def __post_init__(self):
        if len(self.comps) != self.target.dim:
            raise DomainError(
                f"map {self.name} needs {self.target.dim} component expressions,"
                f" got {len(self.comps)}"
            )
        for c in self.comps:
            extra = c.free_coords() - set(self.source.coords)
            if extra:
                raise DomainError(
                    f"map {self.name} component mentions {sorted(extra)} outside"
                    f" source chart {self.source.name}"
                )

    def substitution(self):
        return dict(zip(self.target.coords, self.comps))

    def jacobian(self):
        """Rows indexed by target component, columns by source coordinate."""
        return self._jacobian

    @cached_property
    def _jacobian(self):
        # Differentiated once per map; tuples, since every caller shares them.
        return tuple(
            tuple(comp.diff(s) for s in self.source.coords) for comp in self.comps
        )

    def pullback(self, form):
        """Pull a form on the target chart back to the source chart."""
        if form.chart != self.target:
            raise DomainError(
                f"map {self.name} pulls back forms on {self.target.name},"
                f" got one on {form.chart.name}"
            )
        subs = self.substitution()
        # An overweight pullback is identically zero; clamp the degree the
        # same way wedge does so the accumulator matches the pieces.
        out = zero_form(self.source, min(form.degree, self.source.dim))
        differentials = [
            DForm(
                self.source,
                1,
                {
                    (j,): d
                    for j, s in enumerate(self.source.coords)
                    if not (d := comp.diff(s)).is_zero
                },
            )
            for comp in self.comps
        ]
        for idx, coeff in form.comps.items():
            piece = function_form(self.source, coeff.subs(subs))
            for i in idx:
                piece = piece.wedge(differentials[i])
            out = out + piece
        return out

    def then(self, other):
        """Composition: self followed by other."""
        if other.source != self.target:
            raise DomainError(
                f"cannot compose {self.name} (into {self.target.name})"
                f" with {other.name} (from {other.source.name})"
            )
        subs = self.substitution()
        comps = tuple(c.subs(subs) for c in other.comps)
        return ChartMap(f"{other.name}.{self.name}", self.source, other.target, comps)

    def apply(self, env, registry=None):
        """Numeric image of a point given as an env over source coords."""
        return {
            t: comp.eval(env, registry)
            for t, comp in zip(self.target.coords, self.comps)
        }


class Metric:
    """Constant symmetric positive-definite rational metric on a chart.

    The Hodge star needs sqrt(det g) to stay rational, so determinants
    that are not rational squares are rejected up front.
    """

    __slots__ = ("chart", "rows", "inverse", "sqrt_det")

    def __init__(self, chart, rows):
        n = chart.dim
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise UnsupportedMetricError(
                f"metric on {chart.name} must be {n}x{n}"
            )
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise UnsupportedMetricError("metric must be symmetric")
        if _linalg.inertia(rows) != (n, 0, 0):
            raise UnsupportedMetricError("metric must be positive definite")
        det = _linalg.exact_det(rows)
        root = _rational_sqrt(det)
        if root is None:
            raise UnsupportedMetricError(
                f"det g = {det} is not a rational square; the star would leave"
                " exact arithmetic"
            )
        self.chart = chart
        self.rows = rows
        self.inverse = [row[:] for row in _linalg.exact_inverse(rows)]
        self.sqrt_det = root

    @classmethod
    def euclidean(cls, chart):
        n = chart.dim
        return cls(chart, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, chart, entries):
        n = chart.dim
        entries = [Fraction(e) for e in entries]
        if len(entries) != n:
            raise UnsupportedMetricError(f"need {n} diagonal entries")
        return cls(
            chart,
            [[entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)],
        )

    def star(self, form):
        """Hodge star against this metric.

        For an increasing I and the output candidate J, the coefficient
        is eps(Jc, J) * sqrt(det g) * det(inverse[Jc rows, I columns]),
        which reduces to the complement-with-sign rule when g is the
        identity.
        """
        if form.chart != self.chart:
            raise DomainError("form and metric live on different charts")
        n = self.chart.dim
        k = form.degree
        acc = {}
        for jj in combinations(range(n), n - k):
            jc = tuple(i for i in range(n) if i not in jj)
            _, eps = _merge_indices(jc, jj)
            for idx, coeff in form.comps.items():
                minor = [[self.inverse[r][c] for c in idx] for r in jc]
                scal = _linalg.exact_det(minor) * self.sqrt_det * eps
                if scal == 0:
                    continue
                term = coeff * rat(scal)
                cur = acc.get(jj)
                acc[jj] = term if cur is None else cur + term
        return DForm(self.chart, n - k, {k2: v for k2, v in acc.items() if not v.is_zero})

    def volume_form(self):
        from .symexpr import ONE

        return DForm(self.chart, self.chart.dim, {tuple(range(self.chart.dim)): ONE * rat(self.sqrt_det)})


def _rational_sqrt(q):
    from math import isqrt

    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
