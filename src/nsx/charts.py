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

from fractions import Fraction
from functools import cached_property, lru_cache

from . import _linalg
from .errors import DomainError, UnsupportedMetricError
from .records import FrozenRecord
from .symexpr import ONE, ZERO, _as_expr, _sum, rat

MAX_DIM = 8

# Bound of the memoized index merges; the built-in suite makes ~1.2k.
_MERGE_CACHE = 4096


class Chart(FrozenRecord):
    """A named coordinate chart."""

    _fields = ("name", "coords")

    def __init__(self, name, coords):
        if not (1 <= len(coords) <= MAX_DIM):
            raise DomainError(
                f"chart {name} has {len(coords)} coordinates;"
                f" supported range is 1..{MAX_DIM}"
            )
        if len(set(coords)) != len(coords):
            raise DomainError(f"chart {name} repeats a coordinate name")
        vars(self).update(name=name, coords=coords)

    # Written out: every wedge and sum compares its operands' charts.
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.coords == other.coords

    def __hash__(self):
        return hash((self.name, self.coords))

    @cached_property
    def dim(self):
        return len(self.coords)

    def index(self, coord):
        try:
            return self.coords.index(coord)
        except ValueError:
            raise DomainError(f"{coord} is not a coordinate of chart {self.name}") from None


@lru_cache(maxsize=_MERGE_CACHE)
def _merge_indices(left, right):
    """Concatenate two increasing index tuples with the sorting sign.

    Returns (merged, sign) or (None, 0) when an index repeats.  The result
    depends only on the two tuples, so it is memoized.
    """
    if set(left) & set(right):
        return None, 0
    inversions = sum(1 for i in left for j in right if j < i)
    merged = tuple(sorted(left + right))
    return merged, (-1 if inversions % 2 else 1)


def _sum_by_key(items):
    """Sum the Expr contributions of (key, Expr) pairs per key, each key
    once, and drop the zero sums.  A sum sees all of its contributions
    together, so it depends only on their multiset, not on their order;
    a key's lone contribution is its sum."""
    sums = {}
    shared = {}
    for key, coeff in items:
        first = sums.get(key)
        if first is None:
            sums[key] = coeff
        elif key in shared:
            shared[key].append(coeff)
        else:
            shared[key] = [first, coeff]
    for key, cs in shared.items():
        sums[key] = _sum(cs)
    return {key: v for key, v in sums.items() if v.terms}


class DForm:
    """A differential form of fixed degree on a chart.

    Every operation that builds a form sums each coefficient once over all
    of its contributions, so the result does not depend on the order in
    which they are visited.  Separate Expr `+` calls stay order-dependent.
    """

    __slots__ = ("chart", "degree", "comps", "_partials", "_powers")

    def __init__(self, chart, degree, comps):
        # comps must already be canonical: strictly increasing tuples,
        # nonzero Expr values.  Use the constructors below otherwise.
        self.chart = chart
        self.degree = degree
        self.comps = comps
        # Derived forms, built on first use; a form is never mutated.
        self._partials = None
        self._powers = None

    @classmethod
    def build(cls, chart, degree, items):
        """Assemble a form from possibly unsorted index tuples."""
        if not (0 <= degree <= chart.dim):
            raise DomainError(
                f"degree {degree} is outside 0..{chart.dim} on chart {chart.name}"
            )
        terms = []
        for idx, coeff in items:
            coeff = _as_expr(coeff)
            if coeff is NotImplemented:
                raise DomainError(f"bad coefficient for indices {idx}")
            idx = tuple(idx)
            if len(idx) != degree:
                raise DomainError(f"index tuple {idx} does not match degree {degree}")
            if any(not (0 <= i < chart.dim) for i in idx):
                raise DomainError(f"index tuple {idx} leaves chart {chart.name}")
            if len(set(idx)) == len(idx):
                terms.append((tuple(sorted(idx)), coeff if _sort_sign(idx) > 0 else -coeff))
        return cls(chart, degree, _sum_by_key(terms))

    @property
    def is_zero(self):
        return not self.comps

    def coefficient(self, idx):
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
        items = [*self.comps.items(), *other.comps.items()]
        return DForm(self.chart, self.degree, _sum_by_key(items))

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
        if self.chart is not other.chart and self.chart != other.chart:
            raise DomainError(
                f"forms live on different charts: {self.chart.name} vs {other.chart.name}"
            )
        deg = self.degree + other.degree
        if deg > self.chart.dim:
            return DForm(self.chart, min(deg, self.chart.dim), {})
        terms = []
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                merged, sign = _merge_indices(i1, i2)
                if merged is not None:
                    terms.append((merged, c1 * c2 if sign > 0 else -(c1 * c2)))
        return DForm(self.chart, deg, _sum_by_key(terms))

    def wedge_power(self, k):
        """The k-fold wedge of the form with itself, built once per form
        and k.  The first power is the form itself.  For an even degree of
        at least 2, the square sums each unordered pair of components once
        (`_square`); every further factor, and every factor of a 0-form or
        of an odd degree, is wedged on one at a time."""
        if k < 0:
            raise DomainError("wedge powers are nonnegative")
        if k == 1:
            return self
        if self._powers is None:
            self._powers = {}
        out = self._powers.get(k)
        if out is None:
            if k == 0:
                out = function_form(self.chart, rat(1))
            elif k == 2 and self.degree and self.degree % 2 == 0:
                out = self._square()
            else:
                out = self.wedge_power(k - 1).wedge(self)
            self._powers[k] = out
        return out

    def _square(self):
        # For an even degree dx_I /\ dx_J = dx_J /\ dx_I, so the pairs
        # (I, J) and (J, I) of the full product add the same term: it is
        # built once and added twice.  A component never pairs with itself.
        deg = 2 * self.degree
        if deg > self.chart.dim:
            return DForm(self.chart, self.chart.dim, {})
        items = list(self.comps.items())
        terms = []
        for n, (i1, c1) in enumerate(items):
            for i2, c2 in items[n + 1 :]:
                merged, sign = _merge_indices(i1, i2)
                if merged is not None:
                    term = (merged, c1 * c2 if sign > 0 else -(c1 * c2))
                    terms += (term, term)
        return DForm(self.chart, deg, _sum_by_key(terms))

    # -- calculus ------------------------------------------------------

    def partials(self):
        """The form's coefficients differentiated along each coordinate:
        one form of the same degree per coordinate, in chart order.
        Differentiated once per form, since every point check shares them."""
        if self._partials is None:
            parts = []
            for coord in self.chart.coords:
                comps = {}
                for idx, coeff in self.comps.items():
                    dc = coeff.diff(coord)
                    if not dc.is_zero:
                        comps[idx] = dc
                parts.append(DForm(self.chart, self.degree, comps))
            self._partials = tuple(parts)
        return self._partials

    def d(self):
        """Exterior derivative."""
        terms = []
        coords = self.chart.coords
        for idx, coeff in self.comps.items():
            for v, coord in enumerate(coords):
                if v in idx:
                    continue
                dc = coeff.diff(coord)
                if dc.terms:
                    merged, sign = _merge_indices((v,), idx)
                    terms.append((merged, dc if sign > 0 else -dc))
        # d of a top form is identically zero; clamp the degree the same
        # way wedge does so the result stays a legal form.
        deg = min(self.degree + 1, self.chart.dim)
        return DForm(self.chart, deg, _sum_by_key(terms))

    def interior(self, field):
        """Interior product with a vector field (contraction in slot one)."""
        if field.chart != self.chart:
            raise DomainError("vector field and form live on different charts")
        if self.degree == 0:
            return DForm(self.chart, 0, {})
        terms = []
        for idx, coeff in self.comps.items():
            for pos, i in enumerate(idx):
                comp = field.comps.get(i)
                if comp is not None:
                    term = comp * coeff
                    terms.append((idx[:pos] + idx[pos + 1 :], -term if pos % 2 else term))
        return DForm(self.chart, self.degree - 1, _sum_by_key(terms))

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
    return DForm(chart, 1, {(chart.index(coord),): ONE})


class VectorField:
    """A vector field as components against the coordinate frame."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart, comps):
        self.chart = chart
        self.comps = {i: c for i, c in comps.items() if not c.is_zero}

    @classmethod
    def build(cls, chart, items):
        return cls(chart, _sum_by_key(
            (chart.index(coord) if isinstance(coord, str) else coord, _as_expr(coeff))
            for coord, coeff in items
        ))

    def __add__(self, other):
        if not isinstance(other, VectorField) or other.chart != self.chart:
            return NotImplemented
        return VectorField(self.chart, _sum_by_key([*self.comps.items(), *other.comps.items()]))

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
        return _sum([c * expr.diff(self.chart.coords[i]) for i, c in self.comps.items()])

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


class ChartMap(FrozenRecord):
    """A smooth map between charts, one scalar expression per target coordinate."""

    _fields = ("name", "source", "target", "comps")

    def __init__(self, name, source, target, comps):
        if len(comps) != target.dim:
            raise DomainError(
                f"map {name} needs {target.dim} component expressions,"
                f" got {len(comps)}"
            )
        for c in comps:
            extra = c.free_coords() - set(source.coords)
            if extra:
                raise DomainError(
                    f"map {name} component mentions {sorted(extra)} outside"
                    f" source chart {source.name}"
                )
        vars(self).update(name=name, source=source, target=target, comps=comps)

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

    @cached_property
    def _wedges(self):
        # Index tuple I -> d(phi_i1) /\ ... /\ d(phi_ik) on the source chart,
        # filled on first use; at most 2**target.dim entries per map.
        return {(): function_form(self.source, ONE)}

    @cached_property
    def _jacobian_drops(self):
        # The Jacobian's (drops, band, non_finite) sample counts over sampled
        # sub-grids, filled by pointcheck._count_jacobian_drops and keyed by
        # the exact grid.
        return {}

    def _differential_wedge(self, idx):
        """The pullback of the basis form dy_I: the wedge of the
        differentials of the components in idx, built once per map and
        index prefix.  A single index gives that differential itself."""
        out = self._wedges.get(idx)
        if out is None:
            out = DForm(self.source, 1, {
                (j,): d for j, d in enumerate(self._jacobian[idx[-1]]) if not d.is_zero
            })
            if len(idx) > 1:
                out = self._differential_wedge(idx[:-1]).wedge(out)
            self._wedges[idx] = out
        return out

    def pullback(self, form):
        """Pull a form on the target chart back to the source chart."""
        if form.chart != self.target:
            raise DomainError(
                f"map {self.name} pulls back forms on {self.target.name},"
                f" got one on {form.chart.name}"
            )
        subs = self.substitution()
        terms = []
        for idx, coeff in form.comps.items():
            pulled = coeff.subs(subs)
            if pulled.is_zero:
                continue
            for key, w in self._differential_wedge(idx).comps.items():
                terms.append((key, w * pulled))
        # An overweight pullback is identically zero; clamp the degree the
        # same way wedge does so the result stays a legal form.
        return DForm(self.source, min(form.degree, self.source.dim), _sum_by_key(terms))

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

    def apply(self, env):
        """Numeric image of a point given as an env over source coords."""
        return {t: comp.eval(env) for t, comp in zip(self.target.coords, self.comps)}


class Metric:
    """Constant symmetric positive-definite rational metric on a chart.

    The Hodge star needs sqrt(det g) to stay rational, so determinants
    that are not rational squares are rejected up front.
    """

    __slots__ = ("chart", "rows", "inverse", "sqrt_det", "_stars")

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
        self._stars = {}

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
        identity.  Only the row sets R = Jc in which every column of
        inverse[R, I] has its own nonzero row are visited: any other
        minor has a zero factor in every term of its expansion.  So a
        diagonal metric has one row set per I and a dense one all
        C(n, k) of them.
        """
        if form.chart != self.chart:
            raise DomainError("form and metric live on different charts")
        terms = []
        for idx, coeff in form.comps.items():
            for jj, scal in self._basis_star(idx):
                terms.append((jj, coeff * scal))
        # Components in increasing key order, whatever the order of the
        # input's: later float sums over components follow this order.
        terms.sort(key=lambda t: t[0])
        return DForm(self.chart, self.chart.dim - form.degree, _sum_by_key(terms))

    def _basis_star(self, idx):
        """The nonzero (J, coefficient) pairs of the star of dx_I, built
        once per metric and index tuple I."""
        out = self._stars.get(idx)
        if out is None:
            n = self.chart.dim
            out = []
            for rows in _row_sets(self.inverse, idx):
                jj = tuple(i for i in range(n) if i not in rows)
                _, eps = _merge_indices(rows, jj)
                minor = [[self.inverse[r][c] for c in idx] for r in rows]
                scal = _linalg.exact_det(minor) * self.sqrt_det * eps
                if scal != 0:
                    out.append((jj, rat(scal)))
            out.sort()
            self._stars[idx] = out
        return out


def _row_sets(matrix, cols):
    """The increasing row tuples R, one per set, for which the columns
    `cols` of matrix[R] can each be given their own nonzero row."""
    found = set()

    def assign(pos, used):
        if pos == len(cols):
            found.add(tuple(sorted(used)))
            return
        c = cols[pos]
        for r, row in enumerate(matrix):
            if row[c] and r not in used:
                assign(pos + 1, used + (r,))

    assign(0, ())
    return sorted(found)


def _rational_sqrt(q):
    from math import isqrt

    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
