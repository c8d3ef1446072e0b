"""Point sets: sample points held by column.

A point set holds n points over a tuple of coordinates as one column per
coordinate.  A column is exact, integer numerators over one positive
denominator, or holds the values themselves (floats, or whatever a point
was given).  Point i reads as a `PointView`, a read-only Mapping of its set
that equals the {coord: value} dict it stands for, with its keys in the
set's coordinate order.

Work that is the same at every point of a set is done once per set, by
column, and kept in the set's cache: an expression's exact values, a
region test, and a point matrix's table, the matrix's integer rows at
every point over one scale, built from its entries' columns and read at a
point by one index, and an opaque function's values, from one array call
over its coordinate's column.  The cache lives and dies with the set, and
each entry holds the object it was computed for (a form, a map, an
expression, a region, a numeric), so no entry outlives its object.

Work that depends only on the coordinates it reads is done once per
distinct point: the points that agree on those coordinates form a class
(`PointSet.classes`), and a point check computed at one point of a class
is read at every other.  Where no two points agree, the check runs at
every point, with no memo, and so it does over seeded random draws, which
seldom agree (`PointSet.may_repeat`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .symexpr import column_coords, column_value, ratio_float


def is_rational(v):
    """Whether v is an int or a Fraction, and not a bool."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


class Column:
    """One coordinate at every point of a set.

    With an int den, items are numerators and value i is
    Fraction(items[i], den); with den None, items are the values.
    """

    __slots__ = ("items", "den", "_exact", "_values")

    def __init__(self, items, den=None):
        self.items = items
        self.den = den
        self._exact = None
        self._values = None

    def tiled(self, run, reps):
        """Item 0 run times, item 1 run times, and so on, all of it reps
        times; exact() is read off this column's few items."""
        col = Column([x for x in self.items for _ in range(run)] * reps, self.den)
        if self.den is None:
            exact = self.exact()
            col._exact = False if exact is None else ([x for x in exact[0] for _ in range(run)] * reps, exact[1])
        return col

    def value(self, i):
        if self.den is None:
            return self.items[i]
        if self._values is None:
            # Built once, on the first read: a point read one coordinate at a
            # time (a per-point fallback) reads each value many times, and a
            # lattice column repeats a few values many times.
            den = self.den
            values = {x: Fraction(x, den) for x in set(self.items)}
            self._values = [values[x] for x in self.items]
        return self._values[i]

    def exact(self):
        """(numerators, den) over one positive den, or None when a value is
        not an int or a Fraction."""
        if self.den is not None:
            return self.items, self.den
        if self._exact is None:
            vals = self.items
            if all(map(is_rational, vals)):
                den = lcm(*[v.denominator for v in vals])
                self._exact = [v.numerator * (den // v.denominator) for v in vals], den
            else:
                self._exact = False
        return self._exact or None

    def __getitem__(self, part):
        return Column(self.items[part], self.den)

    def __add__(self, other):
        a, b = self.exact(), other.exact()
        if a is None or b is None:
            values = [*map(self.value, range(len(self.items))), *map(other.value, range(len(other.items)))]
            return Column(values)
        den = lcm(a[1], b[1])
        return Column(_scaled(a[0], den // a[1]) + _scaled(b[0], den // b[1]), den)


def _scaled(nums, m):
    return nums if m == 1 else [x * m for x in nums]


class PointSet(Sequence):
    """n points over `coords`, one `Column` per coordinate, in coords order.

    An int index reads a `PointView`; a slice is the set of those points,
    so `points[:k]` is a prefix set with its own cache.  A set equals any
    sequence of Mappings that equal its points.
    """

    # Whether points of the set agree on the coordinates a check reads often
    # enough for `classes` to pay for finding them.
    may_repeat = True

    def __init__(self, coords, columns, n):
        self.coords = tuple(coords)
        self.columns = columns
        self.n = n
        self.cache = {}

    @cached_property
    def slots(self):
        return {c: j for j, c in enumerate(self.coords)}

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._part(i)
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("point index out of range")
        return PointView(self, i)

    def _part(self, part):
        return PointSet(self.coords, [col[part] for col in self.columns], len(range(self.n)[part]))

    def __iter__(self):
        return map(PointView, [self] * self.n, range(self.n))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None

    def __add__(self, other):
        """The points of self, then those of other, a set over self's
        coordinates: other's columns are read by coordinate name."""
        cols = other.columns
        return PointSet(self.coords, [a + cols[other.slots[c]] for c, a in zip(self.coords, self.columns)], self.n + other.n)

    def __repr__(self):
        return f"{type(self).__name__}({list(map(dict, self))!r})"

    def cached(self, owner, tag, build):
        """build(), computed once per set for (tag, owner).  The entry holds
        owner itself, so the id in its key cannot be reused while it lives."""
        key = (tag, id(owner))
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = (owner, build())
        return hit[1]

    def exact_column(self, coord):
        """(numerators, den) of a coordinate, None when it is not exact or
        not a coordinate of the set."""
        j = self.slots.get(coord)
        return None if j is None else self.columns[j].exact()

    def column(self, expr):
        """`symexpr.column_value` of expr over this set, computed once."""
        return self.cached(expr, "column", lambda: column_value(expr, self.exact_column, self.n))

    def classes(self, coords):
        """Per point, the index of the first point that agrees with it on
        every coordinate of `coords`, read off their exact columns, so a
        point and its class's first point hold equal values there.  None
        when no two points agree, or when a coordinate's column is not
        exact or not in the set.  Computed once per set and coordinates."""
        coords = tuple(sorted(coords))

        def build():
            cols = list(map(self.exact_column, coords))
            if None in cols:
                return None
            columns = [nums for nums, _ in cols]
            # A column without a repeat makes every point distinct.
            if any(len(set(nums)) == self.n for nums in columns):
                return None
            points = list(zip(*columns)) if columns else [()] * self.n
            if len(set(points)) == self.n:
                return None
            first = {}
            return [first.setdefault(p, i) for i, p in enumerate(points)]

        key = ("classes", coords)
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def numeric_column(self, fn, coord):
        """float(fn(x)) for x each point's value of coord as a float, from
        one call of fn over the whole column; fn must be elementwise (see
        `symexpr.OpaqueRegistry`).  None when coord's column is not exact
        or not in the set.  Computed once per set, coordinate and fn, so a
        new fn is called afresh."""

        def build():
            exact = self.exact_column(coord)
            if exact is None:
                return None
            nums, den = exact
            values = np.asarray(fn(np.array([ratio_float(x, den) for x in nums], dtype=float)), dtype=float)
            return np.broadcast_to(values, (self.n,)).tolist()

        return self.cached(fn, ("numeric", coord), build)

    def has_columns(self, exprs):
        """Whether every expr has a `column`, decided by `column_value`'s
        rule without computing one."""
        coords = set()
        for expr in exprs:
            names = column_coords(expr)
            if names is None:
                return False
            coords.update(names)
        return None not in map(self.exact_column, coords)


class PointView(Mapping):
    """Point `index` of a `PointSet`, read-only."""

    __slots__ = ("points", "index")

    def __init__(self, points, index):
        self.points = points
        self.index = index

    def __getitem__(self, coord):
        points = self.points
        return points.columns[points.slots[coord]].value(self.index)

    def numeric(self, fn, coord):
        """float(fn(x)) at this point's value x of coord, read off its set's
        `numeric_column`; None where the set has none."""
        col = self.points.numeric_column(fn, coord)
        return None if col is None else col[self.index]

    def __iter__(self):
        return iter(self.points.coords)

    def __len__(self):
        return len(self.points.coords)

    def __repr__(self):
        return repr(dict(self))


def points_of(envs, coords):
    """The point set of envs, Mappings over `coords`, in order.  Values
    stay the objects given, so each point reads as before."""
    envs = list(envs)
    return PointSet(coords, [Column([e[c] for e in envs]) for c in coords], len(envs))
