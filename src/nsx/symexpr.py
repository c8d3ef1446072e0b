"""Exact scalar expressions over coordinate charts.

An Expr is a finite sum of monomials with rational coefficients, stored
as integer numerators over one common denominator: the primitive part
and content of a polynomial over Q.  A monomial is a product of atoms
raised to nonzero integer powers.  Atoms are coordinates, the constant
pi, exp/sin/cos applied to an Expr argument, and opaque one-variable
functions applied to a coordinate.  Expressions are kept in a canonical
sorted form at all times, so structural equality of two Expr values is
a sound but incomplete test for mathematical equality.

Exactly two rewrite rules run on every construction, with no way to
switch them off:

  * exponential merge inside a monomial:
        exp(u)^j * exp(v)^k  ->  exp(j*u + k*v),  exp(0) -> 1,
    so a monomial carries at most one exp factor, always to the first
    power;
  * equal-coefficient Pythagorean collapse between terms:
        c*R*sin(u)^2 + c*R*cos(u)^2  ->  c*R,
    applied to a fixpoint by a deterministic scan.  Each step lowers
    the total trigonometric degree, so the scan terminates.

The collapse runs once per canonicalization, so separate `+` calls
depend on their order: with s = sin(x)^2 and c = cos(x)^2, (s + c) + s
is 1 + s but (s + s) + c is 2*s + c.  A sum taken in one step sees all
its terms and depends only on their multiset; Expr.subs, diff and every
form and field operation in charts sum each coefficient that way, once.

Nothing else is simplified.  In particular sin(t)^2 and 1 - cos(t)^2
normalize to distinct forms; deciding their equality is the job of
semantically_equal, which falls back to seeded numeric sampling and
reports Undecided rather than guessing.

Opaque functions model compactly supported cutoffs and similar data
that have no closed form.  Differentiation appends a prime to the
function name, so the derivative chain chi, chi', chi'' needs no
registration to exist symbolically.  Numeric evaluation does need a
callable per name, and DEFAULT_REGISTRY is the only place one comes
from: a standard bump function is registered for chi and chi' out of
the box, and DEFAULT_REGISTRY.register adds or replaces a name.  Both
evaluate and compile_numpy look the callable up when they run, so a
name registered again takes effect immediately, also for functions
compiled before.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "Expr",
    "sym",
    "rat",
    "PI",
    "exp_of",
    "sin_of",
    "cos_of",
    "opaque_fn",
    "evaluate",
    "compile_numpy",
    "semantically_equal",
    "Equal",
    "NotEqual",
    "Undecided",
    "OpaqueRegistry",
    "DEFAULT_REGISTRY",
]

# Atom kind tags, in canonical order: an atom is (_SYM, name), (_PI,),
# (_EXP, u), (_SIN, u), (_COS, u) or (_OPQ, fname, coord), so atoms and
# monomials (tuples of (atom, exponent)) sort canonically as plain tuples.
_SYM, _PI, _EXP, _SIN, _COS, _OPQ = range(6)
_KIND_NAMES = ("sym", "pi", "exp", "sin", "cos", "opq")

_F0 = Fraction(0)

# Bound of each monomial memo; the built-in suite makes ~1.8k distinct
# products and ~100 distinct trigonometric adjustments.
_MONO_PRODUCT_CACHE = 4096


def _coerced(op):
    """A binary operator of Expr that also takes an int or a Fraction."""

    def method(self, other):
        other = _as_expr(other)
        return NotImplemented if other is NotImplemented else op(self, other)

    return method


class Expr:
    """Canonical sum of monomials: integer numerators over one denominator.

    `terms` is a tuple of (monomial, int numerator) pairs in strictly
    increasing monomial order and `den` a positive int sharing no factor
    with every numerator at once, so the coefficient of a term is
    numerator / den and each value has exactly one representation.

    Do not call the constructor directly; use the module constructors
    (sym, rat, PI, exp_of, sin_of, cos_of, opaque_fn) and arithmetic.
    """

    __slots__ = ("terms", "den", "_key", "_hash")

    def __init__(self, terms, den=1):
        self.terms = terms
        self.den = den
        self._key = None
        self._hash = None

    @property
    def key(self):
        """Order inside an atom: (monomial, reduced (num, den)) per term."""
        if self._key is None:
            den = self.den
            self._key = tuple(
                (m, (n // (g := math.gcd(n, den)), den // g)) for m, n in self.terms
            )
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.terms, self.den))
        return self._hash

    def __eq__(self, other):
        if isinstance(other, Expr):
            return self is other or (self.den == other.den and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            return self == rat(other)
        return NotImplemented

    def __lt__(self, other):
        return self.key < other.key

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def as_fraction(self):
        if not self.terms:
            return _F0
        if self.is_rational:
            return Fraction(self.terms[0][1], self.den)
        raise DomainError(f"expression is not a rational constant: {self}")

    def free_coords(self):
        """All coordinate names the expression depends on."""
        out = set()
        for mono, _ in self.terms:
            for atom, _e in mono:
                kind = atom[0]
                if kind == _SYM:
                    out.add(atom[1])
                elif kind == _OPQ:
                    out.add(atom[2])
                elif kind != _PI:
                    out |= atom[1].free_coords()
        return out

    def opaque_names(self):
        out = set()
        for mono, _ in self.terms:
            for atom, _e in mono:
                kind = atom[0]
                if kind == _OPQ:
                    out.add(atom[1])
                elif kind in (_EXP, _SIN, _COS):
                    out |= atom[1].opaque_names()
        return out

    def is_polynomial(self):
        """True when only coordinates and pi occur (no exp/sin/cos/opq)."""
        return all(atom[0] <= _PI for mono, _ in self.terms for atom, _e in mono)

    # -- arithmetic ---------------------------------------------------

    @_coerced
    def __add__(self, other):
        return _sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((m, -n) for m, n in self.terms), self.den)

    __sub__ = _coerced(lambda self, other: self + (-other))
    __rsub__ = _coerced(lambda self, other: other + (-self))

    def __mul__(self, other):
        if not isinstance(other, Expr):
            other = _as_expr(other)
            if other is NotImplemented:
                return NotImplemented
        t1, t2 = self.terms, other.terms
        if len(t1) == 1 and len(t2) == 1:
            # One product term has no Pythagorean partner and no zero.
            (m1, n1), (m2, n2) = t1[0], t2[0]
            m = m2 if not m1 else m1 if not m2 else _mono_product(m1, m2)
            return _monomial_expr(m, n1 * n2, self.den * other.den)
        acc = {}
        for m1, n1 in t1:
            for m2, n2 in t2:
                m = m2 if not m1 else m1 if not m2 else _mono_product(m1, m2)
                acc[m] = acc.get(m, 0) + n1 * n2
        return _canonical(acc, self.den * other.den)

    __rmul__ = __mul__

    __truediv__ = _coerced(lambda self, other: self * other**-1)
    __rtruediv__ = _coerced(lambda self, other: other * self**-1)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        if n < 0:
            # Only single-monomial expressions are invertible here;
            # sums would need a quotient field we deliberately avoid.
            if not self.terms:
                raise DomainError("division by zero")
            if len(self.terms) != 1:
                raise DomainError(
                    f"negative powers need a single-term base, got {len(self.terms)} terms"
                )
            ((mono, num),) = self.terms
            inv_mono = _normalize_monomial([(a, -e) for a, e in mono])
            inv = Fraction(self.den, num)
            base = _monomial_expr(inv_mono, inv.numerator, inv.denominator)
            return base ** (-n)
        # Square-and-multiply from the lowest set bit: no product by ONE and
        # no square past the highest bit, so self**1 is self.
        power = self
        while not n & 1:
            power = power * power
            n >>= 1
        result = power
        n >>= 1
        while n:
            power = power * power
            if n & 1:
                result = result * power
            n >>= 1
        return result

    # -- calculus -----------------------------------------------------

    def diff(self, name):
        """Partial derivative with respect to the coordinate `name`."""
        # A coordinate's derivative is 1, so its pieces are plain
        # monomials and go into one dict; every other atom's piece is a
        # product with that atom's derivative.
        acc = {}
        others = []
        den = self.den
        for mono, n in self.terms:
            for i, (atom, e) in enumerate(mono):
                if atom[0] == _SYM:
                    if atom[1] != name:
                        continue
                    da = None
                else:
                    da = _atom_derivative(atom, name)
                    if not da.terms:
                        continue
                # Dropping or lowering one exponent keeps a monomial canonical.
                lowered = mono[:i] + (((atom, e - 1),) if e != 1 else ()) + mono[i + 1 :]
                if da is None:
                    # Each term lowers to its own monomial: one numerator
                    # per key, and none of them 0.
                    acc[lowered] = n * e
                else:
                    others.append(_monomial_expr(lowered, n * e, den) * da)
        if not others:
            if len(acc) > 1:
                return _canonical(acc, den)
            return _monomial_expr(*acc.popitem(), den) if acc else ZERO
        # One sum over every piece, so the collapse sees all of them.
        return _sum([_monomial_expr(m, c, den) for m, c in acc.items()] + others)

    def subs(self, mapping):
        """Substitute coordinates by expressions.

        mapping: dict of coordinate name -> Expr (or int/Fraction).
        Opaque atoms only tolerate renaming their argument to another
        bare coordinate; composing an opaque with a general expression
        raises DomainError since the result would leave the fragment.
        """
        mapping = {k: _as_expr(v) for k, v in mapping.items()}
        pieces = []
        for mono, n in self.terms:
            piece = _monomial_expr((), n, self.den)
            for atom, e in mono:
                piece = piece * _subs_atom(atom, mapping) ** e
            pieces.append(piece)
        return _sum(pieces)

    def eval(self, env):
        return evaluate(self, env)

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (mono, n) in enumerate(self.terms):
            body = _term_str(mono, Fraction(abs(n), self.den))
            if i == 0:
                parts.append(body if n > 0 else "-" + body)
            else:
                parts.append(f" {'-' if n < 0 else '+'} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Expr({self})"


def _term_str(mono, c):
    factors = []
    if c != 1 or not mono:
        factors.append(str(c))
    for atom, e in mono:
        kind = atom[0]
        if kind == _SYM:
            s = atom[1]
        elif kind == _PI:
            s = "pi"
        elif kind == _OPQ:
            s = f"{atom[1]}({atom[2]})"
        else:
            s = f"{_KIND_NAMES[kind]}({atom[1]})"
        if e != 1:
            s = f"{s}^{e}"
        factors.append(s)
    return "*".join(factors)


def _as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    return NotImplemented


# -- normalization ----------------------------------------------------


def _normalize_monomial(pairs):
    """Collapse duplicate atoms and merge exponentials into a sorted
    monomial."""
    combined = {}
    for atom, e in pairs:
        if e == 0:
            continue
        combined[atom] = combined.get(atom, 0) + e
    exp_arg = None
    out = []
    for atom, e in combined.items():
        if e == 0:
            continue
        if atom[0] == _EXP:
            u = atom[1] * e if e != 1 else atom[1]
            exp_arg = u if exp_arg is None else exp_arg + u
        else:
            out.append((atom, e))
    if exp_arg is not None and not exp_arg.is_zero:
        out.append(((_EXP, exp_arg), 1))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=_MONO_PRODUCT_CACHE)
def _mono_product(m1, m2):
    return _normalize_monomial(m1 + m2)


@lru_cache(maxsize=_MONO_PRODUCT_CACHE)
def _mono_adjust_trig(mono, u, sin_delta, cos_delta):
    """Shift the exponents of sin(u) and cos(u) inside a monomial."""
    return _normalize_monomial(mono + (((_SIN, u), sin_delta), ((_COS, u), cos_delta)))


def _pythagorean_fixpoint(acc):
    """Collapse equal-coefficient sin^2/cos^2 partners in place."""
    changed = True
    while changed:
        changed = False
        for mono in sorted(acc):
            c = acc.get(mono)
            if not c:
                continue
            for atom, e in mono:
                if atom[0] != _SIN or e < 2:
                    continue
                u = atom[1]
                partner = _mono_adjust_trig(mono, u, -2, +2)
                if acc.get(partner) != c:
                    continue
                reduced = _mono_adjust_trig(mono, u, -2, 0)
                del acc[mono]
                del acc[partner]
                acc[reduced] = acc.get(reduced, 0) + c
                if not acc[reduced]:
                    del acc[reduced]
                changed = True
                break
            if changed:
                break


def _canonical(acc, den):
    """The Expr of sum(n * mono for mono, n in acc) / den, for int
    numerators and den > 0: sin^2/cos^2 partners collapsed, zero terms
    dropped, the common factor cancelled and the terms sorted.  One term
    has no Pythagorean partner.  With no zero numerator and no common
    factor, the sorted items are already the terms."""
    # A monomial is sorted by atom kind, so one holding sin ends in an atom
    # of kind _SIN or later.
    if len(acc) > 1 and any(
        m and m[-1][0][0] >= _SIN and any(a[0] == _SIN and e >= 2 for a, e in m) for m in acc
    ):
        _pythagorean_fixpoint(acc)
    g = math.gcd(den, *acc.values())
    if g == 1 and all(acc.values()):
        return Expr(tuple(sorted(acc.items())), den)
    return Expr(tuple(sorted((m, n // g) for m, n in acc.items() if n)), den // g)


def _sum(exprs):
    """The sum of a sequence of Exprs, canonicalized once: the Pythagorean
    collapse sees all their terms together, so the sum does not depend on
    the order of the sequence.  A single Expr is already canonical, and
    no Exprs sum to ZERO."""
    if len(exprs) <= 1:
        return exprs[0] if exprs else ZERO
    den = math.lcm(*(e.den for e in exprs))
    acc = {}
    for e in exprs:
        scale = den // e.den
        for m, n in e.terms:
            acc[m] = acc.get(m, 0) + n * scale
    return _canonical(acc, den)


def _monomial_expr(mono, n, den):
    """n/den * mono for a canonical monomial, an int n != 0 and den > 0."""
    g = math.gcd(n, den)
    return Expr(((mono, n // g),), den // g)


# -- constructors -----------------------------------------------------


def _atom_expr(atom):
    return Expr(((((atom, 1),), 1),))


def sym(name):
    """The coordinate `name` as an expression."""
    if not isinstance(name, str) or not name:
        raise DomainError(f"coordinate name must be a nonempty string, got {name!r}")
    return _atom_expr((_SYM, name))


def rat(p, q=1):
    c = Fraction(p, q) if q != 1 else Fraction(p)
    return Expr((((), c.numerator),), c.denominator) if c else ZERO


def exp_of(u):
    u = _as_expr(u)
    return _atom_expr((_EXP, u)) if u.terms else ONE


def sin_of(u):
    u = _as_expr(u)
    return _atom_expr((_SIN, u)) if u.terms else ZERO


def cos_of(u):
    u = _as_expr(u)
    return _atom_expr((_COS, u)) if u.terms else ONE


def opaque_fn(fname, coord):
    """Apply the opaque function `fname` to the coordinate `coord`."""
    if not isinstance(coord, str):
        raise DomainError("opaque functions apply to a coordinate name")
    return _atom_expr((_OPQ, fname, coord))


ZERO = Expr(())
ONE = Expr((((), 1),))
PI = _atom_expr((_PI,))


# -- derivatives and substitution --------------------------------------


def _atom_derivative(atom, name):
    kind = atom[0]
    if kind == _SYM:
        return ONE if atom[1] == name else ZERO
    if kind == _PI:
        return ZERO
    if kind == _OPQ:
        if atom[2] != name:
            return ZERO
        return opaque_fn(atom[1] + "'", atom[2])
    du = atom[1].diff(name)
    if du.is_zero:
        return ZERO
    if kind == _EXP:
        return exp_of(atom[1]) * du
    if kind == _SIN:
        return cos_of(atom[1]) * du
    return -sin_of(atom[1]) * du


def _subs_atom(atom, mapping):
    kind = atom[0]
    if kind == _SYM:
        target = mapping.get(atom[1])
        return _atom_expr(atom) if target is None else target
    if kind == _PI:
        return PI
    if kind == _OPQ:
        fname, coord = atom[1], atom[2]
        if coord not in mapping:
            return opaque_fn(fname, coord)
        target = mapping[coord]
        new_name = _bare_coord(target)
        if new_name is None:
            raise DomainError(
                f"cannot substitute {coord} -> {target} inside opaque {fname}({coord});"
                " opaque arguments only support renaming to another coordinate"
            )
        return opaque_fn(fname, new_name)
    arg = atom[1].subs(mapping)
    if kind == _EXP:
        return exp_of(arg)
    if kind == _SIN:
        return sin_of(arg)
    return cos_of(arg)


def _bare_coord(e):
    if len(e.terms) != 1 or e.den != 1:
        return None
    mono, n = e.terms[0]
    if n != 1 or len(mono) != 1:
        return None
    atom, exp = mono[0]
    if atom[0] == _SYM and exp == 1:
        return atom[1]
    return None


# -- opaque registry ---------------------------------------------------


class OpaqueRegistry:
    """Numeric callables for opaque function names.

    Callables must accept a float or an ndarray and return the same
    shape, and must be elementwise: an array call gives, bit for bit, the
    scalar call at every element.  `compile_numpy` relies on this, and so
    does exact evaluation at a point of a point set, which reads an opaque
    value off one array call over the set's column.  Lookup is by exact
    name, so derivatives need their own entry under the primed name.
    """

    def __init__(self):
        self._numeric = {}

    def register(self, name, fn):
        self._numeric[name] = fn

    def numeric(self, name):
        return self._numeric.get(name)

    def known(self, name):
        return name in self._numeric


def bump(t):
    """Standard cutoff: exp(1 - 1/(1 - t^2)) inside |t| < 1, else 0."""
    arr = np.asarray(t, dtype=float)
    inside = np.abs(arr) < 1.0
    # Mask the argument before squaring and the denominator before
    # dividing, so no value outside overflows.
    x = np.where(inside, arr, 0.0)
    d = 1.0 - x * x
    with np.errstate(under="ignore"):
        val = np.exp(1.0 - 1.0 / np.maximum(d, 1e-300))
    out = np.where(inside, val, 0.0)
    return float(out) if out.ndim == 0 else out


def bump_prime(t):
    """Derivative of bump: -2t/(1-t^2)^2 * bump(t) inside, else 0."""
    arr = np.asarray(t, dtype=float)
    inside = np.abs(arr) < 1.0
    x = np.where(inside, arr, 0.0)
    d = np.maximum(1.0 - x * x, 1e-300)
    with np.errstate(under="ignore"):
        val = -2.0 * x / (d * d) * np.exp(1.0 - 1.0 / d)
    out = np.where(inside, val, 0.0)
    return float(out) if out.ndim == 0 else out


DEFAULT_REGISTRY = OpaqueRegistry()
DEFAULT_REGISTRY.register("chi", bump)
DEFAULT_REGISTRY.register("chi'", bump_prime)


def _opaque_numeric(name):
    fn = DEFAULT_REGISTRY.numeric(name)
    if fn is None:
        raise EvaluationError(f"opaque function {name} has no registered numeric")
    return fn


# -- evaluation --------------------------------------------------------


def evaluate(expr, env):
    """Evaluate at a point.  env maps coordinate name -> int, Fraction or float.

    Results stay exact Fractions as long as every factor evaluates
    exactly.  A rational factor equal to zero short-circuits its whole
    term to an exact zero, which is what keeps rank computations exact
    at points on a coordinate locus even when transcendental factors
    multiply the vanishing coordinates.  Opaque functions must be
    registered before their term is inspected at all; a term that
    would short-circuit still raises on an unregistered opaque, so a
    missing registration cannot hide behind a zero.

    Each term is computed as an integer pair (numerator, denominator)
    from its coordinates' numerators and denominators, the exact terms
    are summed as one pair, and one Fraction is built for the value.  A
    term that meets a float turns into one at that factor, as
    float(exact part / den), so its bits do not depend on the pairs.
    """
    value = _point_value(expr, env)
    if type(value) is not tuple:
        return value
    return Fraction(*value) if value[0] else _F0


def ratio_float(p, q):
    """p / q for ints p and q > 0, correctly rounded as float(Fraction(p, q))
    is, or an infinity of its sign past the float range."""
    try:
        return p / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _point_value(expr, env):
    """evaluate's value as an exact pair (p, q) with q > 0, or a float.

    The pair need not be in lowest terms; the point matrices of
    pointcheck put such pairs over one scale without building Fractions.
    At a point of a point set they read `column_value` instead where it
    has a value, and this is their fallback at that point: for pi,
    exp/sin/cos, opaque atoms, negative exponents and float coordinates.
    """
    names, den, terms = _plan(expr)
    for name in names:
        _opaque_numeric(name)
    return _plan_value(den, terms, env)


def column_value(expr, exact, n):
    """expr at every one of n points as (numerators, den), den > 0: a list
    of n ints over one denominator, from the exact coordinate columns that
    exact(name) gives as (numerators, den), or None.

    None unless every atom of expr is a coordinate with a positive exponent
    whose column is exact, so a column value never raises: it declines
    every case where `_point_value` could raise or give a float (pi,
    exp/sin/cos, opaque atoms, negative exponents, float or missing
    coordinates).  Where it has a value, that value equals `_point_value`'s
    at every point, and every entry is an int.
    """
    names = column_coords(expr)
    if names is None:
        return None
    cols = dict(zip(names, map(exact, names)))
    if None in cols.values():
        return None
    _, den, terms = _plan(expr)
    # Term t is n_t * prod(num**e) / q_t with q_t = prod(den**e); over the
    # lcm of the q_t it is a weight times the product of its columns.
    qs = [math.prod([cols[name][1] ** e for name, e in coords]) for _, coords, _ in terms]
    common = math.lcm(*qs)
    total = [0] * n
    for (num, coords, _), q in zip(terms, qs):
        col = None
        for name, e in coords:
            nums = cols[name][0]
            power = nums if e == 1 else [x**e for x in nums]
            col = power if col is None else list(map(mul, col, power))
        weight = num * (common // q)
        if col is None:
            col = [weight] * n
        elif weight != 1:
            col = [x * weight for x in col]
        total = list(map(add, total, col))
    return total, common * den


@lru_cache(maxsize=4096)
def column_coords(expr):
    """The coordinates whose exact columns `column_value` reads for expr,
    or None when it declines expr whatever the columns: when an atom of
    expr is not a coordinate with a positive exponent.  Otherwise it
    declines exactly when one of these columns is not exact."""
    names, _, terms = _plan(expr)
    if names or any(others or any(e < 0 for _, e in coords) for _, coords, others in terms):
        return None
    return tuple({name: None for _, coords, _ in terms for name, _ in coords})


@lru_cache(maxsize=4096)
def _plan(expr):
    """(sorted opaque names, den, terms) of expr, each term a triple
    (numerator, coordinate factors (name, e), other factors (atom, e)).

    Monomials sort coordinates before every other atom, so the factors
    keep their order in the monomial.
    """
    terms = tuple(
        (
            n,
            tuple((atom[1], e) for atom, e in mono if atom[0] == _SYM),
            tuple((atom, e) for atom, e in mono if atom[0] != _SYM),
        )
        for mono, n in expr.terms
    )
    return tuple(sorted(expr.opaque_names())), expr.den, terms


def _plan_value(den, terms, env):
    """_point_value of a plan's den and terms at env."""
    total_p, total_q = 0, 1
    float_sum = 0.0
    kind = None  # the value's float type, once a term is a float
    for n, coords, others in terms:
        # Exact pass first: the term's rational coordinate factors.
        p, q = n, 1
        floats = ()
        for name, e in coords:
            v = _env_value(env, name)
            if type(v) is not tuple:
                floats += ((v, e),)
                continue
            a, b = v
            if not a:
                if e < 0:
                    raise EvaluationError(f"coordinate {name} is 0 but appears to power {e}")
                break
            if e == 1:
                p *= a
                q *= b
            elif e > 0:
                p *= a**e
                q *= b**e
            else:
                p *= b**-e
                q *= a**-e
        else:
            if q < 0:
                p, q = -p, -q
            if floats or others:
                value = _deferred_value(p, q * den, floats, others, env)
                if value is None:
                    continue
                if value is not _EXACT:
                    if kind is not np.float64:
                        kind = type(value)
                    float_sum += float(value)
                    continue
            # The exact sum keeps the lcm of its terms' denominators.
            if q == total_q:
                total_p += p
            else:
                g = math.gcd(q, total_q)
                total_p = total_p * (q // g) + p * (total_q // g)
                total_q = total_q // g * q
    total_q *= den
    if kind is not None:
        return kind(ratio_float(total_p, total_q) + float_sum)
    return total_p, total_q


_EXACT = object()


def _deferred_value(p, q, floats, others, env):
    """p/q times a term's float coordinates and its other atoms, in order:
    a float from the first float factor on, None when a factor is an
    exact zero, and _EXACT when every factor is exactly 1.

    exp(0) = 1, sin(0) = 0 and cos(0) = 1 at an exact zero argument keep
    exactness through transcendental atoms.  A numpy float coordinate is
    multiplied in as a Python float, which goes past the float range to
    inf or NaN without numpy's warning, and gives the value numpy's type,
    as here and in `_plan_value`'s sum, so the bits are numpy's.
    """
    result = _EXACT
    kind = float
    for v, e in floats:
        if v == 0 and e < 0:
            raise EvaluationError(f"zero atom sym raised to power {e}")
        if result is _EXACT:
            result = ratio_float(p, q)
        if type(v) is not float:
            kind, v = type(v), float(v)
        result = result * _float_power(v, e)
    for atom, e in others:
        v = _atom_value(atom, env)
        if v == 0 and e < 0:
            raise EvaluationError(f"zero atom {_KIND_NAMES[atom[0]]} raised to power {e}")
        if isinstance(v, float):
            if result is _EXACT:
                result = ratio_float(p, q)
            result = result * _float_power(v, e)
        elif v == 0:
            return None
    return result if kind is float else kind(result)


def _float_power(v, e):
    """v**e for a float v and an int e, an infinity of its sign past the
    float range, as numpy gives it."""
    try:
        return v**e
    except OverflowError:
        return math.copysign(math.inf, v) if e % 2 else math.inf


_TRANSCENDENTAL = {_EXP: math.exp, _SIN: math.sin, _COS: math.cos}


def _atom_value(atom, env):
    """A float, or the int 0 or 1 for an exactly folded atom."""
    kind = atom[0]
    if kind == _PI:
        return math.pi
    if kind == _OPQ:
        fn = _opaque_numeric(atom[1])
        # A point of a point set (points.PointView) reads the value off one
        # call of fn over its set's column.
        numeric = getattr(env, "numeric", None)
        v = None if numeric is None else numeric(fn, atom[2])
        if v is not None:
            return v
        v = _env_value(env, atom[2])
        return float(fn(ratio_float(*v) if type(v) is tuple else v))
    _, den, terms = _plan(atom[1])
    arg = _plan_value(den, terms, env)
    if type(arg) is tuple:
        if not arg[0]:
            return 0 if kind == _SIN else 1
        arg = ratio_float(*arg)
    try:
        return _TRANSCENDENTAL[kind](arg)
    except (OverflowError, ValueError):  # exp past the float range, sin or cos of an infinity
        return math.inf if kind == _EXP else math.nan


def _env_value(env, name):
    """A coordinate's value: an exact pair (numerator, denominator) for an
    int or a Fraction, or the float itself."""
    try:
        v = env[name]
    except KeyError:
        raise EvaluationError(f"no value for coordinate {name}") from None
    if type(v) is Fraction:
        return v.numerator, v.denominator
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    if isinstance(v, float):
        return v
    raise EvaluationError(f"bad value for coordinate {name}: {v!r}")


# -- vectorized evaluation ---------------------------------------------


def compile_numpy(expr):
    """Compile to a function of a dict of equal-shape float arrays.

    The compiled function evaluates the expression elementwise over
    numpy arrays, which is what the sampled sweeps use.  Exactness is
    not preserved; use evaluate() for that.  Compilations are cached per
    expression; an opaque atom looks its numeric up on every call, and
    an unregistered name raises here, before anything runs.
    """
    names, fn = _compile(expr)
    for name in names:
        _opaque_numeric(name)
    return fn


@lru_cache(maxsize=4096)
def _compile(expr):
    return sorted(expr.opaque_names()), _build_numpy(expr)


def _build_numpy(expr):
    terms = []
    for mono, n in expr.terms:
        factors = [_build_atom_numpy(atom, e) for atom, e in mono]
        terms.append((float(Fraction(n, expr.den)), factors))

    def fn(env):
        total = 0.0
        for c, factors in terms:
            piece = c
            for f in factors:
                piece = piece * f(env)
            total = total + piece
        if isinstance(total, float):
            shape = np.broadcast_shapes(*(np.shape(v) for v in env.values())) if env else ()
            return np.full(shape, total)
        return total

    return fn


def _build_atom_numpy(atom, e):
    kind = atom[0]
    if kind == _SYM:
        name = atom[1]
        base = lambda env: np.asarray(env[name], dtype=float)
    elif kind == _PI:
        base = lambda env: math.pi
    elif kind == _OPQ:
        fname, name = atom[1], atom[2]
        base = lambda env: _opaque_numeric(fname)(np.asarray(env[name], dtype=float))
    else:
        inner = _build_numpy(atom[1])
        outer = {_EXP: np.exp, _SIN: np.sin, _COS: np.cos}[kind]
        base = lambda env: outer(inner(env))
    if e == 1:
        return base
    return lambda env: base(env) ** e


# -- semantic comparison -----------------------------------------------


@dataclass(frozen=True)
class Equal:
    kind: str = "equal"


@dataclass(frozen=True)
class NotEqual:
    witness: tuple | None = None
    values: tuple | None = None
    non_finite: int = 0
    kind: str = "not_equal"


@dataclass(frozen=True)
class Undecided:
    samples: int = 0
    non_finite: int = 0
    kind: str = "undecided"


# Sampled points per comparison outside the polynomial fragment.
_SEMANTIC_SAMPLES = 32


def _dyadic(rng):
    """-2 + 4 * k / 2**12 for 12 random bits k: a dyadic point in [-2, 2)."""
    return Fraction(rng.getrandbits(12) - (1 << 11), 1 << 10)


def semantically_equal(e1, e2, *, seed=0, tol=1e-9):
    """Three-valued equality test.

    Equal       canonical forms coincide (exact, complete for the
                polynomial-in-coordinates-and-pi fragment).
    NotEqual    canonical forms differ and either both sides live in
                the polynomial fragment (where the canonical form is a
                complete invariant) or a sampled point separates them
                beyond tol relative to scale.  Carries a witness.
    Undecided   everything else.  Never treated as a pass by callers.

    A sampled point whose float value overflows or is NaN or infinite
    decides nothing; outside the polynomial fragment it is counted under
    non_finite, not under samples.
    """
    e1 = _as_expr(e1)
    e2 = _as_expr(e2)
    if e1 == e2:
        return Equal()
    rng = random.Random(seed)
    coords = sorted(e1.free_coords() | e2.free_coords())
    if e1.is_polynomial() and e2.is_polynomial():
        # pi is transcendental over Q, so distinct canonical forms in
        # this fragment are distinct functions.  Sampling only decorates
        # the verdict with a concrete separating point when one shows.
        witness = None
        best = -1.0
        for _ in range(8):
            env = {c: _dyadic(rng) for c in coords}
            values = _float_values(e1, e2, env)
            if values and abs(values[0] - values[1]) > best:
                best = abs(values[0] - values[1])
                witness = (tuple(sorted(env.items())), values)
        if witness and best > 0:
            return NotEqual(*witness)
        return NotEqual()
    for name in sorted(e1.opaque_names() | e2.opaque_names()):
        if not DEFAULT_REGISTRY.known(name):
            return Undecided(samples=0)
    non_finite = 0
    for _ in range(_SEMANTIC_SAMPLES):
        env = {c: _dyadic(rng) for c in coords}
        values = _float_values(e1, e2, env)
        if values is None:
            non_finite += 1
            continue
        a, b = values
        scale = max(1.0, abs(a), abs(b))
        if abs(a - b) > tol * scale:
            return NotEqual(tuple(sorted(env.items())), (a, b), non_finite)
    return Undecided(samples=_SEMANTIC_SAMPLES - non_finite, non_finite=non_finite)


def _float_values(e1, e2, env):
    """(e1, e2) as floats at env, or None when one overflows or is not finite."""
    try:
        a, b = float(evaluate(e1, env)), float(evaluate(e2, env))
    except OverflowError:
        return None
    return (a, b) if math.isfinite(a) and math.isfinite(b) else None
