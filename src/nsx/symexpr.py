"""Exact scalar expressions over coordinate charts.

An Expr is a finite sum of monomials with Fraction coefficients.  A
monomial is a product of atoms raised to nonzero integer powers.  Atoms
are coordinates, the constant pi, exp/sin/cos applied to an Expr
argument, and opaque one-variable functions applied to a coordinate.
Expressions are kept in a canonical sorted form at all times, so
structural equality of two Expr values is a sound but incomplete test
for mathematical equality.

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

_F0 = Fraction(0)
_F1 = Fraction(1)

# Atom kind tags, in canonical sort order.
_KIND_RANK = {"sym": 0, "pi": 1, "exp": 2, "sin": 3, "cos": 4, "opq": 5}


def _atom_key(atom):
    kind = atom[0]
    rank = _KIND_RANK[kind]
    if kind == "sym":
        return (rank, atom[1])
    if kind == "pi":
        return (rank,)
    if kind == "opq":
        return (rank, atom[1], atom[2])
    # exp / sin / cos carry an Expr argument
    return (rank, atom[1].key)


def _mono_key(mono):
    return tuple((_atom_key(a), e) for a, e in mono)


class Expr:
    """Canonical sum of monomials with Fraction coefficients.

    Do not call the constructor directly; use the module constructors
    (sym, rat, PI, exp_of, sin_of, cos_of, opaque_fn) and arithmetic.
    """

    __slots__ = ("terms", "_key", "_hash")

    def __init__(self, terms):
        # terms: tuple of (monomial, Fraction), already normalized.
        self.terms = terms
        self._key = None
        self._hash = None

    @property
    def key(self):
        if self._key is None:
            self._key = tuple(
                (_mono_key(m), (c.numerator, c.denominator)) for m, c in self.terms
            )
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def __eq__(self, other):
        if isinstance(other, Expr):
            return self.key == other.key
        if isinstance(other, (int, Fraction)):
            return self.key == rat(other).key
        return NotImplemented

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
            return self.terms[0][1]
        raise DomainError(f"expression is not a rational constant: {self}")

    def single_monomial(self):
        """The (monomial, coeff) pair when there is exactly one term."""
        if len(self.terms) != 1:
            raise DomainError(
                f"expected a single-term expression, got {len(self.terms)} terms"
            )
        return self.terms[0]

    def free_coords(self):
        """All coordinate names the expression depends on."""
        out = set()
        for mono, _ in self.terms:
            for atom, _e in mono:
                kind = atom[0]
                if kind == "sym":
                    out.add(atom[1])
                elif kind == "opq":
                    out.add(atom[2])
                elif kind in ("exp", "sin", "cos"):
                    out |= atom[1].free_coords()
        return out

    def opaque_names(self):
        out = set()
        for mono, _ in self.terms:
            for atom, _e in mono:
                kind = atom[0]
                if kind == "opq":
                    out.add(atom[1])
                elif kind in ("exp", "sin", "cos"):
                    out |= atom[1].opaque_names()
        return out

    def is_polynomial(self):
        """True when only coordinates and pi occur (no exp/sin/cos/opq)."""
        for mono, _ in self.terms:
            for atom, _e in mono:
                if atom[0] not in ("sym", "pi"):
                    return False
        return True

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        acc = {}
        for m, c in self.terms:
            acc[m] = acc.get(m, _F0) + c
        for m, c in other.terms:
            acc[m] = acc.get(m, _F0) + c
        return _from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _normalize_monomial(list(m1) + list(m2))
                c = c1 * c2
                if c:
                    acc[m] = acc.get(m, _F0) + c
        return _from_dict(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other**-1

    def __rtruediv__(self, other):
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self**-1

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        if n < 0:
            # Only single-monomial expressions are invertible here;
            # sums would need a quotient field we deliberately avoid.
            mono, c = self.single_monomial()
            if c == 0:
                raise DomainError("division by zero expression")
            inv_mono = _normalize_monomial([(a, -e) for a, e in mono])
            base = _from_dict({inv_mono: 1 / c})
            return base ** (-n)
        result = ONE
        power = self
        k = n
        while k:
            if k & 1:
                result = result * power
            power = power * power
            k >>= 1
        return result

    # -- calculus -----------------------------------------------------

    def diff(self, name):
        """Partial derivative with respect to the coordinate `name`."""
        acc = {}
        for mono, c in self.terms:
            for i, (atom, e) in enumerate(mono):
                da = _atom_derivative(atom, name)
                if da.is_zero:
                    continue
                rest = _normalize_monomial(
                    [(a, x) for j, (a, x) in enumerate(mono) if j != i]
                    + ([(atom, e - 1)] if e != 1 else [])
                )
                piece = _from_dict({rest: c * e}) * da
                for m2, c2 in piece.terms:
                    acc[m2] = acc.get(m2, _F0) + c2
        return _from_dict(acc)

    def subs(self, mapping):
        """Substitute coordinates by expressions.

        mapping: dict of coordinate name -> Expr (or int/Fraction).
        Opaque atoms only tolerate renaming their argument to another
        bare coordinate; composing an opaque with a general expression
        raises DomainError since the result would leave the fragment.
        """
        mapping = {k: _as_expr(v) for k, v in mapping.items()}
        total = ZERO
        for mono, c in self.terms:
            piece = _from_dict({(): c})
            for atom, e in mono:
                piece = piece * _subs_atom(atom, mapping) ** e
            total = total + piece
        return total

    def eval(self, env):
        return evaluate(self, env)

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (mono, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            body = _term_str(mono, abs(c))
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Expr({self})"


def _term_str(mono, c):
    factors = []
    if c != 1 or not mono:
        factors.append(str(c))
    for atom, e in mono:
        kind = atom[0]
        if kind == "sym":
            s = atom[1]
        elif kind == "pi":
            s = "pi"
        elif kind == "opq":
            s = f"{atom[1]}({atom[2]})"
        else:
            s = f"{kind}({atom[1]})"
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
        if atom[0] == "exp":
            u = atom[1] * e if e != 1 else atom[1]
            exp_arg = u if exp_arg is None else exp_arg + u
        else:
            out.append((atom, e))
    if exp_arg is not None and not exp_arg.is_zero:
        out.append((("exp", exp_arg), 1))
    out.sort(key=lambda pair: _atom_key(pair[0]))
    return tuple(out)


def _mono_adjust_trig(mono, u, sin_delta, cos_delta):
    """Shift the exponents of sin(u) and cos(u) inside a monomial."""
    pairs = []
    seen_sin = seen_cos = False
    for atom, e in mono:
        if atom == ("sin", u):
            e += sin_delta
            seen_sin = True
        elif atom == ("cos", u):
            e += cos_delta
            seen_cos = True
        if e != 0:
            pairs.append((atom, e))
    if not seen_sin and sin_delta:
        pairs.append((("sin", u), sin_delta))
    if not seen_cos and cos_delta:
        pairs.append((("cos", u), cos_delta))
    pairs.sort(key=lambda pair: _atom_key(pair[0]))
    return tuple(pairs)


def _pythagorean_fixpoint(acc):
    """Collapse equal-coefficient sin^2/cos^2 partners in place."""
    changed = True
    while changed:
        changed = False
        for mono in sorted(acc, key=_mono_key):
            c = acc.get(mono)
            if not c:
                continue
            for atom, e in mono:
                if atom[0] != "sin" or e < 2:
                    continue
                u = atom[1]
                partner = _mono_adjust_trig(mono, u, -2, +2)
                if acc.get(partner) != c:
                    continue
                reduced = _mono_adjust_trig(mono, u, -2, 0)
                del acc[mono]
                del acc[partner]
                acc[reduced] = acc.get(reduced, _F0) + c
                if not acc[reduced]:
                    del acc[reduced]
                changed = True
                break
            if changed:
                break
    return acc


def _from_dict(acc):
    acc = {m: c for m, c in acc.items() if c}
    if any(any(a[0] == "sin" and e >= 2 for a, e in m) for m in acc):
        acc = _pythagorean_fixpoint(acc)
    terms = tuple(sorted(acc.items(), key=lambda item: _mono_key(item[0])))
    return Expr(terms)


# -- constructors -----------------------------------------------------


def sym(name):
    """The coordinate `name` as an expression."""
    if not isinstance(name, str) or not name:
        raise DomainError(f"coordinate name must be a nonempty string, got {name!r}")
    return _from_dict({((("sym", name), 1),): _F1})


def rat(p, q=1):
    c = Fraction(p, q) if q != 1 else Fraction(p)
    if c == 0:
        return ZERO
    return _from_dict({(): c})


def exp_of(u):
    u = _as_expr(u)
    if u.is_zero:
        return ONE
    return _from_dict({((("exp", u), 1),): _F1})


def sin_of(u):
    u = _as_expr(u)
    if u.is_zero:
        return ZERO
    return _from_dict({((("sin", u), 1),): _F1})


def cos_of(u):
    u = _as_expr(u)
    if u.is_zero:
        return ONE
    return _from_dict({((("cos", u), 1),): _F1})


def opaque_fn(fname, coord):
    """Apply the opaque function `fname` to the coordinate `coord`."""
    if not isinstance(coord, str):
        raise DomainError("opaque functions apply to a coordinate name")
    return _from_dict({((("opq", fname, coord), 1),): _F1})


ZERO = Expr(())
ONE = Expr((((), _F1),))
PI = Expr(((((("pi",), 1),), _F1),))


# -- derivatives and substitution --------------------------------------


def _atom_derivative(atom, name):
    kind = atom[0]
    if kind == "sym":
        return ONE if atom[1] == name else ZERO
    if kind == "pi":
        return ZERO
    if kind == "opq":
        if atom[2] != name:
            return ZERO
        return opaque_fn(atom[1] + "'", atom[2])
    du = atom[1].diff(name)
    if du.is_zero:
        return ZERO
    if kind == "exp":
        return exp_of(atom[1]) * du
    if kind == "sin":
        return cos_of(atom[1]) * du
    if kind == "cos":
        return -sin_of(atom[1]) * du
    raise AssertionError(f"unknown atom kind {kind}")


def _subs_atom(atom, mapping):
    kind = atom[0]
    if kind == "sym":
        return mapping.get(atom[1], sym(atom[1]))
    if kind == "pi":
        return PI
    if kind == "opq":
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
    if kind == "exp":
        return exp_of(arg)
    if kind == "sin":
        return sin_of(arg)
    return cos_of(arg)


def _bare_coord(e):
    if len(e.terms) != 1:
        return None
    mono, c = e.terms[0]
    if c != 1 or len(mono) != 1:
        return None
    atom, exp = mono[0]
    if atom[0] == "sym" and exp == 1:
        return atom[1]
    return None


# -- opaque registry ---------------------------------------------------


class OpaqueRegistry:
    """Numeric callables for opaque function names.

    Callables must accept a float or an ndarray and return the same
    shape.  Lookup is by exact name, so derivatives need their own
    entry under the primed name.
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
    # Mask the denominator before dividing so the outside region never
    # produces an overflowing exponent.
    d = np.where(inside, 1.0 - arr * arr, 1.0)
    with np.errstate(under="ignore"):
        val = np.exp(1.0 - 1.0 / np.maximum(d, 1e-300))
    out = np.where(inside, val, 0.0)
    return float(out) if out.ndim == 0 else out


def bump_prime(t):
    """Derivative of bump: -2t/(1-t^2)^2 * bump(t) inside, else 0."""
    arr = np.asarray(t, dtype=float)
    inside = np.abs(arr) < 1.0
    d = np.where(inside, 1.0 - arr * arr, 1.0)
    d = np.maximum(d, 1e-300)
    with np.errstate(under="ignore"):
        val = -2.0 * arr / (d * d) * np.exp(1.0 - 1.0 / d)
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
    """Evaluate at a point.  env maps coordinate name -> Fraction or float.

    Results stay exact Fractions as long as every factor evaluates
    exactly.  A rational factor equal to zero short-circuits its whole
    term to an exact zero, which is what keeps rank computations exact
    at points on a coordinate locus even when transcendental factors
    multiply the vanishing coordinates.  Opaque functions must be
    registered before their term is inspected at all; a term that
    would short-circuit still raises on an unregistered opaque, so a
    missing registration cannot hide behind a zero.
    """
    for name in sorted(expr.opaque_names()):
        _opaque_numeric(name)
    exact_sum = _F0
    float_sum = 0.0
    has_float = False
    for mono, c in expr.terms:
        value = _eval_term(mono, c, env)
        if value is None:
            continue
        if isinstance(value, Fraction):
            exact_sum += value
        else:
            float_sum += value
            has_float = True
    if has_float:
        return float(exact_sum) + float_sum
    return exact_sum


def _env_value(env, name):
    try:
        v = env[name]
    except KeyError:
        raise EvaluationError(f"no value for coordinate {name}") from None
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, float)):
        return v
    raise EvaluationError(f"bad value for coordinate {name}: {v!r}")


def _eval_term(mono, c, env):
    # Exact pass first: rational coordinate factors and exact-foldable
    # transcendental arguments.  Returns None for an exact zero term.
    exact = c
    deferred = []
    for atom, e in mono:
        if atom[0] == "sym":
            v = _env_value(env, atom[1])
            if isinstance(v, Fraction):
                if v == 0:
                    if e < 0:
                        raise EvaluationError(
                            f"coordinate {atom[1]} is 0 but appears to power {e}"
                        )
                    return None
                exact *= v**e
            else:
                deferred.append((atom, e))
        else:
            deferred.append((atom, e))
    if not deferred:
        return exact
    # Second pass may still fold: exp(0)=1, sin(0)=0, cos(0)=1 at the
    # evaluated argument keep exactness through transcendental atoms.
    result = exact
    for atom, e in deferred:
        v = _eval_atom(atom, env)
        if isinstance(v, Fraction):
            if v == 0:
                if e < 0:
                    raise EvaluationError(f"zero atom {atom[0]} raised to power {e}")
                return None
            result = result * v**e
            continue
        if v == 0.0:
            if e < 0:
                raise EvaluationError(f"zero atom {atom[0]} raised to power {e}")
            result = result * 0.0
            continue
        result = _to_float(result) * v**e
    return result


def _to_float(x):
    return float(x) if isinstance(x, Fraction) else x


def _eval_atom(atom, env):
    kind = atom[0]
    if kind == "sym":
        return _env_value(env, atom[1])
    if kind == "pi":
        return math.pi
    if kind == "opq":
        v = _env_value(env, atom[2])
        return float(_opaque_numeric(atom[1])(float(v)))
    arg = evaluate(atom[1], env)
    if isinstance(arg, Fraction):
        if arg == 0:
            return {"exp": _F1, "sin": _F0, "cos": _F1}[kind]
        arg = float(arg)
    return {"exp": math.exp, "sin": math.sin, "cos": math.cos}[kind](arg)


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
    for mono, c in expr.terms:
        factors = [_build_atom_numpy(atom, e) for atom, e in mono]
        terms.append((float(c), factors))

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
    if kind == "sym":
        name = atom[1]
        base = lambda env: np.asarray(env[name], dtype=float)
    elif kind == "pi":
        base = lambda env: math.pi
    elif kind == "opq":
        fname, name = atom[1], atom[2]
        base = lambda env: _opaque_numeric(fname)(np.asarray(env[name], dtype=float))
    else:
        inner = _build_numpy(atom[1])
        outer = {"exp": np.exp, "sin": np.sin, "cos": np.cos}[kind]
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
    kind: str = "not_equal"


@dataclass(frozen=True)
class Undecided:
    samples: int = 0
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
            a = float(evaluate(e1, env))
            b = float(evaluate(e2, env))
            if abs(a - b) > best:
                best = abs(a - b)
                witness = (tuple(sorted(env.items())), (a, b))
        if witness and best > 0:
            return NotEqual(witness=witness[0], values=witness[1])
        return NotEqual()
    for name in sorted(e1.opaque_names() | e2.opaque_names()):
        if not DEFAULT_REGISTRY.known(name):
            return Undecided(samples=0)
    for _ in range(_SEMANTIC_SAMPLES):
        env = {c: _dyadic(rng) for c in coords}
        a = float(evaluate(e1, env))
        b = float(evaluate(e2, env))
        scale = max(1.0, abs(a), abs(b))
        if abs(a - b) > tol * scale:
            return NotEqual(witness=tuple(sorted(env.items())), values=(a, b))
    return Undecided(samples=_SEMANTIC_SAMPLES)
