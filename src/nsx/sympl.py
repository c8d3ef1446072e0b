r"""Hamiltonian fields, Poisson brackets, and graph straightening.

Everything works over a symplectic chart whose 2-form has constant
rational coefficients; that keeps the form invertible by exact linear
algebra and covers every use downstream.  The sign convention is fixed
once: the Hamiltonian field of H satisfies

    i_{X_H} omega = dH

so on a standard pair (p, q) with omega = dp/\dq we get X_p = -e(q),
X_q = e(p), and {p, q} = omega(X_p, X_q) = 1.
"""

from __future__ import annotations

from fractions import Fraction

from . import _linalg
from .charts import Chart, ChartMap, DForm, VectorField
from .errors import DomainError
from .records import Record
from .symexpr import rat, sym

__all__ = [
    "SymplecticChart",
    "standard_symplectic_chart",
    "hamiltonian_vector_field",
    "poisson_bracket",
    "StraighteningResult",
    "graph_straightening",
]


class SymplecticChart:
    """A chart with a constant-coefficient symplectic 2-form."""

    __slots__ = ("chart", "omega", "_x_matrix")

    def __init__(self, chart, omega):
        n = chart.dim
        if n % 2:
            raise DomainError("symplectic charts have even dimension")
        if omega.chart != chart or omega.degree != 2:
            raise DomainError("omega must be a 2-form on the chart")
        mat = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), coeff in omega.comps.items():
            if not coeff.is_rational:
                raise DomainError(
                    "only constant-coefficient symplectic forms are supported"
                )
            c = coeff.as_fraction()
            mat[i][j] = c
            mat[j][i] = -c
        if _linalg.exact_rank(mat) != n:
            raise DomainError("the 2-form is degenerate")
        self.chart = chart
        self.omega = omega
        # X_H = (Omega^{-1})^T grad H, from X^T Omega = (dH)^T.
        inv = _linalg.exact_inverse(mat)
        self._x_matrix = [[inv[j][i] for j in range(n)] for i in range(n)]


def standard_symplectic_chart(names):
    r"""Standard chart over the given coordinate names, paired in order:
    omega = d<c1>/\d<c2> + d<c3>/\d<c4> + ...
    """
    chart = Chart("std_" + "_".join(names), tuple(names))
    n = chart.dim
    if n % 2:
        raise DomainError("need an even number of coordinates")
    omega = DForm.build(
        chart, 2, [((2 * i, 2 * i + 1), rat(1)) for i in range(n // 2)]
    )
    return SymplecticChart(chart, omega)


def hamiltonian_vector_field(h, s):
    """The field X with i_X omega = dh, for h an Expr on s.chart."""
    extra = h.free_coords() - set(s.chart.coords)
    if extra:
        raise DomainError(f"h depends on {sorted(extra)} outside the chart")
    grad = [h.diff(c) for c in s.chart.coords]
    return VectorField.build(s.chart, [
        (i, rat(m) * grad[j])
        for i, row in enumerate(s._x_matrix)
        for j, m in enumerate(row)
        if m
    ])


def poisson_bracket(f, g, s):
    """{f, g} = omega(X_f, X_g), computed as the derivative of f along X_g."""
    return hamiltonian_vector_field(g, s).apply_to(f)


class StraighteningResult(Record):
    _fields = (
        "h", "dim", "names", "exprs", "brackets", "offending", "passed", "q1_vanishes_on_graph",
        "pullback_is_standard", "reindexing_identical", "notes",
    )

    def __init__(
        self, h, dim, names, exprs, brackets, offending, passed, q1_vanishes_on_graph, pullback_is_standard,
        reindexing_identical, notes=None,
    ):
        self.h = h
        self.dim = dim
        self.names = names  # ordered function names p1, q1, p2, q2, ...
        self.exprs = exprs  # name -> Expr in the y coordinates
        self.brackets = brackets  # (name_a, name_b) -> Expr, a before b in `names`
        self.offending = offending  # (name_a, name_b, got Expr, expected Fraction)
        self.passed = passed
        self.q1_vanishes_on_graph = q1_vanishes_on_graph
        self.pullback_is_standard = pullback_is_standard
        self.reindexing_identical = reindexing_identical
        self.notes = [] if notes is None else notes


def graph_straightening(h, dim):
    """Candidate symplectic coordinates adapted to the graph y_2n = h(y).

    Constructs p1 = y_{2n-1}, q1 = y_{2n} - h, and for i = 2..n the
    pairs p_i = y_{2i-3}, q_i = y_{2i-2}, then evaluates every Poisson
    bracket against the canonical relations.  A failing table is a
    result, not an error: the offending brackets are listed and the
    verdict is fail.

    Also computed: the same construction with the untouched coordinates
    paired in their chart order (which turns out to assign identical
    expressions, and the result records that), whether q1 restricted to
    the graph is exactly 0, and whether pulling the standard form back
    through the new coordinates returns the standard form.
    """
    if dim % 2 or dim < 2:
        raise DomainError("graph straightening needs even dimension >= 2")
    n = dim // 2
    ys = tuple(f"y{i}" for i in range(1, dim + 1))
    s = standard_symplectic_chart(ys)
    allowed = set(ys[:-1])
    extra = h.free_coords() - allowed
    if extra:
        raise DomainError(f"graph function may not depend on {sorted(extra)}")

    exprs = {
        "p1": sym(ys[dim - 2]),
        "q1": sym(ys[dim - 1]) - h,
    }
    names = ["p1", "q1"]
    for i in range(2, n + 1):
        exprs[f"p{i}"] = sym(ys[2 * i - 4])  # y_{2i-3}, 1-based
        exprs[f"q{i}"] = sym(ys[2 * i - 3])  # y_{2i-2}
        names += [f"p{i}", f"q{i}"]

    # Natural reindexing: pair the coordinates not consumed by (p1, q1)
    # consecutively in chart order.
    natural = {"p1": exprs["p1"], "q1": exprs["q1"]}
    untouched = [c for c in ys if c not in (ys[dim - 2], ys[dim - 1])]
    for i in range(2, n + 1):
        natural[f"p{i}"] = sym(untouched[2 * (i - 2)])
        natural[f"q{i}"] = sym(untouched[2 * (i - 2) + 1])
    reindexing_identical = all(natural[k] == exprs[k] for k in names)

    brackets = {}
    offending = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            na, nb = names[a], names[b]
            got = poisson_bracket(exprs[na], exprs[nb], s)
            brackets[(na, nb)] = got
            expected = rat(0)
            if na[0] == "p" and nb[0] == "q" and na[1:] == nb[1:]:
                expected = rat(1)
            if got != expected:
                offending.append((na, nb, got, expected))
    passed = not offending

    q1_graph = exprs["q1"].subs({ys[dim - 1]: h})
    q1_ok = q1_graph.is_zero

    target = standard_symplectic_chart(tuple(names))
    phi = ChartMap("straighten", s.chart, target.chart, tuple(exprs[k] for k in names))
    pulled = phi.pullback(target.omega)
    pullback_ok = pulled == s.omega

    notes = []
    if reindexing_identical:
        notes.append(
            "pairing the untouched coordinates in chart order reproduces the"
            " stated index pattern exactly; both assignments were evaluated"
        )
    return StraighteningResult(
        h=h,
        dim=dim,
        names=names,
        exprs=exprs,
        brackets=brackets,
        offending=offending,
        passed=passed,
        q1_vanishes_on_graph=q1_ok,
        pullback_is_standard=pullback_ok,
        reindexing_identical=reindexing_identical,
        notes=notes,
    )
