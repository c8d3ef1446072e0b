"""Scenario elaboration, check execution, and reports.

The runner turns a parsed scenario into engine objects, executes each
check, and collects one record per check.  A record carries the engine
verdict (pass, fail, undecided, error), the declared expectation, and
whether the two agree; a scenario passes when every check agrees with
its declaration.  Undecided and error verdicts only count as agreement
under `expect report`.

Reports are pure functions of (scenario text, seed, samples, tol): all
randomness is hash-derived per check, evidence carries no timing, and
JSON output is key-sorted, so two runs with the same inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import dsl
from .charts import Chart, ChartMap, DForm, Metric, VectorField, function_form
from .errors import ElaborationError, NsxError
from .locus import (
    DEFAULT_MARGIN,
    CoordLocus,
    EmptyLocus,
    ImageLocus,
    LocusSampler,
    PointsLocus,
    Region,
    UnionLocus,
    derive_seed,
    off_locus_envs,
    region_envs,
    verify_dividing_set,
    verify_fixed_points,
    verify_positive,
    verify_rank_drop_locus,
    verify_vanishing_locus,
)
from .pointcheck import (
    contact_test,
    gradient_rank_at,
    near_symplectic_at,
    rank_at,
    stabilizing_constant_search,
)
from .props import run_property_battery
from .symexpr import (
    PI,
    Equal,
    NotEqual,
    cos_of,
    exp_of,
    opaque_fn,
    rat,
    semantically_equal,
    sin_of,
    sym,
)
from .sympl import graph_straightening

__all__ = [
    "RunConfig",
    "CheckRecord",
    "ScenarioReport",
    "SuiteReport",
    "run_scenario_text",
    "run_suite",
    "report_json",
    "report_text",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0xC0FFEE
REPORT_VERSION = "1"


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    samples: int | None = None
    tol: float = 1e-9

    def region_count(self, declared):
        if self.samples is None:
            return declared
        return min(declared, max(8, self.samples**3))

    def grid_n(self, declared):
        if self.samples is not None:
            return self.samples
        return 64 if declared is None else declared


@dataclass
class CheckRecord:
    index: int
    kind: str
    verdict: str  # pass fail undecided error
    expect: str
    ok: bool
    anchor: str
    detail: str
    evidence: dict


@dataclass
class ScenarioReport:
    sid: str
    anchor: str
    status: str  # pass fail
    checks: list


@dataclass
class SuiteReport:
    seed: int
    scenarios: list

    @property
    def passed(self):
        return all(s.status == "pass" for s in self.scenarios)


# ---------------------------------------------------------------------------
# Elaboration


class Scope:
    """Every name a scenario declares, each exactly once.

    `names` maps a name to (kind, value) in declaration order.  A kind is
    one of chart, param, opaque, const, form, field, map, metric, region,
    locus; a param's value is its own symbol and an opaque's is None.
    """

    def __init__(self, config):
        self.config = config
        self.names = {}

    def declare(self, kind, name, value):
        if name in self.names:
            raise ElaborationError(f"{name!r} is already defined")
        self.names[name] = (kind, value)

    def named(self, kind, name):
        entry = self.names.get(name)
        if entry is None or entry[0] != kind:
            raise ElaborationError(f"unknown {kind} {name!r}")
        return entry[1]

    def of_kind(self, kind):
        """(name, value) of every name of one kind, in declaration order."""
        return [(n, v) for n, (k, v) in self.names.items() if k == kind]


def _scalar_of(value, what="a scalar"):
    if isinstance(value, DForm) and value.degree == 0:
        return value.coefficient(())
    raise ElaborationError(f"expected {what} (a degree-0 form)")


def _value(scope, chart, node):
    """Elaborate an expression AST against a chart.

    Scalars are degree-0 forms throughout; the result is a DForm or a
    VectorField and binary operators dispatch on the operand kinds.
    """
    if isinstance(node, dsl.Num):
        return function_form(chart, rat(node.value))
    if isinstance(node, dsl.Pi):
        return function_form(chart, PI)
    if isinstance(node, dsl.Ref):
        name = node.name
        if name in chart.coords:
            return function_form(chart, sym(name))
        kind, value = scope.names.get(name, (None, None))
        if kind in ("param", "const"):
            return function_form(chart, value)
        if kind in ("form", "field"):
            if value.chart != chart:
                raise ElaborationError(
                    f"{kind} {name!r} lives on chart {value.chart.name}, not {chart.name}"
                )
            return value
        raise ElaborationError(f"unknown name {name!r}")
    if isinstance(node, dsl.Call):
        name = node.name
        if name in ("exp", "sin", "cos"):
            arg = _scalar_of(_value(scope, chart, node.arg), f"the argument of {name}")
            fn = {"exp": exp_of, "sin": sin_of, "cos": cos_of}[name]
            return function_form(chart, fn(arg))
        kind, _ = scope.names.get(name, (None, None))
        if kind == "opaque":
            arg = _scalar_of(_value(scope, chart, node.arg), f"the argument of {name}")
            for c in chart.coords:
                if arg == sym(c):
                    return function_form(chart, opaque_fn(name, c))
            raise ElaborationError(
                f"opaque {name!r} takes a bare coordinate argument"
            )
        kind, vf = scope.names.get(name[2:], (None, None))
        if name.startswith("i_") and kind == "field":
            arg = _value(scope, chart, node.arg)
            if not isinstance(arg, DForm):
                raise ElaborationError("interior product needs a form")
            return arg.interior(vf)
        raise ElaborationError(f"unknown function {name!r}")
    if isinstance(node, dsl.D):
        arg = _value(scope, chart, node.arg)
        if not isinstance(arg, DForm):
            raise ElaborationError("d applies to forms")
        return arg.d()
    if isinstance(node, dsl.Basis):
        if node.coord not in chart.coords:
            raise ElaborationError(f"unknown coordinate {node.coord!r}")
        return VectorField.build(chart, [(node.coord, rat(1))])
    if isinstance(node, dsl.Pullback):
        cmap = scope.named("map", node.map_name)
        if cmap.source != chart:
            raise ElaborationError(
                f"pullback through {node.map_name!r} lands on {cmap.source.name}, not {chart.name}"
            )
        inner = _value(scope, cmap.target, node.arg)
        if not isinstance(inner, DForm):
            raise ElaborationError("pullback applies to forms")
        return cmap.pullback(inner)
    if isinstance(node, dsl.Star):
        metric = scope.named("metric", node.metric_name)
        if metric.chart != chart:
            raise ElaborationError(
                f"metric {node.metric_name!r} lives on {metric.chart.name}, not {chart.name}"
            )
        inner = _value(scope, chart, node.arg)
        if not isinstance(inner, DForm):
            raise ElaborationError("star applies to forms")
        return metric.star(inner)
    if isinstance(node, dsl.Neg):
        return -_value(scope, chart, node.arg)
    if isinstance(node, dsl.Bin):
        return _bin_value(scope, chart, node)
    raise ElaborationError(f"unsupported expression node {type(node).__name__}")


def _bin_value(scope, chart, node):
    op = node.op
    if op == "^":
        base = _value(scope, chart, node.left)
        k = node.right.value
        if isinstance(base, DForm) and base.degree == 0:
            return function_form(chart, base.coefficient(()) ** k)
        if isinstance(base, DForm):
            if k < 0:
                raise ElaborationError("negative powers need a scalar base")
            return base.wedge_power(k)
        raise ElaborationError("powers apply to forms")
    left = _value(scope, chart, node.left)
    right = _value(scope, chart, node.right)
    if op in ("+", "-"):
        if isinstance(left, DForm) != isinstance(right, DForm):
            raise ElaborationError(f"cannot mix forms and fields under {op!r}")
        try:
            return left + right if op == "+" else left - right
        except NsxError:
            raise
        except TypeError:
            raise ElaborationError(f"incompatible operands for {op!r}")
    if op == "/":
        divisor = _scalar_of(right, "a scalar divisor")
        recip = rat(1) / divisor
        return left * recip
    # wedge-class operator
    if isinstance(left, DForm) and isinstance(right, DForm):
        return left.wedge(right)
    if isinstance(left, DForm) and left.degree == 0 and isinstance(right, VectorField):
        return right * left.coefficient(())
    if isinstance(right, DForm) and right.degree == 0 and isinstance(left, VectorField):
        return left * right.coefficient(())
    raise ElaborationError("cannot multiply two vector fields")


def _infer_value(scope, node):
    """Elaborate against each declared chart until one accepts."""
    first_error = None
    for _, chart in scope.of_kind("chart"):
        try:
            return _value(scope, chart, node)
        except NsxError as e:
            if first_error is None:
                first_error = e
    if first_error is not None:
        raise first_error
    raise ElaborationError("no charts are declared")


def _subs_value(value, mapping):
    if not mapping:
        return value
    if isinstance(value, DForm):
        return DForm.build(
            value.chart,
            value.degree,
            [(k, e.subs(mapping)) for k, e in value.comps.items()],
        )
    return VectorField(value.chart, {i: e.subs(mapping) for i, e in value.comps.items()})


def elaborate_scope(scenario, config):
    scope = Scope(config)
    for stmt in scenario.statements:
        try:
            _elaborate_statement(scope, stmt)
        except NsxError as e:
            raise ElaborationError(f"line {stmt.line}: {e}") from None
    return scope


def _elaborate_statement(scope, stmt):
    if isinstance(stmt, dsl.ChartStmt):
        scope.declare("chart", stmt.name, Chart(stmt.name, stmt.coords))
    elif isinstance(stmt, dsl.ParamStmt):
        for name in stmt.names:
            scope.declare("param", name, sym(name))
    elif isinstance(stmt, dsl.OpaqueStmt):
        for name in stmt.names:
            scope.declare("opaque", name, None)
    elif isinstance(stmt, dsl.ConstStmt):
        expr = _scalar_of(_infer_value(scope, stmt.expr), "a constant")
        scope.declare("const", stmt.name, expr)
    elif isinstance(stmt, (dsl.FormStmt, dsl.VFieldStmt)):
        kind = "form" if isinstance(stmt, dsl.FormStmt) else "field"
        value = _value(scope, scope.named("chart", stmt.chart), stmt.expr)
        got = "field" if isinstance(value, VectorField) else "form"
        if got != kind:
            raise ElaborationError(f"{stmt.name!r} elaborates to a {got}, not a {kind}")
        scope.declare(kind, stmt.name, value)
    elif isinstance(stmt, dsl.MapStmt):
        source = scope.named("chart", stmt.source)
        target = scope.named("chart", stmt.target)
        comps = tuple(
            _scalar_of(_value(scope, source, c), "a map component")
            for c in stmt.comps
        )
        scope.declare("map", stmt.name, ChartMap(stmt.name, source, target, comps))
    elif isinstance(stmt, dsl.MetricStmt):
        chart = scope.named("chart", stmt.chart)
        metric = (
            Metric.euclidean(chart)
            if not stmt.diag
            else Metric.diagonal(chart, stmt.diag)
        )
        scope.declare("metric", stmt.name, metric)
    elif isinstance(stmt, dsl.RegionStmt):
        chart = scope.named("chart", stmt.chart)
        count = scope.config.region_count(stmt.random_count)
        scope.declare("region", stmt.name, Region(chart, stmt.intervals, stmt.lattice, count))
    elif isinstance(stmt, dsl.LocusStmt):
        scope.declare("locus", stmt.name, _elaborate_locus(scope, stmt))
    elif not isinstance(stmt, dsl.CheckStmt):
        raise ElaborationError(f"unsupported statement {type(stmt).__name__}")


def _elaborate_locus(scope, stmt):
    chart = scope.named("chart", stmt.chart)
    if stmt.flavour == "empty":
        return EmptyLocus(chart)
    if stmt.flavour == "coords":
        return CoordLocus(chart, tuple(stmt.payload))
    if stmt.flavour == "points":
        pts = []
        for values in stmt.payload:
            if len(values) != chart.dim:
                raise ElaborationError(
                    f"point has {len(values)} coordinates, chart {chart.name} has {chart.dim}"
                )
            pts.append(tuple(zip(chart.coords, values)))
        return PointsLocus(chart, tuple(pts))
    if stmt.flavour == "image":
        map_name, region_name = stmt.payload
        region = scope.named("region", region_name)
        cmap = None if map_name == "id" else scope.named("map", map_name)
        locus = ImageLocus(cmap, region)
        if locus.chart != chart:
            raise ElaborationError("image locus lands on a different chart")
        return locus
    if stmt.flavour == "union":
        parts = tuple(scope.named("locus", n) for n in stmt.payload)
        return UnionLocus(parts)
    raise ElaborationError(f"unknown locus flavour {stmt.flavour!r}")


# ---------------------------------------------------------------------------
# Check execution


class _Ctx:
    def __init__(self, scope, stmt, sid, index, config):
        self.scope = scope
        self.stmt = stmt
        self.sid = sid
        self.index = index
        self.config = config
        self.seed = derive_seed(config.seed, sid, index)
        self.tol = config.tol
        for name, _ in stmt.where:
            scope.named("param", name)  # `where` binds declared params only
        self.where = {name: rat(v) for name, v in stmt.where}

    def form(self, node, degree=None, what="a form"):
        value = _subs_value(_infer_value(self.scope, node), self.where)
        if not isinstance(value, DForm):
            raise ElaborationError(f"expected {what}")
        if degree is not None and value.degree != degree:
            raise ElaborationError(
                f"expected {what} of degree {degree}, got degree {value.degree}"
            )
        return value

    def scalar(self, node, what="a scalar"):
        return self.form(node, degree=0, what=what).coefficient(())

    def vfield(self, name):
        return _subs_value(self.scope.named("field", name), self.where)

    def point_env(self, pairs, chart):
        env = dict(pairs)
        missing = set(chart.coords) - set(env)
        extra = set(env) - set(chart.coords)
        if missing or extra:
            raise ElaborationError(
                f"point must assign exactly the coordinates of {chart.name}"
            )
        return env

    def locus(self, name):
        return self.scope.named("locus", name)

    def region(self, name):
        return self.scope.named("region", name)

    def via(self, name):
        return None if name is None else self.scope.named("map", name)

    def margin(self, value):
        return DEFAULT_MARGIN if value is None else value


def _locus_result(report, evidence, detail):
    """Verdict, evidence and detail of a locus report; a nonzero
    non-finite or band count is added to the evidence and the detail."""
    if report.non_finite:
        evidence["non_finite"] = report.non_finite
        detail += f", {report.non_finite} non-finite"
    if report.band:
        evidence["band"] = report.band
        detail += f", {report.band} in band"
    if report.undecided:
        verdict = "undecided"
    else:
        verdict = "pass" if report.passed else "fail"
    return verdict, evidence, f"({detail})"


def _locus_report_result(report):
    evidence = {
        "on_count": report.on_count,
        "off_count": report.off_count,
        "on_failures": report.on_failures,
        "off_failures": report.off_failures,
        "counterexamples": report.counterexamples,
        "notes": report.notes,
    }
    detail = (
        f"{report.on_count - report.on_failures}/{report.on_count} on-locus, "
        f"{report.off_count - report.off_failures - report.non_finite - report.band}/{report.off_count} off-locus"
    )
    return _locus_result(report, evidence, detail)


def _compare_forms(left, right, ctx, evidence):
    if left.chart != right.chart:
        raise ElaborationError("cannot compare forms on different charts")
    if left.degree != right.degree:
        evidence["status"] = "degree mismatch"
        evidence["degrees"] = [left.degree, right.degree]
        return "fail", f"(degree {left.degree} vs {right.degree})"
    keys = sorted(set(left.comps) | set(right.comps))
    evidence["coefficients"] = len(keys)
    undecided = non_finite = 0
    for key in keys:
        a = left.coefficient(key)
        b = right.coefficient(key)
        outcome = semantically_equal(a, b, seed=ctx.seed, tol=ctx.tol)
        if isinstance(outcome, Equal):
            continue
        non_finite += outcome.non_finite
        if non_finite:
            evidence["non_finite"] = non_finite
        if isinstance(outcome, NotEqual):
            evidence["status"] = "not equal"
            evidence["differs_at"] = list(key)
            if outcome.witness is not None:
                evidence["witness"] = dict(outcome.witness)
                evidence["values"] = list(outcome.values)
            return "fail", f"(differs at {list(key)})"
        undecided += 1
    if undecided:
        evidence["status"] = "undecided"
        evidence["undecided_coefficients"] = undecided
        return "undecided", f"({undecided} coefficients undecided)"
    evidence["status"] = "equal"
    return "pass", "(equal)"


def _run_closed(ctx, p):
    form = ctx.form(p["form"])
    residual = form.d()
    n = len(residual.comps)
    evidence = {"degree": form.degree, "residual_terms": n}
    if n:
        worst = sorted(residual.comps)[0]
        evidence["first_residual"] = {"indices": list(worst), "value": str(residual.comps[worst])}
    return ("pass" if n == 0 else "fail"), evidence, "(exact)" if n == 0 else f"({n} residual terms)"


def _run_equal(ctx, p):
    left = ctx.form(p["left"])
    right = ctx.form(p["right"])
    evidence = {}
    verdict, detail = _compare_forms(left, right, ctx, evidence)
    return verdict, evidence, detail


def _run_pullback_eq(ctx, p):
    cmap = ctx.scope.named("map", p["map"])
    upstairs = _subs_value(_value(ctx.scope, cmap.target, p["form"]), ctx.where)
    if not isinstance(upstairs, DForm):
        raise ElaborationError("pullback_eq needs a form on the target chart")
    expected = _subs_value(_value(ctx.scope, cmap.source, p["expected"]), ctx.where)
    if not isinstance(expected, DForm):
        raise ElaborationError("pullback_eq needs a form on the source chart")
    computed = cmap.pullback(upstairs)
    evidence = {"map": cmap.name}
    verdict, detail = _compare_forms(computed, expected, ctx, evidence)
    return verdict, evidence, detail


def _sample_envs(ctx, p, chart):
    """The declared point, or the samples on or off the declared locus."""
    if p["mode"] == "at":
        return [ctx.point_env(p["point"], chart)]
    locus = ctx.locus(p["locus"])
    region = ctx.region(p["region"])
    sampler = LocusSampler(locus, region, ctx.seed)
    cap = p["points"]
    if p["mode"] == "on":
        envs = sampler.on_envs
        return envs if cap is None else envs[:cap]
    count = 8 if cap is None else cap
    envs, exhausted = off_locus_envs(sampler, ctx.margin(p["margin"]), count, ctx.seed)
    if exhausted:
        raise ElaborationError("not enough off-locus samples in the region")
    return envs


def _run_rank_at(ctx, p):
    form = ctx.form(p["form"])
    expected = p["rank"]
    envs = _sample_envs(ctx, p, form.chart)
    failures = []
    undecided = 0
    for env in envs:
        v = rank_at(form, env)
        if v.undecided:
            undecided += 1
        elif v.rank != expected:
            failures.append({"point": {c: str(x) for c, x in env.items()}, "rank": v.rank})
    evidence = {
        "expected": expected,
        "points": len(envs),
        "mismatches": len(failures),
        "undecided": undecided,
    }
    if failures:
        evidence["first_mismatch"] = failures[0]
    if undecided:
        return "undecided", evidence, f"({undecided} of {len(envs)} points undecided)"
    if failures:
        return "fail", evidence, f"(rank {failures[0]['rank']}, expected {expected})"
    detail = f"(rank {expected}" + (f" at {len(envs)} points)" if len(envs) > 1 else ")")
    return "pass", evidence, detail


def _run_gradient_rank_at(ctx, p):
    form = ctx.form(p["form"])
    env = ctx.point_env(p["point"], form.chart)
    v = gradient_rank_at(form, env)
    evidence = {"expected": p["rank"], "rank": v.rank, "exact": v.exact}
    if v.undecided:
        return "undecided", evidence, "(rank undecided)"
    if v.rank != p["rank"]:
        return "fail", evidence, f"(rank {v.rank}, expected {p['rank']})"
    return "pass", evidence, f"(rank {v.rank})"


def _run_nearsympl_at(ctx, p):
    form = ctx.form(p["form"])
    envs = _sample_envs(ctx, p, form.chart)
    failures = []
    q_signs = set()
    consistent = True
    for env in envs:
        v = near_symplectic_at(form, env)
        if v.passed:
            q_signs.add(v.q_sign)
            if v.grad_kernel_consistent is False:
                consistent = False
        else:
            failures.append(
                {"point": {c: str(x) for c, x in env.items()}, "reason": v.reason}
            )
    evidence = {
        "points": len(envs),
        "failures": len(failures),
        "q_signs": sorted(s for s in q_signs if s),
        "grad_kernel_consistent": consistent,
    }
    if failures:
        evidence["first_failure"] = failures[0]
        return "fail", evidence, f"({failures[0]['reason']})"
    return "pass", evidence, f"({len(envs)} points)"


def _run_contact(ctx, p):
    form = ctx.form(p["form"], degree=1, what="a 1-form")
    maps = [ctx.scope.named("map", m) for m in p["maps"]]
    parametrizations = maps if maps else [None]
    grid = ctx.config.grid_n(p["grid"])
    aux = 8 if p["aux"] is None else p["aux"]
    verdict = contact_test(
        form,
        parametrizations,
        grid_n=grid,
        aux_count=aux,
        seed=ctx.seed,
        tol=ctx.tol,
    )
    charts_ev = []
    symbolic = []
    pos = neg = zero = 0
    for rep in verdict.charts:
        entry = {
            "label": rep.label,
            "mode": rep.mode,
            "sign": rep.sign,
            "samples": rep.samples,
            "positive": rep.n_pos,
            "negative": rep.n_neg,
            "zero": rep.n_zero,
            "jacobian_drops": rep.jacobian_drops,
        }
        if rep.non_finite:
            entry["non_finite"] = rep.non_finite
        if rep.symbolic_value is not None:
            entry["symbolic_value"] = rep.symbolic_value
            symbolic.append(rep.symbolic_value)
        if rep.min_abs is not None:
            entry["min_abs"] = rep.min_abs
        if rep.worst_point is not None:
            entry["worst_point"] = rep.worst_point
        pos += rep.n_pos
        neg += rep.n_neg
        zero += rep.n_zero
        charts_ev.append(entry)
    evidence = {
        "reason": verdict.reason,
        "orientation_reversed": verdict.orientation_reversed,
        "charts": charts_ev,
    }
    if symbolic and all(r.mode == "symbolic" for r in verdict.charts):
        detail = f"(symbolic: {symbolic[0]})"
    elif verdict.passed:
        detail = f"({pos + neg} samples, one sign)"
    else:
        detail = f"({verdict.reason}; +{pos} -{neg} 0:{zero})"
    if verdict.undecided:
        return "undecided", evidence, detail
    return ("pass" if verdict.passed else "fail"), evidence, detail


def _run_vanishing_locus(ctx, p):
    form = ctx.form(p["form"])
    off_form = ctx.form(p["off_form"]) if p["off_form"] is not None else None
    report = verify_vanishing_locus(
        form,
        ctx.locus(p["locus"]),
        ctx.region(p["region"]),
        off_form=off_form,
        off_mode=p["off_mode"],
        via=ctx.via(p["via"]),
        margin=ctx.margin(p["margin"]),
        tol=ctx.tol,
        seed=ctx.seed,
    )
    return _locus_report_result(report)


def _run_rank_drop_locus(ctx, p):
    cmap = ctx.scope.named("map", p["map"])
    report = verify_rank_drop_locus(
        cmap,
        ctx.locus(p["locus"]),
        ctx.region(p["region"]),
        regular_rank=p["regular"],
        singular_rank=p["singular"],
        margin=ctx.margin(p["margin"]),
        seed=ctx.seed,
    )
    return _locus_report_result(report)


def _run_fixed_points(ctx, p):
    report = verify_fixed_points(
        ctx.vfield(p["field"]),
        ctx.locus(p["locus"]),
        ctx.region(p["region"]),
        via=ctx.via(p["via"]),
        margin=ctx.margin(p["margin"]),
        tol=ctx.tol,
        seed=ctx.seed,
    )
    return _locus_report_result(report)


def _run_dividing_set(ctx, p):
    alpha = ctx.form(p["alpha"], degree=1, what="a 1-form")
    scalar = ctx.scalar(p["scalar"], what="the declared pairing")
    report = verify_dividing_set(
        alpha,
        ctx.vfield(p["field"]),
        scalar,
        ctx.locus(p["locus"]),
        ctx.region(p["region"]),
        via=ctx.via(p["via"]),
        margin=ctx.margin(p["margin"]),
        tol=ctx.tol,
        seed=ctx.seed,
    )
    return _locus_report_result(report)


def _run_bracket_table(ctx, p):
    dim = p["dim"]
    ys = Chart(f"bt{dim}", tuple(f"y{i}" for i in range(1, dim + 1)))
    scratch = Scope(ctx.config)
    scratch.names = {n: e for n, e in ctx.scope.names.items() if e[0] in ("param", "const")}
    h = _scalar_of(_value(scratch, ys, p["h"]), "the graph function").subs(ctx.where)
    result = graph_straightening(h, dim)
    offending = [
        {"pair": [a, b], "got": str(got), "expected": str(expected)}
        for a, b, got, expected in result.offending
    ]
    evidence = {
        "dim": dim,
        "offending": offending,
        "q1_vanishes_on_graph": result.q1_vanishes_on_graph,
        "pullback_is_standard": result.pullback_is_standard,
        "reindexing_identical": result.reindexing_identical,
        "notes": result.notes,
    }
    ok = result.passed and result.q1_vanishes_on_graph and result.pullback_is_standard
    if ok:
        return "pass", evidence, "(canonical table)"
    if offending:
        first = offending[0]
        return "fail", evidence, f"({len(offending)} offending, e.g. {{{first['pair'][0]},{first['pair'][1]}}} = {first['got']})"
    return "fail", evidence, "(graph checks failed)"


def _run_stabilize(ctx, p):
    eta = ctx.form(p["eta"], degree=2, what="a 2-form")
    base = ctx.form(p["base"], degree=2, what="a 2-form")
    envs = region_envs(ctx.region(p["region"]), derive_seed(ctx.seed, "stabilize"))
    k_max = (1 << 16) if p["k_max"] is None else p["k_max"]
    result = stabilizing_constant_search(eta, base, envs, k_max=k_max)
    evidence = {
        "found": result.found,
        "constant": str(result.constant) if result.constant is not None else None,
        "attempts": len(result.tried),
        "samples": len(envs),
    }
    if result.witness is not None:
        evidence["witness"] = {c: str(v) for c, v in result.witness.items()}
    if result.found:
        return "pass", evidence, f"(K = {result.constant})"
    return "fail", evidence, f"(no constant up to {k_max})"


def _run_property(ctx, p):
    passed, evidence = run_property_battery(
        p["name"], p["samples"], p["dims"], derive_seed(ctx.seed, "prop", p["name"])
    )
    evidence["name"] = p["name"]
    if "checked" in evidence:
        detail = f"({evidence['checked']} basis forms, {evidence['failures']} failures)"
    else:
        detail = f"({evidence['samples']} samples, {evidence['failures']} failures)"
    return ("pass" if passed else "fail"), evidence, detail


def _run_positive(ctx, p):
    form = ctx.form(p["form"])
    report = verify_positive(
        form,
        ctx.region(p["region"]),
        tol=ctx.tol,
        seed=ctx.seed,
    )
    evidence = {
        "samples": report.on_count,
        "failures": report.on_failures,
        "counterexamples": report.counterexamples,
    }
    return _locus_result(report, evidence, f"{report.on_count} samples")


_RUNNERS = {
    "closed": _run_closed,
    "equal": _run_equal,
    "rank_at": _run_rank_at,
    "nearsympl_at": _run_nearsympl_at,
    "gradient_rank_at": _run_gradient_rank_at,
    "contact": _run_contact,
    "vanishing_locus": _run_vanishing_locus,
    "rank_drop_locus": _run_rank_drop_locus,
    "fixed_points": _run_fixed_points,
    "dividing_set": _run_dividing_set,
    "pullback_eq": _run_pullback_eq,
    "bracket_table": _run_bracket_table,
    "stabilize": _run_stabilize,
    "property": _run_property,
    "positive": _run_positive,
}


def run_check(scope, stmt, sid, index, config):
    try:
        ctx = _Ctx(scope, stmt, sid, index, config)
        verdict, evidence, detail = _RUNNERS[stmt.kind](ctx, stmt.payload)
    except NsxError as e:
        verdict, evidence, detail = "error", {"error": str(e)}, "(error)"
    except Exception as e:  # an engine fault is this check's error, not the suite's
        verdict, evidence, detail = "error", {"error": str(e), "exception": type(e).__name__}, "(error)"
    ok = stmt.expect == "report" or verdict == stmt.expect
    return CheckRecord(
        index=index,
        kind=stmt.kind,
        verdict=verdict,
        expect=stmt.expect,
        ok=ok,
        anchor=stmt.note,
        detail=detail,
        evidence=evidence,
    )


def run_scenario_text(text, sid, anchor, config=None):
    config = config or RunConfig()
    scenario = dsl.parse_scenario(text)
    try:
        scope = elaborate_scope(scenario, config)
    except NsxError as e:
        record = CheckRecord(
            index=0,
            kind="elaboration",
            verdict="error",
            expect="pass",
            ok=False,
            anchor="",
            detail="(error)",
            evidence={"error": str(e)},
        )
        return ScenarioReport(sid=sid, anchor=anchor, status="fail", checks=[record])
    checks = [
        run_check(scope, stmt, sid, i, config)
        for i, stmt in enumerate(scenario.checks())
    ]
    status = "pass" if checks and all(c.ok for c in checks) else "fail"
    if not checks:
        status = "pass"
    return ScenarioReport(sid=sid, anchor=anchor, status=status, checks=checks)


def run_suite(only=None, config=None):
    from .scenarios import SUITE

    config = config or RunConfig()
    wanted = None if only is None else set(only)
    reports = []
    for sid, anchor, text in SUITE:
        if wanted is not None and sid not in wanted:
            continue
        reports.append(run_scenario_text(text, sid, anchor, config))
    return SuiteReport(seed=config.seed, scenarios=reports)


# ---------------------------------------------------------------------------
# Serialization


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


def suite_dict(suite):
    return {
        "version": REPORT_VERSION,
        "seed": suite.seed,
        "scenarios": [
            {
                "id": s.sid,
                "anchor": s.anchor,
                "status": s.status,
                "checks": [
                    {
                        "index": c.index,
                        "kind": c.kind,
                        "verdict": c.verdict,
                        "expect": c.expect,
                        "ok": c.ok,
                        "anchor": c.anchor,
                        "detail": c.detail,
                        "evidence": _jsonable(c.evidence),
                    }
                    for c in s.checks
                ],
            }
            for s in suite.scenarios
        ],
    }


def report_json(suite):
    return json.dumps(suite_dict(suite), sort_keys=True, indent=2) + "\n"


def report_text(suite):
    lines = []
    for s in suite.scenarios:
        for c in s.checks:
            mark = "" if c.ok else " [unexpected]"
            declared = " [declared fail]" if c.expect == "fail" and c.ok else ""
            lines.append(
                f"{s.sid}.{c.index} {c.kind} {c.verdict.upper()} {c.detail}{declared}{mark}"
            )
        agreed = sum(1 for c in s.checks if c.ok)
        lines.append(f"{s.sid}: {s.status} ({agreed}/{len(s.checks)} checks as declared)")
    n_pass = sum(1 for s in suite.scenarios if s.status == "pass")
    lines.append(f"suite: {'pass' if suite.passed else 'fail'} ({n_pass}/{len(suite.scenarios)} scenarios)")
    return "\n".join(lines) + "\n"
