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
from fractions import Fraction

from . import dsl
from .charts import Chart, ChartMap, DForm, Metric, VectorField, function_form, zero_form
from .errors import ElaborationError, InternalError, NsxError
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
    Outcome,
    check_tolerance,
    contact_test,
    gradient_rank_at,
    near_symplectic_at,
    point_claim,
    rank_at,
    rank_claim,
    stabilizing_constant_search,
)
from .points import points_of
from .props import run_property_battery
from .records import FrozenRecord, Record
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


class RunConfig(FrozenRecord):
    _fields = ("seed", "samples", "tol")

    def __init__(self, seed=DEFAULT_SEED, samples=None, tol=1e-9):
        vars(self).update(seed=seed, samples=samples, tol=check_tolerance(tol))

    def region_count(self, declared):
        if self.samples is None:
            return declared
        return min(declared, max(8, self.samples**3))

    def grid_n(self, declared):
        if self.samples is not None:
            return self.samples
        return 64 if declared is None else declared


class CheckRecord(Record):
    _fields = ("index", "kind", "verdict", "expect", "ok", "anchor", "detail", "evidence")

    def __init__(self, index, kind, verdict, expect, ok, anchor, detail, evidence):
        self.index = index
        self.kind = kind
        self.verdict = verdict  # pass fail undecided error
        self.expect = expect
        self.ok = ok
        self.anchor = anchor
        self.detail = detail
        self.evidence = evidence


class ScenarioReport(Record):
    _fields = ("sid", "anchor", "status", "checks")

    def __init__(self, sid, anchor, status, checks):
        self.sid = sid
        self.anchor = anchor
        self.status = status  # pass fail
        self.checks = checks


class SuiteReport(Record):
    _fields = ("seed", "scenarios")

    def __init__(self, seed, scenarios):
        self.seed = seed
        self.scenarios = scenarios

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
    keyword = stmt.keyword
    if keyword == "chart":
        scope.declare("chart", stmt.name, Chart(stmt.name, stmt.coords))
    elif keyword in ("param", "opaque"):
        for name in stmt.names:
            scope.declare(keyword, name, sym(name) if keyword == "param" else None)
    elif keyword == "const":
        expr = _scalar_of(_infer_value(scope, stmt.expr), "a constant")
        scope.declare("const", stmt.name, expr)
    elif keyword in ("form", "vfield"):
        kind = "form" if keyword == "form" else "field"
        value = _value(scope, scope.named("chart", stmt.chart), stmt.expr)
        got = "field" if isinstance(value, VectorField) else "form"
        if got != kind:
            raise ElaborationError(f"{stmt.name!r} elaborates to a {got}, not a {kind}")
        scope.declare(kind, stmt.name, value)
    elif keyword == "map":
        source = scope.named("chart", stmt.source)
        target = scope.named("chart", stmt.target)
        comps = tuple(
            _scalar_of(_value(scope, source, c), "a map component")
            for c in stmt.comps
        )
        scope.declare("map", stmt.name, ChartMap(stmt.name, source, target, comps))
    elif keyword == "metric":
        chart = scope.named("chart", stmt.chart)
        metric = (
            Metric.euclidean(chart)
            if not stmt.diag
            else Metric.diagonal(chart, stmt.diag)
        )
        scope.declare("metric", stmt.name, metric)
    elif keyword == "region":
        chart = scope.named("chart", stmt.chart)
        count = scope.config.region_count(stmt.random_count)
        scope.declare("region", stmt.name, Region(chart, stmt.intervals, stmt.lattice, count))
    elif keyword == "locus":
        scope.declare("locus", stmt.name, _elaborate_locus(scope, stmt))
    elif keyword != "check":
        raise ElaborationError(f"unsupported statement {keyword}")


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


def _locus_result(outcome, evidence, detail):
    """Verdict, evidence and detail of a sampled outcome; a nonzero
    non-finite or band count is added to the evidence and the detail."""
    if outcome.non_finite:
        evidence["non_finite"] = outcome.non_finite
        detail += f", {outcome.non_finite} non-finite"
    if outcome.band:
        evidence["band"] = outcome.band
        detail += f", {outcome.band} in band"
    return outcome.verdict, evidence, f"({detail})"


def _locus_report_result(outcome):
    evidence = {
        "on_count": outcome.on_count,
        "off_count": outcome.off_count,
        "on_failures": outcome.on_failures,
        "off_failures": outcome.off_failures,
        "counterexamples": outcome.counterexamples,
        "notes": outcome.notes,
    }
    on_held = outcome.on_count - outcome.on_failures - outcome.on_non_finite - outcome.on_band
    off_held = outcome.off_count - outcome.off_failures - outcome.off_non_finite - outcome.off_band
    detail = f"{on_held}/{outcome.on_count} on-locus, {off_held}/{outcome.off_count} off-locus"
    return _locus_result(outcome, evidence, detail)


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


def run_closed(ctx, p):
    form = ctx.form(p["form"])
    residual = form.d()
    n = len(residual.comps)
    evidence = {"degree": form.degree, "residual_terms": n}
    if n:
        worst = sorted(residual.comps)[0]
        evidence["first_residual"] = {"indices": list(worst), "value": str(residual.comps[worst])}
    return ("pass" if n == 0 else "fail"), evidence, "(exact)" if n == 0 else f"({n} residual terms)"


def _is_zero(node):
    """Whether an expression is the literal 0, which a comparison takes as
    the zero form of its other side's chart and degree."""
    return type(node) is dsl.Num and node.value == 0


def run_equal(ctx, p):
    if _is_zero(p["left"]) and not _is_zero(p["right"]):
        right = ctx.form(p["right"])
        left = zero_form(right.chart, right.degree)
    else:
        left = ctx.form(p["left"])
        right = zero_form(left.chart, left.degree) if _is_zero(p["right"]) else ctx.form(p["right"])
    evidence = {}
    verdict, detail = _compare_forms(left, right, ctx, evidence)
    return verdict, evidence, detail


def run_pullback_eq(ctx, p):
    cmap = ctx.scope.named("map", p["map"])

    def form(node, chart, where):
        value = _subs_value(_value(ctx.scope, chart, node), ctx.where)
        if not isinstance(value, DForm):
            raise ElaborationError(f"pullback_eq needs a form on the {where} chart")
        return value

    if _is_zero(p["form"]) and not _is_zero(p["expected"]):
        expected = form(p["expected"], cmap.source, "source")
        upstairs = DForm.build(cmap.target, expected.degree, ())
    else:
        upstairs = form(p["form"], cmap.target, "target")
        expected = None if _is_zero(p["expected"]) else form(p["expected"], cmap.source, "source")
    computed = cmap.pullback(upstairs)
    if expected is None:
        expected = zero_form(computed.chart, computed.degree)
    evidence = {"map": cmap.name}
    verdict, detail = _compare_forms(computed, expected, ctx, evidence)
    return verdict, evidence, detail


def _sample_envs(ctx, p, chart):
    """The declared point as a one-point set, or the samples on or off the
    declared locus."""
    if p["mode"] == "at":
        env = ctx.point_env(p["point"], chart)
        return points_of([env], tuple(env))
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


def run_rank_at(ctx, p):
    form = ctx.form(p["form"])
    expected = p["rank"]
    envs = _sample_envs(ctx, p, form.chart)
    outcome = Outcome("rank_at")
    verdicts = rank_claim(outcome, envs, rank_at, form, expected, "rank_at", "on")
    undecided = outcome.band + outcome.non_finite
    evidence = {
        "expected": expected,
        "points": len(envs),
        "mismatches": outcome.on_failures,
        "undecided": undecided,
    }
    if outcome.non_finite:
        evidence["non_finite"] = outcome.non_finite
    details = {
        "undecided": f"({undecided} of {len(envs)} points undecided)",
        "pass": f"(rank {expected}" + (f" at {len(envs)} points)" if len(envs) > 1 else ")"),
    }
    if outcome.counterexamples:
        rank = next(v.rank for v in verdicts if not v.undecided and v.rank != expected)
        evidence["first_mismatch"] = {"point": outcome.counterexamples[0]["point"], "rank": rank}
        details["fail"] = f"(rank {rank}, expected {expected})"
    return outcome.verdict, evidence, details[outcome.verdict]


def run_gradient_rank_at(ctx, p):
    form = ctx.form(p["form"])
    env = ctx.point_env(p["point"], form.chart)
    outcome = Outcome("gradient_rank_at")
    (v,) = rank_claim(outcome, [env], gradient_rank_at, form, p["rank"], "gradient_rank_at", "on")
    evidence = {"expected": p["rank"], "rank": v.rank, "exact": v.exact}
    details = {"undecided": "(rank undecided)", "fail": f"(rank {v.rank}, expected {p['rank']})", "pass": f"(rank {v.rank})"}
    return outcome.verdict, evidence, details[outcome.verdict]


def run_nearsympl_at(ctx, p):
    form = ctx.form(p["form"])
    envs = _sample_envs(ctx, p, form.chart)
    outcome = Outcome("nearsympl_at")
    verdicts = point_claim(outcome, envs, near_symplectic_at, form, lambda v: None if v.passed else v.reason, "on")
    held = [v for v in verdicts if v.passed]
    evidence = {
        "points": len(envs),
        "failures": outcome.on_failures,
        "q_signs": sorted({v.q_sign for v in held if v.q_sign}),
        "grad_kernel_consistent": all(v.grad_kernel_consistent is not False for v in held),
    }
    detail = f"{len(envs)} points"
    if outcome.counterexamples:
        evidence["first_failure"] = outcome.counterexamples[0]
        detail = evidence["first_failure"]["reason"]
    return _locus_result(outcome, evidence, detail)


def run_contact(ctx, p):
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
        if rep.jacobian_band:
            entry["jacobian_band"] = rep.jacobian_band
        if rep.jacobian_non_finite:
            entry["jacobian_non_finite"] = rep.jacobian_non_finite
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
    return Outcome("contact", verdict.passed, undecided=verdict.undecided).verdict, evidence, detail


def run_vanishing_locus(ctx, p):
    form = ctx.form(p["form"])
    off_form = ctx.form(p["off_form"]) if p["off_form"] is not None else None
    outcome = verify_vanishing_locus(
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
    return _locus_report_result(outcome)


def run_rank_drop_locus(ctx, p):
    cmap = ctx.scope.named("map", p["map"])
    outcome = verify_rank_drop_locus(
        cmap,
        ctx.locus(p["locus"]),
        ctx.region(p["region"]),
        regular_rank=p["regular"],
        singular_rank=p["singular"],
        margin=ctx.margin(p["margin"]),
        seed=ctx.seed,
    )
    return _locus_report_result(outcome)


def run_fixed_points(ctx, p):
    outcome = verify_fixed_points(
        ctx.vfield(p["field"]),
        ctx.locus(p["locus"]),
        ctx.region(p["region"]),
        via=ctx.via(p["via"]),
        margin=ctx.margin(p["margin"]),
        tol=ctx.tol,
        seed=ctx.seed,
    )
    return _locus_report_result(outcome)


def run_dividing_set(ctx, p):
    alpha = ctx.form(p["alpha"], degree=1, what="a 1-form")
    scalar = ctx.scalar(p["scalar"], what="the declared pairing")
    outcome = verify_dividing_set(
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
    return _locus_report_result(outcome)


def run_bracket_table(ctx, p):
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


def run_stabilize(ctx, p):
    eta = ctx.form(p["eta"], degree=2, what="a 2-form")
    base = ctx.form(p["base"], degree=2, what="a 2-form")
    envs = region_envs(ctx.region(p["region"]), derive_seed(ctx.seed, "stabilize"))
    k_max = (1 << 16) if p["k_max"] is None else p["k_max"]
    k, outcome = stabilizing_constant_search(eta, base, envs, k_max=k_max)
    found = outcome.verdict == "pass"
    evidence = {
        "found": found,
        "constant": str(k) if found else None,
        "attempts": k.numerator.bit_length(),  # K = 2^(attempts - 1)
        "samples": len(envs),
    }
    if outcome.verdict == "fail":
        evidence["witness"] = outcome.counterexamples[0]["point"]
        return _locus_result(outcome, evidence, f"no constant up to {k_max}")
    return _locus_result(outcome, evidence, f"K = {k}")


def run_property(ctx, p):
    passed, evidence = run_property_battery(
        p["name"], p["samples"], p["dims"], derive_seed(ctx.seed, "prop", p["name"])
    )
    evidence["name"] = p["name"]
    if "checked" in evidence:
        detail = f"({evidence['checked']} basis forms, {evidence['failures']} failures)"
    else:
        detail = f"({evidence['samples']} samples, {evidence['failures']} failures)"
    return ("pass" if passed else "fail"), evidence, detail


def run_positive(ctx, p):
    form = ctx.form(p["form"])
    outcome = verify_positive(
        form,
        ctx.region(p["region"]),
        tol=ctx.tol,
        seed=ctx.seed,
    )
    evidence = {
        "samples": outcome.on_count,
        "failures": outcome.on_failures,
        "counterexamples": outcome.counterexamples,
    }
    return _locus_result(outcome, evidence, f"{outcome.on_count} samples")


# The runner of each check kind is its run_<kind> function above.
_RUNNERS = {kind: globals()[f"run_{kind}"] for kind in dsl.CHECK_KINDS}


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
    """Parse, elaborate and run one scenario.  A ParseError escapes as it
    is; any other exception that escapes becomes an InternalError naming
    the scenario, and the check when one was running."""
    config = config or RunConfig()
    where = f"scenario {sid}"
    try:
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
        checks = []
        for i, stmt in enumerate(scenario.checks()):
            where = f"scenario {sid}, check {i} ({stmt.kind})"
            checks.append(run_check(scope, stmt, sid, i, config))
    except NsxError:
        raise
    except Exception as e:  # a defect of nsx, not of the input
        raise InternalError(where, e) from e
    status = "pass" if all(c.ok for c in checks) else "fail"
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
            # An error's reason is in its evidence; the line shows it too.
            reason = f": {c.evidence['error']}" if c.verdict == "error" else ""
            lines.append(
                f"{s.sid}.{c.index} {c.kind} {c.verdict.upper()} {c.detail}{reason}{declared}{mark}"
            )
        agreed = sum(1 for c in s.checks if c.ok)
        lines.append(f"{s.sid}: {s.status} ({agreed}/{len(s.checks)} checks as declared)")
    n_pass = sum(1 for s in suite.scenarios if s.status == "pass")
    lines.append(f"suite: {'pass' if suite.passed else 'fail'} ({n_pass}/{len(suite.scenarios)} scenarios)")
    return "\n".join(lines) + "\n"
