"""Per-layer tracing of the nsx engine, installed from outside the package.

`install` replaces each public function named in `LAYERS` by a wrapper at
every place the package binds it: every `nsx.*` module attribute that is
the function (the runner imports many of them by name, so patching only the
defining module would miss those calls), and every class attribute for
methods (`Expr.__rmul__` is `Expr.__mul__`).  A wrapper counts calls and
records its span; a layer's self time is its span minus the spans of the
wrapped calls made inside it.  Nothing of this enters the engine's reports.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

# (layer label, defining module, function or "Class.method").  Several
# functions may share a label; their calls and times add up.
LAYERS = (
    ("locus.random_env", "nsx.locus", "random_env"),
    ("locus.distance_sq", "nsx.locus", "LocusSampler.distance_sq"),
    ("locus.off_locus_envs", "nsx.locus", "off_locus_envs"),
    ("locus.verify", "nsx.locus", "verify_vanishing_locus"),
    ("locus.verify", "nsx.locus", "verify_positive"),
    ("locus.verify", "nsx.locus", "verify_rank_drop_locus"),
    ("locus.verify", "nsx.locus", "verify_fixed_points"),
    ("locus.verify", "nsx.locus", "verify_dividing_set"),
    ("symexpr.evaluate", "nsx.symexpr", "evaluate"),
    ("linalg.exact_rank", "nsx._linalg", "exact_rref"),
    ("linalg.exact_rank", "nsx._linalg", "exact_rank"),
    ("linalg.exact_rank", "nsx._linalg", "exact_kernel"),
    ("pointcheck.rank_at", "nsx.pointcheck", "rank_at"),
    ("pointcheck.near_symplectic_at", "nsx.pointcheck", "near_symplectic_at"),
    ("pointcheck.gradient_rank_at", "nsx.pointcheck", "gradient_rank_at"),
    ("pointcheck.stabilize", "nsx.pointcheck", "stabilizing_constant_search"),
    ("linalg.float_rank", "nsx._linalg", "float_rank"),
    ("symexpr.mul", "nsx.symexpr", "Expr.__mul__"),
    ("symexpr.add", "nsx.symexpr", "Expr.__add__"),
    ("symexpr.diff", "nsx.symexpr", "Expr.diff"),
    ("symexpr.subs", "nsx.symexpr", "Expr.subs"),
    ("charts.wedge", "nsx.charts", "DForm.wedge"),
    ("charts.d", "nsx.charts", "DForm.d"),
    ("charts.pullback", "nsx.charts", "ChartMap.pullback"),
    ("charts.interior", "nsx.charts", "DForm.interior"),
    ("charts.star", "nsx.charts", "Metric.star"),
    ("props.battery", "nsx.props", "run_property_battery"),
    ("sympl.graph_straightening", "nsx.sympl", "graph_straightening"),
    ("symexpr.compile_numpy", "nsx.symexpr", "compile_numpy"),
    ("pointcheck.contact_test", "nsx.pointcheck", "contact_test"),
    ("symexpr.semantically_equal", "nsx.symexpr", "semantically_equal"),
    ("dsl.parse", "nsx.dsl", "parse_scenario"),
    ("dsl.print", "nsx.dsl", "print_scenario"),
    ("runner.elaborate", "nsx.runner", "elaborate_scope"),
    ("runner.check", "nsx.runner", "run_check"),
    ("runner.report_json", "nsx.runner", "report_json"),
)

# `runner.check` is recorded per check kind, as runner.check.<kind>; the
# kinds are listed here so every run reports the same metric names.
CHECK_KINDS = (
    "closed",
    "equal",
    "rank_at",
    "nearsympl_at",
    "gradient_rank_at",
    "contact",
    "vanishing_locus",
    "rank_drop_locus",
    "fixed_points",
    "dividing_set",
    "pullback_eq",
    "bracket_table",
    "stabilize",
    "property",
    "positive",
)


# Counters measured where the work happens, from a wrapped call's
# arguments and result: hook(tracer, args, result).
def _off_locus_accepted(tracer, args, result):
    tracer.counts["off_locus.accepted"] += len(result[0])


def _distance_in_off_locus(tracer, args, result):
    if tracer.stack and tracer.stack[-1][0] == "locus.off_locus_envs":
        tracer.counts["off_locus.distance_calls"] += 1


def _float_rank_undecided(tracer, args, result):
    tracer.counts["float_rank.undecided"] += int(result[1])


def _contact_samples(tracer, args, result):
    for chart in result.charts:
        if chart.mode == "sampled":
            tracer.counts["contact.samples"] += chart.samples
            tracer.counts["contact.decided"] += chart.n_pos + chart.n_neg


def _battery_samples(tracer, args, result):
    evidence = result[1]
    tracer.counts["props.samples"] += evidence.get("samples", evidence.get("checked", 0))


def _parsed_bytes(tracer, args, result):
    tracer.counts["dsl.parse.bytes"] += len(args[0].encode())


HOOKS = {
    "locus.off_locus_envs": _off_locus_accepted,
    "locus.distance_sq": _distance_in_off_locus,
    "linalg.float_rank": _float_rank_undecided,
    "pointcheck.contact_test": _contact_samples,
    "props.battery": _battery_samples,
    "dsl.parse": _parsed_bytes,
}


class Tracer:
    """Call counts, self and inclusive seconds per label, and hook counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counts = Counter()
        self.stack = []  # one [label, child seconds] frame per open wrapped call

    def wrap(self, label, fn):
        per_kind = label == "runner.check"
        hook = HOOKS.get(label)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{label}.{args[1].kind}" if per_kind else label  # run_check(scope, stmt, ...)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - frame[1]
                self.incl_s[name] += span
                if stack:
                    stack[-1][1] += span
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }


def install(tracer):
    """Wrap every binding of every LAYERS function; call after importing nsx."""
    modules = [m for name, m in sys.modules.items() if name == "nsx" or name.startswith("nsx.")]
    for label, module_name, attr in LAYERS:
        owner = sys.modules[module_name]
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            original = cls.__dict__[name]
            bindings = [cls]
        else:
            original = getattr(owner, name)
            bindings = modules
        wrapped = tracer.wrap(label, original)
        for target in bindings:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapped)
