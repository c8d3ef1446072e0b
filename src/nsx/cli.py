"""Command-line front end.

Four subcommands: `check` runs one scenario file, `paper-suite` runs the
built-in suite, `print` reparses a file into canonical form, and `eval`
evaluates every named object of a file at a point.  Configuration is
flags-only so a run is reproducible from its command line.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .dsl import parse_scenario, print_scenario
from .errors import DomainError, EvaluationError, InternalError, NsxError, ParseError
from .pointcheck import check_tolerance
from .runner import (
    RunConfig,
    SuiteReport,
    report_json,
    report_text,
    run_scenario_text,
    run_suite,
)
from .runner import elaborate_scope
from .symexpr import evaluate


def _config(args):
    kw = {}
    if args.seed is not None:
        kw["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        kw["samples"] = args.samples
    if getattr(args, "tol", None) is not None:
        kw["tol"] = args.tol
    return RunConfig(**kw)


def _emit(report, json_path):
    sys.stdout.write(report_text(report))
    if json_path:
        try:
            Path(json_path).write_text(report_json(report))
        except OSError as e:
            return _fail(e)
    return 0 if report.passed else 1


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_check(args):
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        return _fail(e)
    config = _config(args)
    sid = Path(args.file).stem
    try:
        scenario_report = run_scenario_text(text, sid, args.file, config)
    except ParseError as e:
        return _fail(e)
    report = SuiteReport(seed=config.seed, scenarios=[scenario_report])
    return _emit(report, args.json)


def _cmd_paper_suite(args):
    only = None
    if args.only:
        from .scenarios import SUITE

        known = {sid for sid, _, _ in SUITE}
        only = [s.strip() for s in args.only.split(",") if s.strip()]
        bad = [s for s in only if s not in known]
        if bad:
            return _fail(f"unknown scenario ids: {', '.join(bad)}")
    report = run_suite(only=only, config=_config(args))
    return _emit(report, args.json)


def _cmd_print(args):
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        return _fail(e)
    try:
        scenario = parse_scenario(text)
    except ParseError as e:
        return _fail(e)
    sys.stdout.write(print_scenario(scenario))
    return 0


def _parse_at(spec):
    env = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, value = piece.partition("=")
        if not eq:
            raise ValueError(f"expected name=value, got {piece!r}")
        try:
            env[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad value in {piece!r}") from None
    if not env:
        raise ValueError("empty point")
    return env


def _fmt(value):
    if isinstance(value, Fraction):
        return str(value)
    return format(float(value), ".12g")


def _join_signed(parts):
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def _eval_line(kind, name, value, env):
    """A const's value, or the nonzero terms of a form or a field, at env."""
    if kind == "const":
        return f"{name} = {_fmt(evaluate(value, env))}"
    coords = value.chart.coords
    if kind == "form":
        terms = [(value.comps[idx], "/\\".join(f"d({coords[i]})" for i in idx)) for idx in sorted(value.comps)]
    else:
        terms = [(value.comps[i], f"e({coords[i]})") for i in sorted(value.comps)]
    parts = []
    for expr, label in terms:
        v = evaluate(expr, env)
        if v != 0:
            parts.append(f"{_fmt(v)} {label}" if label else _fmt(v))
    return f"{name} = {_join_signed(parts)}"


def _cmd_eval(args):
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        return _fail(e)
    try:
        env = _parse_at(args.at)
    except ValueError as e:
        return _fail(e)
    try:
        scenario = parse_scenario(text)
        scope = elaborate_scope(scenario, _config(args))
    except NsxError as e:
        return _fail(e)
    out = []
    for kind in ("const", "form", "field"):
        for name, value in scope.of_kind(kind):
            try:
                out.append(_eval_line(kind, name, value, env))
            except (EvaluationError, ArithmeticError) as e:
                out.append(f"{name}: skipped ({e})")
    if not out:
        return _fail("the file declares nothing to evaluate")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _at_least_one(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return check_tolerance(value)
    except DomainError:
        raise argparse.ArgumentTypeError(f"must be a finite number at least 0, got {text}") from None


def _add_config_flags(sub, samples=True):
    sub.add_argument("--seed", type=int, default=None, help="base seed for derived sampling")
    if samples:
        sub.add_argument("--samples", type=_at_least_one, default=None, help="scale down sampling budgets")
        sub.add_argument("--tol", type=_tolerance, default=None, help="numeric comparison tolerance")


def build_parser():
    parser = argparse.ArgumentParser(prog="nsx", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="run one scenario file")
    check.add_argument("file")
    _add_config_flags(check)
    check.add_argument("--json", default=None, help="also write a JSON report here")
    check.set_defaults(fn=_cmd_check)

    suite = subs.add_parser("paper-suite", help="run the built-in scenario suite")
    suite.add_argument("--only", default=None, help="comma-separated scenario ids")
    _add_config_flags(suite)
    suite.add_argument("--json", default=None, help="also write a JSON report here")
    suite.set_defaults(fn=_cmd_paper_suite)

    pr = subs.add_parser("print", help="reprint a scenario file in canonical form")
    pr.add_argument("file")
    pr.set_defaults(fn=_cmd_print)

    ev = subs.add_parser("eval", help="evaluate declared objects at a point")
    ev.add_argument("file")
    ev.add_argument("--at", required=True, help='assignments like "x1=1,x2=1/2"')
    _add_config_flags(ev, samples=False)
    ev.set_defaults(fn=_cmd_eval)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InternalError as e:
        print(f"internal error in {e.where}: {e.cause!r}", file=sys.stderr)
        return 3
    except Exception as e:  # a defect of nsx, not of the input
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
