"""Acceptance gate: one criterion per test, one verdict line each.

Tolerances are pinned in the constants below and in the criterion
bodies; nothing here adapts to the engine's behaviour at run time.

Two criteria assert that the S8 sphere sweep has one uniform sign.  The
engine finds strictly mixed signs there (zero Jacobian drops, zero
near-tolerance samples), and scripts/contact_latitude_scan.py locates
the sign change on a latitude circle analytically, for every constant
K > 1.  Those criteria are kept exactly as stated and left red; the
failure is the recorded finding, not a defect to paper over.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from nsx.dsl import parse_scenario, print_scenario, random_scenario
from nsx.errors import ParseError
from nsx.pointcheck import near_symplectic_at
from nsx.runner import RunConfig, elaborate_scope, run_suite
from nsx.scenarios import SUITE
from nsx.symexpr import (
    PI,
    cos_of,
    evaluate,
    exp_of,
    opaque_fn,
    rat,
    sin_of,
    sym,
)

F = Fraction

SUITE_WALL_CLOCK_LIMIT_S = 120.0
FD_STEP = 1e-5
FD_REL_TOL = 1e-6
FD_EXPRESSIONS = 200
FD_POINTS = 20
ROUND_TRIPS = 200
MUTATIONS = 300
CONTACT_SAMPLES = 2 * 64 * 64 * 8


def _verdict(cid, ok, summary):
    print(f"{cid}: {'PASS' if ok else 'FAIL'} - {summary}")


def _texts():
    return {sid: text for sid, _anchor, text in SUITE}


# -- C1 -----------------------------------------------------------------


def test_c1_suite_statuses_and_s3(by_id):
    failures = []
    t0 = time.monotonic()
    suite = run_suite()
    elapsed = time.monotonic() - t0
    if elapsed >= SUITE_WALL_CLOCK_LIMIT_S:
        failures.append(f"suite took {elapsed:.1f} s, limit {SUITE_WALL_CLOCK_LIMIT_S}")

    status = {s.sid: s.status for s in suite.scenarios}
    for sid in ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S9", "S10", "S11", "S12"):
        if status[sid] != "pass":
            failures.append(f"{sid} status {status[sid]}, fixed as pass")
    # The fixed expectation includes S8 agreeing with every declared
    # verdict; the three contact sweeps do not.
    s8 = next(s for s in suite.scenarios if s.sid == "S8")
    bad = [c.index for c in s8.checks if not c.ok]
    if bad:
        failures.append(f"S8 checks {bad} disagree with their declared verdicts")

    s3 = by_id["S3"].checks
    if (s3[0].verdict, s3[0].detail) != ("pass", "(exact)"):
        failures.append("S3 closedness is not exact")
    ev = s3[1].evidence
    if (ev["on_count"], ev["on_failures"]) != (64, 0):
        failures.append(f"S3 on-locus sampling {ev['on_count']}/{ev['on_failures']}")
    if (ev["off_count"], ev["off_failures"]) != (4096, 0):
        failures.append(f"S3 off-locus sampling {ev['off_count']}/{ev['off_failures']}")
    if (s3[2].evidence["points"], s3[2].evidence["failures"]) != (10, 0):
        failures.append("S3 degeneracy test did not pass at 10 points")

    scope = elaborate_scope(parse_scenario(_texts()["S3"]), RunConfig())
    om, om2 = scope.named("form", "om"), scope.named("form", "om2")
    slots = set(itertools.combinations(range(6), 4))
    assert len(slots) == 15
    if om2.degree != 4 or not set(om2.comps) <= slots:
        failures.append("om^2 is not a 4-form over the 15 coefficient slots")
    for point in (
        {"t1": F(1, 3), "t2": F(-1, 2), "t3": F(1, 5), "x1": F(0), "x2": F(0), "x3": F(0)},
        {"t1": F(0), "t2": F(3, 4), "t3": F(-2, 7), "x1": F(0), "x2": F(0), "x3": F(0)},
    ):
        v = near_symplectic_at(om, point)
        if not (v.passed and v.kernel_dim == 4 and v.image_dim == 3):
            failures.append(f"degeneracy structure off at {point}: {v.reason}")
        if v.q_sign not in ("positive", "negative", "zero"):
            failures.append(f"wedge-square form indefinite at {point}")

    summary = "all statuses as fixed" if not failures else "; ".join(failures)
    _verdict("C1", not failures, f"suite {elapsed:.1f} s; {summary}")
    assert not failures, "; ".join(failures)


# -- C2 -----------------------------------------------------------------


def test_c2_invariant_battery(by_id):
    checks = by_id["S12"].checks
    got = {c.evidence["name"]: c.evidence for c in checks}
    failures = []
    expected = {
        "dd_zero": 1000,
        "graded_comm": 500,
        "functorial": 100,
        "antiderivation": 200,
    }
    for name, want in expected.items():
        ev = got[name]
        if ev["samples"] != want or ev["failures"] != 0:
            failures.append(f"{name}: {ev['samples']} samples, {ev['failures']} failures")
    ds = got["double_star"]
    if ds["checked"] != 124 or ds["failures"] != 0 or ds["dims"] != [2, 3, 4, 5, 6]:
        failures.append(f"double_star: {ds}")
    _verdict("C2", not failures, "1000/500/100/200 samples + 124 basis forms, 0 failures")
    assert not failures, failures


# -- C3 -----------------------------------------------------------------

_COORDS = ("x", "y", "z")


def _linear(rng):
    e = rat(F(rng.randint(-2, 2), rng.randint(1, 2)))
    return e + rat(rng.randint(-2, 2)) * sym(rng.choice(_COORDS))


def _rand_expr(rng, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.35:
        leaf = rng.random()
        if leaf < 0.45:
            return sym(rng.choice(_COORDS))
        if leaf < 0.75:
            return rat(F(rng.randint(-4, 4), rng.randint(1, 4)))
        if leaf < 0.85:
            return PI
        return opaque_fn("chi", rng.choice(_COORDS))
    if r < 0.6:
        return _rand_expr(rng, depth + 1) + _rand_expr(rng, depth + 1)
    if r < 0.8:
        return _rand_expr(rng, depth + 1) * _rand_expr(rng, depth + 1)
    if r < 0.88:
        return sin_of(_linear(rng))
    if r < 0.94:
        return cos_of(_linear(rng))
    if r < 0.98:
        return exp_of(_linear(rng))
    return _rand_expr(rng, depth + 1) ** rng.randint(2, 3)


def test_c3_derivative_oracle():
    rng = random.Random(20260816)
    worst = 0.0
    failures = []
    for i in range(FD_EXPRESSIONS):
        expr = _rand_expr(rng)
        coord = rng.choice(_COORDS)
        deriv = expr.diff(coord)
        for _ in range(FD_POINTS):
            env = {c: rng.randint(-768, 768) / 1024 for c in _COORDS}
            lo = dict(env, **{coord: env[coord] - FD_STEP})
            hi = dict(env, **{coord: env[coord] + FD_STEP})
            fd = (float(evaluate(expr, hi)) - float(evaluate(expr, lo))) / (2 * FD_STEP)
            sv = float(evaluate(deriv, env))
            rel = abs(sv - fd) / max(1.0, abs(sv), abs(fd))
            worst = max(worst, rel)
            if rel > FD_REL_TOL:
                failures.append(f"expr {i} at {env}: symbolic {sv}, fd {fd}, rel {rel:.2e}")
    _verdict(
        "C3",
        not failures,
        f"{FD_EXPRESSIONS} expressions x {FD_POINTS} points, "
        f"max rel err {worst:.2e} (tol {FD_REL_TOL})",
    )
    assert not failures, failures[:3]


# -- C4 -----------------------------------------------------------------


def test_c4_symbolic_pi(by_id):
    (c,) = by_id["S9"].checks
    (chart,) = c.evidence["charts"]
    ok = (
        c.verdict == "pass"
        and chart["mode"] == "symbolic"
        and chart["symbolic_value"] == "pi"
        and chart["samples"] == 0
    )
    _verdict("C4", ok, "density recognized as the exact constant pi, no sampling")
    assert ok, c.evidence


# -- C5 -----------------------------------------------------------------


def test_c5_blowdown_dividing_fixed(by_id):
    checks = by_id["S10"].checks
    failures = []
    if checks[0].evidence != {"map": "psi", "coefficients": 3, "status": "equal"}:
        failures.append(f"blow-down pullback: {checks[0].evidence}")
    ev1 = checks[1].evidence
    if "computed pairing matches the declared scalar" not in ev1["notes"]:
        failures.append(f"dividing scalar not symbolically equal: {ev1['notes']}")
    if ev1["on_failures"] or ev1["off_failures"] or ev1["counterexamples"]:
        failures.append("dividing locus sampling found counterexamples")
    ev2 = checks[2].evidence
    if ev2["counterexamples"] or ev2["on_failures"] or ev2["off_failures"]:
        failures.append(f"fixed points: {ev2}")
    _verdict("C5", not failures, "pullback equal, scalar equal, 0 counterexamples")
    assert not failures, failures


# -- C6 -----------------------------------------------------------------


def test_c6_straightening_tables(by_id):
    checks = by_id["S7"].checks
    failures = []
    for idx, label in ((0, "flat graph"), (1, "parabolic graph")):
        ev = checks[idx].evidence
        if ev["offending"]:
            failures.append(f"{label}: offending brackets {ev['offending']}")
        if not ev["pullback_is_standard"]:
            failures.append(f"{label}: pullback differs from the standard form")
    _verdict("C6", not failures, "canonical tables and standard pullback for both graphs")
    assert not failures, failures


# -- C7 -----------------------------------------------------------------


def test_c7_uniform_contact_sign(by_id):
    checks = {12: by_id["S8"].checks[12], 13: by_id["S8"].checks[13]}
    failures = []
    for idx, c in checks.items():
        for chart in c.evidence["charts"]:
            total = chart["samples"]
            uniform = chart["zero"] == 0 and total in (chart["positive"], chart["negative"])
            if not uniform:
                failures.append(
                    f"check {idx} {chart['label']}: +{chart['positive']} "
                    f"-{chart['negative']} 0:{chart['zero']}"
                )
        if sum(ch["samples"] for ch in c.evidence["charts"]) != CONTACT_SAMPLES:
            failures.append(f"check {idx}: sample budget off")
    doubling_stable = (
        checks[12].verdict == checks[13].verdict
        and checks[12].evidence["reason"] == checks[13].evidence["reason"]
    )
    if not doubling_stable:
        failures.append("doubling the constant changed the verdict")
    _verdict(
        "C7",
        not failures,
        "uniform sign over 2x64x64x8 samples for both constants"
        if not failures
        else "; ".join(failures),
    )
    assert not failures, failures


# -- C8 -----------------------------------------------------------------


def test_c8_byte_identical_reports(tmp_path, cli_env):
    outs = []
    codes = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "nsx", "paper-suite", "--json", str(path)],
            capture_output=True,
            cwd=str(tmp_path),
            env=cli_env,
        )
        stderr_tail = proc.stderr.decode(errors="replace").splitlines()[-20:]
        assert path.exists(), (
            f"CLI run for {name} wrote no report (exit {proc.returncode}); "
            "stderr tail:\n" + "\n".join(stderr_tail)
        )
        codes.append(proc.returncode)
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and codes[0] == codes[1] and len(outs[0]) > 1000
    _verdict(
        "C8",
        ok,
        f"two CLI runs, {len(outs[0])} bytes each, identical={outs[0] == outs[1]}",
    )
    assert ok
    # The reports are valid instances of the published schema.
    import importlib.resources

    import jsonschema

    schema = json.loads(
        importlib.resources.files("nsx").joinpath("schema.json").read_text()
    )
    jsonschema.validate(json.loads(outs[0]), schema)


# -- C9 -----------------------------------------------------------------


def test_c9_parser_round_trips():
    failures = []
    for seed in range(ROUND_TRIPS):
        s = random_scenario(random.Random(seed))
        text = print_scenario(s)
        if print_scenario(parse_scenario(text)) != text:
            failures.append(f"seed {seed} does not round-trip")
    for sid, text in _texts().items():
        try:
            parse_scenario(text)
        except ParseError as e:
            failures.append(f"{sid} failed to parse: {e}")
    base = _texts()["S1"]
    rng = random.Random(99)
    junk = "()[]=,^#\"\\/ \nxq0."
    for _ in range(MUTATIONS):
        i = rng.randrange(len(base))
        op = rng.randrange(3)
        if op == 0:
            text = base[:i] + base[i + 1 :]
        elif op == 1:
            text = base[:i] + base[i] + base[i:]
        else:
            text = base[:i] + rng.choice(junk) + base[i:]
        try:
            parse_scenario(text)
        except ParseError as e:
            if e.line < 1 or e.col < 1:
                failures.append("parse error without a position")
        except Exception as e:  # noqa: BLE001 - the criterion is "never crashes"
            failures.append(f"parser crashed with {type(e).__name__}: {e}")
    _verdict(
        "C9",
        not failures,
        f"{ROUND_TRIPS} round-trips, 12 built-ins, {MUTATIONS} mutations positioned",
    )
    assert not failures, failures[:3]
