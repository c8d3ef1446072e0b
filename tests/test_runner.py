import json
from fractions import Fraction

import pytest

from nsx.dsl import parse_scenario
from nsx.errors import DomainError, ElaborationError
from nsx.runner import (
    DEFAULT_SEED,
    RunConfig,
    SuiteReport,
    elaborate_scope,
    report_json,
    report_text,
    run_scenario_text,
    run_suite,
    suite_dict,
)
from nsx.runner import _infer_value, _jsonable
from nsx.charts import DForm
from nsx.locus import CoordLocus, Region

F = Fraction

PLANE = "chart C(x, y)\nform area on C = d(x) /\\ d(y)\n"


def _run(text, **cfg):
    return run_scenario_text(text, "T", "unit scenario", RunConfig(**cfg))


# -- configuration ----------------------------------------------------------


def test_region_count_scaling():
    assert RunConfig().region_count(64) == 64
    assert RunConfig(samples=2).region_count(64) == 8
    assert RunConfig(samples=5).region_count(64) == 64
    assert RunConfig(samples=2).region_count(4) == 4


def test_grid_scaling():
    assert RunConfig().grid_n(32) == 32
    assert RunConfig().grid_n(None) == 64
    assert RunConfig(samples=4).grid_n(32) == 4


# -- elaboration ------------------------------------------------------------


def test_elaborate_scope_declarations():
    text = (
        "chart C(x, y)\n"
        "param Kp\n"
        "const c0 = x^2 - 1/4\n"
        "form om on C = c0 * d(x) /\\ d(y)\n"
        "map sq : C -> C = (x^2, y)\n"
        "region R on C = [-1, 1]^2 lattice 3 random 64\n"
        "locus L on C = coords(x=0)\n"
    )
    scope = elaborate_scope(parse_scenario(text), RunConfig())
    assert [(n, k) for n, (k, _) in scope.names.items()] == [
        ("C", "chart"),
        ("Kp", "param"),
        ("c0", "const"),
        ("om", "form"),
        ("sq", "map"),
        ("R", "region"),
        ("L", "locus"),
    ]
    assert str(scope.named("const", "c0")) == "-1/4 + x^2"
    om = scope.named("form", "om")
    assert isinstance(om, DForm) and om.degree == 2
    assert scope.named("map", "sq").target is scope.named("chart", "C")
    region = scope.named("region", "R")
    assert isinstance(region, Region) and region.random_count == 64
    assert isinstance(scope.named("locus", "L"), CoordLocus)


def test_elaborate_region_count_respects_config():
    text = "chart C(x, y)\nregion R on C = [-1, 1]^2 lattice 3 random 64\n"
    scope = elaborate_scope(parse_scenario(text), RunConfig(samples=2))
    assert scope.named("region", "R").random_count == 8


def test_elaborate_rejects_duplicates():
    text = "chart C(x, y)\nform om on C = d(x)\nform om on C = d(y)\n"
    with pytest.raises(ElaborationError):
        elaborate_scope(parse_scenario(text), RunConfig())


# One declaration of the name `w` per kind, each valid after `chart C(x, y)`.
_DECLARE_W = {
    "chart": "chart w(u, v)",
    "param": "param w",
    "opaque": "opaque w",
    "const": "const w = x + 1",
    "form": "form w on C = d(x) /\\ d(y)",
    "field": "vfield w on C = e(x)",
    "map": "map w : C -> C = (y, x)",
    "metric": "metric w on C = euclidean",
    "region": "region w on C = [-1, 1]^2 lattice 3 random 8",
    "locus": "locus w on C = coords(x=0)",
}


@pytest.mark.parametrize("second", _DECLARE_W)
@pytest.mark.parametrize("first", _DECLARE_W)
def test_every_name_is_declared_once(first, second):
    text = f"chart C(x, y)\n{_DECLARE_W[first]}\n{_DECLARE_W[second]}\n"
    with pytest.raises(ElaborationError) as e:
        elaborate_scope(parse_scenario(text), RunConfig())
    assert str(e.value) == "line 3: 'w' is already defined"


def test_elaborate_rejects_unknown_chart():
    text = "chart C(x, y)\nform om on Q = d(x)\n"
    with pytest.raises(ElaborationError):
        elaborate_scope(parse_scenario(text), RunConfig())


def test_const_must_be_scalar():
    text = "chart C(x, y)\nconst c0 = d(x)\n"
    with pytest.raises(ElaborationError):
        elaborate_scope(parse_scenario(text), RunConfig())


def test_infer_value_uses_declaration_order():
    text = "chart A(x, y)\nchart B(u, v)\n"
    scope = elaborate_scope(parse_scenario(text), RunConfig())
    from nsx.dsl import Ref

    val = _infer_value(scope, Ref("u"))
    assert val.chart.name == "B"


def test_elaboration_error_becomes_synthetic_record():
    rep = _run("chart C(x, y)\nform om on C = d(x)\nform om on C = d(y)\n")
    assert rep.status == "fail"
    (rec,) = rep.checks
    assert rec.kind == "elaboration"
    assert rec.verdict == "error"
    assert not rec.ok
    assert rec.evidence == {"error": "line 3: 'om' is already defined"}


# -- check execution --------------------------------------------------------


def test_expect_semantics_and_markers():
    text = (
        PLANE
        + "form om2 on C = x * d(y)\n"
        + "check closed area\n"
        + 'check closed om2 note "not closed, and declared so" expect fail\n'
        + "check closed om2\n"
    )
    rep = _run(text)
    assert [c.ok for c in rep.checks] == [True, True, False]
    assert rep.status == "fail"
    lines = report_text(SuiteReport(seed=1, scenarios=[rep])).splitlines()
    assert lines[0] == "T.0 closed PASS (exact)"
    assert lines[1] == "T.1 closed FAIL (1 residual terms) [declared fail]"
    assert lines[2] == "T.2 closed FAIL (1 residual terms) [unexpected]"
    assert lines[3] == "T: fail (2/3 checks as declared)"
    assert lines[4] == "suite: fail (0/1 scenarios)"
    assert rep.checks[1].anchor == "not closed, and declared so"


def test_expect_report_always_agrees():
    text = PLANE + "check closed area expect report\n"
    rep = _run(text)
    assert rep.checks[0].ok and rep.status == "pass"


def test_check_error_verdict():
    # The rank point binds only x, and the coefficient needs y.
    text = "chart C(x, y)\nform om on C = y * d(x) /\\ d(y)\ncheck rank_at om, 2 at (x=1)\n"
    rep = _run(text)
    (rec,) = rep.checks
    assert rec.verdict == "error"
    assert rec.detail == "(error)"
    assert "point must assign exactly the coordinates" in rec.evidence["error"]
    assert not rec.ok
    reported = _run(text.replace("at (x=1)", "at (x=1) expect report"))
    assert reported.checks[0].verdict == "error" and reported.checks[0].ok
    # The text line shows the reason; the JSON keeps it in the evidence.
    reason = rec.evidence["error"]
    lines = report_text(SuiteReport(seed=1, scenarios=[rep, reported])).splitlines()
    assert lines[0] == f"T.0 rank_at ERROR (error): {reason} [unexpected]"
    assert lines[2] == f"T.0 rank_at ERROR (error): {reason}"
    record = json.loads(report_json(SuiteReport(seed=1, scenarios=[rep])))["scenarios"][0]["checks"][0]
    assert record["detail"] == "(error)" and record["evidence"] == {"error": reason}



def test_a_locus_on_another_chart_is_a_domain_error():
    text = (
        "chart A(x, y)\nchart B(u, v)\n"
        "region R on A = [-1, 1]^2 lattice 2 random 8\n"
        "locus L on B = coords(u=0, v=0)\n"
        "check rank_at d(x) /\\ d(y), 2 off L region R points 8\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "error"
    assert rec.evidence == {"error": "locus on chart B but region on chart A"}

SAMPLED_PLANE = (
    PLANE
    + "region R on C = [-1, 1]^2 lattice 3 random 16\n"
    + "locus L on C = coords(x=0)\n"
)


@pytest.mark.parametrize("mode, points", [("off", 1), ("off", 3), ("on", 1), ("on", 2)])
def test_explicit_point_budget_is_kept(mode, points):
    rep = _run(SAMPLED_PLANE + f"check rank_at area, 2 {mode} L region R points {points}\n")
    (rec,) = rep.checks
    assert rec.verdict == "pass"
    assert rec.evidence["points"] == points


def test_class_verdicts_are_shared_and_left_unchanged(monkeypatch):
    # Every point of a class gets its class's verdict object.  The checks
    # read the verdicts and change none, so after a run each still equals
    # the verdict taken afresh at its point.
    from nsx import pointcheck

    seen = []
    per_class = pointcheck.per_class

    def spy(check, subject, envs):
        verdicts = list(per_class(check, subject, envs))
        seen.append((check, subject, envs, verdicts))
        return iter(verdicts)

    monkeypatch.setattr(pointcheck, "per_class", spy)
    run_suite(only=["S3", "S4", "S6"])
    kinds = {check.__name__ for check, _, envs, verdicts in seen if len(set(map(id, verdicts))) < len(envs)}
    assert kinds == {"near_symplectic_at", "map_rank_at", "rank_at"}
    for check, subject, envs, verdicts in seen:
        assert verdicts == [check(subject, env) for env in envs]


def test_engine_fault_is_an_error_verdict_and_the_suite_finishes(monkeypatch):
    import numpy as np

    from nsx import runner

    def broken(ctx, p):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(runner._RUNNERS, "closed", broken)
    suite = run_suite(only=["S1", "S9"])
    assert [s.sid for s in suite.scenarios] == ["S1", "S9"]
    rec = suite.scenarios[0].checks[0]
    assert rec.kind == "closed" and rec.verdict == "error" and rec.detail == "(error)"
    assert rec.evidence == {"error": "SVD did not converge", "exception": "LinAlgError"}
    assert [c.verdict for c in suite.scenarios[0].checks[1:]] == ["pass"] * 4
    assert suite.scenarios[1].status == "pass"
    json.loads(report_json(suite))


def test_where_binding_substitutes_params():
    text = (
        "chart C(x, y)\n"
        "param Kp\n"
        "form om on C = Kp * d(x) /\\ d(y)\n"
        "check rank_at om, 2 at (x=0, y=0) where Kp=3\n"
        "check rank_at om, 0 at (x=0, y=0) where Kp=0\n"
    )
    rep = _run(text)
    assert [c.verdict for c in rep.checks] == ["pass", "pass"]


@pytest.mark.parametrize(
    "where, error",
    [("x=1, Kp=3", "unknown param 'x'"), ("Kq=3", "unknown param 'Kq'")],
    ids=["coordinate", "misspelt param"],
)
def test_where_binds_declared_params_only(where, error):
    # Binding x=1 would make Kp*x*d(x)/\d(y) "equal" to 3*d(x)/\d(y), and
    # an unknown name would be ignored: both are check errors instead.
    text = (
        "chart C(x, y)\n"
        "param Kp\n"
        "form a on C = Kp*x*d(x) /\\ d(y)\n"
        "form b on C = 3*d(x) /\\ d(y)\n"
        f"check equal a, b where {where}\n"
    )
    (rec,) = _run(text).checks
    assert (rec.verdict, rec.evidence) == ("error", {"error": error})


def test_scenario_without_checks_passes():
    rep = _run(PLANE)
    assert rep.status == "pass" and rep.checks == []


# -- suite orchestration -----------------------------------------------------


def test_run_suite_only_filter():
    suite = run_suite(only=["S9"])
    assert [s.sid for s in suite.scenarios] == ["S9"]
    assert suite.scenarios[0].status == "pass"
    assert suite.passed


def test_sampling_config_keeps_verdicts():
    full = run_scenario_text_s1(RunConfig())
    thin = run_scenario_text_s1(RunConfig(samples=2))
    assert [(c.kind, c.verdict, c.ok) for c in full.checks] == [
        (c.kind, c.verdict, c.ok) for c in thin.checks
    ]


def run_scenario_text_s1(config):
    from nsx.scenarios import SUITE

    sid, anchor, text = SUITE[0]
    return run_scenario_text(text, sid, anchor, config)


# -- serialization ------------------------------------------------------------


def test_jsonable_values():
    assert _jsonable(F(3, 4)) == "3/4"
    assert _jsonable({1: (F(1, 2), None)}) == {"1": ["1/2", None]}
    assert _jsonable([True, 2.5, "s"]) == [True, 2.5, "s"]
    assert _jsonable(CoordLocus) == str(CoordLocus)


def test_suite_dict_shape_and_stability():
    rep = _run(PLANE + "check closed area\n")
    suite = SuiteReport(seed=7, scenarios=[rep])
    d = suite_dict(suite)
    assert d["version"] == "1" and d["seed"] == 7
    (s,) = d["scenarios"]
    assert s["id"] == "T" and s["status"] == "pass"
    (c,) = s["checks"]
    assert c["kind"] == "closed" and c["verdict"] == "pass" and c["ok"] is True
    assert json.loads(report_json(suite)) == d
    assert report_json(suite) == report_json(SuiteReport(seed=7, scenarios=[_run(PLANE + "check closed area\n")]))


def test_report_validates_against_schema():
    import importlib.resources

    import jsonschema

    schema = json.loads(
        importlib.resources.files("nsx").joinpath("schema.json").read_text()
    )
    rep = _run(PLANE + "check closed area\ncheck closed area expect report\n")
    jsonschema.validate(suite_dict(SuiteReport(seed=1, scenarios=[rep])), schema)


def test_default_seed_in_report():
    suite = run_suite(only=["S9"])
    assert suite_dict(suite)["seed"] == DEFAULT_SEED == 0xC0FFEE


def test_non_finite_contact_samples_are_undecided(register_opaque):
    import numpy as np

    # The density is nanl'(x), whose numeric is NaN wherever x < 0.
    def nan_left(t):
        return np.where(np.asarray(t, dtype=float) < 0, np.nan, 1.0)

    register_opaque("nanl'", nan_left)
    text = (
        "chart C(x, y, z)\n"
        "opaque nanl\n"
        "form al on C = d(z) + nanl(x) * d(y)\n"
        "check contact al grid 8\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and not rec.ok
    assert rec.evidence["reason"] == "non-finite samples"
    (chart,) = rec.evidence["charts"]
    assert chart["non_finite"] > 0 and chart["zero"] == 0 and chart["negative"] == 0
    assert chart["non_finite"] + chart["positive"] == 64
    assert chart["min_abs"] == 1.0 and chart["worst_point"]["x"] >= 0
    assert rec.detail == f"(non-finite samples; +{chart['positive']} -0 0:0)"


def test_non_finite_locus_samples_are_undecided(register_opaque):
    import numpy as np

    register_opaque("nanf", lambda t: np.full(np.shape(t), np.nan))
    text = (
        "chart C(x, y)\n"
        "opaque nanf\n"
        "region R on C = [-1, 1]^2 lattice 3 random 16\n"
        "locus L on C = coords(x = 0)\n"
        "check vanishing_locus x*nanf(y)*d(y) on L region R\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and not rec.ok
    assert rec.evidence["non_finite"] == rec.evidence["off_count"] == 16
    assert rec.detail == "(3/3 on-locus, 0/16 off-locus, 16 non-finite)"


def test_locus_tallies_subtract_only_their_own_side(register_opaque):
    import numpy as np

    # nan0(x) is NaN on x = 0 and x elsewhere: the on-locus samples are
    # non-finite, and every off-locus sample holds.
    register_opaque("nan0", lambda t: np.where(np.asarray(t, dtype=float) == 0, np.nan, t))
    text = (
        "chart C(x, y)\n"
        "opaque nan0\n"
        "region R on C = [-1, 1]^2 lattice 3 random 16\n"
        "locus L on C = coords(x = 0)\n"
        "check vanishing_locus nan0(x)*d(y) on L region R\n"
        "check vanishing_locus (1 + y^2)*d(x) + (2 + y^2)*d(y) on L region R expect fail\n"
    )
    nan_on, failing = _run(text).checks
    assert nan_on.verdict == "undecided" and nan_on.evidence["non_finite"] == 3
    assert nan_on.detail == "(0/3 on-locus, 16/16 off-locus, 3 non-finite)"
    # One failure per sample, not one per nonvanishing coefficient.
    assert failing.verdict == "fail" and failing.evidence["on_failures"] == 3
    assert failing.detail == "(0/3 on-locus, 16/16 off-locus)"


def test_locus_samples_outside_the_region_fail_once():
    # x = 2 is outside [-1, 1]^2: each of the 3 samples of L is one failure,
    # so no on-locus count goes below zero, and fixed_points names them too.
    text = (
        "chart C(x, y)\n"
        "form om on C = d(y)\n"
        "vfield X on C = e(y)\n"
        "region R on C = [-1, 1]^2 lattice 3 random 8\n"
        "locus L on C = coords(x=2)\n"
        "check vanishing_locus om on L region R expect report\n"
        "check fixed_points X on L region R expect report\n"
    )
    for rec in _run(text).checks:
        assert rec.verdict == "fail" and rec.detail == "(0/3 on-locus, 8/8 off-locus)"
        assert {c["reason"] for c in rec.evidence["counterexamples"]} == {"locus sample outside region"}


def test_non_finite_positive_samples_are_undecided(register_opaque):
    import numpy as np

    register_opaque("nanf", lambda t: np.full(np.shape(t), np.nan))
    text = (
        "chart C(x, y)\n"
        "opaque nanf\n"
        "region R on C = [-1, 1]^2 lattice 3 random 16\n"
        "check positive nanf(x) region R\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and not rec.ok
    assert rec.evidence["non_finite"] == rec.evidence["samples"] == 25
    assert rec.evidence["failures"] == 0
    assert rec.detail == "(25 samples, 25 non-finite)"


def test_finite_positive_evidence_has_no_non_finite_key():
    text = "chart C(x, y)\nregion R on C = [-1, 1]^2 lattice 3 random 16\ncheck positive x^2 + 1 region R\n"
    (rec,) = _run(text).checks
    assert rec.verdict == "pass" and rec.detail == "(25 samples)"
    assert "non_finite" not in rec.evidence


def test_positive_band_hits_are_undecided():
    # exp(-40*x^2 - 40*y^2) is positive everywhere, but at the region's
    # edge its float value is below tol (1.8e-35 at (-1, -1)); with no exact
    # value such a sample is a band hit, not a counterexample.
    text = (
        "chart C(x, y)\n"
        "region R on C = [-1, 1]^2 lattice 3 random 16\n"
        "check positive exp(-40*x^2 - 40*y^2) region R\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and not rec.ok
    band = rec.evidence["band"]
    assert 0 < band < 25 and rec.evidence["failures"] == 0 and rec.evidence["counterexamples"] == []
    assert rec.detail == f"(25 samples, {band} in band)"


def test_fixed_points_band_hits_are_undecided():
    # The field is nonzero off the origin, but its float norm is below tol
    # at the off-locus samples with |x| near 1.
    text = (
        "chart C(x, y)\n"
        "region R on C = [-1, 1]^2 lattice 3 random 16\n"
        "vfield X on C = exp(-40*x^2)*(x*e(x) + y*e(y))\n"
        "locus L on C = coords(x = 0, y = 0)\n"
        "check fixed_points X on L region R\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and not rec.ok
    band = rec.evidence["band"]
    assert 0 < band < 16 and rec.evidence["off_failures"] == 0
    assert rec.detail == f"(1/1 on-locus, {16 - band}/16 off-locus, {band} in band)"


def test_off_locus_band_hits_without_an_exact_value_are_undecided():
    # exp(-1000*x^2) underflows to 0.0 far from x = 0: not polynomial, so
    # no exact re-check, and the nonzero requirement is left undecided.
    text = (
        "chart C(x, y)\n"
        "region R on C = [-1, 1]^2 lattice 3 random 16\n"
        "locus L on C = coords(x = 0)\n"
        "check vanishing_locus x*exp(-1000*x^2)*d(y) on L region R\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and rec.evidence["off_failures"] == 0
    assert 0 < rec.evidence["band"] <= 16


def test_locus_evidence_without_band_hits_has_no_band_key():
    text = PLANE.replace("d(x) /\\ d(y)", "x * d(y)") + (
        "region R on C = [-1, 1]^2 lattice 3 random 16\n"
        "locus L on C = coords(x = 0)\n"
        "check vanishing_locus area on L region R\n"
        "check positive x^2 + 1 region R\n"
    )
    recs = _run(text).checks
    assert [r.verdict for r in recs] == ["pass", "pass"]
    assert all("band" not in r.evidence and "band" not in r.detail for r in recs)


def test_rank_at_a_non_finite_matrix_is_undecided(register_opaque):
    # The float SVD cannot take a NaN entry; the rank is undecided rather
    # than an engine error.
    import numpy as np

    register_opaque("nanf", lambda t: np.full(np.shape(t), np.nan))
    text = (
        "chart C(x, y)\n"
        "opaque nanf\n"
        "form om on C = nanf(x) * d(x) /\\ d(y)\n"
        "check rank_at om, 2 at (x=1/2, y=0)\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and rec.evidence["non_finite"] == 1
    assert rec.evidence["undecided"] == 1 and rec.detail == "(1 of 1 points undecided)"


def test_rank_at_an_overflowing_entry_is_undecided():
    # exp(1000) is past the float range: the entry is inf, as numpy gives
    # it, so the float rank is undecided rather than an OverflowError.
    text = "chart C(x, y)\nform om on C = exp(1000*x)*d(x) /\\ d(y)\ncheck rank_at om, 2 at (x=1, y=0)\n"
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and rec.evidence["non_finite"] == 1
    assert rec.evidence["undecided"] == 1 and rec.detail == "(1 of 1 points undecided)"


def test_vanishing_locus_overflowing_samples_are_non_finite():
    # On the locus x = 1 the samples at y = -1 and y = 1 overflow in exact
    # evaluation, and one off-locus sample overflows in numpy; each is
    # counted under non_finite.
    text = (
        "chart C(x, y)\n"
        "form om on C = exp(1000*x)*y*d(y)\n"
        "region R on C = [-1, 1] x [-1, 1] lattice 3 random 8\n"
        "locus L on C = coords(x=1)\n"
        "check vanishing_locus om on L region R off nonzero\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "undecided" and rec.evidence["on_failures"] == 0
    assert rec.evidence["non_finite"] == 3
    assert rec.detail == "(1/3 on-locus, 2/8 off-locus, 3 non-finite, 5 in band)"


def test_a_stabilize_witness_prints_as_a_counterexample_point_does():
    # base vanishes at x = 0, so no K makes eta + K*base full rank there;
    # the witness keeps its exact coordinate a string and its float a number.
    text = (
        "chart C(x, y)\n"
        "form eta on C = 0*d(x) /\\ d(y)\n"
        "form base on C = x*d(x) /\\ d(y)\n"
        "region R on C = [0, 0] x [0.5, 0.5] lattice 1 random 0\n"
        "check stabilize eta, base region R k_max 2 expect fail\n"
    )
    (rec,) = _run(text).checks
    assert rec.verdict == "fail" and rec.evidence["witness"] == {"x": "0", "y": 0.5}


@pytest.mark.parametrize("tol, verdict", [(1e-9, "undecided"), (1e-14, "fail")])
def test_dividing_set_compares_its_scalar_at_the_run_tolerance(tol, verdict):
    # exp(x) and exp(x) + 10^-12 differ by 10^-12 everywhere: within the
    # default tol no sampled point separates them, within 1e-14 one does.
    text = (
        "chart C(x, y)\n"
        "form alpha on C = exp(x)*d(y)\n"
        "vfield X on C = e(y)\n"
        "locus L on C = empty\n"
        "region R on C = [-1, 1]^2 lattice 2 random 8\n"
        "check dividing_set alpha, X, exp(x) + 1/1000000000000 on L region R\n"
    )
    (rec,) = _run(text, tol=tol).checks
    assert rec.verdict == verdict
    reasons = [c["reason"] for c in rec.evidence["counterexamples"]]
    assert reasons == (["scalar mismatch"] if verdict == "fail" else [])


def test_finite_contact_evidence_has_no_non_finite_key():
    text = "chart C(x, y, z)\nform al on C = d(z) + (x^3 + x) * d(y)\ncheck contact al grid 8\n"
    (rec,) = _run(text).checks
    assert rec.verdict == "pass"
    assert "non_finite" not in rec.evidence["charts"][0]


@pytest.mark.parametrize("tol, shown", [(float("nan"), "nan"), (float("inf"), "inf"), (-1, "-1")])
def test_run_config_rejects_a_tolerance_that_is_not_finite_and_at_least_0(tol, shown):
    # A NaN tol made every comparison with it false: S8's contact sweeps
    # reported every sample as zero.
    with pytest.raises(DomainError, match=f"a tolerance must be a finite number at least 0, got {shown}$"):
        RunConfig(tol=tol)
    assert RunConfig(tol=0).tol == 0


def test_locus_samples_outside_the_region_fail_every_locus_check():
    # x = 2 lies outside [-1, 1]^2: rank_drop_locus, like vanishing_locus,
    # counts each of the 3 on-locus samples as one counterexample.
    text = (
        "chart C(x, y)\nmap m : C -> C = (x, y)\nform om on C = d(y)\n"
        "region R on C = [-1, 1]^2 lattice 3 random 8\nlocus L on C = coords(x=2)\n"
        "check rank_drop_locus m on L region R regular 2 singular 2 expect fail\n"
        "check vanishing_locus om on L region R expect fail\n"
    )
    checks = _run(text).checks
    assert [(c.verdict, c.detail) for c in checks] == [("fail", "(0/3 on-locus, 8/8 off-locus)")] * 2
    assert [c.evidence["on_failures"] for c in checks] == [3, 3]
