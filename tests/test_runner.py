import json
from fractions import Fraction

import pytest

from nsx.dsl import parse_scenario
from nsx.errors import ElaborationError
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
    assert RunConfig().grid_n(0) == 64
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
    assert set(scope.charts) == {"C"}
    assert scope.params == {"Kp"}
    assert str(scope.consts["c0"]) == "-1/4 + x^2"
    om = scope.forms["om"]
    assert isinstance(om, DForm) and om.degree == 2
    assert scope.maps["sq"].target is scope.charts["C"]
    region = scope.regions["R"]
    assert isinstance(region, Region) and region.random_count == 64
    assert isinstance(scope.loci["L"], CoordLocus)


def test_elaborate_region_count_respects_config():
    text = "chart C(x, y)\nregion R on C = [-1, 1]^2 lattice 3 random 64\n"
    scope = elaborate_scope(parse_scenario(text), RunConfig(samples=2))
    assert scope.regions["R"].random_count == 8


def test_elaborate_rejects_duplicates():
    text = "chart C(x, y)\nform om on C = d(x)\nform om on C = d(y)\n"
    with pytest.raises(ElaborationError):
        elaborate_scope(parse_scenario(text), RunConfig())


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
    assert "already defined" in rec.evidence["error"]


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
