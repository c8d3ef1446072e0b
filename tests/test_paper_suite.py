"""Regression pins for the built-in scenario suite.

Every expected value below was read off a run of the engine and frozen;
the suite itself is deterministic, so any drift is a real change.  The
three contact sweeps in S8 are declared pass and do not pass: the
mixed-sign evidence is the recorded outcome, and these tests pin it as
such rather than papering over it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nsx.runner import DEFAULT_SEED, RunConfig, report_json, report_text, run_suite, suite_dict

EXPECTED_STATUS = {
    "S1": "pass",
    "S2": "pass",
    "S3": "pass",
    "S4": "pass",
    "S5": "pass",
    "S6": "pass",
    "S7": "pass",
    "S8": "fail",
    "S9": "pass",
    "S10": "pass",
    "S11": "pass",
    "S12": "pass",
}

EXPECTED_CHECK_COUNTS = {
    "S1": 5,
    "S2": 5,
    "S3": 4,
    "S4": 3,
    "S5": 4,
    "S6": 4,
    "S7": 3,
    "S8": 14,
    "S9": 1,
    "S10": 3,
    "S11": 4,
    "S12": 5,
}


def test_suite_shape(suite):
    assert [s.sid for s in suite.scenarios] == [f"S{i}" for i in range(1, 13)]
    assert {s.sid: s.status for s in suite.scenarios} == EXPECTED_STATUS
    assert {s.sid: len(s.checks) for s in suite.scenarios} == EXPECTED_CHECK_COUNTS
    assert not suite.passed


def test_only_contact_sweeps_disagree(suite):
    for s in suite.scenarios:
        for c in s.checks:
            if s.sid == "S8" and c.index >= 11:
                assert not c.ok
            else:
                assert c.ok, (s.sid, c.index, c.detail)


def test_s1_transverse_model(by_id):
    got = [(c.kind, c.verdict, c.detail) for c in by_id["S1"].checks]
    assert got == [
        ("closed", "pass", "(exact)"),
        ("gradient_rank_at", "pass", "(rank 3)"),
        ("rank_at", "pass", "(rank 0 at 3 points)"),
        ("rank_at", "pass", "(rank 4 at 32 points)"),
        ("nearsympl_at", "pass", "(3 points)"),
    ]


def test_s2_product_model(by_id):
    checks = by_id["S2"].checks
    assert checks[1].detail == "(27/27 on-locus, 256/256 off-locus)"
    assert checks[1].evidence["counterexamples"] == []
    assert checks[3].detail == "(rank 2 at 27 points)"


def test_s3_six_dim_normal_form(by_id):
    checks = by_id["S3"].checks
    assert checks[1].detail == "(64/64 on-locus, 4096/4096 off-locus)"
    assert checks[2].detail == "(10 points)"
    assert (checks[3].verdict, checks[3].expect, checks[3].ok) == ("fail", "fail", True)
    assert checks[3].detail == "(nondegenerate point)"


def test_s4_fibration_rank_drops(by_id):
    got = [(c.verdict, c.detail) for c in by_id["S4"].checks]
    assert got == [
        ("pass", "(27/27 on-locus, 64/64 off-locus)"),
        ("pass", "(3/3 on-locus, 64/64 off-locus)"),
        ("pass", "(9/9 on-locus, 64/64 off-locus)"),
    ]


def test_s5_cutoff_primitive(by_id):
    checks = by_id["S5"].checks
    assert (checks[0].verdict, checks[0].detail) == ("pass", "(exact)")
    assert (checks[1].verdict, checks[1].expect) == ("fail", "fail")
    assert checks[1].detail == "(5 residual terms)"
    assert checks[2].detail == "(3/3 on-locus, 64/64 off-locus)"
    assert checks[3].detail == "(145 samples)"


def test_s6_stabilizing_constant(by_id):
    checks = by_id["S6"].checks
    assert checks[1].detail == "(rank 2 at 27 points)"
    assert checks[2].detail == "(rank 6 at 16 points)"
    assert checks[3].detail == "(K = 1)"
    assert checks[3].evidence == {
        "found": True,
        "constant": "1",
        "attempts": 1,
        "samples": 64,
    }


def test_s7_bracket_tables(by_id):
    checks = by_id["S7"].checks
    assert [c.verdict for c in checks] == ["pass", "pass", "fail"]
    assert checks[0].detail == "(canonical table)"
    assert checks[2].expect == "fail"
    assert checks[2].detail == "(2 offending, e.g. {q1,p2} = y1)"


def test_s8_collar_and_candidates(by_id):
    checks = by_id["S8"].checks
    head = [(c.kind, c.verdict, c.expect, c.detail) for c in checks[:11]]
    assert head == [
        ("closed", "pass", "pass", "(exact)"),
        ("rank_at", "pass", "pass", "(rank 2)"),
        ("equal", "pass", "pass", "(equal)"),
        ("closed", "fail", "fail", "(1 residual terms)"),
        ("closed", "fail", "fail", "(1 residual terms)"),
        ("equal", "fail", "fail", "(differs at [3, 4])"),
        ("rank_at", "pass", "pass", "(rank 2)"),
        ("rank_at", "pass", "pass", "(rank 2)"),
        ("closed", "pass", "pass", "(exact)"),
        ("rank_at", "pass", "pass", "(rank 2)"),
        ("equal", "fail", "report", "(differs at [1])"),
    ]
    assert checks[10].evidence["differs_at"] == [1]
    assert checks[10].evidence["status"] == "not equal"


S8_CONTACT_TOTALS = {
    11: (27008, 38528),
    12: (24896, 40640),
    13: (24384, 41152),
}


@pytest.mark.parametrize("index", [11, 12, 13])
def test_s8_contact_sweeps_mixed(by_id, index):
    c = by_id["S8"].checks[index]
    assert (c.kind, c.verdict, c.expect, c.ok) == ("contact", "fail", "pass", False)
    ev = c.evidence
    assert ev["reason"] == "mixed signs"
    assert ev["orientation_reversed"] is False
    labels = [ch["label"] for ch in ev["charts"]]
    assert labels == ["chart0:sphN", "chart1:sphS"]
    for ch in ev["charts"]:
        assert ch["mode"] == "sampled"
        assert ch["samples"] == 8 * 64 * 64
        assert ch["jacobian_drops"] == 0
        assert ch["zero"] == 0
        assert ch["positive"] > 0 and ch["negative"] > 0
    pos = sum(ch["positive"] for ch in ev["charts"])
    neg = sum(ch["negative"] for ch in ev["charts"])
    assert (pos, neg) == S8_CONTACT_TOTALS[index]
    assert c.detail == f"(mixed signs; +{pos} -{neg} 0:0)"


def test_s8_contact_chart_split_at_k5(by_id):
    ev = by_id["S8"].checks[11].evidence
    north, south = ev["charts"]
    assert (north["positive"], north["negative"]) == (18432, 14336)
    assert (south["positive"], south["negative"]) == (8576, 24192)


def test_s9_symbolic_density(by_id):
    (c,) = by_id["S9"].checks
    assert c.detail == "(symbolic: pi)"
    (chart,) = c.evidence["charts"]
    assert chart["mode"] == "symbolic"
    assert chart["sign"] == 1
    assert chart["symbolic_value"] == "pi"


def test_s10_blowdown_and_rotation(by_id):
    got = [(c.kind, c.verdict, c.detail) for c in by_id["S10"].checks]
    assert got == [
        ("pullback_eq", "pass", "(equal)"),
        ("dividing_set", "pass", "(15/15 on-locus, 64/64 off-locus)"),
        ("fixed_points", "pass", "(10/10 on-locus, 64/64 off-locus)"),
    ]


def test_s11_section_restriction(by_id):
    checks = by_id["S11"].checks
    assert (checks[0].verdict, checks[0].detail) == ("pass", "(equal)")
    assert (checks[1].verdict, checks[1].expect) == ("fail", "report")
    assert checks[1].detail == "(differs at [2])"
    assert checks[2].detail == "(2/2 on-locus, 64/64 off-locus)"
    assert checks[3].detail == "(32/32 on-locus, 64/64 off-locus)"


def test_s12_property_battery(by_id):
    checks = by_id["S12"].checks
    names = [c.evidence["name"] for c in checks]
    assert names == ["dd_zero", "graded_comm", "functorial", "antiderivation", "double_star"]
    for c in checks:
        assert c.verdict == "pass"
        assert c.evidence["failures"] == 0
        assert c.evidence["dims"] == [2, 3, 4, 5, 6]
    assert [c.evidence.get("samples") for c in checks[:4]] == [1000, 500, 100, 200]
    assert checks[4].evidence["checked"] == 124
    assert checks[4].detail == "(124 basis forms, 0 failures)"


def test_report_text_tail(suite):
    lines = report_text(suite).splitlines()
    assert lines[-1] == "suite: fail (11/12 scenarios)"
    assert "S8: fail (11/14 checks as declared)" in lines
    assert "S8.11 contact FAIL (mixed signs; +27008 -38528 0:0) [unexpected]" in lines
    assert "S3.3 nearsympl_at FAIL (nondegenerate point) [declared fail]" in lines


def test_full_report_matches_schema(suite):
    import importlib.resources

    import jsonschema

    schema = json.loads(
        importlib.resources.files("nsx").joinpath("schema.json").read_text()
    )
    jsonschema.validate(suite_dict(suite), schema)


# The exact-path scenarios, whose report bytes every change to sampling,
# distances, evaluation or exact linear algebra must keep.  The file was
# written by the engine before its sampler moved to scaled integers.
EXACT_SCENARIOS = ("S1", "S2", "S3", "S4", "S5", "S6", "S10", "S11")
GOLDEN_EXACT = Path(__file__).parent / "golden" / "exact_sampling_report.json"


def test_exact_scenarios_match_golden_report(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD would make the golden bytes depend on BLAS")

    # A forbidden SVD becomes an error verdict, so the bytes would differ.
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    suite = run_suite(only=EXACT_SCENARIOS, config=RunConfig(seed=DEFAULT_SEED))
    assert [s.sid for s in suite.scenarios] == list(EXACT_SCENARIOS)
    assert report_json(suite) == GOLDEN_EXACT.read_text()
