"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

They check that the workloads split the paper suite exactly, that every op
passes its reference at the default seed, that the traced run wraps the
layers the README's table names (non-zero calls where it says so, zero where
it says zero), and that the result lines follow BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workload  # noqa: E402
from nsx import runner  # noqa: E402
from nsx.scenarios import SUITE  # noqa: E402

ENGINE = tuple(workload.ENGINE_WORKLOADS)
SAMPLING = ("locus.random_env", "locus.distance_sq", "locus.off_locus_envs", "locus.verify")
EXACT_POINT = (
    "symexpr.evaluate",
    "linalg.exact_rank",
    "pointcheck.rank_at",
    "pointcheck.near_symplectic_at",
    "pointcheck.gradient_rank_at",
    "pointcheck.stabilize",
)
BUILDING = ("symexpr.mul", "symexpr.add", "symexpr.diff", "symexpr.subs",
            "charts.wedge", "charts.d", "charts.pullback")

# label -> workloads with calls > 0.  linalg.float_rank is in no entry: every
# rank_at matrix of the suite evaluates exactly, so no workload reaches it.
NONZERO = {
    **{label: ("exact-sampling",) for label in SAMPLING + EXACT_POINT},
    **{label: ("symbolic",) for label in BUILDING},
    "charts.interior": ("symbolic",),
    "charts.star": ("symbolic",),
    "props.battery": ("symbolic",),
    "sympl.graph_straightening": ("symbolic",),
    "symexpr.compile_numpy": ("symbolic",),
    "pointcheck.contact_test": ("symbolic",),
    "symexpr.semantically_equal": ("symbolic",),
    "dsl.parse": workload.WORKLOADS,
    "dsl.print": ("dsl-roundtrip",),
    "runner.elaborate": ENGINE,
    "runner.report_json": ENGINE,
}
# label -> workloads with no calls at all.
ZERO = {
    **{label: ("symbolic", "dsl-roundtrip") for label in SAMPLING},
    "pointcheck.contact_test": ("exact-sampling",),
    "props.battery": ("exact-sampling",),
    "dsl.print": ENGINE,
    **{label: ("dsl-roundtrip",) for label in run.LAYER_LABELS if not label.startswith("dsl.")},
}
# layer-label prefixes that hold most of the traced self time
DOMINANT = {
    "exact-sampling": ("locus.",),
    "symbolic": ("symexpr.", "charts.", "pointcheck.contact_test"),
    "dsl-roundtrip": ("dsl.",),
}


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_engine_workloads_split_the_paper_suite():
    sids = [sid for sids in workload.ENGINE_WORKLOADS.values() for sid in sids]
    assert sorted(sids) == sorted(sid for sid, _, _ in SUITE)
    assert len(set(sids)) == len(sids)
    for name, ids in workload.ENGINE_WORKLOADS.items():
        latencies, failed, output = workload.build(name, runner.DEFAULT_SEED).run_pass()
        assert failed == 0, name
        assert output == runner.report_json(runner.run_suite(only=ids)), name


def test_dsl_corpus_round_trips():
    latencies, failed, _ = workload.build("dsl-roundtrip", runner.DEFAULT_SEED).run_pass()
    assert len(latencies) == len(SUITE) + workload.CORPUS_SIZE
    assert failed == 0


def test_reference_reads_expectations_from_the_text():
    assert workload.declared_outcomes('check closed om expect fail\ncheck closed om note "x"') == ["fail", "pass"]
    assert workload.agrees("S8", 11, "pass", "fail")
    assert not workload.agrees("S8", 11, "pass", "pass")
    assert not workload.agrees("S1", 0, "report", "error")


def test_metric_names_follow_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result("--workload", "dsl-roundtrip", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_traced_run_wraps_the_named_layers(name):
    result = _result("--workload", name, "--seconds", "1", "--trace", "1")
    # correct covers: call counts equal across traced processes, report bytes
    # equal to the untraced processes', every op as referenced.
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    for label, names in NONZERO.items():
        if name in names:
            assert metrics[f"{label}.calls"] > 0, label
    for label, names in ZERO.items():
        if name in names:
            assert metrics[f"{label}.calls"] == 0, label
    kinds = {stmt.kind for sid, _, text in SUITE
             if name in ENGINE and sid in workload.ENGINE_WORKLOADS[name]
             for stmt in workload.dsl.parse_scenario(text).checks()}
    for kind in run.tracing.CHECK_KINDS:
        assert (metrics[f"runner.check.{kind}.calls"] > 0) == (kind in kinds), kind
    self_s = {label: metrics[f"{label}.self_s"] for label in run.LAYER_LABELS}
    dominant = sum(s for label, s in self_s.items() if label.startswith(DOMINANT[name]))
    assert dominant > 0.5 * sum(self_s.values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "symbolic", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
