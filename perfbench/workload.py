"""One workload process of the nsx benchmark.

`run.py` starts this file once per fresh process.  The process imports nsx,
builds its workload (parse and elaborate the scenarios, or draw the DSL
corpus), prints `ready`, runs one cold pass, then up to `--warm` warm passes
(after the first, none starts past `--until`), and prints one JSON line with
each op's latencies and its other measurements.
Checks run one after another on one thread.

Every op is checked against a reference that does not come from the engine
under test: a check's verdict against the `expect` written in the scenario
text, a DSL round trip against its own first print.
"""

import argparse
import hashlib
import json
import random
import re
import resource
import sys
import traceback
from time import monotonic, perf_counter

from nsx import dsl, runner
from nsx.scenarios import SUITE

# The two engine workloads split S1..S12 between them, so together they run
# exactly what `nsx paper-suite` runs.
ENGINE_WORKLOADS = {
    "exact-sampling": ("S1", "S2", "S3", "S4", "S5", "S6", "S10", "S11"),
    "symbolic": ("S7", "S8", "S9", "S12"),
}
WORKLOADS = tuple(ENGINE_WORKLOADS) + ("dsl-roundtrip",)

# Random scenarios added to the twelve suite texts in dsl-roundtrip.
CORPUS_SIZE = 400

# S8's three contact sweeps are declared `pass` and find mixed signs (README,
# "Known red checks"); their disagreement is the correct outcome.
KNOWN_RED = {("S8", 11), ("S8", 12), ("S8", 13)}

_EXPECT = re.compile(r"\bexpect\s+(pass|fail|report)\s*$")


def declared_outcomes(text):
    """The `expect` of each check statement, read from the text itself."""
    out = []
    for line in text.splitlines():
        if line.startswith("check "):
            m = _EXPECT.search(line)
            out.append(m.group(1) if m else "pass")
    return out


def agrees(sid, index, expect, verdict):
    if (sid, index) in KNOWN_RED:
        return verdict == "fail"
    if expect == "report":
        return verdict != "error"
    return verdict == expect


class EngineWorkload:
    """Elaborated scenarios whose checks are the ops."""

    def __init__(self, sids, seed):
        self.config = runner.RunConfig(seed=seed)
        self.scenarios = []
        for sid, anchor, text in SUITE:
            if sid not in sids:
                continue
            scenario = dsl.parse_scenario(text)
            scope = runner.elaborate_scope(scenario, self.config)
            checks = scenario.checks()
            expects = declared_outcomes(text)
            if len(expects) != len(checks):
                raise RuntimeError(f"{sid}: {len(expects)} check lines, {len(checks)} parsed checks")
            self.scenarios.append((sid, anchor, scope, checks, expects))

    def run_pass(self):
        """(per-op seconds, failed ops, report_json text) of one pass."""
        latencies = []
        failed = 0
        reports = []
        for sid, anchor, scope, checks, expects in self.scenarios:
            records = []
            for index, stmt in enumerate(checks):
                t0 = perf_counter()
                try:
                    record = runner.run_check(scope, stmt, sid, index, self.config)
                except Exception:
                    traceback.print_exc()
                    record = None
                latencies.append(perf_counter() - t0)
                if record is None:
                    failed += 1
                    continue
                failed += not agrees(sid, index, expects[index], record.verdict)
                records.append(record)
            status = "pass" if all(r.ok for r in records) else "fail"
            reports.append(runner.ScenarioReport(sid=sid, anchor=anchor, status=status, checks=records))
        suite = runner.SuiteReport(seed=self.config.seed, scenarios=reports)
        return latencies, failed, runner.report_json(suite)


class DslWorkload:
    """The suite texts plus a seeded random corpus; each round trip is an op."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.texts = [text for _, _, text in SUITE]
        self.texts += [dsl.print_scenario(dsl.random_scenario(rng)) for _ in range(CORPUS_SIZE)]

    def run_pass(self):
        latencies = []
        failed = 0
        printed = []
        for text in self.texts:
            t0 = perf_counter()
            try:
                first = dsl.print_scenario(dsl.parse_scenario(text))
                ok = dsl.print_scenario(dsl.parse_scenario(first)) == first
            except Exception:
                traceback.print_exc()
                first, ok = "", False
            latencies.append(perf_counter() - t0)
            failed += not ok
            printed.append(first)
        return latencies, failed, "".join(printed)


def build(name, seed):
    if name == "dsl-roundtrip":
        return DslWorkload(seed)
    return EngineWorkload(ENGINE_WORKLOADS[name], seed)


def _versions():
    numpy = sys.modules["numpy"]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
    parser.add_argument("--warm", type=int, default=0, help="warm passes after the cold one")
    parser.add_argument("--until", type=float, default=None,
                        help="time.monotonic() after which no further warm pass starts")
    parser.add_argument("--trace", action="store_true", help="wrap the engine's layers first")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = build(args.workload, args.seed)
    print("ready", flush=True)

    cold, failed, cold_output = workload.run_pass()
    attempted = len(cold)
    result = {"cold_ms": [t * 1e3 for t in cold], "warm_passes": 0, "best_ms": [], "deterministic": True}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    best = None
    for _ in range(args.warm):
        if best is not None and args.until is not None and monotonic() >= args.until:
            break
        latencies, pass_failed, output = workload.run_pass()
        best = latencies if best is None else list(map(min, best, latencies))
        result["warm_passes"] += 1
        attempted += len(latencies)
        failed += pass_failed
        result["deterministic"] &= output == cold_output
    if best is not None:
        result["best_ms"] = [t * 1e3 for t in best]
    result.update(
        attempted=attempted,
        failed=failed,
        output_sha=hashlib.sha256(cold_output.encode()).hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **_versions(),
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
