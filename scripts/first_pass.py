#!/usr/bin/env python3
"""Time every check's first pass and warm passes over fresh processes.

The benchmark's cold_s sums the checks' fastest first-pass latencies, so
this table shows which checks a change moved.  Each of --processes fresh
processes imports nsx, elaborates the chosen suite scenarios, runs every
check once (the first pass, with nothing built or kept yet) and then
--warm more times.  The table gives each check's fastest first-pass and
fastest warm latency over the processes.  The processes run one after
another, each on one thread (BLAS pinned to one).

    python3 scripts/first_pass.py --only S8 --processes 5
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import nsx
from nsx import dsl, runner
from nsx.scenarios import SUITE


def run_passes(sids, seed, warm):
    """{check name: [kind, first-pass s, warm s, ...]} in suite order."""
    config = runner.RunConfig(seed=seed)
    checks = []
    for sid, _anchor, text in SUITE:
        if sid in sids:
            scenario = dsl.parse_scenario(text)
            scope = runner.elaborate_scope(scenario, config)
            checks += [(sid, index, stmt, scope) for index, stmt in enumerate(scenario.checks())]
    times = {f"{sid}-{index}": [stmt.kind] for sid, index, stmt, _ in checks}
    for _ in range(1 + warm):
        for sid, index, stmt, scope in checks:
            t0 = perf_counter()
            runner.run_check(scope, stmt, sid, index, config)
            times[f"{sid}-{index}"].append(perf_counter() - t0)
    return times


def positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", default=",".join(sid for sid, _, _ in SUITE),
                    help="comma-separated scenario ids (default: the whole suite)")
    ap.add_argument("--processes", type=positive, default=5, help="fresh processes, one after another")
    ap.add_argument("--warm", type=positive, default=2, help="warm passes per process")
    ap.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    sids = args.only.split(",")
    unknown = sorted(set(sids) - {sid for sid, _, _ in SUITE})
    if unknown:
        ap.error(f"no suite scenario {', '.join(unknown)}")

    if args.worker:
        print(json.dumps(run_passes(sids, args.seed, args.warm)))
        return

    env = dict(os.environ)
    root = str(Path(nsx.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, __file__, "--worker", "--only", args.only,
            "--warm", str(args.warm), "--seed", str(args.seed)]
    runs = [
        json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
        for _ in range(args.processes)
    ]

    print(f"{args.only}: fastest of {args.processes} fresh processes,"
          f" {args.warm} warm passes each, seed {args.seed}")
    print(f"{'check':<8} {'kind':<16} {'first_ms':>9} {'warm_ms':>9}")
    first_total = warm_total = 0.0
    for name, (kind, *_) in runs[0].items():
        first = min(run[name][1] for run in runs)
        warm = min(min(run[name][2:]) for run in runs)
        first_total += first
        warm_total += warm
        print(f"{name:<8} {kind:<16} {first * 1e3:>9.3f} {warm * 1e3:>9.3f}")
    print(f"{'total':<25} {first_total * 1e3:>9.3f} {warm_total * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
