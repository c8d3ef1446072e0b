"""The nsx benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload exact-sampling [--seed N] [--seconds 40] [--trace 0|1]

A run is a closed loop with one client: fresh workload processes run one
after another, never two at once, each on one thread (BLAS pinned to one).

--trace 0 starts fresh processes one after another until --seconds have
passed.  Each reports its set-up time (spawn until nsx is imported and the
workload is built), the latency of every op in its cold first pass and in
WARM_PASSES warm passes (fewer once the time is up), and its peak RSS.
Set-up time and peak RSS are medians over the processes.  The timings of the
passes use each op's fastest time over the run: cold_s sums the ops' fastest
cold times, ops_per_s divides the op count by the sum of their fastest warm
times, and the latency percentiles are taken over those fastest warm times.
On a shared machine an op runs up to 1.6x slower while other tenants load
the host, in stretches of seconds to minutes; an op does the same work every
time, so its fastest run tracks the code rather than that load, as timeit's
minimum does.  The processes alternate between the available CPUs, which
other tenants slow independently.

--trace 1 alternates untraced and traced fresh processes, each doing set-up
and one cold pass, for --seconds.  Traced processes wrap the engine's public
functions (see tracing.py); their call counts must repeat exactly and their
report bytes must equal the untraced ones.  Per-layer times are medians over
traced processes.

Progress and the environment go to standard output first; the last line is
the JSON result.  The run fails, printing no result, if a workload process
fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median, quantiles
from time import monotonic, perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("exact-sampling", "symbolic", "dsl-roundtrip")
WARM_PASSES = 2  # per fresh process of an untraced run
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# label -> unit of the layer metrics derived from a traced process.
LAYER_LABELS = tuple(dict.fromkeys(label for label, _, _ in tracing.LAYERS if label != "runner.check"))
RATIOS = {
    # name: (numerator counter, base counter or a calls label, unit)
    "locus.off_locus.accept_ratio": ("off_locus.accepted", "off_locus.distance_calls", "ratio"),
    "pointcheck.rank.undecided_ratio": ("float_rank.undecided", "linalg.float_rank", "ratio"),
    "pointcheck.contact.decided_ratio": ("contact.decided", "contact.samples", "ratio"),
}
RATES = {
    # name: (counter, label whose inclusive seconds divide it, unit)
    "props.samples_per_s": ("props.samples", "props.battery", "1/s"),
    "dsl.parse.bytes_per_s": ("dsl.parse.bytes", "dsl.parse", "B/s"),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for label in LAYER_LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    for kind in tracing.CHECK_KINDS:
        units[f"runner.check.{kind}.calls"] = "count"
        units[f"runner.check.{kind}.incl_s"] = "s"
    for name, (_, _, unit) in {**RATIOS, **RATES}.items():
        units[name] = unit
    units["trace.overhead"] = "ratio"
    return units


class WorkerFailed(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # load cached bytecode, as an installed nsx does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, *, warm=0, until=None, trace=False):
    """Run one fresh workload process; returns (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--warm", str(warm)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if until is not None:
        cmd += ["--until", repr(until)]
    if trace:
        cmd.append("--trace")
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise WorkerFailed(f"{workload} process failed (exit {code})")
    return setup_s, json.loads(lines[-1])


def timed_run(workload, seed, seconds):
    deadline = monotonic() + seconds
    cpus = sorted(os.sched_getaffinity(0))
    setups, workers = [], []
    while monotonic() < deadline or len(workers) < 2:
        # Each vCPU of a shared host is slowed by other tenants on its own
        # schedule; alternating the processes between them samples both.
        os.sched_setaffinity(0, {cpus[len(workers) % len(cpus)]})  # inherited by the next process
        setup_s, result = spawn(workload, seed, warm=WARM_PASSES, until=deadline)
        setups.append(setup_s)
        workers.append(result)
    # Each op's fastest time over the run's processes: see the module docstring.
    cold = [min(op) for op in zip(*(w["cold_ms"] for w in workers))]
    best = [min(op) for op in zip(*(w["best_ms"] for w in workers))]
    deciles = quantiles(best, n=10, method="inclusive")
    ops, n = len(best), len(workers)
    passes = sum(w["warm_passes"] for w in workers)
    metrics = {
        "setup_s": median(setups),
        "cold_s": sum(cold) / 1e3,
        "ops_per_s": ops / (sum(best) / 1e3),
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "peak_rss_mb": median(w["peak_rss_mb"] for w in workers),
    }
    samples = {
        "setup_s": f"median of {n} fresh processes",
        "cold_s": f"sum over {ops} ops of each op's fastest time in the first passes of {n} fresh processes",
        "ops_per_s": f"{ops} ops over the sum of each op's fastest time in {passes} warm passes",
        "op_p50_ms": f"over {ops} ops of each op's fastest time in {passes} warm passes",
        "op_p90_ms": f"over {ops} ops of each op's fastest time in {passes} warm passes",
        "peak_rss_mb": f"median of {n} fresh processes",
    }
    return workers, metrics, END_TO_END_UNITS, samples


def _ratio(num, base):
    return num / base if base else 0.0


def traced_run(workload, seed, seconds):
    deadline = monotonic() + seconds
    plain, traced = [], []
    while monotonic() < deadline or len(plain) < 1 or len(traced) < 2:
        trace = len(traced) < len(plain)
        (traced if trace else plain).append(spawn(workload, seed, trace=trace)[1])
    snaps = [w["trace"] for w in traced]
    calls = snaps[0]["calls"]
    counts = snaps[0]["counts"]

    def med(kind, label):
        return median([s[kind].get(label, 0.0) for s in snaps])

    metrics = {}
    for label in LAYER_LABELS:
        metrics[f"{label}.calls"] = calls.get(label, 0)
        metrics[f"{label}.self_s"] = med("self_s", label)
    for kind in tracing.CHECK_KINDS:
        label = f"runner.check.{kind}"
        metrics[f"{label}.calls"] = calls.get(label, 0)
        metrics[f"{label}.incl_s"] = med("incl_s", label)
    for name, (num, base, _) in RATIOS.items():
        metrics[name] = _ratio(counts.get(num, 0), counts.get(base, calls.get(base, 0)))
    for name, (num, label, _) in RATES.items():
        metrics[name] = median([_ratio(s["counts"].get(num, 0), s["incl_s"].get(label, 0.0)) for s in snaps])
    metrics["trace.overhead"] = median(sum(w["cold_ms"]) for w in traced) / median(sum(w["cold_ms"]) for w in plain)
    repeat = all(s["calls"] == calls and s["counts"] == counts for s in snaps)
    samples = {name: f"{len(traced)} traced, {len(plain)} untraced processes" for name in metrics}
    return plain + traced, metrics, per_layer_units(), samples, repeat


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default runner.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nsx" / "__init__.py").is_file():
        sys.exit(f"error: no nsx sources under {SRC}")

    try:
        if args.trace:
            workers, metrics, units, samples, repeat = traced_run(args.workload, args.seed, args.seconds)
        else:
            workers, metrics, units, samples = timed_run(args.workload, args.seed, args.seconds)
            repeat = True
    except WorkerFailed as e:
        sys.exit(f"error: {e}")

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    same_output = len({w["output_sha"] for w in workers}) == 1
    deterministic = all(w["deterministic"] for w in workers)
    env = {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": workers[0]["numpy"],
        "blas": workers[0]["blas"],
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": "runner.DEFAULT_SEED" if args.seed is None else args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({samples[name]})")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(f"same output in every process: {same_output}; every pass identical: {deterministic}"
          + ("; call counts repeat exactly: " + str(repeat) if args.trace else ""))
    result = {
        "correct": failed == 0 and same_output and deterministic and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
