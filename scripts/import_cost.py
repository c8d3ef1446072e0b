#!/usr/bin/env python3
"""Time `from nsx import dsl, runner` in fresh processes.

Every workload of the benchmark and every `nsx` command pays this import
before it does any work.  One untimed process first writes the bytecode
cache, as the benchmark's first process does; then each of --processes
fresh processes, one after another, times `import numpy` and, after it,
`from nsx import dsl, runner` with perf_counter.  The first table gives
the median and the range of each over the processes.  The second gives
the median self time per module from as many runs under
`python -X importtime`, the --top modules of nsx and the total of the
rest (numpy and the standard library).

    python3 scripts/import_cost.py --processes 9
    python3 scripts/import_cost.py --src path/to/other/src
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

SRC = Path(__file__).resolve().parent.parent / "src"

TIMED = (
    "from time import perf_counter as t\n"
    "t0 = t()\n"
    "import numpy\n"
    "t1 = t()\n"
    "from nsx import dsl, runner\n"
    "t2 = t()\n"
    "print(t1 - t0, t2 - t1)\n"
)
IMPORTED = "from nsx import dsl, runner"


def positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def self_times(stderr):
    """{module: self microseconds} from the lines `-X importtime` writes."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if fields[0].strip().isdigit():
            out[fields[2].strip()] = int(fields[0])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--processes", type=positive, default=7, help="timed processes, and as many under -X importtime")
    ap.add_argument("--top", type=positive, default=10, help="nsx modules listed by self time")
    ap.add_argument("--src", type=Path, default=SRC, help="the directory that holds the nsx package")
    args = ap.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(args.src.resolve()), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    def run(*argv):
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True)

    run("-c", IMPORTED)  # writes the bytecode cache
    timed = [tuple(map(float, run("-c", TIMED).stdout.split())) for _ in range(args.processes)]
    numpy_s, nsx_s = zip(*timed)
    totals = [a + b for a, b in timed]
    print(f"{args.processes} fresh processes, bytecode cached ({args.src})")
    for label, values in (("import numpy", numpy_s), ("from nsx import dsl, runner (after numpy)", nsx_s),
                          ("both", totals)):
        print(f"  {label:<44} median {median(values) * 1e3:7.1f} ms"
              f"   range {min(values) * 1e3:.1f}-{max(values) * 1e3:.1f} ms")

    runs = [self_times(run("-X", "importtime", "-c", IMPORTED).stderr) for _ in range(args.processes)]
    modules = set().union(*runs)
    medians = {m: median(r.get(m, 0) for r in runs) for m in modules}
    ours = sorted((m for m in modules if m == "nsx" or m.startswith("nsx.")), key=lambda m: -medians[m])
    print(f"median self time per module under -X importtime, {args.processes} processes")
    for m in ours[: args.top]:
        print(f"  {m:<44} {medians[m] / 1e3:7.1f} ms")
    print(f"  {'all nsx modules':<44} {sum(medians[m] for m in ours) / 1e3:7.1f} ms")
    print(f"  {'everything else (numpy, standard library)':<44} "
          f"{sum(medians[m] for m in modules if m not in ours) / 1e3:7.1f} ms")


if __name__ == "__main__":
    main()
