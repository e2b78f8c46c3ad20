"""Checks of the benchmark's tracing.

    python3 perfbench/selfcheck.py [workload ...]

1. A traced ``resolve`` of the residue field of R5 to step 3, alone, makes
   134 engine runs, 132 of them attributed to ``minimal_generators`` (the
   ROADMAP profile of this code; a change to minimal generators moves it).
2. For each workload (default: all), two traced runs with the same seed in
   separate processes report identical counts.

Exit code 0 when both hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import METRICS, Tracer  # noqa: E402
from run import ROOT, Lib  # noqa: E402


def r5_attribution():
    lib = Lib()
    op = workloads.resolve_op("R5", 101, workloads.R5_VARS, workloads.R5_IDEAL, 3, workloads.R5_BETTI)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = op.id
        answer = op.run(lib)
    finally:
        tracer.uninstall()
    sites = tracer.resolve_runs[op.id]
    total, mingens = sum(sites.values()), sites["mingens"]
    ok = workloads.check(op, answer) and (total, mingens) == (134, 132)
    print("R5 resolve to step 3: %d engine runs, %d from minimal_generators: %s"
          % (total, mingens, "ok" if ok else "FAILED"))
    return ok


def traced_counts(name, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    units = dict(METRICS)
    return {k: v["value"] for k, v in result["metrics"].items() if units[k] != "s"}


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    ok = r5_attribution()
    for name in names:
        first, second = traced_counts(name, 1), traced_counts(name, 1)
        differ = sorted(k for k in first if first[k] != second[k])
        print("%s: %d counts, identical across two traced runs: %s"
              % (name, len(first), "yes" if not differ else "NO " + ", ".join(differ)))
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
