"""frobetti benchmark: closed-loop workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload resolve --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One client in one process and one thread sends the next operation only after
the previous answer arrived.  A pass runs the workload's operation list once;
passes repeat until ``--seconds`` have passed and the workload's minimum pass
count is reached.  Every answer is checked against its reference value and
against the same operation's answer in the first pass.

End-to-end times are normalised to a reference host speed: before the first
operation of a pass and after each one the benchmark times a fixed
pure-Python kernel of its own (``speed_probe``), and scales each latency by
REFERENCE_S over the mean of the probes on either side of it.  Wall times are
printed beside them.  See perfbench/README.md for why.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate and
it holds the per-layer metrics.  The exit code is 0 when every answer was
right, 1 when one was wrong or raised, and 2 when frobetti cannot be imported.
See perfbench/README.md for the metrics and why each workload was chosen.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median of 1 + this
TAIL_SAMPLES = 10  # the tail percentile leaves at least this many operations beyond it
REFERENCE_S = 0.002  # speed_probe() time that defines normalised seconds
SETUP_PROBE_SAMPLES = 31  # speed_probe() calls after a set-up

sys.path.insert(0, HERE)
import workloads  # noqa: E402

END_TO_END = [
    ("solve_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("cached_op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Process-wide memo tables keyed by problem content.  They are cleared before
# every operation so each one starts as cold as a fresh `fb` process would;
# a table that later moves onto the ring object starts cold the same way.
MEMO_TABLES = [("frobetti.homology", "_coeff_ring_cache"), ("frobetti.onedim", "_h0_cache")]


def _square(poly, p):
    out = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return out


_PROBE_POLY = {(i, j, k): (7 * i + 3 * j + k) % 101 + 1 for i in range(4) for j in range(4) for k in range(3)}


def speed_probe():
    """Seconds for a fixed amount of dict-of-exponent-tuple arithmetic mod p,
    the kind of work frobetti's engine does, in the benchmark's own code and
    with the garbage collector off.  On a shared host it slows down with
    the program when a neighbour loads the machine; frobetti changes do not
    touch it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _square(_PROBE_POLY, 101)
        _square(_PROBE_POLY, 101)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Lib:
    """The frobetti modules, looked up when an operation runs (so a traced
    pass sees the wrappers installed on them)."""

    def __init__(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import frobetti  # noqa: F401
        from frobetti import asymptotics, cli, groebner, resolution, ring

        src = os.path.realpath(os.path.join(ROOT, "src", "frobetti"))
        if os.path.dirname(os.path.realpath(frobetti.__file__)) != src:
            raise ImportError("frobetti imported from %s, not from %s" % (frobetti.__file__, src))
        self.asymptotics, self.cli, self.groebner, self.resolution, self.ring = (
            asymptotics, cli, groebner, resolution, ring,
        )


class Run:
    """Latencies, answers and failures of one benchmark run."""

    def __init__(self, lib):
        self.lib = lib
        self.attempted = 0
        self.failed = 0
        self.first_answer = {}
        # (wall, normalised) latency of each timed operation, every pass
        self.op_latencies = []  # computed operations
        self.cached_latencies = []  # operations answered from a warm disk cache

    def op(self, op, cache_dir):
        for modname, attr in MEMO_TABLES:
            table = getattr(sys.modules.get(modname), attr, None)
            if isinstance(table, dict):
                table.clear()
        self.attempted += 1
        start = time.perf_counter()
        try:
            answer = op.run(self.lib, cache_dir)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(op, traceback.format_exc(limit=3))
            answer = None
        else:
            elapsed = time.perf_counter() - start
            previous = self.first_answer.setdefault(op.id, answer)
            if not workloads.check(op, answer):
                self._fail(op, "wrong answer %r" % answer[:200])
            elif answer != previous:
                self._fail(op, "answer differs from the first pass")
        return elapsed

    def _fail(self, op, why):
        self.failed += 1
        if self.failed <= 5:
            print("FAILED %s: %s" % (op.id, why.strip()), file=sys.stderr)


def fresh_cache(template):
    path = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    if template:
        shutil.copytree(template, path, dirs_exist_ok=True)
    return path


def set_up(name, seed, run):
    """Import, problem generation, warm-up; returns (workload, cache template)."""
    workload = workloads.build(name, seed)
    warm_dir = fresh_cache(None)
    try:
        for op in workload.warmup:
            run.op(op, warm_dir)
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    template = None
    if workload.cache_template:
        template = fresh_cache(None)
        for op in workload.cache_template:
            run.op(op, template)
    return workload, template


def one_pass(workload, run, template, tracer=None):
    """Run the operation list once, with a speed probe before the first
    operation and after each one.  Records each operation's latency in ``run``
    as measured and normalised (scaled by REFERENCE_S over the mean of the
    probes on either side of it).  Returns the pass's wall and normalised
    time, the sums over its operations (they run back to back)."""
    cache_dir = fresh_cache(template)
    if tracer:
        tracer.install()
    wall = normalised = 0.0
    before = speed_probe()
    try:
        for op in workload.ops:
            if tracer:
                tracer.op = op.id
            latency = run.op(op, cache_dir)
            after = speed_probe()
            scaled = latency * 2 * REFERENCE_S / (before + after)
            before = after
            (run.cached_latencies if op.cached else run.op_latencies).append((latency, scaled))
            if op.in_pass:
                wall += latency
                normalised += scaled
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return wall, normalised


def tail_percentile(workload):
    """The highest whole percentile, at most 90, that leaves TAIL_SAMPLES
    computed operations beyond it at the minimum pass count.  It is fixed per
    workload, so one more pass in a run does not move it."""
    n = sum(1 for op in workload.ops if not op.cached) * workload.min_passes
    return max(1, min(90, math.floor(100 * (1 - TAIL_SAMPLES / n))))


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a mean of all order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) density.  With few samples per
    operation it varies less from run to run than one order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    grid = 64 * n  # cells of equal width; cell k lies inside [i/n, (i+1)/n)
    weights = [0.0] * n
    for k in range(grid):
        x = (k + 0.5) / grid
        weights[k * n // grid] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def probe_setup(name, seed):
    """Wall and normalised set-up time of a fresh process, measured inside it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--probe-setup"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip()[-500:])
    wall, normalised = done.stdout.split()[-2:]
    return float(wall), float(normalised)


def measure(args, run, workload, template, setup_own):
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < args.seconds:
        passes.append(one_pass(workload, run, template))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_own] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tail = tail_percentile(workload)

    def metrics(k):  # k = 0: wall seconds, 1: normalised seconds
        ops = [latency[k] for latency in run.op_latencies]
        return {
            "solve_s": statistics.median(p[k] for p in passes),
            "op_p50_s": quantile(ops, 0.5),
            "op_p90_s": quantile(ops, tail / 100),
            "cached_op_p50_s": quantile([latency[k] for latency in run.cached_latencies], 0.5),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup[k] for setup in setups),
        }

    n_ops = len(run.op_latencies)
    notes = {
        "solve_s": "median of %d passes" % len(passes),
        "op_p50_s": "median of %d computed operations" % n_ops,
        "op_p90_s": "p%d of %d computed operations, %d beyond it"
        % (tail, n_ops, n_ops - math.ceil(tail / 100 * n_ops)),
        "cached_op_p50_s": "median of %d warm-cache reads" % len(run.cached_latencies),
        "peak_rss_mb": "whole process",
        "setup_s": "median of %d set-ups" % len(setups),
    }
    wall, normalised = metrics(0), metrics(1)
    print("%-16s %14s     %14s" % ("", "normalised", "wall"))
    for name, unit in END_TO_END:
        print("%-16s %14.6f %-3s %14.6f %-3s (%s)" % (name, normalised[name], unit, wall[name], unit, notes[name]))
    return {name: {"value": normalised[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(args, run, workload, template):
    from layers import METRICS, Tracer

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        untraced.append(one_pass(workload, run, template)[0])
        tracer = Tracer()
        traced.append(one_pass(workload, run, template, tracer)[0])
        tracers.append(tracer)
    for key in tracers[0].missing:
        print("warning: no %s to trace; its metrics read 0" % key, file=sys.stderr)
    per_pass = [t.metrics() for t in tracers]
    units = dict(METRICS)
    values = {}
    repeat = True
    for name, unit in METRICS:
        if name not in per_pass[0]:
            continue
        series = [m[name] for m in per_pass]
        if unit == "s":
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            repeat = repeat and len(set(series)) == 1
    values["trace.solve_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    for name, unit in METRICS:
        print("%-34s %16.6f %s" % (name, values[name], unit))
    print("counters repeat across %d traced passes: %s" % (len(tracers), "yes" if repeat else "NO"))
    for op_id, sites in sorted(tracers[0].resolve_runs.items()):
        if op_id.startswith("R5."):
            print("engine runs inside resolve() for %s: %d, %d from minimal_generators"
                  % (op_id, sum(sites.values()), sites["mingens"]))
    write_spans(args, tracers)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in METRICS}


def write_spans(args, tracers):
    path = os.path.join(WORK, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    with open(path, "w") as handle:
        for number, tracer in enumerate(tracers):
            for sid, parent, name, start, end, op in tracer.spans:
                handle.write(json.dumps([number, sid, parent, name, start, end, op]) + "\n")
    print("spans written to %s" % os.path.relpath(path, ROOT))


def run_all(args):
    """Every workload in its own process; non-zero exit if any answer was wrong."""
    status = 0
    for name in workloads.WORKLOADS:
        print("== %s" % name, flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or not result or not result["correct"]:
            status = 1
    return status


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        lib = Lib()
    except ImportError as exc:
        print("cannot import frobetti from %s: %s" % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    os.environ.pop("FB_CACHE_DIR", None)
    os.makedirs(WORK, exist_ok=True)
    run = Run(lib)
    workload, template = set_up(args.workload, args.seed, run)
    setup_wall = time.perf_counter() - started
    speed = statistics.median(speed_probe() for _ in range(SETUP_PROBE_SAMPLES))
    setup_own = (setup_wall, setup_wall * REFERENCE_S / speed)
    try:
        if args.probe_setup:
            print("%r %r" % setup_own)
            return 0
        gc.collect()
        if args.trace:
            metrics = measure_traced(args, run, workload, template)
        else:
            metrics = measure(args, run, workload, template, setup_own)
    finally:
        if template:
            shutil.rmtree(template, ignore_errors=True)
    correct = run.failed == 0
    print("failed_frac      %14.6f     (%d of %d operations attempted)"
          % (run.failed / run.attempted, run.failed, run.attempted))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
