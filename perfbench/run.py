#!/usr/bin/env python3
"""The moduliq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload theta --seed 1 --seconds 20 --trace 0

A run repeats whole passes of the workload's operations for --seconds and
checks every output.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced passes, adds one profiled pass, and reports
the per-layer metrics with the tracing overhead.  The last line of stdout
is one JSON object {correct, attempted, failed, metrics}; the line before
it is the full report.  See perfbench/README.md.
"""

import argparse
import cProfile
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads

ROOT = workloads.ROOT
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def summary(values):
    """Median, quartiles and sample count."""
    values = sorted(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Tally:
    """Operations attempted and failed, with each failing operation's first reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.unexpected = set()
        self.latencies = []

    def record(self, op, error, latency):
        self.attempted += 1
        self.latencies.append(latency)
        if error is not None:
            self.failed += 1
            self.reasons.setdefault(op.name, error)
            if op.known_fault is None:
                self.unexpected.add(op.name)


def run_pass(ops, rng, caches, tally, tracer=None, profile=None):
    """One pass over every operation, in a seeded order, from cold caches."""
    for cache in caches.values():
        cache.cache_clear()
    start = time.perf_counter()
    for op in rng.sample(ops, len(ops)):
        if tracer:
            tracer.op = op.name
        error = None
        t0 = time.perf_counter()
        try:
            if profile:
                profile.enable()
            try:
                out = op.call()
            finally:
                if profile:
                    profile.disable()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            try:
                op.check(out)
            except Exception as exc:  # a wrong or malformed output
                error = f"{type(exc).__name__}: {exc}"
        tally.record(op, error, latency)
    return time.perf_counter() - start


def setup_probe(name, seed):
    """Time from launching a fresh interpreter until moduliq is imported and the
    inputs are built; the child prints its clock (CLOCK_MONOTONIC) when ready."""
    if name == "cli":
        cmd = [sys.executable, "-c", "import time, moduliq.cli; print(time.perf_counter())"]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--setup", name, str(seed)]
    start = time.perf_counter()
    # no timeout: Popen.wait(timeout=...) polls in sleeps of up to 50 ms
    proc = subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(), capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1]) - start


def prepare(name, seed, runner):
    t0 = time.perf_counter()
    mods = spans.import_layers()
    import_s = time.perf_counter() - t0
    caches = spans.cache_functions(mods) if name != "cli" else {}
    inp = workloads.inputs(name, seed)
    return mods, import_s, caches, workloads.operations(name, inp, runner)


def timed_run(args, tally):
    setup = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    _mods, _import_s, caches, ops = prepare(args.workload, args.seed, workloads.CliRunner())
    rng = random.Random(args.seed)
    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(run_pass(ops, rng, caches, tally))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mib = resource.getrusage(who).ru_maxrss / 1024
    timings = {"setup_s": summary(setup), "solve_s": summary(walls), "op_ms": summary([x * 1000 for x in tally.latencies])}
    metrics = {
        "setup_s": timings["setup_s"]["median"],
        "solve_s": timings["solve_s"]["median"],
        "op_p50_ms": timings["op_ms"]["median"],
        "peak_rss_mib": peak_mib,
    }
    return metrics, dict(END_TO_END), timings, len(walls), len(ops)


def traced_run(args, tally):
    runner = workloads.CliRunner()
    mods, import_s, caches, ops = prepare(args.workload, args.seed, runner)
    tracer = spans.Tracer(mods)
    runner.sink = tracer.absorb
    rng = random.Random(args.seed)
    plain, traced, per_pass = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        runner.mode = "plain"
        plain.append(run_pass(ops, rng, caches, tally))
        tracer.reset()
        if args.workload == "cli":
            runner.mode = "traced"
            traced.append(run_pass(ops, rng, caches, tally, tracer))
        else:
            tracer.install()
            try:
                traced.append(run_pass(ops, rng, caches, tally, tracer))
            finally:
                tracer.uninstall()
            tracer.add_caches(spans.cache_counts(caches))
        per_pass.append(tracer.metrics())
    scalars = profiled_pass(args, ops, rng, caches, tally, runner)
    metrics = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        # counts repeat exactly on every pass; keep them whole numbers
        ints = all(isinstance(v, int) for v in values)
        metrics[key] = statistics.median_low(values) if ints else statistics.median(values)
    metrics["scalars.self_s"] = scalars
    metrics["process.import_s"] = statistics.median(tracer.import_s) if tracer.import_s else import_s
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_pct"] = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    write_spans(args, tracer)
    units = {name: unit for name, unit, _better in spans.PER_LAYER}
    timings = {"untraced_pass_s": summary(plain), "traced_pass_s": summary(traced)}
    return {k: metrics[k] for k in units}, units, timings, len(plain) + len(traced) + 1, len(ops)


def profiled_pass(args, ops, rng, caches, tally, runner):
    """scalars.self_s: profiler self time in fractions, _rational and scalars for one pass."""
    if args.workload == "cli":
        found = []
        runner.mode, runner.sink = "profiled", lambda line: found.append(json.loads(line)["scalars_s"])
        run_pass(ops, rng, caches, tally)
        return sum(found)
    profile = cProfile.Profile()
    run_pass(ops, rng, caches, tally, profile=profile)
    return spans.scalar_self_time(profile)


def write_spans(args, tracer):
    """Keep the last traced pass's spans for inspection, inside the checkout."""
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    rows = [dict(zip(("name", "start", "end", "parent", "op", "count"), s)) for s in tracer.spans]
    (out / f"spans-{args.workload}.json").write_text(json.dumps(rows) + "\n")


def git_sha():
    """HEAD of the checkout's git metadata, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.SRC / "moduliq" / "__init__.py").is_file():
        print(f"perfbench: no moduliq package under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    import moduliq

    tally = Tally()
    run = traced_run if args.trace else timed_run
    metrics, units, timings, passes, ops = run(args, tally)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": moduliq.BACKEND,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": passes,
        "ops_per_pass": ops,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "timings": timings,
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not tally.unexpected,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
