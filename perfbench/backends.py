#!/usr/bin/env python3
"""Run the benchmark once per scalar backend, side by side.

    python3 perfbench/backends.py [--workloads theta,series,cli] [--seed 1] [--seconds 10]

Each backend runs perfbench/run.py with MODULIQ_BACKEND set, so the
kernels timed are exactly the benchmark's workloads.  A backend that fails
to import prints as "unavailable" instead of stopping the comparison.
"""

import argparse
import json
import subprocess
import sys

import run
import workloads

BACKENDS = ("fractions", "gmpy2")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    names = [n for n in args.workloads.split(",") if n]
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    metrics = [name for name, _unit in run.END_TO_END]
    print(f"{'backend':<10} {'workload':<8} " + " ".join(f"{m:>13}" for m in metrics) + "  correct attempted failed")
    for backend in BACKENDS:
        env = workloads.child_env()
        env["MODULIQ_BACKEND"] = backend
        probe = subprocess.run(
            [sys.executable, "-c", "import moduliq"], cwd=workloads.ROOT, env=env, capture_output=True, text=True
        )
        if probe.returncode != 0:
            reason = (probe.stderr.strip().splitlines() or ["import failed"])[-1]
            print(f"{backend:<10} unavailable ({reason})")
            continue
        for name in names:
            cmd = [sys.executable, str(workloads.ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=workloads.ROOT, env=env, capture_output=True, text=True)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{backend:<10} {name:<8} run failed (exit {proc.returncode})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = " ".join(f"{result['metrics'][m]['value']:>13.4f}" for m in metrics)
            print(f"{backend:<10} {name:<8} {values}  {str(result['correct']):>7} {result['attempted']:>9} {result['failed']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
