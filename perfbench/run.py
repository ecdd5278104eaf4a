#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload md-ooc --seed 1 --seconds 40 --trace 0
Repeat mode (one workload K times, seeds seed..seed+K-1; prints each
metric's median and quartiles and whether the spread fits its bound):
    python3 perfbench/run.py --workload md-ooc --repeat 10
Self-test of the benchmark's arithmetic:
    python3 perfbench/run.py --selftest

The library is built from ../src into .bench_build/ at the checkout root;
build output goes to stderr so the last stdout line of a run is its JSON
result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_once(workload, seed, seconds, trace, echo=True):
    """One benchmark process. Returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def bounds(trace):
    """Metric name -> (unit, bound or None) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: (m["unit"], m.get("bound")) for m in spec[key]}


def repeat(args, seconds):
    values = {}
    for i in range(args.repeat):
        code, result = run_once(args.workload, args.seed + i, seconds,
                                args.trace, echo=False)
        if code != 0 or result is None:
            print("perfbench: run %d (seed %d) failed with exit %d"
                  % (i, args.seed + i, code), file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("run %d seed %d: attempted %d failed %d  %s"
              % (i, args.seed + i, result["attempted"], result["failed"],
                 " ".join("%s=%.4g" % (k, m["value"])
                          for k, m in result["metrics"].items())))
        sys.stdout.flush()
    spec = bounds(args.trace)
    print("%-26s %-8s %12s %12s %12s %8s %6s  %s"
          % ("metric", "unit", "median", "q1", "q3", "spread", "bound",
             "verdict"))
    for name, vals in values.items():
        unit, bound = spec.get(name, ("?", None))
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if bound is None:
            verdict = "-"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        print("%-26s %-8s %12.6g %12.6g %12.6g %8.4f %6s  %s"
              % (name, unit, med, q1, q3, spread,
                 "-" if bound is None else "%g" % bound, verdict))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run the workload this many times and summarise")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]
                              ).returncode
    if not args.workload:
        p.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    if seconds == int(seconds):
        seconds = int(seconds)
    if args.repeat:
        return repeat(args, seconds)
    code, _ = run_once(args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
