#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: this checkout against BASE.

    tools/perf_ab.py BASE [--pairs N] [--seconds S] [--seed K]
                          [--claim METRIC@WORKLOAD]

BASE is checked out with `git worktree add --detach` into a temporary
directory that is removed again on every exit path. For every workload in
BENCHMARK.json, pair i runs

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

once in each checkout, alternating which side goes first. Each side builds
its own .bench_build/; build output goes to .bench_build/perf_ab.log of
this checkout. S defaults to BENCHMARK.json's run_seconds.

Verdict per (workload, end-to-end metric), with `better` and `bound` from
BENCHMARK.json, gap = how much worse the change's median is than BASE's
(relative to BASE's), and spread = IQR / median of one side's runs:

    regressed   gap > bound while both spreads are within the bound, or
                gap > bound and every change run is worse than every BASE
                run while a spread exceeds it
    unresolved  a spread exceeds the bound and the runs do not settle it
                (printed; does not fail the run)
    ok          otherwise; with a wide spread, every change run being
                better than every BASE run also settles it as ok

Exit 0 when the change passes; 1 when any run fails (non-zero exit, no
JSON line, "correct": false), when the change's failed/attempted share of
a workload is above BASE's, when a metric regresses, or when a --claim is
not met; 2 on usage errors, including a BASE whose perfbench/ or
BENCHMARK.json differs from this checkout's (a benchmark change sets a
new baseline instead of being compared against the old one).

--claim METRIC@WORKLOAD additionally requires the change to win at least
9/10 of the pairs on that metric (ties count for neither side) and the gap
between the medians to exceed BASE's IQR.

Output: one table per workload, then one JSON line with the verdict.
"""
import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REGRESSED, UNRESOLVED, OK = "REGRESSED", "unresolved", "ok"


class Side:
    """Summary of one side's values of one metric."""

    def __init__(self, values):
        self.median = statistics.median(values)
        if len(values) > 1:
            self.q1, _, self.q3 = statistics.quantiles(values, n=4)
        else:
            self.q1 = self.q3 = self.median
        iqr = self.q3 - self.q1
        self.spread = iqr / abs(self.median) if self.median else (
            0.0 if iqr == 0 else float("inf"))


def is_better(x, y, better):
    """True when value x is strictly better than y."""
    return x > y if better == "higher" else x < y


def shortfall(base_median, change_median, better):
    """How much worse the change's median is (negative when it is better)."""
    return (base_median - change_median if better == "higher"
            else change_median - base_median)


def gap(base_median, change_median, better):
    """shortfall relative to BASE's median."""
    worse_by = shortfall(base_median, change_median, better)
    if base_median == 0:
        return 0.0 if worse_by == 0 else float("inf") * worse_by
    return worse_by / abs(base_median)


def judge(base, change, better, bound):
    """Verdict for one metric: REGRESSED, UNRESOLVED or OK."""
    b, c = Side(base), Side(change)
    worse = gap(b.median, c.median, better) > bound
    if b.spread <= bound and c.spread <= bound:
        return REGRESSED if worse else OK
    if all(is_better(y, x, better) for x in change for y in base):
        return REGRESSED if worse else UNRESOLVED
    if all(is_better(x, y, better) for x in change for y in base):
        return OK
    return UNRESOLVED


def judge_claim(base, change, better):
    """(met, wins) for a claimed gain; base[i] and change[i] share a seed."""
    wins = sum(1 for x, y in zip(change, base) if is_better(x, y, better))
    b, c = Side(base), Side(change)
    gain = -shortfall(b.median, c.median, better)
    return wins * 10 >= 9 * len(base) and gain > b.q3 - b.q1, wins


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def parse_run(code, stdout, metrics):
    """A run's result dict, or an error string when the run failed."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return "exit %d, no JSON result line" % code
    if result.get("correct") is not True:
        return 'exit %d, "correct": %s' % (
            code, json.dumps(result.get("correct")))
    if code != 0:
        return "exit %d" % code
    got = result.get("metrics", {})
    missing = [m for m in metrics if m not in got]
    if missing:
        return "no value for " + ", ".join(missing)
    return {"attempted": result.get("attempted", 0),
            "failed": result.get("failed", 0),
            "values": {m: got[m]["value"] for m in metrics}}


def run_side(checkout, workload, seed, seconds, metrics, log):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", "0"]
    log.write("## %s: %s\n" % (checkout, " ".join(cmd)))
    log.flush()
    # Own process group, so an interrupt also stops run.py's perfbench.
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=log, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    log.write(stdout)
    return parse_run(proc.returncode, stdout, metrics)


def git(*args, check=True):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=check,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


@contextlib.contextmanager
def base_checkout(rev):
    tmp = tempfile.mkdtemp(prefix="perf_ab.")
    path = os.path.join(tmp, "base")
    try:
        git("worktree", "add", "--detach", path, rev)
        yield path
    finally:
        git("worktree", "remove", "--force", path, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune", check=False)


def interrupted(signum, _frame):
    raise KeyboardInterrupt("signal %d" % signum)


def print_table(workload, spec, runs, verdicts):
    base, change = runs["base"], runs["change"]
    print("\n%s: %d pairs; failed/attempted base %d/%d, change %d/%d"
          % (workload, len(base),
             sum(r["failed"] for r in base), sum(r["attempted"] for r in base),
             sum(r["failed"] for r in change),
             sum(r["attempted"] for r in change)))
    print("%-16s %6s %5s | %11s %11s %11s %6s | %11s %11s %11s %6s | %7s %5s  %s"
          % ("metric", "better", "bound", "base median", "q1", "q3", "spread",
             "change med", "q1", "q3", "spread", "delta", "wins", "verdict"))
    for m in spec:
        name, better = m["name"], m["better"]
        bv = [r["values"][name] for r in base]
        cv = [r["values"][name] for r in change]
        b, c = Side(bv), Side(cv)
        wins = sum(1 for x, y in zip(cv, bv) if is_better(x, y, better))
        delta = (c.median - b.median) / b.median * 100 if b.median else 0.0
        print("%-16s %6s %5g | %11.5g %11.5g %11.5g %6.3f | %11.5g %11.5g "
              "%11.5g %6.3f | %+6.1f%% %2d/%-2d  %s"
              % (name, better, m["bound"], b.median, b.q1, b.q3, b.spread,
                 c.median, c.q1, c.q3, c.spread, delta, wins, len(bv),
                 verdicts[name]))
    sys.stdout.flush()


def compare(args, spec, base_dir, log):
    """Run every pair and return the verdict dict."""
    metrics = [m["name"] for m in spec["end_to_end"]]
    verdict = {"pass": True, "failures": [], "regressed": [],
               "unresolved": [], "claim": None}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                checkout = base_dir if side == "base" else ROOT
                r = run_side(checkout, workload, seed, args.seconds, metrics,
                             log)
                if isinstance(r, str):
                    msg = "%s %s seed %d: %s" % (workload, side, seed, r)
                    print("perf_ab: run failed: " + msg)
                    verdict["failures"].append(msg)
                    verdict["pass"] = False
                    return verdict
                runs[side].append(r)
            print("%s pair %d/%d seed %d (%s first): latency_ms.p50 base "
                  "%.4g change %.4g" % (
                      workload, i + 1, args.pairs, seed, order[0],
                      runs["base"][-1]["values"]["latency_ms.p50"],
                      runs["change"][-1]["values"]["latency_ms.p50"]))
            sys.stdout.flush()

        verdicts = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["values"][name] for r in runs["base"]]
            cv = [r["values"][name] for r in runs["change"]]
            verdicts[name] = judge(bv, cv, m["better"], m["bound"])
            key = "%s/%s" % (workload, name)
            if verdicts[name] == REGRESSED:
                verdict["regressed"].append(key)
            elif verdicts[name] == UNRESOLVED:
                verdict["unresolved"].append(key)
            if args.claim == (name, workload):
                met, wins = judge_claim(bv, cv, m["better"])
                verdict["claim"] = {"metric": key, "met": met, "wins": wins,
                                    "pairs": args.pairs}
                verdict["pass"] &= met
        print_table(workload, spec["end_to_end"], runs, verdicts)
        if failed_share(runs["change"]) > failed_share(runs["base"]):
            verdict["failures"].append(
                "%s: change's failed/attempted share %.4g > base's %.4g"
                % (workload, failed_share(runs["change"]),
                   failed_share(runs["base"])))
    verdict["pass"] &= not verdict["failures"] and not verdict["regressed"]
    return verdict


def main():
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    p.add_argument("base", metavar="BASE", help="git revision to compare to")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--claim", metavar="METRIC@WORKLOAD")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.claim:
        metric, _, workload = args.claim.rpartition("@")
        if (metric not in [m["name"] for m in spec["end_to_end"]]
                or workload not in [w["name"] for w in spec["workloads"]]):
            p.error("--claim %s: expected an end-to-end metric @ a workload "
                    "of BENCHMARK.json" % args.claim)
        args.claim = (metric, workload)

    rev = git("rev-parse", "--verify", "--quiet", args.base + "^{commit}",
              check=False)
    if rev.returncode:
        p.error("BASE %s is not a commit" % args.base)
    base_sha = rev.stdout.strip()
    if git("diff", "--quiet", base_sha, "--", "perfbench", "BENCHMARK.json",
           check=False).returncode:
        print("perf_ab: perfbench/ or BENCHMARK.json differs from %s; a "
              "benchmark change sets a new baseline and is not compared"
              % args.base, file=sys.stderr)
        return 2
    change = git("rev-parse", "HEAD").stdout.strip()
    dirty = "+dirty" if git("status", "--porcelain",
                             "--untracked-files=no").stdout.strip() else ""
    change += dirty

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perf_ab.log")
    print("perf_ab: base %s vs change %s: %d pairs x %g s per workload; "
          "build and run log %s" % (base_sha[:12], change[:12] + dirty,
                                    args.pairs, args.seconds, log_path))
    sys.stdout.flush()
    signal.signal(signal.SIGTERM, interrupted)
    start = time.time()
    with open(log_path, "w") as log, base_checkout(base_sha) as base_dir:
        verdict = compare(args, spec, base_dir, log)
    verdict.update({"base": base_sha, "change": change, "pairs": args.pairs,
                    "seconds": args.seconds, "seed": args.seed,
                    "wall_s": round(time.time() - start, 1)})
    print(json.dumps(verdict))
    return 0 if verdict["pass"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("perf_ab: interrupted", file=sys.stderr)
        sys.exit(130)
