#!/usr/bin/env python3
"""Tests for tools/perf_ab.py: the verdict arithmetic, and the script end
to end on a throwaway git repository whose perfbench/run.py is a stub
(no build, no benchmark run).

    python3 tools/perf_ab_test.py
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402
from perf_ab import OK, REGRESSED, UNRESOLVED  # noqa: E402


class Verdict(unittest.TestCase):
    def test_identical_runs_pass(self):
        runs = [100.0, 101.0, 99.0, 100.5]
        self.assertEqual(OK, perf_ab.judge(runs, runs, "lower", 0.25))

    def test_direction_follows_better(self):
        base, change = [100.0] * 4, [140.0] * 4
        self.assertEqual(REGRESSED, perf_ab.judge(base, change, "lower", 0.25))
        self.assertEqual(OK, perf_ab.judge(base, change, "higher", 0.25))
        self.assertEqual(REGRESSED, perf_ab.judge(change, base, "higher", 0.25))
        self.assertEqual(OK, perf_ab.judge(change, base, "lower", 0.25))

    def test_gap_exactly_at_the_bound_is_not_a_regression(self):
        base = [100.0] * 3
        self.assertEqual(OK, perf_ab.judge(base, [125.0] * 3, "lower", 0.25))
        self.assertEqual(OK, perf_ab.judge(base, [75.0] * 3, "higher", 0.25))
        self.assertEqual(REGRESSED,
                         perf_ab.judge(base, [125.01] * 3, "lower", 0.25))
        self.assertEqual(REGRESSED,
                         perf_ab.judge(base, [74.99] * 3, "higher", 0.25))

    def test_spread_is_iqr_over_median(self):
        s = perf_ab.Side([1.0, 2.0, 3.0])
        self.assertEqual((2.0, 1.0, 3.0), (s.median, s.q1, s.q3))
        self.assertAlmostEqual(1.0, s.spread)

    def test_wide_spread_is_unresolved_unless_every_run_is_worse(self):
        base = [100.0, 110.0, 60.0]  # spread 0.5, above the bound
        # Interleaved with BASE and 50% worse in the median: unresolved.
        self.assertEqual(UNRESOLVED,
                         perf_ab.judge(base, [55.0, 160.0, 150.0], "lower",
                                       0.25))
        # Every change run worse than every BASE run, beyond the bound.
        self.assertEqual(REGRESSED,
                         perf_ab.judge(base, [160.0, 240.0, 170.0], "lower",
                                       0.25))
        # Every run worse but the medians within the bound: unresolved.
        self.assertEqual(UNRESOLVED,
                         perf_ab.judge(base, [111.0, 112.0, 113.0], "lower",
                                       0.25))
        # Every change run better: settled as no regression.
        self.assertEqual(OK,
                         perf_ab.judge(base, [50.0, 55.0, 20.0], "lower",
                                       0.25))

    def test_claim_ties_count_for_neither_side(self):
        base = [100.0] * 10
        change = [90.0] * 8 + [100.0] * 2
        met, wins = perf_ab.judge_claim(base, change, "lower")
        self.assertEqual(8, wins)
        self.assertFalse(met)

    def test_claim_needs_nine_of_ten_and_ten_of_eleven(self):
        base10 = [100.0 + 0.1 * i for i in range(10)]
        nine = [90.0] * 9 + [200.0]
        self.assertEqual((True, 9),
                         perf_ab.judge_claim(base10, nine, "lower"))
        base11 = [100.0 + 0.1 * i for i in range(11)]
        self.assertEqual((False, 9),
                         perf_ab.judge_claim(base11, [90.0] * 9 + [200.0] * 2,
                                             "lower"))
        self.assertEqual((True, 10),
                         perf_ab.judge_claim(base11, [90.0] * 10 + [200.0],
                                             "lower"))

    def test_claim_gap_must_exceed_base_iqr(self):
        base = [100.0, 104.0] * 5  # IQR 4
        self.assertEqual((True, 10),
                         perf_ab.judge_claim(base, [97.0] * 10, "lower"))
        # Every pair won, but the medians are only 3 apart.
        self.assertEqual((False, 10),
                         perf_ab.judge_claim(base, [99.0, 99.0] * 5, "lower"))
        self.assertEqual((True, 10),
                         perf_ab.judge_claim(base, [109.0] * 10, "higher"))

    def test_failed_share(self):
        runs = [{"attempted": 100, "failed": 1},
                {"attempted": 100, "failed": 0}]
        self.assertAlmostEqual(0.005, perf_ab.failed_share(runs))
        self.assertEqual(0.0, perf_ab.failed_share([]))

    def test_parse_run(self):
        metrics = ["latency_ms.p50"]
        ok = json.dumps({"correct": True, "attempted": 5, "failed": 0,
                         "metrics": {"latency_ms.p50": {"value": 3.5}}})
        self.assertEqual({"attempted": 5, "failed": 0,
                          "values": {"latency_ms.p50": 3.5}},
                         perf_ab.parse_run(0, "# detail\n" + ok, metrics))
        wrong = ok.replace('"correct": true', '"correct": false')
        self.assertIn('"correct": false', perf_ab.parse_run(1, wrong, metrics))
        self.assertIn('"correct": false', perf_ab.parse_run(0, wrong, metrics))
        self.assertIn("no JSON", perf_ab.parse_run(0, "# only\n", metrics))
        self.assertIn("no JSON", perf_ab.parse_run(1, "", metrics))
        self.assertEqual("exit 3", perf_ab.parse_run(3, ok, metrics))
        self.assertIn("no value", perf_ab.parse_run(0, ok, ["gflops"]))


# Stand-in for perfbench/run.py: reports the latency, correctness and
# failed count that fake.json at its checkout's root asks for, so the two
# sides differ only outside perfbench/.
FAKE_RUN = textwrap.dedent('''\
    import argparse, json, os, time
    p = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(flag)
    a = p.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "fake.json")) as f:
        cfg = json.load(f)
    time.sleep(cfg.get("sleep", 0))
    lat = cfg["latency"] * (1 + 0.001 * int(a.seed))
    print("# workload " + a.workload)
    print(json.dumps({"correct": cfg.get("correct", True), "attempted": 100,
                      "failed": cfg.get("failed", 0),
                      "metrics": {"latency_ms.p50": {"value": lat},
                                  "gflops": {"value": 1000.0 / lat}}}))
    raise SystemExit(0 if cfg.get("correct", True) else 1)
''')

FAKE_BENCHMARK = {
    "command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
    "run_seconds": 1,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "latency_ms.p50", "better": "lower", "bound": 0.25},
        {"name": "gflops", "better": "higher", "bound": 0.25}],
}


class EndToEnd(unittest.TestCase):
    """perf_ab.py end to end against a stub benchmark in a scratch repo."""

    def setUp(self):
        self.repo = tempfile.mkdtemp(prefix="perf_ab_test.")
        os.makedirs(os.path.join(self.repo, "tools"))
        os.makedirs(os.path.join(self.repo, "perfbench"))
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copy(os.path.join(here, "perf_ab.py"),
                    os.path.join(self.repo, "tools"))
        self.write("perfbench/run.py", FAKE_RUN)
        self.write("BENCHMARK.json", json.dumps(FAKE_BENCHMARK))
        self.write(".gitignore", ".bench_build/\n")
        self.write("fake.json", json.dumps({"latency": 100.0}))
        self.git("init", "-q")
        self.git("add", "-A")
        self.git("commit", "-q", "-m", "base")

    def tearDown(self):
        shutil.rmtree(self.repo, ignore_errors=True)

    def write(self, rel, text):
        with open(os.path.join(self.repo, rel), "w") as f:
            f.write(text)

    def git(self, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
            + list(args), cwd=self.repo, check=True, text=True,
            stdout=subprocess.PIPE).stdout

    def worktrees(self):
        return len(self.git("worktree", "list").splitlines())

    def perf_ab(self, *args):
        proc = subprocess.run(
            [sys.executable, os.path.join(self.repo, "tools", "perf_ab.py"),
             "HEAD", "--pairs", "3"] + list(args),
            cwd=self.repo, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        self.assertEqual(1, self.worktrees(), "worktree left behind")
        lines = proc.stdout.strip().splitlines()
        verdict = json.loads(lines[-1]) if lines else None
        return proc.returncode, verdict, proc

    def test_same_code_passes(self):
        code, verdict, _ = self.perf_ab()
        self.assertEqual(0, code)
        self.assertTrue(verdict["pass"])
        self.assertEqual([], verdict["regressed"])

    def test_slower_change_regresses(self):
        self.write("fake.json", json.dumps({"latency": 150.0}))
        code, verdict, _ = self.perf_ab()
        self.assertEqual(1, code)
        self.assertEqual(["w1/latency_ms.p50", "w1/gflops",
                          "w2/latency_ms.p50", "w2/gflops"],
                         verdict["regressed"])

    def test_incorrect_change_fails(self):
        self.write("fake.json", json.dumps({"latency": 100.0,
                                            "correct": False}))
        code, verdict, _ = self.perf_ab()
        self.assertEqual(1, code)
        self.assertIn('"correct": false', verdict["failures"][0])

    def test_higher_failed_share_fails(self):
        self.write("fake.json", json.dumps({"latency": 100.0, "failed": 1}))
        code, verdict, _ = self.perf_ab()
        self.assertEqual(1, code)
        self.assertEqual(2, len(verdict["failures"]))
        self.assertEqual([], verdict["regressed"])

    def test_claim(self):
        code, verdict, _ = self.perf_ab("--claim", "latency_ms.p50@w2")
        self.assertEqual(1, code)
        self.assertEqual({"metric": "w2/latency_ms.p50", "met": False,
                          "wins": 0, "pairs": 3}, verdict["claim"])
        self.write("fake.json", json.dumps({"latency": 80.0}))
        code, verdict, _ = self.perf_ab("--claim", "latency_ms.p50@w2")
        self.assertEqual(0, code)
        self.assertTrue(verdict["claim"]["met"])

    def test_usage_errors_exit_2(self):
        for args in (["--claim", "nope@w1"], ["--claim", "gflops@w9"],
                     ["--pairs", "1"]):
            code, _, _ = self.perf_ab(*args)
            self.assertEqual(2, code, args)
        proc = subprocess.run(
            [sys.executable, os.path.join(self.repo, "tools", "perf_ab.py"),
             "no-such-rev"], cwd=self.repo, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        self.assertEqual(2, proc.returncode)

    def test_refuses_a_different_benchmark(self):
        self.write("perfbench/run.py", FAKE_RUN + "# edited\n")
        code, verdict, proc = self.perf_ab()
        self.assertEqual(2, code)
        self.assertIsNone(verdict)
        self.assertIn("new baseline", proc.stderr)
        self.git("commit", "-q", "-am", "edit the benchmark")
        proc = subprocess.run(
            [sys.executable, os.path.join(self.repo, "tools", "perf_ab.py"),
             "HEAD~1"], cwd=self.repo, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        self.assertEqual(2, proc.returncode)

    def test_interrupt_removes_the_worktree(self):
        self.write("fake.json", json.dumps({"latency": 100.0, "sleep": 60}))
        self.git("commit", "-q", "-am", "slow runs")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(self.repo, "tools", "perf_ab.py"),
             "HEAD"], cwd=self.repo, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        deadline = time.time() + 30
        while self.worktrees() == 1 and time.time() < deadline:
            time.sleep(0.1)
        self.assertEqual(2, self.worktrees())
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
        self.assertNotEqual(0, proc.returncode)
        self.assertEqual(1, self.worktrees())


if __name__ == "__main__":
    unittest.main()
