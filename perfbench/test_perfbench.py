#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # all tests
    python3 perfbench/test_perfbench.py Arithmetic # no build needed

The arithmetic tests are pure. The end-to-end tests build measure.cpp
(as run.py does) and run short invocations, under a minute in all.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import perfstats as ps  # noqa: E402
import run  # noqa: E402


def req(sched, sent, done, status=200):
    return {"sched": sched, "sent": sent, "done": done, "status": status,
            "rate": 100.0}


class Arithmetic(unittest.TestCase):
    def test_tail_percentile_uses_p99_with_enough_samples(self):
        xs = list(range(1, 1001))  # 1000 samples
        value, used = ps.tail_percentile(xs)
        self.assertEqual(used, 99)
        self.assertEqual(value, 990)  # nearest rank; 10 samples beyond

    def test_tail_percentile_clamps_to_ten_samples_beyond(self):
        xs = list(range(1, 501))
        value, used = ps.tail_percentile(xs)
        # p99 would leave 5 samples beyond; p98 leaves exactly 10.
        self.assertEqual(used, 98)
        self.assertEqual(value, 490)
        self.assertGreaterEqual(len([x for x in xs if x > value]), 10)

    def test_tail_percentile_boundary(self):
        value, used = ps.tail_percentile(list(range(999)))
        self.assertEqual(used, 98)  # 999 - ceil(989.01) = 9 < 10 at p99
        self.assertEqual(ps.tail_percentile(list(range(1000)))[1], 99)

    def test_tail_percentile_falls_back_to_median(self):
        self.assertEqual(ps.tail_percentile([5, 1, 3]), (3, 50))

    def test_latency_counts_from_scheduled_time(self):
        r = req(sched=1.0, sent=1.25, done=1.5)
        self.assertAlmostEqual(ps.latency_ms(r), 500.0)
        self.assertAlmostEqual(ps.lateness_s(r), 0.25)

    def test_failed_shed_or_unsent_requests_miss_the_limit(self):
        for status in (0, 429, 500, -1):
            self.assertEqual(ps.latency_ms(req(1.0, 1.0, 1.1, status)), ps.MISSED_MS)
        wrong = dict(req(1.0, 1.0, 1.1), ok=False)
        self.assertEqual(ps.latency_ms(wrong), ps.MISSED_MS)

    def test_lateness_is_never_negative(self):
        self.assertEqual(ps.lateness_s(req(sched=2.0, sent=1.999, done=2.1)), 0.0)

    def test_step_summary_flags_backlog_and_unsent(self):
        ok = [req(i * 0.01, i * 0.01, i * 0.01 + 0.005) for i in range(100)]
        s = ps.step_summary(ok, limit_ms=100)
        self.assertTrue(s["passes"])
        self.assertAlmostEqual(s["p99_ms"], 5.0)
        # The generator falls further behind every request: backlog.
        late = [req(i * 0.01, i * 0.02, i * 0.02 + 0.005) for i in range(100)]
        self.assertFalse(ps.step_summary(late, limit_ms=100)["passes"])
        # Backlog is judged per slice: a late first slice is not hidden
        # by an on-time second one that ends later.
        sliced = ([dict(r, slice=0) for r in late]
                  + [dict(r, slice=1) for r in ok])
        self.assertGreater(ps.step_summary(sliced, limit_ms=100)["late_end_ms"], 900)
        unsent = ok + [req(1.5, 0, 0, status=-1)]
        s = ps.step_summary(unsent, limit_ms=100)
        self.assertEqual(s["unsent"], 1)
        self.assertFalse(s["passes"])

    def test_sustained_qps_interpolates_on_log_p99(self):
        steps = [
            {"rate": 100.0, "p99_ms": 20.0, "passes": True},
            {"rate": 200.0, "p99_ms": 60.0, "passes": True},
            {"rate": 300.0, "p99_ms": 160.0, "passes": False},
            {"rate": 400.0, "p99_ms": 900.0, "passes": False},
        ]
        qps, saturated = ps.sustained_qps(steps, limit_ms=100)
        self.assertTrue(saturated)
        # log(100/60) / log(160/60) of the way from 200 to 300 req/s.
        self.assertAlmostEqual(qps, 252.08, places=2)
        qps, saturated = ps.sustained_qps(steps[:2], limit_ms=100)
        self.assertEqual((qps, saturated), (200.0, False))

    def test_sustained_qps_without_p99_failure_stays_at_last_pass(self):
        steps = [{"rate": 100.0, "p99_ms": 20.0, "passes": True},
                 {"rate": 200.0, "p99_ms": 50.0, "passes": False}]
        self.assertEqual(ps.sustained_qps(steps, limit_ms=100), (100.0, True))
        # Even the first step fails: scale its rate by limit / p99.
        first = [{"rate": 100.0, "p99_ms": 200.0, "passes": False}]
        self.assertEqual(ps.sustained_qps(first, limit_ms=100), (50.0, True))


def bench(*args):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                       cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=600)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])


def describe(seed):
    exe = run.build(run.build_dir())
    out = subprocess.run([exe, "--workload", "hp_cdgcn", "--seed", str(seed),
                          "--seconds", "2", "--trace", "0",
                          "--p99-limit-ms", "100", "--describe"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return next(json.loads(line) for line in out.splitlines()
                if '"inputs"' in line)


class EndToEnd(unittest.TestCase):
    def test_seed_changes_inputs_not_metric_names(self):
        a, b = describe(1), describe(2)
        self.assertNotEqual(a["graph"], b["graph"])
        self.assertNotEqual(a["weights"], b["weights"])
        self.assertNotEqual(a["requests"], b["requests"])
        self.assertEqual(a, describe(1))
        names = []
        for seed in (1, 2):
            rc, result = bench("--workload", "hp_cdgcn", "--seed", str(seed),
                               "--seconds", "3", "--trace", "0")
            self.assertEqual(rc, 0)
            self.assertTrue(result["correct"])
            names.append(sorted(result["metrics"]))
        self.assertEqual(names[0], names[1])
        self.assertEqual(names[0],
                         sorted(n for n, _ in run.load_spec().end_to_end))

    def test_wrong_expected_digest_fails_the_run(self):
        rc, result = bench("--workload", "hp_cdgcn", "--seed", "1",
                           "--seconds", "2", "--trace", "0",
                           "--expect-digest", "0000000000000000")
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
