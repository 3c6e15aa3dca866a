"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the span recorder's self-time arithmetic, the percentile helper,
the oracle check (a corrupted result body counts as failed), open-loop
accounting (a stalled response delays the requests queued behind it),
and the agreement of ``BENCHMARK.json`` with the metrics the benchmark
prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from oracle import Checker, reference_digests, text_digest  # noqa: E402
from serving import replay  # noqa: E402
from spans import SpanRecorder, covered, percentile  # noqa: E402
from workloads import (  # noqa: E402
    MIN_REPLAY_REQUESTS, Arrival, first_jobs, offline_jobs, replay_schedule,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock)
        with recorder.span("outer", request_id="r1") as outer:
            clock.now = 1.0
            with recorder.span("child") as child:
                clock.now = 3.0
                with recorder.span("grandchild"):
                    clock.now = 4.0
                clock.now = 5.0
            clock.now = 6.0
            with recorder.span("child"):
                clock.now = 7.0
            clock.now = 10.0
        self.assertEqual(outer.duration, 10.0)
        self.assertEqual(recorder.self_time(outer), 10.0 - 4.0 - 1.0)
        self.assertEqual(recorder.self_time(child), 4.0 - 1.0)
        grandchild = recorder.spans[2]
        self.assertEqual(grandchild.parent, child.span_id)
        self.assertEqual(recorder.self_time(grandchild), 1.0)
        # The request id is inherited by every nested span.
        self.assertEqual({s.request_id for s in recorder.spans}, {"r1"})
        self.assertEqual(child.parent, outer.span_id)

    def test_overlapping_children_are_counted_once(self):
        self.assertEqual(covered((0.0, 10.0), [(1.0, 4.0), (2.0, 6.0), (9.0, 12.0)]), 6.0)
        self.assertEqual(covered((0.0, 10.0), []), 0.0)


class PercentileTests(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        samples = list(range(1, 1001))
        p99 = percentile(samples, 0.99)
        self.assertEqual((p99.value, p99.samples, p99.beyond), (990, 1000, 10))
        p50 = percentile([3.0, 1.0, 2.0], 0.5)
        self.assertEqual((p50.value, p50.samples, p50.beyond), (2.0, 3, 1))
        self.assertEqual(percentile([7.0], 0.99).value, 7.0)
        with self.assertRaises(ValueError):
            percentile([], 0.5)


class OracleTests(unittest.TestCase):
    def test_corrupted_body_counts_as_failed(self):
        from repro.api import AnalysisSession

        job = first_jobs("corpus-8", 3)[1]  # adaptive policy
        expected = reference_digests([job], processes=1)
        text = AnalysisSession(result_cache_size=0).analyze(job.request()).to_json()
        self.assertEqual(expected[job.key], text_digest(text))
        checker = Checker(expected)
        self.assertTrue(checker.check(job.key, 200, text))
        corrupted = text.replace('"max_output_error": ', '"max_output_error": 1', 1)
        self.assertNotEqual(corrupted, text)
        self.assertFalse(checker.check(job.key, 200, corrupted))
        self.assertFalse(checker.check(job.key, 500, text))
        checker.error(job.key, "RuntimeError")
        self.assertEqual((checker.attempted, checker.failed), (4, 3))


class ReplayTests(unittest.TestCase):
    def test_stalled_response_delays_requests_queued_behind_it(self):
        jobs = first_jobs("corpus-8", 1)
        arrivals = [Arrival(0.00, "fresh", jobs[0]),
                    Arrival(0.01, "repeat", jobs[1]),
                    Arrival(0.02, "repeat", jobs[1])]
        payloads = {job.key: {"key": job.key} for job in jobs}
        stall = 0.3

        def make_send():
            def send(payload):
                if payload["key"] == jobs[0].key:
                    time.sleep(stall)
                return 200, "memory", ""
            return send

        outcomes = replay(arrivals, payloads, 1, make_send)
        first, second, third = outcomes
        self.assertGreaterEqual(first.latency, stall)
        # Queued behind the stall: timed from the due time, not the send.
        self.assertGreaterEqual(second.latency, stall - 0.01)
        self.assertGreaterEqual(third.latency, stall - 0.02)
        self.assertLess(second.done - second.sent, stall / 3)
        self.assertLess(max(o.late for o in outcomes), stall / 3)

    def test_schedule_is_seeded_and_mixed(self):
        first = replay_schedule(5, 10.0)
        again = replay_schedule(5, 10.0)
        self.assertEqual([(a.due, a.job.key) for a in first],
                         [(a.due, a.job.key) for a in again])
        kinds = [a.kind for a in first]
        self.assertAlmostEqual(kinds.count("repeat") / len(kinds), 0.6, delta=0.1)
        self.assertAlmostEqual(kinds.count("fresh") / len(kinds), 0.3, delta=0.1)

    def test_short_schedule_still_has_ten_samples_beyond_p99(self):
        schedule = replay_schedule(2, 1.0)
        self.assertEqual(len(schedule), MIN_REPLAY_REQUESTS)
        p99 = percentile([a.due for a in schedule], 0.99)
        self.assertGreaterEqual(p99.beyond, 10)
        self.assertEqual(len(replay_schedule(2, 20.0)), 20 * 100)


class PerOpTests(unittest.TestCase):
    def test_loop_only_per_op_fails_without_loop_samples(self):
        jobs = offline_jobs("corpus-8", 1)
        loop = next(j for j in jobs if j.loop and j.policy == "fixed")
        flat = next(j for j in jobs if not j.loop and j.policy == "fixed")
        ops = {loop.key: 100, flat.key: 10}
        self.assertEqual(run.per_op([1e-3, 1.0], [loop, flat], ops, "fixed", True), 10.0)
        self.assertEqual(run.per_op([1e-3, 1e-4], [loop, flat], ops, "fixed", False), 10.0)
        with self.assertRaises(ValueError):
            run.per_op([1e-4], [flat], ops, "fixed", True)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        for metric in spec["per_layer"]:
            self.assertEqual(run.layer_unit(metric["name"]), metric["unit"],
                             metric["name"])
        from layers import SERVING_METRICS

        self.assertLessEqual(set(SERVING_METRICS), {m["name"] for m in spec["per_layer"]})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_refuses_to_run_without_the_repository(self):
        scratch = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus-8",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                os.rmdir(scratch)
            except OSError:
                pass  # a benchmark run is using it
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
