"""The repo benchmark: one command, three workloads, checked results.

    python3 perfbench/run.py --workload corpus-8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``corpus-8``, ``straightline-64`` and ``serve-replay``.  Every input is
generated from ``--seed``; every analysis result is checked against the
reference engine under the fixed policy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  The exit
code is 0 only when every result matched the oracle.

``python3 perfbench/selftest.py`` runs the benchmark's own self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("corpus-8", "straightline-64", "serve-replay")

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "reply_p50_ms": "ms",
    "fixed_us_per_op": "us",
    "adaptive_us_per_op": "us",
}

#: Fresh processes timed per run for setup_s (the median is reported).
SETUP_REPEATS = 5
#: /v1/health round trips behind serve.health_ms.
HEALTH_SAMPLES = 50
#: Jobs sent through the in-process serving probes of a traced run.
PROBE_JOBS = 12
#: Workloads whose per-op metrics cover their loop programs only.
LOOP_WORKLOADS = ("corpus-8", "serve-replay")


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_us_per_op"):
        return "us"
    if name.endswith("_x"):
        return "x"
    if name.endswith(("_ratio", "share", "residency")) or name.startswith("share."):
        return "ratio"
    if name == "results.bytes":
        return "bytes"
    return "count"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_op(latencies, jobs, ops, policy: str, loops_only: bool) -> float:
    """Waiting time per executed float op, in us, of the ``policy`` jobs.

    With ``loops_only`` (corpus-8 and serve-replay) only loop programs
    count, and it is an error if there are none.  Their trip counts are
    sampled inputs, so the loop-free programs' share of the ops, and a
    figure mixing both, would move with the seed; and a loop-free
    request's round trip through the server is mostly fixed HTTP and IPC
    cost over a few dozen ops.  Loop-free cost has its own workload
    (straightline-64), ``reply_p50_ms`` and per-layer metrics.
    """
    selected = [(t, job) for t, job in zip(latencies, jobs)
                if job.policy == policy and (job.loop or not loops_only)]
    if not selected:
        raise ValueError(f"no {policy} loop program to measure per op")
    return sum(t for t, _ in selected) / sum(ops[job.key] for _, job in selected) * 1e6


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------

def offline_setup_once(workload: str, seed: int) -> float:
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"),
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if line != "ready" or process.returncode != 0:
        raise RuntimeError("setup probe failed")
    return elapsed


def serve_setup_once(scratch: str, job, checker) -> float:
    from serving import ServerProcess, client_send

    store = tempfile.mkdtemp(prefix="setup-", dir=scratch)
    with ServerProcess(store, cpu_count()) as server:
        server.wait_healthy()
        send = client_send(server.port)
        status, _, text = send(job.request().to_dict())
        elapsed = time.perf_counter() - server.started
        send.close()
        checker.check(job.key, status, text)
    return elapsed


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------

def run_offline(args, scratch: str) -> dict:
    from offline import measure_passes, native_ops
    from oracle import Checker, reference_digests
    from workloads import offline_jobs

    jobs = offline_jobs(args.workload, args.seed)
    checker = Checker(reference_digests(jobs, min(2, cpu_count())))
    if args.trace:
        return traced_run(args, scratch, jobs, checker)
    ops = {job.key: native_ops(job) for job in jobs}
    setup = statistics.median(offline_setup_once(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS))
    passes = measure_passes(jobs, args.seconds, checker)
    loops_only = args.workload in LOOP_WORKLOADS
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": rss_mb(),
        # Every analyze call of every pass: mostly loop-free programs.
        "reply_p50_ms": statistics.median(t for run in passes for t in run) * 1e3,
    }
    for policy in ("fixed", "adaptive"):
        metrics[f"{policy}_us_per_op"] = statistics.median(
            per_op(run, jobs, ops, policy, loops_only) for run in passes)
    return finish(checker, metrics, END_TO_END)


# ----------------------------------------------------------------------
# serve-replay
# ----------------------------------------------------------------------

def run_serve(args, scratch: str) -> dict:
    from offline import native_ops
    from oracle import Checker, reference_digests
    from workloads import distinct_jobs, first_jobs, replay_schedule

    schedule = replay_schedule(args.seed, args.seconds)
    jobs = list(distinct_jobs([a.job for a in schedule]).values())
    setup_jobs = first_jobs(args.workload, args.seed)
    checker = Checker(reference_digests(jobs + setup_jobs, min(2, cpu_count())))
    if args.trace:
        return traced_run(args, scratch, jobs, checker, schedule=schedule)
    ops = {job.key: native_ops(job) for job in jobs}
    setup = statistics.median(serve_setup_once(scratch, setup_jobs[0], checker)
                              for _ in range(SETUP_REPEATS))
    outcomes, hits, rss, _, _ = serve_schedule(scratch, schedule, setup_jobs, checker)
    computed = [o for o in outcomes
                if checker.check(o.arrival.job.key, o.status, o.text)
                and o.source == "computed"]
    metrics = {"setup_s": setup, "peak_rss_mb": rss,
               "reply_p50_ms": statistics.median(hits) * 1e3}
    for policy in ("fixed", "adaptive"):
        # Send to reply: HTTP, worker IPC and compute.
        metrics[f"{policy}_us_per_op"] = per_op(
            [o.done - o.sent for o in computed], [o.arrival.job for o in computed],
            ops, policy, loops_only=True)
    return finish(checker, metrics, END_TO_END)


def serve_schedule(scratch, schedule, warmup_jobs, checker):
    """Replay ``schedule`` against a fresh server over a pre-warmed store.

    Then the schedule's repeat and store requests are sent again, closed
    loop over one connection, while the pool is idle, with this thread
    and the server's event loop on one CPU.  (Open-loop hits also pay
    for waking idle CPUs: their median spread about 20% from run to run
    on the same seed.)  All their results are checked; those served from
    the memory LRU time the HTTP shell and the LRU.  Store reads are left
    out of them: about 45% of the pass, a little slower, and in a
    proportion that moves with the seed.

    Returns the outcomes, the closed-loop round trips (seconds) served
    from memory, the peak RSS of server plus workers (MB), and
    ``/v1/stats`` before and after the replay.
    """
    from serving import (ServerProcess, client_send, closed_loop, one_cpu,
                         prewarm_store, replay)

    store = tempfile.mkdtemp(prefix="store-", dir=scratch)
    prewarm_store([a.job for a in schedule if a.kind == "store"], store)
    payloads = {a.job.key: a.job.request().to_dict() for a in schedule}
    connections = cpu_count()
    with ServerProcess(store, connections) as server:
        server.wait_healthy()
        send = client_send(server.port)
        for job in warmup_jobs:
            status, _, text = send(job.request().to_dict())
            checker.check(job.key, status, text)
        send.close()
        before = server.stats()
        outcomes = replay(schedule, payloads, connections,
                          lambda: client_send(server.port))
        after = server.stats()
        hits = [a.job for a in schedule if a.kind != "fresh"]
        send = client_send(server.port)
        with one_cpu(server.process.pid):
            trips = closed_loop(send, [payloads[job.key] for job in hits])
        send.close()
        seconds = [trip[0] for job, trip in zip(hits, trips)
                   if checker.check(job.key, trip[1], trip[3]) and trip[2] == "memory"]
        return outcomes, seconds, server.peak_rss_mb(), before, after


# ----------------------------------------------------------------------
# Traced run (per-layer metrics)
# ----------------------------------------------------------------------

def traced_run(args, scratch, jobs, checker, schedule=None) -> dict:
    """Per-layer metrics: an offline decomposition of the workload's jobs
    and, for serve-replay only, a replay of its schedule through a live
    server and in-process serving probes.  The offline workloads never
    enter the serving layers and report their metrics as 0."""
    import random

    from layers import SERVING_METRICS, analysis_metrics, serving_metrics
    from offline import plain_pass, traced_pass
    from serving import ServerProcess, health_round_trips, inprocess_probes
    from spans import SpanRecorder

    if schedule is None:
        decomposed = jobs
    else:
        # One request per corpus program: the first full permutation of
        # the fresh draws.
        decomposed = [a.job for a in schedule if a.kind == "fresh"][:86]
    plain_pass(decomposed)  # warm-up: lazy tables and first-call costs
    plain_wall, plain_digests = plain_pass(decomposed)
    recorder = SpanRecorder()
    started = time.perf_counter()
    facts = traced_pass(decomposed, recorder, checker)
    traced_wall = time.perf_counter() - started
    for key, digest in plain_digests.items():
        if facts.get(key, {}).get("digest") != digest:
            checker.error(key, "traced result differs from the plain pass")
    metrics = analysis_metrics(decomposed, recorder, facts, plain_wall, traced_wall)
    if schedule is None:
        metrics.update(dict.fromkeys(SERVING_METRICS, 0))
        return finish(checker, metrics, {name: layer_unit(name) for name in metrics})

    sample = random.Random(args.seed).sample(jobs, min(PROBE_JOBS, len(jobs)))
    probes = inprocess_probes(sample, tempfile.mkdtemp(prefix="probe-", dir=scratch),
                              checker)
    outcomes, _, _, before, after = serve_schedule(scratch, schedule, [], checker)
    for outcome in outcomes:
        checker.check(outcome.arrival.job.key, outcome.status, outcome.text)
    store = tempfile.mkdtemp(prefix="health-", dir=scratch)
    with ServerProcess(store, 1) as server:
        server.wait_healthy()
        probes["serve.health_ms"] = health_round_trips(server.port, HEALTH_SAMPLES)
    metrics.update(serving_metrics(outcomes, before, after, probes))
    return finish(checker, metrics, {name: layer_unit(name) for name in metrics})


def finish(checker, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run it from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=parent)
    try:
        run = run_serve if args.workload == "serve-replay" else run_offline
        result = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
