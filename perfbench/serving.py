"""Live-server plumbing for serve-replay: host process, store, open loop.

The server runs in its own process (``serve_host.py``) over a
``ShardedResultStore``; this process is the load generator.  The open
loop sends each request at its scheduled due time over at most a fixed
number of keep-alive connections, and times every request from its due
time, so a stalled response adds its wait to every request queued
behind it.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from workloads import Arrival, Job

from repro.api import AnalysisSession
from repro.serve import ServeClient, ServeError

HERE = os.path.dirname(os.path.abspath(__file__))

#: A send function: payload dict -> (status, source, body text).
Send = Callable[[dict], Tuple[int, str, str]]


class ServerProcess:
    """``serve_host.py`` as a child process; ``stop()`` drains and reaps it."""

    def __init__(self, store_dir: str, workers: int) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_host.py"),
             "--store", store_dir, "--workers", str(workers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.process.kill()
            self.process.wait()
            raise RuntimeError("serve_host did not report a port")
        self.port = int(line[1])
        self.usage: Optional[dict] = None

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        with ServeClient(port=self.port, timeout=timeout) as client:
            while True:
                try:
                    if client.health().get("status") == "ok":
                        return
                except (ServeError, OSError, http.client.HTTPException):
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)

    def stats(self) -> dict:
        with ServeClient(port=self.port) as client:
            return client.stats()

    def stop(self) -> dict:
        """Drain, wait for exit, and return the host's resource usage."""
        if self.usage is None:
            out, _ = self.process.communicate(timeout=120)
            lines = out.strip().splitlines()
            self.usage = json.loads(lines[-1]) if lines else {}
        return self.usage

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            try:
                self.stop()
            except (subprocess.TimeoutExpired, ValueError):
                self.process.kill()
                self.process.wait()

    def peak_rss_mb(self) -> float:
        """Server peak plus each worker at the largest worker's peak."""
        usage = self.stop()
        kilobytes = usage["server_rss_kb"] + usage["workers"] * usage["worker_rss_kb"]
        return kilobytes / 1024.0


def prewarm_store(jobs: Sequence[Job], store_dir: str) -> None:
    """Write results into the store the way an offline session does."""
    session = AnalysisSession(result_cache_size=0, cache_dir=store_dir)
    for job in jobs:
        session.analyze(job.request())


def client_send(port: int) -> Send:
    client = ServeClient(port=port)

    def send(payload: dict) -> Tuple[int, str, str]:
        try:
            reply = client.analyze(payload)
        except ServeError as exc:
            return exc.status, "error", ""
        except (OSError, http.client.HTTPException) as exc:
            client.close()
            return 0, type(exc).__name__, ""
        return reply.status, reply.source, reply.text
    send.close = client.close  # type: ignore[attr-defined]
    return send


@dataclass
class Outcome:
    """One replayed request, with times relative to the loop's start."""

    arrival: Arrival
    dispatched: float
    sent: float
    done: float
    status: int
    source: str
    text: str

    @property
    def latency(self) -> float:
        """From the due time: includes every wait the schedule imposed."""
        return self.done - self.arrival.due

    @property
    def late(self) -> float:
        """How late the generator dispatched the request."""
        return self.dispatched - self.arrival.due


def replay(arrivals: Sequence[Arrival], payloads: Dict[str, dict],
           connections: int, make_send: Callable[[], Send],
           clock: Callable[[], float] = time.perf_counter) -> List[Outcome]:
    """Send ``arrivals`` open-loop; returns outcomes in schedule order.

    The dispatcher hands each request to a shared queue at its due time
    whatever the state of earlier requests; ``connections`` threads,
    each with its own keep-alive connection, take requests from the
    queue in order.
    """
    pending: "queue.Queue" = queue.Queue()
    outcomes: List[Optional[Outcome]] = [None] * len(arrivals)

    def connection() -> None:
        send = make_send()
        try:
            while True:
                item = pending.get()
                if item is None:
                    return
                index, dispatched = item
                arrival = arrivals[index]
                sent = clock() - origin
                status, source, text = send(payloads[arrival.job.key])
                outcomes[index] = Outcome(arrival, dispatched, sent,
                                          clock() - origin, status, source, text)
        finally:
            close = getattr(send, "close", None)
            if close is not None:
                close()

    threads = [threading.Thread(target=connection, daemon=True)
               for _ in range(connections)]
    origin = clock()
    for thread in threads:
        thread.start()
    for index, arrival in enumerate(arrivals):
        wait = arrival.due - (clock() - origin)
        if wait > 0:
            time.sleep(wait)
        pending.put((index, clock() - origin))
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join()
    return outcomes  # type: ignore[return-value]


@contextlib.contextmanager
def one_cpu(pid: int) -> Iterator[None]:
    """Run the calling thread and the main thread of process ``pid`` on
    one CPU; both affinities are restored on exit.

    A round trip between two threads on different CPUs also pays for
    waking the other CPU, which on a shared virtual machine jumped by
    about 40% between runs; on one CPU it pays for a context switch.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = {tid: os.sched_getaffinity(tid) for tid in (0, pid)}
    cpu = min(saved[0])
    try:
        for tid in saved:
            os.sched_setaffinity(tid, {cpu})
        yield
    finally:
        for tid, mask in saved.items():
            os.sched_setaffinity(tid, mask)


def closed_loop(send: Send, payloads: Sequence[dict]) -> List[Tuple[float, int, str, str]]:
    """Send ``payloads`` one after another over one connection; returns
    (seconds from send to reply, status, source, body text) per request."""
    trips = []
    for payload in payloads:
        started = time.perf_counter()
        status, source, text = send(payload)
        trips.append((time.perf_counter() - started, status, source, text))
    return trips


def health_round_trips(port: int, count: int) -> List[float]:
    """``/v1/health`` round trips over one keep-alive connection: the
    HTTP floor every request pays."""
    samples = []
    with ServeClient(port=port) as client:
        for _ in range(count):
            started = time.perf_counter()
            client.health()
            samples.append(time.perf_counter() - started)
    return samples


def inprocess_probes(jobs: Sequence[Job], store_dir: str,
                     checker) -> Dict[str, List[float]]:
    """Time the serving layers below HTTP, in this process, per job.

    ``WorkerPool.submit(...).result()`` (queue, worker IPC and compute),
    ``AnalysisService.analyze_payload`` (parse, digest, lookups, pool),
    with spans around the front-end calls it makes (parsing the
    payload's source and digesting the request), and the store's
    ``put_text``/``get_text``.  Returns samples in seconds per metric
    name.  Every analysis they return is checked against the oracle.
    """
    import asyncio

    from offline import SERVICE_ENTRY_POINTS, layer_spans
    from spans import SpanRecorder

    from repro.api import ShardedResultStore
    from repro.serve import AnalysisService, WorkerPool

    payloads = [(job.key, job.request().to_dict()) for job in jobs]
    probes: Dict[str, List[float]] = {name: [] for name in (
        "pool.submit_ms", "store.put_ms", "store.get_ms")}
    texts = []
    with WorkerPool(workers=1) as pool:
        for key, payload in payloads:
            started = time.perf_counter()
            [reply] = pool.submit([payload]).result()
            probes["pool.submit_ms"].append(time.perf_counter() - started)
            checker.check(key, 200 if reply[0] == "ok" else 500,
                          reply[1] if reply[0] == "ok" else "")

    recorder = SpanRecorder()

    async def through_service() -> None:
        service = AnalysisService(workers=1)
        try:
            for key, payload in payloads:
                with recorder.span("service.payload", request_id=key):
                    outcome = await service.analyze_payload(payload)
                checker.check(key, outcome.status, outcome.body)
                texts.append((outcome.digest, outcome.body))
        finally:
            await service.close()

    with layer_spans(recorder, SERVICE_ENTRY_POINTS):
        asyncio.run(through_service())
    per_request: Dict[str, Dict[str, float]] = {key: {} for key, _ in payloads}
    for span in recorder.spans:
        times = per_request.get(span.request_id)
        if times is not None:
            times[span.name] = times.get(span.name, 0.0) + span.duration
    for name in ("service.payload", "fpcore.parse", "session.digest"):
        probes[f"{name}_ms"] = [times.get(name, 0.0) for times in per_request.values()]
    store = ShardedResultStore(store_dir)
    for digest, text in texts:
        started = time.perf_counter()
        store.put_text(digest, text)
        probes["store.put_ms"].append(time.perf_counter() - started)
    for digest, text in texts:
        started = time.perf_counter()
        if store.get_text(digest) != text:
            raise RuntimeError("store returned different bytes")
        probes["store.get_ms"].append(time.perf_counter() - started)
    return probes
