"""In-process measurement of analysis jobs, plain and traced.

:func:`measure_passes` is the end-to-end measurement: whole passes over
a workload's jobs through a fresh ``AnalysisSession(result_cache_size=0)``
each, timing every ``analyze`` call, until the time budget is spent.

:func:`traced_pass` is the per-layer measurement: one pass with spans
around the public entry points of each layer the session calls into
(front end, compiler, analysis engine, report, static layer), recorded
by temporarily wrapping those entry points.  Its results must be
byte-identical to the plain pass, so the spans time the same program.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Callable, Dict, Iterator, List, Tuple

from oracle import Checker, text_digest
from spans import SpanRecorder
from workloads import Job

from repro.api import AnalysisSession
from repro.machine import CompiledProgram, compile_fpcore


def native_program(job: Job) -> CompiledProgram:
    return CompiledProgram(compile_fpcore(job.core))


def run_native(program: CompiledProgram, job: Job) -> int:
    """Run ``program`` natively on the job's points; returns its float ops."""
    total = 0
    for point in job.points:
        program.run(point)
        total += program.stats.float_ops
    return total


def native_ops(job: Job) -> int:
    """Float operations the program executes natively on the job's points."""
    return run_native(native_program(job), job)


def measure_passes(jobs: List[Job], seconds: float,
                   checker: Checker) -> List[List[float]]:
    """Timed passes over ``jobs`` after one untimed warm-up pass.

    Returns the per-pass list of ``analyze`` latencies (seconds, in job
    order).  Every result is checked against the oracle.
    """
    requests = [job.request() for job in jobs]
    passes: List[List[float]] = []
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        session = AnalysisSession(result_cache_size=0)
        latencies = []
        for job, request in zip(jobs, requests):
            started = time.perf_counter()
            try:
                result = session.analyze(request)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                checker.error(job.key, type(exc).__name__)
                latencies.append(float("inf"))
                continue
            latencies.append(time.perf_counter() - started)
            checker.check(job.key, 200, result.to_json())
        if deadline is None:
            deadline = time.perf_counter() + seconds
        else:
            passes.append(latencies)
    return passes


# ----------------------------------------------------------------------
# Traced decomposition
# ----------------------------------------------------------------------

#: (module, attribute, span name): public entry points the session and
#: the herbgrind backend resolve at call time, wrapped while tracing.
ANALYSIS_ENTRY_POINTS = (
    ("repro.api.session", "compile_fpcore", "machine.compile"),
    ("repro.api.session", "format_fpcore", "fpcore.format"),
    ("repro.core.analysis", "analyze_program", "analysis.program"),
    ("repro.core.report", "root_cause_report", "report.root_cause"),
    ("repro.staticanalysis", "static_report", "static.report"),
    ("repro.staticanalysis", "cross_check", "static.cross_check"),
    ("repro.machine.batched", "BatchedProgram.run_points", "machine.batched"),
)


def _wrap(recorder: SpanRecorder, name: str, function: Callable) -> Callable:
    def traced(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)
    return traced


#: The front end as the service runs it per request: parsing the
#: payload's source and digesting the request.
SERVICE_ENTRY_POINTS = (
    ("repro.api.requests", "parse_fpcore", "fpcore.parse"),
    ("repro.serve.service", "request_digest", "session.digest"),
)


@contextlib.contextmanager
def layer_spans(recorder: SpanRecorder,
                entry_points=ANALYSIS_ENTRY_POINTS) -> Iterator[None]:
    """Record spans around the layers' entry points, restored on exit.

    ``(module, attribute, span name)`` names a module attribute, or a
    class attribute when the attribute is ``Class.method``.
    """
    saved = []
    try:
        for module_name, attribute, span_name in entry_points:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, span_name, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def traced_pass(jobs: List[Job], recorder: SpanRecorder,
                checker: Checker) -> Dict[str, dict]:
    """One traced pass; returns per-job profile counters and facts.

    Each job's spans carry its key as request id: the native run that
    supplies the op count (compiled beforehand, outside the span), the
    session's ``analyze`` with its layers nested inside, and the result
    serialization.  ``profile=True`` adds the pipeline counters, which
    are moved out of the result before it is serialized.
    """
    session = AnalysisSession(result_cache_size=0)
    facts: Dict[str, dict] = {}
    with layer_spans(recorder):
        for job in jobs:
            request = job.request(profile=True)
            program = native_program(job)
            with recorder.span("job", request_id=job.key):
                with recorder.span("machine.native"):
                    ops = run_native(program, job)
                try:
                    with recorder.span("session.analyze"):
                        result = session.analyze(request)
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    checker.error(job.key, type(exc).__name__)
                    continue
                # The counters are the only bytes profiling adds to the
                # serialized result; take them out before comparing.
                profile = result.extra.pop("pipeline_profile", {})
                with recorder.span("results.to_json"):
                    text = result.to_json()
            checker.check(job.key, 200, text)
            facts[job.key] = {
                "ops": ops,
                "bytes": len(text.encode("utf-8")),
                "digest": text_digest(text),
                "profile": profile,
                "residency": result.extra.get("tier_residency", {}),
                "degraded": "degradation" in result.extra,
            }
    return facts


def plain_pass(jobs: List[Job]) -> Tuple[float, Dict[str, str]]:
    """One untraced pass: wall seconds and result digests per job."""
    session = AnalysisSession(result_cache_size=0)
    digests = {}
    started = time.perf_counter()
    for job in jobs:
        digests[job.key] = text_digest(session.analyze(job.request()).to_json())
    return time.perf_counter() - started, digests
