"""Per-layer metrics of the traced run, from spans and exposed counters.

Analysis-layer times are means per analysed request over the traced
pass; serving times are medians.  Counts are totals.  Every ratio comes
with its base as a separate count.  A layer that a workload never enters
reads 0: the sequential path on straightline-64, and every serving
metric (:data:`SERVING_METRICS`) on the offline workloads.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from spans import SpanRecorder, percentile
from workloads import POLICIES, Job


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def analysis_metrics(jobs: Iterable[Job], recorder: SpanRecorder,
                     facts: Dict[str, dict], plain_wall: float,
                     traced_wall: float) -> Dict[str, float]:
    """Layer metrics of one traced pass (see :func:`offline.traced_pass`)."""
    jobs = [job for job in jobs if job.key in facts]
    kids = recorder.children()
    by_job: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    session_self: Dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        if span.request_id is None:
            continue
        by_job[span.request_id][span.name] += span.duration
        if span.name == "session.analyze":
            session_self[span.request_id] += recorder.self_time(span, kids)

    def total(name: str, selected: Iterable[Job] = None) -> float:
        return sum(by_job[job.key][name] for job in (jobs if selected is None else selected))

    def mean_ms(name: str) -> float:
        return _ratio(total(name), len(jobs)) * 1e3

    def ops(selected: Iterable[Job]) -> int:
        return sum(facts[job.key]["ops"] for job in selected)

    def counter(name: str, selected: Iterable[Job] = None) -> int:
        return sum(facts[job.key]["profile"].get(name, 0)
                   for job in (jobs if selected is None else selected))

    def residency(name: str, selected: Iterable[Job]) -> int:
        return sum(facts[job.key]["residency"].get(name, 0) for job in selected)

    batched = {job.key for job in jobs if by_job[job.key]["machine.batched"] > 0}
    metrics: Dict[str, float] = {
        "fpcore.format_ms": mean_ms("fpcore.format"),
        "machine.compile_ms": mean_ms("machine.compile"),
        "machine.float_ops": ops(jobs),
        "machine.native_ms": mean_ms("machine.native"),
    }
    for path in ("seq", "batched"):
        on_path = [job for job in jobs if (job.key in batched) == (path == "batched")]
        metrics[f"analysis.{path}_requests"] = len(on_path)
        for policy in POLICIES:
            selected = [job for job in on_path if job.policy == policy]
            busy = total("analysis.program", selected)
            metrics[f"analysis.{path}_{policy}_ms"] = _ratio(busy, len(selected)) * 1e3
            metrics[f"analysis.{path}_{policy}_us_per_op"] = _ratio(busy, ops(selected)) * 1e6
    analysis_time = total("analysis.program")
    metrics["analysis.overhead_x"] = _ratio(analysis_time, total("machine.native"))
    for name in ("fused_ops", "generic_ops", "trace_interned"):
        metrics[f"analysis.{name}"] = counter(name)
    for name, fast, slow in (
        ("antiunify", "antiunify_fast", "antiunify_merge"),
        ("error", "error_fast", "error_exact"),
        ("kernel_cache", "kernel_cache_hits", "kernel_cache_misses"),
    ):
        base = counter(fast) + counter(slow)
        ratio_name = "hit_ratio" if name == "kernel_cache" else "fast_ratio"
        metrics[f"analysis.{name}_{ratio_name}"] = _ratio(counter(fast), base)
        metrics[f"analysis.{name}_checks"] = base

    adaptive = [job for job in jobs if job.policy == "adaptive"]
    for name in ("hw_kernel_ops", "hw_promotions", "working_certified",
                 "full_recomputed_nodes"):
        metrics[f"policy.{name}"] = residency(name, adaptive)
    for policy in POLICIES:
        selected = [job for job in jobs if job.policy == policy]
        metrics[f"policy.escalations_{policy}"] = residency("escalations", selected)
    tier_ops = counter("hw_tier_ops", adaptive) + counter("working_tier_ops", adaptive)
    metrics["policy.hw_residency"] = _ratio(counter("hw_tier_ops", adaptive), tier_ops)
    metrics["policy.adaptive_ops"] = tier_ops

    analyze_time = total("session.analyze")
    static_time = total("static.report") + total("static.cross_check")
    metrics.update({
        "report.ms": mean_ms("report.root_cause"),
        "static.ms": _ratio(static_time, len(jobs)) * 1e3,
        "static.share": _ratio(static_time, analyze_time),
        "results.to_json_ms": mean_ms("results.to_json"),
        "results.bytes": _ratio(sum(facts[job.key]["bytes"] for job in jobs), len(jobs)),
        "session.analyze_ms": _ratio(analyze_time, len(jobs)) * 1e3,
        "session.self_ms": _ratio(sum(session_self.values()), len(jobs)) * 1e3,
        "ladder.degraded": sum(facts[job.key]["degraded"] for job in jobs),
        "trace.overhead_x": _ratio(traced_wall, plain_wall),
        "trace.plain_ms": plain_wall * 1e3,
        "share.loop_time": _ratio(total("analysis.program", [j for j in jobs if j.loop]),
                                  analysis_time),
        "share.batched_ops": _ratio(ops([j for j in jobs if j.key in batched]), ops(jobs)),
    })
    return metrics


#: ``/v1/stats`` counters reported as deltas over the replay.
STATS_COUNTERS = (
    ("service", "computed"), ("service", "memory_hits"),
    ("service", "store_hits"), ("service", "dedupe_hits"),
    ("service", "rejected"), ("pool", "restarts"),
)

#: ``X-Repro-Source`` value -> per-layer round-trip metric.
SOURCE_METRICS = (("memory", "serve.hit_ms"), ("store", "serve.store_hit_ms"),
                  ("computed", "serve.miss_ms"))

#: In-process probes of the serving layers (see
#: :func:`serving.inprocess_probes`) and the HTTP floor.
PROBE_METRICS = ("pool.submit_ms", "service.payload_ms", "fpcore.parse_ms",
                 "session.digest_ms", "store.put_ms", "store.get_ms",
                 "serve.health_ms")

#: Every metric :func:`serving_metrics` reports.
SERVING_METRICS = (
    ("replay.p50_ms", "replay.p99_ms", "replay.p99_beyond", "replay.miss_p50_ms")
    + tuple(name for _, name in SOURCE_METRICS)
    + ("replay.late_ms", "replay.requests")
    + tuple(f"{group}.{name}" for group, name in STATS_COUNTERS)
    + PROBE_METRICS
)

#: The fewest samples that must lie beyond a reported p99.
P99_BEYOND = 10


def serving_metrics(outcomes: List, before: dict, after: dict,
                    probes: Dict[str, List[float]]) -> Dict[str, float]:
    """Layer metrics of a replay through a live server, plus in-process probes.

    ``outcomes`` are :class:`serving.Outcome`; round trips are timed from
    send to reply, split by the server's ``X-Repro-Source``.  ``probes``
    maps a metric name to its samples in seconds.
    """
    metrics: Dict[str, float] = {}
    # Open-loop latency from each request's due time; a failed request
    # counts as missing every latency limit.
    latencies = [o.latency if o.status == 200 else float("inf") for o in outcomes]
    p99 = percentile(latencies, 0.99)
    if p99.beyond < P99_BEYOND:
        raise ValueError(f"p99 of {p99.samples} samples has only {p99.beyond} beyond it")
    metrics["replay.p50_ms"] = percentile(latencies, 0.5).value * 1e3
    metrics["replay.p99_ms"] = p99.value * 1e3
    metrics["replay.p99_beyond"] = p99.beyond
    metrics["replay.miss_p50_ms"] = _median_ms(
        [o.latency for o in outcomes if o.status == 200 and o.source == "computed"])
    for source, name in SOURCE_METRICS:
        metrics[name] = _median_ms([o.done - o.sent for o in outcomes
                                    if o.status == 200 and o.source == source])
    metrics["replay.late_ms"] = percentile([o.late for o in outcomes], 0.99).value * 1e3
    metrics["replay.requests"] = len(outcomes)
    for group, name in STATS_COUNTERS:
        metrics[f"{group}.{name}"] = after[group][name] - before[group][name]
    for name in PROBE_METRICS:
        metrics[name] = _median_ms(probes[name])
    return metrics
