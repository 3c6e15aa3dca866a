"""The independent oracle: the reference engine under the fixed policy.

Every analysis the benchmark runs — any engine, any precision policy,
in-process or served over HTTP — must serialize to the same JSON as the
reference interpreter at full fixed precision on the same points (the
repo's byte-identity invariant).  The oracle is computed outside the
timed region, in a small pool of forked processes, and compared by
SHA-256 digest of the result JSON.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from typing import Dict, Iterable, List, Tuple

from workloads import Job


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference_digest(item: Tuple[str, dict]) -> Tuple[str, str]:
    from repro.api import AnalysisRequest, AnalysisSession

    key, payload = item
    session = AnalysisSession(result_cache_size=0, degrade=False)
    result = session.analyze(AnalysisRequest.from_dict(payload))
    return key, text_digest(result.to_json())


def reference_digests(jobs: Iterable[Job], processes: int) -> Dict[str, str]:
    """Oracle digest per job key (distinct keys only)."""
    items: Dict[str, dict] = {}
    loops: List[str] = []
    for job in jobs:
        if job.key not in items:
            items[job.key] = job.request(engine="reference", policy="fixed").to_dict()
            if job.loop:
                loops.append(job.key)
    # Long loop analyses first, so the pool's tail is short.
    order = loops + [key for key in items if key not in loops]
    work = [(key, items[key]) for key in order]
    if processes <= 1 or len(work) < 8:
        return dict(map(_reference_digest, work))
    # Forked, not spawned: a spawn pool also starts multiprocessing's
    # resource tracker, a process that outlives this one.  No analysis
    # has run here yet, so the workers start from a cold interpreter
    # state all the same.
    context = multiprocessing.get_context("fork")
    with context.Pool(processes) as pool:
        digests = dict(pool.imap_unordered(_reference_digest, work, chunksize=1))
        pool.close()
        pool.join()
    return digests


class Checker:
    """Counts attempted analyses and those whose output is wrong."""

    def __init__(self, expected: Dict[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, key: str, status: int, text: str) -> bool:
        """One outcome: HTTP-style status and body text, against the oracle."""
        self.attempted += 1
        ok = status == 200 and text_digest(text) == self.expected.get(key)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{key}: status {status}")
        return ok

    def error(self, key: str, reason: str) -> None:
        """One attempt that raised instead of producing a result."""
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{key}: {reason}")
