"""In-memory span recorder and the statistics the benchmark reports.

A span is one timed call into a layer's public entry point: a name, a
start and end time, the span that caused it, and the id of the request
it belongs to.  Spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]
    span_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            pieces: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``pieces``."""
    low, high = interval
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in pieces
        if min(b, high) > max(a, low)
    )
    total = 0.0
    cursor = low
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


class SpanRecorder:
    """Records nested spans; ``span()`` parents to the innermost open one."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[Span]:
        """Time the ``with`` body; nested spans inherit the request id."""
        parent = self._open[-1] if self._open else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent].request_id
        span = Span(name, self.clock(), math.nan, parent, request_id, len(self.spans))
        self.spans.append(span)
        self._open.append(span.span_id)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = self.clock()

    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_time(self, span: Span,
                  kids: Optional[Dict[int, List[Span]]] = None) -> float:
        if kids is None:
            kids = self.children()
        pieces = [(k.start, k.end) for k in kids.get(span.span_id, ())]
        return span.duration - covered((span.start, span.end), pieces)


@dataclass
class Percentile:
    """A nearest-rank percentile with the sample count it came from."""

    value: float
    samples: int
    beyond: int


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``.

    ``beyond`` counts the samples strictly above the reported rank, so a
    caller can check that a tail percentile rests on enough of them.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)

