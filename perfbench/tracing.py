"""In-memory spans around the benchmark's calls into the library.

Each span records its name, start, end, parent span and the id of the
estimate (or probe) it belongs to. Spans stay in memory until the run
ends and are then written out as JSON lines. A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    trace_id: str
    parent: Optional[int]
    name: str
    start: float
    end: float


class Tracer:
    """Collects nested spans of a single thread."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[span_id] = Span(span_id, trace_id, parent, name, start, end)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Summed self time in seconds per span name.

    Spans of one thread nest without overlapping, so the time children
    cover is the sum of their durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start - covered[span.span_id]
    return dict(totals)


def durations(spans: List[Span], name: str) -> List[float]:
    return [s.end - s.start for s in spans if s.name == name]
