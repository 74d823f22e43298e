"""In-memory spans around the benchmark's calls into quantumdesks, and the
order statistics every metric is built from.

A span records a name, its start and end (``time.perf_counter`` seconds),
the index of the span that was open when it began (-1 for a root) and the
id of the operation it belongs to.  Spans are only appended during a run;
``write`` saves them once the run has ended.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

#: the tail is the value with this many samples above it
TAIL_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Wraps calls in spans kept in memory until ``write``."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = -1
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op_id)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.op]
                                 for s in self.spans]}, fh)


def median(values) -> float:
    """Median, or 0.0 for no samples (a layer the workload never calls)."""
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile rank, sample count) of the tail.

    The tail is the highest order statistic with at least ``TAIL_BEYOND``
    samples above it; with fewer samples than that it is the maximum.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    rank = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], rank, n

