"""In-memory spans around the benchmark's calls into kerrgate.

A span has a name (the per-layer metric it feeds, e.g. ``kerr.trace_plain``),
start and end on the system-wide monotonic clock, the index of its parent
span, the task id it belongs to, counts recorded at the same boundary, and
whether the call raised.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time

# yielded by a disabled tracer; counts written to it are dropped
NULL_SPAN = contextlib.nullcontext({"counts": {}})


def now() -> float:
    """Monotonic clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.tracer._stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record["start"] = now()
        return self.record

    def __exit__(self, exc_type, exc, tb):
        self.record["end"] = now()
        self.record["failed"] = exc_type is not None
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans when enabled; otherwise ``span`` costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.task = None
        self._stack: list[int] = []

    def span(self, name: str, **counts):
        """Context manager timing one call; yields the span record, whose
        ``counts`` may be filled in once the call has returned."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent, "task": self.task, "counts": counts}
        return _Span(self, record)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its children cover.

    Children of one span run one after another on one thread, so their
    durations add up without overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
