"""In-harness span recorder for the traced pass.

Spans are opened by the benchmark's own code around calls into the
program's public functions; nothing inside the program is edited.
They stay in memory and are written once, as Chrome-trace JSON, when
the run ends.  A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One timed call: *layer* is the module-level name self times are
    summed under, *op* the workload/op id every span of one operation
    shares, *counts* the work done (records, bytes)."""

    id: int
    name: str
    layer: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str | None = None, op: str = "",
             **counts: float):
        """Time the body as a child of the innermost open span; the
        yielded dict takes counts known only after the call."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer or name.split(".")[0],
                    op or (parent.op if parent else ""),
                    parent.id if parent else None, time.perf_counter(),
                    counts=counts)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span.counts
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        out = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def write_chrome(self, path: str) -> None:
        """Dump every span as a Chrome-trace complete ("X") event."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
            "args": {"id": s.id, "parent": s.parent, "op": s.op,
                     **s.counts},
        } for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
