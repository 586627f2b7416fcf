"""Span-based tracing: where does the wall-clock time actually go?

The paper's whole argument is about the *distribution* of time between
the sequential preprocessing phase and the parallel conversion phase
(Figs. 3/5/10); aggregate counters cannot show that.  This module adds
the missing instrument: a lightweight tracer recording **spans** —
named, nested intervals on the monotonic clock, tagged with the rank
that executed them — plus exporters for machine analysis (JSON-lines),
the Chrome ``chrome://tracing`` / Perfetto viewer, and a human-readable
tree/flame summary.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Every instrumentation point
   costs one ``get_tracer()`` call and one ``enabled`` check; the
   disabled path allocates nothing (a shared null context manager is
   returned) and converters produce byte-identical output with and
   without tracing.
2. **Thread- and task-safe nesting.**  The open spans are per thread
   and per asyncio task (a context variable), so rank tasks on the
   thread executor, and attempts on the service's loop, each build
   their own correct subtree of one shared tracer; a thread started by
   ``asyncio.to_thread`` nests under the span that started it.
3. **Works across processes.**  Child ranks (process executor) record
   into a fresh tracer sharing the parent's epoch —
   ``time.perf_counter()`` is CLOCK_MONOTONIC, shared across ``fork`` —
   and their spans are *gathered to rank 0* with :meth:`Tracer.ingest`,
   which re-maps span ids.

Typical use::

    tracer = Tracer(enabled=True)
    prev = install(tracer)                  # make it process-global
    with tracer.span("convert", "bam", args={"nprocs": 4}):
        ...
    install(prev)
    write_trace(tracer.spans(), "out.trace.jsonl")

or, from the command line, ``repro convert --trace out.trace ...``
(see ``docs/observability.md``).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import RuntimeLayerError

__all__ = [
    "Span", "Tracer", "get_tracer", "install",
    "spans_from_dicts", "read_jsonl", "write_jsonl",
    "to_chrome_events", "write_chrome", "write_trace",
    "format_tree", "format_summary",
]


@dataclass(slots=True)
class Span:
    """One named interval on the tracer's monotonic timeline.

    ``start``/``end`` are seconds relative to the tracer epoch;
    ``parent_id`` links nested spans into a tree; ``rank`` tags the
    parallel rank that executed the span (``None`` for driver code).
    """

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start: float
    end: float | None = None
    rank: int | None = None
    thread_id: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the JSON-lines record)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "rank": self.rank,
            "thread_id": self.thread_id,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            span_id=int(data["span_id"]),
            parent_id=(None if data.get("parent_id") is None
                       else int(data["parent_id"])),
            name=str(data["name"]),
            category=str(data.get("category", "")),
            start=float(data["start"]),
            end=(None if data.get("end") is None else float(data["end"])),
            rank=(None if data.get("rank") is None
                  else int(data["rank"])),
            thread_id=int(data.get("thread_id", 0)),
            args=dict(data.get("args") or {}),
        )


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager for one live span of an enabled tracer."""

    __slots__ = ("_tracer", "_name", "_category", "_rank", "_args",
                 "_parent_id", "span")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 rank: int | None, args: dict[str, Any] | None,
                 parent_id: int | None) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._rank = rank
        self._args = args
        self._parent_id = parent_id
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer._begin(self._name, self._category,
                                        self._rank, self._args,
                                        self._parent_id)
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, _tb: Any) -> bool:
        assert self.span is not None
        self._tracer._end(self.span, exc)
        return False


class Tracer:
    """Thread-safe span recorder with a monotonic-clock timeline.

    Parameters
    ----------
    enabled:
        A disabled tracer records nothing and hands every ``span()``
        call the same shared null context manager.
    epoch:
        Timeline origin as a raw ``time.perf_counter()`` value.  Child
        processes pass the parent's epoch so their spans land on the
        parent's timeline (CLOCK_MONOTONIC survives ``fork``).
    """

    def __init__(self, enabled: bool = True,
                 epoch: float | None = None) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter() if epoch is None else epoch
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ---------------------------------------------------

    def span(self, name: str, category: str = "",
             rank: int | None = None,
             args: dict[str, Any] | None = None,
             parent_id: int | None = None):
        """Context manager timing one named span.

        Yields the live :class:`Span` (or ``None`` when disabled) so
        callers may attach ``args`` entries mid-flight.  *parent_id*
        overrides the implicit (innermost open span) parent — used when a
        span logically nests under a span opened by another thread.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, category, rank, args, parent_id)

    def current_span(self) -> Span | None:
        """The calling thread's or task's innermost open span of this
        tracer, if any."""
        return next((span for tracer, span in reversed(_OPEN.get())
                     if tracer is self), None)

    def _begin(self, name: str, category: str, rank: int | None,
               args: dict[str, Any] | None,
               parent_id: int | None = None) -> Span:
        if rank is None:
            rank = getattr(self._local, "rank", None)
        if parent_id is None:
            parent = self.current_span()
            parent_id = parent.span_id if parent is not None else None
        span = Span(
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            category=category,
            start=time.perf_counter() - self.epoch,
            rank=rank,
            thread_id=threading.get_ident(),
            args=dict(args) if args else {},
        )
        _OPEN.set(_OPEN.get() + ((self, span),))
        return span

    def _end(self, span: Span, exc: Any = None) -> None:
        span.end = time.perf_counter() - self.epoch
        if exc is not None:
            span.args.setdefault("error", type(exc).__name__)
        # Out-of-order exits are tolerated.
        _OPEN.set(tuple(entry for entry in _OPEN.get()
                        if entry[1] is not span))
        with self._lock:
            self._spans.append(span)

    @contextmanager
    def rank_context(self, rank: int | None):
        """Tag every span recorded by this thread with *rank*."""
        prev = getattr(self._local, "rank", None)
        self._local.rank = rank
        try:
            yield
        finally:
            self._local.rank = prev

    @contextmanager
    def activate(self):
        """Make this tracer the current one of the calling thread or,
        on an event loop, of the calling task."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    # -- collection --------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of every finished span, ordered by start time."""
        with self._lock:
            return sorted(self._spans,
                          key=lambda s: (s.start, s.span_id))

    def clear(self) -> None:
        """Drop every recorded span."""
        with self._lock:
            self._spans.clear()

    def ingest(self, span_dicts: Iterable[dict[str, Any]],
               rank: int | None = None,
               parent_id: int | None = None) -> int:
        """Merge spans gathered from another tracer (child rank).

        Span and parent ids are re-mapped onto this tracer's id space;
        spans without a rank inherit *rank*, and the gathered forest's
        roots are attached under *parent_id* (so a rank subtree hangs
        off the converter span that launched it).  Returns the number
        of spans merged.
        """
        spans = [Span.from_dict(d) for d in span_dicts]
        mapping = {s.span_id: next(self._ids) for s in spans}
        count = 0
        with self._lock:
            for span in spans:
                span.span_id = mapping[span.span_id]
                span.parent_id = mapping.get(span.parent_id, parent_id) \
                    if span.parent_id is not None else parent_id
                if span.rank is None:
                    span.rank = rank
                self._spans.append(span)
                count += 1
        return count


# -- current-tracer plumbing ----------------------------------------

_ACTIVE: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_active_tracer", default=None)
#: The open spans of the calling thread or task, innermost last, each
#: with its tracer.  A context copied from another (a new task,
#: ``asyncio.to_thread``) starts under the other's open spans.
_OPEN: contextvars.ContextVar[tuple[tuple[Tracer, Span], ...]] = \
    contextvars.ContextVar("repro_open_spans", default=())
_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The active tracer of the calling thread or task (an
    :meth:`Tracer.activate` override wins, then the process-global
    tracer; disabled by default)."""
    tracer = _ACTIVE.get()
    return tracer if tracer is not None else _GLOBAL


def install(tracer: Tracer) -> Tracer:
    """Set the process-global tracer; returns the previous one so
    callers can restore it (``install(prev)``)."""
    global _GLOBAL
    prev = _GLOBAL
    _GLOBAL = tracer
    return prev


def spans_from_dicts(dicts: Iterable[dict[str, Any]]) -> list[Span]:
    """Rebuild :class:`Span` objects from their dict form."""
    return [Span.from_dict(d) for d in dicts]


# -- exporters ------------------------------------------------------

def write_jsonl(spans: Iterable[Span],
                path: str | os.PathLike[str]) -> int:
    """Write spans as JSON-lines (one span object per line)."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict(), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str | os.PathLike[str]) -> list[Span]:
    """Inverse of :func:`write_jsonl`."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                raise RuntimeLayerError(
                    f"{os.fspath(path)}:{lineno}: bad trace line: "
                    f"{exc}") from None
    return spans


def _chrome_tid(span: Span) -> int:
    # Ranks get small stable track ids; driver threads keep their
    # (truncated) thread idents, offset so they never collide with
    # rank tracks.
    if span.rank is not None:
        return span.rank
    return 1_000_000 + span.thread_id % 1_000_000


def to_chrome_events(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Spans as Chrome Trace Event Format "complete" (``X``) events.

    The result (wrapped by :func:`write_chrome`) loads directly in
    ``chrome://tracing`` and Perfetto; timestamps are microseconds.
    """
    events: list[dict[str, Any]] = []
    track_names: dict[int, str] = {}
    for span in spans:
        tid = _chrome_tid(span)
        track_names.setdefault(
            tid,
            f"rank {span.rank}" if span.rank is not None else "driver")
        args = dict(span.args)
        if span.rank is not None:
            args["rank"] = span.rank
        events.append({
            "name": span.name,
            "cat": span.category or "default",
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": 0,
            "tid": tid,
            "args": args,
        })
    for tid, label in sorted(track_names.items()):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": label},
        })
    return events


def write_chrome(spans: Iterable[Span],
                 path: str | os.PathLike[str]) -> int:
    """Write a ``chrome://tracing``-loadable JSON trace file."""
    events = to_chrome_events(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  fh)
    return len(events)


def write_trace(spans: Iterable[Span],
                path: str | os.PathLike[str]) -> int:
    """Write a trace file, format chosen by extension.

    ``*.json`` gets the Chrome event format; anything else (the
    conventional ``*.trace`` / ``*.jsonl``) gets JSON-lines, which
    :func:`read_jsonl` round-trips and ``to_chrome_events`` can still
    convert later.
    """
    if os.fspath(path).endswith(".json"):
        return write_chrome(spans, path)
    return write_jsonl(spans, path)


# -- human-readable summaries ---------------------------------------

def _span_forest(spans: list[Span]) -> tuple[list[Span],
                                             dict[int, list[Span]]]:
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children[span.parent_id].append(span)
        else:
            roots.append(span)
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.start, s.span_id))
    return roots, children


#: Same-named siblings beyond this count collapse to one summary row.
_TREE_GROUP_AT = 4


def format_tree(spans: Iterable[Span]) -> str:
    """Render spans as an indented tree with durations and percents.

    Percentages are relative to the enclosing root span.  Bursts of
    same-named siblings (per-block BGZF spans, per-rank spans beyond a
    handful) are collapsed into one ``name xN`` aggregate row so the
    tree stays readable.
    """
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    if not spans:
        return "(no spans recorded)"
    roots, children = _span_forest(spans)
    lines: list[str] = []

    def label(span: Span) -> str:
        rank = f" rank={span.rank}" if span.rank is not None else ""
        cat = f" [{span.category}]" if span.category else ""
        extra = ""
        if span.name == "autotune":
            # Surface the cost_model provenance block inline so the
            # trace tree explains every auto scheduling decision.
            block = span.args.get("cost_model")
            if isinstance(block, dict):
                parts = [f"{k}={block[k]}" for k in
                         ("key", "hit", "shards_per_rank", "batch_size")
                         if k in block]
                extra = " " + " ".join(parts)
        return f"{span.name}{cat}{rank}{extra}"

    def emit(text: str, duration: float, root_total: float,
             prefix: str, connector: str) -> None:
        pct = f"{duration / root_total * 100:5.1f}%" if root_total \
            else "     -"
        lines.append(f"{prefix}{connector}{text:<40} "
                     f"{duration * 1e3:10.3f} ms  {pct}")

    def walk(span: Span, prefix: str, is_last: bool,
             root_total: float) -> None:
        connector = "" if not prefix and is_last is None else \
            ("└─ " if is_last else "├─ ")
        emit(label(span), span.duration, root_total, prefix, connector)
        child_prefix = prefix if is_last is None \
            else prefix + ("   " if is_last else "│  ")
        groups: dict[tuple[str, int | None], list[Span]] = {}
        ordered: list[tuple[str, int | None]] = []
        for child in children.get(span.span_id, []):
            key = (child.name, child.rank)
            if key not in groups:
                groups[key] = []
                ordered.append(key)
            groups[key].append(child)
        rows: list[tuple[Span | None, list[Span]]] = []
        for key in ordered:
            members = groups[key]
            if len(members) >= _TREE_GROUP_AT:
                rows.append((None, members))
            else:
                rows.extend((m, [m]) for m in members)
        for i, (single, members) in enumerate(rows):
            last = i == len(rows) - 1
            if single is not None:
                walk(single, child_prefix, last, root_total)
            else:
                total = sum(m.duration for m in members)
                emit(f"{label(members[0])} x{len(members)}", total,
                     root_total, child_prefix,
                     "└─ " if last else "├─ ")

    for root in roots:
        walk(root, "", None, root.duration)
    return "\n".join(lines)


def format_summary(spans: Iterable[Span]) -> str:
    """Flat flame summary: per span name, count / total / self time.

    *Self* time is a span's duration minus its direct children's — the
    flame-graph quantity that makes the hot leaf obvious.
    """
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    if not spans:
        return "(no spans recorded)"
    _, children = _span_forest(spans)
    wall = max((s.end or s.start) for s in spans) \
        - min(s.start for s in spans)
    agg: dict[str, list[float]] = {}   # name -> [count, total, self]
    for span in spans:
        child_total = sum(c.duration
                          for c in children.get(span.span_id, []))
        row = agg.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += max(0.0, span.duration - child_total)
    lines = [f"{'span':<28} {'count':>6} {'total':>12} {'self':>12} "
             f"{'self%':>7}",
             "-" * 70]
    for name, (count, total, self_time) in sorted(
            agg.items(), key=lambda kv: -kv[1][2]):
        pct = f"{self_time / wall * 100:6.1f}%" if wall else "     -"
        lines.append(f"{name:<28} {count:>6} {total * 1e3:>10.3f}ms "
                     f"{self_time * 1e3:>10.3f}ms {pct:>7}")
    lines.append(f"{'wall':<28} {'':>6} {wall * 1e3:>10.3f}ms")
    return "\n".join(lines)
