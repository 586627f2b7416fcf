"""Per-connection identity for the gateway.

A :class:`Session` names one accepted connection — unix-socket or
TCP — for the ``gateway.<op>`` tracing spans, and marks when either
side of it has closed.  The gateway's connection handler owns the I/O
and the ``gateway_*`` metrics carry the counts.

Request pipelining is bounded per connection: the handler stops
reading new frames once ``max_inflight_per_conn`` ops are being
processed, so one greedy connection exerts TCP backpressure on itself
instead of flooding the dispatcher.  Responses are always written in
request order — the wire contract stays strict request/response even
when the ops behind it run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_session_counter = itertools.count(1)


def next_session_id() -> str:
    """Monotonic process-local session id (``sess-000001``, ...)."""
    return f"sess-{next(_session_counter):06d}"


@dataclass
class Session:
    """One gateway connection."""

    transport: str                      # "unix" | "tcp"
    session_id: str = field(default_factory=next_session_id)
    closed: bool = False
