"""Line-JSON wire protocol between ``repro serve`` and its clients.

One request or response per line: a UTF-8 JSON object terminated by
``\\n``.  Requests carry an ``op`` field (``submit``, ``status``,
``cancel``, ``metrics``, ``wait``, ``trace``, ``ping``,
``shutdown``); responses
carry ``ok`` (bool) plus either the op-specific payload or an
``error`` string.  The framing is deliberately trivial so any language
— or ``nc`` in a pinch — can drive the daemon.

Failure responses may additionally carry a machine-readable ``code``
(``bad_frame``, ``overloaded``, ``job_not_found``, ...) so clients can
react without parsing the human-readable ``error`` text.  The server
may also interleave *event* frames — ``{"event": "ping"}`` keepalives
— between responses; request/response clients must skip any frame
that has an ``event`` field and no ``ok`` field.

The same framing runs over the local unix socket and over TCP
(``repro serve --listen HOST:PORT``); :func:`parse_address` parses the
``HOST:PORT`` notation used by the CLI flags.  :func:`read_message`
is the blocking reader, :func:`read_frame` the asyncio one: a
malformed or oversized line costs a ``bad_frame`` error for that line
only, and the next line reads as usual.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO

from ..errors import ProtocolError

#: Operations the daemon understands.
OPS = ("submit", "status", "cancel", "metrics", "wait", "trace",
       "ping", "shutdown")

#: Hard cap on one protocol line; a submit request is far smaller.
MAX_LINE = 1 << 20

#: Machine-readable error codes carried in failure responses.
CODE_BAD_FRAME = "bad_frame"
CODE_OVERLOADED = "overloaded"
CODE_JOB_NOT_FOUND = "job_not_found"
CODE_BAD_REQUEST = "bad_request"
CODE_UNKNOWN_OP = "unknown_op"
#: An armed REPRO_FAULTS injection point fired while handling the
#: request; the session stays alive and the client may retry.
CODE_FAULT_INJECTED = "fault_injected"


def encode(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to a newline-terminated line."""
    try:
        return json.dumps(message, separators=(",", ":"),
                          allow_nan=False).encode("utf-8") + b"\n"
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message: {exc}") from None


def decode(line: bytes) -> dict[str, Any]:
    """Parse one protocol line into a message dict."""
    if len(line) > MAX_LINE:
        raise ProtocolError(f"protocol line exceeds {MAX_LINE} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol message must be a JSON object, got "
            f"{type(message).__name__}")
    return message


class FrameError(Exception):
    """One frame was oversized or malformed; the stream is still
    synchronized and the next :func:`read_frame` reads the line after
    it."""


async def read_frame(reader) -> dict[str, Any] | None:
    """One message from an :class:`asyncio.StreamReader` opened with
    ``limit=MAX_LINE``; ``None`` on clean EOF.  A partial last line
    decodes if it is valid JSON.  A line longer than the reader's limit
    is dropped through its newline and, like a malformed one, raises
    :class:`FrameError`; cancelling the read while it drops such a line
    would leave the line's tail to be read as a frame of its own."""
    import asyncio      # here: a blocking client never loads it
    dropped = 0
    while True:
        try:
            line = (await reader.readuntil(b"\n"))[:-1]
            break
        except asyncio.IncompleteReadError as exc:          # EOF
            if not exc.partial and not dropped:
                return None
            line = exc.partial
            break
        except asyncio.LimitOverrunError as exc:            # oversized
            await reader.readexactly(exc.consumed)
            dropped += exc.consumed
    if dropped:
        raise FrameError(f"frame of {dropped + len(line)} bytes exceeds "
                         f"the line cap")
    try:
        return decode(line)
    except ProtocolError as exc:
        raise FrameError(str(exc)) from None


def read_message(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one message from a socket file; ``None`` on clean EOF."""
    line = stream.readline(MAX_LINE + 1)
    if not line:
        return None
    return decode(line)


def write_message(stream: BinaryIO, message: dict[str, Any]) -> None:
    """Write one message to a socket file and flush it."""
    stream.write(encode(message))
    stream.flush()


def error_response(message: str,
                   code: str | None = None) -> dict[str, Any]:
    """Standard failure envelope, optionally with a machine code."""
    response: dict[str, Any] = {"ok": False, "error": message}
    if code is not None:
        response["code"] = code
    return response


def ok_response(**payload: Any) -> dict[str, Any]:
    """Standard success envelope."""
    return {"ok": True, **payload}


def bad_frame_response(detail: str) -> dict[str, Any]:
    """Failure envelope for an unparseable or oversized frame.

    The session stays alive after sending this — one garbage line must
    not kill a connection that may have valid requests pipelined
    behind it.
    """
    return error_response(f"bad_frame: {detail}", code=CODE_BAD_FRAME)


def overloaded_response(detail: str) -> dict[str, Any]:
    """Failure envelope for an op rejected by admission control."""
    return error_response(f"overloaded: {detail}", code=CODE_OVERLOADED)


def event(name: str, **payload: Any) -> dict[str, Any]:
    """A server-initiated event frame (e.g. a keepalive ping)."""
    return {"event": name, **payload}


def is_event(message: dict[str, Any]) -> bool:
    """Whether *message* is an event frame rather than a response."""
    return "event" in message and "ok" not in message


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (``[v6::addr]:PORT`` accepted) to a tuple.

    ``:PORT`` and ``PORT`` alone bind/connect on localhost.  Port 0 is
    allowed — the OS picks a free port (the daemon reports the bound
    one).
    """
    text = text.strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "", text
    host = host.strip("[]") or "127.0.0.1"
    try:
        port_num = int(port)
    except ValueError:
        raise ProtocolError(
            f"bad service address {text!r}; expected HOST:PORT") \
            from None
    if not 0 <= port_num <= 65535:
        raise ProtocolError(
            f"bad service address {text!r}: port {port_num} out of "
            f"range")
    return host, port_num
