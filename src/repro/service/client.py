"""Blocking line-JSON client of the conversion service.

:class:`ServiceClient` is what the ``repro submit``/``status``/
``cancel`` subcommands use; it speaks either transport (unix socket or
TCP), retries its initial connect with bounded backoff, and long-polls
``wait`` so thousands of waiters do not hammer the daemon.  It imports
nothing but the wire protocol, so a client verb starts without numpy
or the converter stack.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any

from ..errors import JobNotFoundError, ServiceError, \
    ServiceOverloadedError
from . import protocol

#: Job states after which a ``wait`` long-poll loop stops.
_TERMINAL_STATES = ("done", "failed", "cancelled")


class ServiceClient:
    """Blocking line-JSON client for a :class:`GatewayServer`.

    Parameters
    ----------
    address:
        A unix socket path (``str``/``PathLike``) or a ``(host,
        port)`` tuple for TCP.
    timeout:
        Socket timeout for individual reads/writes.
    connect_retries:
        Extra connect attempts after the first one fails — a client
        racing a just-spawned ``repro serve`` retries with
        exponential backoff instead of failing hard on the
        bind race.
    connect_backoff:
        Base delay between connect attempts (doubles per retry,
        capped at 2 s).
    poll_interval:
        Default long-poll chunk for :meth:`wait`: each server-side
        wait holds at most this long before the client re-issues, so
        a waiter is never parked on an unbounded server read while
        the server never sees a busy-poll storm.
    """

    def __init__(self, address: str | os.PathLike[str] | tuple[str, int],
                 timeout: float | None = None,
                 connect_retries: int = 0,
                 connect_backoff: float = 0.05,
                 poll_interval: float = 5.0) -> None:
        if isinstance(address, tuple):
            self.address: Any = (str(address[0]), int(address[1]))
            self.socket_path = None
        else:
            self.address = os.fspath(address)
            self.socket_path = self.address
        self._timeout = timeout
        self.poll_interval = poll_interval
        self._sock = self._connect(connect_retries, connect_backoff)
        self._stream = self._sock.makefile("rwb")

    def _connect(self, retries: int, backoff: float) -> socket.socket:
        delay = backoff
        last_error: OSError | None = None
        for attempt in range(max(0, retries) + 1):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
            family = socket.AF_INET if self.socket_path is None \
                else socket.AF_UNIX
            sock = socket.socket(family, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            try:
                sock.connect(self.address)
                return sock
            except OSError as exc:
                sock.close()
                last_error = exc
        target = self.address if self.socket_path is not None \
            else "%s:%d" % self.address
        raise ServiceError(
            f"cannot reach service at {target}: {last_error}") \
            from None

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request; return the payload or raise on error.

        Server-initiated event frames (keepalive pings) interleaved
        before the response are skipped transparently.
        """
        protocol.write_message(self._stream, {"op": op, **fields})
        while True:
            response = protocol.read_message(self._stream)
            if response is None:
                raise ServiceError("service closed the connection")
            if not protocol.is_event(response):
                break
        if not response.get("ok"):
            error = response.get("error", "unspecified service error")
            code = response.get("code")
            if code == protocol.CODE_JOB_NOT_FOUND \
                    or "unknown job id" in error:
                raise JobNotFoundError(error)
            if code == protocol.CODE_OVERLOADED:
                raise ServiceOverloadedError(error)
            raise ServiceError(error)
        return response

    def submit(self, kind: str, params: dict[str, Any],
               priority: int = 0, timeout: float | None = None,
               max_retries: int = 0) -> dict[str, Any]:
        """Submit a job; returns its snapshot dict.

        Raises :class:`ServiceOverloadedError` when admission control
        refuses the job — retry later rather than resubmitting in a
        tight loop.
        """
        return self.request("submit", kind=kind, params=params,
                            priority=priority, timeout=timeout,
                            max_retries=max_retries)["job"]

    def status(self, job_id: str | None = None) -> Any:
        """Snapshot of one job, or of every job."""
        return self.request("status", job_id=job_id)["jobs"]

    def wait(self, job_id: str, timeout: float | None = None,
             poll_interval: float | None = None) -> dict[str, Any]:
        """Block until the job finishes; returns its final snapshot.

        Long-polls the daemon in ``poll_interval`` chunks: the server
        holds each request until the job is terminal or the chunk
        elapses, so the client neither busy-polls nor parks on one
        unbounded read.  With *timeout*, returns the latest snapshot
        (possibly non-terminal) once the deadline passes.
        """
        poll = self.poll_interval if poll_interval is None \
            else poll_interval
        if self._timeout is not None:
            poll = min(poll, max(0.05, self._timeout / 2))
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            chunk = poll if deadline is None else \
                max(0.0, min(poll, deadline - time.monotonic()))
            job = self.request("wait", job_id=job_id,
                               timeout=chunk)["job"]
            if job["state"] in _TERMINAL_STATES:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                return job

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``False`` if the job already ended."""
        return self.request("cancel", job_id=job_id)["cancelled"]

    def trace(self, job_id: str) -> list[dict[str, Any]]:
        """Span dicts recorded for one job."""
        return self.request("trace", job_id=job_id)["spans"]

    def metrics(self) -> dict[str, Any]:
        """The service metrics snapshot."""
        return self.request("metrics")["metrics"]

    def ping(self) -> bool:
        """Liveness check."""
        return bool(self.request("ping").get("pong"))

    def shutdown(self) -> None:
        """Ask the daemon to stop."""
        self.request("shutdown")

    def close(self) -> None:
        """Close the connection."""
        self._stream.close()
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
