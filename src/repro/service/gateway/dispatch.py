"""Op dispatch: protocol requests -> :class:`ConversionService` calls.

The gateway's connection handler calls :meth:`Dispatcher.dispatch` on
the scheduler's event loop, the one the job attempts run on.  Every op
but ``wait`` answers inline, through the synchronous op switch
:meth:`Dispatcher.handle_message`, which never raises (service errors
become failure envelopes): none of them blocks for longer than the
scheduler lock and, for ``submit``, one journal append, which is less
than a hop to a thread and back costs.  Submits take turns, one per
pass of the loop, so a burst of them holds a ``ping``, a woken
``wait`` or a new connection for one submit, not for all of them.
Admission is decided at the turn, where the pool's queued count is
exact: a submit is refused with an explicit ``overloaded`` error while
the gateway drains or when ``max_pending_jobs`` jobs are queued.  A
refused submit still waits for the turns ahead of it.  ``wait`` parks
on one future that the loop resolves once the job's terminal record
is journaled (completion notification: no polling, no thread per
waiter).

A request field of the wrong type is a ``bad_request`` naming the
field, checked here where the request is decoded (:func:`_field`).

Every async request is wrapped in a ``gateway.<op>`` tracing span
(free when tracing is disabled) and timed into the
``gateway_request_seconds`` metric; ``gateway_wait_wake_seconds``
times a job's ``finished_at`` to the moment its parked ``wait``
answers.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from typing import Any

from ...errors import FaultInjectedError, JobNotFoundError, \
    ProtocolError, ReproError
from ...runtime import faults
from ...runtime.metrics import ServiceMetrics
from ...runtime.tracing import get_tracer
from .. import protocol

#: What a request field may hold, by the words its error names it with.
_KINDS: dict[str, type | tuple[type, ...]] = {
    "an integer": int,
    "a number": (int, float),
    "a number or null": (int, float, type(None)),
    "a string": str,
    "a string or null": (str, type(None)),
    "an object": dict,
}
_REQUIRED = object()


def _field(message: dict[str, Any], name: str, kind: str,
           default: Any = _REQUIRED) -> Any:
    """Field *name* of a request (*default* when absent; ``KeyError``
    when required), refused with :class:`ProtocolError` unless it is
    *kind*: JSON ``true`` is no number, and a number is finite."""
    value = message[name] if default is _REQUIRED \
        else message.get(name, default)
    if isinstance(value, _KINDS[kind]) and not isinstance(value, bool) \
            and not (isinstance(value, float) and not math.isfinite(value)):
        return value
    raise ProtocolError(f"field {name!r} must be {kind}, got {value!r:.60}")


def _bad_request(exc: KeyError | ProtocolError) -> dict[str, Any]:
    detail = f"request is missing field {exc.args[0]!r}" \
        if isinstance(exc, KeyError) else str(exc)
    return protocol.error_response(detail, code=protocol.CODE_BAD_REQUEST)


class Dispatcher:
    """Routes protocol ops to a service, refusing submits it cannot
    take.

    Parameters
    ----------
    service:
        A :class:`~repro.service.server.ConversionService` (or any
        object with its ``submit/status/wait/cancel/trace/
        metrics_snapshot`` surface plus a ``pool`` attribute).
    max_pending_jobs:
        Queued jobs at which a submit is refused; ``None`` = no bound.
    """

    def __init__(self, service: Any,
                 max_pending_jobs: int | None = None) -> None:
        self.service = service
        self.max_pending_jobs = max_pending_jobs
        self.metrics: ServiceMetrics = service.metrics
        #: Set once the gateway drains for shutdown: submits are refused.
        self.draining = False
        self._submit_turn = asyncio.Lock()

    # -- async path (gateway connections) ----------------------------

    async def dispatch(self, message: dict[str, Any], session_id: str,
                       transport: str) -> dict[str, Any]:
        """Handle one request frame of connection *session_id*; never
        raises."""
        op = message.get("op")
        self.metrics.inc("gateway_requests_total")
        with self.metrics.timed("gateway_request_seconds"), \
                get_tracer().span(
                    f"gateway.{op or 'unknown'}", "gateway",
                    args={"session": session_id, "transport": transport}):
            try:
                faults.fire("gateway.dispatch")
                if op == "wait":
                    return await self._wait(message)
                if op != "submit":
                    return self.handle_message(message)
                # One submit per pass of the loop: the I/O that became
                # ready meanwhile is served in between.
                async with self._submit_turn:
                    await asyncio.sleep(0)
                    refusal = self._refusal()
                    if refusal is not None:
                        self.metrics.inc("gateway_rejected_overloaded")
                        return protocol.overloaded_response(refusal)
                    return self.handle_message(message)
            except FaultInjectedError as exc:
                # Structured surface for armed faults: the client gets
                # a machine-readable code, the session stays alive.
                return protocol.error_response(
                    str(exc), code=protocol.CODE_FAULT_INJECTED)
            except Exception as exc:  # noqa: BLE001 — session survives
                return protocol.error_response(
                    f"internal error handling {op!r}: "
                    f"{type(exc).__name__}: {exc}")

    def _refusal(self) -> str | None:
        """Why a submit cannot be taken now, or ``None``."""
        if self.draining:
            return "service is draining for shutdown; not accepting new jobs"
        queued = self.service.pool.queued_count()
        if self.max_pending_jobs is not None \
                and queued >= self.max_pending_jobs:
            return (f"{queued} jobs pending >= limit "
                    f"{self.max_pending_jobs}; retry later")
        return None

    async def _wait(self, message: dict[str, Any]) -> dict[str, Any]:
        """Server-side long poll: holds the request until the job is
        terminal or *timeout* elapses, then returns the snapshot either
        way (mirroring ``ConversionService.wait``)."""
        try:
            job_id = _field(message, "job_id", "a string")
            timeout = _field(message, "timeout", "a number or null", None)
            job, parked = await self.finished(job_id, timeout)
        except (KeyError, ProtocolError) as exc:
            return _bad_request(exc)
        except JobNotFoundError as exc:
            return protocol.error_response(
                str(exc), code=protocol.CODE_JOB_NOT_FOUND)
        if parked and job.state.terminal:
            self.metrics.observe("gateway_wait_wake_seconds",
                                 time.time() - job.finished_at)
        return protocol.ok_response(job=job.to_dict())

    async def finished(self, job_id: str,
                       timeout: float | None) -> tuple[Any, bool]:
        """The job once it is terminal or *timeout* elapsed, and whether
        it had to be waited for.  No thread is parked — the waiter is
        one future, which the scheduler's completion callback resolves
        on the loop; an already-terminal job answers at once."""
        finished = asyncio.get_running_loop().create_future()

        def wake() -> None:
            # A loop a drain already closed has nobody left to tell.
            if not finished.done():
                with contextlib.suppress(RuntimeError):
                    finished.set_result(None)

        job, parked = self.service.pool.watch(job_id, wake)
        if parked:
            try:
                await asyncio.wait_for(finished, timeout)
            except asyncio.TimeoutError:
                pass
            finally:        # timeout, session close and drain alike
                self.service.pool.unwatch(job, wake)
        return job, parked

    # -- sync path (every op but wait) -------------------------------

    def handle_message(self,
                       message: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one protocol request but ``wait`` synchronously;
        never raises.  ``shutdown`` only answers ``stopping`` — whoever
        owns the listeners acts on it.
        """
        op = message.get("op")
        try:
            if op == "ping":
                return protocol.ok_response(pong=True)
            if op == "submit":
                job = self.service.submit(
                    kind=_field(message, "kind", "a string", "convert"),
                    params=_field(message, "params", "an object", {}),
                    priority=_field(message, "priority", "an integer", 0),
                    timeout=_field(message, "timeout", "a number or null",
                                   None),
                    max_retries=_field(message, "max_retries",
                                       "an integer", 0),
                    backoff=_field(message, "backoff", "a number", 0.1))
                return protocol.ok_response(job=job.to_dict())
            if op == "status":
                return protocol.ok_response(jobs=self.service.status(
                    _field(message, "job_id", "a string or null", None)))
            if op == "cancel":
                return protocol.ok_response(cancelled=self.service.cancel(
                    _field(message, "job_id", "a string")))
            if op == "trace":
                return protocol.ok_response(spans=self.service.trace(
                    _field(message, "job_id", "a string")))
            if op == "metrics":
                return protocol.ok_response(
                    metrics=self.service.metrics_snapshot())
            if op == "shutdown":
                # The session writes this response first, then stops
                # the gateway — see its write loop.
                return protocol.ok_response(stopping=True)
            return protocol.error_response(
                f"unknown op {op!r}; choose from {protocol.OPS}",
                code=protocol.CODE_UNKNOWN_OP)
        except (KeyError, ProtocolError) as exc:
            return _bad_request(exc)
        except JobNotFoundError as exc:
            return protocol.error_response(
                str(exc), code=protocol.CODE_JOB_NOT_FOUND)
        except FaultInjectedError as exc:
            return protocol.error_response(
                str(exc), code=protocol.CODE_FAULT_INJECTED)
        except ReproError as exc:
            return protocol.error_response(str(exc))
