"""Op dispatch: protocol requests -> :class:`ConversionService` calls.

Two entry points share one op switch:

* :meth:`Dispatcher.handle_message` — the synchronous dispatch, for
  in-process callers and, via ``run_in_executor``, for the async path's
  ops that touch service locks.  It never raises; service errors
  become failure envelopes.
* :meth:`Dispatcher.dispatch` — the async path the gateway sessions
  call.  Quick ops answer inline; blocking ops run on a dedicated
  executor so the event loop never stalls; ``wait`` parks on one
  :class:`asyncio.Event` that the scheduler sets the moment the job's
  terminal record is journaled (completion notification: no polling,
  no thread per waiter); ``submit`` passes through admission control
  first and is refused with an explicit ``overloaded`` error at the
  limit.

Every async request is wrapped in a ``gateway.<op>`` tracing span
(free when tracing is disabled) and timed into the
``gateway_request_seconds`` metric; ``gateway_wait_wake_seconds``
times a job's ``finished_at`` to the moment its parked ``wait``
answers.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ...errors import FaultInjectedError, JobNotFoundError, ReproError
from ...runtime import faults
from ...runtime.metrics import ServiceMetrics
from ...runtime.tracing import get_tracer
from .. import protocol
from .admission import AdmissionController
from .session import Session


class Dispatcher:
    """Routes protocol ops to a service behind admission control.

    Parameters
    ----------
    service:
        A :class:`~repro.service.server.ConversionService` (or any
        object with its ``submit/status/wait/cancel/trace/
        metrics_snapshot`` surface plus a ``pool`` attribute).
    admission:
        The gateway's :class:`AdmissionController`.
    executor_threads:
        Size of the dispatch thread pool backing ``run_in_executor``.
    """

    def __init__(self, service: Any, admission: AdmissionController,
                 executor_threads: int = 8) -> None:
        self.service = service
        self.admission = admission
        self.metrics: ServiceMetrics = service.metrics
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads,
            thread_name_prefix="repro-gateway-dispatch")

    def close(self) -> None:
        """Release the dispatch thread pool."""
        self._executor.shutdown(wait=False)

    # -- async path (gateway sessions) ------------------------------

    async def dispatch(self, session: Session,
                       message: dict[str, Any]) -> dict[str, Any]:
        """Handle one request frame; never raises."""
        op = message.get("op")
        self.metrics.inc("gateway_requests_total")
        with self.metrics.timed("gateway_request_seconds"), \
                get_tracer().span(
                    f"gateway.{op or 'unknown'}", "gateway",
                    args={"session": session.session_id,
                          "transport": session.transport}):
            try:
                faults.fire("gateway.dispatch")
                return await self._dispatch_op(op, message)
            except FaultInjectedError as exc:
                # Structured surface for armed faults: the client gets
                # a machine-readable code, the session stays alive.
                return protocol.error_response(
                    str(exc), code=protocol.CODE_FAULT_INJECTED)
            except Exception as exc:  # noqa: BLE001 — session survives
                return protocol.error_response(
                    f"internal error handling {op!r}: "
                    f"{type(exc).__name__}: {exc}")

    async def _dispatch_op(self, op: str | None,
                           message: dict[str, Any]) -> dict[str, Any]:
        if op == "ping":
            return protocol.ok_response(pong=True)
        if op == "wait":
            return await self._wait(message)
        if op == "submit":
            refusal = self.admission.try_admit()
            if refusal is not None:
                return protocol.overloaded_response(refusal)
            try:
                return await self._in_executor(message)
            finally:
                self.admission.release()
        return await self._in_executor(message)

    async def _in_executor(self,
                           message: dict[str, Any]) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.handle_message, message)

    async def _wait(self, message: dict[str, Any]) -> dict[str, Any]:
        """Server-side long poll: resolve on the event loop, cheaply.

        Holds the request until the job is terminal or *timeout*
        elapses, then returns the snapshot either way (mirroring
        ``ConversionService.wait``).  No executor thread is parked —
        the waiter is one event, set by the scheduler's completion
        callback; an already-terminal job answers at once.
        """
        try:
            job_id = message["job_id"]
        except KeyError:
            return protocol.error_response(
                "request is missing field 'job_id'",
                code=protocol.CODE_BAD_REQUEST)
        timeout = message.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
        loop = asyncio.get_running_loop()
        finished = asyncio.Event()

        def wake() -> None:
            # Worker thread.  A loop a drain already closed has nobody
            # left to tell.
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(finished.set)

        try:
            job, parked = self.service.pool.watch(job_id, wake)
        except JobNotFoundError as exc:
            return protocol.error_response(
                str(exc), code=protocol.CODE_JOB_NOT_FOUND)
        if parked:
            try:
                await asyncio.wait_for(finished.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            finally:        # timeout, session close and drain alike
                self.service.pool.unwatch(job, wake)
            if job.state.terminal:
                self.metrics.observe("gateway_wait_wake_seconds",
                                     time.time() - job.finished_at)
        return protocol.ok_response(job=job.to_dict())

    # -- sync path (compat + executor target) -----------------------

    def handle_message(self,
                       message: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one protocol request synchronously; never raises.

        ``wait`` blocks the calling thread; ``shutdown`` only answers
        ``stopping`` — whoever owns the listeners acts on it.
        """
        op = message.get("op")
        try:
            if op == "ping":
                return protocol.ok_response(pong=True)
            if op == "submit":
                job = self.service.submit(
                    kind=message.get("kind", "convert"),
                    params=message.get("params", {}),
                    priority=int(message.get("priority", 0)),
                    timeout=message.get("timeout"),
                    max_retries=int(message.get("max_retries", 0)),
                    backoff=float(message.get("backoff", 0.1)))
                return protocol.ok_response(job=job.to_dict())
            if op == "status":
                return protocol.ok_response(
                    jobs=self.service.status(message.get("job_id")))
            if op == "wait":
                return protocol.ok_response(job=self.service.wait(
                    message["job_id"], message.get("timeout")))
            if op == "cancel":
                return protocol.ok_response(
                    cancelled=self.service.cancel(message["job_id"]))
            if op == "trace":
                return protocol.ok_response(
                    spans=self.service.trace(message["job_id"]))
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
        except KeyError as exc:
            return protocol.error_response(
                f"request is missing field {exc.args[0]!r}",
                code=protocol.CODE_BAD_REQUEST)
        except JobNotFoundError as exc:
            return protocol.error_response(
                str(exc), code=protocol.CODE_JOB_NOT_FOUND)
        except FaultInjectedError as exc:
            return protocol.error_response(
                str(exc), code=protocol.CODE_FAULT_INJECTED)
        except ReproError as exc:
            return protocol.error_response(str(exc))
