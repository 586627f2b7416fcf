"""The async gateway: asyncio front door for the conversion service.

One :class:`GatewayServer` multiplexes every client connection —
over the local unix socket, over TCP (``--listen HOST:PORT``), or
both — onto the scheduler's event loop (:attr:`WorkerPool.loop`), the
one the job attempts run on; the gateway starts no thread and no loop
of its own.  The design follows the paper's decomposition discipline
applied to the service's front door: ingest (frame reading), dispatch
(op handling) and processing (body workers) never block each other.

* **Transport** — ``asyncio.start_server`` / ``start_unix_server``
  behind the shared line-JSON framing codec
  (:mod:`repro.service.gateway.framing`).
* **Session** — per-connection state (:mod:`.session`): keepalive
  ping events on idle and a ``max_inflight_per_conn`` bound enforced
  by *not reading* further frames — backpressure instead of
  buffering.  Ops on one connection run concurrently but responses
  are written in request order.
* **Dispatch** — :class:`~.dispatch.Dispatcher` routes ops; each
  answers inline on the loop except ``wait``, which parks until its
  job finishes.
* **Admission** — :class:`~.admission.AdmissionController` bounds
  pending jobs and turns overload into explicit ``overloaded``
  responses.  :meth:`GatewayServer.stop` drains gracefully: stop
  accepting, refuse new submits, finish in-flight ops and jobs, then
  close.

Gateway state is surfaced through the shared
:class:`~repro.runtime.metrics.ServiceMetrics` (``gateway_*``
counters/gauges/timers) and per-request ``gateway.<op>`` tracing
spans.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Any

from ...errors import JobNotFoundError, ServiceError
from .. import protocol
from .admission import AdmissionController
from .dispatch import Dispatcher
from .framing import FrameError, FrameReader
from .session import Session

#: Queue sentinel closing a session's write loop.
_CLOSE = object()


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of the gateway front door.

    Attributes
    ----------
    max_inflight_per_conn:
        Ops processed concurrently per connection before the session
        stops reading further frames (pipelining bound).
    max_pending_jobs:
        Admission bound on pending jobs; ``None`` = unbounded.
    keepalive_interval:
        Seconds of read idleness before the session emits a
        ``{"event": "ping"}`` keepalive frame; ``None`` disables.
    write_timeout:
        Per-response write/drain deadline; a peer that stops reading
        is disconnected instead of wedging the session.
    drain_timeout:
        Upper bound on waiting for in-flight ops and jobs during
        graceful shutdown.
    """

    max_inflight_per_conn: int = 32
    max_pending_jobs: int | None = 1024
    keepalive_interval: float | None = 15.0
    write_timeout: float = 30.0
    drain_timeout: float = 10.0


class GatewayServer:
    """Asyncio gateway serving a :class:`ConversionService` over unix
    socket and/or TCP.

    Parameters
    ----------
    service:
        The service façade ops are routed to; its ``pool.loop`` serves
        the connections.
    unix_path:
        Unix socket path to listen on (``None`` = no unix listener).
    tcp_address:
        ``(host, port)`` to listen on (``None`` = no TCP listener).
        Port 0 binds an ephemeral port; read it back from
        :attr:`tcp_address` after :meth:`start`.
    config:
        :class:`GatewayConfig` tunables.
    """

    def __init__(self, service: Any,
                 unix_path: str | os.PathLike[str] | None = None,
                 tcp_address: tuple[str, int] | None = None,
                 config: GatewayConfig | None = None) -> None:
        if unix_path is None and tcp_address is None:
            raise ServiceError(
                "gateway needs a unix socket path and/or a TCP "
                "address to listen on")
        self.service = service
        self.config = config if config is not None else GatewayConfig()
        self.unix_path = None if unix_path is None else os.fspath(unix_path)
        self._tcp_requested = tcp_address
        self.tcp_address: tuple[str, int] | None = None
        self.metrics = service.metrics
        self.admission = AdmissionController(
            self.config.max_pending_jobs,
            service.pool.queued_count, self.metrics)
        self.dispatcher = Dispatcher(service, self.admission)

        self._loop: asyncio.AbstractEventLoop | None = None
        self._finished = threading.Event()
        self._stop_lock = threading.Lock()
        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight_ops: set[asyncio.Task] = set()
        #: Each open session's response queue, by session id.
        self.sessions: dict[str, asyncio.Queue] = {}

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Bind the listeners on the service's loop.

        Returns once every requested listener is bound (so an
        in-process client can connect immediately) or raises the
        startup error.
        """
        if self._loop is not None:
            raise ServiceError("gateway already started")
        loop = self.service.pool.loop
        try:
            asyncio.run_coroutine_threadsafe(self._listen(), loop).result()
        except OSError as exc:
            raise ServiceError(f"gateway failed to start: {exc}") from exc
        self._loop = loop

    def join(self) -> None:
        """Block until the gateway stopped and closed the service
        (KeyboardInterrupt-friendly: it waits on an Event in short
        slices, never in ``Thread.join``, which an interrupt can leave
        believing a live thread stopped — bpo-45274)."""
        while self._loop is not None and not self._finished.wait(0.2):
            pass

    def request_stop(self) -> None:
        """:meth:`stop` on a one-shot thread of its own: a ``shutdown``
        op must not block the event loop it is answered on."""
        threading.Thread(target=self.stop, name="repro-gateway-stop",
                         daemon=True).start()

    def stop(self) -> None:
        """Graceful drain: stop accepting, refuse new submits, finish
        in-flight ops and jobs (bounded by ``drain_timeout``), close
        the listeners (unlinking the socket file), then close the
        service.

        Idempotent (a second caller waits for the first) and callable
        from any thread except the event-loop thread itself
        (:meth:`request_stop` hops to a fresh one).
        """
        with self._stop_lock:
            if self._finished.is_set():
                return
            self.admission.start_draining()
            try:
                if self._loop is not None:
                    drain = asyncio.run_coroutine_threadsafe(
                        self._shutdown(), self._loop)
                    with contextlib.suppress(
                            concurrent.futures.TimeoutError):
                        drain.result(self.config.drain_timeout + 5)
                self.service.close()
            finally:
                self._finished.set()

    # -- event loop body --------------------------------------------

    async def _listen(self) -> None:
        try:
            if self.unix_path is not None:
                if os.path.exists(self.unix_path):
                    os.unlink(self.unix_path)
                server = await asyncio.start_unix_server(
                    partial(self._accept, transport="unix"),
                    path=self.unix_path, backlog=512)
                self._servers.append(server)
            if self._tcp_requested is not None:
                host, port = self._tcp_requested
                server = await asyncio.start_server(
                    partial(self._accept, transport="tcp"), host=host,
                    port=port, backlog=512)
                self._servers.append(server)
                bound = server.sockets[0].getsockname()
                self.tcp_address = (bound[0], bound[1])
        except OSError:
            for server in self._servers:
                server.close()
            raise

    def _accept(self, reader, writer, transport: str) -> None:
        task = asyncio.ensure_future(
            self._serve_connection(reader, writer, transport))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    # -- one connection ---------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                transport: str) -> None:
        session = Session(transport)
        responses: asyncio.Queue = asyncio.Queue()
        self.sessions[session.session_id] = responses
        self.metrics.inc("gateway_connections_total")
        self.metrics.set_gauge("gateway_connections_open",
                               len(self.sessions))
        frames = FrameReader(reader)
        inflight = asyncio.Semaphore(self.config.max_inflight_per_conn)
        write_task = asyncio.ensure_future(
            self._write_loop(session, writer, responses))
        try:
            await self._read_loop(session, frames, responses, inflight)
        finally:
            await responses.put(_CLOSE)
            with contextlib.suppress(Exception):
                await asyncio.wait_for(
                    write_task, self.config.write_timeout * 2)
            write_task.cancel()
            session.closed = True
            self.sessions.pop(session.session_id, None)
            self.metrics.set_gauge("gateway_connections_open",
                                   len(self.sessions))
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_loop(self, session: Session, frames: FrameReader,
                         responses: asyncio.Queue,
                         inflight: asyncio.Semaphore) -> None:
        while not session.closed:
            try:
                frame = await asyncio.wait_for(
                    frames.read_frame(), self.config.keepalive_interval)
            except asyncio.TimeoutError:
                self.metrics.inc("gateway_keepalive_pings")
                await responses.put(protocol.event("ping"))
                continue
            except FrameError as exc:
                self.metrics.inc("gateway_bad_frames")
                await responses.put(
                    protocol.bad_frame_response(str(exc)))
                continue
            except (ConnectionError, OSError):
                return
            if frame is None:                    # clean EOF
                return
            await inflight.acquire()
            task = asyncio.ensure_future(
                self._run_op(session, frame, inflight))
            self._inflight_ops.add(task)
            self.metrics.set_gauge("gateway_inflight_ops",
                                   len(self._inflight_ops))
            task.add_done_callback(self._op_done)
            await responses.put(task)

    def _op_done(self, task: asyncio.Task) -> None:
        self._inflight_ops.discard(task)
        self.metrics.set_gauge("gateway_inflight_ops",
                               len(self._inflight_ops))

    async def _run_op(self, session: Session, frame: dict[str, Any],
                      inflight: asyncio.Semaphore) -> dict[str, Any]:
        try:
            return await self.dispatcher.dispatch(session, frame)
        finally:
            inflight.release()

    async def _write_loop(self, session: Session,
                          writer: asyncio.StreamWriter,
                          responses: asyncio.Queue) -> None:
        try:
            while True:
                item = await responses.get()
                if item is _CLOSE:
                    return
                if isinstance(item, asyncio.Task):
                    try:
                        response = await item
                    except asyncio.CancelledError:
                        return
                else:
                    response = item
                writer.write(protocol.encode(response))
                await asyncio.wait_for(writer.drain(),
                                       self.config.write_timeout)
                if response.get("ok") and response.get("stopping"):
                    self.request_stop()
                    return
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return
        finally:
            session.closed = True
            with contextlib.suppress(Exception):
                writer.close()

    # -- graceful drain ---------------------------------------------

    async def _shutdown(self) -> None:
        timeout = self.config.drain_timeout
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        # Let dispatched ops finish, then cancel what is still open
        # (e.g. indefinite long-poll waits).
        if self._inflight_ops:
            await asyncio.wait(set(self._inflight_ops),
                               timeout=timeout)
        for task in list(self._inflight_ops):
            task.cancel()
        # Finish in-flight jobs: every job already admitted to the
        # pool runs to a terminal state (bounded by the drain budget).
        end = asyncio.get_running_loop().time() + timeout
        for job in self.service.pool.jobs():
            with contextlib.suppress(JobNotFoundError):     # forgotten
                await self.dispatcher.finished(
                    job.job_id,
                    max(0.0, end - asyncio.get_running_loop().time()))
        for queue in list(self.sessions.values()):
            queue.put_nowait(_CLOSE)
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=5)
        for task in list(self._conn_tasks):
            task.cancel()
        if self.unix_path and os.path.exists(self.unix_path):
            with contextlib.suppress(OSError):
                os.unlink(self.unix_path)
