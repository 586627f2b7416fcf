"""The async gateway: asyncio front door for the conversion service.

One :class:`GatewayServer` serves every client connection — over the
local unix socket, over TCP (``--listen HOST:PORT``), or both — on the
scheduler's event loop (:attr:`WorkerPool.loop`), the one the job
attempts run on; the gateway starts no thread and no loop of its own.
Ingest (frame reading), dispatch (op handling) and processing (body
workers) never block each other.

Each connection is one handler over asyncio's ``StreamReader`` and
``StreamWriter``, the listeners' buffers capped at
:data:`protocol.MAX_LINE`:

* it reads frames with :func:`protocol.read_frame` through one pending
  read, never cancelled while the connection lives; every
  :data:`KEEPALIVE_SECONDS` without a frame it sends a
  ``{"event": "ping"}`` keepalive (always on);
* it runs each frame through :class:`~.dispatch.Dispatcher` as a task
  and stops reading while :data:`MAX_INFLIGHT_PER_CONN` of them are
  open — backpressure instead of buffering;
* it writes the responses in request order, each within
  :data:`WRITE_TIMEOUT_SECONDS`: a peer that stops reading is
  disconnected instead of wedging the connection.

:meth:`GatewayServer.stop` drains gracefully: stop accepting, refuse
new submits, finish in-flight ops and jobs (within
:data:`DRAIN_TIMEOUT_SECONDS`), then close.

Gateway state is surfaced through the shared
:class:`~repro.runtime.metrics.ServiceMetrics` (``gateway_*``
counters/gauges/timers) and per-request ``gateway.<op>`` tracing
spans.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import itertools
import os
import threading
from functools import partial
from typing import Any

from ...errors import JobNotFoundError, ServiceError
from .. import protocol
from .dispatch import Dispatcher

#: Ops run at once per connection before its handler stops reading.
MAX_INFLIGHT_PER_CONN = 32
#: Seconds without a frame after which a connection gets a keepalive.
KEEPALIVE_SECONDS = 15.0
#: Deadline of one response's write; a peer that misses it is dropped.
WRITE_TIMEOUT_SECONDS = 30.0
#: Bound on waiting for in-flight ops and jobs in a graceful drain.
DRAIN_TIMEOUT_SECONDS = 10.0

#: Queue sentinel closing a connection's write loop.
_CLOSE = object()
_session_ids = itertools.count(1)


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
    max_pending_jobs:
        Queued jobs at which a submit is refused with an explicit
        ``overloaded`` error; ``None`` = no bound.
    """

    def __init__(self, service: Any,
                 unix_path: str | os.PathLike[str] | None = None,
                 tcp_address: tuple[str, int] | None = None,
                 max_pending_jobs: int | None = 1024) -> None:
        if unix_path is None and tcp_address is None:
            raise ServiceError(
                "gateway needs a unix socket path and/or a TCP "
                "address to listen on")
        self.service = service
        self.unix_path = None if unix_path is None else os.fspath(unix_path)
        self._tcp_requested = tcp_address
        self.tcp_address: tuple[str, int] | None = None
        self.metrics = service.metrics
        self.metrics.set_gauge("gateway_draining", 0)
        self.dispatcher = Dispatcher(service, max_pending_jobs)

        self._loop: asyncio.AbstractEventLoop | None = None
        self._finished = threading.Event()
        self._stop_lock = threading.Lock()
        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight_ops: set[asyncio.Task] = set()
        #: Each open connection's response queue, by session id.
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
        in-flight ops and jobs (bounded by :data:`DRAIN_TIMEOUT_SECONDS`),
        close the listeners (unlinking the socket file), then close the
        service.

        Idempotent (a second caller waits for the first) and callable
        from any thread except the event-loop thread itself
        (:meth:`request_stop` hops to a fresh one).
        """
        with self._stop_lock:
            if self._finished.is_set():
                return
            self.dispatcher.draining = True
            self.metrics.set_gauge("gateway_draining", 1)
            try:
                if self._loop is not None:
                    drain = asyncio.run_coroutine_threadsafe(
                        self._shutdown(), self._loop)
                    with contextlib.suppress(
                            concurrent.futures.TimeoutError):
                        drain.result(DRAIN_TIMEOUT_SECONDS + 5)
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
                    path=self.unix_path, backlog=512,
                    limit=protocol.MAX_LINE)
                self._servers.append(server)
            if self._tcp_requested is not None:
                host, port = self._tcp_requested
                server = await asyncio.start_server(
                    partial(self._accept, transport="tcp"), host=host,
                    port=port, backlog=512, limit=protocol.MAX_LINE)
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
        session_id = f"sess-{next(_session_ids):06d}"
        responses: asyncio.Queue = asyncio.Queue()
        self.sessions[session_id] = responses
        self.metrics.inc("gateway_connections_total")
        self.metrics.set_gauge("gateway_connections_open",
                               len(self.sessions))
        inflight = asyncio.Semaphore(MAX_INFLIGHT_PER_CONN)
        writing = asyncio.ensure_future(self._write_loop(writer, responses))
        read = None
        try:
            # The connection is closed once its writer has stopped.
            while not writing.done():
                # One read spans keepalive intervals: it is never
                # cancelled in the middle of a line.
                if read is None:
                    read = asyncio.ensure_future(protocol.read_frame(reader))
                done, _ = await asyncio.wait(
                    {read, writing}, timeout=KEEPALIVE_SECONDS,
                    return_when=asyncio.FIRST_COMPLETED)
                if read not in done:
                    if not done:
                        self.metrics.inc("gateway_keepalive_pings")
                        responses.put_nowait(protocol.event("ping"))
                    continue
                finished, read = read, None
                try:
                    frame = finished.result()
                except protocol.FrameError as exc:
                    self.metrics.inc("gateway_bad_frames")
                    responses.put_nowait(
                        protocol.bad_frame_response(str(exc)))
                    continue
                except (ConnectionError, OSError):
                    return
                if frame is None:                    # clean EOF
                    return
                await inflight.acquire()
                op = asyncio.ensure_future(self._run_op(
                    frame, inflight, session_id, transport))
                self._inflight_ops.add(op)
                self.metrics.set_gauge("gateway_inflight_ops",
                                       len(self._inflight_ops))
                op.add_done_callback(self._op_done)
                responses.put_nowait(op)
        finally:
            if read is not None:
                read.cancel()
            responses.put_nowait(_CLOSE)
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writing, WRITE_TIMEOUT_SECONDS * 2)
            writing.cancel()
            self.sessions.pop(session_id, None)
            self.metrics.set_gauge("gateway_connections_open",
                                   len(self.sessions))
            with contextlib.suppress(Exception):
                writer.close()

    def _op_done(self, task: asyncio.Task) -> None:
        self._inflight_ops.discard(task)
        self.metrics.set_gauge("gateway_inflight_ops",
                               len(self._inflight_ops))

    async def _run_op(self, frame: dict[str, Any],
                      inflight: asyncio.Semaphore, session_id: str,
                      transport: str) -> dict[str, Any]:
        try:
            return await self.dispatcher.dispatch(frame, session_id,
                                                  transport)
        finally:
            inflight.release()

    async def _write_loop(self, writer: asyncio.StreamWriter,
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
                                       WRITE_TIMEOUT_SECONDS)
                if response.get("ok") and response.get("stopping"):
                    self.request_stop()
                    return
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    # -- graceful drain ---------------------------------------------

    async def _shutdown(self) -> None:
        timeout = DRAIN_TIMEOUT_SECONDS
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
