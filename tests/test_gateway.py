"""Tests for the async gateway subsystem: framing robustness, TCP +
unix transports, admission control (explicit ``overloaded`` errors),
long-poll ``wait``, keepalive pings, connect retry, graceful drain,
and the ≥200-concurrent-submitter stress acceptance test."""

from __future__ import annotations

import asyncio
import inspect
import json
import math
import os
import socket as socketlib
import threading
import time

import pytest

from repro.errors import ProtocolError, ServiceError, \
    ServiceOverloadedError
from repro.runtime.metrics import ServiceMetrics
from repro.service import ConversionService, GatewayServer, Job, \
    ServiceClient, WorkerPool
from repro.service import protocol
from repro.service.gateway import server as gateway_server
from repro.service.protocol import FrameError

from .runners import threaded


# ---------------------------------------------------------------------
# framing codec


def run_frames(payload: bytes, max_line: int = protocol.MAX_LINE):
    """Feed *payload* through :func:`protocol.read_frame`; collect
    frames/errors."""

    async def drive():
        reader = asyncio.StreamReader(limit=max_line)
        reader.feed_data(payload)
        reader.feed_eof()
        out = []
        while True:
            try:
                frame = await protocol.read_frame(reader)
            except FrameError as exc:
                out.append(exc)
                continue
            if frame is None:
                return out
            out.append(frame)

    return asyncio.run(drive())


def test_framing_decodes_pipelined_frames():
    out = run_frames(b'{"op":"ping"}\n{"op":"status"}\n')
    assert out == [{"op": "ping"}, {"op": "status"}]


def test_framing_bad_json_keeps_stream_synchronized():
    out = run_frames(b'not json\n{"op":"ping"}\n')
    assert isinstance(out[0], FrameError)
    assert out[1] == {"op": "ping"}


def test_framing_oversized_line_is_skipped():
    big = b"x" * 600 + b"\n"
    out = run_frames(big + b'{"op":"ping"}\n', max_line=256)
    assert isinstance(out[0], FrameError)
    assert "line cap" in str(out[0])
    assert out[1] == {"op": "ping"}


def test_framing_partial_final_line_decodes():
    out = run_frames(b'{"op":"ping"}')        # EOF without newline
    assert out == [{"op": "ping"}]


def test_framing_non_object_frame_rejected():
    out = run_frames(b'[1,2,3]\n')
    assert isinstance(out[0], FrameError)
    assert "JSON object" in str(out[0])


# ---------------------------------------------------------------------
# address parsing


def test_parse_address_forms():
    assert protocol.parse_address("127.0.0.1:8555") == \
        ("127.0.0.1", 8555)
    assert protocol.parse_address(":9000") == ("127.0.0.1", 9000)
    assert protocol.parse_address("0") == ("127.0.0.1", 0)
    assert protocol.parse_address("[::1]:80") == ("::1", 80)


def test_parse_address_rejects_garbage():
    with pytest.raises(ProtocolError, match="bad service address"):
        protocol.parse_address("nope")
    with pytest.raises(ProtocolError, match="out of range"):
        protocol.parse_address("h:70000")


# ---------------------------------------------------------------------
# a lightweight service for gateway-behavior tests (no conversions)


class EchoService:
    """Minimal ConversionService stand-in: pool + metrics + façade.  A
    plain *runner* runs on a thread (:func:`threaded`)."""

    def __init__(self, runner=None, workers: int = 2) -> None:
        self.metrics = ServiceMetrics()
        self.pool = WorkerPool(
            runner if inspect.iscoroutinefunction(runner)
            else threaded(runner or (lambda job: dict(job.params))),
            workers=workers, metrics=self.metrics)

    def submit(self, kind, params, priority=0, timeout=None,
               max_retries=0, backoff=0.1):
        return self.pool.submit(Job(
            kind=kind, params=dict(params), priority=priority,
            timeout=timeout, max_retries=max_retries, backoff=backoff))

    def status(self, job_id=None):
        if job_id is not None:
            return self.pool.get(job_id).to_dict()
        return [job.to_dict() for job in self.pool.jobs()]

    def cancel(self, job_id):
        return self.pool.cancel(job_id)

    def wait(self, job_id, timeout=None):
        job = self.pool.get(job_id)
        job.wait(timeout)
        return job.to_dict()

    def trace(self, job_id):
        return list(self.pool.get(job_id).trace)

    def metrics_snapshot(self):
        return self.metrics.snapshot()

    def close(self):
        self.pool.shutdown()


def start_daemon(tmp_path, service, *, unix=True, tcp=True,
                 max_pending_jobs: int | None = 1024) -> GatewayServer:
    daemon = GatewayServer(
        service,
        unix_path=str(tmp_path / "gw.sock") if unix else None,
        tcp_address=("127.0.0.1", 0) if tcp else None,
        max_pending_jobs=max_pending_jobs)
    daemon.start()
    return daemon


def raw_connect(daemon, transport: str):
    """A raw (socket, buffered rw file) pair to one daemon listener."""
    if transport == "unix":
        sock = socketlib.socket(socketlib.AF_UNIX,
                                socketlib.SOCK_STREAM)
        sock.connect(daemon.unix_path)
    else:
        sock = socketlib.create_connection(daemon.tcp_address)
    sock.settimeout(10)
    return sock, sock.makefile("rwb")


def read_response(stream) -> dict:
    """Next non-event frame from a raw stream."""
    while True:
        line = stream.readline()
        assert line, "connection closed while waiting for a response"
        frame = json.loads(line)
        if not protocol.is_event(frame):
            return frame


# ---------------------------------------------------------------------
# transports and protocol robustness


def test_tcp_and_unix_roundtrip(tmp_path):
    service = EchoService()
    daemon = start_daemon(tmp_path, service)
    try:
        assert daemon.tcp_address is not None
        for address in (daemon.unix_path, daemon.tcp_address):
            with ServiceClient(address) as client:
                assert client.ping()
                job = client.submit("k", {"x": 1})
                final = client.wait(job["job_id"], timeout=10)
                assert final["state"] == "done"
                assert final["result"] == {"x": 1}
        snap = service.metrics_snapshot()
        assert snap["counters"]["gateway_connections_total"] == 2
        assert snap["counters"]["gateway_requests_total"] >= 6
        assert "gateway_request_seconds" in snap["timers"]
    finally:
        daemon.stop()


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_bad_frames_keep_session_alive(tmp_path, transport):
    """Malformed JSON and oversized frames get structured bad_frame
    errors and the connection keeps serving (both transports)."""
    service = EchoService()
    daemon = start_daemon(tmp_path, service)
    try:
        sock, stream = raw_connect(daemon, transport)
        try:
            # 1: malformed JSON
            stream.write(b"this is not json\n")
            stream.flush()
            response = read_response(stream)
            assert response["ok"] is False
            assert response["code"] == "bad_frame"
            assert "bad_frame" in response["error"]
            assert "bad protocol line" in response["error"]
            # 2: oversized frame (> MAX_LINE before the newline)
            stream.write(b"y" * (protocol.MAX_LINE + 64) + b"\n")
            stream.flush()
            response = read_response(stream)
            assert response["ok"] is False
            assert response["code"] == "bad_frame"
            assert "line cap" in response["error"]
            # 3: the session is still alive and serving
            stream.write(protocol.encode({"op": "ping"}))
            stream.flush()
            response = read_response(stream)
            assert response == {"ok": True, "pong": True}
        finally:
            sock.close()
        assert service.metrics.counter("gateway_bad_frames") == 2
    finally:
        daemon.stop()


def test_pipelined_requests_answered_in_order(tmp_path):
    service = EchoService()
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        sock, stream = raw_connect(daemon, "tcp")
        try:
            stream.write(protocol.encode({"op": "status"}) +
                         protocol.encode({"op": "ping"}) +
                         protocol.encode({"op": "metrics"}))
            stream.flush()
            first = read_response(stream)
            second = read_response(stream)
            third = read_response(stream)
            assert "jobs" in first
            assert second.get("pong") is True
            assert "metrics" in third
        finally:
            sock.close()
    finally:
        daemon.stop()


def test_keepalive_ping_events_on_idle(tmp_path, monkeypatch):
    """Keepalives go out on idle, and a frame that straddles one —
    a partial request, an oversized line — reads as if none came."""
    monkeypatch.setattr(gateway_server, "KEEPALIVE_SECONDS", 0.05)
    service = EchoService()
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        sock, stream = raw_connect(daemon, "tcp")

        def send(data: bytes) -> None:
            stream.write(data)
            stream.flush()

        try:
            line = stream.readline()      # server speaks first: ping
            assert json.loads(line) == {"event": "ping"}
            send(protocol.encode({"op": "ping"}))
            assert read_response(stream)["pong"] is True
            # A request cut by a keepalive.
            send(b'{"op":')
            assert json.loads(stream.readline()) == {"event": "ping"}
            send(b'"ping"}\n')
            assert read_response(stream) == {"ok": True, "pong": True}
            # An oversized line cut by a keepalive: one bad frame.
            send(b"y" * (protocol.MAX_LINE + 64))
            assert json.loads(stream.readline()) == {"event": "ping"}
            send(b"yyyy\n" + protocol.encode({"op": "ping"}))
            response = read_response(stream)
            assert response["code"] == "bad_frame"
            assert "line cap" in response["error"]
            assert read_response(stream) == {"ok": True, "pong": True}
        finally:
            sock.close()
        assert service.metrics.counter("gateway_keepalive_pings") >= 3
        assert service.metrics.counter("gateway_bad_frames") == 1
    finally:
        daemon.stop()


# ---------------------------------------------------------------------
# admission control and backpressure


def test_overload_is_explicit_never_silent(tmp_path):
    gate = threading.Event()
    service = EchoService(runner=lambda job: gate.wait(30),
                          workers=1)
    daemon = start_daemon(tmp_path, service, unix=False,
                          max_pending_jobs=2)
    try:
        with ServiceClient(daemon.tcp_address) as client:
            admitted = []
            rejected = 0
            for i in range(8):
                try:
                    admitted.append(
                        client.submit("k", {"i": i})["job_id"])
                except ServiceOverloadedError as exc:
                    rejected += 1
                    assert "overloaded" in str(exc)
            # The worker grabs one job; the queue holds at most the
            # configured two more.  Nothing is silently dropped.
            assert rejected >= 5
            assert 1 <= len(admitted) <= 3
            gate.set()
            for job_id in admitted:
                final = client.wait(job_id, timeout=10)
                assert final["state"] == "done"
        assert service.metrics.counter(
            "gateway_rejected_overloaded") == rejected
    finally:
        gate.set()
        daemon.stop()


def test_graceful_drain_finishes_inflight_jobs(tmp_path):
    service = EchoService(runner=lambda job: time.sleep(0.2) or "ok",
                          workers=2)
    daemon = start_daemon(tmp_path, service, unix=False)
    address = daemon.tcp_address
    with ServiceClient(address) as client:
        jobs = [client.submit("k", {"i": i})["job_id"]
                for i in range(5)]
    daemon.stop()       # drain: finish in-flight jobs, then close
    states = {job.job_id: job.state.value
              for job in service.pool.jobs()}
    assert set(states) == set(jobs)
    assert all(state == "done" for state in states.values()), states
    assert service.metrics.gauge("gateway_draining") == 1
    with pytest.raises(ServiceError, match="cannot reach service"):
        ServiceClient(address)


def test_stop_survives_corrupted_thread_join_state(tmp_path):
    """A KeyboardInterrupt inside ``Thread.join`` can falsely mark the
    loop thread as stopped (bpo-45274 recovery path).  stop() must
    still wait for real shutdown — including the socket unlink —
    instead of trusting ``Thread.join``."""
    service = EchoService()
    daemon = start_daemon(tmp_path, service)
    socket_path = daemon.unix_path
    thread = service.pool._thread
    # Simulate the corruption: the interrupted join released the
    # tstate lock and called _stop() on a live thread.
    thread._tstate_lock.release()
    thread._stop()
    assert not thread.is_alive()        # the lie stop() must survive
    daemon.stop()
    assert daemon._finished.is_set()
    assert not os.path.exists(socket_path)


def test_shutdown_op_stops_daemon(tmp_path):
    service = EchoService()
    daemon = start_daemon(tmp_path, service, unix=False)
    address = daemon.tcp_address
    with ServiceClient(address) as client:
        client.shutdown()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            ServiceClient(address).close()
        except ServiceError:
            break
        time.sleep(0.05)
    else:
        pytest.fail("daemon still accepting after shutdown op")
    daemon.stop()       # idempotent


# ---------------------------------------------------------------------
# client behavior: connect retry, long-poll wait


def test_connect_retry_bridges_startup_race(tmp_path):
    service = EchoService()
    with socketlib.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    daemon = GatewayServer(service, tcp_address=("127.0.0.1", port))
    started = threading.Timer(0.3, daemon.start)
    started.start()
    try:
        client = ServiceClient(("127.0.0.1", port),
                               connect_retries=10,
                               connect_backoff=0.05)
        with client:
            assert client.ping()
    finally:
        started.join()
        daemon.stop()


def test_connect_failure_after_retries_is_service_error(tmp_path):
    t0 = time.monotonic()
    with pytest.raises(ServiceError, match="cannot reach service"):
        ServiceClient(str(tmp_path / "nothing.sock"),
                      connect_retries=2, connect_backoff=0.01)
    assert time.monotonic() - t0 < 5


def test_wait_long_polls_without_hammering(tmp_path):
    service = EchoService(runner=lambda job: time.sleep(0.5) or "ok")
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        with ServiceClient(daemon.tcp_address) as client:
            job = client.submit("k", {})
            final = client.wait(job["job_id"], poll_interval=0.1)
            assert final["state"] == "done"
            # ~6 poll chunks for a 0.5 s job; a busy-poll loop would
            # have issued hundreds of status calls.
            requests = service.metrics.counter(
                "gateway_requests_total")
            assert requests <= 20
    finally:
        daemon.stop()


def test_wait_deadline_returns_live_snapshot(tmp_path):
    gate = threading.Event()
    service = EchoService(runner=lambda job: gate.wait(30))
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        with ServiceClient(daemon.tcp_address) as client:
            job = client.submit("k", {})
            snap = client.wait(job["job_id"], timeout=0.3,
                               poll_interval=0.1)
            assert snap["state"] in ("queued", "running")
            gate.set()
            final = client.wait(job["job_id"], timeout=10)
            assert final["state"] == "done"
    finally:
        gate.set()
        daemon.stop()


# ---------------------------------------------------------------------
# completion notification: a parked wait answers when the job finishes


def scripted_runner(gate: threading.Event):
    """Runner whose behaviour the job's ``mode`` parameter selects."""

    def run(job):
        mode = job.params.get("mode")
        if mode == "block":
            gate.wait(30)
        elif mode == "overrun":     # back 50 ms after its deadline
            time.sleep(job.timeout + 0.05)
        elif mode == "spin":
            while not job.cancel_requested.is_set():
                time.sleep(0.001)
        elif mode == "flaky" and job.attempts == 1:
            raise RuntimeError("first attempt")
        else:
            time.sleep(0.05)
            if mode == "fail":
                raise RuntimeError("boom")
        return mode

    return run


def cancel_later(address, job_id: str) -> None:
    def cancel():
        with ServiceClient(address) as other:
            other.cancel(job_id)

    threading.Timer(0.05, cancel).start()


#: outcome -> (job params, submit fields, cancel it?, final state)
WAKE_CASES = {
    "done": ({}, {}, False, "done"),
    "failed": ({"mode": "fail"}, {}, False, "failed"),
    "cancelled-queued": ({}, {}, True, "cancelled"),
    "cancelled-running": ({"mode": "spin"}, {}, True, "cancelled"),
    "attempt-timeout": ({"mode": "overrun"}, {"timeout": 0.05}, False,
                        "failed"),
    "retry-then-done": ({"mode": "flaky"},
                        {"max_retries": 1, "backoff": 0.02}, False,
                        "done"),
}


@pytest.mark.parametrize("outcome", sorted(WAKE_CASES))
def test_wait_wakes_within_10ms_of_terminal_transition(tmp_path,
                                                       outcome):
    """Measured from ``finished_at`` to the wait response in hand.
    The median of three runs is asserted: one scheduling hiccup of
    the box must not fail it, a 20 ms poll tick (mean 10 ms late)
    would."""
    params, fields, cancel, state = WAKE_CASES[outcome]
    gate = threading.Event()
    workers = 1 if outcome == "cancelled-queued" else 2
    service = EchoService(runner=scripted_runner(gate),
                          workers=workers)
    daemon = start_daemon(tmp_path, service, unix=False)
    delays = []
    try:
        with ServiceClient(daemon.tcp_address) as client:
            for _ in range(3):
                gate.clear()
                if outcome == "cancelled-queued":   # pin the worker
                    client.submit("k", {"mode": "block"})
                job = client.request("submit", kind="k", params=params,
                                     **fields)["job"]
                if cancel:
                    cancel_later(daemon.tcp_address, job["job_id"])
                final = client.request("wait", job_id=job["job_id"],
                                       timeout=30)["job"]
                delays.append(time.time() - final["finished_at"])
                assert final["state"] == state, final
                gate.set()
        assert sorted(delays)[1] < 0.010, delays
        assert service.metrics.snapshot()["timers"][
            "gateway_wait_wake_seconds"]["count"] == 3
    finally:
        gate.set()
        daemon.stop()


def wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_wait_timeout_answers_on_time_and_unparks(tmp_path):
    gate = threading.Event()
    service = EchoService(runner=lambda job: gate.wait(30))
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        with ServiceClient(daemon.tcp_address) as client:
            job_id = client.submit("k", {})["job_id"]
            t0 = time.monotonic()
            snap = client.request("wait", job_id=job_id,
                                  timeout=0.2)["job"]
            assert 0.19 <= time.monotonic() - t0 < 0.4
            assert snap["state"] in ("queued", "running")
            assert service.pool.get(job_id).waiters == []
    finally:
        gate.set()
        daemon.stop()


def test_500_concurrent_waiters_on_one_job_all_wake(tmp_path, monkeypatch):
    monkeypatch.setattr(gateway_server, "MAX_INFLIGHT_PER_CONN", 64)
    gate = threading.Event()
    service = EchoService(runner=lambda job: gate.wait(30) and "ok")
    daemon = start_daemon(tmp_path, service, unix=False)
    conns = []
    try:
        job = service.submit("k", {})
        frame = protocol.encode({"op": "wait", "job_id": job.job_id})
        for _ in range(10):
            sock, stream = raw_connect(daemon, "tcp")
            conns.append((sock, stream))
            stream.write(frame * 50)
            stream.flush()
        wait_for(lambda: len(job.waiters) == 500)
        gate.set()
        for _, stream in conns:
            for _ in range(50):
                assert read_response(stream)["job"]["state"] == "done"
        assert job.waiters == []
    finally:
        gate.set()
        for sock, _ in conns:
            sock.close()
        daemon.stop()


def test_disconnect_mid_wait_unparks_the_waiter(tmp_path, monkeypatch):
    monkeypatch.setattr(gateway_server, "WRITE_TIMEOUT_SECONDS", 0.1)
    gate = threading.Event()
    service = EchoService(runner=lambda job: gate.wait(30) and "ok")
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        job = service.submit("k", {})
        sock, stream = raw_connect(daemon, "tcp")
        stream.write(protocol.encode({"op": "wait",
                                      "job_id": job.job_id}))
        stream.flush()
        wait_for(lambda: len(job.waiters) == 1)
        stream.close()      # the makefile holds the fd open otherwise
        sock.close()
        wait_for(lambda: job.waiters == [])
        gate.set()
        assert job.wait(10) and job.state.value == "done"
    finally:
        gate.set()
        daemon.stop()


def test_drain_with_parked_waiters_leaves_nothing_registered(
        tmp_path, monkeypatch):
    monkeypatch.setattr(gateway_server, "DRAIN_TIMEOUT_SECONDS", 0.3)
    gate = threading.Event()
    service = EchoService(runner=lambda job: gate.wait(30) and "ok")
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        job = service.submit("k", {})
        sock, stream = raw_connect(daemon, "tcp")
        stream.write(protocol.encode({"op": "wait",
                                      "job_id": job.job_id}))
        stream.flush()
        wait_for(lambda: len(job.waiters) == 1)
        stopper = threading.Thread(target=daemon.stop)
        stopper.start()
        wait_for(lambda: job.waiters == [])
        gate.set()          # the worker finishes it with no one parked
        stopper.join(20)
        assert not stopper.is_alive()
        assert job.state.value == "done"
        sock.close()
    finally:
        gate.set()
        daemon.stop()


def test_wake_into_a_closed_loop_is_swallowed_by_the_worker():
    """A waiter whose event loop died without unparking it must not
    take the worker thread down with it."""
    from repro.service.gateway import Dispatcher
    gate = threading.Event()
    service = EchoService(runner=lambda job: gate.wait(30) and "ok",
                          workers=1)
    dispatcher = Dispatcher(service)
    loop = asyncio.new_event_loop()
    try:
        job = service.submit("k", {})
        task = loop.create_task(dispatcher.dispatch(
            {"op": "wait", "job_id": job.job_id}, "sess-test", "test"))
        loop.run_until_complete(asyncio.sleep(0.05))
        assert len(job.waiters) == 1 and not task.done()
        loop.close()
        gate.set()
        assert job.wait(10) and job.state.value == "done"
        # The single worker survived: it still runs jobs.
        assert service.submit("k", {}).wait(10)
    finally:
        gate.set()
        service.close()


def test_wait_on_journal_recovered_terminal_job_answers_at_once(
        tmp_path):
    service = EchoService()
    service.pool.recover([{
        "job_id": "job-000041", "kind": "k", "state": "done",
        "attempts": 1, "result": {"kept": True},
        "submitted_at": time.time() - 60,
        "finished_at": time.time() - 59}])
    daemon = start_daemon(tmp_path, service, unix=False)
    try:
        with ServiceClient(daemon.tcp_address) as client:
            t0 = time.monotonic()
            final = client.wait("job-000041")
            assert time.monotonic() - t0 < 0.1
            assert final["state"] == "done"
            assert final["result"] == {"kept": True}
    finally:
        daemon.stop()


# ---------------------------------------------------------------------
# acceptance: concurrency at the front door


N_SUBMITTERS = 200


def test_stress_200_concurrent_tcp_submitters(tmp_path, bam_file):
    """≥200 concurrent TCP submitters: every job completes, nothing is
    lost, overload (if any) is an explicit error, and the gateway
    multiplexes all sessions on one event loop."""
    service = ConversionService(tmp_path / "svc", workers=4)
    daemon = GatewayServer(service, tcp_address=("127.0.0.1", 0),
                           max_pending_jobs=None)
    daemon.start()
    results: list = [None] * N_SUBMITTERS
    errors: list = [None] * N_SUBMITTERS

    def submitter(i: int) -> None:
        try:
            client = ServiceClient(daemon.tcp_address, timeout=120,
                                   connect_retries=5,
                                   connect_backoff=0.05)
            with client:
                job = client.submit("preprocess",
                                    {"input": bam_file})
                results[i] = client.wait(job["job_id"], timeout=120)
        except BaseException as exc:  # noqa: BLE001 — recorded
            errors[i] = exc

    threads = [threading.Thread(target=submitter, args=(i,))
               for i in range(N_SUBMITTERS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)
        assert not any(t.is_alive() for t in threads), "hung submitter"
        assert all(e is None for e in errors), \
            [e for e in errors if e is not None][:3]
        job_ids = {r["job_id"] for r in results}
        assert len(job_ids) == N_SUBMITTERS          # no job lost
        assert all(r["state"] == "done" for r in results)
        snap = service.metrics_snapshot()
        assert snap["counters"]["jobs_done"] == N_SUBMITTERS
        assert snap["counters"]["gateway_connections_total"] \
            >= N_SUBMITTERS
        assert snap["counters"].get("gateway_rejected_overloaded",
                                    0) == 0
        # One preprocessing run served all 200 submitters (warm cache).
        assert snap["counters"]["preprocess_runs"] == 1
    finally:
        daemon.stop()


class SlowSubmits(EchoService):
    """Every submit holds the scheduler lock for 2 ms, as a slow journal
    append would: a 200-submit burst then queues for ~0.4 s."""

    def submit(self, *args, **kwargs):
        with self.pool._lock:
            time.sleep(0.002)
            return super().submit(*args, **kwargs)


async def echo(job):
    return job.params


def test_daemon_thread_count_does_not_depend_on_load(tmp_path):
    """Every op but ``wait`` answers on the loop: a burst of submits
    starts no thread, and a ping sent mid-burst is answered between
    them, not after them."""
    service = SlowSubmits(runner=echo)
    daemon = start_daemon(tmp_path, service, unix=False,
                          max_pending_jobs=None)
    socks = [socketlib.create_connection(daemon.tcp_address, timeout=30)
             for _ in range(N_SUBMITTERS)]
    side, side_stream = raw_connect(daemon, "tcp")
    try:
        streams = [sock.makefile("rwb") for sock in socks]
        wait_for(lambda: len(daemon.sessions) == N_SUBMITTERS + 1)
        before = threading.active_count()
        for i, stream in enumerate(streams):
            stream.write(protocol.encode(
                {"op": "submit", "kind": "k", "params": {"i": i}}))
            stream.flush()
        side_stream.write(protocol.encode({"op": "ping"}))
        side_stream.flush()
        assert read_response(side_stream) == {"ok": True, "pong": True}
        # The pong came back while submits still waited their turn.
        assert len(service.pool.jobs()) < N_SUBMITTERS
        during = [threading.active_count()]
        names = [thread.name for thread in threading.enumerate()]
        jobs = []
        for stream in streams:
            jobs.append(read_response(stream)["job"]["job_id"])
            during.append(threading.active_count())
        assert len(set(jobs)) == N_SUBMITTERS
        assert during == [before] * len(during)
        assert not [name for name in names
                    if name.startswith("repro-gateway-dispatch")]
    finally:
        for sock in [*socks, side]:
            sock.close()
        daemon.stop()


def test_daemon_thread_count_does_not_depend_on_running_jobs(tmp_path):
    """Attempts are tasks on the daemon's one loop: while serving, the
    daemon holds as many threads with 2 workers as with 6, idle and
    while two jobs run, with and without a timeout."""
    counts = {}
    for workers in (2, 6):
        gate = threading.Event()

        async def runner(job):
            while not gate.is_set():
                await asyncio.sleep(0.005)
            return "ok"

        service = EchoService(runner=runner, workers=workers)
        daemon = start_daemon(tmp_path, service, unix=False)
        try:
            with ServiceClient(daemon.tcp_address) as client:
                wait_for(lambda: len(daemon.sessions) == 1)
                counts[workers, "idle"] = threading.active_count()
                for timeout in (None, 30):
                    gate.clear()
                    jobs = [client.submit("k", {}, timeout=timeout)
                            ["job_id"] for _ in range(2)]
                    wait_for(lambda: all(
                        client.status(job)["state"] == "running"
                        for job in jobs))
                    counts[workers, timeout] = threading.active_count()
                    assert not [thread.name
                                for thread in threading.enumerate()
                                if "attempt" in thread.name]
                    gate.set()
                    for job in jobs:
                        assert client.wait(job, timeout=10)["state"] \
                            == "done"
        finally:
            gate.set()
            daemon.stop()
    assert len(set(counts.values())) == 1, counts


#: case -> (raw request line, the field its bad_request names)
BAD_REQUESTS = {
    "priority-text": ({"op": "submit", "kind": "k", "params": {},
                       "priority": "high"}, "priority"),
    "timeout-text": ({"op": "submit", "kind": "k", "params": {},
                      "timeout": "soon"}, "timeout"),
    "backoff-text-nan": ({"op": "submit", "kind": "k", "params": {},
                          "backoff": "nan"}, "backoff"),
    "backoff-json-nan": (b'{"op":"submit","kind":"k","params":{},'
                         b'"backoff":NaN}\n', "backoff"),
    "timeout-json-infinity": (b'{"op":"submit","kind":"k","params":{},'
                              b'"timeout":Infinity}\n', "timeout"),
    "params-not-object": ({"op": "submit", "kind": "convert",
                           "params": "notadict"}, "params"),
    "max-retries-bool": ({"op": "submit", "kind": "k", "params": {},
                          "max_retries": True}, "max_retries"),
    "wait-timeout-text": ({"op": "wait", "job_id": "job-000001",
                           "timeout": "abc"}, "timeout"),
    "status-job-id-number": ({"op": "status", "job_id": 5}, "job_id"),
    "cancel-job-id-list": ({"op": "cancel", "job_id": ["a"]}, "job_id"),
    "trace-job-id-null": ({"op": "trace", "job_id": None}, "job_id"),
}


def test_malformed_request_fields_are_bad_requests(tmp_path):
    """Each field of the wrong type answers ``bad_request`` naming the
    field — never an internal error, never an accepted job — and the
    session keeps serving."""
    service = EchoService()
    daemon = start_daemon(tmp_path, service, tcp=False)
    try:
        sock, stream = raw_connect(daemon, "unix")
        try:
            for case, (request, field) in sorted(BAD_REQUESTS.items()):
                stream.write(request if isinstance(request, bytes)
                             else protocol.encode(request))
                stream.flush()
                response = read_response(stream)
                assert response["ok"] is False, case
                assert response["code"] == "bad_request", (case, response)
                assert f"field {field!r}" in response["error"], \
                    (case, response)
            stream.write(protocol.encode({"op": "ping"}))
            stream.flush()
            assert read_response(stream) == {"ok": True, "pong": True}
        finally:
            sock.close()
        assert service.pool.jobs() == []
    finally:
        daemon.stop()


def test_job_refuses_a_non_finite_timeout_or_backoff():
    for bad in ({"timeout": math.inf}, {"timeout": math.nan},
                {"backoff": -0.1}, {"backoff": math.nan},
                {"backoff": math.inf}):
        with pytest.raises(ServiceError, match=next(iter(bad))):
            Job(kind="k", **bad)


def test_tcp_results_byte_identical_to_unix(tmp_path, bam_file):
    """The transport must not change a single output byte."""
    from .test_service import part_bytes
    service = ConversionService(tmp_path / "svc", workers=2)
    daemon = GatewayServer(service,
                           unix_path=str(tmp_path / "gw.sock"),
                           tcp_address=("127.0.0.1", 0))
    daemon.start()
    try:
        outputs = {}
        for transport, address in (
                ("unix", daemon.unix_path),
                ("tcp", daemon.tcp_address)):
            out_dir = tmp_path / f"out-{transport}"
            with ServiceClient(address) as client:
                job = client.submit("region", {
                    "input": bam_file, "region": "chr1:1-30000",
                    "target": "bed", "out_dir": str(out_dir)})
                final = client.wait(job["job_id"], timeout=60)
                assert final["state"] == "done", final["error"]
            outputs[transport] = part_bytes(out_dir)
        assert outputs["unix"]
        assert outputs["unix"] == outputs["tcp"]
    finally:
        daemon.stop()


# ---------------------------------------------------------------------
# CLI integration over TCP


def test_cli_submit_status_cancel_over_tcp(tmp_path, sam_file):
    from repro.cli import main
    service = ConversionService(tmp_path / "svc", workers=1)
    daemon = GatewayServer(service, tcp_address=("127.0.0.1", 0))
    daemon.start()
    connect = "%s:%d" % daemon.tcp_address
    try:
        out = tmp_path / "out"
        assert main(["submit", sam_file, "--connect", connect,
                     "--target", "bed", "--out-dir", str(out),
                     "--wait"]) == 0
        assert list(out.glob("*.bed*"))
        assert main(["status", "--connect", connect]) == 0
        assert main(["status", "--connect", connect,
                     "--metrics"]) == 0
    finally:
        daemon.stop()
