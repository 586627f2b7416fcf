"""Tests for the deterministic fault-injection harness and for every
wired injection point: armed faults surface as structured errors or
successful recovery — never as an unhandled crash."""

from __future__ import annotations

import glob
import json
import os
import socket as socketlib
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import FaultInjectedError, ReproError
from repro.runtime import faults
from repro.runtime.executor import ExecutorFailure, reset_shared_executor
from repro.runtime.metrics import ServiceMetrics
from repro.service import protocol
from repro.service.cache import ArtifactCache
from repro.service.gateway import GatewayServer
from repro.service.jobs import Job, JobState
from repro.service.journal import JobJournal, replay
from repro.service.scheduler import WorkerPool

from .runners import threaded


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with a disarmed registry."""
    faults.disarm()
    yield
    faults.disarm()


def make_input(tmp_path, payload=b"input-bytes"):
    path = tmp_path / "input.bam"
    path.write_bytes(payload)
    return str(path)


def make_builder(payload=b"artifact-payload"):
    def builder(entry_dir):
        with open(os.path.join(entry_dir, "data.bamx"), "wb") as fh:
            fh.write(payload)
        with open(os.path.join(entry_dir, "data.bamx.baix"),
                  "wb") as fh:
            fh.write(b"index-bytes")
    return builder


# ---------------------------------------------------------------------
# spec parsing and registry mechanics


def test_parse_spec_full_and_defaults():
    assert faults.parse_spec(
        "cache.fetch:partial-write:0.5:7") == \
        [("cache.fetch", "partial-write", 0.5, 7)]
    assert faults.parse_spec("journal.append:delay") == \
        [("journal.append", "delay", 1.0, 0)]
    assert faults.parse_spec(
        "cache.build:crash:0.1, scheduler.attempt:exception") == [
        ("cache.build", "crash", 0.1, 0),
        ("scheduler.attempt", "exception", 1.0, 0)]
    assert faults.parse_spec("") == []


@pytest.mark.parametrize("bad, detail", [
    ("cache.fletch:exception", "unknown fault point"),
    ("cache.fetch:explosion", "unknown fault kind"),
    ("cache.fetch", "want point:kind"),
    ("cache.fetch:exception:zap", "bad fault spec"),
    ("cache.fetch:exception:1.5", "not in [0, 1]"),
    ("cache.fetch:exception:0.5:x", "bad fault spec"),
    ("cache.fetch:exception:0.5:1:9", "want point:kind"),
])
def test_parse_spec_rejects_typos(bad, detail):
    # A typo must raise, not silently disarm a test run.
    with pytest.raises(ReproError) as err:
        faults.parse_spec(bad)
    assert detail in str(err.value)


def test_arm_disarm_and_snapshot():
    assert not faults.is_armed()
    faults.arm("gateway.dispatch:delay:0.5:3")
    assert faults.is_armed()
    assert faults.is_armed("gateway.dispatch")
    assert not faults.is_armed("cache.build")
    snap = faults.snapshot()
    assert snap["gateway.dispatch"] == {
        "kind": "delay", "prob": 0.5, "seed": 3,
        "evaluations": 0, "fires": 0}
    faults.disarm()
    assert not faults.is_armed()
    assert faults.snapshot() == {}


def test_fire_is_deterministic_under_seed():
    def sequence():
        faults.arm("scheduler.attempt:exception:0.5:42")
        fired = []
        for _ in range(64):
            try:
                faults.fire("scheduler.attempt")
                fired.append(False)
            except FaultInjectedError:
                fired.append(True)
        return fired

    first, second = sequence(), sequence()
    assert first == second
    assert True in first and False in first  # prob actually applied


def test_fire_exception_kind():
    faults.arm("journal.append:exception")
    with pytest.raises(FaultInjectedError,
                       match="injected fault at journal.append"):
        faults.fire("journal.append")
    faults.fire("cache.build")  # other points stay disarmed


def test_fire_delay_kind():
    faults.arm("cache.fetch:delay")
    start = time.monotonic()
    faults.fire("cache.fetch")
    assert time.monotonic() - start >= faults.DELAY_SECONDS * 0.8


def test_partial_write_corrupts_but_never_fires():
    faults.arm("journal.append:partial-write:1.0:5")
    faults.fire("journal.append")  # no-op at control-flow sites
    data = b"x" * 100
    cut = faults.corrupt("journal.append", data)
    assert len(cut) < len(data)
    assert data.startswith(cut)
    assert faults.should_corrupt("journal.append")
    faults.disarm()
    assert faults.corrupt("journal.append", data) == data
    assert not faults.should_corrupt("journal.append")


def test_crash_kind_exits_process():
    code = ("from repro.runtime import faults\n"
            "faults.arm('scheduler.attempt:crash')\n"
            "faults.fire('scheduler.attempt')\n"
            "raise SystemExit(1)  # unreachable\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(repro.__file__)))
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == faults.CRASH_EXIT_CODE


def test_arm_from_env_in_subprocess():
    # REPRO_FAULTS reaches a fresh interpreter at import time — the
    # mechanism the crash smoke test relies on to arm spawned daemons.
    code = ("from repro.runtime import faults\n"
            "assert faults.is_armed('gateway.dispatch')\n"
            "snap = faults.snapshot()['gateway.dispatch']\n"
            "assert snap['kind'] == 'delay' and snap['prob'] == 0.25\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(
                   os.path.dirname(repro.__file__)),
               REPRO_FAULTS="gateway.dispatch:delay:0.25:9")
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0


def test_disarmed_fire_is_cheap():
    # Loose sanity bound: a disarmed point is one boolean check, so a
    # hundred thousand evaluations must be effectively free.
    start = time.monotonic()
    for _ in range(100_000):
        faults.fire("cache.fetch")
    assert time.monotonic() - start < 0.5


# ---------------------------------------------------------------------
# wired points, armed at p=1.0: structured failure or clean recovery


def test_scheduler_attempt_exception_exhausts_retries():
    faults.arm("scheduler.attempt:exception")
    pool = WorkerPool(threaded(lambda job: {"ok": True}), workers=1)
    try:
        job = pool.submit(Job(kind="k", max_retries=1, backoff=0.01))
        assert job.wait(10)
        assert job.state is JobState.FAILED
        assert job.attempts == 2
        assert "injected fault at scheduler.attempt" in job.error
        assert pool.metrics.counter("jobs_retried") == 1
    finally:
        pool.shutdown()


def test_scheduler_attempt_fault_recovers_via_retry():
    # seed 1 at prob 0.5 fires on the first evaluation and not the
    # second: the first attempt fails, the retry succeeds.
    faults.arm("scheduler.attempt:exception:0.5:1")
    pool = WorkerPool(threaded(lambda job: {"ok": True}), workers=1)
    try:
        job = pool.submit(Job(kind="k", max_retries=2, backoff=0.01))
        assert job.wait(10)
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert job.result == {"ok": True}
        assert job.error is None
    finally:
        pool.shutdown()


def test_journal_append_fault_refuses_submit(tmp_path):
    journal = JobJournal(tmp_path / "jobs.jsonl", fsync="never")
    pool = WorkerPool(threaded(lambda job: {"ok": True}), workers=1,
                      journal=journal)
    try:
        faults.arm("journal.append:exception")
        with pytest.raises(FaultInjectedError):
            pool.submit(Job(kind="k"))
        # Write-ahead discipline: the refused job must not exist.
        assert pool.jobs() == []
        faults.disarm()
        job = pool.submit(Job(kind="k"))
        assert job.wait(10) and job.state is JobState.DONE
    finally:
        pool.shutdown()
        journal.close()


def test_journal_append_partial_write_survives_replay(tmp_path):
    path = tmp_path / "jobs.jsonl"
    journal = JobJournal(path, fsync="never")
    faults.arm("journal.append:partial-write:1.0:3")
    for i in range(1, 6):
        journal.append_submit(Job(kind="k", job_id=f"job-{i:06d}"))
    faults.disarm()
    journal.close()
    specs, stats = replay(path)
    # Every line was torn; replay skips the damage and keeps going.
    assert stats["bad_lines"] >= 1
    assert len(specs) < 5


def test_cache_build_exception_fails_clean(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    source = make_input(tmp_path)
    faults.arm("cache.build:exception")
    with pytest.raises(FaultInjectedError):
        cache.get_or_build(source, {"op": "x"}, make_builder())
    assert cache.keys() == []
    # The interrupted build's temp dir was cleaned up.
    assert [name for name in os.listdir(cache.cache_dir)
            if name.startswith(".build-")] == []
    faults.disarm()
    entry, hit = cache.get_or_build(source, {"op": "x"},
                                    make_builder())
    assert not hit
    with open(entry.file("data.bamx"), "rb") as fh:
        assert fh.read() == b"artifact-payload"


def test_cache_build_partial_write_quarantined(tmp_path):
    metrics = ServiceMetrics()
    cache = ArtifactCache(tmp_path / "cache", metrics=metrics)
    source = make_input(tmp_path)
    faults.arm("cache.build:partial-write:1.0:2")
    with pytest.raises(
            Exception, match="failed verification after build"):
        cache.get_or_build(source, {"op": "x"}, make_builder())
    # The torn entry was never served and never registered.
    assert cache.keys() == []
    assert len(cache.quarantined()) == 1
    assert metrics.counter("cache_quarantined") == 1
    faults.disarm()
    entry, hit = cache.get_or_build(source, {"op": "x"},
                                    make_builder())
    assert not hit
    with open(entry.file("data.bamx"), "rb") as fh:
        assert fh.read() == b"artifact-payload"


def test_cache_fetch_partial_write_quarantines_and_rebuilds(tmp_path):
    metrics = ServiceMetrics()
    cache = ArtifactCache(tmp_path / "cache", metrics=metrics)
    source = make_input(tmp_path)
    cache.get_or_build(source, {"op": "x"}, make_builder())
    faults.arm("cache.fetch:partial-write:1.0:4")
    entry, hit = cache.get_or_build(source, {"op": "x"},
                                    make_builder())
    # The rotted entry was quarantined and transparently rebuilt.
    assert not hit
    assert len(cache.quarantined()) == 1
    assert metrics.counter("cache_verify_failed") == 1
    with open(entry.file("data.bamx"), "rb") as fh:
        assert fh.read() == b"artifact-payload"


class _TinyService:
    """Minimal ConversionService stand-in for gateway fault tests."""

    def __init__(self) -> None:
        self.metrics = ServiceMetrics()
        self.pool = WorkerPool(threaded(lambda job: dict(job.params)),
                               workers=1, metrics=self.metrics)

    def submit(self, kind, params, priority=0, timeout=None,
               max_retries=0, backoff=0.1):
        return self.pool.submit(Job(
            kind=kind, params=dict(params), priority=priority,
            timeout=timeout, max_retries=max_retries,
            backoff=backoff))

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


def test_gateway_dispatch_fault_is_structured():
    service = _TinyService()
    daemon = GatewayServer(service, tcp_address=("127.0.0.1", 0))
    daemon.start()
    try:
        sock = socketlib.create_connection(daemon.tcp_address)
        sock.settimeout(10)
        stream = sock.makefile("rwb")
        try:
            faults.arm("gateway.dispatch:exception")
            protocol.write_message(stream, {"op": "ping"})
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert response["code"] == protocol.CODE_FAULT_INJECTED
            assert "injected fault at gateway.dispatch" \
                in response["error"]
            # The session survives the injected fault and, once
            # disarmed, the same connection serves normally.
            faults.disarm()
            protocol.write_message(stream, {"op": "ping"})
            assert json.loads(stream.readline()) == \
                {"ok": True, "pong": True}
        finally:
            sock.close()
    finally:
        daemon.stop()


# ---------------------------------------------------------------------
# preprocess.rank: a BAM preprocessing rank fails or dies mid-stage


@pytest.mark.parametrize("kind, executor, error, names", [
    ("exception", "thread", FaultInjectedError, "preprocess.rank"),
    ("exception", "process", FaultInjectedError, "preprocess.rank"),
    ("crash", "process", ExecutorFailure, r"\[rank \d\]"),
])
def test_preprocess_rank_fault_leaves_a_clean_work_dir(
        tmp_path, bam_file, kind, executor, error, names):
    """A rank raising — or, in a pool process, dying the way SIGKILL
    would — fails the preprocess with an error naming the rank, leaves
    no store, sidecar, spool or part behind, and the next preprocess on
    the shared pool succeeds."""
    from repro.core import BamConverter
    work = tmp_path / "work"
    faults.arm(f"preprocess.rank:{kind}")
    reset_shared_executor()  # fork the pool's workers armed
    try:
        with pytest.raises(error, match=names):
            BamConverter().preprocess(bam_file, work, nprocs=2,
                                      executor=executor)
        assert os.listdir(work) == []
    finally:
        faults.disarm()
        reset_shared_executor()
    store, baix, metrics = BamConverter().preprocess(
        bam_file, work, nprocs=2, executor=executor)
    assert metrics.records > 0
    assert sorted(os.listdir(work)) == sorted(
        os.path.basename(path) for path in (store, baix, baix + "2"))


# ---------------------------------------------------------------------
# shard.batch:crash under the service: the job body's interpreter dies


@pytest.fixture()
def crashing_sam_daemon(tmp_path):
    """A gateway over a service whose body workers were forked with
    ``shard.batch:crash`` armed: any SAM job body ``os._exit``s the
    process it runs in, the way an OOM kill or a C-level fault would."""
    from repro.service import ConversionService
    faults.arm("shard.batch:crash")
    service = ConversionService(tmp_path / "svc", workers=2)
    daemon = GatewayServer(service, tcp_address=("127.0.0.1", 0))
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.stop()
        faults.disarm()


def test_crashing_job_body_fails_that_job_only(crashing_sam_daemon,
                                               sam_file, bam_file,
                                               tmp_path):
    """Crash containment: the job whose body died is ``failed`` with the
    executor's text, the daemon still answers, the dead body worker
    alone is re-forked, and the next job runs."""
    from repro.service import ServiceClient
    with ServiceClient(crashing_sam_daemon.tcp_address) as client:
        doomed = client.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(tmp_path / "doomed")})
        final = client.wait(doomed["job_id"], timeout=60)
        assert final["state"] == "failed" and final["attempts"] == 1
        assert "ExecutorFailure: worker pool task " \
            f"[{doomed['job_id']} convert] failed" in final["error"]
        assert client.ping()
        assert client.status(doomed["job_id"])["state"] == "failed"
        gauges = client.metrics()["gauges"]
        assert gauges["body_worker_alive"] == 2
        assert gauges["body_worker_tasks_failed"] == 1
        # A BAM job never reaches shard.batch: it completes.
        job = client.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "next")})
        final = client.wait(job["job_id"], timeout=60)
        assert final["state"] == "done", final["error"]
        assert final["result"]["records"] > 0
        snap = client.metrics()
        assert snap["gauges"]["body_worker_starts"] == 3    # 2 + 1 re-fork
        assert snap["gauges"]["body_worker_alive"] == 2
        assert snap["counters"]["jobs_failed"] == 1
        assert snap["counters"]["jobs_done"] == 1


def test_crashing_job_body_is_retried_on_a_rebuilt_pool(
        crashing_sam_daemon, sam_file, tmp_path):
    from repro.service import ServiceClient
    with ServiceClient(crashing_sam_daemon.tcp_address) as client:
        doomed = client.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(tmp_path / "doomed")}, max_retries=1)
        final = client.wait(doomed["job_id"], timeout=60)
        assert final["state"] == "failed" and final["attempts"] == 2
        assert "worker pool task " in final["error"]
        roots = [s for s in client.trace(doomed["job_id"])
                 if s["name"] == "job.convert"]
        assert [s["args"]["attempt"] for s in roots] == [1, 2]
        assert all(s["args"]["error"] == "ExecutorFailure" for s in roots)
        # Attempt 2 ran — and died — on a live worker; the daemon lives.
        snap = client.metrics()
        assert snap["gauges"]["body_worker_starts"] == 4    # 2 + 2 re-forks
        assert snap["gauges"]["body_worker_tasks_failed"] == 2
        assert snap["counters"]["jobs_retried"] == 1
        assert client.ping()


def test_a_crashing_body_spares_the_body_beside_it(tmp_path, monkeypatch,
                                                   sam_file, bam_file):
    """Per-worker containment: a SAM body dies to ``shard.batch:crash``
    while a BAM body, held by a ``preprocess.rank`` delay, runs in the
    other worker.  Only the dead worker is re-forked: the BAM job ends
    ``done`` on attempt 1, and its worker's pid does not change."""
    from repro.service import ConversionService
    monkeypatch.setattr(faults, "DELAY_SECONDS", 1.0)  # forked workers too
    faults.arm("shard.batch:crash,preprocess.rank:delay")
    service = ConversionService(tmp_path / "svc", workers=2)
    try:
        pids = service.bodies.pids
        held = service.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "held")})
        deadline = time.monotonic() + 30
        while service.status(held.job_id)["state"] == "queued" \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)     # its cache build is now asleep in a worker
        doomed = service.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(tmp_path / "doomed")})
        final = service.wait(doomed.job_id, 60)
        assert final["state"] == "failed"
        assert "ExecutorFailure: worker pool task " \
            f"[{doomed.job_id} convert] failed" in final["error"]
        assert service.status(held.job_id)["state"] == "running"
        final = service.wait(held.job_id, 60)
        assert final["state"] == "done", final["error"]
        assert final["attempts"] == 1
        assert final["result"]["records"] > 0
        # Both bodies were in flight at once, one per worker: the one
        # original pid left is the BAM body's worker.
        survivors = set(pids) & set(service.bodies.pids)
        assert len(survivors) == 1, (pids, service.bodies.pids)
        gauges = service.metrics.snapshot()["gauges"]
        assert gauges["body_worker_starts"] == 3
        assert gauges["body_worker_tasks_failed"] == 1
    finally:
        service.close()


def test_a_timed_out_body_frees_its_worker(tmp_path, monkeypatch, sam_file,
                                           bam_file):
    """A job body that outlives its attempt's timeout T is killed at T:
    the job ends ``failed`` within T + 0.2 s, its body worker is
    re-forked (the pid changes), the next job runs at once instead of
    behind the abandoned body, and nothing of the late body is folded
    into the daemon's counters."""
    from repro.service import ConversionService
    monkeypatch.setattr(faults, "DELAY_SECONDS", 3.0)  # forked workers too
    faults.arm("shard.batch:delay")
    service = ConversionService(tmp_path / "svc", workers=1)
    try:
        pids = service.bodies.pids
        t0 = time.monotonic()
        slow = service.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(tmp_path / "slow")}, timeout=0.3)
        # A BAM job never reaches shard.batch: it is quick.
        nxt = service.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "next")})
        final = service.wait(slow.job_id, 30)
        assert time.monotonic() - t0 < 0.3 + 0.2
        assert final["state"] == "failed"
        assert "timed out after 0.3s" in final["error"]
        final = service.wait(nxt.job_id, 30)
        assert final["state"] == "done", final["error"]
        assert time.monotonic() - t0 < 2.5     # not behind the 3 s body
        assert service.bodies.pids != pids
        gauges = service.metrics.snapshot()["gauges"]
        assert gauges["body_worker_starts"] == 2
        assert gauges["body_worker_alive"] == 1
        assert gauges["body_worker_tasks_failed"] == 1
        # One body ran to a reply: the BAM job's build and conversion.
        assert gauges["body_worker_tasks_completed"] == 1
    finally:
        service.close()


def test_a_timed_out_digest_frees_its_worker(tmp_path, monkeypatch,
                                             sam_file, bam_file):
    """The first digest of an input runs in the job's body, so the
    attempt's deadline bounds it: a first-sight BAM job whose digest
    sleeps 1 s past its ``timeout=0.3`` is ``failed`` ("timed out")
    within 0.8 s, its worker is re-forked, and the next job runs."""
    from repro.service import ConversionService
    monkeypatch.setattr(faults, "DELAY_SECONDS", 1.0)  # forked workers too
    faults.arm("cache.digest:delay")
    service = ConversionService(tmp_path / "svc", workers=2)
    try:
        t0 = time.monotonic()
        slow = service.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "slow")}, timeout=0.3)
        final = service.wait(slow.job_id, 30)
        assert time.monotonic() - t0 < 0.8
        assert final["state"] == "failed"
        assert "timed out" in final["error"]
        assert service.metrics.gauge("body_worker_starts") == 3
        # SAM input is not digested: it converts.
        nxt = service.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(tmp_path / "next")})
        final = service.wait(nxt.job_id, 30)
        assert final["state"] == "done", final["error"]
    finally:
        service.close()


def test_a_timed_out_attempt_leaves_nothing_running(tmp_path, monkeypatch,
                                                     sam_file):
    """Attempt 1 sleeps past its timeout in ``scheduler.attempt`` and
    is timed out; attempt 2 finishes the job.  Nothing of attempt 1
    runs afterwards: the output is not rewritten, one body ran, no
    worker was killed, and no attempt thread is left."""
    from repro.service import ConversionService
    monkeypatch.setattr(faults, "DELAY_SECONDS", 1.2)
    # seed 1 at prob 0.5 fires on the first evaluation and not the
    # second: attempt 1 is delayed, attempt 2 is not.
    faults.arm("scheduler.attempt:delay:0.5:1")
    service = ConversionService(tmp_path / "svc", workers=2)
    try:
        out_dir = tmp_path / "out"
        job = service.submit("convert", {
            "input": sam_file, "target": "bed", "out_dir": str(out_dir)},
            timeout=1.0, max_retries=1, backoff=0.01)
        final = service.wait(job.job_id, 30)
        assert final["state"] == "done", final["error"]
        assert final["attempts"] == 2
        (part,) = glob.glob(str(out_dir / "*.part0000.bed"))
        mtime = os.stat(part).st_mtime_ns
        time.sleep(1.5)
        assert os.stat(part).st_mtime_ns == mtime
        gauges = service.metrics.snapshot()["gauges"]
        assert gauges["body_worker_tasks_completed"] == 1
        assert gauges["body_worker_tasks_failed"] == 0
        assert not [thread.name for thread in threading.enumerate()
                    if "attempt" in thread.name]
    finally:
        service.close()


def test_a_wait_for_another_jobs_build_ends_at_the_timeout(
        tmp_path, monkeypatch, bam_file):
    """A job with ``timeout=0.3`` queued behind another job's slow
    build of the same BAM's store is ``failed`` ("timed out") within
    0.5 s, not when that build ends."""
    from repro.service import ConversionService
    monkeypatch.setattr(faults, "DELAY_SECONDS", 2.0)  # forked workers too
    faults.arm("preprocess.rank:delay")
    service = ConversionService(tmp_path / "svc", workers=2)
    try:
        builder = service.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "first")})
        deadline = time.monotonic() + 30
        while service.status(builder.job_id)["state"] == "queued" \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)     # its cache build is now asleep in a worker
        t0 = time.monotonic()
        waiter = service.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "second")}, timeout=0.3)
        final = service.wait(waiter.job_id, 30)
        assert time.monotonic() - t0 < 0.5
        assert final["state"] == "failed"
        assert "timed out" in final["error"]
        assert service.wait(builder.job_id, 30)["state"] == "done"
    finally:
        service.close()
