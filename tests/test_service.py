"""Tests for the conversion job service: job lifecycle, scheduler,
artifact cache, end-to-end byte equivalence with the batch CLI, and the
line-JSON daemon protocol."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import JobNotFoundError, ServiceError
from repro.runtime.executor import shared_executor_stats
from repro.service import ArtifactCache, ConversionService, \
    GatewayServer, Job, JobState, ServiceClient, WorkerPool, cache_key
from repro.service.journal import replay


def wait_terminal(job: Job, timeout: float = 30.0) -> Job:
    assert job.wait(timeout), f"{job.job_id} not terminal in {timeout}s"
    return job


# ---------------------------------------------------------------------
# job model


def test_job_transition_rules():
    job = Job(kind="convert")
    job.transition(JobState.RUNNING)
    job.transition(JobState.DONE)
    assert job.done.is_set() and job.state.terminal


def test_job_illegal_transition():
    job = Job(kind="convert")
    job.transition(JobState.RUNNING)
    job.transition(JobState.DONE)
    with pytest.raises(ServiceError, match="illegal transition"):
        job.transition(JobState.RUNNING)


def test_job_bad_policy_rejected():
    with pytest.raises(ServiceError, match="max_retries"):
        Job(kind="convert", max_retries=-1)
    with pytest.raises(ServiceError, match="timeout"):
        Job(kind="convert", timeout=0)


# ---------------------------------------------------------------------
# scheduler / worker pool lifecycle


def test_pool_success():
    pool = WorkerPool(lambda job: job.params["x"] * 2, workers=2)
    try:
        job = wait_terminal(pool.submit(Job(kind="k", params={"x": 21})))
        assert job.state is JobState.DONE
        assert job.result == 42 and job.attempts == 1
        assert pool.metrics.counter("jobs_done") == 1
    finally:
        pool.shutdown()


def test_pool_timeout_fails_job():
    release = threading.Event()
    pool = WorkerPool(lambda job: release.wait(10), workers=1)
    try:
        job = pool.submit(Job(kind="k", timeout=0.2))
        wait_terminal(job)
        assert job.state is JobState.FAILED
        assert "timed out" in job.error
        assert pool.metrics.counter("jobs_timed_out") == 1
    finally:
        release.set()
        pool.shutdown()


def test_pool_retry_then_fail():
    pool = WorkerPool(lambda job: 1 / 0, workers=1)
    try:
        job = pool.submit(Job(kind="k", max_retries=2, backoff=0.01))
        wait_terminal(job)
        assert job.state is JobState.FAILED
        assert job.attempts == 3
        assert "ZeroDivisionError" in job.error
        assert pool.metrics.counter("jobs_retried") == 2
        assert pool.metrics.counter("jobs_failed") == 1
    finally:
        pool.shutdown()


def test_pool_retry_then_succeed():
    def flaky(job: Job):
        if job.attempts < 3:
            raise RuntimeError("transient")
        return "recovered"

    pool = WorkerPool(flaky, workers=1)
    try:
        job = pool.submit(Job(kind="k", max_retries=3, backoff=0.01))
        wait_terminal(job)
        assert job.state is JobState.DONE
        assert job.result == "recovered" and job.attempts == 3
    finally:
        pool.shutdown()


def test_pool_cancel_queued_job():
    gate = threading.Event()
    pool = WorkerPool(lambda job: gate.wait(10), workers=1)
    try:
        blocker = pool.submit(Job(kind="k"))
        queued = pool.submit(Job(kind="k"))
        assert pool.cancel(queued.job_id) is True
        wait_terminal(queued, 5)
        assert queued.state is JobState.CANCELLED
        assert queued.attempts == 0
        gate.set()
        wait_terminal(blocker)
        assert blocker.state is JobState.DONE
        assert pool.metrics.counter("jobs_cancelled") == 1
    finally:
        gate.set()
        pool.shutdown()


def test_pool_cancel_running_job():
    started = threading.Event()

    def runner(job: Job):
        started.set()
        while not job.cancel_requested.is_set():
            time.sleep(0.01)
        return "ignored"

    pool = WorkerPool(runner, workers=1)
    try:
        job = pool.submit(Job(kind="k"))
        assert started.wait(5)
        assert pool.cancel(job.job_id) is True
        wait_terminal(job)
        assert job.state is JobState.CANCELLED
        assert job.result is None
    finally:
        pool.shutdown()


def test_pool_cancel_finished_job_returns_false():
    pool = WorkerPool(lambda job: None, workers=1)
    try:
        job = wait_terminal(pool.submit(Job(kind="k")))
        assert pool.cancel(job.job_id) is False
        with pytest.raises(JobNotFoundError):
            pool.cancel("job-999999")
    finally:
        pool.shutdown()


def test_pool_priority_order():
    order: list[str] = []
    gate = threading.Event()

    def runner(job: Job):
        if job.params.get("blocker"):
            gate.wait(10)
        else:
            order.append(job.params["tag"])

    pool = WorkerPool(runner, workers=1)
    try:
        pool.submit(Job(kind="k", params={"blocker": True}))
        time.sleep(0.05)  # let the blocker occupy the worker
        low = pool.submit(Job(kind="k", params={"tag": "low"},
                              priority=0))
        high = pool.submit(Job(kind="k", params={"tag": "high"},
                               priority=5))
        mid = pool.submit(Job(kind="k", params={"tag": "mid"},
                              priority=1))
        gate.set()
        for job in (low, high, mid):
            wait_terminal(job)
        assert order == ["high", "mid", "low"]
    finally:
        gate.set()
        pool.shutdown()


def test_pool_queue_depth_gauge_and_duplicate_submit():
    gate = threading.Event()
    pool = WorkerPool(lambda job: gate.wait(10), workers=1)
    try:
        first = pool.submit(Job(kind="k"))
        time.sleep(0.05)
        pool.submit(Job(kind="k"))
        assert pool.metrics.gauge("queue_depth") == 1
        assert pool.metrics.gauge("jobs_running") == 1
        with pytest.raises(ServiceError, match="duplicate job id"):
            pool.submit(first)
    finally:
        gate.set()
        pool.shutdown()


def recount(pool: WorkerPool) -> tuple[int, int]:
    states = [job.state for job in pool.jobs()]
    return (states.count(JobState.QUEUED),
            states.count(JobState.RUNNING))


def gauges(pool: WorkerPool) -> tuple[int, int]:
    return (pool.metrics.gauge("queue_depth"),
            pool.metrics.gauge("jobs_running"))


def test_gauges_equal_a_recount_through_a_mixed_run():
    """Retries, cancels of queued and running jobs, a timeout and a
    recovery: the maintained counts never drift from a full scan."""
    gate = threading.Event()

    def runner(job: Job):
        mode = job.params.get("mode")
        if mode == "block":
            gate.wait(30)
        elif mode == "spin":
            while not job.cancel_requested.is_set():
                time.sleep(0.001)
        elif mode == "flaky" and job.attempts < 3:
            raise RuntimeError("again")
        return mode

    pool = WorkerPool(runner, workers=2)
    try:
        now = time.time()
        pool.recover([
            {"job_id": "job-000001", "kind": "k", "state": "done",
             "submitted_at": now - 9, "finished_at": now - 8},
            {"job_id": "job-000002", "kind": "k", "state": "running",
             "attempts": 1, "max_retries": 0, "submitted_at": now - 7},
            {"job_id": "job-000003", "kind": "k", "state": "running",
             "attempts": 1, "max_retries": 1, "backoff": 0.01,
             "submitted_at": now - 6},
            {"job_id": "job-000004", "kind": "k", "state": "queued",
             "params": {"mode": "block"}, "submitted_at": now - 5},
        ])
        spinner = pool.submit(Job(kind="k", params={"mode": "spin"}))
        queued = [pool.submit(Job(kind="k")) for _ in range(3)]
        timed = pool.submit(Job(kind="k", params={"mode": "block"},
                                timeout=0.05))
        flaky = pool.submit(Job(kind="k", params={"mode": "flaky"},
                                max_retries=3, backoff=0.01))
        deadline = time.monotonic() + 10
        pinned = (spinner, pool.get("job-000004"))
        while any(j.state is not JobState.RUNNING for j in pinned):
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with pool._cond:
            assert gauges(pool) == recount(pool)
            assert pool.queued_count() == recount(pool)[0] >= 5
        assert pool.cancel(queued[0].job_id)        # queued
        assert pool.cancel(spinner.job_id)          # running
        with pool._cond:
            assert gauges(pool) == recount(pool)
        gate.set()
        assert pool.wait_all(20)
        assert gauges(pool) == recount(pool) == (0, 0)
        assert pool.queued_count() == 0
        assert timed.state in (JobState.FAILED, JobState.DONE)
        assert flaky.state is JobState.DONE and flaky.attempts == 3
        assert pool.get("job-000002").state is JobState.FAILED
        assert pool.get("job-000003").state is JobState.DONE
    finally:
        gate.set()
        pool.shutdown()


def test_pool_keeps_a_bounded_number_of_finished_jobs(monkeypatch):
    from repro.service import scheduler
    monkeypatch.setattr(scheduler, "RETAINED_TERMINAL_JOBS", 20)
    gate = threading.Event()
    pool = WorkerPool(
        lambda job: gate.wait(30) if job.params.get("block") else None,
        workers=2)
    try:
        running = [pool.submit(Job(kind="k", params={"block": True}))
                   for _ in range(2)]
        deadline = time.monotonic() + 10
        while recount(pool)[1] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        parked = pool.submit(Job(kind="k"))
        # 70 jobs finish (cancelled while queued) around the three
        # live ones; only the 20 most recently finished stay.
        finished = [pool.submit(Job(kind="k")) for _ in range(70)]
        for job in finished:
            assert pool.cancel(job.job_id)
        kept = {job.job_id for job in pool.jobs()}
        assert kept == {j.job_id for j in running + [parked]
                        + finished[-20:]}
        with pytest.raises(JobNotFoundError, match="expired"):
            pool.get(finished[0].job_id)
        with pytest.raises(JobNotFoundError, match="expired"):
            pool.cancel(finished[49].job_id)
        with pytest.raises(JobNotFoundError, match="unknown job id"):
            pool.get("job-999999")
        assert pool.get(finished[50].job_id).state \
            is JobState.CANCELLED
        gate.set()
        assert pool.wait_all(20)
        # The live jobs were never evicted, whatever finished around
        # them; now that they finished they are the newest retained.
        for job in running + [parked]:
            assert pool.get(job.job_id).state is JobState.DONE
        assert len(pool.jobs()) == 20
        # New ids keep climbing past every forgotten one.
        fresh = pool.submit(Job(kind="k"))
        assert fresh.job_id not in {j.job_id for j in finished}
    finally:
        gate.set()
        pool.shutdown()


# ---------------------------------------------------------------------
# artifact cache


def write_input(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def test_cache_miss_then_hit(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    src = write_input(tmp_path / "in.bam", b"payload")
    builds = []

    def builder(entry_dir: str) -> None:
        builds.append(entry_dir)
        with open(os.path.join(entry_dir, "a.bamx"), "wb") as fh:
            fh.write(b"x" * 64)

    entry1, hit1 = cache.get_or_build(src, {"compress": False}, builder)
    entry2, hit2 = cache.get_or_build(src, {"compress": False}, builder)
    assert (hit1, hit2) == (False, True)
    assert len(builds) == 1
    assert entry1.key == entry2.key
    assert cache.metrics.counter("cache_hits") == 1
    assert cache.metrics.counter("cache_misses") == 1


def test_cache_key_depends_on_content_and_params(tmp_path):
    a = write_input(tmp_path / "a.bam", b"AAAA")
    b = write_input(tmp_path / "b.bam", b"AAAA")
    c = write_input(tmp_path / "c.bam", b"BBBB")
    assert cache_key(a, {"z": 1}) == cache_key(b, {"z": 1})
    assert cache_key(a, {"z": 1}) != cache_key(a, {"z": 2})
    assert cache_key(a, {"z": 1}) != cache_key(c, {"z": 1})


def test_cache_lru_eviction(tmp_path):
    def builder(entry_dir: str) -> None:
        with open(os.path.join(entry_dir, "blob"), "wb") as fh:
            fh.write(b"x" * 1000)

    # The cap fits two entries (1000-byte blob + digest-bearing meta
    # each) but not three.
    cache = ArtifactCache(tmp_path / "cache", max_bytes=3000)
    srcs = [write_input(tmp_path / f"in{i}.bam", bytes([i]) * 8)
            for i in range(3)]
    for src in srcs:
        cache.get_or_build(src, {}, builder)
    # Three ~1 KiB entries exceed the cap: the oldest one is evicted.
    assert cache.metrics.counter("cache_evictions") == 1
    assert cache.lookup(srcs[0], {}) is None
    assert cache.lookup(srcs[1], {}) is not None
    assert cache.lookup(srcs[2], {}) is not None
    # Touch entry 1, then add a fourth: entry 2 is now the LRU victim.
    cache.get_or_build(srcs[1], {}, builder)
    src3 = write_input(tmp_path / "in3.bam", b"\x09" * 8)
    cache.get_or_build(src3, {}, builder)
    assert cache.lookup(srcs[2], {}) is None
    assert cache.lookup(srcs[1], {}) is not None


def test_cache_concurrent_build_runs_once(tmp_path):
    src = write_input(tmp_path / "in.bam", b"shared")
    cache = ArtifactCache(tmp_path / "cache")
    builds = []
    build_lock = threading.Lock()

    def builder(entry_dir: str) -> None:
        with build_lock:
            builds.append(entry_dir)
        time.sleep(0.05)
        with open(os.path.join(entry_dir, "a.bamx"), "wb") as fh:
            fh.write(b"y" * 16)

    results = []

    def worker() -> None:
        results.append(cache.get_or_build(src, {}, builder))

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(builds) == 1
    assert sum(1 for _, hit in results if not hit) == 1
    keys = {entry.key for entry, _ in results}
    assert len(keys) == 1


def test_cache_survives_restart(tmp_path):
    src = write_input(tmp_path / "in.bam", b"persist")

    def builder(entry_dir: str) -> None:
        with open(os.path.join(entry_dir, "a.bamx"), "wb") as fh:
            fh.write(b"z" * 32)

    first = ArtifactCache(tmp_path / "cache")
    first.get_or_build(src, {}, builder)
    reopened = ArtifactCache(tmp_path / "cache")
    entry, hit = reopened.get_or_build(
        src, {}, lambda d: pytest.fail("must not rebuild"))
    assert hit is True
    assert entry.files() and entry.files()[0].endswith("a.bamx")


# ---------------------------------------------------------------------
# conversion service end to end


@pytest.fixture()
def service(tmp_path):
    svc = ConversionService(tmp_path / "svc", workers=2)
    yield svc
    svc.close()


def part_bytes(out_dir) -> dict[str, bytes]:
    """{part file name: content} for comparing conversion outputs."""
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))
            if ".part" in name}


def test_service_validates_submissions(service, bam_file, sam_file,
                                      tmp_path):
    with pytest.raises(ServiceError, match="unknown job kind"):
        service.submit("frobnicate", {"input": bam_file})
    with pytest.raises(ServiceError, match="'input'"):
        service.submit("convert", {})
    with pytest.raises(ServiceError, match="'region'"):
        service.submit("region", {"input": bam_file, "target": "bed",
                                  "out_dir": "/tmp/x"})
    with pytest.raises(JobNotFoundError):
        service.status("job-999999")
    # Every other bad parameter fails the submission too, and no job is
    # journaled: it used to fail in a body worker on every attempt, or
    # be misread (nprocs true -> 1, 2.7 -> 2; compress "false" -> a
    # compressed store).
    journaled = ConversionService(tmp_path / "j", workers=1,
                                  journal_path=tmp_path / "j.log")
    base = {"target": "bed", "out_dir": str(tmp_path / "o")}
    try:
        for params, detail in [
                ({"input": sam_file, "nprocs": 0}, "nprocs"),
                ({"input": sam_file, "nprocs": "two"}, "nprocs"),
                ({"input": sam_file, "nprocs": True}, "nprocs"),
                ({"input": sam_file, "nprocs": 2.7}, "nprocs"),
                ({"input": sam_file, "executor": "gpu"}, "executor"),
                ({"input": sam_file, "target": "bogus"}, "bogus"),
                ({"input": sam_file, "filter": "((("}, "((("),
                ({"input": bam_file, "store_format": "zip"}, "zip"),
                ({"input": bam_file, "mode": "sideways"}, "sideways"),
                ({"input": bam_file, "compress": "false"}, "compress")]:
            with pytest.raises(ServiceError, match=re.escape(detail)):
                journaled.submit("convert", {**base, **params}, max_retries=2)
        # Admitted and journaled before the knob table: the first
        # two failed in the body on every attempt, the third with a bare
        # TypeError, the last two finished "done" with the typo or the
        # pipeline ignored.
        region, sam = {**base, "input": bam_file}, {**base, "input": sam_file}
        for kind, params, detail in [
                ("region", {**region, "region": "chr1:,,"},
                 "region 'chr1:,,'"),
                ("region", {**region, "region": 5}, "region value 5"),
                ("convert", {**sam, "out_dir": 5}, "out_dir value 5"),
                ("convert", {**sam, "nproc": 4}, "'nproc'"),
                ("convert", {**sam, "pipeline": "record"}, "'pipeline'")]:
            with pytest.raises(ServiceError, match=re.escape(detail)):
                journaled.submit(kind, params)
        assert journaled.status() == []
    finally:
        journaled.close()
    assert replay(tmp_path / "j.log")[0] == {}


def test_region_job_on_sam_says_what_a_region_job_reads(service, sam_file):
    """It used to be told "cannot tell the source format ... expected a
    .sam, ..." by the worker; now the door says what a region job
    reads, with the registry's one rule."""
    with pytest.raises(ServiceError, match=(
            r"a region job reads \.bam, \.bamx, \.bamz, \.bamc; got '"
            + sam_file)):
        service.submit("region", {"input": sam_file, "target": "bed",
                                  "region": "chr1:1-100",
                                  "out_dir": "/tmp/x"})
    with pytest.raises(ServiceError, match=r"a preprocess job reads \.bam;"):
        service.submit("preprocess", {"input": sam_file})


def test_service_convert_matches_batch_cli(service, bam_file, tmp_path):
    from repro.cli import main
    cli_out = tmp_path / "cli-out"
    assert main(["convert", bam_file, "--target", "sam",
                 "--out-dir", str(cli_out), "--work-dir",
                 str(tmp_path / "cli-work"), "--nprocs", "2"]) == 0
    svc_out = tmp_path / "svc-out"
    job = service.submit("convert", {"input": bam_file, "target": "sam",
                                     "out_dir": str(svc_out),
                                     "nprocs": 2})
    snap = service.wait(job.job_id, timeout=60)
    assert snap["state"] == "done", snap["error"]
    assert snap["result"]["cache"] == "miss"
    cli_parts = part_bytes(cli_out)
    svc_parts = part_bytes(svc_out)
    assert cli_parts.keys() == svc_parts.keys()
    assert cli_parts == svc_parts


def test_warm_cache_region_skips_preprocessing(service, bam_file,
                                               tmp_path):
    """Acceptance: a warm-cache partial-region job must not re-run the
    sequential preprocessing phase (asserted via metrics counters)."""
    first = service.submit("region", {
        "input": bam_file, "region": "chr1:1-30000", "target": "bed",
        "out_dir": str(tmp_path / "r1")})
    snap = service.wait(first.job_id, timeout=60)
    assert snap["state"] == "done", snap["error"]
    assert snap["result"]["cache"] == "miss"
    assert service.metrics.counter("preprocess_runs") == 1

    second = service.submit("region", {
        "input": bam_file, "region": "chr1:1-30000", "target": "bed",
        "out_dir": str(tmp_path / "r2")})
    snap2 = service.wait(second.job_id, timeout=60)
    assert snap2["state"] == "done", snap2["error"]
    assert snap2["result"]["cache"] == "hit"
    # The preprocessing counter did not move: warm path skipped it.
    assert service.metrics.counter("preprocess_runs") == 1
    assert service.metrics.counter("cache_hits") >= 1
    assert part_bytes(tmp_path / "r1") == part_bytes(tmp_path / "r2")


def test_region_matches_batch_cli(service, bam_file, tmp_path):
    from repro.cli import main
    work = tmp_path / "work"
    assert main(["preprocess", bam_file, "--work-dir", str(work)]) == 0
    (bamx,) = sorted(str(p) for p in work.glob("*.bamx"))
    cli_out = tmp_path / "cli-region"
    assert main(["region", bamx, "--region", "chr1:1-30000",
                 "--target", "bed", "--out-dir", str(cli_out),
                 "--nprocs", "2"]) == 0
    job = service.submit("region", {
        "input": bam_file, "region": "chr1:1-30000", "target": "bed",
        "out_dir": str(tmp_path / "svc-region"), "nprocs": 2})
    snap = service.wait(job.job_id, timeout=60)
    assert snap["state"] == "done", snap["error"]
    assert part_bytes(cli_out) == part_bytes(tmp_path / "svc-region")


def test_concurrent_submitters_byte_identical(service, bam_file,
                                              tmp_path):
    """Many threads submitting the same work must share one
    preprocessing run and all produce identical bytes."""
    n = 5
    jobs: list = [None] * n

    def submitter(i: int) -> None:
        jobs[i] = service.submit("region", {
            "input": bam_file, "region": "chr2:1-20000",
            "target": "bedgraph",
            "out_dir": str(tmp_path / f"out{i}")})

    threads = [threading.Thread(target=submitter, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snaps = [service.wait(job.job_id, timeout=120) for job in jobs]
    assert all(s["state"] == "done" for s in snaps), snaps
    assert service.metrics.counter("preprocess_runs") == 1
    reference = part_bytes(tmp_path / "out0")
    assert reference
    for i in range(1, n):
        assert part_bytes(tmp_path / f"out{i}") == reference


def test_service_preprocess_job_warms_cache(service, bam_file,
                                            tmp_path):
    job = service.submit("preprocess", {"input": bam_file})
    snap = service.wait(job.job_id, timeout=60)
    assert snap["state"] == "done", snap["error"]
    assert snap["result"]["cache"] == "miss"
    assert any(p.endswith(".bamx") for p in snap["result"]["artifacts"])
    follow = service.submit("convert", {
        "input": bam_file, "target": "bed",
        "out_dir": str(tmp_path / "out")})
    snap2 = service.wait(follow.job_id, timeout=60)
    assert snap2["result"]["cache"] == "hit"
    assert service.metrics.counter("preprocess_runs") == 1


# ---------------------------------------------------------------------
# the process boundary: job bodies run in the service's body workers


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_bodies_match_in_process_converters(bam_file, sam_file,
                                                 tmp_path, workers):
    """Every job shape, run in a body worker, writes the bytes the
    converter writes when called in this process with the same
    arguments."""
    from repro.core import BamConverter, SamConverter
    store, baix, _ = BamConverter().preprocess(bam_file, tmp_path / "work")
    want = {
        "first-sight": BamConverter().convert(
            store, "sam", tmp_path / "want-first-sight"),
        "seen": BamConverter().convert(store, "bed", tmp_path / "want-seen"),
        "region-bed": BamConverter().convert_region(
            store, baix, "chr1:1-30000", "bed", tmp_path / "want-region-bed"),
        "region-fastq": BamConverter().convert_region(
            store, baix, "chr2:1-20000", "fastq",
            tmp_path / "want-region-fastq"),
        "sam": SamConverter().convert(sam_file, "bed", tmp_path / "want-sam",
                                      nprocs=2),
    }
    svc = ConversionService(tmp_path / "svc", workers=workers)
    try:
        def submit(name, kind, **params):
            return name, svc.submit(kind, {
                "out_dir": str(tmp_path / f"got-{name}"), **params})

        first = submit("first-sight", "convert", input=bam_file,
                       target="sam")
        assert svc.wait(first[1].job_id, 60)["result"]["cache"] == "miss"
        jobs = [first,
                submit("seen", "convert", input=bam_file, target="bed"),
                submit("region-bed", "region", input=bam_file,
                       region="chr1:1-30000", target="bed"),
                submit("region-fastq", "region", input=bam_file,
                       region="chr2:1-20000", target="fastq"),
                submit("sam", "convert", input=sam_file, target="bed",
                       nprocs=2)]
        for name, job in jobs:
            snap = svc.wait(job.job_id, 60)
            assert snap["state"] == "done", (name, snap["error"])
            assert snap["result"]["records"] == want[name].records
            got = part_bytes(tmp_path / f"got-{name}")
            assert got and got == part_bytes(tmp_path / f"want-{name}"), name
        assert svc.metrics.counter("preprocess_runs") == 1
        assert svc.metrics.gauge("body_worker_starts") == workers
    finally:
        svc.close()


def test_job_with_process_ranks_builds_its_own_pool(service, sam_file,
                                                    tmp_path):
    """A job body already runs in a body worker; one that itself asks
    for ``nprocs=2, executor="process"`` builds its own pool, and the
    daemon's shared executor is never touched."""
    before = shared_executor_stats()
    bodies = service.metrics.gauge("body_worker_tasks_completed")
    snaps = {}
    for executor in ("simulate", "process"):
        job = service.submit("convert", {
            "input": sam_file, "target": "bed", "nprocs": 2,
            "shards": 2, "executor": executor,
            "out_dir": str(tmp_path / executor)})
        snaps[executor] = service.wait(job.job_id, 60)
        assert snaps[executor]["state"] == "done", snaps[executor]["error"]
    assert part_bytes(tmp_path / "process") == \
        part_bytes(tmp_path / "simulate")
    assert len(part_bytes(tmp_path / "process")) == 2
    shards = [s for s in service.trace(snaps["process"]["job_id"])
              if s["name"] == "shard"]
    assert len(shards) == 4         # ran as 2 ranks x 2 shards, traced
    # The body workers ran one body per job; the shared executor of
    # this process saw none of them.
    assert service.metrics.gauge("body_worker_tasks_completed") \
        == bodies + 2
    assert service.metrics.gauge("body_worker_starts") == 2
    assert shared_executor_stats().get("calls", 0) == before.get("calls", 0)


def test_job_trace_spans_cross_the_process_boundary(service, bam_file,
                                                    tmp_path):
    """One tree per attempt: the spans a body records in its pool
    process hang off the attempt's ``job.<kind>`` span."""
    for out in ("prime", "traced"):
        job = service.submit("region", {
            "input": bam_file, "region": "chr1:1-30000", "target": "bed",
            "out_dir": str(tmp_path / out)})
        assert service.wait(job.job_id, 60)["state"] == "done"
    spans = service.trace(job.job_id)
    by_id = {s["span_id"]: s for s in spans}
    assert len(by_id) == len(spans)

    def path(name):
        (span,) = [s for s in spans if s["name"] == name]
        names = [name]
        while span["parent_id"] is not None:
            span = by_id[span["parent_id"]]
            names.append(span["name"])
        return names[::-1]

    assert path("job.body") == ["job.region", "job.body"]
    assert path("locate") == ["job.region", "job.body", "convert.region",
                              "locate"]
    assert path("write") == ["job.region", "job.body", "convert.region",
                             "rank", "write"]
    (body,) = [s for s in spans if s["name"] == "job.body"]
    assert body["args"]["task"] == "_convert_body"
    # Worker-side spans sit on the daemon's timeline, inside the attempt.
    root = by_id[body["parent_id"]]
    assert root["start"] <= body["start"] <= body["end"] <= root["end"]
    assert service.metrics.snapshot()["timers"]["span.job.body"]["count"] >= 2


def test_a_service_never_loads_the_tuner(sam_file, bam_file, tmp_path):
    """A job runs the shard count it is given: a daemon that has run a
    SAM convert and a BAM region job has not imported the cost
    model."""
    import repro
    probe = (
        "import sys\n"
        "from repro.service import ConversionService\n"
        f"svc = ConversionService({str(tmp_path / 'svc')!r}, workers=1)\n"
        "try:\n"
        "    for kind, params in (\n"
        f"            ('convert', {{'input': {sam_file!r}, 'shards': 2}}),\n"
        f"            ('region', {{'input': {bam_file!r},\n"
        "                         'region': 'chr1:1-30000'})):\n"
        "        job = svc.submit(kind, dict(params, target='bed',\n"
        f"                         out_dir={str(tmp_path / 'o')!r} + kind))\n"
        "        final = svc.wait(job.job_id, 60)\n"
        "        assert final['state'] == 'done', final['error']\n"
        "finally:\n"
        "    svc.close()\n"
        "print('LOADED', 'repro.runtime.autotune' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("LOADED False"), done.stdout


# ---------------------------------------------------------------------
# daemon + protocol


@pytest.fixture()
def daemon(tmp_path):
    svc = ConversionService(tmp_path / "svc", workers=2)
    sock = str(tmp_path / "repro.sock")
    d = GatewayServer(svc, sock)
    d.start()
    yield d
    d.stop()


def test_daemon_roundtrip(daemon, bam_file, tmp_path):
    with ServiceClient(daemon.unix_path) as client:
        assert client.ping()
        job = client.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "out")})
        assert job["state"] in ("queued", "running")
        final = client.wait(job["job_id"], timeout=60)
        assert final["state"] == "done"
        assert final["result"]["records"] > 0
        all_jobs = client.status()
        assert [j["job_id"] for j in all_jobs] == [job["job_id"]]
        metrics = client.metrics()
        assert metrics["counters"]["jobs_done"] == 1
        assert client.cancel(job["job_id"]) is False


def test_daemon_error_paths(daemon):
    with ServiceClient(daemon.unix_path) as client:
        with pytest.raises(ServiceError, match="unknown op"):
            client.request("explode")
        with pytest.raises(JobNotFoundError):
            client.status("job-424242")
        with pytest.raises(ServiceError, match="unknown job kind"):
            client.submit("nope", {"input": "x"})
        with pytest.raises(ServiceError, match="missing field"):
            client.request("wait")


def test_daemon_rejects_malformed_line(daemon):
    import socket as socketlib
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.connect(daemon.unix_path)
    try:
        sock.sendall(b"this is not json\n")
        data = sock.makefile("rb").readline()
        import json
        response = json.loads(data)
        assert response["ok"] is False
        assert "bad protocol line" in response["error"]
    finally:
        sock.close()


def test_client_connection_refused(tmp_path):
    with pytest.raises(ServiceError, match="cannot reach service"):
        ServiceClient(str(tmp_path / "nothing.sock"))


# ---------------------------------------------------------------------
# retry delay-heap drain on cancel / shutdown (regression)


def test_cancel_parked_retry_drains_delay_heap():
    """Cancelling a job parked in the retry delay-heap must remove it
    from the heap — a stale entry would resurrect the job later."""
    pool = WorkerPool(lambda job: 1 / 0, workers=1)
    try:
        job = pool.submit(Job(kind="k", max_retries=3, backoff=30.0))
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with pool._cond:
                if pool._delayed:
                    break
            time.sleep(0.01)
        with pool._cond:
            assert pool._delayed, "job never parked for retry"
        assert pool.cancel(job.job_id) is True
        wait_terminal(job, 5)
        assert job.state is JobState.CANCELLED
        with pool._cond:
            assert pool._delayed == [] and pool._ready == []
        # With the heap drained, wait_all returns immediately instead
        # of blocking until the 30 s backoff would have fired.
        assert pool.wait_all(timeout=1.0)
        assert pool.metrics.gauge("queue_depth") == 0
    finally:
        pool.shutdown()


def test_shutdown_finishes_parked_retries_as_cancelled():
    """shutdown() must not orphan retries parked in the delay heap:
    they finish CANCELLED instead of hanging QUEUED forever."""
    pool = WorkerPool(lambda job: 1 / 0, workers=1)
    job = pool.submit(Job(kind="k", max_retries=3, backoff=30.0))
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        with pool._cond:
            if pool._delayed:
                break
        time.sleep(0.01)
    pool.shutdown()
    wait_terminal(job, 5)
    assert job.state is JobState.CANCELLED
    assert job.done.is_set()


def test_retry_during_shutdown_is_cancelled_not_parked():
    """An attempt that fails while the pool is stopping must not park a
    retry the drained heap will never serve."""
    release = threading.Event()

    def runner(job: Job):
        release.wait(10)
        raise RuntimeError("fail after shutdown began")

    pool = WorkerPool(runner, workers=1)
    job = pool.submit(Job(kind="k", max_retries=3, backoff=0.01))
    time.sleep(0.05)                    # let the attempt start
    stopper = threading.Thread(target=pool.shutdown)
    stopper.start()
    time.sleep(0.05)                    # shutdown sets _stopping
    release.set()
    stopper.join(10)
    assert not stopper.is_alive()
    wait_terminal(job, 5)
    assert job.state is JobState.CANCELLED


# ---------------------------------------------------------------------
# per-job span traces


def test_pool_records_job_trace_and_span_timers():
    from repro.runtime.tracing import get_tracer

    def runner(job: Job):
        with get_tracer().span("step", "test"):
            time.sleep(0.002)
        return "ok"

    pool = WorkerPool(runner, workers=1)
    try:
        job = wait_terminal(pool.submit(Job(kind="work")))
        assert job.state is JobState.DONE
        names = [s["name"] for s in job.trace]
        assert "job.work" in names and "step" in names
        root = next(s for s in job.trace if s["name"] == "job.work")
        step = next(s for s in job.trace if s["name"] == "step")
        assert step["parent_id"] == root["span_id"]
        snap = pool.metrics.snapshot()
        assert "span.job.work" in snap["timers"]
        assert "span.step" in snap["timers"]
        # Trace stays out of the wire dict (can be large).
        assert "trace" not in job.to_dict()
    finally:
        pool.shutdown()


def test_pool_trace_disabled():
    pool = WorkerPool(lambda job: "ok", workers=1, trace_jobs=False)
    try:
        job = wait_terminal(pool.submit(Job(kind="work")))
        assert job.trace == []
        assert "span.job.work" not in pool.metrics.snapshot()["timers"]
    finally:
        pool.shutdown()


def test_failed_attempts_keep_their_spans():
    pool = WorkerPool(lambda job: 1 / 0, workers=1)
    try:
        job = pool.submit(Job(kind="k", max_retries=2, backoff=0.01))
        wait_terminal(job)
        assert job.state is JobState.FAILED
        roots = [s for s in job.trace if s["name"] == "job.k"]
        assert len(roots) == job.attempts   # one span tree per attempt
        assert all(s["args"]["error"] == "ZeroDivisionError"
                   for s in roots)
        attempts = sorted(s["args"]["attempt"] for s in roots)
        assert attempts == list(range(1, job.attempts + 1))
    finally:
        pool.shutdown()


def test_daemon_trace_op(daemon, bam_file, tmp_path):
    with ServiceClient(daemon.unix_path) as client:
        job = client.submit("convert", {
            "input": bam_file, "target": "bed",
            "out_dir": str(tmp_path / "out")})
        client.wait(job["job_id"], timeout=60)
        spans = client.trace(job["job_id"])
        names = {s["name"] for s in spans}
        assert "job.convert" in names and "convert" in names
        with pytest.raises(JobNotFoundError):
            client.trace("job-424242")
