"""Tests for crash recovery: pool-level journal replay adoption,
recovered-job cancellation, job-id seeding across restarts, and
service-level restarts that keep job ids and states stable."""

from __future__ import annotations

import secrets
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import ConversionService
from repro.service.jobs import Job, JobState, next_job_id, \
    seed_job_counter
from repro.service.journal import JobJournal, replay
from repro.service.scheduler import WorkerPool

from .runners import threaded


@pytest.fixture(autouse=True)
def fresh_id_nonce():
    """Tests below re-seed the process-global id counter; restore a
    collision-free configuration afterwards no matter what."""
    yield
    seed_job_counter(0, nonce=secrets.token_hex(2) + "-")


def spec(job_id, state="queued", attempts=0, max_retries=0,
         submitted_at=None, **extra):
    base = {
        "job_id": job_id, "kind": "k", "params": {},
        "priority": 0, "timeout": None, "max_retries": max_retries,
        "backoff": 0.01, "state": state, "attempts": attempts,
        "result": None, "error": None,
        "submitted_at": submitted_at if submitted_at is not None
        else time.time(),
        "started_at": None, "finished_at": None,
    }
    base.update(extra)
    return base


# ---------------------------------------------------------------------
# pool-level recovery


def test_recover_categories():
    pool = WorkerPool(threaded(lambda job: {"ran": job.job_id}), workers=2)
    try:
        counts = pool.recover([
            spec("job-000001", state="queued"),
            spec("job-000002", state="running", attempts=1,
                 max_retries=2),
            spec("job-000003", state="running", attempts=1,
                 max_retries=0),
            spec("job-000004", state="done", attempts=1,
                 result={"kept": True}, finished_at=time.time()),
        ])
        # job 3 exhausted its retries when the crash interrupted it.
        assert counts == {"terminal": 1, "requeued": 1, "rerun": 1,
                          "failed": 1, "invalid": 0}
        assert pool.wait_all(10)
        assert pool.get("job-000001").state is JobState.DONE
        rerun = pool.get("job-000002")
        assert rerun.state is JobState.DONE
        assert rerun.result == {"ran": "job-000002"}
        assert rerun.error is None          # interruption note cleared
        assert rerun.attempts == 2          # the lost attempt counted
        failed = pool.get("job-000003")
        assert failed.state is JobState.FAILED
        assert "interrupted by service restart" in failed.error
        kept = pool.get("job-000004")
        assert kept.state is JobState.DONE
        assert kept.result == {"kept": True}
        assert kept.done.is_set()
        assert pool.metrics.counter("jobs_recovered") == 2
        assert pool.metrics.counter("jobs_recovered_failed") == 1
    finally:
        pool.shutdown()


def test_recover_skips_invalid_specs():
    """A journal record that is valid JSON but semantically bad
    (unknown state, missing kind) must not abort recovery — the
    daemon still starts, the bad spec is counted and skipped."""
    pool = WorkerPool(threaded(lambda job: {"ran": job.job_id}), workers=1)
    try:
        bad_state = spec("job-000001", state="bogus")
        missing_kind = spec("job-000002")
        del missing_kind["kind"]
        counts = pool.recover([bad_state, missing_kind,
                               spec("job-000003", state="queued")])
        assert counts["invalid"] == 2
        assert counts["requeued"] == 1
        assert pool.metrics.counter("jobs_recover_errors") == 2
        assert pool.wait_all(10)
        assert pool.get("job-000003").state is JobState.DONE
        with pytest.raises(Exception, match="unknown job id"):
            pool.get("job-000001")
    finally:
        pool.shutdown()


def test_recover_rejects_duplicate_ids():
    pool = WorkerPool(threaded(lambda job: None), workers=1)
    try:
        pool.recover([spec("job-000001")])
        with pytest.raises(ServiceError, match="duplicate job id"):
            pool.recover([spec("job-000001")])
    finally:
        pool.shutdown()


def test_recovered_job_can_be_cancelled():
    gate = threading.Event()
    pool = WorkerPool(threaded(lambda job: gate.wait(30)), workers=1)
    try:
        # The high-priority job pins the single worker; the other
        # recovered job is still queued and must cancel immediately.
        pool.recover([
            spec("job-000001", state="queued", priority=5),
            spec("job-000002", state="queued"),
        ])
        deadline = time.monotonic() + 10
        while pool.get("job-000001").state is not JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert pool.cancel("job-000002") is True
        assert pool.get("job-000002").state is JobState.CANCELLED
        gate.set()
        assert pool.wait_all(10)
    finally:
        gate.set()
        pool.shutdown()


def test_pool_restart_with_journal_finishes_everything(tmp_path):
    path = tmp_path / "jobs.jsonl"
    gate = threading.Event()
    journal1 = JobJournal(path, fsync="never")
    pool1 = WorkerPool(threaded(lambda job: gate.wait(30)), workers=1,
                       journal=journal1)
    running = pool1.submit(Job(kind="k", max_retries=1, backoff=0.01))
    queued = pool1.submit(Job(kind="k", max_retries=1, backoff=0.01))
    deadline = time.monotonic() + 10
    while running.state is not JobState.RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.005)
    # Simulate the crash: abandon the pool mid-flight (its worker is
    # a daemon thread parked on the gate) and reopen the journal the
    # way a fresh process would.
    journal1.close()
    specs, stats = replay(path)
    assert specs[running.job_id]["state"] == "running"
    assert specs[queued.job_id]["state"] == "queued"

    journal2 = JobJournal(path, fsync="never")
    pool2 = WorkerPool(threaded(lambda job: {"done": job.job_id}), workers=1,
                       journal=journal2)
    try:
        counts = pool2.recover(list(specs.values()))
        assert counts["rerun"] == 1 and counts["requeued"] == 1
        assert pool2.wait_all(10)
        for job_id in (running.job_id, queued.job_id):
            job = pool2.get(job_id)
            assert job.state is JobState.DONE
            assert job.result == {"done": job_id}
    finally:
        gate.set()
        pool2.shutdown()
        journal2.close()
        pool1.shutdown(wait=False)


def test_compaction_never_loses_racing_submits(tmp_path):
    """Regression: compaction used to snapshot jobs() before taking
    the journal lock, so a submit landing in that window was erased
    by the rewrite.  Hammer submits against forced compactions and
    check every acknowledged submit survives replay."""
    path = tmp_path / "jobs.jsonl"
    journal = JobJournal(path, fsync="never", compact_threshold=2)
    pool = WorkerPool(threaded(lambda job: None), workers=1, journal=journal)
    submitted: list[str] = []
    stop = threading.Event()

    def compact_loop():
        while not stop.is_set():
            pool.compact_journal(force=True)

    compactor = threading.Thread(target=compact_loop, daemon=True)
    compactor.start()
    try:
        for i in range(200):
            job = Job(kind="k", job_id=f"job-{i + 1:06d}")
            pool.submit(job)
            submitted.append(job.job_id)
    finally:
        stop.set()
        compactor.join(10)
        assert pool.wait_all(30)
        pool.shutdown()
        journal.close()
    specs, _ = replay(path)
    missing = [job_id for job_id in submitted if job_id not in specs]
    assert not missing, f"compaction lost acked submits: {missing}"


def test_compaction_and_replay_round_trip_the_retained_set(
        tmp_path, monkeypatch):
    """Forgotten jobs leave the journal at compaction; what replay
    gives back is exactly what the pool still answers for, plus the
    floor that keeps new ids clear of the forgotten ones."""
    from repro.service import scheduler
    monkeypatch.setattr(scheduler, "RETAINED_TERMINAL_JOBS", 10)
    path = tmp_path / "jobs.jsonl"
    gate = threading.Event()
    journal = JobJournal(path, fsync="never")
    pool = WorkerPool(threaded(lambda job: gate.wait(30)), workers=1,
                      journal=journal)
    try:
        jobs = [pool.submit(Job(kind="k", job_id=f"job-{i:06d}"))
                for i in range(1, 16)]
        # The highest id finishes first, so it is the first forgotten.
        assert pool.cancel("job-000015")
        gate.set()
        assert pool.wait_all(20)
        retained = {job.job_id for job in pool.jobs()}
        assert retained == {f"job-{i:06d}" for i in range(5, 15)}
        assert pool.compact_journal(force=True)
        specs, stats = replay(path)
        assert set(specs) == retained
        assert {s["state"] for s in specs.values()} == {"done"}
        assert stats["id_floor"] == 15 and stats["bad_lines"] == 0
    finally:
        gate.set()
        pool.shutdown()
        journal.close()

    # A restart on that journal answers "expired" for the forgotten
    # ids and never hands one of them out again.
    svc = ConversionService(tmp_path / "svc", workers=1,
                            journal_path=path)
    try:
        assert {j["job_id"] for j in svc.status()} == retained
        with pytest.raises(Exception, match="expired"):
            svc.status("job-000015")
        fresh = svc.pool.submit(Job(kind="preprocess",
                                    params={"input": "/nonexistent"}))
        assert fresh.job_id == "job-000016"
        assert jobs[14].job_id == "job-000015"
    finally:
        svc.close()


def test_recover_applies_the_retention_bound_oldest_finished_first(
        monkeypatch):
    from repro.service import scheduler
    monkeypatch.setattr(scheduler, "RETAINED_TERMINAL_JOBS", 3)
    pool = WorkerPool(threaded(lambda job: None), workers=1)
    try:
        now = time.time()
        # Submission order is the reverse of finishing order.
        counts = pool.recover([
            spec(f"job-{i:06d}", state="done", submitted_at=now - i,
                 finished_at=now + i) for i in range(1, 7)]
            + [spec("job-000007", state="queued",
                    submitted_at=now - 60)], id_floor=2)
        assert counts["terminal"] == 6 and counts["requeued"] == 1
        assert pool.wait_all(10)
        # Job 7 finished last; before it, jobs 6 and 5 by finished_at.
        assert {j.job_id for j in pool.jobs()} == \
            {"job-000005", "job-000006", "job-000007"}
        with pytest.raises(Exception, match="expired"):
            pool.get("job-000004")
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------
# job-id seeding


def test_seed_job_counter_continues_sequence():
    seed_job_counter(41, nonce="")
    assert next_job_id() == "job-000042"
    assert next_job_id() == "job-000043"


def test_unseeded_ids_carry_a_nonce():
    seed_job_counter(0, nonce="feed-")
    assert next_job_id() == "job-feed-000001"


def test_seed_job_counter_rejects_negative_floor():
    with pytest.raises(ServiceError, match="must be >= 0"):
        seed_job_counter(-1)


# ---------------------------------------------------------------------
# service-level restart (end to end, real conversions)


def test_service_restart_preserves_ids_and_results(tmp_path,
                                                   sam_file):
    work_dir = tmp_path / "svc"
    journal = tmp_path / "journal.jsonl"
    out_dir = tmp_path / "out"

    svc1 = ConversionService(work_dir, workers=2,
                             journal_path=journal)
    try:
        first = svc1.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(out_dir / "a")})
        second = svc1.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(out_dir / "b")})
        assert first.job_id == "job-000001"
        assert second.job_id == "job-000002"
        assert svc1.wait(first.job_id, 30)["state"] == "done"
        assert svc1.wait(second.job_id, 30)["state"] == "done"
        done_result = svc1.status(first.job_id)["result"]
    finally:
        svc1.close()

    svc2 = ConversionService(work_dir, workers=2,
                             journal_path=journal)
    try:
        # Finished jobs survive the restart under their original ids,
        # with their results intact.
        snapshot = svc2.status(first.job_id)
        assert snapshot["state"] == "done"
        assert snapshot["result"] == done_result
        assert svc2.status(second.job_id)["state"] == "done"
        # New ids continue the journal's sequence — no collisions.
        third = svc2.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(out_dir / "c")})
        assert third.job_id == "job-000003"
        assert svc2.wait(third.job_id, 30)["state"] == "done"
    finally:
        svc2.close()


def test_service_restart_reruns_interrupted_job(tmp_path, sam_file):
    """A journal holding a RUNNING record (the daemon died mid-attempt)
    is re-run to completion by the next incarnation."""
    import json

    work_dir = tmp_path / "svc"
    journal = tmp_path / "journal.jsonl"
    out_dir = tmp_path / "out"
    interrupted = spec(
        "job-000007", kind="convert", state="running", attempts=1,
        max_retries=1,
        params={"input": sam_file, "target": "bed",
                "out_dir": str(out_dir)})
    journal.write_text(json.dumps(
        {"event": "submit", "job": interrupted}) + "\n")

    svc = ConversionService(work_dir, workers=1,
                            journal_path=journal)
    try:
        final = svc.wait("job-000007", 30)
        assert final["state"] == "done"
        assert final["attempts"] == 2
        assert final["result"]["records"] > 0
        assert svc.metrics.gauge("journal_recovered_jobs") == 1
        # New submissions never collide with the recovered id.
        assert svc.submit("convert", {
            "input": sam_file, "target": "bed",
            "out_dir": str(out_dir / "fresh")}).job_id == "job-000008"
    finally:
        svc.close()


def _recover_an_auto_job(tmp_path, sam_file, name):
    """Recover a journaled convert job whose *name* parameter is
    ``"auto"``: it bypasses ``submit`` and must fail with the door's
    sentence, not a traceback from inside a converter, and write
    nothing."""
    import json

    journal = tmp_path / "journal.jsonl"
    journal.write_text(json.dumps({"event": "submit", "job": spec(
        "job-000003", kind="convert",
        params={"input": sam_file, "target": "bed",
                "out_dir": str(tmp_path / "out"), name: "auto"})}) + "\n")
    svc = ConversionService(tmp_path / "svc", workers=1,
                            journal_path=journal)
    try:
        final = svc.wait("job-000003", 30)
    finally:
        svc.close()
    assert final["state"] == "failed"
    assert final["error"].endswith(f"invalid {name} value 'auto': "
                                   f"expected a positive integer")
    assert "Traceback" not in final["error"]
    assert not (tmp_path / "out").exists()


def test_recovered_job_with_batch_size_auto_fails_with_the_message(
        tmp_path, sam_file):
    """A journal written while ``"batch_size": "auto"`` was still a
    value."""
    _recover_an_auto_job(tmp_path, sam_file, "batch_size")


def test_recovered_job_with_shards_auto_fails_with_the_message(
        tmp_path, sam_file):
    """A journal written while ``"shards": "auto"`` was still a
    value."""
    _recover_an_auto_job(tmp_path, sam_file, "shards")
