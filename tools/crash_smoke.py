#!/usr/bin/env python
"""Crash-recovery smoke test of the journaled conversion service.

Boots ``repro serve --journal``, fires a burst of BAM conversion jobs
(through the artifact cache), SIGKILLs the daemon mid-burst, restarts
it against the same work dir and journal, and verifies the durability
contract end to end:

* every job recorded in the journal reaches a terminal state after the
  restart — zero journaled jobs are lost;
* every recovered job finishes ``done`` with output files
  byte-identical to an uninterrupted reference run;
* no quarantined or partially-built cache entry is ever served
  (``cache_quarantined`` stays 0 and the quarantine dir stays empty);
* recovered job ids keep answering status queries and new submissions
  never collide with them;
* the killed daemon's pool workers are gone within 3 s — no process is
  left whose command line is the dead daemon's.

The post-recovery metrics snapshot is written to
``CRASH_SMOKE_metrics.json`` at the repo root (uploaded as a CI
artifact) so journal/recovery counters are inspectable per run.

Usage::

    REPRO_BENCH_SMOKE=1 python tools/crash_smoke.py [--jobs N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.service import ServiceClient  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.journal import replay  # noqa: E402
from repro.simdata import build_bam_dataset  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_daemon(work_dir: str, journal: str,
                 env_extra: dict[str, str] | None = None,
                 ) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Spawn ``repro serve --listen 127.0.0.1:0 --journal``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0",
         "--work-dir", work_dir,
         "--journal", journal,
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=ROOT)
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            proc.wait(5)
            fail(f"serve exited early (rc={proc.returncode})")
        if "tcp://" in line:
            break
    else:
        fail(f"no listening banner within 30s (last line: {line!r})")
    hostport = line.split("tcp://", 1)[1].split()[0]
    address = protocol.parse_address(hostport)
    print(f"[smoke] daemon pid={proc.pid} listening on tcp://{hostport}")
    return proc, address


def daemon_processes(work_dir: str) -> list[int]:
    """Pids whose command line names *work_dir*: a daemon serving it
    and the pool workers forked from that daemon."""
    pids = []
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                if work_dir.encode() in fh.read().split(b"\0"):
                    pids.append(int(name))
        except OSError:
            continue        # exited while we looked
    return pids


def assert_no_orphans(work_dir: str) -> None:
    """After an induced crash: the dead daemon's pool workers must
    notice they lost their parent and exit (the orphan rule of
    docs/robustness.md), here within 3 s."""
    deadline = time.monotonic() + 3.0
    while (pids := daemon_processes(work_dir)) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    if pids:
        fail(f"pool workers outlived the killed daemon: pids {pids}")
    print("[smoke] no pool worker outlived the killed daemon")


def submit_burst(address: tuple[str, int], bam_path: str,
                 out_root: str, n_jobs: int,
                 acked: list[str] | None = None) -> list[str]:
    """Submit *n_jobs* conversions; returns their job ids.

    Each acknowledged id is appended to *acked* as it arrives, so a
    caller that kills the daemon mid-burst still knows exactly which
    submits were acked (and therefore journaled) before the crash.
    """
    job_ids = acked if acked is not None else []
    with ServiceClient(address, timeout=30, connect_retries=5,
                       connect_backoff=0.1) as client:
        for i in range(n_jobs):
            job = client.submit("convert", {
                "input": bam_path, "target": "bed",
                "out_dir": os.path.join(out_root, f"job{i:03d}")},
                max_retries=1)
            job_ids.append(job["job_id"])
    return job_ids


def wait_all_done(address: tuple[str, int], job_ids: list[str],
                  deadline_s: float) -> dict[str, dict]:
    """Wait every job id to a terminal snapshot; returns them by id."""
    snapshots = {}
    with ServiceClient(address, timeout=deadline_s,
                       connect_retries=5,
                       connect_backoff=0.1) as client:
        for job_id in job_ids:
            snapshots[job_id] = client.wait(job_id,
                                            timeout=deadline_s)
    return snapshots


def digest_outputs(snapshot: dict) -> dict[str, str]:
    """Map output basename -> sha256 for one done job snapshot."""
    outputs = (snapshot.get("result") or {}).get("outputs") or []
    digests = {}
    for path in sorted(outputs):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        digests[os.path.basename(path)] = digest.hexdigest()
    if not digests:
        fail(f"job {snapshot.get('job_id')} finished without outputs")
    return digests


def reference_run(work: str, bam_path: str,
                  deadline_s: float) -> dict[str, str]:
    """Uninterrupted run establishing the expected output digests."""
    work_dir = os.path.join(work, "ref-svc")
    journal = os.path.join(work, "ref-journal.jsonl")
    proc, address = start_daemon(work_dir, journal)
    try:
        job_ids = submit_burst(address, bam_path,
                               os.path.join(work, "ref-out"), 1)
        snapshots = wait_all_done(address, job_ids, deadline_s)
        snapshot = snapshots[job_ids[0]]
        if snapshot["state"] != "done":
            fail(f"reference job not done: {snapshot}")
        with ServiceClient(address, timeout=30) as client:
            client.shutdown()
        proc.wait(30)
        expected = digest_outputs(snapshot)
        print(f"[smoke] reference outputs: "
              f"{sorted(expected)} ({len(expected)} files)")
        return expected
    finally:
        if proc.poll() is None:
            proc.kill()


def crash_mid_burst(work: str, bam_path: str, n_jobs: int,
                    deadline_s: float) -> tuple[str, str, list[str]]:
    """Submit a burst, SIGKILL the daemon once work is in flight.

    Returns (work_dir, journal_path, journaled job ids).
    """
    work_dir = os.path.join(work, "svc")
    journal = os.path.join(work, "journal.jsonl")
    proc, address = start_daemon(work_dir, journal)
    killed = False
    submitted: list[str] = []
    try:
        # Submit on a background thread and poll from here, so the
        # SIGKILL lands while jobs are genuinely in flight: ideally at
        # least one finished (terminal preservation) while others are
        # still queued or running (replay re-queues them).
        burst_done = threading.Event()

        def submitter() -> None:
            try:
                submit_burst(address, bam_path,
                             os.path.join(work, "out"), n_jobs,
                             acked=submitted)
            except Exception:
                pass  # the kill tears the connection down mid-burst
            finally:
                burst_done.set()

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        deadline = time.monotonic() + deadline_s
        states: list[str] = []
        with ServiceClient(address, timeout=30,
                           connect_retries=5,
                           connect_backoff=0.1) as client:
            while time.monotonic() < deadline:
                states = [job["state"] for job in client.status()]
                pending = [s for s in states
                           if s in ("queued", "running")]
                if "done" in states and pending:
                    break
                if burst_done.is_set() and states and not pending:
                    break  # burst already finished; kill anyway
                time.sleep(0.005)
        os.kill(proc.pid, signal.SIGKILL)
        killed = True
        proc.wait(10)
        thread.join(10)
        assert_no_orphans(work_dir)
        print(f"[smoke] SIGKILLed daemon mid-burst "
              f"(states at kill: {sorted(set(states))}, "
              f"{len(submitted)}/{n_jobs} submits acked)")
    finally:
        if not killed and proc.poll() is None:
            proc.kill()

    specs, stats = replay(journal)
    if not specs:
        fail("journal is empty after the crash")
    missing = [job_id for job_id in submitted if job_id not in specs]
    if missing:
        fail(f"acknowledged submits missing from the journal: "
             f"{missing}")
    print(f"[smoke] journal holds {len(specs)} jobs "
          f"({stats['records']} records, {stats['bad_lines']} torn "
          f"lines skipped)")
    return work_dir, journal, list(specs)


def recover_and_verify(work: str, work_dir: str, journal: str,
                       journaled: list[str], bam_path: str,
                       expected: dict[str, str],
                       deadline_s: float) -> dict:
    """Restart against the same journal; verify the contract."""
    proc, address = start_daemon(work_dir, journal)
    try:
        snapshots = wait_all_done(address, journaled, deadline_s)
        lost = [job_id for job_id, snap in snapshots.items()
                if snap["state"] not in ("done", "failed",
                                         "cancelled")]
        if lost:
            fail(f"{len(lost)} journaled jobs never reached a "
                 f"terminal state: {lost[:3]}")
        not_done = {job_id: snap for job_id, snap in snapshots.items()
                    if snap["state"] != "done"}
        if not_done:
            job_id, snap = next(iter(not_done.items()))
            fail(f"{len(not_done)} journaled jobs did not finish "
                 f"done; e.g. {job_id}: {snap['state']} "
                 f"({snap.get('error')})")
        for job_id, snap in snapshots.items():
            got = digest_outputs(snap)
            if got != expected:
                fail(f"job {job_id} outputs differ from the "
                     f"reference run: {got} != {expected}")
        print(f"[smoke] all {len(snapshots)} journaled jobs done, "
              f"outputs byte-identical to the reference run")

        with ServiceClient(address, timeout=30) as client:
            # New ids must not collide with any recovered id.
            fresh = client.submit("convert", {
                "input": bam_path, "target": "bed",
                "out_dir": os.path.join(work, "out", "fresh")})
            if fresh["job_id"] in snapshots:
                fail(f"new job id {fresh['job_id']} collides with a "
                     f"recovered job")
            final = client.wait(fresh["job_id"], timeout=deadline_s)
            if final["state"] != "done":
                fail(f"post-recovery submission failed: {final}")
            snapshot = client.metrics()
            client.shutdown()
        proc.wait(30)

        counters = snapshot.get("counters", {})
        if counters.get("cache_quarantined", 0) != 0:
            fail(f"cache entries were quarantined during recovery: "
                 f"{counters['cache_quarantined']}")
        quarantine_dir = os.path.join(work_dir, "cache", "quarantine")
        if os.path.isdir(quarantine_dir) \
                and os.listdir(quarantine_dir):
            fail(f"quarantine dir is not empty: "
                 f"{os.listdir(quarantine_dir)}")
        if counters.get("journal_replayed_records", 0) < 1:
            fail("journal_replayed_records is zero after recovery")
        return snapshot
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int,
                        default=8 if os.environ.get("REPRO_BENCH_SMOKE")
                        else 16,
                        help="conversion jobs in the crashed burst")
    parser.add_argument("--templates", type=int,
                        default=300 if os.environ.get("REPRO_BENCH_SMOKE")
                        else 1200,
                        help="synthetic dataset size")
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="per-phase hang deadline in seconds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="crash-smoke-") as work:
        bam_path = os.path.join(work, "smoke.bam")
        build_bam_dataset(bam_path, args.templates,
                          chromosomes=[("chr1", 60_000),
                                       ("chr2", 40_000)], seed=7)
        expected = reference_run(work, bam_path, args.deadline)
        work_dir, journal, journaled = crash_mid_burst(
            work, bam_path, args.jobs, args.deadline)
        snapshot = recover_and_verify(work, work_dir, journal,
                                      journaled, bam_path, expected,
                                      args.deadline)

        out_path = os.path.join(ROOT, "CRASH_SMOKE_metrics.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"smoke": True, "jobs": args.jobs,
                       "journaled": len(journaled),
                       "metrics": snapshot}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"[smoke] metrics snapshot -> {out_path}")
        counters = snapshot.get("counters", {})
        print(f"[smoke] PASS: {len(journaled)} journaled jobs "
              f"recovered to done "
              f"(journal_replayed_records="
              f"{counters.get('journal_replayed_records')}, "
              f"jobs_recovered={counters.get('jobs_recovered', 0)}, "
              f"cache_quarantined=0)")
        return 0


if __name__ == "__main__":
    sys.exit(main())
