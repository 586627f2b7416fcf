#!/usr/bin/env python
"""End-to-end smoke test of the TCP gateway front door.

Boots a real ``repro serve --listen 127.0.0.1:0 --journal PATH
--journal-fsync always`` subprocess, fires a burst of concurrent
conversion submits over TCP, and fails loudly on any dropped or hung
request.  This is the CI gateway-smoke job: it
exercises the daemon exactly the way a remote deployment would — over
the network, through argv, with the startup race bridged by the
client's connect retry rather than a sleep.

Checks enforced:

* every submitter gets a job id and a terminal ``done`` snapshot
  (no lost jobs, no hang — a global deadline aborts the run);
* no submit is rejected (the burst stays under the admission bound);
* the event loop stays responsive while it acknowledges submits: every
  submit answers on the loop after one journal fsync, so a side
  connection pings every 10 ms during the burst and the p90 round
  trip must stay under :data:`PING_P90_LIMIT_MS`;
* a deliberately oversized frame gets a ``bad_frame`` error and the
  connection stays usable;
* results land on disk for every job;
* the gateway adds little to a job: one closed-loop client then runs
  jobs back to back, and the median of client latency minus the job's
  own ``finished_at - started_at`` must stay under
  :data:`OVERHEAD_LIMIT_MS` — the guard against a poll tick (or any
  other fixed per-job wait) coming back.

The service metrics snapshot (whose ``gateway_wait_wake_seconds`` and
``body_roundtrip_seconds`` timers must be present), the overhead
median/p90 and the burst's ping round trips are written to ``GATEWAY_SMOKE_metrics.json`` at the repo root (uploaded as a CI
artifact) so gateway counters are inspectable per run.

Usage::

    REPRO_BENCH_SMOKE=1 python tools/gateway_smoke.py [--clients N]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.service import ServiceClient  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.simdata import build_sam_dataset  # noqa: E402


#: Ceiling on the median per-job gateway overhead (a 20 ms poll tick
#: alone puts it at ~10 ms plus the queue wait).
OVERHEAD_LIMIT_MS = 10.0
#: Back-to-back jobs of the overhead probe.
OVERHEAD_JOBS = 40
#: Ceiling on the p90 ping round trip during the submit burst.
PING_P90_LIMIT_MS = 25.0
#: Pause between two pings of the side connection.
PING_INTERVAL_S = 0.010


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_daemon(work_dir: str) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Spawn ``repro serve --listen 127.0.0.1:0``; parse the bound port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0",
         "--work-dir", os.path.join(work_dir, "svc"),
         "--workers", "4",
         "--journal", os.path.join(work_dir, "journal.jsonl"),
         "--journal-fsync", "always"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=ROOT)
    # The daemon prints "repro service listening on ... tcp://H:P ..."
    # as its first line (flushed before serving).
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


def check_bad_frame(address: tuple[str, int]) -> None:
    """A garbage line must get bad_frame, not a dead connection."""
    import socket
    sock = socket.create_connection(address, timeout=10)
    try:
        stream = sock.makefile("rwb")
        stream.write(b"garbage that is not json\n")
        stream.flush()
        response = json.loads(stream.readline())
        if response.get("code") != "bad_frame":
            fail(f"expected bad_frame, got {response}")
        stream.write(protocol.encode({"op": "ping"}))
        stream.flush()
        response = json.loads(stream.readline())
        if not response.get("pong"):
            fail(f"session died after bad frame: {response}")
    finally:
        sock.close()
    print("[smoke] bad_frame handling OK (session survived)")


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def run_burst(address: tuple[str, int], sam_path: str, out_root: str,
              n_clients: int, deadline_s: float,
              ) -> tuple[list[dict], dict]:
    """N concurrent TCP submitters, pinged past from a side connection
    every :data:`PING_INTERVAL_S`; returns the final job snapshots and
    the ping report."""
    results: list = [None] * n_clients
    errors: list = [None] * n_clients
    rtts: list[float] = []
    stop = threading.Event()

    def pinger() -> None:
        with ServiceClient(address, timeout=deadline_s) as client:
            while not stop.is_set():
                t0 = time.perf_counter()
                client.ping()
                rtts.append((time.perf_counter() - t0) * 1e3)
                stop.wait(PING_INTERVAL_S)

    def one(i: int) -> None:
        try:
            client = ServiceClient(address, timeout=deadline_s,
                                   connect_retries=5,
                                   connect_backoff=0.1)
            with client:
                job = client.submit("convert", {
                    "input": sam_path, "target": "bed",
                    "out_dir": os.path.join(out_root, f"job{i:03d}")})
                results[i] = client.wait(job["job_id"],
                                         timeout=deadline_s)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors[i] = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=one, args=(i,), daemon=True)
               for i in range(n_clients)]
    side = threading.Thread(target=pinger, daemon=True)
    side.start()
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(deadline_s)
    elapsed = time.monotonic() - t0
    stop.set()
    side.join(deadline_s)
    if any(t.is_alive() for t in threads):
        hung = sum(t.is_alive() for t in threads)
        fail(f"{hung}/{n_clients} submitters hung after {deadline_s}s")
    bad = [(i, e) for i, e in enumerate(errors) if e is not None]
    if bad:
        fail(f"{len(bad)}/{n_clients} submitters errored; first 3: "
             f"{bad[:3]}")
    print(f"[smoke] {n_clients} concurrent submitters done "
          f"in {elapsed:.1f}s")
    if not rtts:
        fail("no ping answered during the burst")
    pings = {"pings": len(rtts), "median_ms": statistics.median(rtts),
             "p90_ms": percentile(rtts, 0.9)}
    print(f"[smoke] ping during the burst: median "
          f"{pings['median_ms']:.2f} ms, p90 {pings['p90_ms']:.2f} ms "
          f"over {pings['pings']} pings")
    if pings["p90_ms"] > PING_P90_LIMIT_MS:
        fail(f"p90 ping round trip {pings['p90_ms']:.2f} ms during the "
             f"burst exceeds {PING_P90_LIMIT_MS} ms")
    return results, pings


def measure_overhead(address: tuple[str, int], sam_path: str,
                     out_root: str, deadline_s: float) -> dict:
    """Per-job client latency minus run time, one closed-loop client."""
    overheads = []
    with ServiceClient(address, timeout=deadline_s) as client:
        for i in range(OVERHEAD_JOBS):
            t0 = time.perf_counter()
            job = client.submit("convert", {
                "input": sam_path, "target": "bed",
                "out_dir": os.path.join(out_root, f"seq{i:03d}")})
            job = client.wait(job["job_id"], timeout=deadline_s)
            latency = time.perf_counter() - t0
            if job["state"] != "done":
                fail(f"overhead probe job not done: {job}")
            overheads.append(
                (latency - (job["finished_at"] - job["started_at"]))
                * 1e3)
    report = {"jobs": len(overheads),
              "median_ms": statistics.median(overheads),
              "p90_ms": percentile(overheads, 0.9)}
    print(f"[smoke] gateway overhead per job: median "
          f"{report['median_ms']:.2f} ms, p90 {report['p90_ms']:.2f} ms")
    if report["median_ms"] > OVERHEAD_LIMIT_MS:
        fail(f"median gateway overhead {report['median_ms']:.2f} ms "
             f"exceeds {OVERHEAD_LIMIT_MS} ms")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int,
                        default=24 if os.environ.get("REPRO_BENCH_SMOKE")
                        else 64,
                        help="concurrent TCP submitters")
    parser.add_argument("--templates", type=int,
                        default=300 if os.environ.get("REPRO_BENCH_SMOKE")
                        else 2000,
                        help="synthetic dataset size")
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="per-phase hang deadline in seconds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="gateway-smoke-") as work:
        sam_path = os.path.join(work, "smoke.sam")
        build_sam_dataset(sam_path, args.templates,
                          chromosomes=[("chr1", 60_000),
                                       ("chr2", 40_000)], seed=7)
        proc, address = start_daemon(work)
        try:
            check_bad_frame(address)
            results, pings = run_burst(address, sam_path,
                                       os.path.join(work, "out"),
                                       args.clients, args.deadline)
            job_ids = {r["job_id"] for r in results}
            if len(job_ids) != args.clients:
                fail(f"{args.clients} submits produced only "
                     f"{len(job_ids)} distinct jobs (dropped work)")
            not_done = [r for r in results if r["state"] != "done"]
            if not_done:
                fail(f"{len(not_done)} jobs not done; first: "
                     f"{not_done[0]}")
            missing = [r["job_id"] for r in results
                       if not (r.get("result") or {}).get("outputs")]
            if missing:
                fail(f"jobs finished without outputs: {missing[:3]}")
            overhead = measure_overhead(address, sam_path,
                                        os.path.join(work, "out"),
                                        args.deadline)

            with ServiceClient(address, timeout=30) as client:
                snapshot = client.metrics()
                client.shutdown()
            counters = snapshot.get("counters", {})
            for name in ("gateway_connections_total",
                         "gateway_requests_total",
                         "gateway_bad_frames"):
                if counters.get(name, 0) < 1:
                    fail(f"metrics counter {name} missing/zero: "
                         f"{counters.get(name)}")
            if counters.get("jobs_done", 0) < args.clients:
                fail(f"jobs_done={counters.get('jobs_done')} < "
                     f"{args.clients}")
            for name in ("gateway_wait_wake_seconds",
                         "body_roundtrip_seconds"):
                if name not in snapshot["timers"]:
                    fail(f"no {name} timer in the metrics snapshot")
            roundtrip = snapshot["timers"]["body_roundtrip_seconds"]
            print(f"[smoke] body round trip (send -> receive less the "
                  f"body) mean {roundtrip['mean_seconds'] * 1e3:.3f} ms")

            out_path = os.path.join(ROOT, "GATEWAY_SMOKE_metrics.json")
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump({"smoke": True, "clients": args.clients,
                           "gateway_overhead": overhead,
                           "burst_ping": pings,
                           "metrics": snapshot}, fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
            print(f"[smoke] metrics snapshot -> {out_path}")
            proc.wait(30)
            print(f"[smoke] PASS: {args.clients} clients, "
                  f"{counters['gateway_requests_total']} gateway "
                  f"requests, 0 dropped")
            return 0
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(10)
                except subprocess.TimeoutExpired:
                    proc.kill()


if __name__ == "__main__":
    sys.exit(main())
