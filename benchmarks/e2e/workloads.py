"""The four benchmark workloads.

Each workload sets its inputs up from the seed (timed: ``setup_s``),
validates them with ``repro validate``, warms the code path once on a
tiny sibling input, then runs its op list round-robin for the
measurement window.  Every run of every op is checked against the
generator's oracle; a run that exits non-zero, is refused, does not
reach ``done`` or writes a wrong output counts as failed.

``sam_text`` and ``bam_cold`` drive the CLI as subprocesses (a user
pays interpreter start), ``store_warm`` drives the public API inside
one worker subprocess, ``service_mix`` drives a ``repro serve`` daemon
from closed-loop TCP client threads.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from statistics import median

import numpy as np

from .check import check_output, part_files
from .gen import FILTER_EXPR, Dataset, Expected
from .harness import (CHILD_TIMEOUT, CLIENTS, ROOT, WORK_ROOT, Reference,
                      child_env, cli, fresh_dir, launcher, run_child,
                      timed_rounds)

WORKLOADS = ("sam_text", "bam_cold", "store_warm", "service_mix")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Records per input.  Small on purpose: the reference box slows down
#: in bursts of seconds, so every op needs five or more rounds inside
#: the window for one of them to be undisturbed, and one run (three
#: set-ups, validation, the window, checks) has to stay near 25 s on
#: two cores.  Record density
#: is constant, so a region window holds ~1000 records at any size.
FULL = {"sam_text": 100_000, "bam_cold": 16_000, "store_warm": 12_000,
        "windows": 100, "primed": 20_000, "seen": 4_000, "miss": 400,
        "miss_files": 80, "tiny": 2_000, "validate": 50_000,
        "probe": 20_000}
SMOKE = {"sam_text": 2_500, "bam_cold": 400, "store_warm": 300,
         "windows": 6, "primed": 500, "seen": 200, "miss": 200,
         "miss_files": 2, "tiny": 200, "validate": 1_000, "probe": 500}

#: Reference samples taken on each side of the service loop (the batch
#: workloads take one per op or round, a dozen or more per run).
LOOP_REFERENCE_SAMPLES = 8

#: One cycle of a service client's schedule: 80 % region jobs on the
#: primed BAM, 16 % full converts of the already-seen BAM, 4 % first
#: sight of a new BAM.
SERVICE_CYCLE = tuple(
    "miss" if i == 12 else "convert" if i in (3, 9, 16, 22) else "region"
    for i in range(25))


class Run:
    """State and accounting of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 smoke: bool = False, max_rounds: int = 0,
                 setup_reps: int = SETUP_REPS) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.max_rounds = max_rounds
        self.setup_reps = setup_reps
        self.sizes = SMOKE if smoke else FULL
        self.work = fresh_dir(WORK_ROOT, f"{workload}-{os.getpid()}")
        self.env = child_env(self.work)
        self.op_seconds: dict[str, list[float]] = {}
        self.op_records: dict[str, int] = {}
        self.job_seconds: list[float] = []
        self.loop_seconds = 0.0     # wall of a concurrent closed loop
        self.loop_records = 0
        self.rss_kb: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_seconds: list[float] = []
        self.extra: dict[str, tuple[float, str]] = {}
        self.reference = Reference()

    # -- accounting ------------------------------------------------------

    def record(self, op: str, seconds: float, records: int,
               error: str | None) -> None:
        """Account one timed run of *op*."""
        self.attempted += 1
        self.op_seconds.setdefault(op, []).append(seconds)
        self.op_records[op] = records
        self.job_seconds.append(seconds)
        if error:
            self.fail(f"{op}: {error}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    def timed_setup(self, build, discard=None):
        """Run *build* ``setup_reps`` times, timing each; keep the last
        state and hand the earlier ones to *discard* (untimed)."""
        state = None
        for _ in range(self.setup_reps):
            if state is not None and discard is not None:
                discard(state)
            t0 = time.perf_counter()
            state = build()
            self.setup_seconds.append(time.perf_counter() - t0)
            self.reference.sample()
        return state

    def validate(self, path: str) -> None:
        """``repro validate`` must accept a generated input (of a SAM
        too long to validate in the time a run has, its head: a prefix
        of a coordinate-sorted SAM is one itself)."""
        self.attempted += 1
        if path.endswith(".sam"):
            head = os.path.join(self.work, "head.sam")
            with open(path, "rb") as src, open(head, "wb") as dst:
                for _ in range(self.sizes["validate"]):
                    dst.write(src.readline())
            path = head
        res = run_child(cli("validate", path), self.env,
                        os.path.join(self.work, "validate.log"))
        if res.returncode != 0:
            self.fail(f"validate {os.path.basename(path)}: "
                      f"{res.output.strip().splitlines()[:3]}")

    def convert_cli(self, op: str | None, source: str, args: list[str],
                    expected: Expected, header_text: str | None) -> None:
        """One ``repro convert`` subprocess, checked; untimed (a
        warm-up) when *op* is None."""
        out_dir = fresh_dir(self.work, "out")
        if op is not None:
            self.reference.sample()
        res = run_child(
            cli("convert", source, *args, "--out-dir", out_dir),
            self.env, os.path.join(self.work, "convert.log"))
        if res.returncode != 0:
            error = f"exit {res.returncode}: {res.last_line}"
        else:
            error = check_output(part_files(out_dir), expected, header_text)
        if op is None:
            if error:
                self.attempted += 1
                self.fail(f"warm-up: {error}")
            return
        self.rss_kb.append(res.maxrss_kb)
        self.record(op, res.seconds, expected.records, error)

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The gated metrics, at the box's nominal speed (see
        :class:`~harness.Reference`).

        In the batch workloads a job is one op of the list and its
        latency the op's **best** wall over the rounds of the window:
        the box only ever slows a run down, in bursts of seconds, and
        over eight runs of one commit the best round repeated within
        5-14 % where the median round gave 9-25 %.  Mean and percentile
        then describe the op mix.  In ``service_mix`` a job is a
        service job and they are taken over every timed job of the
        closed loop.  The central figure is the mean, not the median:
        the gateway polls a waited-for job every 20 ms, so service
        latencies come in two modes a tick apart with the median on the
        edge between them, where it flips from run to run."""
        speed = self.reference.factor()
        per_op = {op: min(v) / speed for op, v in self.op_seconds.items()}
        if self.loop_seconds:
            latencies = [s / speed for s in self.job_seconds]
            loop = self.loop_seconds / speed
            records_per_s = self.loop_records / loop
            jobs_per_s = len(latencies) / loop
        else:
            latencies = list(per_op.values())
            records_per_s = (sum(self.op_records[op] for op in per_op)
                             / sum(latencies))
            jobs_per_s = len(latencies) / sum(latencies)
        return {
            "records_per_s": (records_per_s, "rec/s"),
            "job_mean_ms": (sum(latencies) / len(latencies) * 1e3, "ms"),
            "job_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
            "jobs_per_s": (jobs_per_s, "jobs/s"),
            "peak_rss_mb": (max(self.rss_kb) / 1024, "MB"),
            "setup_s": (median(self.setup_seconds) / speed, "s"),
        }

    def per_op(self) -> dict[str, tuple[float, str]]:
        """Ungated extras of the report for people: each op's best wall
        as the clock read it (not rescaled), the machine factor, and
        whatever the workload noted."""
        out = {f"op.{self.workload}.{op}.s": (min(v), "s")
               for op, v in self.op_seconds.items()}
        out["machine_factor"] = (self.reference.factor(), "ratio")
        out.update(self.extra)
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass            # another run is using it


# -- sam_text ----------------------------------------------------------------

def sam_text(run: Run) -> Dataset:
    sam = os.path.join(run.work, "reads.sam")

    def build() -> Dataset:
        data = Dataset(run.seed, run.sizes["sam_text"])
        data.write_sam(sam)
        return data

    data = run.timed_setup(build)
    run.validate(sam)
    common = ["--nprocs", str(CLIENTS), "--executor", "process"]
    ops = {
        "bed": (["--target", "bed"], "bed", False),
        "fastq": (["--target", "fastq"], "fastq", False),
        "sam_filtered": (["--target", "sam", "--filter", FILTER_EXPR],
                         "sam", True),
    }
    tiny = Dataset(run.seed, run.sizes["tiny"])
    tiny_sam = os.path.join(run.work, "tiny.sam")
    tiny.write_sam(tiny_sam)
    expected = {}
    for op, (args, target, filtered) in ops.items():
        run.convert_cli(None, tiny_sam, args + common,
                        tiny.expect(target, filtered=filtered),
                        tiny.header_text if target == "sam" else None)
        expected[op] = data.expect(target, filtered=filtered)
    for op in timed_rounds(list(ops), run.seconds, run.max_rounds):
        args, target, _ = ops[op]
        run.convert_cli(op, sam, args + common, expected[op],
                        data.header_text if target == "sam" else None)
    return data


# -- bam_cold ----------------------------------------------------------------

def bam_cold(run: Run) -> Dataset:
    bam = os.path.join(run.work, "reads.bam")

    def build() -> Dataset:
        data = Dataset(run.seed, run.sizes["bam_cold"])
        data.write_bam(bam)
        return data

    data = run.timed_setup(build)
    run.validate(bam)
    ops = {"cold_bamx": [], "cold_bamc": ["--store-format", "bamc"]}
    tiny = Dataset(run.seed, run.sizes["tiny"])
    tiny_bam = os.path.join(run.work, "tiny.bam")
    tiny.write_bam(tiny_bam)

    def args_for(op: str) -> list[str]:
        # A fresh work dir every time: the one-shot user has no store.
        return ["--target", "bed", "--work-dir",
                fresh_dir(run.work, "stores"), *ops[op]]

    for op in ops:
        run.convert_cli(None, tiny_bam, args_for(op), tiny.expect("bed"),
                        None)
    expected = data.expect("bed")
    for op in timed_rounds(list(ops), run.seconds, run.max_rounds):
        run.convert_cli(op, bam, args_for(op), expected, None)
    return data


# -- store_warm --------------------------------------------------------------

def _worker(run: Run, spec: dict) -> dict | None:
    """Run the worker subprocess on *spec*; None when it died."""
    spec_path = os.path.join(run.work, f"worker-{spec['do']}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    res = run_child([sys.executable, "-m", "benchmarks.e2e.worker",
                     spec_path], run.env, spec_path + ".log")
    run.rss_kb.append(res.maxrss_kb)
    if res.returncode != 0:
        run.attempted += 1
        run.fail(f"worker {spec['do']} exit {res.returncode}: "
                 f"{res.last_line}")
        return None
    with open(spec_path + ".out", encoding="utf-8") as fh:
        return json.load(fh)


def store_warm_ops(data: Dataset, windows: list[dict]) -> list[dict]:
    """The op list, each op carrying what a correct run must produce."""
    expected: dict[tuple, dict] = {}    # one render per (target, filter)

    def convert(name, store, target, filtered=False):
        if (target, filtered) not in expected:
            expected[target, filtered] = data.expect(
                target, filtered=filtered)._asdict()
        return {"name": f"{name}.{store}", "kind": "convert",
                "store": store, "target": target, "filtered": filtered,
                "expected": expected[target, filtered]}

    ops = [convert("full_bed", s, "bed") for s in ("bamx", "bamc", "bamz")]
    ops += [convert("full_fastq", s, "fastq") for s in ("bamx", "bamc")]
    ops.append(convert("full_sam", "bamc", "sam"))
    ops += [convert("filtered_bed", s, "bed", True)
            for s in ("bamx", "bamc")]
    visited = sum(w["expected"]["records"] for w in windows)
    for store in ("bamx", "bamc"):
        ops.append({"name": f"regions100.{store}", "kind": "regions",
                    "store": store, "records": visited})
    for store in ("bamx", "bamc"):
        # flagstat and histogram each read the whole store once.
        ops.append({"name": f"scan.{store}", "kind": "scan",
                    "store": store, "records": 2 * data.n})
    return ops


def region_windows(data: Dataset, rng: np.random.Generator, count: int,
                   ) -> list[dict]:
    """*count* seeded windows, BED and FASTQ alternating, each with
    its expected output."""
    out = []
    for i, window in enumerate(data.windows(rng, count)):
        target = ("bed", "fastq")[i % 2]
        out.append({"region": data.region_text(window), "target": target,
                    "expected": data.expect(target, window)._asdict()})
    return out


def store_warm(run: Run) -> Dataset:
    bam = os.path.join(run.work, "reads.bam")

    def build():
        data = Dataset(run.seed, run.sizes["store_warm"])
        data.write_bam(bam)
        done = _worker(run, {
            "do": "preprocess", "bam": bam,
            "stores": ["bamx", "bamc", "bamz"],
            "work_dir": fresh_dir(run.work, "stores")})
        return data, done

    data, done = run.timed_setup(build)
    run.validate(bam)
    if done is None:
        return data
    windows = region_windows(
        data, np.random.default_rng([run.seed, 7]), run.sizes["windows"])
    ops = store_warm_ops(data, windows)
    result = _worker(run, {
        "do": "ops", "stores": done["stores"], "ops": ops,
        "windows": windows, "filter": FILTER_EXPR,
        "header_text": data.header_text,
        "scan": {"flagstat": data.flagstat(),
                 "covered_bases": data.covered_bases()},
        "out_dir": fresh_dir(run.work, "out"),
        "seconds": run.seconds, "max_rounds": run.max_rounds})
    if result is None:
        return data
    records = {op["name"]: op.get("records") or op["expected"]["records"]
               for op in ops}
    for op, walls in result["seconds"].items():
        for wall in walls:
            run.record(op, wall, records[op], None)
    run.failed += result["failed"]
    run.failures += result["failures"]
    run.reference.samples += result["reference"]
    for kind, seconds in done["seconds"].items():
        run.extra[f"op.store_warm.preprocess.{kind}.s"] = (seconds, "s")
    return data


# -- service_mix -------------------------------------------------------------

class Daemon:
    """A ``repro serve`` subprocess listening on an ephemeral TCP port
    (run under the launcher, in a process group of its own)."""

    def __init__(self, run: Run, work_dir: str) -> None:
        self.log_path = os.path.join(work_dir, "serve.log")
        self.maxrss_kb = 0
        self.proc = subprocess.Popen(
            launcher(cli("serve", "--listen", "127.0.0.1:0", "--workers",
                         "2", "--work-dir", os.path.join(work_dir, "svc"),
                         "--journal",
                         os.path.join(work_dir, "journal.jsonl")),
                     self.log_path, CHILD_TIMEOUT),
            cwd=ROOT, env=run.env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, start_new_session=True)
        self.address = self._wait_for_port()

    def _wait_for_port(self) -> tuple[str, int]:
        deadline = time.monotonic() + 30
        text = ""
        while time.monotonic() < deadline:
            if os.path.exists(self.log_path):
                with open(self.log_path, "r", errors="replace") as fh:
                    text = fh.read()
            if "tcp://" in text:
                host, port = text.split("tcp://", 1)[1].split()[0] \
                    .rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon did not start: {text.strip()[-300:]}")

    def client(self):
        from repro.service import ServiceClient
        return ServiceClient(self.address, connect_retries=3,
                             connect_backoff=0.05)

    def stop(self) -> None:
        """Shut the daemon down and collect the launcher's report (kill
        the whole group if it lingers)."""
        if self.proc.returncode is not None:
            return
        try:
            with self.client() as client:
                client.shutdown()
            report, _ = self.proc.communicate(timeout=20)
            self.maxrss_kb = json.loads(report)["maxrss_kb"]
        except Exception:   # noqa: BLE001 - whatever went wrong, it must die
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()


class ServiceInputs:
    """The BAM files of one service run and their oracles."""

    def __init__(self, run: Run, work_dir: str) -> None:
        sizes = run.sizes
        self.primed = Dataset(run.seed, sizes["primed"])
        self.seen = Dataset(run.seed, sizes["seen"], salt=1)
        self.miss = [Dataset(run.seed, sizes["miss"], salt=2 + i)
                     for i in range(CLIENTS * sizes["miss_files"])]
        self.primed_path = os.path.join(work_dir, "primed.bam")
        self.seen_path = os.path.join(work_dir, "seen.bam")
        self.miss_paths = [os.path.join(work_dir, f"new{i:03d}.bam")
                           for i in range(len(self.miss))]
        self.primed.write_bam(self.primed_path)
        self.seen.write_bam(self.seen_path)
        for data, path in zip(self.miss, self.miss_paths):
            data.write_bam(path)


def _submit_and_wait(client, kind: str, params: dict) -> tuple[float, dict]:
    t0 = time.perf_counter()
    job = client.submit(kind, params)
    job = client.wait(job["job_id"])
    return time.perf_counter() - t0, job


def _job_error(job: dict, expected: Expected) -> str | None:
    if job["state"] != "done":
        return f"state {job['state']}: {job.get('error')}"
    return check_output((job.get("result") or {}).get("outputs") or [],
                        expected)


def service_mix(run: Run) -> Dataset:
    from repro.errors import ReproError

    def build():
        work_dir = fresh_dir(run.work, "service")
        inputs = ServiceInputs(run, work_dir)
        daemon = Daemon(run, work_dir)
        with daemon.client() as client:
            primes = []
            for name, path in (("primed", inputs.primed_path),
                               ("seen", inputs.seen_path)):
                out_dir = os.path.join(work_dir, "out", f"prime-{name}")
                primes.append(_submit_and_wait(client, "convert", {
                    "input": path, "target": "bed", "out_dir": out_dir}))
        return inputs, daemon, work_dir, primes

    def discard(state) -> None:
        state[1].stop()

    inputs, daemon, work_dir, primes = run.timed_setup(build, discard)
    try:
        for (seconds, job), data in zip(primes,
                                        (inputs.primed, inputs.seen)):
            run.attempted += 1
            error = _job_error(job, data.expect("bed"))
            if error:
                run.fail(f"prime: {error}")
        run.extra["op.service_mix.cold_prime.s"] = (primes[0][0], "s")
        run.validate(inputs.primed_path)
        seen_expected = {t: inputs.seen.expect(t) for t in ("bed", "fastq")}
        rng = np.random.default_rng([run.seed, 11])
        windows = [inputs.primed.windows(rng, 100) for _ in range(CLIENTS)]
        # (kind, seconds, job, expected-output thunk) per timed job
        done: list[list[tuple]] = [[] for _ in range(CLIENTS)]
        errors: list[str] = []
        start = threading.Barrier(CLIENTS + 1)
        max_jobs = run.max_rounds * len(SERVICE_CYCLE)

        def one_job(client, c: int, j: int, tag: str = ""):
            kind = SERVICE_CYCLE[j % len(SERVICE_CYCLE)]
            out_dir = os.path.join(work_dir, "out", f"c{c}{tag}", str(j))
            target = ("bed", "fastq")[j % 2]
            if kind == "region":
                window = windows[c][j % len(windows[c])]
                params = {"input": inputs.primed_path, "target": target,
                          "region": inputs.primed.region_text(window),
                          "out_dir": out_dir}
                expect = partial(inputs.primed.expect, target, window)
            elif kind == "convert":
                params = {"input": inputs.seen_path, "target": target,
                          "out_dir": out_dir}
                expect = partial(seen_expected.get, target)
            else:
                # Past the last new file the schedule wraps around and
                # the job turns into a hit; 80 files per client last for
                # 2000 jobs, 5x what a client completes today.
                i = (c * run.sizes["miss_files"]
                     + j // len(SERVICE_CYCLE) % run.sizes["miss_files"])
                params = {"input": inputs.miss_paths[i], "target": "bed",
                          "out_dir": out_dir}
                expect = partial(inputs.miss[i].expect, "bed")
            seconds, job = _submit_and_wait(
                client, "region" if kind == "region" else "convert", params)
            return kind, seconds, job, expect

        def client_loop(c: int) -> None:
            try:
                with daemon.client() as client:
                    for j in (0, 1, 3):         # warm-up, discarded
                        one_job(client, c, j, "-warm")
                    start.wait()
                    end = time.perf_counter() + run.seconds
                    j = 0
                    while time.perf_counter() < end \
                            and not (max_jobs and j >= max_jobs):
                        done[c].append(one_job(client, c, j))
                        j += 1
            except (ReproError, OSError, threading.BrokenBarrierError) as exc:
                errors.append(f"client {c}: {exc!r}")
                start.abort()

        # The loop keeps both cores busy, so the box's speed is sampled
        # right before and right after it, not inside it.
        for _ in range(LOOP_REFERENCE_SAMPLES):
            run.reference.sample()
        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        try:
            start.wait()
        except threading.BrokenBarrierError:
            pass
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        run.loop_seconds = time.perf_counter() - t0
        for _ in range(LOOP_REFERENCE_SAMPLES):
            run.reference.sample()
        for reason in errors:
            run.attempted += 1
            run.fail(reason)

        daemon_seconds = []
        wrapped = 0
        for kind, seconds, job, expect in (j for jobs in done for j in jobs):
            expected = expect()     # rendered here, outside the timed loop
            run.record(f"{kind}_job", seconds, expected.records,
                       _job_error(job, expected))
            run.loop_records += expected.records
            result = job.get("result") or {}
            if kind == "region" and "wall_seconds" in result:
                daemon_seconds.append(seconds - result["wall_seconds"])
            wrapped += kind == "miss" and result.get("cache") != "miss"
        if wrapped:
            run.extra["service_mix.miss_wrapped"] = (wrapped, "count")
        if run.job_seconds:
            run.extra["service_mix.job_p50.ms"] = (
                median(run.job_seconds) * 1e3, "ms")
        if daemon_seconds:
            run.extra["gateway.overhead.ms"] = (
                median(daemon_seconds) * 1e3, "ms")
        with daemon.client() as client:
            counters = client.metrics().get("counters", {})
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        if hits + misses:
            run.extra["cache.hit.ratio"] = (hits / (hits + misses), "ratio")
    finally:
        daemon.stop()
        run.rss_kb.append(daemon.maxrss_kb)
    return inputs.primed


RUNNERS = {"sam_text": sam_text, "bam_cold": bam_cold,
           "store_warm": store_warm, "service_mix": service_mix}
