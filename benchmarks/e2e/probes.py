"""The traced pass: per-layer numbers from spans the harness opens
around calls into each layer's public functions.

Two parts, both in this process, neither touching the program's code:

* **layer probes** — every layer's public functions run once on a
  probe dataset (20 k records generated from the run's seed, the same
  record mix as the workloads), each inside a span that carries the
  records or bytes it handled; rates are count / span time;
* **workload replay** — the selected workload's representative op is
  run whole (untraced wall) and then stage by stage through the same
  public functions under spans; ``trace.coverage_pct`` is the sum of
  the stage self times over the whole-op wall, so a decomposition that
  explains too little is visible, and ``tracing.harness_overhead_pct``
  is how much longer the staged run took than the whole one.

End-to-end numbers never come from here.
"""

from __future__ import annotations

import os
import struct
import time
from statistics import median
from types import SimpleNamespace

import numpy as np

from repro.core import BamConverter, SamConverter, parse_filter_expr
from repro.core.base import merge_shard_outputs
from repro.core.sam_converter import partition_alignments, scan_header
from repro.core.targets import get_target
from repro.formats import batch as batch_codec
from repro.formats import kernels
from repro.formats.baix import BaixIndex
from repro.formats.baix2 import BaixOverlapIndex
from repro.formats.bam import BamReader, BamWriter, decode_record
from repro.formats.bamc import BamcWriter
from repro.formats.bamx import BamxWriter, plan_layout
from repro.formats.batch import DEFAULT_BATCH_SIZE
from repro.formats.bgzf import BgzfReader, compress_bytes
from repro.formats.sam import format_alignment
from repro.formats.store import open_record_store
from repro.runtime.autotune import AutoTuner, CostModel
from repro.runtime.buffers import BufferedTextWriter, RangeLineReader
from repro.runtime.executor import SharedExecutor
from repro.runtime.metrics import RankMetrics
from repro.service import protocol
from repro.service.cache import ArtifactCache, content_digest
from repro.service.jobs import Job
from repro.service.journal import JobJournal, replay

from .gen import FILTER_EXPR, Dataset
from .harness import CLIENTS, RESULTS_DIR, cli, fresh_dir, run_child
from .spans import Recorder
from .worker import STORE_KINDS
from .workloads import (Daemon, Run, ServiceInputs, _submit_and_wait,
                        _worker)

BATCH = DEFAULT_BATCH_SIZE

Metrics = dict[str, tuple[float, str]]


def _noop(item: int) -> int:
    return item


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _fetch_or_preprocess(cache: ArtifactCache, bam: str):
    """What the service does for a BAM job: the cache entry holding the
    preprocessed store, built on a miss.  Returns ``(entry, hit)``."""
    def builder(entry_dir: str) -> None:
        BamConverter().preprocess(bam, entry_dir)

    return cache.get_or_build(
        bam, {"op": "preprocess_bam", "compress": False}, builder)


class Probes:
    """Runs the layer probes, filling :attr:`metrics`."""

    def __init__(self, run: Run, rec: Recorder) -> None:
        self.run = run
        self.rec = rec
        self.metrics: Metrics = {}
        self.dir = fresh_dir(run.work, "probe")
        self.data = Dataset(run.seed, run.sizes["probe"], salt=99)
        self.sam = os.path.join(self.dir, "probe.sam")
        self.bam = os.path.join(self.dir, "probe.bam")
        self.data.write_sam(self.sam)
        self.data.write_bam(self.bam)
        self.n = self.data.n

    def timed(self, name: str, fn, **counts):
        """``fn()`` inside a span; returns ``(result, seconds)``."""
        with self.rec.span(name, op="probe", **counts):
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
        return result, seconds

    def rate(self, metric: str, unit: str, count: float, fn):
        """Record ``count / time(fn)`` under *metric*; return fn()."""
        result, seconds = self.timed(metric, fn, count=count)
        self.metrics[metric] = (_per_s(count, seconds), unit)
        return result

    # -- formats -----------------------------------------------------------

    def codecs(self) -> None:
        n = self.n

        def inflate() -> bytes:
            with BgzfReader(self.bam) as reader:
                return reader.read()

        raw, seconds = self.timed("bgzf.inflate", inflate)
        self.metrics["bgzf.inflate_mb_per_s"] = (
            _per_s(len(raw) / 1e6, seconds), "MB/s")
        self.rate("bgzf.deflate_mb_per_s", "MB/s", len(raw) / 1e6,
                  lambda: compress_bytes(raw))

        def read_bam():
            with BamReader(self.bam) as reader:
                return reader.header, list(reader)

        self.header, self.records = self.rate(
            "bam.decode_rec_per_s", "rec/s", n, read_bam)

        def write_bam() -> None:
            with BamWriter(os.path.join(self.dir, "again.bam"),
                           self.header) as writer:
                writer.write_all(self.records)

        self.rate("bam.encode_rec_per_s", "rec/s", n, write_bam)

        with open(self.sam, encoding="ascii") as fh:
            self.lines = [line.rstrip("\n") for line in fh
                          if not line.startswith("@")]
        self.rate("sam.parse_rec_per_s", "rec/s", n,
                  lambda: batch_codec.parse_sam_lines(self.lines))
        self.rate("sam.format_rec_per_s", "rec/s", n,
                  lambda: [format_alignment(r) for r in self.records])

        for name in ("sam", "json", "bam"):
            target = get_target(name)
            if name == "bam":
                target.bind_header(self.header)
                emit = target.emit_binary
            else:
                emit = target.emit
            self.rate(f"targets.emit_rec_per_s.{name}", "rec/s", n,
                      lambda emit=emit: [emit(r) for r in self.records])

    def stores(self) -> None:
        n, records, header = self.n, self.records, self.header
        batches = [records[i:i + BATCH] for i in range(0, n, BATCH)]
        bamx = os.path.join(self.dir, "direct.bamx")
        bamc = os.path.join(self.dir, "direct.bamc")

        def plan_write():
            layout = plan_layout(records)
            with BamxWriter(bamx, header, layout) as writer:
                for batch in batches:
                    writer.write_batch(batch)
            return layout

        layout = self.rate("bamx.plan_write_rec_per_s", "rec/s", n,
                           plan_write)

        def write_bamc() -> None:
            with BamcWriter(bamc, header, layout) as writer:
                for batch in batches:
                    writer.write_batch(batch)

        self.rate("bamc.write_rec_per_s", "rec/s", n, write_bamc)

        def build_index() -> BaixIndex:
            index = BaixIndex.build(enumerate(records), header)
            index.save(bamx + ".baix")
            return index

        index, seconds = self.timed("baix.build", build_index, count=n)
        self.metrics["baix.build_s"] = (seconds, "s")
        loads = [self.timed("baix.load",
                            lambda: BaixIndex.load(bamx + ".baix"))[1]
                 for _ in range(20)]
        self.metrics["baix.load_ms"] = (median(loads) * 1e3, "ms")
        rng = np.random.default_rng([self.run.seed, 3])
        windows = self.data.windows(rng, 1000, 5_000, 40_000)
        _, seconds = self.timed(
            "baix.locate", lambda: [index.locate(*w) for w in windows])
        self.metrics["baix.locate_us"] = (seconds / len(windows) * 1e6, "us")

        # The stores the converters read are the ones preprocessing
        # wrote (core.preprocess_*), so read-side probes see real files.
        self.store = {}
        for kind, (store_format, compress) in STORE_KINDS.items():
            converter = BamConverter(store_format=store_format)
            work = os.path.join(self.dir, kind)
            (path, _, _), seconds = self.timed(
                f"core.preprocess.{kind}",
                lambda: converter.preprocess(self.bam, work,
                                             compress=compress), count=n)
            self.store[kind] = path
            if kind != "bamz":
                self.metrics[f"core.preprocess_rec_per_s.{kind}"] = (
                    _per_s(n, seconds), "rec/s")
            self.metrics[f"store.bytes_per_record.{kind}"] = (
                os.path.getsize(path) / n, "B/rec")

        for kind in ("bamx", "bamz"):
            with open_record_store(self.store[kind]) as reader:
                size = n * reader.layout.record_size
                self.rate(f"{kind}.read_raw_mb_per_s", "MB/s", size / 1e6,
                          lambda: sum(c for _, c in
                                      reader.read_raw_batches(0, n, BATCH)))
        with open_record_store(self.store["bamx"]) as reader:
            self.layout = reader.layout
            self.rate("bamx.decode_rec_per_s", "rec/s", n,
                      lambda: list(reader.read_range(0, n)))
            self.raw_slabs = [(bytes(buf), count) for buf, count
                              in reader.read_raw_batches(0, n, BATCH)]
        size = os.path.getsize(self.store["bamc"])
        with open_record_store(self.store["bamc"]) as reader:
            self.slabs = self.rate(
                "bamc.read_slab_mb_per_s", "MB/s", size / 1e6,
                lambda: list(reader.read_column_batches(0, n)))
        picks = [tuple(int(i) for i in
                       index.record_indices(*index.locate(*w)))
                 for w in windows[:100]]
        picked = sum(len(p) for p in picks)
        with open_record_store(self.store["bamc"]) as reader:
            self.rate("bamc.picks_rec_per_s", "rec/s", picked,
                      lambda: [list(reader.read_column_picks(p))
                               for p in picks if p])

    def pipelines(self) -> None:
        n, header = self.n, self.header
        fallbacks = seen = 0
        for name in ("bed", "fastq"):
            target = get_target(name)
            out: list[str] = []
            s, _, f = self.rate(
                f"batch.sam_fastpath_rec_per_s.{name}", "rec/s", n,
                lambda: batch_codec.convert_sam_lines(
                    self.lines, target, batch_codec.sam_fastpath_for(target),
                    None, out))
            seen += s
            fallbacks += f
            emit = batch_codec.bamx_fastpath_for(target, self.layout, header)
            out = []
            self.rate(
                f"batch.bamx_slab_rec_per_s.{name}", "rec/s", n,
                lambda: [batch_codec.convert_bamx_slab(
                    buf, count, self.layout, emit, None, out)
                    for buf, count in self.raw_slabs])
        self.metrics["batch.fallback_ratio"] = (fallbacks / seen, "ratio")

        declined = calls = 0
        for name in ("bed", "bedgraph", "fasta", "fastq"):
            emit = kernels.kernel_emitter_for(get_target(name), header)

            def emit_all(emit=emit) -> int:
                bad = 0
                for slab in self.slabs:
                    try:
                        emit(slab, None)
                    except kernels.KernelFallback:
                        bad += 1
                return bad

            declined += self.rate(f"kernels.emit_rec_per_s.{name}",
                                  "rec/s", n, emit_all)
            calls += len(self.slabs)
        self.metrics["kernels.fallback_ratio"] = (declined / calls, "ratio")
        record_filter = parse_filter_expr(FILTER_EXPR)
        self.rate("kernels.filter_mask_rec_per_s", "rec/s", 200 * n,
                  lambda: [kernels.slab_filter_mask(slab, record_filter)
                           for _ in range(200) for slab in self.slabs])
        self.rate("kernels.flagstat_rec_per_s", "rec/s", 100 * n,
                  lambda: [kernels.flagstat_slab(slab)
                           for _ in range(100) for slab in self.slabs])
        refs = [(i, ref.length, np.zeros(ref.length + 1, dtype=np.int64))
                for i, ref in enumerate(header.references)]
        self.rate("kernels.coverage_rec_per_s", "rec/s", 20 * n,
                  lambda: [kernels.add_coverage_events(slab, i, length, diff)
                           for _ in range(20) for slab in self.slabs
                           for i, length, diff in refs])

    # -- runtime -----------------------------------------------------------

    def runtime(self) -> None:
        _, header_end = scan_header(self.sam)
        for parts in (2, 64):
            walls = [self.timed(
                "partition.sam",
                lambda: partition_alignments(self.sam, parts, header_end))[1]
                for _ in range(5)]
            self.metrics[f"partition.sam_ms.{parts}"] = (
                median(walls) * 1e3, "ms")
        size = os.path.getsize(self.sam)
        reader = RangeLineReader(self.sam, header_end, size)
        batches = self.rate("buffers.read_lines_mb_per_s", "MB/s",
                            (size - header_end) / 1e6,
                            lambda: list(reader.iter_batches(BATCH)))

        def write() -> None:
            with BufferedTextWriter(os.path.join(self.dir, "w.txt")) as w:
                for lines in batches:
                    w.write_lines(lines)

        self.rate("buffers.write_mb_per_s", "MB/s",
                  (size - header_end) / 1e6, write)

        shard_dir = fresh_dir(self.dir, "shards")
        shards = []
        for i, lines in enumerate(batches):
            path = os.path.join(shard_dir, f"shard{i}")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            shards.append(SimpleNamespace(out_path=path))
        self.rate("core.merge_shards_mb_per_s", "MB/s",
                  (size - header_end) / 1e6,
                  lambda: merge_shard_outputs(
                      os.path.join(shard_dir, "merged"), shards,
                      [RankMetrics() for _ in shards]))

        pool = SharedExecutor(max_workers=CLIENTS)
        try:
            _, seconds = self.timed(
                "executor.pool_start",
                lambda: pool.map_tasks(_noop, list(range(CLIENTS)),
                                       "process"))
            self.metrics["executor.pool_start_ms"] = (seconds * 1e3, "ms")
            _, seconds = self.timed(
                "executor.map", lambda: pool.map_tasks(
                    _noop, list(range(1000)), "process"), count=1000)
            self.metrics["executor.map_overhead_ms"] = (seconds * 1e3, "ms")
        finally:
            pool.shutdown()

    def parallel(self) -> None:
        """Measured-wall ratios on the process executor (two ranks on
        the reference box's two shared cores: informative, never
        gated)."""
        out = os.path.join(self.dir, "par")

        def convert(converter, nprocs: int) -> float:
            return median([self.timed(
                "core.sam_convert",
                lambda: converter.convert(self.sam, "bed", out, nprocs,
                                          "process"))[1]
                for _ in range(3)])

        static = SamConverter()
        convert(static, CLIENTS)                # start the pool
        t1, t2 = convert(static, 1), convert(static, 2)
        self.metrics["core.par2_efficiency"] = (t1 / (2 * t2), "ratio")
        tuner = AutoTuner(CostModel(os.path.join(self.dir, "model.json")))
        auto = SamConverter(shards_per_rank="auto", tuner=tuner)
        convert(auto, 2)                        # warm the cost model
        self.metrics["autotune.auto_over_static"] = (
            convert(auto, 2) / t2, "ratio")

    # -- service -----------------------------------------------------------

    def service_pieces(self) -> None:
        size = os.path.getsize(self.bam)
        self.rate("cache.digest_mb_per_s", "MB/s", size / 1e6,
                  lambda: content_digest(self.bam))
        cache = ArtifactCache(os.path.join(self.dir, "cache"))
        _, seconds = self.timed(
            "cache.miss_build",
            lambda: _fetch_or_preprocess(cache, self.bam))
        self.metrics["cache.miss_build_s"] = (seconds, "s")
        hits = [self.timed(
            "cache.hit", lambda: _fetch_or_preprocess(cache, self.bam))[1]
            for _ in range(10)]
        self.metrics["cache.hit_ms"] = (median(hits) * 1e3, "ms")

        journal_path = os.path.join(self.dir, "journal.jsonl")
        jobs = [Job("region", {"input": self.bam, "target": "bed",
                               "region": "chr1:1-1000", "out_dir": self.dir})
                for _ in range(1000)]
        journal = JobJournal(journal_path)
        try:
            _, seconds = self.timed(
                "journal.append",
                lambda: [journal.append_submit(job) for job in jobs],
                count=len(jobs))
        finally:
            journal.close()
        self.metrics["journal.append_us"] = (
            seconds / len(jobs) * 1e6, "us")
        _, seconds = self.timed("journal.replay",
                                lambda: replay(journal_path))
        self.metrics["journal.replay_ms"] = (seconds * 1e3, "ms")
        message = {"op": "submit", "kind": "region", "params": jobs[0].params,
                   "priority": 0, "timeout": None, "max_retries": 0}
        _, seconds = self.timed(
            "protocol.codec",
            lambda: [protocol.decode(protocol.encode(message))
                     for _ in range(2000)])
        self.metrics["protocol.codec_us"] = (seconds / 2000 * 1e6, "us")

    def daemon(self) -> None:
        """Gateway / scheduler numbers from a daemon of the probe's own."""
        work = fresh_dir(self.dir, "daemon")
        rng = np.random.default_rng([self.run.seed, 5])
        windows = self.data.windows(rng, 30)
        new = Dataset(self.run.seed, 400, salt=98)
        new_path = os.path.join(work, "new.bam")
        new.write_bam(new_path)
        daemon = Daemon(self.run, work)
        try:
            with daemon.client() as client:
                def convert(path: str, tag: str) -> float:
                    return _submit_and_wait(client, "convert", {
                        "input": path, "target": "bed",
                        "out_dir": os.path.join(work, tag)})[0]

                with self.rec.span("service.cold_prime", op="probe"):
                    prime = convert(self.bam, "prime")
                self.metrics["op.service.cold_prime_s"] = (prime, "s")
                pings = []
                for _ in range(200):
                    t0 = time.perf_counter()
                    client.ping()
                    pings.append(time.perf_counter() - t0)
                self.metrics["gateway.ping_rtt_us"] = (
                    median(pings) * 1e6, "us")
                acks, walls, overheads = [], [], []
                for i, window in enumerate(windows):
                    params = {"input": self.bam, "target": "bed",
                              "region": self.data.region_text(window),
                              "out_dir": os.path.join(work, f"r{i}")}
                    with self.rec.span("service.region_job", op="probe"):
                        t0 = time.perf_counter()
                        job = client.submit("region", params)
                        acks.append(time.perf_counter() - t0)
                        job = client.wait(job["job_id"])
                        walls.append(time.perf_counter() - t0)
                    overheads.append(
                        walls[-1] - job["result"]["wall_seconds"])
                self.metrics["gateway.submit_ack_ms"] = (
                    median(acks) * 1e3, "ms")
                self.metrics["gateway.overhead_ms"] = (
                    median(overheads) * 1e3, "ms")
                self.metrics["op.service.region_job_ms"] = (
                    median(walls) * 1e3, "ms")
                with self.rec.span("service.miss_job", op="probe"):
                    miss = convert(new_path, "miss")
                self.metrics["op.service.miss_job_s"] = (miss, "s")
                counters = client.metrics()["counters"]
            hits = counters.get("cache_hits", 0)
            self.metrics["cache.hit_ratio"] = (
                hits / (hits + counters.get("cache_misses", 0)), "ratio")
        finally:
            daemon.stop()

    def cli_startup(self) -> None:
        walls = [run_child(cli("formats"), self.run.env,
                           os.path.join(self.dir, "formats.log")).seconds
                 for _ in range(3)]
        self.metrics["cli.startup_ms"] = (median(walls) * 1e3, "ms")

    def run_all(self) -> Metrics:
        self.codecs()
        self.stores()
        self.pipelines()
        self.runtime()
        self.parallel()
        self.service_pieces()
        self.daemon()
        self.cli_startup()
        return self.metrics


# -- workload replay ---------------------------------------------------------

def _split_bam(raw: bytes) -> list[bytes]:
    """Alignment bodies of an uncompressed BAM stream (harness code:
    untimed, it stands in for the reader's framing)."""
    (l_text,) = struct.unpack_from("<i", raw, 4)
    off = 8 + l_text
    (n_ref,) = struct.unpack_from("<i", raw, off)
    off += 4
    for _ in range(n_ref):
        (l_name,) = struct.unpack_from("<i", raw, off)
        off += 8 + l_name
    bodies = []
    while off < len(raw):
        (size,) = struct.unpack_from("<i", raw, off)
        bodies.append(raw[off + 4:off + 4 + size])
        off += 4 + size
    return bodies


def _write_stage(rec: Recorder, writer, lines: list[str]) -> None:
    with rec.span("buffers.write", count=len(lines)):
        writer.write_lines(lines)


def replay_sam_text(run: Run, rec: Recorder) -> float:
    """``bed`` of the SAM converter on one rank: partition, read
    lines, column fastpath, buffered write."""
    data = Dataset(run.seed, run.sizes["sam_text"])
    sam = os.path.join(run.work, "reads.sam")
    data.write_sam(sam)
    out = fresh_dir(run.work, "replay")
    t0 = time.perf_counter()
    SamConverter().convert(sam, "bed", out, 1, "simulate")
    whole = time.perf_counter() - t0
    target = get_target("bed")
    emit = batch_codec.sam_fastpath_for(target)
    with rec.span("sam_text.bed", layer="harness", op="sam_text.bed"):
        with rec.span("partition.sam"):
            _, header_end = scan_header(sam)
            (part,) = partition_alignments(sam, 1, header_end)
        reader = RangeLineReader(sam, part.start, part.end)
        batches = iter(reader.iter_batches(BATCH))
        with BufferedTextWriter(os.path.join(out, "staged.bed")) as writer:
            while True:
                with rec.span("buffers.read"):
                    lines = next(batches, None)
                if lines is None:
                    break
                emitted: list[str] = []
                with rec.span("batch.sam_fastpath", count=len(lines)):
                    batch_codec.convert_sam_lines(lines, target, emit, None,
                                                  emitted)
                _write_stage(rec, writer, emitted)
            with rec.span("buffers.write"):
                writer.flush()
    return whole


def replay_bam_cold(run: Run, rec: Recorder) -> float:
    """``cold_bamx``: the two BAM passes of preprocessing (inflate +
    decode, twice), layout plan + store write, both index builds, then
    the conversion phase."""
    data = Dataset(run.seed, run.sizes["bam_cold"])
    bam = os.path.join(run.work, "reads.bam")
    data.write_bam(bam)
    out = fresh_dir(run.work, "replay")
    converter = BamConverter()
    t0 = time.perf_counter()
    store, _, _ = converter.preprocess(bam, os.path.join(out, "whole"))
    converter.convert(store, "bed", os.path.join(out, "whole-bed"))
    whole = time.perf_counter() - t0
    with rec.span("bam_cold.cold_bamx", layer="harness",
                  op="bam_cold.cold_bamx"):
        for _ in range(2):
            with rec.span("bgzf.inflate"):
                with BgzfReader(bam) as reader:
                    raw = reader.read()
            bodies = _split_bam(raw)
            with BamReader(bam) as reader:
                header = reader.header
            with rec.span("bam.decode", count=len(bodies)):
                records = [decode_record(body, header) for body in bodies]
        staged = os.path.join(out, "staged.bamx")
        with rec.span("bamx.plan_write", count=len(records)):
            layout = plan_layout(records)
            with BamxWriter(staged, header, layout) as writer:
                for i in range(0, len(records), BATCH):
                    writer.write_batch(records[i:i + BATCH])
        with rec.span("baix.build", count=len(records)):
            BaixIndex.build(enumerate(records), header).save(
                staged + ".baix")
            BaixOverlapIndex.build(enumerate(records), header).save(
                staged + ".baix2")
        with rec.span("core.convert", count=len(records)):
            converter.convert(staged, "bed", os.path.join(out, "staged-bed"))
    return whole


def replay_store_warm(run: Run, rec: Recorder) -> float:
    """``full_bed`` from the row store (raw slabs -> field fastpath)
    and from the columnar store (column slabs -> kernel)."""
    data = Dataset(run.seed, run.sizes["store_warm"])
    bam = os.path.join(run.work, "reads.bam")
    data.write_bam(bam)
    done = _worker(run, {"do": "preprocess", "bam": bam,
                         "stores": ["bamx", "bamc"],
                         "work_dir": fresh_dir(run.work, "stores")})
    if done is None:
        return 0.0
    out = fresh_dir(run.work, "replay")
    converter = BamConverter()
    target = get_target("bed")
    whole = 0.0
    for kind in ("bamx", "bamc"):
        store = done["stores"][kind]
        converter.convert(store, "bed", os.path.join(out, kind))   # warm
        t0 = time.perf_counter()
        converter.convert(store, "bed", os.path.join(out, kind))
        whole += time.perf_counter() - t0
        op = f"store_warm.full_bed.{kind}"
        with rec.span(op, layer="harness", op=op), \
                open_record_store(store) as reader, \
                BufferedTextWriter(os.path.join(out, kind + ".bed")) as w:
            n = len(reader)
            if kind == "bamx":
                emit = batch_codec.bamx_fastpath_for(target, reader.layout,
                                                     reader.header)
                slabs = iter(reader.read_raw_batches(0, n, BATCH))
            else:
                emit = kernels.kernel_emitter_for(target, reader.header)
                slabs = iter(reader.read_column_batches(0, n))
            while True:
                with rec.span(f"{kind}.read"):
                    slab = next(slabs, None)
                if slab is None:
                    break
                if kind == "bamx":
                    lines: list[str] = []
                    with rec.span("batch.bamx_slab", count=slab[1]):
                        batch_codec.convert_bamx_slab(
                            slab[0], slab[1], reader.layout, emit, None,
                            lines)
                else:
                    with rec.span("kernels.emit", count=slab.count):
                        lines, _ = emit(slab, None)
                _write_stage(rec, w, lines)
            with rec.span("buffers.write"):
                w.flush()
    return whole


def replay_service_mix(run: Run, rec: Recorder) -> float:
    """Region jobs on a primed daemon.  What a client can see of a job
    is the submit round trip and one opaque wait; the same request is
    then done by hand — cache fetch of a present key, in-process region
    conversion — so the share of the job those stages explain shows."""
    work = fresh_dir(run.work, "service")
    inputs = ServiceInputs(run, work)
    rng = np.random.default_rng([run.seed, 11])
    windows = inputs.primed.windows(rng, 20)
    op = "service_mix.region_job"

    def params(window, tag: str) -> dict:
        return {"input": inputs.primed_path, "target": "bed",
                "region": inputs.primed.region_text(window),
                "out_dir": os.path.join(work, tag)}

    daemon = Daemon(run, work)
    try:
        with daemon.client() as client:
            _submit_and_wait(client, "convert", {
                "input": inputs.primed_path, "target": "bed",
                "out_dir": os.path.join(work, "prime")})
            whole = sum(
                _submit_and_wait(client, "region", params(w, f"u{i}"))[0]
                for i, w in enumerate(windows))
            for i, window in enumerate(windows):
                with rec.span(op, layer="harness", op=op):
                    with rec.span("gateway.submit_ack"):
                        job = client.submit("region",
                                            params(window, f"t{i}"))
                    with rec.span("service.wait", layer="harness"):
                        client.wait(job["job_id"])
    finally:
        daemon.stop()
    cache = ArtifactCache(os.path.join(work, "own-cache"))
    entry, _ = _fetch_or_preprocess(cache, inputs.primed_path)
    store = next(p for p in entry.files() if p.endswith(".bamx"))
    converter = BamConverter()
    for i, window in enumerate(windows):
        with rec.span("service_mix.by_hand", layer="harness",
                      op="service_mix.by_hand"):
            with rec.span("cache.hit"):
                _fetch_or_preprocess(cache, inputs.primed_path)
            with rec.span("core.convert_region"):
                converter.convert_region(
                    store, None, inputs.primed.region_text(window), "bed",
                    os.path.join(work, f"own{i}"))
    return whole


REPLAYS = {"sam_text": replay_sam_text, "bam_cold": replay_bam_cold,
           "store_warm": replay_store_warm,
           "service_mix": replay_service_mix}


#: Replays per traced run; coverage and overhead are their medians, so
#: one replay caught by a slow spell of the box does not read as a
#: decomposition that explains 150 % (or 60 %) of the op.
REPLAY_REPS = 3


def traced_pass(run: Run) -> Metrics:
    """Replay the run's workload under spans, run the layer probes,
    write the trace (last replay + probes), and return every per-layer
    metric."""
    t0 = time.perf_counter()
    coverage, overhead = [], []
    for _ in range(REPLAY_REPS):
        rec = Recorder()
        whole = REPLAYS[run.workload](run, rec)
        run.attempted += 1
        if whole <= 0:
            run.fail("replay produced no whole-op wall time")
            whole = float("inf")
        staged = sum(s.seconds for s in rec.spans
                     if s.parent is None and s.op != "service_mix.by_hand")
        self_s = rec.self_seconds()
        explained = sum(self_s[s.id] for s in rec.spans
                        if s.layer != "harness")
        coverage.append(100 * explained / whole)
        overhead.append(100 * (staged - whole) / whole)
    metrics = Probes(run, rec).run_all()
    metrics["trace.coverage_pct"] = (median(coverage), "%")
    metrics["tracing.harness_overhead_pct"] = (median(overhead), "%")
    metrics["trace.total_s"] = (time.perf_counter() - t0, "s")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    rec.write_chrome(os.path.join(RESULTS_DIR,
                                  f"trace-{run.workload}.json"))
    return metrics
