"""The SAM format converter (§III-A, Fig. 2).

Execution flow: the input SAM dataset is partitioned by byte range with
Algorithm 1 (every partition starts at a record boundary), each rank
streams its partition through the read buffer, parses SAM text lines
into alignment objects, hands them to the user program (a target
plugin), and writes the converted target objects to its own output
file.  After partitioning there is no inter-rank communication.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from dataclasses import dataclass

from ..formats.batch import DEFAULT_BATCH_SIZE, convert_records, \
    convert_sam_lines, parse_sam_lines, sam_fastpath_for
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord
from ..formats.sam import parse_alignment
from ..runtime import faults
from ..runtime.autotune import AutoTuner
from ..runtime.buffers import RangeLineReader
from ..runtime.metrics import RankMetrics
from ..runtime.partition import Partition, partition_bytes_source
from ..runtime.tracing import get_tracer
from .base import ConversionResult, ShardableSpec, bind_target, \
    converter_options, finish_rank_metrics, make_output_path, \
    run_conversion, write_bam_records, write_text_chunks
from .filters import ACCEPT_ALL, RecordFilter
from .targets import get_target


def scan_header(path: str | os.PathLike[str]) -> tuple[SamHeader, int]:
    """Read the ``@`` header block; return it and the byte offset of the
    first alignment line."""
    header_lines = []
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if raw.startswith(b"@"):
                header_lines.append(raw.decode("ascii"))
                offset += len(raw)
            else:
                break
    return SamHeader.from_text("".join(header_lines)), offset


def partition_range(path: str | os.PathLike[str], start: int, end: int,
                    n: int) -> list[Partition]:
    """Algorithm 1 over the byte range ``[start, end)`` of *path*
    (which must start at a record boundary); absolute offsets."""
    with open(path, "rb") as fh:
        def read_at(offset: int, size: int) -> bytes:
            fh.seek(start + offset)
            return fh.read(size)
        parts = partition_bytes_source(read_at, end - start, n)
    return [Partition(p.rank, p.start + start, p.end + start)
            for p in parts]


def partition_alignments(path: str | os.PathLike[str], nprocs: int,
                         header_end: int) -> list[Partition]:
    """Algorithm 1 over the alignment region ``[header_end, EOF)``."""
    return partition_range(path, header_end, os.path.getsize(path),
                           nprocs)


def range_records(sam_path: str, start: int, end: int,
                  metrics: RankMetrics) -> Iterator[AlignmentRecord]:
    """Parse the alignment lines of the SAM byte range ``[start, end)``
    (blank and ``@`` lines skipped); read I/O is metered into *metrics*."""
    reader = RangeLineReader(sam_path, start, end, metrics=metrics)
    for lines in reader.iter_batches(DEFAULT_BATCH_SIZE):
        yield from parse_sam_lines(lines)


@dataclass(frozen=True, slots=True)
class SamRankSpec(ShardableSpec):
    """Everything one conversion rank needs (picklable for the process
    executor)."""

    sam_path: str
    start: int
    end: int
    target: str
    out_path: str
    header_text: str
    read_chunk: int
    record_filter: RecordFilter = ACCEPT_ALL
    batch_size: int = DEFAULT_BATCH_SIZE
    pipeline: str = "batch"
    write_header: bool = True

    def cost_hint(self) -> float:
        """Relative shard size: bytes of SAM text to parse."""
        return float(self.end - self.start)

    def _pieces(self, n: int) -> list[dict]:
        # Algorithm 1 again, so every shard starts at a record boundary.
        return [{"start": p.start, "end": p.end}
                for p in partition_range(self.sam_path, self.start,
                                         self.end, n) if p.length > 0]


def _sam_rank_task(spec: SamRankSpec) -> RankMetrics:
    """One rank of the SAM converter: read range -> parse -> emit."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    header = SamHeader.from_text(spec.header_text)
    target = bind_target(get_target(spec.target), header)
    reader = RangeLineReader(spec.sam_path, spec.start, spec.end,
                             chunk_size=spec.read_chunk, metrics=metrics)

    def parsed(lines):
        return (parse_alignment(line) for line in lines
                if line and line[0] != "@")

    def record_chunk(lines, out):
        return *convert_records(parsed(lines), target,
                                spec.record_filter, out), 0

    if target.mode == "binary":
        write_bam_records(spec.out_path, header,
                          spec.record_filter.apply(parsed(reader)),
                          metrics)
    elif spec.pipeline == "batch":
        fast_emit = sam_fastpath_for(target)

        def batches():
            for lines in reader.iter_batches(spec.batch_size):
                faults.fire("shard.batch")
                yield lines

        write_text_chunks(
            spec, target, header, batches(),
            record_chunk if fast_emit is None else
            lambda lines, out: convert_sam_lines(
                lines, target, fast_emit, spec.record_filter, out),
            metrics, "sam", {"fastpath": fast_emit is not None},
            "fallbacks")
    else:
        write_text_chunks(spec, target, header,
                          reader.iter_batches(spec.batch_size),
                          record_chunk, metrics, "sam", None)
    return finish_rank_metrics(metrics, t0)


class SamConverter:
    """Parallel SAM -> * converter (no preprocessing required).

    Parameters
    ----------
    read_chunk:
        Read-buffer size per rank, in bytes.
    batch_size:
        Records per batch through the chunk-level codecs.
    pipeline:
        ``"batch"`` (default) runs the chunk-level codecs with
        per-target fastpaths; ``"record"`` keeps the strict
        record-at-a-time path.  Outputs are byte-identical.
    shards_per_rank:
        Over-decomposition factor: each rank's range is split into up
        to this many shards pulled dynamically by the shared worker
        pool.  ``1`` (default) is the paper-faithful static schedule;
        ``"auto"`` lets the cost model pick per job.
    tuner:
        :class:`~repro.runtime.autotune.AutoTuner` resolving
        ``shards_per_rank="auto"`` and learning from every run.  When
        omitted and *shards_per_rank* is ``"auto"``, a private
        in-memory tuner is created (cold -> defaults, warming across
        this instance's calls).
    """

    def __init__(self, read_chunk: int = 4 << 20,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 pipeline: str = "batch",
                 shards_per_rank: int | str = 1,
                 tuner: AutoTuner | None = None) -> None:
        self.read_chunk = read_chunk
        self.batch_size, self.shards_per_rank, self.tuner = \
            converter_options(batch_size, pipeline, shards_per_rank,
                              tuner)
        self.pipeline = pipeline

    def convert(self, sam_path: str | os.PathLike[str], target: str,
                out_dir: str | os.PathLike[str], nprocs: int = 1,
                executor: str = "simulate",
                record_filter: RecordFilter | None = None,
                ) -> ConversionResult:
        """Convert *sam_path* to *target*, one output part per rank.

        *record_filter* (a :class:`~repro.core.filters.RecordFilter`)
        restricts which records are converted — the flag/MAPQ analogue
        of partial conversion.  Returns a
        :class:`~repro.core.base.ConversionResult` whose
        ``rank_metrics`` feed the simulated-cluster model.
        """
        sam_path = os.fspath(sam_path)

        def plan(out_dir: str) -> tuple:
            with get_tracer().span("partition", "sam"):
                header, header_end = scan_header(sam_path)
                partitions = partition_alignments(sam_path, nprocs,
                                                  header_end)
            target_plugin = get_target(target)  # validates the name early
            stem = os.path.splitext(os.path.basename(sam_path))[0]
            specs = [
                SamRankSpec(
                    sam_path=sam_path,
                    start=p.start,
                    end=p.end,
                    target=target,
                    out_path=make_output_path(out_dir, stem, p.rank,
                                              target_plugin),
                    header_text=header.to_text(),
                    read_chunk=self.read_chunk,
                    record_filter=record_filter or ACCEPT_ALL,
                    pipeline=self.pipeline,
                )
                for p in partitions
            ]
            return ("sam", self.pipeline,
                    os.path.getsize(sam_path) - header_end, specs)

        return run_conversion(
            self, _sam_rank_task,
            ("convert", "sam", {"input": os.path.basename(sam_path),
                                "target": target, "nprocs": nprocs}),
            target, out_dir, nprocs, executor, plan)


def convert_sam(sam_path: str | os.PathLike[str], target: str,
                out_dir: str | os.PathLike[str], nprocs: int = 1,
                executor: str = "simulate") -> ConversionResult:
    """Convenience wrapper around :class:`SamConverter`."""
    return SamConverter().convert(sam_path, target, out_dir, nprocs,
                                  executor)
