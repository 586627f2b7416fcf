"""The SAM format converter (§III-A, Fig. 2).

Execution flow: the input SAM dataset is partitioned by byte range with
Algorithm 1 (every partition starts at a record boundary), each rank
streams its partition through the read buffer, parses SAM text —
a slab of lines at a time into columns (:func:`~repro.formats.sam.
slab_columns`), or, on the record pipeline, line by line into
alignment objects — hands it to the user program (a target plugin),
and writes the converted target objects to its own output file.  After
partitioning there is no inter-rank communication.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import SamFormatError
from ..formats.batch import DEFAULT_BATCH_SIZE, convert_records, \
    convert_sam_lines, parse_sam_lines, sam_fastpath_for
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord
from ..formats.sam import parse_alignment, slab_columns, slab_emitter_for
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


def _line_slabs(reader: RangeLineReader,
                batch_size: int) -> Iterator[tuple[int, bytes]]:
    """Cut the reader's blocks by newline position into ``(file
    offset, bytes)`` slabs of up to *batch_size* whole lines: what one
    ``slab_columns`` call takes — its temporaries are several times
    the slab's bytes, so never a whole read chunk."""
    for offset, block in reader.iter_blocks():
        newlines = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
        cuts = [0, *(newlines[batch_size - 1::batch_size] + 1).tolist()]
        if cuts[-1] != len(block):
            cuts.append(len(block))
        for lo, hi in zip(cuts, cuts[1:]):
            faults.fire("shard.batch")
            yield offset + lo, block[lo:hi]


def _slab_lines(data: bytes) -> list[str]:
    return data.decode("ascii").removesuffix("\n").split("\n")


def _sam_rank_task(spec: SamRankSpec) -> RankMetrics:
    """One rank of the SAM converter: read range -> slabs of lines ->
    columns (or, where a slab is not proven canonical, lines) -> emit."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    header = SamHeader.from_text(spec.header_text)
    target = bind_target(get_target(spec.target), header)
    reader = RangeLineReader(spec.sam_path, spec.start, spec.end,
                             chunk_size=spec.read_chunk, metrics=metrics)
    emit = slab_emitter_for(target) if spec.pipeline == "batch" else None

    def parsed(data):
        return (parse_alignment(line) for line in _slab_lines(data)
                if line and line[0] != "@")

    def convert(data, out):
        if target.mode == "binary":
            out.extend(parsed(data))
            return 0, 0, 0
        if emit is None:
            return *convert_records(parsed(data), target,
                                    spec.record_filter, out), 1
        slab = slab_columns(data)
        if slab is None:    # not proven: line by line, and counted
            return *convert_sam_lines(
                _slab_lines(data), target, sam_fastpath_for(target),
                spec.record_filter, out)[:2], 1
        lines, seen = emit(slab, spec.record_filter)
        out.extend(lines)
        return seen, len(lines), 0

    def convert_chunk(chunk, out):
        offset, data = chunk
        try:
            return convert(data, out)
        except SamFormatError:
            # Say where: re-walk the failing slab line by line.
            for line in data.split(b"\n"):
                try:
                    convert(line, [])
                except SamFormatError as exc:
                    raise SamFormatError(
                        f"line at byte offset {offset}: {exc}",
                        source=spec.sam_path) from None
                offset += len(line) + 1
            raise

    slabs = _line_slabs(reader, spec.batch_size)
    if target.mode == "binary":
        def records():
            for chunk in slabs:
                batch: list[AlignmentRecord] = []
                convert_chunk(chunk, batch)
                yield from batch
        write_bam_records(spec.out_path, header,
                          spec.record_filter.apply(records()), metrics)
    else:
        batch = spec.pipeline == "batch"
        write_text_chunks(
            spec, target, header, slabs, convert_chunk, metrics, "sam",
            {"kernel": emit is not None} if batch else None,
            "fallbacks" if batch else None)
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
        ``"batch"`` (default) converts slabs of lines from their
        columns, line by line where a slab is not provably canonical;
        ``"record"`` keeps the strict record-at-a-time path.  Outputs
        are byte-identical.
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
