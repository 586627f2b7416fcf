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
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..defaults import DEFAULT_BATCH_SIZE
from ..errors import SamFormatError
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord
from ..formats.sam import slab_columns
from ..runtime import faults
from ..runtime.buffers import DEFAULT_READ_CHUNK, RangeLineReader
from ..runtime.metrics import RankMetrics
from ..runtime.partition import Partition, partition_bytes_source
from ..runtime.tracing import get_tracer
from .base import ConversionResult, Source, convert_rank, \
    converter_options, part_specs, plan_sources, run_conversion
from .filters import ACCEPT_ALL, RecordFilter

if TYPE_CHECKING:
    from ..runtime.autotune import AutoTuner


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


def _line_slabs(reader: RangeLineReader,
                batch_size: int) -> Iterator[tuple[int, bytes]]:
    """Cut the reader's blocks by newline position into ``(file
    offset, bytes)`` slabs of *batch_size* whole lines (the last may be
    short; a block's tail is carried into the next): what one
    ``slab_columns`` call takes — its temporaries are several times
    the slab's bytes, so never a whole read chunk — and, cut the same
    way as a BAM's, the slabs of a store written from the range."""
    pending, at, lines = b"", 0, 0
    for offset, block in reader.iter_blocks():
        if not pending:
            at = offset
        ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10) + 1
        lo = 0
        for hi in ends[batch_size - lines - 1::batch_size].tolist():
            faults.fire("shard.batch")
            yield at, pending + block[lo:hi]
            pending, lo, at = b"", hi, offset + hi
        pending += block[lo:]
        lines = (lines + len(ends)) % batch_size
    if pending:
        faults.fire("shard.batch")
        yield at, pending


def _slab_lines(data: bytes) -> list[str]:
    return data.decode("ascii").removesuffix("\n").split("\n")


def _parsed(data: bytes) -> list[AlignmentRecord]:
    from ..formats.batch import parse_sam_lines
    return parse_sam_lines(_slab_lines(data))


def _per_line(data: bytes, target, record_filter,
              out: list[str]) -> tuple[int, int]:
    """The tier under the columns: a slab not proven canonical goes
    line by line through the target's column fastpath, the record path
    for the lines that cannot take — all of them, for a target without
    one (BAM)."""
    from ..formats.batch import convert_records, convert_sam_lines, \
        sam_fastpath_for
    fast_emit = sam_fastpath_for(target)
    if fast_emit is None:
        return convert_records(_parsed(data), target, record_filter, out)
    return convert_sam_lines(_slab_lines(data), target, fast_emit,
                             record_filter, out)[:2]


class SamCut(NamedTuple):
    """An Algorithm-1 partition ``[start, end)`` of a SAM, as
    :func:`~repro.core.base.plan_sources` cuts it.  Called, it opens
    the range as slabs of lines: columns where a slab is proven
    canonical (:func:`~repro.formats.sam.slab_columns`), the per-line
    tier where not (counted as ``fallbacks``), parsed records for the
    rest — a slow path that fails re-walks its slab line by line to
    say where.  It splits by Algorithm 1 again, so every piece starts
    at a record boundary."""

    path: str
    start: int
    end: int
    header_text: str
    read_chunk: int = DEFAULT_READ_CHUNK

    def cost_hint(self) -> float:
        """Relative size: bytes of SAM text to parse."""
        return float(self.end - self.start)

    def split(self, n: int) -> list[SamCut]:
        """The range as <= *n* non-empty Algorithm-1 pieces."""
        return [self._replace(start=p.start, end=p.end)
                for p in partition_range(self.path, self.start, self.end, n)
                if p.length > 0]

    @contextmanager
    def __call__(self, metrics: RankMetrics,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Source]:
        def located(convert):
            def run(chunk, *rest):
                offset, data = chunk
                try:
                    return convert(data, *rest)
                except SamFormatError:
                    for line in data.split(b"\n"):
                        try:
                            convert(line, *rest)
                        except SamFormatError as exc:
                            raise SamFormatError(
                                f"line at byte offset {offset}: {exc}",
                                source=self.path) from None
                        offset += len(line) + 1
                    raise
            return run

        reader = RangeLineReader(self.path, self.start, self.end,
                                 chunk_size=self.read_chunk, metrics=metrics)
        yield Source(SamHeader.from_text(self.header_text),
                     _line_slabs(reader, batch_size),
                     lambda chunk: slab_columns(chunk[1]),
                     located(_parsed), located(_per_line), "sam",
                     "fallbacks")


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
                _, kind, cuts = plan_sources(
                    sam_path, nprocs, reader="SamConverter.convert",
                    reads=("sam",), read_chunk=self.read_chunk)
            return kind, self.pipeline, part_specs(
                cuts, out_dir, os.path.splitext(os.path.basename(sam_path))[0],
                target, record_filter=record_filter or ACCEPT_ALL,
                pipeline=self.pipeline)

        return run_conversion(
            self, convert_rank,
            ("convert", "sam", {"input": os.path.basename(sam_path),
                                "target": target, "nprocs": nprocs}),
            target, out_dir, nprocs, executor, plan)


def convert_sam(sam_path: str | os.PathLike[str], target: str,
                out_dir: str | os.PathLike[str], nprocs: int = 1,
                executor: str = "simulate") -> ConversionResult:
    """Convenience wrapper around :class:`SamConverter`."""
    return SamConverter().convert(sam_path, target, out_dir, nprocs,
                                  executor)
