"""External coordinate sort for SAM/BAM datasets (samtools-sort
substitute).

BAI and BAIX construction, region fetches, and partial conversion all
assume coordinate-sorted input; real pipelines get that from
``samtools sort``.  This module provides the equivalent: a spill-to-disk
external merge sort that handles datasets larger than memory.

Algorithm: stream records, accumulate up to ``chunk_records``, sort the
chunk by ``(reference id, position)`` (unplaced records last, ties kept
in input order — a stable sort, like samtools), spill each run as an
intermediate SAM file, then k-way heap-merge the runs into the output.

The run-generation phase can be parallelized with the same Algorithm-1
partitioning the converters use (each rank reads its byte range through
the SAM converter's source and sorts it into a run); the final merge is
sequential, as in classic external sorting.
"""

from __future__ import annotations

import heapq
import os
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from ..errors import ConversionError
from ..formats.bam import BamReader, BamWriter
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord
from ..formats.sam import SamReader, SamWriter, format_alignment, \
    parse_alignment
from ..runtime.metrics import RankMetrics
from .base import execute_rank_tasks, finish_rank_metrics
from .sam_converter import partition_alignments, sam_source, scan_header

#: Default number of records held in memory per run.
DEFAULT_CHUNK_RECORDS = 250_000

#: Sort key ref id used for unplaced records (sorts after everything).
_UNPLACED = 1 << 30


def sort_key(record: AlignmentRecord, header: SamHeader,
             ) -> tuple[int, int]:
    """Coordinate sort key: (reference id, position), unplaced last."""
    if record.rname == "*" or record.pos < 0:
        return (_UNPLACED, 0)
    return (header.ref_id(record.rname), record.pos)


@dataclass(slots=True)
class SortResult:
    """Outcome of an external sort."""

    output: str
    records: int
    runs: int
    metrics: RankMetrics


def _spill_run(records: list[AlignmentRecord], header: SamHeader,
               run_dir: str, run_no: int) -> str:
    """Sort one in-memory chunk and write it as an intermediate run."""
    records.sort(key=lambda r: sort_key(r, header))
    path = os.path.join(run_dir, f"run{run_no:05d}.sam")
    with SamWriter(path) as writer:  # headerless: runs are internal
        writer.write_all(records)
    return path


def _iter_run(path: str) -> Iterator[AlignmentRecord]:
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            yield parse_alignment(line)


def merge_runs(run_paths: list[str], header: SamHeader,
               ) -> Iterator[AlignmentRecord]:
    """K-way merge of sorted runs, stable across runs in path order."""
    def keyed(path: str, order: int):
        for seq, record in enumerate(_iter_run(path)):
            yield (*sort_key(record, header), order, seq), record
    streams = [keyed(path, order)
               for order, path in enumerate(run_paths)]
    for _, record in heapq.merge(*streams, key=lambda kv: kv[0]):
        yield record


def _sort_stream(records: Iterable[AlignmentRecord], header: SamHeader,
                 write_output, chunk_records: int,
                 work_dir: str | None) -> tuple[int, int]:
    """Core external sort; returns (record count, run count)."""
    if chunk_records < 1:
        raise ConversionError(
            f"chunk_records {chunk_records} must be >= 1")
    own_dir = work_dir is None
    run_dir = tempfile.mkdtemp(prefix="repro-sort-") if own_dir \
        else os.fspath(work_dir)
    os.makedirs(run_dir, exist_ok=True)
    run_paths: list[str] = []
    chunk: list[AlignmentRecord] = []
    total = 0
    try:
        for record in records:
            chunk.append(record)
            total += 1
            if len(chunk) >= chunk_records:
                run_paths.append(_spill_run(chunk, header, run_dir,
                                            len(run_paths)))
                chunk = []
        if len(run_paths) == 0:
            # Everything fit in memory: sort and write directly.
            chunk.sort(key=lambda r: sort_key(r, header))
            write_output(iter(chunk))
            return total, 0
        if chunk:
            run_paths.append(_spill_run(chunk, header, run_dir,
                                        len(run_paths)))
        write_output(merge_runs(run_paths, header))
        return total, len(run_paths)
    finally:
        for path in run_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        if own_dir:
            try:
                os.rmdir(run_dir)
            except OSError:
                pass


def sort_sam(in_path: str | os.PathLike[str],
             out_path: str | os.PathLike[str],
             chunk_records: int = DEFAULT_CHUNK_RECORDS,
             work_dir: str | None = None) -> SortResult:
    """Coordinate-sort a SAM file into a new SAM file."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    with SamReader(in_path) as reader:
        header = reader.header.with_sort_order("coordinate")
        with SamWriter(out_path, header) as writer:
            total, runs = _sort_stream(
                iter(reader), reader.header,
                lambda recs: writer.write_all(recs), chunk_records,
                work_dir)
    metrics.records = total
    metrics.bytes_read = os.path.getsize(in_path)
    metrics.bytes_written = os.path.getsize(out_path)
    return SortResult(os.fspath(out_path), total, runs,
                      finish_rank_metrics(metrics, t0))


def sort_bam(in_path: str | os.PathLike[str],
             out_path: str | os.PathLike[str],
             chunk_records: int = DEFAULT_CHUNK_RECORDS,
             work_dir: str | None = None) -> SortResult:
    """Coordinate-sort a BAM file into a new BAM file."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    with BamReader(in_path) as reader:
        header = reader.header.with_sort_order("coordinate")
        with BamWriter(out_path, header) as writer:
            total, runs = _sort_stream(
                iter(reader), reader.header,
                lambda recs: writer.write_all(recs), chunk_records,
                work_dir)
    metrics.records = total
    metrics.bytes_read = os.path.getsize(in_path)
    metrics.bytes_written = os.path.getsize(out_path)
    return SortResult(os.fspath(out_path), total, runs,
                      finish_rank_metrics(metrics, t0))


# -- parallel run generation (Algorithm 1 over the input) ----------------


@dataclass(frozen=True, slots=True)
class SortRankSpec:
    """One run-generation rank: sort a SAM byte range into a run file."""

    sam_path: str
    start: int
    end: int
    run_path: str
    header_text: str


def _sort_rank_task(spec: SortRankSpec) -> RankMetrics:
    t0 = time.perf_counter()
    metrics = RankMetrics()
    with sam_source(spec.sam_path, spec.start, spec.end, spec.header_text,
                    metrics) as source:
        header = source.header
        records = [record for chunk in source.chunks
                   for record in source.records(chunk)]
    records.sort(key=lambda r: sort_key(r, header))
    with open(spec.run_path, "w", encoding="ascii") as fh:
        for record in records:
            fh.write(format_alignment(record))
            fh.write("\n")
    metrics.records = len(records)
    metrics.bytes_written = os.path.getsize(spec.run_path)
    return finish_rank_metrics(metrics, t0)


def parallel_sort_sam(in_path: str | os.PathLike[str],
                      out_path: str | os.PathLike[str], nprocs: int,
                      work_dir: str | os.PathLike[str],
                      executor: str = "simulate",
                      ) -> tuple[SortResult, list[RankMetrics]]:
    """Sort with parallel run generation (one sorted run per rank,
    Algorithm 1 partitioning) and a sequential k-way merge.

    Returns the overall result plus per-rank run-generation metrics.
    """
    if nprocs < 1:
        raise ConversionError(f"nprocs {nprocs} must be >= 1")
    in_path = os.fspath(in_path)
    work_dir = os.fspath(work_dir)
    os.makedirs(work_dir, exist_ok=True)
    header, header_end = scan_header(in_path)
    partitions = partition_alignments(in_path, nprocs, header_end)
    specs = [
        SortRankSpec(in_path, p.start, p.end,
                     os.path.join(work_dir, f"run{p.rank:05d}.sam"),
                     header.to_text())
        for p in partitions
    ]
    rank_metrics = execute_rank_tasks(_sort_rank_task, specs, executor)
    merge_metrics = RankMetrics()
    t_merge = time.perf_counter()
    out_header = header.with_sort_order("coordinate")
    with SamWriter(out_path, out_header) as writer:
        total = writer.write_all(
            merge_runs([s.run_path for s in specs], header))
    merge_metrics.records = total
    merge_metrics.bytes_written = os.path.getsize(out_path)
    finish_rank_metrics(merge_metrics, t_merge)
    result = SortResult(os.fspath(out_path), total, nprocs, merge_metrics)
    return result, rank_metrics
