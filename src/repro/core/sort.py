"""Coordinate sort for SAM/BAM datasets (samtools-sort substitute).

BAI and BAIX construction, region fetches, and partial conversion all
assume coordinate-sorted input; real pipelines get that from
``samtools sort``.  This module provides the equivalent out of two
writes the converters already make, each the one way it is made:

1. **a store** — a SAM or BAM input, cut as every verb cuts it
   (:func:`~repro.core.base.plan_sources`: Algorithm-1 partitions of a
   SAM, slab runs of an inflated BAM), is written by ranks as ordered
   parts and joined by one reducer into a scratch BAMX
   (:func:`~repro.core.base.encode_rank`,
   :func:`~repro.formats.store.join_store_parts`); a store input is
   that store already.  Its BAIX *is* the sort: the placed records
   ordered by (reference id, position, record index) — ties in input
   order, a stable sort like samtools'; the unplaced records follow,
   in input order;
2. **a sorted file** — ranks gather the records in that order from the
   store and write them as ordered parts of the output through the
   ``sam`` or ``bam`` target (:func:`~repro.core.base.convert_rank`),
   and one reducer joins the parts
   (:func:`~repro.core.base.merge_shard_outputs`).

Only the index and the order are held in memory (about 33 bytes a
record); the records stay on disk between the passes, so an input
larger than memory sorts.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..errors import ConversionError
from ..formats.baix import BaixIndex
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord
from ..formats.registry import source_kind
from ..formats.store import index_path_for, join_store_parts, \
    open_record_store
from ..runtime.metrics import RankMetrics
from .base import Source, convert_rank, encode_rank, execute_rank_tasks, \
    finish_rank_metrics, merge_shard_outputs, part_specs, plan_sources

#: Default records per part of the sorted output.
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
    """Outcome of a sort.

    ``runs`` counts the parts the reducer joined into ``output``: 0
    when one rank wrote it whole."""

    output: str
    records: int
    runs: int
    metrics: RankMetrics


def sort_file(in_path: str | os.PathLike[str],
              out_path: str | os.PathLike[str], nprocs: int = 1,
              executor: str = "simulate",
              work_dir: str | os.PathLike[str] | None = None,
              chunk_records: int = DEFAULT_CHUNK_RECORDS,
              ) -> tuple[SortResult, list[RankMetrics]]:
    """Coordinate-sort the SAM, BAM or record store *in_path* into
    *out_path*, a SAM or a BAM by its extension, on *nprocs* ranks
    under *executor*.

    A SAM or a BAM is first written as a scratch store, on the ranks
    :func:`~repro.core.base.plan_sources` cuts it into; a store is
    gathered from as it is, by its own BAIX.  The output is written as
    parts of at most *chunk_records* records (at least one a rank),
    joined in order under a temporary name beside *out_path* that
    becomes it only once complete.  Scratch files live in a directory
    under *work_dir* (the system's temporary directory by default)
    that the call removes.  Returns the result — its metrics the
    gather-and-join phase's, timed over the whole call — and the
    per-rank metrics of the store write (none for a store).
    """
    if nprocs < 1 or chunk_records < 1:
        raise ConversionError(f"nprocs {nprocs} and chunk_records "
                              f"{chunk_records} must be >= 1")
    t0 = time.perf_counter()
    in_path, out_path = os.fspath(in_path), os.fspath(out_path)
    source_kind(in_path, "repro sort")     # before any file is made
    kind = os.path.splitext(out_path)[1].lower()[1:]
    if kind not in ("sam", "bam"):
        raise ConversionError(f"repro sort writes .sam or .bam; "
                              f"got {out_path!r}")
    if work_dir is not None:
        os.makedirs(work_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="repro-sort-", dir=work_dir)
    joined = f"{out_path}.tmp{os.getpid()}"
    done = []
    try:
        store = os.path.join(scratch, "input.bamx")
        header, in_kind, openers = plan_sources(
            in_path, nprocs, executor, store, reader="repro sort")
        if in_kind in ("sam", "bam"):
            parts = [f"{store}.part{rank:04d}"
                     for rank in range(len(openers))]
            done = execute_rank_tasks(encode_rank, [
                (opener, part, "bamx")
                for opener, part in zip(openers, parts)], executor)
            count = join_store_parts(store, header, zip(
                parts, (slabs for _, slabs in done)))
        else:
            store = in_path
            with open_record_store(store) as reader:
                count = len(reader)
        placed = BaixIndex.load(index_path_for(store)).indices
        unplaced = np.ones(count, bool)
        unplaced[placed] = False
        order = np.concatenate((placed, np.flatnonzero(unplaced)))
        _, _, cuts = plan_sources(
            store, max(nprocs, -(-count // chunk_records)),
            picks=order, reader="repro sort")
        # The parts of one output: the first alone carries the header,
        # and one rank writes the output whole.
        specs = part_specs([partial(_coordinate, cut) for cut in cuts],
                           scratch, "part", kind)
        specs = [replace(spec, write_header=i == 0, out_path=joined
                         if len(specs) == 1 else spec.out_path)
                 for i, spec in enumerate(specs)]
        written = execute_rank_tasks(convert_rank, specs, executor)
        metrics = written[0] if len(specs) == 1 \
            else merge_shard_outputs(joined, specs, written)
        os.replace(joined, out_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with suppress(FileNotFoundError):
            os.unlink(joined)
    metrics.bytes_written = os.path.getsize(out_path)
    finish_rank_metrics(metrics, t0)
    return (SortResult(out_path, count,
                       0 if len(specs) == 1 else len(specs), metrics),
            [rank for rank, _ in done])


@contextmanager
def _coordinate(opener, metrics: RankMetrics,
                batch_size: int) -> Iterator[Source]:
    """What *opener* yields, under its header marked coordinate-sorted."""
    with opener(metrics, batch_size) as source:
        yield source._replace(
            header=source.header.with_sort_order("coordinate"))


def sort_sam(in_path: str | os.PathLike[str],
             out_path: str | os.PathLike[str],
             chunk_records: int = DEFAULT_CHUNK_RECORDS,
             work_dir: str | None = None) -> SortResult:
    """Coordinate-sort a SAM (or BAM) file into a new file of its kind
    on one rank."""
    return sort_file(in_path, out_path, work_dir=work_dir,
                     chunk_records=chunk_records)[0]


#: The one-rank sort, by the name of what it is handed.
sort_bam = sort_sam


def parallel_sort_sam(in_path: str | os.PathLike[str],
                      out_path: str | os.PathLike[str], nprocs: int,
                      work_dir: str | os.PathLike[str],
                      executor: str = "simulate",
                      ) -> tuple[SortResult, list[RankMetrics]]:
    """:func:`sort_file` of a SAM on *nprocs* ranks; byte-identical to
    :func:`sort_sam`.  Returns the result and the per-rank metrics of
    the store write."""
    return sort_file(in_path, out_path, nprocs, executor, work_dir)
