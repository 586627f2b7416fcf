"""Flag statistics: the ``samtools flagstat`` equivalent.

Counts the standard thirteen categories over a SAM/BAM dataset, and —
in the spirit of the paper — offers a parallel version built on the
same Algorithm-1 partitioning as the SAM converter, with a final
element-wise reduction (flagstat is a pure map-reduce).
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, fields

from ..core.base import execute_rank_tasks, finish_rank_metrics
from ..core.sam_converter import partition_alignments, range_records, \
    scan_header
from ..formats.flags import Flag
from ..formats.record import AlignmentRecord
from ..runtime.metrics import RankMetrics


@dataclass(slots=True)
class FlagStats:
    """Counts of the samtools-flagstat categories."""

    total: int = 0
    secondary: int = 0
    supplementary: int = 0
    duplicates: int = 0
    mapped: int = 0
    paired: int = 0
    read1: int = 0
    read2: int = 0
    properly_paired: int = 0
    with_mate_mapped: int = 0
    singletons: int = 0
    mate_on_different_chr: int = 0
    mate_on_different_chr_mapq5: int = 0

    def add(self, record: AlignmentRecord) -> None:
        """Accumulate one record."""
        flag = record.flag
        self.total += 1
        if flag & Flag.SECONDARY:
            self.secondary += 1
        if flag & Flag.SUPPLEMENTARY:
            self.supplementary += 1
        if flag & Flag.DUPLICATE:
            self.duplicates += 1
        if not flag & Flag.UNMAPPED:
            self.mapped += 1
        # Pair categories only count primary lines, as samtools does.
        if flag & (Flag.SECONDARY | Flag.SUPPLEMENTARY):
            return
        if flag & Flag.PAIRED:
            self.paired += 1
            if flag & Flag.READ1:
                self.read1 += 1
            if flag & Flag.READ2:
                self.read2 += 1
            if flag & Flag.PROPER_PAIR and not flag & Flag.UNMAPPED:
                self.properly_paired += 1
            if not flag & Flag.UNMAPPED:
                if not flag & Flag.MATE_UNMAPPED:
                    self.with_mate_mapped += 1
                    if record.rnext not in ("=", "*", record.rname):
                        self.mate_on_different_chr += 1
                        if record.mapq >= 5:
                            self.mate_on_different_chr_mapq5 += 1
                else:
                    self.singletons += 1

    def merge(self, other: "FlagStats") -> "FlagStats":
        """Element-wise sum (the reduction operator)."""
        out = FlagStats()
        for f in fields(FlagStats):
            setattr(out, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return out

    def format_report(self) -> str:
        """Human-readable report in samtools-flagstat layout."""
        def pct(part: int, whole: int) -> str:
            if whole == 0:
                return "N/A"
            return f"{100.0 * part / whole:.2f}%"
        return "\n".join([
            f"{self.total} in total",
            f"{self.secondary} secondary",
            f"{self.supplementary} supplementary",
            f"{self.duplicates} duplicates",
            f"{self.mapped} mapped ({pct(self.mapped, self.total)})",
            f"{self.paired} paired in sequencing",
            f"{self.read1} read1",
            f"{self.read2} read2",
            f"{self.properly_paired} properly paired "
            f"({pct(self.properly_paired, self.paired)})",
            f"{self.with_mate_mapped} with itself and mate mapped",
            f"{self.singletons} singletons "
            f"({pct(self.singletons, self.paired)})",
            f"{self.mate_on_different_chr} with mate mapped to a "
            f"different chr",
            f"{self.mate_on_different_chr_mapq5} with mate mapped to a "
            f"different chr (mapQ>=5)",
        ])


def flagstat_records(records: Iterable[AlignmentRecord]) -> FlagStats:
    """Flag statistics over an in-memory record iterable."""
    stats = FlagStats()
    for record in records:
        stats.add(record)
    return stats


def flagstat_store(reader) -> FlagStats:
    """Flag statistics over an open record store.

    Every store is counted slab by slab with the vectorized
    :func:`repro.formats.kernels.flagstat_slab` kernel — no record ever
    materializes.
    """
    from ..formats.kernels import flagstat_slab
    from ..formats.store import column_slabs
    stats = FlagStats()
    for slab in column_slabs(reader):
        for name, value in flagstat_slab(slab).items():
            setattr(stats, name, getattr(stats, name) + value)
    return stats


def flagstat(path: str | os.PathLike[str]) -> FlagStats:
    """Sequential flag statistics over a SAM, BAM or record-store file."""
    from ..formats.registry import source_kind
    kind = source_kind(path, "repro flagstat")
    if kind == "bam":
        from ..formats.bam import BamReader
        with BamReader(path) as reader:
            return flagstat_records(reader)
    if kind != "sam":
        from ..formats.store import open_record_store
        with open_record_store(path) as reader:
            return flagstat_store(reader)
    from ..formats.sam import SamReader
    with SamReader(path) as reader:
        return flagstat_records(reader)


@dataclass(frozen=True, slots=True)
class _FlagstatSpec:
    sam_path: str
    start: int
    end: int


def _flagstat_rank_task(spec: _FlagstatSpec,
                        ) -> tuple[RankMetrics, FlagStats]:
    t0 = time.perf_counter()
    metrics = RankMetrics()
    stats = flagstat_records(range_records(spec.sam_path, spec.start,
                                           spec.end, metrics))
    metrics.records = stats.total
    return finish_rank_metrics(metrics, t0), stats


def flagstat_parallel(sam_path: str | os.PathLike[str], nprocs: int = 1,
                      executor: str = "simulate",
                      ) -> tuple[FlagStats, list[RankMetrics]]:
    """Parallel flagstat over a SAM file: Algorithm-1 partitions,
    per-rank counting, element-wise reduction."""
    sam_path = os.fspath(sam_path)
    _, header_end = scan_header(sam_path)
    partitions = partition_alignments(sam_path, nprocs, header_end)
    specs = [_FlagstatSpec(sam_path, p.start, p.end) for p in partitions]
    outcomes = execute_rank_tasks(_flagstat_rank_task, specs, executor)
    total = FlagStats()
    metrics = []
    for rank_metrics, stats in outcomes:
        total = total.merge(stats)
        metrics.append(rank_metrics)
    return total, metrics
