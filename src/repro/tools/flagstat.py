"""Flag statistics: the ``samtools flagstat`` equivalent.

Counts the standard thirteen categories over a SAM, BAM or record-store
file — in the spirit of the paper, on the converters' own ranks and
sources (:func:`~repro.core.base.run_fold`): each rank sums the
vectorized kernel over its chunks, and an element-wise reduction joins
the ranks (flagstat is a pure map-reduce).
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import reduce

from ..core.base import run_fold
from ..formats.flags import Flag
from ..formats.header import SamHeader
from ..formats.kernels import flagstat_slab
from ..formats.record import AlignmentRecord
from ..formats.store import column_slabs
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


def flagstat_slabs(slabs: Iterable, header: SamHeader | None = None,
                   ) -> FlagStats:
    """Flag statistics summed over slabs of columns with
    :func:`~repro.formats.kernels.flagstat_slab`, no record ever
    materialized: :func:`flagstat_parallel`'s fold (*header* unused)."""
    stats = FlagStats()
    for slab in slabs:
        for name, value in flagstat_slab(slab).items():
            setattr(stats, name, getattr(stats, name) + value)
    return stats


def flagstat_store(reader) -> FlagStats:
    """Flag statistics over an open record store, slab by slab."""
    return flagstat_slabs(column_slabs(reader))


def flagstat(path: str | os.PathLike[str]) -> FlagStats:
    """Flag statistics over a SAM, BAM or record-store file, one rank."""
    return flagstat_parallel(path)[0]


def flagstat_parallel(path: str | os.PathLike[str], nprocs: int = 1,
                      executor: str = "simulate",
                      ) -> tuple[FlagStats, list[RankMetrics]]:
    """Flag statistics over a SAM, BAM or record-store file on *nprocs*
    ranks: per-rank counting, element-wise reduction."""
    results, metrics = run_fold(path, flagstat_slabs, nprocs, executor,
                                "repro flagstat")
    return reduce(FlagStats.merge, results, FlagStats()), metrics
