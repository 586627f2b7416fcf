"""Coverage histograms: from alignments to binned peaks.

§IV of the paper: "the histogram is calculated by aligning multiple
sequence reads to a reference genome and accumulating the frequencies
overlapped along the genome segments into binned peaks".  This module
computes exactly that — per-base read depth via a difference array,
then fixed-width bin accumulation — and converts between the dense
array form the statistics kernels use and the BED/BEDGRAPH records the
converter emits.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from functools import partial

import numpy as np

from ..core.base import run_fold
from ..errors import ReproError
from ..formats.bedgraph import BedGraphInterval, compress_runs
from ..formats.header import SamHeader
from ..formats.kernels import add_coverage_events
from ..formats.record import AlignmentRecord
from ..formats.store import column_slabs
from ..runtime.metrics import RankMetrics


def coverage_depth(records: Iterable[AlignmentRecord], chrom: str,
                   length: int) -> np.ndarray:
    """Per-base read depth over ``[0, length)`` of chromosome *chrom*.

    Uses the difference-array trick: +1 at each read start, -1 past each
    read end, then a prefix sum — O(records + length).
    """
    if length <= 0:
        raise ReproError(f"chromosome length {length} must be positive")
    diff = np.zeros(length + 1, dtype=np.int64)
    for record in records:
        if record.rname != chrom or not record.is_mapped or record.pos < 0:
            continue
        start = min(record.pos, length)
        end = min(record.end, length)
        if end > start:
            diff[start] += 1
            diff[end] -= 1
    return np.cumsum(diff[:-1])


def bin_coverage(depth: np.ndarray, bin_size: int) -> np.ndarray:
    """Accumulate per-base depth into fixed-width bins (sum per bin).

    The last bin may cover fewer bases; it still sums what is there.
    """
    if bin_size <= 0:
        raise ReproError(f"bin size {bin_size} must be positive")
    n = len(depth)
    n_bins = (n + bin_size - 1) // bin_size
    padded = np.zeros(n_bins * bin_size, dtype=np.float64)
    padded[:n] = depth
    return padded.reshape(n_bins, bin_size).sum(axis=1)


def histogram_from_records(records: Iterable[AlignmentRecord],
                           header: SamHeader, bin_size: int = 25,
                           ) -> dict[str, np.ndarray]:
    """Binned coverage for every reference in *header*.

    The default 25 bp bin size is the one the paper's NL-means
    experiment uses.
    """
    records = list(records)
    out = {}
    for ref in header.references:
        depth = coverage_depth(records, ref.name, ref.length)
        out[ref.name] = bin_coverage(depth, bin_size)
    return out


def histogram_from_slabs(slabs: Iterable, header: SamHeader,
                         bin_size: int = 25) -> dict[str, np.ndarray]:
    """Binned coverage for every reference in *header* from slabs of
    columns: one difference array per ``@SQ`` reference fed by
    :func:`~repro.formats.kernels.add_coverage_events` — no record is
    ever decoded — binned at the end, so a rank of
    :func:`histogram_parallel` pickles nothing genome-sized.  Without an
    ``@SQ`` dictionary there is nothing to accumulate into."""
    if not header.references:
        raise ReproError(
            "histogram construction needs an @SQ reference dictionary")
    diffs = [np.zeros(ref.length + 1, dtype=np.int64)
             for ref in header.references]
    for slab in slabs:
        for ref_id, (ref, diff) in enumerate(zip(header.references, diffs)):
            add_coverage_events(slab, ref_id, ref.length, diff)
    return {ref.name: bin_coverage(np.cumsum(diff[:-1]), bin_size)
            for ref, diff in zip(header.references, diffs)}


def histogram_from_store(reader, bin_size: int = 25,
                         ) -> dict[str, np.ndarray]:
    """Binned coverage for every reference of an open record store."""
    return histogram_from_slabs(column_slabs(reader), reader.header,
                                bin_size)


def histogram_parallel(path: str | os.PathLike[str], bin_size: int = 25,
                       nprocs: int = 1, executor: str = "simulate",
                       ) -> tuple[dict[str, np.ndarray],
                                  list[RankMetrics]]:
    """Binned coverage histograms for every reference of a SAM, BAM or
    record-store file, on *nprocs* ranks.

    §IV: "convert aligned sequence data in SAM/BAM format into histogram
    data ... in parallel".  Each rank folds its share into binned
    partials (:func:`histogram_from_slabs`) and the partials are summed —
    coverage accumulation is a commutative reduction, so the result is
    exactly :func:`histogram_from_records` over the same file.  Returns
    ``({chrom: bins}, per-rank metrics)``.
    """
    partials, metrics = run_fold(path, partial(histogram_from_slabs,
                                               bin_size=bin_size),
                                 nprocs, executor, "histogram_parallel")
    return {chrom: sum(part[chrom] for part in partials)
            for chrom in partials[0]}, metrics


def histogram_to_bedgraph(histogram: np.ndarray, chrom: str,
                          bin_size: int) -> list[BedGraphInterval]:
    """Render one chromosome's binned histogram as BEDGRAPH intervals
    (equal-value neighbouring bins are collapsed; zero runs kept)."""
    intervals = []
    for iv in compress_runs(chrom, histogram.tolist()):
        intervals.append(BedGraphInterval(chrom, iv.start * bin_size,
                                          iv.end * bin_size, iv.value))
    return intervals


def bedgraph_to_histogram(intervals: Iterable[BedGraphInterval],
                          chrom: str, n_bins: int,
                          bin_size: int) -> np.ndarray:
    """Inverse of :func:`histogram_to_bedgraph` for one chromosome."""
    out = np.zeros(n_bins, dtype=np.float64)
    for iv in intervals:
        if iv.chrom != chrom:
            continue
        if iv.start % bin_size or iv.end % bin_size:
            raise ReproError(
                f"interval {iv.chrom}:{iv.start}-{iv.end} not aligned to "
                f"bin size {bin_size}")
        out[iv.start // bin_size:iv.end // bin_size] = iv.value
    return out
