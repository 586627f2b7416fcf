"""Parallel coverage-histogram construction.

§IV opens with: "By using the sequence data format converter, the user
is able to convert aligned sequence data in SAM/BAM format into
histogram data ... in parallel."  This module is that step: the SAM
input is partitioned with Algorithm 1, each rank accumulates a partial
binned histogram for every reference, and the partials are summed —
coverage accumulation is a commutative reduction, so the result is
exactly the sequential histogram (asserted in tests).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..core.base import execute_rank_tasks, finish_rank_metrics
from ..core.sam_converter import partition_alignments, range_records, \
    scan_header
from ..errors import ReproError
from ..formats.header import SamHeader
from ..runtime.metrics import RankMetrics
from .histogram import bin_coverage, coverage_depth


@dataclass(frozen=True, slots=True)
class _HistogramSpec:
    sam_path: str
    start: int
    end: int
    header_text: str
    bin_size: int


def _histogram_rank_task(spec: _HistogramSpec,
                         ) -> tuple[RankMetrics, dict[str, np.ndarray]]:
    t0 = time.perf_counter()
    metrics = RankMetrics()
    header = SamHeader.from_text(spec.header_text)
    records = list(range_records(spec.sam_path, spec.start, spec.end,
                                 metrics))
    metrics.records = len(records)
    partial = {}
    for ref in header.references:
        depth = coverage_depth(records, ref.name, ref.length)
        partial[ref.name] = bin_coverage(depth, spec.bin_size)
    return finish_rank_metrics(metrics, t0), partial


def histogram_parallel(sam_path: str | os.PathLike[str],
                       bin_size: int = 25, nprocs: int = 1,
                       executor: str = "simulate",
                       ) -> tuple[dict[str, np.ndarray],
                                  list[RankMetrics]]:
    """Binned coverage histograms for every reference, in parallel.

    Returns ``({chrom: bins}, per-rank metrics)``; identical to
    :func:`repro.stats.histogram.histogram_from_records` over the same
    file.
    """
    if nprocs < 1:
        raise ReproError(f"nprocs {nprocs} must be >= 1")
    sam_path = os.fspath(sam_path)
    header, header_end = scan_header(sam_path)
    if not header.references:
        raise ReproError(
            "histogram construction needs an @SQ reference dictionary")
    partitions = partition_alignments(sam_path, nprocs, header_end)
    specs = [_HistogramSpec(sam_path, p.start, p.end, header.to_text(),
                            bin_size) for p in partitions]
    outcomes = execute_rank_tasks(_histogram_rank_task, specs, executor)
    totals: dict[str, np.ndarray] = {}
    metrics = []
    for rank_metrics, partial in outcomes:
        metrics.append(rank_metrics)
        for chrom, bins in partial.items():
            if chrom in totals:
                totals[chrom] += bins
            else:
                totals[chrom] = bins.copy()
    return totals, metrics
