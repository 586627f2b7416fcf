"""The preprocessing-optimized SAM format converter (§III-C, Fig. 5).

Combines the two earlier strategies: because SAM *can* be partitioned
with Algorithm 1, the BAMX-producing preprocessing phase runs in
parallel — each of M preprocessing ranks converts its SAM partition into
its own BAMX file (plus BAIX index).  The subsequent conversion phase is
the BAM converter's parallel phase run over one BAMX file at a time
with N ranks, yielding M x N target part files in total.

Benefits (per the paper): the preprocessing cost is itself parallelized;
conversion reads compact, perfectly aligned binary records instead of
re-parsing text; and the regular layout improves I/O scalability.
"""

from __future__ import annotations

import os
import time
from functools import partial

from ..defaults import DEFAULT_BATCH_SIZE
from ..errors import ConversionError
from ..formats.header import SamHeader
from ..formats.store import index_path_for, join_store_parts, publishing
from ..runtime.autotune import AutoTuner
from ..runtime.metrics import RankMetrics
from ..runtime.tracing import get_tracer
from .base import ConversionResult, PartSpec, SinkSpec, StoreSink, \
    convert_rank, converter_options, finish_rank_metrics, part_specs, \
    plan_sources, run_conversion
from .bam_converter import BamConverter


def _preprocess_rank_task(spec: PartSpec) -> RankMetrics:
    """Write one SAM partition, the cut ``spec.open``, as the store
    ``spec.out_path`` of format ``spec.target`` (Fig. 5): the store
    write every preprocessor shares, with this rank as its only
    encoder — :func:`~repro.core.base.convert_rank` into a
    :class:`~repro.core.base.StoreSink` part, then
    :func:`~repro.formats.store.join_store_parts`."""
    t0 = time.perf_counter()
    with publishing(spec.out_path) as tmp_path:
        part = tmp_path + ".part"
        with get_tracer().span("parse", "samp",
                               args={"batch_size": spec.batch_size}):
            metrics, slabs = convert_rank(SinkSpec(
                spec.open, partial(StoreSink, part, spec.target),
                spec.batch_size))
        join_store_parts(tmp_path, SamHeader.from_text(spec.open.header_text),
                         [(part, slabs)], spec.target,
                         slab_records=spec.batch_size)
    metrics.emitted = metrics.records
    metrics.bytes_written += (
        os.path.getsize(spec.out_path)
        + os.path.getsize(index_path_for(spec.out_path)))
    return finish_rank_metrics(metrics, t0)


class PreprocSamConverter:
    """SAM -> * converter with a *parallel* BAMX preprocessing phase."""

    def __init__(self, read_chunk: int = 4 << 20,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 pipeline: str = "batch",
                 shards_per_rank: int | str = 1,
                 store_format: str = "bamx",
                 tuner: AutoTuner | None = None) -> None:
        self.read_chunk = read_chunk
        self.batch_size, self.shards_per_rank, self.tuner = \
            converter_options(batch_size, pipeline, shards_per_rank,
                              tuner, store_format)
        self.pipeline = pipeline
        self.store_format = store_format

    def preprocess(self, sam_path: str | os.PathLike[str],
                   work_dir: str | os.PathLike[str], nprocs: int = 1,
                   executor: str = "simulate",
                   ) -> tuple[list[str], list[RankMetrics]]:
        """Parallel preprocessing: M ranks, M BAMX/BAIX file pairs.

        Returns the BAMX paths (rank order) and per-rank metrics.
        """
        sam_path = os.fspath(sam_path)

        def plan(work_dir: str) -> tuple:
            with get_tracer().span("partition", "samp"):
                _, _, cuts = plan_sources(
                    sam_path, nprocs, reader="PreprocSamConverter",
                    reads=("sam",), read_chunk=self.read_chunk)
            return self.store_format, "parse", part_specs(
                cuts, work_dir, os.path.splitext(os.path.basename(sam_path))[0],
                self.store_format)

        result = run_conversion(
            self, _preprocess_rank_task,
            ("preprocess", "samp", {"input": os.path.basename(sam_path),
                                    "nprocs": nprocs}),
            "preprocess", work_dir, nprocs, executor, plan)
        return result.outputs, result.rank_metrics

    def convert(self, bamx_paths: list[str], target: str,
                out_dir: str | os.PathLike[str], nprocs: int = 1,
                executor: str = "simulate") -> ConversionResult:
        """Parallel conversion phase over the preprocessed BAMX files.

        Processes one BAMX file at a time with *nprocs* ranks (the
        paper's N), so M preprocessing ranks and N conversion ranks
        yield M x N target files.
        """
        if not bamx_paths:
            raise ConversionError("no BAMX files to convert")
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        bam_converter = BamConverter(batch_size=self.batch_size,
                                     pipeline=self.pipeline,
                                     shards_per_rank=self.shards_per_rank,
                                     store_format=self.store_format,
                                     tuner=self.tuner)
        parts = [bam_converter.convert(bamx_path, target, out_dir, nprocs,
                                       executor)
                 for bamx_path in bamx_paths]
        # Rank r's total work is the sum of its share of every BAMX file,
        # matching the paper's one-file-at-a-time schedule.
        combined = [RankMetrics() for _ in range(nprocs)]
        for part in parts:
            combined = [total.merge(metrics) for total, metrics
                        in zip(combined, part.rank_metrics)]
        return ConversionResult(
            target=target,
            outputs=[path for part in parts for path in part.outputs],
            rank_metrics=combined,
            records=sum(part.records for part in parts),
            emitted=sum(part.emitted for part in parts),
            wall_seconds=time.perf_counter() - t0,
        )

    def convert_end_to_end(self, sam_path: str | os.PathLike[str],
                           target: str, work_dir: str | os.PathLike[str],
                           out_dir: str | os.PathLike[str],
                           preprocess_procs: int = 1,
                           convert_procs: int = 1,
                           executor: str = "simulate") -> ConversionResult:
        """Preprocess then convert; preprocessing metrics are attached to
        the result's ``preprocess_metrics``."""
        bamx_paths, pre_metrics = self.preprocess(
            sam_path, work_dir, preprocess_procs, executor)
        result = self.convert(bamx_paths, target, out_dir, convert_procs,
                              executor)
        result.preprocess_metrics = pre_metrics
        return result
