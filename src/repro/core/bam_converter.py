"""The BAM format converter (§III-B, Fig. 3).

BAM records carry no delimiter and sit inside BGZF blocks, so an even
byte split leaves every partition unparsable: BAM conversion cannot be
parallelized without preprocessing.  The converter therefore runs two
phases:

1. **Preprocessing** — write the fixed-record BAMX file and its BAIX
   index (sorted starting positions -> record indices).  The paper
   runs this sequentially; here only the walk over the ``block_size``
   chain is — BGZF blocks are inflated, and slabs of records encoded,
   by ``nprocs`` ranks (:func:`preprocess_bam`).
2. **Parallel conversion** — the BAMX supports O(1) random access, so
   partitioning degenerates to handing each rank an equal count of
   records; from there the flow matches the SAM converter.

The BAIX also enables *partial conversion*: a chromosome region is
binary-searched to a contiguous BAIX subrange, which is split evenly
across ranks (§III-B, Fig. 4).

For the Table I baseline, :func:`convert_bam_direct` converts straight
from BAM without preprocessing: one rank, no scratch file.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..defaults import DEFAULT_BATCH_SIZE, KNOBS
from ..errors import ConversionError
from ..formats.bam import BamReader, raw_slabs, read_header, \
    slab_columns, slab_records
from ..formats.bgzf import BgzfReader, scan_blocks
from ..formats.header import SamHeader
from ..formats.registry import STORE_KINDS
from ..formats.store import index_path_for, join_store_parts, \
    open_record_store, publishing, store_extension, store_meta
from ..runtime import faults
from ..runtime.metrics import RankMetrics
from ..runtime.partition import partition_records
from ..runtime.tracing import get_tracer
from .base import ConversionResult, PartSpec, Source, convert_rank, \
    converter_options, encode_rank, execute_rank_tasks, \
    finish_rank_metrics, part_specs, plan_sources, run_conversion
from .filters import ACCEPT_ALL, RecordFilter

if TYPE_CHECKING:
    from ..runtime.autotune import AutoTuner
    from .region import GenomicRegion


def preprocess_bam(bam_path: str | os.PathLike[str],
                   bamx_path: str | os.PathLike[str],
                   baix_path: str | os.PathLike[str] | None = None,
                   compress: bool = False, level: int = 6,
                   batch_size: int = DEFAULT_BATCH_SIZE,
                   store_format: str = "bamx", nprocs: int = 1,
                   executor: str = "simulate") -> RankMetrics:
    """Preprocessing: BAM -> BAMX/BAMZ/BAMC + BAIX on *nprocs* ranks,
    every BGZF block inflated once (``docs/parallelization.md``): the
    BAM opened as a spool of slabs (:func:`bam_spool`: ``scan``,
    ``inflate``, ``walk``); ``encode`` runs of whole slabs, a rank each
    (:func:`~repro.core.base.encode_rank`: column views over the raw
    bytes where a slab is provably canonical, decoded records where not
    — ``metrics.fallbacks``); then ``write`` — the parts appended in
    order under the capacities all of them need — and ``index``
    (:func:`~repro.formats.store.join_store_parts`).  One rank runs the
    same stages in this process.
    Store and sidecars get their final names once all are complete;
    spool and parts never outlive the call.  ``compress=True`` writes
    BGZF-compressed BAMZ (the paper's future-work extension),
    ``store_format="bamc"`` the slab-columnar BAMC.  Returns the phase
    metrics.
    """
    t0 = time.perf_counter()
    metrics = RankMetrics()
    bam_path = os.fspath(bam_path)
    bamx_path = os.fspath(bamx_path)
    with get_tracer().span("preprocess", "bam",
                           args={"input": os.path.basename(bam_path),
                                 "compress": compress, "nprocs": nprocs,
                                 "store_format": store_format}), \
            publishing(bamx_path, baix_path) as tmp_path:
        header, _, openers = plan_sources(
            bam_path, nprocs, executor, tmp_path, reader="preprocess_bam",
            reads=("bam",), batch_size=batch_size)
        parts = [f"{tmp_path}.part{rank:04d}" for rank in range(len(openers))]
        done = execute_rank_tasks(
            encode_rank, [(opener, part, store_format)
                          for opener, part in zip(openers, parts)],
            executor, span_name="encode")
        os.unlink(tmp_path + ".spool")
        join_store_parts(tmp_path, header, zip(parts, (slabs for _, slabs
                                                       in done)),
                         store_format, compress, level, batch_size)
        for rank_metrics, _ in done:
            metrics.records += rank_metrics.records
            metrics.fallbacks += rank_metrics.fallbacks
    metrics.bytes_read = os.path.getsize(bam_path)
    metrics.bytes_written = os.path.getsize(bamx_path) + os.path.getsize(
        baix_path if baix_path is not None else index_path_for(bamx_path))
    return finish_rank_metrics(metrics, t0)


def bam_spool(bam_path: str, spool_path: str, nprocs: int, executor: str,
              batch_size: int = DEFAULT_BATCH_SIZE,
              ) -> tuple[SamHeader, list[Callable]]:
    """A BAM opened as *nprocs* sources, every BGZF block inflated
    once: ``scan`` the block boundaries; ``inflate`` block ranges, a
    rank each, into the file *spool_path*; ``walk`` the ``block_size``
    chain over it — the serial residue — for slab cuts every
    *batch_size* records.  Returns the header and one :class:`SpoolRun`
    per rank (runs of whole slabs); the spool is the caller's to
    remove."""
    tracer = get_tracer()
    with tracer.span("scan", "bam"):
        starts, sizes = scan_blocks(bam_path)
        places = [0, *accumulate(sizes)]
    # Only now, so an input the scan refuses leaves no directory.
    os.makedirs(os.path.dirname(spool_path) or ".", exist_ok=True)
    with open(spool_path, "wb") as spool:
        spool.truncate(places[-1])
    # (An empty file, a header-only BAM: one rank with nothing.)
    execute_rank_tasks(_inflate_task, [
        _InflateRange(bam_path, starts[a], starts[b], spool_path, places[a])
        for a, b in _count_pieces(len(sizes), nprocs) or [(0, 0)]],
        executor, span_name="inflate")
    with tracer.span("walk", "bam"), open(spool_path, "rb") as spool:
        # A header length that lies must not size a read.
        header = read_header(
            lambda n: spool.read(max(0, min(n, places[-1]))), bam_path)
        slabs, at = [], spool.tell()
        for _, offsets in raw_slabs(spool.read, batch_size, bam_path):
            slabs.append((at, offsets))
            at += int(offsets[-1])
    return header, [
        SpoolRun(spool_path, tuple(slabs[a:b]), header)
        for a, b in _count_pieces(len(slabs), nprocs) or [(0, 0)]]


class _InflateRange(NamedTuple):
    """A rank's blocks (compressed ``[start, stop)``), their spool place."""

    bam_path: str
    start: int
    stop: int
    spool_path: str
    place: int


def _inflate_task(spec: _InflateRange) -> None:
    faults.fire("preprocess.rank")
    with BgzfReader(spec.bam_path, spec.start, spec.stop) as reader, \
            open(spec.spool_path, "r+b") as spool:
        spool.seek(spec.place)
        while chunk := reader.read(1 << 20):
            spool.write(chunk)


def raw_slab_source(header: SamHeader, chunks: Iterable[tuple]) -> Source:
    """A BAM's raw ``(buf, offsets)`` slabs as a :class:`Source`: column
    views where a slab is provably canonical (:func:`~repro.formats.bam.
    slab_columns`), decoded records where not — every BAM source."""
    n_ref = len(header.references)
    return Source(header, chunks,
                  lambda chunk: slab_columns(*chunk, n_ref),
                  lambda chunk: slab_records(*chunk, header))


class SpoolRun(NamedTuple):
    """A rank's run of slabs of an inflated BAM's records — ``(spool
    offset, record offsets)`` each, as the walk cut them; called, a
    :func:`raw_slab_source`."""

    spool_path: str
    slabs: tuple
    header: SamHeader

    @contextmanager
    def __call__(self, metrics: RankMetrics,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Source]:
        # The walk cut the slabs: *batch_size* is the spool's already.
        faults.fire("preprocess.rank")
        with open(self.spool_path, "rb") as spool:
            def chunks() -> Iterator[tuple]:
                for at, offsets in self.slabs:
                    buf = np.empty(int(offsets[-1]), np.uint8)
                    spool.seek(at)
                    if spool.readinto(buf) != len(buf):
                        raise ConversionError(
                            "preprocessing spool is truncated")
                    metrics.bytes_read += len(buf)
                    yield buf, offsets

            yield raw_slab_source(self.header, chunks())


class BamStream(NamedTuple):
    """A whole BAM in one pass, no scratch; called, its BGZF stream
    walked into slabs of raw records as a :func:`raw_slab_source`."""

    bam_path: str

    @contextmanager
    def __call__(self, metrics: RankMetrics,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Source]:
        with BamReader(self.bam_path) as reader:
            metrics.bytes_read += os.path.getsize(self.bam_path)
            yield raw_slab_source(reader.header,
                                  reader.iter_raw_slabs(batch_size))


@dataclass(frozen=True, slots=True)
class PreprocArtifacts:
    """Preprocessing products handed to a converter from outside.

    The service layer's artifact cache (and any future distributed
    store) builds BAMX/BAIX pairs out-of-band; converters accept this
    handle instead of insisting on running preprocessing themselves.
    """

    store_path: str
    baix_path: str

    @classmethod
    def for_store(cls, store_path: str | os.PathLike[str],
                  baix_path: str | os.PathLike[str] | None = None,
                  ) -> "PreprocArtifacts":
        """Wrap an existing store, defaulting the index path."""
        store_path = os.fspath(store_path)
        return cls(store_path, os.fspath(baix_path) if baix_path is not None
                   else index_path_for(store_path))

    def validate(self) -> "PreprocArtifacts":
        """Check both files exist; returns self for chaining."""
        for path in (self.store_path, self.baix_path):
            if not os.path.isfile(path):
                raise ConversionError(
                    f"preprocessing artifact missing: {path}")
        return self


def _first_seen(found: np.ndarray) -> np.ndarray:
    """*found* without its repeats, in first-seen order (``np.unique``
    sorts by value; this keeps each value's first place)."""
    if len(found) < 2 or (np.diff(found) > 0).all():
        return found
    order = np.argsort(found, kind="stable")
    ranked = found[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    return found[np.sort(order[new])]


def _count_pieces(count: int, n: int) -> list[tuple[int, int]]:
    """Non-empty ``(start, stop)`` parts of an exact split of *count*
    fixed-size records into <= *n* pieces."""
    return [(s, e) for s, e in partition_records(count, n) if e > s]


class StoreCut(NamedTuple):
    """A rank's records of a BAMX/BAMZ/BAMC store — ``[start, stop)``,
    or the *picks* indices in output order — as
    :func:`~repro.core.base.plan_sources` cuts them; called, they are
    read as column slabs (gathered, for picks): the chunks and the
    columns at once.  Records are fixed-size, so it splits by an exact
    count split of its range or its picks."""

    path: str
    start: int = 0
    stop: int = 0
    picks: np.ndarray | None = None

    def cost_hint(self) -> float:
        """Relative size: records to read (random-access, for picks)."""
        return float(self.stop - self.start if self.picks is None
                     else len(self.picks))

    def split(self, n: int) -> list[StoreCut]:
        """The records as <= *n* non-empty even pieces."""
        if self.picks is None:
            return [self._replace(start=self.start + a, stop=self.start + b)
                    for a, b in _count_pieces(self.stop - self.start, n)]
        return [self._replace(picks=self.picks[a:b])
                for a, b in _count_pieces(len(self.picks), n)]

    @contextmanager
    def __call__(self, metrics: RankMetrics,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Source]:
        with open_record_store(self.path) as reader:
            header, picks = reader.header, self.picks
            metrics.bytes_read += reader.layout.record_size * (
                self.stop - self.start if picks is None else len(picks))
            yield Source(header, reader.read_column_batches(
                self.start, self.stop, batch_size) if picks is None
                else reader.read_column_picks(picks, batch_size),
                lambda slab: slab, lambda slab: slab.decode_all(header))


class BamConverter:
    """Two-phase parallel BAM -> * converter.

    Parameters
    ----------
    batch_size:
        Records per slab through the batched conversion phase.
    pipeline:
        ``"batch"`` (default) converts column slabs — read from BAMC,
        decoded from BAMX/BAMZ rows — through the vectorized kernels;
        ``"record"`` decodes every record.  Outputs are byte-identical.
    shards_per_rank:
        Over-decomposition factor: each rank's record range is split
        into up to this many shards pulled dynamically by the shared
        worker pool.  ``1`` (default) is the paper-faithful static
        schedule; ``"auto"`` lets the cost model pick per job.
    store_format:
        Record-store format :meth:`preprocess` writes: ``"bamx"``
        (default; row-major fixed records, BAMZ when compressed) or
        ``"bamc"`` (slab-columnar).  Conversion itself dispatches on
        the store's magic, so either converter reads either store.
    tuner:
        :class:`~repro.runtime.autotune.AutoTuner` resolving
        ``shards_per_rank="auto"`` and learning from every run;
        auto-created in-memory when omitted but *shards_per_rank* is
        ``"auto"``.
    """

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE,
                 pipeline: str = "batch",
                 shards_per_rank: int | str = 1,
                 store_format: str = "bamx",
                 tuner: AutoTuner | None = None) -> None:
        self.batch_size, self.shards_per_rank, self.tuner = \
            converter_options(batch_size, pipeline, shards_per_rank,
                              tuner, store_format)
        self.pipeline = pipeline
        self.store_format = store_format

    def preprocess(self, bam_path: str | os.PathLike[str],
                   work_dir: str | os.PathLike[str],
                   compress: bool = False, nprocs: int = 1,
                   executor: str = "simulate",
                   ) -> tuple[str, str, RankMetrics]:
        """Run preprocessing into *work_dir* on *nprocs* ranks
        (:func:`preprocess_bam`).

        Returns ``(store_path, baix_path, metrics)``; the store is BAMX,
        BGZF-compressed BAMZ when ``compress=True``, or columnar BAMC
        when the converter was built with ``store_format="bamc"``.
        """
        work_dir = os.fspath(work_dir)
        stem = os.path.splitext(os.path.basename(os.fspath(bam_path)))[0]
        bamx_path = os.path.join(
            work_dir, stem + store_extension(compress, self.store_format))
        baix_path = index_path_for(bamx_path)
        metrics = preprocess_bam(bam_path, bamx_path, baix_path,
                                 compress=compress,
                                 batch_size=self.batch_size,
                                 store_format=self.store_format,
                                 nprocs=nprocs, executor=executor)
        return bamx_path, baix_path, metrics

    def ensure_preprocessed(self, bam_path: str | os.PathLike[str],
                            work_dir: str | os.PathLike[str],
                            compress: bool = False,
                            artifacts: PreprocArtifacts | None = None,
                            nprocs: int = 1, executor: str = "simulate",
                            ) -> tuple[PreprocArtifacts,
                                       RankMetrics | None]:
        """Reuse externally supplied artifacts or preprocess now.

        When *artifacts* names an existing BAMX/BAIX pair (e.g. from
        the service layer's content-addressed cache) the preprocessing
        phase is skipped entirely and the metrics slot is ``None``;
        otherwise :meth:`preprocess` runs into *work_dir*.
        """
        if artifacts is not None:
            return artifacts.validate(), None
        store_path, baix_path, metrics = self.preprocess(
            bam_path, work_dir, compress, nprocs, executor)
        return PreprocArtifacts(store_path, baix_path), metrics

    def convert(self, bamx_path: str | os.PathLike[str], target: str,
                out_dir: str | os.PathLike[str], nprocs: int = 1,
                executor: str = "simulate",
                record_filter: RecordFilter | None = None,
                ) -> ConversionResult:
        """Parallel full conversion of a preprocessed BAMX/BAMZ store.

        *record_filter* restricts which records are emitted.
        """
        return self._convert("convert", {}, "", bamx_path, None, target,
                             out_dir, nprocs, executor, record_filter)

    def convert_region(self, bamx_path: str | os.PathLike[str],
                       baix_path: str | os.PathLike[str] | None,
                       region: GenomicRegion | str, target: str,
                       out_dir: str | os.PathLike[str], nprocs: int = 1,
                       executor: str = "simulate", mode: str = "start",
                       record_filter: RecordFilter | None = None,
                       ) -> ConversionResult:
        """Partial conversion of one chromosome region.

        ``mode="start"`` (the paper's semantics) selects records whose
        *starting position* lies inside the region, via binary search
        over the v1 BAIX.  ``mode="overlap"`` selects records whose
        alignment span overlaps the region, via the v2 overlap index
        (the future-work extension); *baix_path* then names the
        ``.baix2`` file.  Either way the selected record indices are
        split evenly across ranks for random-access conversion
        (§III-B).  *record_filter* further restricts by flags/MAPQ.
        """
        return self._convert_picks(
            "convert.region", {}, ".region", bamx_path, baix_path,
            [region], target, out_dir, nprocs, executor, mode,
            record_filter)

    def convert_regions(self, bamx_path: str | os.PathLike[str],
                        baix_path: str | os.PathLike[str] | None,
                        regions: list, target: str,
                        out_dir: str | os.PathLike[str], nprocs: int = 1,
                        executor: str = "simulate", mode: str = "start",
                        record_filter: RecordFilter | None = None,
                        ) -> ConversionResult:
        """Partial conversion of the *union* of several regions.

        Records selected by more than one region are converted exactly
        once; the combined index set is split evenly across ranks.  One
        of the "more partial conversion types" the paper's future work
        calls for.  Parameters match :meth:`convert_region`.
        """
        if not regions:
            raise ConversionError("convert_regions needs >= 1 region")
        return self._convert_picks(
            "convert.regions", {"regions": len(regions)}, ".regions",
            bamx_path, baix_path, regions, target, out_dir, nprocs,
            executor, mode, record_filter)

    def _convert_picks(self, span_name: str, span_args: dict, suffix: str,
                       bamx_path, baix_path, regions: list, target: str,
                       out_dir, nprocs: int, executor: str, mode: str,
                       record_filter: RecordFilter | None,
                       ) -> ConversionResult:
        """Locate *regions* in the store's index and convert the union
        of the selected records; part files are ``<stem><suffix>.*``."""
        KNOBS["mode"].check(mode, ConversionError)

        def picks() -> np.ndarray:
            from .region import GenomicRegion
            _, header, locate = store_meta(bamx_path, mode, baix_path)
            parsed = [GenomicRegion.parse(r, header)
                      if isinstance(r, str) else r for r in regions]
            with get_tracer().span("locate", "bam", args={"mode": mode}):
                return _first_seen(np.concatenate([
                    np.asarray(locate(header.ref_id(r.chrom), r.start,
                                      r.end), dtype=np.int64)
                    for r in parsed]))

        return self._convert(span_name, {**span_args, "mode": mode}, suffix,
                             bamx_path, picks, target, out_dir, nprocs,
                             executor, record_filter)

    def _convert(self, span_name: str, span_args: dict, suffix: str,
                 bamx_path, picks: Callable[[], np.ndarray] | None,
                 target: str, out_dir, nprocs: int, executor: str,
                 record_filter: RecordFilter | None) -> ConversionResult:
        """Convert the store's records — all of them, or ``picks()`` —
        on the ranks :func:`~repro.core.base.plan_sources` cuts: a
        range where they run (zero-copy windows), the picks where not
        (a gather); part files are ``<stem><suffix>.*``."""
        bamx_path = os.fspath(bamx_path)

        def plan(out_dir: str) -> tuple:
            _, kind, cuts = plan_sources(
                bamx_path, nprocs, reader="BamConverter", reads=STORE_KINDS,
                picks=None if picks is None else picks())
            stem = os.path.splitext(os.path.basename(bamx_path))[0] + suffix
            return (kind, self.pipeline + ("" if picks is None else ".pick"),
                    part_specs(cuts, out_dir, stem, target,
                               record_filter=record_filter or ACCEPT_ALL,
                               pipeline=self.pipeline))

        return run_conversion(
            self, convert_rank,
            (span_name, "bam", {"store": os.path.basename(bamx_path),
                                "target": target, "nprocs": nprocs,
                                **span_args}),
            target, out_dir, nprocs, executor, plan)


def convert_bam_direct(bam_path: str | os.PathLike[str], target: str,
                       out_path: str | os.PathLike[str]) -> ConversionResult:
    """Sequential BAM -> * conversion without preprocessing.

    This is "our system without preprocessing" in Table I: the BGZF
    stream is decoded front-to-back on one core and converted on the
    fly (:class:`BamStream`, planned without scratch).
    """
    t0 = time.perf_counter()
    bam_path, out_path = os.fspath(bam_path), os.fspath(out_path)
    with get_tracer().span("convert.direct", "bam",
                           args={"input": os.path.basename(bam_path),
                                 "target": target}):
        _, _, (opener,) = plan_sources(bam_path, 1,
                                       reader="convert_bam_direct",
                                       reads=("bam",))
        rank = convert_rank(PartSpec(opener, target, out_path))
    return ConversionResult(
        target=target,
        outputs=[out_path],
        rank_metrics=[rank],
        records=rank.records,
        emitted=rank.emitted,
        wall_seconds=time.perf_counter() - t0,
    )
