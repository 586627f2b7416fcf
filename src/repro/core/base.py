"""Converter runtime scaffolding shared by the three converter instances.

The paper separates a *runtime system* (partitioning, buffering,
parallel execution, resource management) from the *user program* (the
per-record conversion function).  This module is the runtime system's
common machinery, each job done once:

* :func:`plan_sources` — the one planner: how any input (SAM, BAM,
  store) is cut into one :class:`Source` opener per rank;
* :func:`convert_rank` — the one rank task and its one slab loop, into
  one of three sinks: a target's part file (:class:`PartSink`), a
  store's part file (:class:`StoreSink`, :func:`encode_rank`; joined
  by :func:`~repro.formats.store.join_store_parts`) or a statistic
  (:class:`FoldSink`, :func:`fold_rank`, :func:`run_fold`);
* :func:`run_conversion` — the driver every ``convert*`` method shares:
  resolve the tuning knobs, run one task per rank, fold the result;
* :func:`execute_rank_tasks` — run one task per rank (or per shard of a
  rank) under the chosen executor (``simulate`` / ``thread`` /
  ``process``), always inside a ``rank``/``shard`` span;
* :class:`ConversionResult` — what every converter returns: output
  paths, per-rank metrics (feeding the cluster model), record counts.

A new input kind plugs in by a :func:`plan_sources` branch whose
openers yield a :class:`Source`; no verb and no sink changes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from ..defaults import AUTO, DEFAULT_BATCH_SIZE, KNOBS, STORE_FORMATS, \
    validate_knob
from ..defaults import EXECUTORS  # noqa: F401 (exported by repro.core)
from ..errors import ConversionError, FaultInjectedError, RuntimeLayerError
from ..formats.header import SamHeader
from ..formats.kernels import KERNEL_TARGETS, KernelFallback, \
    kernel_emitter_for
from ..formats.record import AlignmentRecord
from ..formats.registry import SOURCE_FORMATS, source_kind
from ..runtime import faults
from ..runtime.buffers import DEFAULT_READ_CHUNK, BufferedTextWriter
from ..runtime.metrics import RankMetrics
from ..runtime.partition import partition_records
from ..runtime.tracing import Tracer, get_tracer
from .filters import ACCEPT_ALL, RecordFilter
from .targets import TargetFormat, get_target

if TYPE_CHECKING:
    from ..runtime.autotune import JobTuning


def converter_options(batch_size: int | str, pipeline: str,
                      shards_per_rank: int | str, tuner: Any,
                      store_format: str = "bamx") -> tuple:
    """Validate the constructor options the three converters share.

    Returns ``(batch_size, shards_per_rank, tuner)`` — the validated
    knobs and the tuner that resolves ``shards_per_rank="auto"``; a
    bad *pipeline* or *store_format* raises
    :class:`~repro.errors.ConversionError` before the converter touches
    any file.
    """
    KNOBS["pipeline"].check(pipeline, ConversionError)
    KNOBS["store_format"].check(store_format, ConversionError)
    batch_size = KNOBS["batch_size"].check(batch_size, ConversionError)
    # The one place "auto" is still a shard count: the CLI and the
    # service take integers only (the ``shards`` row), but the
    # benchmark's probe drives the library's tuner.
    shards_per_rank = validate_knob(shards_per_rank, "shards_per_rank",
                                    ConversionError, auto=True)
    if tuner is None and shards_per_rank == AUTO:
        # "auto" without an explicit tuner: a private in-memory tuner
        # (cold -> defaults, warming across this converter instance's
        # calls).  Manual knobs keep ``None`` and pay zero tuning
        # overhead.
        from ..runtime.autotune import AutoTuner, CostModel
        tuner = AutoTuner(CostModel())
    return batch_size, shards_per_rank, tuner


@dataclass(slots=True)
class ConversionResult:
    """Outcome of one conversion run.

    Attributes
    ----------
    target:
        Target format name.
    outputs:
        Paths of the produced part files, in rank order.
    rank_metrics:
        One :class:`RankMetrics` per rank (conversion phase only).
    preprocess_metrics:
        Metrics of the preprocessing phase, when the converter has one.
    records:
        Total records converted (after target-side skips this is the
        number *emitted*, tracked separately as ``emitted``).
    emitted:
        Total target objects written.
    wall_seconds:
        Real elapsed time of the run on this machine.
    """

    target: str
    outputs: list[str] = field(default_factory=list)
    rank_metrics: list[RankMetrics] = field(default_factory=list)
    preprocess_metrics: list[RankMetrics] = field(default_factory=list)
    records: int = 0
    emitted: int = 0
    wall_seconds: float = 0.0

    @property
    def nprocs(self) -> int:
        """Number of ranks that participated in conversion."""
        return len(self.rank_metrics)


def run_conversion(converter: Any, task_fn: Callable[[Any], Any],
                   span: tuple[str, str, dict[str, Any]], target: str,
                   out_dir: str | os.PathLike[str], nprocs: int,
                   executor: str,
                   plan: Callable[[str], tuple[str, str, list]],
                   ) -> ConversionResult:
    """The driver every ``convert*`` method shares.

    Opens the *span* ``(name, category, args)``, asks ``plan(out_dir)``
    — inside the span, so partitioning/locating is traced under it —
    for ``(store_kind, pipeline, specs)``: the cost-model key parts and
    one spec per rank (``out_path`` names its output; the job's size
    is the sum of their ``cost_hint``).  *out_dir* is
    created once the plan stands, so a missing input or unknown target
    leaves nothing behind.  ``shards_per_rank`` of *converter* is then
    resolved for that job (by its ``tuner`` when ``"auto"``), its
    ``batch_size`` is filled into the specs, and the rank tasks run
    under *executor*.
    """
    if nprocs < 1:
        raise ConversionError(f"nprocs {nprocs} must be >= 1")
    out_dir = os.fspath(out_dir)
    t0 = time.perf_counter()
    tracer = get_tracer()
    span_name, category, span_args = span
    with tracer.span(span_name, category, args=span_args):
        store_kind, pipeline, specs = plan(out_dir)
        if pipeline.startswith("record") or target not in KERNEL_TARGETS:
            # Every rank runs the record tier: load it before a pool forks.
            from ..formats import batch  # noqa: F401
        os.makedirs(out_dir, exist_ok=True)
        # Without a tuner shards_per_rank is a plain int (see
        # converter_options) and nothing is observed.
        shards = converter.shards_per_rank
        tuning = None
        if converter.tuner is not None:
            tuning = converter.tuner.begin_job(
                target=target, store_format=store_kind, pipeline=pipeline,
                total_units=sum(spec.cost_hint() for spec in specs),
                nprocs=nprocs, shards=shards,
                batch_size=converter.batch_size)
            shards = tuning.shards_per_rank
        specs = [replace(spec, batch_size=converter.batch_size)
                 for spec in specs]
        rank_metrics = execute_rank_tasks(
            task_fn, specs, executor, shards_per_rank=shards,
            tuning=tuning)
        if tuning is not None:
            # Persist the job's observations and trace its cost_model
            # block: the provenance span nests under this span, so the
            # trace explains every auto decision.
            tuning.finish()
            with tracer.span("autotune", "autotune",
                             args={"cost_model": tuning.provenance()}):
                pass
    return ConversionResult(
        target=target,
        outputs=[s.out_path for s in specs],
        rank_metrics=rank_metrics,
        records=sum(m.records for m in rank_metrics),
        emitted=sum(m.emitted for m in rank_metrics),
        wall_seconds=time.perf_counter() - t0,
    )


def execute_rank_tasks(task_fn: Callable[[Any], RankMetrics],
                       specs: Sequence[Any],
                       executor: str = "simulate",
                       shards_per_rank: int = 1,
                       tuning: JobTuning | None = None,
                       span_name: str = "rank",
                       ) -> list[RankMetrics]:
    """Run ``task_fn(spec)`` once per rank spec; return per-rank results.

    Every rank-parallel call is the same three steps: **split** each
    spec, **dispatch** all pieces once, **merge** each rank's pieces in
    shard order.  A piece, once dispatched, runs to completion.

    Executors
    ---------
    ``simulate``
        Pieces run one after another in this process.  Per-rank timings
        are undistorted by contention, which is what the simulated-
        cluster model needs; this is the default and what the benches
        use.
    ``thread``
        Pieces run on the shared persistent thread pool (real
        concurrency, shared memory), capped at ``os.cpu_count()``
        workers.
    ``process``
        Pieces run on the shared persistent process pool (true
        parallelism; *task_fn* and specs must be picklable).  Workers
        are forked where the platform supports it and spawned
        otherwise.

    Sharding
    --------
    With ``shards_per_rank > 1`` every spec that implements ``split(n)``
    is over-decomposed into up to *n* shards; the shards of all ranks
    form one work list the shared pool pulls longest-first, and each
    rank's results are folded back by its spec's ``merge_shards`` (an
    ordered reducer, so outputs stay byte-identical to the static run).
    The static one-task-per-rank schedule is the same schedule with
    one-piece groups: where nothing decomposes, pieces run under a span
    called *span_name* instead of ``shard``.

    *tuning* (a :class:`~repro.runtime.autotune.JobTuning`) is handed
    the measured ``(units, seconds)`` pair of every piece and the
    dispatch's wall; it changes nothing about the schedule.
    """
    KNOBS["executor"].check(executor, RuntimeLayerError)
    if not specs:
        raise RuntimeLayerError("no rank specs to execute")
    if shards_per_rank < 1:
        raise RuntimeLayerError(
            f"shards_per_rank must be >= 1, got {shards_per_rank}")
    # Specs opt in to sharding by implementing ``split(n) -> list[spec]``
    # and may return ``[self]`` to decline (a single record, ...);
    # sort/histogram/flagstat specs and ``--shards 1`` give one-piece
    # groups, i.e. the static schedule.
    groups = [spec.split(shards_per_rank)
              if shards_per_rank > 1 and hasattr(spec, "split") else [spec]
              for spec in specs]
    for spec, group in zip(specs, groups):
        if not group:
            raise RuntimeLayerError(
                f"split() of {type(spec).__name__} returned no shards")
    sharded = any(len(group) > 1 for group in groups)
    work = [(rank, shard if sharded else None, piece)
            for rank, group in enumerate(groups)
            for shard, piece in enumerate(group)]
    t0 = time.perf_counter()
    results = _dispatch(task_fn, work, executor, span_name)
    wall = time.perf_counter() - t0
    out, at = [], 0
    for spec, group in zip(specs, groups):
        done = results[at:at + len(group)]
        at += len(group)
        out.append(done[0] if len(group) == 1
                   else spec.merge_shards(group, done))
    if tuning is not None:
        tuning.observe([(_cost_hint(piece), float(result.total_seconds))
                        for (_, _, piece), result in zip(work, results)],
                       wall)
    return out


def _cost_hint(spec: Any) -> float:
    """Relative size of a shard, for longest-first dispatch."""
    hint = getattr(spec, "cost_hint", None)
    return float(hint()) if hint is not None else 1.0


def _dispatch(task_fn: Callable[[Any], Any],
              work: Sequence[tuple[int, int | None, Any]], executor: str,
              span_name: str) -> list[Any]:
    """Run every ``(rank, shard, spec)`` of *work*; results in *work*
    order.  ``simulate`` (or a single piece) runs inline on the calling
    thread; ``thread``/``process`` is one ``map_tasks`` call on the
    shared executor, which pulls the pieces longest-first."""
    tracer = get_tracer()
    caller = tracer.current_span()
    parent_id = caller.span_id if caller is not None else None
    # Threads record straight into the shared tracer (its span stack is
    # per-thread); a process worker rebuilds a child tracer on the
    # parent's timeline from (enabled, epoch).
    inline = executor == "simulate" or len(work) == 1
    trace = tracer if inline or executor == "thread" \
        else (tracer.enabled, tracer.epoch)
    payloads = [(task_fn, spec, rank, shard, trace, parent_id, span_name)
                for rank, shard, spec in work]
    if inline:
        gathered = [_run_entry(payload) for payload in payloads]
    else:
        from ..runtime.executor import get_shared_executor
        gathered = get_shared_executor().map_tasks(
            _run_entry, payloads, executor,
            labels=[f"rank {rank}" if shard is None
                    else f"rank {rank} shard {shard}"
                    for rank, shard, _ in work],
            costs=[_cost_hint(spec) for _, _, spec in work])
    for (rank, _, _), (_, span_dicts) in zip(work, gathered):
        tracer.ingest(span_dicts, rank=rank, parent_id=parent_id)
    return [result for result, _ in gathered]


def _run_entry(payload: tuple) -> tuple[Any, list[dict[str, Any]]]:
    """Run one rank or shard task under its span (module-level so the
    worker pool can pickle it).

    *payload* is ``(task_fn, spec, rank, shard, trace, parent_id,
    span_name)``: *shard* is ``None`` for a whole-rank task (span
    *span_name*) or the shard index (span ``shard``); *trace* is the
    shared tracer in-process, or ``(enabled, epoch)`` in a pool process,
    which records into a child tracer and returns its spans for the
    parent to :meth:`~repro.runtime.tracing.Tracer.ingest` under *parent_id*.
    In-process, *parent_id* re-attaches the span to the launching span
    even on a pool thread with an empty span stack.  A disabled tracer
    hands out one shared null span, so untraced runs take this same
    path; returns ``(result, span_dicts)``.
    """
    task_fn, spec, rank, shard, trace, parent_id, name = payload
    child = None
    if not isinstance(trace, Tracer):
        trace = child = Tracer(enabled=trace[0], epoch=trace[1])
        parent_id = None
    args = {"task": task_fn.__name__}
    if shard is not None:
        name = "shard"
        args.update(rank=rank, shard=shard)
    with trace.activate(), trace.rank_context(rank), \
            trace.span(name, "rank", rank=rank, args=args,
                       parent_id=parent_id):
        result = task_fn(spec)
    return result, [] if child is None \
        else [s.to_dict() for s in child.spans()]


def merge_shard_outputs(out_path: str, shard_specs: Sequence[Any],
                        shard_metrics: Sequence[RankMetrics],
                        ) -> RankMetrics:
    """The one reducer of part files: concatenate them into *out_path*.

    Parts are appended in order (the first carries the header), so a
    rank's sharded text output is byte-identical to the one an
    unsharded rank task would have written.  A binary target's part is
    a BGZF stream, and BGZF members concatenate: every part but the
    last loses its EOF marker.  The join is written under a temporary
    name that replaces *out_path* only once complete; the parts are
    removed either way.  Returns the metrics fold of *shard_metrics*.
    """
    from ..formats.bgzf import EOF_MARKER
    last, tmp = len(shard_specs) - 1, f"{out_path}.tmp{os.getpid()}"
    try:
        for _ in shard_specs:
            faults.fire("shard.done")
        with open(tmp, "wb") as dst:
            for i, shard in enumerate(shard_specs):
                faults.fire("merge.copy")
                with open(shard.out_path, "rb") as src:
                    shutil.copyfileobj(src, dst)
                    if i < last and src.tell() >= len(EOF_MARKER):
                        src.seek(-len(EOF_MARKER), os.SEEK_END)
                        if src.read() == EOF_MARKER:
                            dst.seek(-len(EOF_MARKER), os.SEEK_END)
                            dst.truncate()
        os.replace(tmp, out_path)
    finally:
        for path in (tmp, *(shard.out_path for shard in shard_specs)):
            with suppress(FileNotFoundError):
                os.remove(path)
    return RankMetrics.merge_shards(list(shard_metrics))


class Source(NamedTuple):
    """An opened source: all :func:`convert_rank` knows of where a
    rank's records come from.  An opener of :func:`plan_sources` —
    ``opener(metrics, batch_size)``, every kind alike — is a context
    manager yielding one (reads metered into *metrics*, chunks of about
    *batch_size* records)."""

    header: SamHeader
    #: The rank's share, in record order, a chunk per pass of the loop
    #: (a store's column slab, a block of SAM lines, a BAM's raw slab).
    chunks: Iterable[Any]
    #: ``columns(chunk) -> slab | None``: the chunk as a slab — a
    #: store's or a BAM's :class:`~repro.formats.bamc.ColumnSlab`, or
    #: proven SAM text (:class:`~repro.formats.sam.TextSlab`) — ``None``
    #: where this chunk needs its records; no function at all for a
    #: source without columns.
    columns: Callable[[Any], Any] | None
    #: ``records(chunk)``: the chunk's alignment records — what
    #: ``pipeline="record"`` and every fallback read.
    records: Callable[[Any], Iterable[AlignmentRecord]]
    #: A conversion fallback cheaper than records, for a chunk the
    #: kernels were offered and could not take: ``slow(chunk, target,
    #: record_filter, out) -> (seen, emitted)``.
    slow: Callable[..., tuple[int, int]] | None = None
    #: Category of the ``batch.pipeline`` span, and the
    #: :class:`RankMetrics` counter of a conversion's fallbacks.
    category: str = "bam"
    fallback_field: str = "kernel_fallbacks"


def plan_sources(path: str | os.PathLike[str], nprocs: int,
                 executor: str = "simulate", scratch: str | None = None,
                 *, reader: str = "plan_sources",
                 reads: Sequence[str] = SOURCE_FORMATS,
                 picks: np.ndarray | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 read_chunk: int = DEFAULT_READ_CHUNK,
                 ) -> tuple[SamHeader, str, list[Callable]]:
    """The one planner: how the alignment file *path* is cut into the
    sources of *nprocs* ranks, by its kind (:func:`~repro.formats.
    registry.source_kind`, refusing in one line any kind but *reads*
    of *reader*, the caller):

    * a SAM — Algorithm-1 partitions (:class:`~.sam_converter.SamCut`,
      read *read_chunk* bytes at a time);
    * a BAM — given a *scratch* path prefix, runs of whole slabs of the
      spool ``<scratch>.spool``, cut every *batch_size* records
      (:func:`~.bam_converter.bam_spool`, its inflate ranks on
      *executor*; the spool is the caller's to remove); without one,
      the whole BAM as one rank streamed from its BGZF blocks
      (:class:`~.bam_converter.BamStream`);
    * a BAMX, BAMC or BAMZ store — even record ranges; or, given
      *picks* (record indices in output order), even shares of them:
      ranges where they are one ascending run, the picks where not
      (:class:`~.bam_converter.StoreCut`).

    Returns ``(header, kind, openers)`` — a store's *kind* is the one
    its magic names — with one picklable opener per rank: a context
    manager yielding its :class:`Source`.  A SAM's or a store's cut
    also has ``cost_hint()`` and ``split(n)``, its own cut again into
    <= *n* non-empty pieces (:meth:`PartSpec.split`); a BAM's does not
    split."""
    if nprocs < 1:
        raise ConversionError(f"nprocs {nprocs} must be >= 1")
    path = os.fspath(path)
    kind = source_kind(path, reader, reads)
    if kind == "sam":
        from .sam_converter import SamCut, partition_alignments, scan_header
        header, header_end = scan_header(path)
        return header, kind, [
            SamCut(path, p.start, p.end, header.to_text(), read_chunk)
            for p in partition_alignments(path, nprocs, header_end)]
    if kind == "bam":
        from .bam_converter import BamStream, bam_spool
        if scratch is not None:
            header, openers = bam_spool(path, scratch + ".spool", nprocs,
                                        executor, batch_size)
            return header, kind, openers
        from ..formats.bam import BamReader
        with BamReader(path) as bam:
            return bam.header, kind, [BamStream(path)]
    from ..formats.store import open_record_store, store_header
    from .bam_converter import StoreCut
    if picks is None:
        with open_record_store(path) as store:
            header, kind, count = store.header, store.kind, len(store)
        return header, kind, [StoreCut(path, a, b)
                              for a, b in partition_records(count, nprocs)]
    kind, header = store_header(path)
    # One ascending run?  A slice at a time: a sort's picks are as many
    # as the store's records.
    first, step = int(picks[0]) if len(picks) else 0, 1 << 20
    run = all((np.diff(picks[a:a + step + 1]) == 1).all()
              for a in range(0, len(picks), step))
    return header, kind, [
        StoreCut(path, first + a, first + b) if run
        else StoreCut(path, picks=picks[a:b])
        for a, b in partition_records(len(picks), nprocs)]


@dataclass(frozen=True, slots=True)
class PartSpec:
    """A conversion rank, whatever the input: the cut *open* of
    :func:`plan_sources` converted into the part file *out_path* of the
    format *target* (:class:`PartSink`; a store format, for a SAM
    preprocessing rank).  :meth:`split` and :meth:`merge_shards` are
    how :func:`execute_rank_tasks` shards it."""

    open: Callable[..., Any]
    target: str
    out_path: str
    record_filter: RecordFilter = ACCEPT_ALL
    batch_size: int = DEFAULT_BATCH_SIZE
    pipeline: str = "batch"
    write_header: bool = True

    def cost_hint(self) -> float:
        """Relative size of the rank: its cut's, else 1."""
        return _cost_hint(self.open)

    def split(self, n: int) -> list[PartSpec]:
        """Over-decompose this rank into a shard per piece of its cut's
        ``split(n)``, each writing its own ``.shardNN`` part file that
        :meth:`merge_shards` concatenates back.  Only shard 0 of a
        header-carrying spec writes the file header.  A cut that does
        not split (a BAM's), and a store part — joined from its one
        part, not concatenated — stay whole."""
        split = getattr(self.open, "split", None)
        if n <= 1 or split is None or self.cost_hint() <= 1 \
                or self.target in STORE_FORMATS:
            return [self]
        pieces = split(n)
        if len(pieces) <= 1:
            return [self]
        return [replace(self, open=piece,
                        out_path=f"{self.out_path}.shard{i:02d}",
                        write_header=(i == 0 and self.write_header))
                for i, piece in enumerate(pieces)]

    def merge_shards(self, shard_specs: Sequence[PartSpec],
                     shard_results: Sequence[RankMetrics]) -> RankMetrics:
        """Ordered reducer: concatenate shard files into ``out_path``."""
        return merge_shard_outputs(self.out_path, shard_specs,
                                   shard_results)


def part_specs(openers: Sequence[Callable], out_dir: str, stem: str,
               target: str, **fields: Any) -> list[PartSpec]:
    """The ranks of a conversion: one :class:`PartSpec` per opener, into
    the part file ``<out_dir>/<stem>.part<rank><ext>`` — *ext* the
    target's, or ``.<format>`` for a store format (a bad target name
    raises here, before any file is made); *fields* fill the rest."""
    ext = f".{target}" if target in STORE_FORMATS \
        else get_target(target).extension
    return [PartSpec(opener, target, f"{out_dir}/{stem}.part{rank:04d}{ext}",
                     **fields)
            for rank, opener in enumerate(openers)]


class SinkSpec(NamedTuple):
    """A rank whose slabs go to ``sink(source)`` — a
    :class:`StoreSink` or a :class:`FoldSink` — not to a part file."""

    open: Callable[..., Any]
    sink: Callable[[Source], Any]
    batch_size: int = DEFAULT_BATCH_SIZE


def convert_rank(spec: Any) -> Any:
    """The one rank task (module-level, so the process pool can pickle
    it) and its one slab loop.  *spec* opens the rank's
    :class:`Source` (``spec.open(metrics, spec.batch_size)``); each
    chunk goes down one ladder — its column slab
    (a store's or a BAM's :class:`~repro.formats.bamc.ColumnSlab`, else
    proven SAM text) where the sink takes it, else the chunk's records,
    a fallback counted in the sink's ``fallback_field`` — into one of
    three sinks:

    * :class:`PartSink` — for a :class:`PartSpec`: the target's part
      file; returns the metrics;
    * :class:`StoreSink` (:func:`encode_rank`): a store's part file;
      returns ``(metrics, slabs)``;
    * :class:`FoldSink` (:func:`fold_rank`): a statistic; returns
      ``(metrics, result)``."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    with spec.open(metrics, spec.batch_size) as source:
        sink = spec.sink(source) if hasattr(spec, "sink") \
            else PartSink(spec, source)
        columns, field = sink.columns, sink.fallback_field

        def ladder(chunk: Any) -> Any:
            # A function, not a generator: no slab outlives its chunk.
            slab = columns(chunk) if columns is not None else None
            taken = None if slab is None else sink.take(slab)
            if taken is None:
                if field is not None:
                    setattr(metrics, field, getattr(metrics, field) + 1)
                taken = sink.fallback(chunk)
            return taken

        result = sink.drain(map(ladder, source.chunks), metrics)
    finish_rank_metrics(metrics, t0)
    return result


class _Sink:
    """Where a rank's slabs go, bound to its opened *source*: the
    ``columns`` it reads slabs with (``None``: records only), ``take``
    of a slab (``None`` declines it), ``fallback`` of a chunk, and
    ``drain`` of what they made into the rank's result."""

    fallback_field: str | None = None

    def __init__(self, source: Source) -> None:
        self.source, self.header = source, source.header
        self.columns = source.columns


class PartSink(_Sink):
    """A target's part file ``spec.out_path`` (:func:`_part_writer`): a
    slab through the target's kernel emitter, a fallback through the
    source's ``slow`` path where the kernels were offered, else its
    records (:func:`~repro.formats.batch.convert_records`) — all of
    them under ``pipeline="record"``, the oracle, which records no
    ``batch.pipeline`` span and counts no fallback."""

    def __init__(self, spec: Any, source: Source) -> None:
        super().__init__(source)
        self.spec, self.target = spec, get_target(spec.target)
        self.batch = spec.pipeline == "batch"
        self.emit = kernel_emitter_for(self.target, self.header) \
            if self.batch and self.columns is not None else None
        if self.emit is None:
            self.columns = None
        if self.batch:
            self.fallback_field = source.fallback_field

    def take(self, slab: Any) -> tuple | None:
        try:
            lines, seen = self.emit(slab, self.spec.record_filter)
        except KernelFallback:
            return None
        return lines, seen, len(lines)

    def fallback(self, chunk: Any) -> tuple:
        out: list = []
        if self.emit is not None and self.source.slow is not None:
            seen, emitted = self.source.slow(chunk, self.target,
                                             self.spec.record_filter, out)
        else:
            from ..formats.batch import convert_records
            seen, emitted = convert_records(self.source.records(chunk),
                                            self.target,
                                            self.spec.record_filter, out)
        return out, seen, emitted

    def drain(self, items: Iterable[tuple], metrics: RankMetrics,
              ) -> RankMetrics:
        """Write *items* ``(lines, seen, emitted)`` — a BAM's records'
        bytes for lines — under the file header (only where
        ``spec.write_header``), flushing once ``spec.batch_size`` lines
        are pending, all under a ``write`` span unless the source is SAM
        text.  No timer runs here: compute seconds are the rank's wall
        minus its metered I/O (:func:`finish_rank_metrics`)."""
        spec, field, tracer = self.spec, self.fallback_field, get_tracer()
        write = nullcontext() if self.source.category == "sam" \
            else tracer.span("write", "io", args={
                "out": os.path.basename(spec.out_path)})
        span = tracer.span(
            "batch.pipeline", self.source.category,
            args={"batch_size": spec.batch_size,
                  "kernel": self.emit is not None, "target": spec.target}) \
            if self.batch else nullcontext()
        seen = emitted = batches = 0
        with write, span as traced, \
                _part_writer(spec.out_path, self.target, metrics) \
                as (head, write):
            text = self.target.file_header(self.header)
            if text and spec.write_header:
                head(text)
            out: list = []
            for lines, s, e in items:
                out.extend(lines)
                seen, emitted, batches = seen + s, emitted + e, batches + 1
                if len(out) >= spec.batch_size:
                    write(out)
                    out = []
            if out:
                write(out)
            if traced is not None:
                traced.args.update(batches=batches, records=seen)
                if field is not None:
                    traced.args["fallbacks"] = getattr(metrics, field)
        metrics.records += seen
        metrics.emitted += emitted
        return metrics


class StoreSink(_Sink):
    """A store's part file *part_path*: each slab encoded under the
    tightest *store_format* layout that holds it (:func:`~repro.formats.
    store.encode_slab_part`) — proven SAM text BAM-encoded first
    (:meth:`~repro.formats.sam.TextSlab.column_slab`), a fallback's
    records packed (``fallbacks``).  Drains to the metrics and, per
    slab, ``(bytes, records, index columns, layout)``: what
    :func:`~repro.formats.store.join_store_parts` joins the parts of all
    ranks with."""

    fallback_field = "fallbacks"

    def __init__(self, part_path: str, store_format: str,
                 source: Source) -> None:
        super().__init__(source)
        self.part_path, self.store_format = part_path, store_format

    def take(self, slab: Any) -> Any:
        return slab.column_slab(self.header) \
            if hasattr(slab, "column_slab") else slab

    def fallback(self, chunk: Any) -> Any:
        from ..formats.bamc import slab_from_records
        return slab_from_records(list(self.source.records(chunk)),
                                 self.header)

    def drain(self, slabs: Iterable[Any], metrics: RankMetrics,
              ) -> tuple[RankMetrics, list[tuple]]:
        from ..formats.store import encode_slab_part
        done = []
        with open(self.part_path, "wb") as part:
            for slab in slabs:
                data, need = encode_slab_part(slab, self.store_format)
                done.append((part.write(data), slab.count, slab.placed(0),
                             need))
                metrics.records += slab.count
        return metrics, done


class FoldSink(_Sink):
    """A statistic: ``fold(slabs, header)`` consumes slabs of the
    statistics columns — ``flag``, ``mapq``, ``ref_id``, ``next_ref``,
    ``pos``, ``end_pos``.  A store's or a BAM's slab has them; proven
    SAM text and a fallback's records resolve the ids from RNAME /
    RNEXT: ``=`` is the read's own, ``*`` -1, and a name missing from
    ``@SQ`` an id of its own past the dictionary — so a mate there is
    on a different chr, and no coverage array takes the read.  Drains
    to ``(metrics, what the fold returns)``."""

    def __init__(self, fold: Callable[..., Any], source: Source) -> None:
        super().__init__(source)
        self.fold = fold
        self.ids = {"*": -1, **{ref.name: i for i, ref
                                in enumerate(self.header.references)}}

    def _stats(self, flag, mapq, pos, end_pos, rnames, rnexts):
        ids, past = self.ids, len(self.header.references)

        def ref_id(name: str) -> int:
            return ids.setdefault(name, past + len(ids))
        own = [ref_id(name) for name in rnames]
        return SimpleNamespace(
            count=len(own), flag=flag, mapq=mapq, pos=pos, end_pos=end_pos,
            ref_id=np.array(own, np.int64),
            next_ref=np.array([o if name == "=" else ref_id(name)
                               for o, name in zip(own, rnexts)], np.int64))

    def take(self, slab: Any) -> Any:
        return slab if hasattr(slab, "ref_id") else self._stats(
            slab.flag, slab.mapq, slab.pos, slab.end_pos, slab.column(2),
            slab.column(6))

    def fallback(self, chunk: Any) -> Any:
        records = list(self.source.records(chunk))
        return self._stats(*np.array(
            [(r.flag, r.mapq, r.pos, r.end) for r in records],
            np.int64).reshape(-1, 4).T,
            [r.rname for r in records], [r.rnext for r in records])

    def drain(self, slabs: Iterable[Any], metrics: RankMetrics,
              ) -> tuple[RankMetrics, Any]:
        def counted() -> Iterator[Any]:
            for slab in slabs:
                metrics.records += slab.count
                yield slab
        return metrics, self.fold(counted(), self.header)


def encode_rank(spec: tuple) -> tuple[RankMetrics, list[tuple]]:
    """``(opener, part_path, store_format)``: :func:`convert_rank` into
    a :class:`StoreSink` — one rank of every store write."""
    return convert_rank(SinkSpec(spec[0], partial(StoreSink, *spec[1:])))


def fold_rank(spec: tuple) -> tuple[RankMetrics, Any]:
    """``(opener, fold)``: :func:`convert_rank` into a :class:`FoldSink`
    — one rank of every statistic."""
    return convert_rank(SinkSpec(spec[0], partial(FoldSink, spec[1])))


@contextmanager
def open_records(path: str | os.PathLike[str], reader: str,
                 ) -> Iterator[tuple[SamHeader, Iterator[AlignmentRecord]]]:
    """``(header, records)``: every record of the alignment file *path*
    in order, read from the one source :func:`plan_sources` opens for
    one rank without scratch (*reader* names the caller)."""
    header, _, (opener,) = plan_sources(path, 1, reader=reader)
    with opener(RankMetrics()) as source:
        yield header, (record for chunk in source.chunks
                       for record in source.records(chunk))


def run_fold(path: str | os.PathLike[str], fold: Callable[..., Any],
             nprocs: int, executor: str, reader: str,
             ) -> tuple[list, list[RankMetrics]]:
    """:func:`fold_rank` with *fold* over the sources
    :func:`plan_sources` cuts the alignment file *path* into for
    *nprocs* ranks (a BAM's spool in a scratch directory the call
    removes; *reader* names the caller in a refusal).  Returns the
    per-rank results and metrics."""
    with tempfile.TemporaryDirectory(prefix="repro-fold-") as scratch:
        _, _, openers = plan_sources(path, nprocs, executor,
                                     os.path.join(scratch, "input"),
                                     reader=reader)
        done = execute_rank_tasks(fold_rank, [(opener, fold)
                                              for opener in openers],
                                  executor)
    return [result for _, result in done], [metrics for metrics, _ in done]


@contextmanager
def _part_writer(path: str, target: TargetFormat, metrics: RankMetrics,
                 ) -> Iterator[tuple[Callable, Callable]]:
    """``(head, write)`` over the part file *path*: *head* takes the
    file header, *write* a list of lines — or, for a binary target,
    records' bytes, compressed into BGZF blocks.  The file is
    ``<path>.tmp<pid>`` until a clean exit moves it into place; a
    failure removes it."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        if target.mode == "binary":
            from ..formats.bgzf import BgzfWriter
            with BgzfWriter(tmp) as bgzf:
                yield bgzf.write, lambda out: bgzf.write(b"".join(out))
            metrics.bytes_written += os.path.getsize(tmp)
        else:
            with BufferedTextWriter(tmp, metrics=metrics) as writer:
                yield writer.write_text, writer.write_lines
        if faults.should_corrupt("output.write"):   # a short write
            os.truncate(tmp, os.path.getsize(tmp) // 2)
            raise FaultInjectedError("injected short write at output.write")
        faults.fire("output.write")
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def finish_rank_metrics(metrics: RankMetrics, t_start: float) -> RankMetrics:
    """Derive compute seconds as total wall time minus metered I/O."""
    wall = time.perf_counter() - t_start
    metrics.compute_seconds = max(0.0, wall - metrics.io_seconds)
    return metrics
