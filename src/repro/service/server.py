"""The conversion service: the in-process façade.

:class:`ConversionService` wires the scheduler, the artifact cache and
the existing converters into one long-lived object.  Submitting a job
returns immediately; an attempt, a task on the scheduler's event loop,
sends the whole job to a body worker process and *awaits* its reply
while the worker *works*: the job body (:func:`_job_body`) is a
module-level function of one picklable payload, sent down the worker's
pipe, which checks the job, digests its input, fetches or builds its
cache entry and converts.  So the process holding gateway, journal and
scheduler does no job work and parks no thread on a job, the attempt's
timeout bounds all of it, and N jobs use N cores instead of one GIL.
BAM inputs route their sequential preprocessing through the
content-addressed cache, which the workers share through its
directory, so repeated full or partial-region conversions of the same
input skip that phase entirely — the warm path is an O(1) cache lookup
plus the BAIX binary search.

:class:`~repro.service.gateway.GatewayServer` exposes the façade over
a local unix socket and/or a TCP listener, on the same loop:
transport, session, dispatch and admission-control layers multiplexing
many concurrent submitters without blocking each other; its ``stop()``
drains and then closes the service.  The matching blocking client
lives in :mod:`repro.service.client`, apart from the converter stack
this module imports.
"""

from __future__ import annotations

import os
import time
from typing import Any

from ..core import BamConverter, SamConverter, parse_filter_expr
# Region jobs parse their region in a body worker: load the parser
# before the body workers are forked, not once in each worker.
from ..core import region as _region  # noqa: F401
from ..core.base import _run_entry
from ..defaults import JOB_KINDS, KNOBS, job_knobs
from ..errors import ReproError, ServiceError
from ..formats.registry import SOURCE_FORMATS, STORE_KINDS, source_kind
from ..formats.store import store_extension
from ..runtime.executor import PipeWorkers, reset_shared_executor
from ..runtime.metrics import ServiceMetrics
from ..runtime.tracing import get_tracer
from . import journal as journal_mod
from .cache import ArtifactCache
from .jobs import Job, seed_job_counter
from .journal import JobJournal
from .scheduler import WorkerPool

#: What each job kind reads.
_JOB_READS = {"convert": SOURCE_FORMATS, "region": ("bam", *STORE_KINDS),
              "preprocess": ("bam",)}


def _check_job(kind: str, params: dict[str, Any],
               shards: int) -> tuple[str, dict[str, Any]]:
    """Check a job against its kind's rows of the knob table, raising
    :class:`ServiceError` naming the first bad parameter — at
    submission, so that a bad job is never journaled, and again when
    the job runs, for a job recovered from the journal.  Returns the
    input's format, by its extension, and the parameters, checked and
    completed with their defaults (``shards``: the service's
    *shards*)."""
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
    knobs = {knob.name: knob for knob in job_knobs(kind)}
    for name, value in params.items():
        if name not in knobs:
            raise ServiceError(
                f"a {kind} job takes no {name!r} parameter (given "
                f"{value!r}); it takes {', '.join(knobs)}")
    checked = {"shards": shards} if "shards" in knobs else {}
    for name, knob in knobs.items():
        if name in params:
            value = params[name]
            checked[name] = value if value is None and knob.default is None \
                else knob.check(value, ServiceError)
        elif knob.required:
            raise ServiceError(f"{kind} job needs the {name!r} parameter")
        else:
            checked.setdefault(name, knob.default)
    try:
        store_extension(checked["compress"], checked["store_format"])
    except ReproError as exc:
        raise ServiceError(str(exc)) from None
    return source_kind(checked["input"], f"a {kind} job", _JOB_READS[kind],
                       ServiceError), checked


#: A body worker's artifact cache per cache directory, opened on its
#: first BAM job with the settings the payload carries.
_CACHES: dict[str, ArtifactCache] = {}


def _job_body(payload: dict[str, Any]) -> tuple[dict[str, Any], dict]:
    """One attempt of a job, whole, in a body worker: the check; for a
    BAM input, its store fetched from or built into the artifact cache
    (where a ``preprocess`` job ends); the conversion.  One picklable
    payload in, ``(result, metric deltas)`` out, the deltas being the
    snapshot of a ServiceMetrics that lived for the call."""
    kind, metrics = payload["kind"], ServiceMetrics()
    source_format, params = _check_job(kind, payload["params"],
                                       payload["shards"])
    store, state = None if source_format == "sam" else params["input"], None
    if source_format == "bam":
        settings = payload["cache"]
        cache = _CACHES.get(settings["cache_dir"])
        if cache is None:
            cache = _CACHES[settings["cache_dir"]] = ArtifactCache(
                **settings, metrics=metrics)
        cache.metrics = metrics

        def build(entry_dir: str) -> None:
            _, _, rank = BamConverter(
                store_format=params["store_format"]).preprocess(
                params["input"], entry_dir, compress=params["compress"])
            metrics.inc("preprocess_runs")
            metrics.observe("preprocess_seconds", rank.total_seconds)

        key = {"op": "preprocess_bam", "compress": params["compress"]}
        if params["store_format"] != "bamx":
            # Appended only for non-default formats so cache entries
            # built before BAMC existed keep their keys.
            key["store_format"] = params["store_format"]
        entry, hit = cache.get_or_build(params["input"], key, build)
        artifacts, state = cache.artifacts(entry), "hit" if hit else "miss"
        if kind == "preprocess":
            return {"artifacts": artifacts, "cache": state}, \
                metrics.snapshot()
        store = next((path for path in artifacts
                      if path.endswith((".bamx", ".bamz", ".bamc"))), None)
        if store is None:
            raise ServiceError(
                f"cache entry {entry.key} holds no record store")
    converter = (BamConverter if store else SamConverter)(
        batch_size=params["batch_size"], shards_per_rank=params["shards"])
    record_filter = parse_filter_expr(params["filter"]) \
        if params["filter"] else None
    ranks = params["nprocs"], params["executor"]
    try:
        if kind == "region":
            result = converter.convert_region(
                store, params["baix"], params["region"],
                params["target"], params["out_dir"], *ranks,
                mode=params["mode"], record_filter=record_filter)
        else:
            result = converter.convert(
                store or params["input"], params["target"],
                params["out_dir"], *ranks, record_filter=record_filter)
    finally:
        # Pools a job with thread/process ranks built in this worker.
        reset_shared_executor()
    # Slabs of SAM lines converted line by line; columnar slabs the
    # kernel layer handed to the record driver.
    for name, field in (("batch_fallbacks", "fallbacks"),
                        ("kernel_fallbacks", "kernel_fallbacks")):
        count = sum(getattr(m, field) for m in result.rank_metrics)
        if count:
            metrics.inc(name, count)
    return {"target": result.target, "outputs": result.outputs,
            "records": result.records, "emitted": result.emitted,
            "nprocs": result.nprocs, "wall_seconds": result.wall_seconds,
            "cache": state}, metrics.snapshot()


class ConversionService:
    """Long-lived conversion job service (in-process façade).

    Parameters
    ----------
    work_dir:
        Root for service state; the artifact cache lives in
        ``<work_dir>/cache`` unless *cache_dir* overrides it.
    workers:
        Jobs in flight at once: attempts on the scheduler's loop that
        each await one body in one of as many body workers
        (:class:`PipeWorkers`, forked here, before any thread;
        ``REPRO_EXECUTOR_WORKERS`` does not size them).
    cache_max_bytes:
        LRU size cap for the artifact cache (``None`` = unbounded).
    shards_per_rank:
        Default over-decomposition factor for converter jobs, an
        integer >= 1; a job's ``shards`` parameter overrides it.
        Shards spread only where the job asks for real ranks
        (``executor``): on pools its worker process builds for it and
        drops when it ends.
    journal_path:
        Optional write-ahead job journal file.  When set, every
        submission and state transition is logged durably, and this
        constructor *replays* an existing journal: jobs that were
        QUEUED or RUNNING when the previous process died are re-queued
        under their original ids (an interrupted RUNNING attempt
        counts against ``max_retries``), finished jobs stay queryable,
        and the job-id counter is seeded past the journal's high-water
        mark so new ids never collide with recovered ones.
    journal_fsync:
        Journal durability policy (``always``/``interval``/``never``),
        see :data:`repro.service.journal.FSYNC_POLICIES`.
    """

    def __init__(self, work_dir: str | os.PathLike[str],
                 workers: int = 2,
                 cache_dir: str | os.PathLike[str] | None = None,
                 cache_max_bytes: int | None = None,
                 metrics: ServiceMetrics | None = None,
                 shards_per_rank: int = 1,
                 journal_path: str | os.PathLike[str] | None = None,
                 journal_fsync: str = "interval") -> None:
        self.work_dir = os.fspath(work_dir)
        os.makedirs(self.work_dir, exist_ok=True)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.shards_per_rank = KNOBS["shards"].check(
            shards_per_rank, ServiceError, "shards_per_rank")
        # Fork the body workers while no loop, journal or gateway
        # thread exists to be caught holding a lock.
        self.bodies = PipeWorkers(workers, metrics=self.metrics)
        # The daemon's cache only scans the directory at start-up; each
        # body worker opens its own on these settings.
        self._cache_settings = dict(
            cache_dir=os.path.join(self.work_dir, "cache")
            if cache_dir is None else os.fspath(cache_dir),
            max_bytes=cache_max_bytes)
        self.cache = ArtifactCache(**self._cache_settings,
                                   metrics=self.metrics)
        self.journal: JobJournal | None = None
        recovered: list[dict] = []
        id_floor = 0
        if journal_path is not None:
            specs, stats = journal_mod.replay(journal_path)
            self.metrics.inc("journal_replayed_records",
                             stats["records"])
            self.metrics.inc("journal_bad_lines", stats["bad_lines"])
            # Continue the journal's plain id sequence: recovered and
            # new job ids share one collision-free numbering that
            # clients observe across restarts.
            seed_job_counter(max(journal_mod.high_water_mark(specs),
                                 stats["id_floor"]), nonce="")
            self.journal = JobJournal(journal_path,
                                      fsync=journal_fsync)
            recovered = list(specs.values())
            id_floor = stats["id_floor"]
        self.pool = WorkerPool(self._run_job, workers=workers,
                               metrics=self.metrics, journal=self.journal)
        if recovered:
            counts = self.pool.recover(recovered, id_floor)
            # The replayed log has served its purpose; snapshotting it
            # now bounds growth across restart cycles.  The loop is
            # already running recovered jobs, so the snapshot must go
            # through the pool's lock-ordered compaction.
            self.pool.compact_journal(force=True)
            self.metrics.set_gauge("journal_recovered_jobs",
                                   counts["requeued"] + counts["rerun"])

    # -- submission API ---------------------------------------------

    def submit(self, kind: str, params: dict[str, Any],
               priority: int = 0, timeout: float | None = None,
               max_retries: int = 0, backoff: float = 0.1) -> Job:
        """Validate and enqueue one job; returns the queued job.  A bad
        parameter fails the submission (:func:`_check_job`), not every
        attempt of the job in a body worker."""
        _check_job(kind, params, self.shards_per_rank)
        job = Job(kind=kind, params=dict(params), priority=priority,
                  timeout=timeout, max_retries=max_retries,
                  backoff=backoff)
        return self.pool.submit(job)

    def status(self, job_id: str | None = None) -> Any:
        """One job snapshot, or all of them in submission order."""
        if job_id is not None:
            return self.pool.get(job_id).to_dict()
        return [job.to_dict() for job in self.pool.jobs()]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job (see :meth:`WorkerPool.cancel`)."""
        return self.pool.cancel(job_id)

    def wait(self, job_id: str,
             timeout: float | None = None) -> dict[str, Any]:
        """Block until the job is terminal; returns its snapshot."""
        job = self.pool.get(job_id)
        job.wait(timeout)
        return job.to_dict()

    def trace(self, job_id: str) -> list[dict[str, Any]]:
        """Span dicts recorded for a job (one tree per attempt)."""
        return list(self.pool.get(job_id).trace)

    def metrics_snapshot(self) -> dict[str, Any]:
        """Current service counters/gauges/timers."""
        return self.metrics.snapshot()

    def close(self) -> None:
        """Stop the worker pool and the body workers (queued jobs are
        left unrun; with a journal they are recovered by the next
        incarnation)."""
        self.pool.shutdown()
        self.bodies.close()
        if self.journal is not None:
            self.journal.close()

    # -- the job runner (the loop awaits, body workers work) ----------

    async def _run_job(self, job: Job) -> dict[str, Any]:
        """One attempt: :func:`_job_body` awaited in a body worker, the
        one place the service crosses the process boundary.  Back come
        the body's result, its metric deltas (folded into
        :attr:`metrics`) and its spans, which land under the attempt's
        ``job.<kind>`` span; the round trip less the ``job.body`` span
        is the ``body_roundtrip_seconds`` timer.  A body that fails as
        :meth:`PipeWorkers.call` says folds nothing in."""
        tracer = get_tracer()
        caller = tracer.current_span()
        parent_id = caller.span_id if caller is not None else None
        entry = (_job_body, {
            "kind": job.kind, "params": job.params,
            "shards": self.shards_per_rank, "cache": self._cache_settings,
        }, None, None, (tracer.enabled, tracer.epoch), parent_id,
            "job.body")
        t0 = time.perf_counter()
        (result, deltas), span_dicts = await self.bodies.call(
            _run_entry, entry, f"{job.job_id} {job.kind}")
        seconds = time.perf_counter() - t0
        for span in span_dicts:
            if span["name"] == "job.body":
                self.metrics.observe(
                    "body_roundtrip_seconds",
                    seconds - (span["end"] - span["start"]))
        tracer.ingest(span_dicts, parent_id=parent_id)
        self.metrics.absorb(deltas)
        return result
