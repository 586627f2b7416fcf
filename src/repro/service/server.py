"""The conversion service: the in-process façade.

:class:`ConversionService` wires the scheduler, the artifact cache and
the existing converters into one long-lived object.  Submitting a job
returns immediately; a scheduler thread resolves its inputs and then
*waits* while a body worker process *works*: the job body is a
module-level function of one picklable payload, sent down the worker's
pipe, so the process holding gateway, journal, scheduler and cache
runs no conversion code and N jobs use N cores instead of one GIL.
BAM inputs route their sequential preprocessing through the
content-addressed cache, so repeated full or partial-region
conversions of the same input skip that phase entirely — the warm path
is an O(1) cache lookup plus the BAIX binary search.

:class:`~repro.service.gateway.GatewayServer` exposes the façade over
a local unix socket and/or a TCP listener: transport, session, dispatch
and admission-control layers multiplexing many concurrent submitters
without blocking each other; its ``stop()`` drains and then closes the
service.  The matching blocking client lives in
:mod:`repro.service.client`, apart from the converter stack this module
imports.
"""

from __future__ import annotations

import os
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
from .cache import ArtifactCache, CacheEntry
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


# -- job bodies: run in a pool process; one picklable payload in,
# ``(result, metric deltas)`` out, the deltas being the snapshot of a
# ServiceMetrics that lived for the call (ServiceMetrics.absorb).

def _convert_body(payload: dict[str, Any]) -> tuple[dict[str, Any], dict]:
    """A ``convert`` or ``region`` job on ``payload["store"]``, the
    store the daemon resolved (``None``: the input is SAM text)."""
    params, metrics = payload["params"], ServiceMetrics()
    converter = (BamConverter if payload["store"] else SamConverter)(
        batch_size=params["batch_size"], shards_per_rank=params["shards"])
    record_filter = parse_filter_expr(params["filter"]) \
        if params["filter"] else None
    ranks = params["nprocs"], params["executor"]
    try:
        if payload["kind"] == "region":
            result = converter.convert_region(
                payload["store"], params["baix"], params["region"],
                params["target"], params["out_dir"], *ranks,
                mode=params["mode"], record_filter=record_filter)
        else:
            result = converter.convert(
                payload["store"] or params["input"], params["target"],
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
            "cache": payload["cache"]}, metrics.snapshot()


def _preprocess_body(payload: dict[str, Any]) -> tuple[None, dict]:
    """The cache builder: a BAM into the entry directory."""
    metrics = ServiceMetrics()
    _, _, rank = BamConverter(
        store_format=payload["store_format"]).preprocess(
        payload["bam"], payload["entry_dir"],
        compress=payload["compress"])
    metrics.inc("preprocess_runs")
    metrics.observe("preprocess_seconds", rank.total_seconds)
    return None, metrics.snapshot()


class ConversionService:
    """Long-lived conversion job service (in-process façade).

    Parameters
    ----------
    work_dir:
        Root for service state; the artifact cache lives in
        ``<work_dir>/cache`` unless *cache_dir* overrides it.
    workers:
        Jobs in flight at once: scheduler threads that resolve a job's
        inputs through the cache, then wait for its body to finish in
        one of as many body workers (:class:`PipeWorkers`, forked here,
        before any thread; ``REPRO_EXECUTOR_WORKERS`` does not size
        them).
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
    cache_verify:
        Artifact digest verification policy passed to
        :class:`ArtifactCache` (``always``/``never`` or a sample
        probability).
    """

    def __init__(self, work_dir: str | os.PathLike[str],
                 workers: int = 2,
                 cache_dir: str | os.PathLike[str] | None = None,
                 cache_max_bytes: int | None = None,
                 metrics: ServiceMetrics | None = None,
                 shards_per_rank: int = 1,
                 journal_path: str | os.PathLike[str] | None = None,
                 journal_fsync: str = "interval",
                 cache_verify: str | float = "always") -> None:
        self.work_dir = os.fspath(work_dir)
        os.makedirs(self.work_dir, exist_ok=True)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.shards_per_rank = KNOBS["shards"].check(
            shards_per_rank, ServiceError, "shards_per_rank")
        # Fork the body workers while no scheduler, journal or gateway
        # thread exists to be caught holding a lock.
        self.bodies = PipeWorkers(workers, metrics=self.metrics)
        self.cache = ArtifactCache(
            cache_dir if cache_dir is not None
            else os.path.join(self.work_dir, "cache"),
            max_bytes=cache_max_bytes, metrics=self.metrics,
            verify=cache_verify)
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
            # now bounds growth across restart cycles.  Workers are
            # already draining recovered jobs, so the snapshot must go
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

    # -- the job runner (scheduler threads wait, body workers work) --

    def _run_job(self, job: Job) -> dict[str, Any]:
        source_format, params = _check_job(job.kind, job.params,
                                           self.shards_per_rank)
        source = params["input"]
        if job.kind == "preprocess":
            entry, hit = self._preprocessed(source, params, job.deadline)
            return {"artifacts": self.cache.artifacts(entry),
                    "cache": "hit" if hit else "miss"}
        store_path, cache_state = None, None
        if source_format == "bam":
            store_path, cache_state = self._store_for(source, params,
                                                      job.deadline)
        elif source_format != "sam":
            store_path = source
        return self._in_pool(_convert_body, {
            "kind": job.kind, "params": params, "store": store_path,
            "cache": cache_state,
        }, f"{job.job_id} {job.kind}", job.deadline)

    def _in_pool(self, body: Any, payload: dict[str, Any],
                 label: str, deadline: float | None) -> Any:
        """Run ``body(payload)`` in a body worker — the one place the
        service crosses the process boundary.

        The calling thread waits.  Back come the body's result, its
        metric deltas (folded into :attr:`metrics`) and its spans,
        which land under the caller's open span — the attempt's
        ``job.<kind>`` — the way rank spans do; the round trip less
        the ``job.body`` span is the ``body_roundtrip_seconds`` timer.
        A body whose worker dies, or that runs past *deadline*, fails
        as :meth:`PipeWorkers.map` says, and nothing of it is folded in.
        """
        tracer = get_tracer()
        caller = tracer.current_span()
        parent_id = caller.span_id if caller is not None else None
        entry = (body, payload, None, None, (tracer.enabled, tracer.epoch),
                 parent_id, "job.body")
        ((result, deltas), span_dicts), seconds = \
            self.bodies.run(_run_entry, entry, label, deadline)
        for span in span_dicts:
            if span["name"] == "job.body":
                self.metrics.observe(
                    "body_roundtrip_seconds",
                    seconds - (span["end"] - span["start"]))
        tracer.ingest(span_dicts, parent_id=parent_id)
        self.metrics.absorb(deltas)
        return result

    def _store_for(self, bam_path: str, params: dict[str, Any],
                   deadline: float | None) -> tuple[str, str]:
        """The store preprocessing made of a BAM, through the artifact
        cache, and the cache state (``hit`` or ``miss``): a warm cache
        returns the stored store and its indexes without re-reading the
        BAM; the ``store_format`` parameter is part of the cache key,
        so row and columnar artifacts of one BAM coexist."""
        entry, hit = self._preprocessed(bam_path, params, deadline)
        store_path = next((path for path in self.cache.artifacts(entry)
                           if path.endswith((".bamx", ".bamz", ".bamc"))),
                          None)
        if store_path is None:
            raise ServiceError(
                f"cache entry {entry.key} holds no record store")
        return store_path, "hit" if hit else "miss"

    def _preprocessed(self, bam_path: str, params: dict[str, Any],
                      deadline: float | None) -> tuple[CacheEntry, bool]:
        """Fetch-or-build the preprocessing artifacts for a BAM, in the
        ``store_format`` / ``compress`` *params* ask for, by
        *deadline*."""
        build = {"bam": bam_path, "store_format": params["store_format"],
                 "compress": params["compress"]}
        key = {"op": "preprocess_bam", "compress": build["compress"]}
        if build["store_format"] != "bamx":
            # Appended only for non-default formats so cache entries
            # built before BAMC existed keep their keys.
            key["store_format"] = build["store_format"]
        return self.cache.get_or_build(
            bam_path, key, lambda entry_dir: self._in_pool(
                _preprocess_body, dict(build, entry_dir=entry_dir),
                f"preprocess {os.path.basename(bam_path)}", deadline))
