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

import contextlib
import multiprocessing
import os
import queue
import threading
import time
import warnings
from multiprocessing.util import Finalize
from typing import Any

from ..core import BamConverter, SamConverter, parse_filter_expr
# Region jobs parse their region in a body worker: load the parser
# before BodyWorkers forks them, not once in each worker.
from ..core import region as _region  # noqa: F401
from ..core.base import _run_entry
from ..defaults import JOB_KINDS, job_knobs, validate_knob
from ..errors import ReproError, ServiceError
from ..formats.registry import SOURCE_FORMATS, STORE_KINDS, source_kind
from ..formats.store import store_extension
from ..runtime.autotune import AutoTuner, CostModel
from ..runtime.executor import ExecutorFailure, _pool_worker_init, \
    reset_shared_executor, resolve_start_method
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
#: Least time between two saves of the daemon's cost model.
MODEL_SAVE_SECONDS = 1.0


def _check_job(kind: str, params: dict[str, Any],
               shards: int | str) -> tuple[str, dict[str, Any]]:
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
# ``(result, metric deltas, cost-model observations)`` out, the deltas
# being the snapshot of a ServiceMetrics that lived for the call
# (ServiceMetrics.absorb).

class _JobModel(CostModel):
    """A job body's copy of the daemon's cost model: its path and
    entries, in memory.  Only the daemon writes the file; what the job
    observes is kept in :attr:`observed` for the daemon to fold in."""

    def __init__(self, path: str, entries: dict[str, dict]) -> None:
        super().__init__()
        self.path = path
        self.observed: list[tuple[str, list]] = []
        self.restore(entries)

    def save(self) -> None:
        """The daemon saves (:meth:`ConversionService._learn`)."""

    def observe(self, key: str, pairs: list[tuple[float, float]]) -> None:
        self.observed.append((key, list(pairs)))
        super().observe(key, pairs)


def _convert_body(payload: dict[str, Any]) -> tuple[dict[str, Any], dict,
                                                    list]:
    """A ``convert`` or ``region`` job on ``payload["store"]``, the
    store the daemon resolved (``None``: the input is SAM text)."""
    params, metrics = payload["params"], ServiceMetrics()
    model = _JobModel(*payload["cost_model"])
    converter = (BamConverter if payload["store"] else SamConverter)(
        batch_size=params["batch_size"], shards_per_rank=params["shards"],
        tuner=AutoTuner(model, metrics=metrics))
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
            "cache": payload["cache"]}, metrics.snapshot(), model.observed


def _preprocess_body(payload: dict[str, Any]) -> tuple[None, dict, list]:
    """The cache builder: a BAM into the entry directory."""
    metrics = ServiceMetrics()
    _, _, rank = BamConverter(
        store_format=payload["store_format"]).preprocess(
        payload["bam"], payload["entry_dir"],
        compress=payload["compress"])
    metrics.inc("preprocess_runs")
    metrics.observe("preprocess_seconds", rank.total_seconds)
    return None, metrics.snapshot(), []


# -- body workers: the daemon's processes that run the bodies above

def _body_worker(conn: Any, owner_pid: int | None,
                 inherited: list[Any]) -> None:
    """A body worker's loop: a ``_run_entry`` tuple in, ``(True,
    reply)`` or ``(False, exception)`` out, until the daemon sends
    ``None`` or its end of the pipe is gone (a reply that cannot be
    pickled ends the worker, which the daemon reports as its death).

    *inherited* are the daemon's ends of the pipes that existed at the
    fork — its siblings' and this worker's own — closed here so that
    each worker sees EOF once the daemon's copy is gone."""
    for other in inherited:
        other.close()
    _pool_worker_init(owner_pid)
    with contextlib.suppress(EOFError, OSError):
        while (entry := conn.recv()) is not None:
            try:
                reply = (True, _run_entry(entry))
            except Exception as exc:  # noqa: BLE001 — sent home
                reply = (False, exc)
            conn.send(reply)


def _stop_workers(slots: list[list[Any]]) -> None:
    """Ask every worker to exit, wait for each (a body still running
    finishes first), then close the daemon's ends."""
    for _, conn in slots:
        with contextlib.suppress(OSError):
            conn.send(None)
    for proc, conn in slots:
        proc.join()
        conn.close()


class BodyWorkers:
    """*n* processes, one duplex pipe each, that run job bodies.

    The constructor forks them (``resolve_start_method()``), so build
    this before any thread exists.  :meth:`run` takes a free worker, sends it one
    ``_run_entry`` tuple and receives the reply: a job body is one send
    and one receive, with no relay thread between them.  A worker that
    dies under a body fails that call with :class:`ExecutorFailure`
    and is re-forked alone; the others, and the bodies they run, are
    untouched.  ``body_worker_{starts,alive,tasks_completed,
    tasks_failed}`` gauges count them in *metrics*.
    """

    def __init__(self, n: int, metrics: ServiceMetrics) -> None:
        method = resolve_start_method()
        self._ctx = multiprocessing.get_context(method)
        self._owner = None if method == "forkserver" else os.getpid()
        self._metrics = metrics
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("starts", "alive", "tasks_completed", "tasks_failed"), 0)
        self._slots: list[list[Any]] = []     # [process, daemon's end]
        self._free: queue.SimpleQueue[int] = queue.SimpleQueue()
        for i in range(n):
            self._slots.append(self._fork())
            self._free.put(i)
        # Also at interpreter exit, before multiprocessing joins them.
        self._stop = Finalize(self, _stop_workers, args=(self._slots,),
                              exitpriority=10)

    def close(self) -> None:
        """Stop every worker; a body still running finishes first."""
        self._stop()

    @property
    def pids(self) -> list[int]:
        """The workers' process ids, in slot order."""
        return [proc.pid for proc, _ in self._slots]

    def _fork(self) -> list[Any]:
        ours, theirs = self._ctx.Pipe()
        inherited = [conn for _, conn in self._slots if not conn.closed]
        proc = self._ctx.Process(
            target=_body_worker, name="repro-body",
            args=(theirs, self._owner, [*inherited, ours]))
        proc.start()
        theirs.close()
        self._count(starts=1, alive=1)
        return [proc, ours]

    def _refork(self, i: int) -> None:
        """Kill slot *i*'s worker, whatever it is doing, and fork its
        successor."""
        proc, conn = self._slots[i]
        conn.close()
        proc.kill()
        proc.join()
        self._count(alive=-1, tasks_failed=1)
        self._slots[i] = self._fork()

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta
            for name, value in self._counts.items():
                self._metrics.set_gauge(f"body_worker_{name}", value)

    def run(self, entry: tuple, label: str,
            deadline: float | None = None) -> tuple[Any, float]:
        """``_run_entry(entry)`` in a free worker; returns its reply and
        the seconds from send to receive.  The body's exception is
        re-raised here; a worker that died is :class:`ExecutorFailure`
        naming *label*.  A body still running at *deadline*
        (``time.monotonic()``) is :class:`TimeoutError`: its worker is
        killed and re-forked like a dead one, so the slot is free again
        at once."""
        i = self._free.get()
        proc, conn = self._slots[i]
        try:
            t0 = time.perf_counter()
            conn.send(entry)
            if deadline is not None and not conn.poll(
                    max(0.0, deadline - time.monotonic())):
                self._refork(i)
                raise TimeoutError(f"[{label}] body worker {proc.pid} "
                                   f"killed at the attempt's deadline")
            ok, reply = conn.recv()
            seconds = time.perf_counter() - t0
        except (EOFError, BrokenPipeError, ConnectionResetError) as exc:
            self._refork(i)
            raise ExecutorFailure(
                label, f"{type(exc).__name__}: body worker {proc.pid} "
                       f"died (exit code {proc.exitcode})") from exc
        finally:
            self._free.put(i)
        if not ok:
            raise reply
        self._count(tasks_completed=1)
        return reply, seconds


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
        one of as many :class:`BodyWorkers` processes (forked here,
        before any thread; ``REPRO_EXECUTOR_WORKERS`` does not size
        them).
    cache_max_bytes:
        LRU size cap for the artifact cache (``None`` = unbounded).
    shards_per_rank:
        Default over-decomposition factor for converter jobs; a job's
        ``shards`` parameter overrides it, and either may be ``"auto"``
        to let the shared cost model pick per job (a job's
        ``batch_size`` is always an integer).  Shards spread only
        where the job asks for real ranks (``executor``): on pools its
        worker process builds for it and drops when it ends.
    cost_model_path:
        Where the persistent autotune cost model lives; defaults to
        ``<work_dir>/cost_model.json``.  It is loaded once, here, into
        :attr:`cost_model`, the one model every job — tuned or manual —
        reads and feeds: a job's payload carries its entries, and the
        job's observations come home with its result and ``autotune_*``
        counters (``repro status --metrics``) to be folded in before
        the job finishes, so none is lost.  Only the daemon writes the
        file: at the first fold, then at most once per
        :data:`MODEL_SAVE_SECONDS`, and once more on :meth:`close`.  A
        damaged file never fails a job: what could not be loaded is
        dropped with one :class:`RuntimeWarning` here.
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
                 shards_per_rank: int | str = 1,
                 journal_path: str | os.PathLike[str] | None = None,
                 journal_fsync: str = "interval",
                 cache_verify: str | float = "always",
                 cost_model_path: str | os.PathLike[str] | None = None,
                 ) -> None:
        self.work_dir = os.fspath(work_dir)
        os.makedirs(self.work_dir, exist_ok=True)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.shards_per_rank = validate_knob(
            shards_per_rank, "shards_per_rank", ServiceError)
        # Fork the body workers while no scheduler, journal or gateway
        # thread exists to be caught holding a lock.
        self.bodies = BodyWorkers(workers, self.metrics)
        model = CostModel(cost_model_path if cost_model_path is not None
                          else os.path.join(self.work_dir,
                                            "cost_model.json"))
        self.cost_model = model
        self._model_lock = threading.Lock()
        self._model_dirty = False
        self._model_saved = -float("inf")
        if model.load_error:
            warnings.warn(f"damaged cost model {model.path}: "
                          f"{model.load_error}", RuntimeWarning,
                          stacklevel=2)
        self.metrics.set_gauge("autotune_model_keys", len(model))
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
        incarnation) and save what the cost model learned since its
        last save."""
        self.pool.shutdown()
        self.bodies.close()
        with self._model_lock:
            if self._model_dirty:
                self._save_model()
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
            "cost_model": (self.cost_model.path,
                           self.cost_model.snapshot()),
        }, f"{job.job_id} {job.kind}", job.deadline)

    def _in_pool(self, body: Any, payload: dict[str, Any],
                 label: str, deadline: float | None) -> Any:
        """Run ``body(payload)`` in a body worker — the one place the
        service crosses the process boundary.

        The calling thread waits.  Back come the body's result, its
        metric deltas (folded into :attr:`metrics`), its cost-model
        observations (folded into :attr:`cost_model`) and its spans,
        which land under the caller's open span — the attempt's
        ``job.<kind>`` — the way rank spans do; the send → receive wall
        less the ``job.body`` span is the ``body_roundtrip_seconds``
        timer.  A body that takes its interpreter down surfaces as
        ``ExecutorFailure`` naming *label*, and only its worker is
        re-forked; so is the worker of a body still running at the
        attempt's *deadline* (:class:`TimeoutError`), and nothing of
        that body is folded in.
        """
        tracer = get_tracer()
        caller = tracer.current_span()
        parent_id = caller.span_id if caller is not None else None
        ((result, deltas, observed), span_dicts), seconds = \
            self.bodies.run((body, payload, None, None,
                             (tracer.enabled, tracer.epoch), parent_id,
                             "job.body"), label, deadline)
        for span in span_dicts:
            if span["name"] == "job.body":
                self.metrics.observe(
                    "body_roundtrip_seconds",
                    seconds - (span["end"] - span["start"]))
        tracer.ingest(span_dicts, parent_id=parent_id)
        self.metrics.absorb(deltas)
        self._learn(observed)
        return result

    def _learn(self, observed: list[tuple[str, list]]) -> None:
        """Fold a body's observations into :attr:`cost_model` and save
        it unless the last save is under :data:`MODEL_SAVE_SECONDS`
        old (:meth:`close` writes what that leaves)."""
        if not observed:
            return
        for key, pairs in observed:
            self.cost_model.observe(key, pairs)
        self.metrics.set_gauge("autotune_model_keys", len(self.cost_model))
        with self._model_lock:
            self._model_dirty = True
            if time.monotonic() - self._model_saved >= MODEL_SAVE_SECONDS:
                self._save_model()

    def _save_model(self) -> None:
        # Called with _model_lock held: one thread writes the file, and
        # an unwritable work dir fails no job.
        self._model_dirty = False
        self._model_saved = time.monotonic()
        with contextlib.suppress(OSError):
            self.cost_model.save()

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
