"""Event-loop job scheduler: priority queue + attempt tasks.

The pool's one thread runs one asyncio loop (:attr:`WorkerPool.loop`),
which the gateway serves on too.  Up to N attempts run on it as tasks,
started from a priority queue (higher :attr:`Job.priority` first, FIFO
among equals); each awaits the runner, so the loop waits for no one.
A *timeout* is :func:`asyncio.wait_for` on the attempt, whose runner
is cancelled at it.  A timed-out or failed attempt retries with
exponential backoff or fails; a retry is a ``call_later`` that makes
the job ready again after ``backoff * 2**(attempt-1)`` seconds.

Cancellation is immediate for queued jobs.  For running jobs the
:attr:`Job.cancel_requested` event is set; the runner may poll it
cooperatively, and whatever the attempt produces is discarded — the job
lands in ``CANCELLED`` rather than ``DONE``/``FAILED``.

Queue and state mutation happens under one lock, taken on the loop and
by in-process callers on other threads; the runner runs outside it.
Every state change goes through
:meth:`WorkerPool._transition`, which journals it and keeps the
queued/running counts, so gauges and admission checks never rescan the
job table.  Every terminal one goes on through
:meth:`WorkerPool._finish`, which hands the callbacks parked by
:meth:`WorkerPool.watch` to the loop and forgets the oldest-finished
jobs beyond :data:`RETAINED_TERMINAL_JOBS` — memory, journal
compaction and status listings stay bounded however long the daemon
lives.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import itertools
import threading
import time
from collections import deque
from typing import Any, Awaitable, Callable

from ..errors import JobNotFoundError, ReproError, ServiceError
from ..runtime import faults
from ..runtime.metrics import ServiceMetrics
from ..runtime.tracing import Tracer
from .jobs import Job, JobState, job_id_sequence
from .journal import JobJournal

#: Finished jobs kept for status/wait/trace queries; beyond this the
#: oldest-finished one is forgotten and its id answers "expired".
RETAINED_TERMINAL_JOBS = 1000


class WorkerPool:
    """Priority-queue scheduler running job attempts as tasks on one
    event loop.

    Each attempt records a span tree into :attr:`Job.trace` and
    mirrors span durations into ``span.<name>`` metric timers.

    Parameters
    ----------
    runner:
        ``async def runner(job) -> result``, awaited on the loop outside
        the scheduler lock; it hands the work to a process (or thread)
        rather than block the loop.  It may raise; the exception text
        becomes the job error.
    workers:
        Number of attempts running at once.
    metrics:
        Optional shared :class:`ServiceMetrics`; one is created when
        omitted.
    journal:
        Optional :class:`~repro.service.journal.JobJournal`.  When
        set, every submission is journaled *before* it is enqueued
        (write-ahead: a journal failure fails the submit) and every
        state transition is journaled as it happens (best-effort: a
        transition-append failure increments
        ``journal_append_errors`` instead of ending the attempt — the
        worst case is a replay re-running an already-finished job).
    """

    def __init__(self, runner: Callable[[Job], Awaitable[Any]],
                 workers: int = 2, metrics: ServiceMetrics | None = None,
                 journal: JobJournal | None = None) -> None:
        if workers < 1:
            raise ServiceError(f"workers {workers} must be >= 1")
        self._runner = runner
        self._workers = workers
        self._journal = journal
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._lock = threading.RLock()
        self._seq = itertools.count()
        self._ready: list[tuple[int, int, Job]] = []     # (-prio, seq, job)
        self._delayed: list[Job] = []            # retries not yet due
        self._jobs: dict[str, Job] = {}
        self._live = {JobState.QUEUED: 0, JobState.RUNNING: 0}
        self._finished: deque[Job] = deque()     # oldest-finished first
        self._expired_seq = 0        # highest id sequence forgotten
        self._stopping = False
        self._attempts: set[asyncio.Task] = set()
        #: The loop every attempt runs on; the gateway serves on it too.
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._serve,
                                        name="repro-loop", daemon=True)
        self._thread.start()

    # -- submission and queries -------------------------------------

    def submit(self, job: Job) -> Job:
        """Enqueue *job*; returns it for chaining."""
        with self._lock:
            if self._stopping:
                raise ServiceError("worker pool is shut down")
            if job.job_id in self._jobs:
                raise ServiceError(f"duplicate job id {job.job_id}")
            if job.state is not JobState.QUEUED:
                raise ServiceError(
                    f"job {job.job_id} submitted in state "
                    f"{job.state.value}")
            if self._journal is not None:
                # Write-ahead: the job exists durably before it is
                # runnable.  A journal failure refuses the submit —
                # accepting work we cannot recover would silently
                # reintroduce the bug the journal fixes.
                self._journal.append_submit(job)
            self._register(job)
            heapq.heappush(self._ready,
                           (-job.priority, next(self._seq), job))
            self.metrics.inc("jobs_submitted")
        self.loop.call_soon_threadsafe(self._pump)
        return job

    def get(self, job_id: str) -> Job:
        """The job named *job_id*, or raise :class:`JobNotFoundError`."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            if 0 < job_id_sequence(job_id) <= self._expired_seq:
                raise JobNotFoundError(
                    f"job id {job_id!r} expired: only the "
                    f"{RETAINED_TERMINAL_JOBS} most recently finished "
                    f"jobs are kept")
            raise JobNotFoundError(f"unknown job id {job_id!r}")

    def watch(self, job_id: str,
              wake: Callable[[], None]) -> tuple[Job, bool]:
        """Park *wake* on a job until it finishes: ``(job, parked)``.

        A parked *wake* runs once, on the loop, after the terminal
        record is journaled.  A job that is already terminal parks
        nothing.  Callers that stop waiting early :meth:`unwatch`.
        """
        with self._lock:
            job = self.get(job_id)
            parked = not job.state.terminal
            if parked:
                job.waiters.append(wake)
            return job, parked

    def unwatch(self, job: Job, wake: Callable[[], None]) -> None:
        """Withdraw a parked *wake* (no-op once it ran)."""
        with self._lock:
            if wake in job.waiters:
                job.waiters.remove(wake)

    def jobs(self) -> list[Job]:
        """Every retained job (live or recently finished), in
        submission order."""
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda j: j.submitted_at)

    def queued_count(self) -> int:
        """Jobs currently waiting to run (admission-control input)."""
        return self._live[JobState.QUEUED]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.

        Queued jobs are cancelled immediately; running jobs get their
        :attr:`Job.cancel_requested` event set and become ``CANCELLED``
        when the current attempt returns.  Returns ``False`` when the
        job had already finished.
        """
        with self._lock:
            job = self.get(job_id)
            if job.state.terminal:
                return False
            job.cancel_requested.set()
            if job.state is JobState.QUEUED:
                # Its heap entry is skipped when popped, its retry
                # timer finds it gone.
                with contextlib.suppress(ValueError):
                    self._delayed.remove(job)
                self._finish(job, JobState.CANCELLED)
            return True

    def wait_all(self, timeout: float | None = None) -> bool:
        """Block until every submitted job is terminal (not on the
        loop)."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        for job in self.jobs():
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            if not job.wait(remaining):
                return False
        return True

    def shutdown(self, wait: bool = True,
                 timeout: float | None = None) -> None:
        """Start no more attempts and stop the loop once the running
        ones end (*wait*: block until then, or *timeout*); queued jobs
        that never ran stay QUEUED.

        Parked retries are different: they would never become due
        again, leaving them orphaned in ``QUEUED`` and hanging any
        :meth:`wait_all` caller.  Every parked retry is therefore
        finished as ``CANCELLED``.
        """
        with self._lock:
            self._stopping = True
            for job in self._delayed:
                self._finish(job, JobState.CANCELLED)
            self._delayed.clear()
        with contextlib.suppress(RuntimeError):     # closed: stopped before
            self.loop.call_soon_threadsafe(self.loop.stop)
        if wait:
            self._thread.join(timeout)

    # -- crash recovery ---------------------------------------------

    def recover(self, specs: list[dict],
                id_floor: int = 0) -> dict[str, int]:
        """Adopt journaled job specs after a restart.

        Terminal jobs are registered (oldest-finished first, under the
        retention bound; *id_floor* is the journal's note of ids
        forgotten earlier) so status/wait/trace queries keep answering
        for them.  ``QUEUED`` jobs go straight back on the ready heap
        under their original ids.  A job that was
        ``RUNNING`` when the process died had its attempt interrupted;
        that attempt *counts* (``attempts`` was journaled when it
        started), so the job is re-queued with the normal exponential
        backoff when retries remain and fails with an explicit error
        otherwise.  Returns per-category counts.
        """
        counts = {"terminal": 0, "requeued": 0, "rerun": 0,
                  "failed": 0, "invalid": 0}


        def order(spec: dict) -> tuple[float, float]:
            done = spec.get("finished_at")
            return (done if isinstance(done, (int, float))
                    else float("inf"), spec.get("submitted_at", 0))

        with self._lock:
            self._expired_seq = max(self._expired_seq, id_floor)
            for spec in sorted(specs, key=order):
                try:
                    job = Job.from_spec(spec)
                except ServiceError:
                    # Valid JSON, bad semantics (unknown state,
                    # missing kind, ...).  The journal's contract is
                    # corruption-is-never-fatal: skip and count,
                    # mirroring how replay() skips bad_lines.
                    counts["invalid"] += 1
                    self.metrics.inc("jobs_recover_errors")
                    continue
                if job.job_id in self._jobs:
                    raise ServiceError(
                        f"duplicate job id {job.job_id} in recovery")
                self._register(job)
                if job.state.terminal:
                    counts["terminal"] += 1
                    continue
                if job.state is JobState.QUEUED:
                    heapq.heappush(
                        self._ready,
                        (-job.priority, next(self._seq), job))
                    counts["requeued"] += 1
                    continue
                # Interrupted mid-attempt (RUNNING at crash time).
                job.error = (f"attempt {job.attempts} interrupted by "
                             f"service restart")
                if job.attempts_left > 0:
                    self._transition(job, JobState.QUEUED)
                    self._park(job)
                    counts["rerun"] += 1
                else:
                    self._finish(job, JobState.FAILED)
                    counts["failed"] += 1
        self.loop.call_soon_threadsafe(self._pump)
        recovered = counts["requeued"] + counts["rerun"]
        self.metrics.inc("jobs_recovered", recovered)
        self.metrics.inc("jobs_recovered_failed", counts["failed"])
        return counts

    # -- journal compaction -----------------------------------------

    def compact_journal(self, force: bool = False) -> bool:
        """Compact the journal against a consistent jobs snapshot.

        The snapshot and the rewrite happen inside one critical
        section holding the scheduler lock first and the journal lock
        second — the same order every append site uses (submit and
        transition appends run under ``self._lock``).  Holding the
        scheduler lock across the rewrite is what makes the snapshot
        safe: a concurrent :meth:`submit` cannot append its record to
        the old file after the snapshot was taken, so compaction can
        never erase an acknowledged submit.  Returns whether a
        compaction ran.
        """
        if self._journal is None:
            return False
        with self._lock:
            if force:
                self._journal.compact(self.jobs(), self._expired_seq)
                return True
            return self._journal.maybe_compact(self.jobs(),
                                               self._expired_seq)

    # -- internals ----------------------------------------------------

    def _register(self, job: Job) -> None:
        # Called with the lock held: adopt a submitted/recovered job.
        self._jobs[job.job_id] = job
        if job.state.terminal:
            self._retire(job)
        else:
            self._live[job.state] += 1
            self._publish_gauges()

    def _transition(self, job: Job, to: JobState) -> None:
        # Called with the lock held: the one place a registered job
        # changes state.  Journaling is best-effort on purpose: an
        # attempt must survive a journal write failure.
        was = job.state
        job.transition(to)
        self._live[was] -= 1
        if to in self._live:
            self._live[to] += 1
        self._publish_gauges()
        if self._journal is None:
            return
        try:
            self._journal.append_transition(job)
        except ReproError:
            self.metrics.inc("journal_append_errors")

    def _retire(self, job: Job) -> None:
        # Called with the lock held, for a job that is terminal:
        # forget the oldest-finished jobs beyond the retention bound.
        self._finished.append(job)
        while len(self._finished) > RETAINED_TERMINAL_JOBS:
            old = self._finished.popleft()
            del self._jobs[old.job_id]
            self._expired_seq = max(self._expired_seq,
                                    job_id_sequence(old.job_id))

    def _publish_gauges(self) -> None:
        # Called with the lock held.
        self.metrics.set_gauge("queue_depth",
                               self._live[JobState.QUEUED])
        self.metrics.set_gauge("jobs_running",
                               self._live[JobState.RUNNING])

    def _finish(self, job: Job, state: JobState) -> None:
        # Called with the lock held; records terminal state + metrics,
        # then hands the waiters to the loop — strictly after the
        # journal append, so a client never sees a state the journal
        # lacks.
        self._transition(job, state)
        self.metrics.inc(f"jobs_{state.value}")
        self.metrics.observe("job_wall_seconds",
                             job.finished_at - job.submitted_at)
        self._retire(job)
        waiters, job.waiters = job.waiters, []
        with contextlib.suppress(RuntimeError):  # closed: no one to wake
            for wake in waiters:
                self.loop.call_soon_threadsafe(wake)

    def _park(self, job: Job) -> None:
        # Called with the lock held, for a QUEUED job whose attempt
        # failed: it becomes ready again after its backoff.
        self._delayed.append(job)
        self.loop.call_soon_threadsafe(
            self.loop.call_later, job.backoff * 2 ** (job.attempts - 1),
            self._due, job)

    def _due(self, job: Job) -> None:
        with self._lock:
            try:
                self._delayed.remove(job)
            except ValueError:
                return      # cancelled, or finished by shutdown
            heapq.heappush(self._ready,
                           (-job.priority, next(self._seq), job))
        self._pump()

    def _pump(self) -> None:
        # On the loop: start the best queued jobs while fewer than
        # *workers* attempts run.
        with self._lock:
            while self._ready and not self._stopping \
                    and len(self._attempts) < self._workers:
                _, _, job = heapq.heappop(self._ready)
                if job.state is not JobState.QUEUED:
                    continue        # cancelled while queued
                job.attempts += 1
                self._transition(job, JobState.RUNNING)
                task = self.loop.create_task(self._attempt(job))
                self._attempts.add(task)
                task.add_done_callback(self._attempt_done)

    def _attempt_done(self, task: asyncio.Task) -> None:
        self._attempts.discard(task)
        self._pump()

    def _serve(self) -> None:
        # The loop thread: serve until shutdown, then let the attempts
        # in flight end.
        self.loop.run_forever()
        if self._attempts:
            self.loop.run_until_complete(asyncio.wait(self._attempts))
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    async def _run(self, job: Job) -> Any:
        # Inside the attempt's timeout.  The attempt-level fault point:
        # armed ``exception`` makes the retry/backoff path real, armed
        # ``crash`` dies mid-RUNNING so journal replay re-queues this
        # job; a ``delay`` stalls the loop, and an attempt it held past
        # its timeout sends nothing and waits for the timeout to end it.
        started = self.loop.time()
        faults.fire("scheduler.attempt")
        if job.timeout is not None \
                and self.loop.time() - started >= job.timeout:
            await self.loop.create_future()
        return await self._runner(job)

    async def _attempt(self, job: Job) -> None:
        if self._journal is not None and self._journal.needs_compact():
            # Opportunistic compaction between attempts; compact_journal
            # re-checks the threshold under the lock.
            try:
                self.compact_journal()
            except ReproError:
                self.metrics.inc("journal_compact_errors")
        # One tracer per attempt: the converter/runtime spans of this
        # job land in an isolated tree (activate() is task-local, so
        # concurrent attempts do not interleave).
        tracer = Tracer(enabled=True)
        result, exc = None, None
        try:
            with tracer.activate(), \
                    tracer.span(f"job.{job.kind}", "service",
                                args={"job_id": job.job_id,
                                      "attempt": job.attempts}):
                result = await asyncio.wait_for(self._run(job),
                                                job.timeout)
        except Exception as error:  # noqa: BLE001 — reported
            exc = error
        timed_out = job.timeout is not None \
            and isinstance(exc, asyncio.TimeoutError)
        spans = [span.to_dict() for span in tracer.spans()]
        with self._lock:
            job.trace.extend(spans)
            for span in spans:
                if span.get("end") is not None:
                    self.metrics.observe(f"span.{span['name']}",
                                         span["end"] - span["start"])
            if job.cancel_requested.is_set():
                self._finish(job, JobState.CANCELLED)
                return
            if timed_out:
                self.metrics.inc("jobs_timed_out")
                job.error = (f"attempt {job.attempts} timed out "
                             f"after {job.timeout:g}s")
            elif exc is not None:
                job.error = f"{type(exc).__name__}: {exc}"
            else:
                job.result = result
                job.error = None
                self._finish(job, JobState.DONE)
                return
            if job.attempts_left > 0 and not self._stopping:
                self._transition(job, JobState.QUEUED)
                self.metrics.inc("jobs_retried")
                self._park(job)
            elif job.attempts_left > 0:
                # Pool is stopping: parking a retry would orphan it.
                self._finish(job, JobState.CANCELLED)
            else:
                self._finish(job, JobState.FAILED)
