"""Thread-based job scheduler: priority queue + worker pool.

The pool drains a priority queue (higher :attr:`Job.priority` first,
FIFO among equals) with N scheduler threads; each runs its attempts
inline, and the pool starts no other thread.  An attempt with a
*timeout* hands the runner :attr:`Job.deadline`, which bounds the
runner's own waits (the service kills a body still running at it), and
is timed out when the runner raises :class:`TimeoutError` or returns
after it.  A timed-out or failed attempt retries with exponential
backoff or fails; retries are parked in a delay heap and become
eligible again at ``backoff * 2**(attempt-1)`` seconds.

Cancellation is immediate for queued jobs.  For running jobs the
:attr:`Job.cancel_requested` event is set; the runner may poll it
cooperatively, and whatever the attempt produces is discarded — the job
lands in ``CANCELLED`` rather than ``DONE``/``FAILED``.

All queue/state mutation happens under one condition variable; the
runner itself executes outside the lock.  Every state change goes
through :meth:`WorkerPool._transition`, which journals it and keeps the
queued/running counts, so gauges and admission checks never rescan the
job table.  Every terminal one goes on through
:meth:`WorkerPool._finish`, which runs the callbacks parked by
:meth:`WorkerPool.watch` and forgets the oldest-finished jobs beyond
:data:`RETAINED_TERMINAL_JOBS` — memory, journal compaction and status
listings stay bounded however long the daemon lives.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Any, Callable

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
    """Priority-queue scheduler executing jobs on worker threads.

    Each attempt records a span tree into :attr:`Job.trace` and
    mirrors span durations into ``span.<name>`` metric timers.

    Parameters
    ----------
    runner:
        ``runner(job) -> result`` callable doing the actual work, on a
        worker thread.  It runs outside the scheduler lock and may
        raise; the exception text becomes the job error.  A job with a
        *timeout* must not outlast :attr:`Job.deadline` by much: its
        worker thread is the runner's until it returns.
    workers:
        Number of concurrent worker threads.
    metrics:
        Optional shared :class:`ServiceMetrics`; one is created when
        omitted.
    journal:
        Optional :class:`~repro.service.journal.JobJournal`.  When
        set, every submission is journaled *before* it is enqueued
        (write-ahead: a journal failure fails the submit) and every
        state transition is journaled as it happens (best-effort: a
        transition-append failure increments
        ``journal_append_errors`` instead of killing the worker —
        the worst case is a replay re-running an already-finished
        job).
    """

    def __init__(self, runner: Callable[[Job], Any], workers: int = 2,
                 metrics: ServiceMetrics | None = None,
                 journal: JobJournal | None = None) -> None:
        if workers < 1:
            raise ServiceError(f"workers {workers} must be >= 1")
        self._runner = runner
        self._journal = journal
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._ready: list[tuple[int, int, Job]] = []     # (-prio, seq, job)
        self._delayed: list[tuple[float, int, Job]] = []  # (due, seq, job)
        self._jobs: dict[str, Job] = {}
        self._live = {JobState.QUEUED: 0, JobState.RUNNING: 0}
        self._finished: deque[Job] = deque()     # oldest-finished first
        self._expired_seq = 0        # highest id sequence forgotten
        self._stopping = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission and queries -------------------------------------

    def submit(self, job: Job) -> Job:
        """Enqueue *job*; returns it for chaining."""
        with self._cond:
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
            self._cond.notify()
        return job

    def get(self, job_id: str) -> Job:
        """The job named *job_id*, or raise :class:`JobNotFoundError`."""
        with self._cond:
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

        A parked *wake* runs once, on the finishing thread with the
        scheduler lock held, after the terminal record is journaled —
        so it must only hand off.  A job that is already terminal parks
        nothing.  Callers that stop waiting early :meth:`unwatch`.
        """
        with self._cond:
            job = self.get(job_id)
            parked = not job.state.terminal
            if parked:
                job.waiters.append(wake)
            return job, parked

    def unwatch(self, job: Job, wake: Callable[[], None]) -> None:
        """Withdraw a parked *wake* (no-op once it ran)."""
        with self._cond:
            if wake in job.waiters:
                job.waiters.remove(wake)

    def jobs(self) -> list[Job]:
        """Every retained job (live or recently finished), in
        submission order."""
        with self._cond:
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
        with self._cond:
            job = self.get(job_id)
            if job.state.terminal:
                return False
            job.cancel_requested.set()
            if job.state is JobState.QUEUED:
                self._discard(job)
                self._finish(job, JobState.CANCELLED)
            return True

    def wait_all(self, timeout: float | None = None) -> bool:
        """Block until every submitted job is terminal."""
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
        """Stop the workers; queued jobs that never ran stay QUEUED.

        Parked retries are different: their delay-heap entries would
        never become due for a worker again, leaving them orphaned in
        ``QUEUED`` and hanging any :meth:`wait_all` caller.  The heap
        is therefore drained deterministically — every still-queued
        parked retry is finished as ``CANCELLED``.
        """
        with self._cond:
            self._stopping = True
            while self._delayed:
                _, _, job = heapq.heappop(self._delayed)
                if job.state is JobState.QUEUED:
                    self._finish(job, JobState.CANCELLED)
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout)

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

        with self._cond:
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
                    delay = job.backoff * 2 ** (job.attempts - 1)
                    self._transition(job, JobState.QUEUED)
                    heapq.heappush(
                        self._delayed,
                        (time.monotonic() + delay, next(self._seq),
                         job))
                    counts["rerun"] += 1
                else:
                    self._finish(job, JobState.FAILED)
                    counts["failed"] += 1
            self._cond.notify_all()
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
        transition appends run under ``self._cond``).  Holding the
        scheduler lock across the rewrite is what makes the snapshot
        safe: a concurrent :meth:`submit` cannot append its record to
        the old file after the snapshot was taken, so compaction can
        never erase an acknowledged submit.  Returns whether a
        compaction ran.
        """
        if self._journal is None:
            return False
        with self._cond:
            if force:
                self._journal.compact(self.jobs(), self._expired_seq)
                return True
            return self._journal.maybe_compact(self.jobs(),
                                               self._expired_seq)

    # -- worker internals -------------------------------------------

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
        # changes state.  Journaling is best-effort on purpose: a
        # worker thread must survive a journal write failure.
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

    def _discard(self, job: Job) -> None:
        # Called with the lock held: drop *job*'s entries from both
        # heaps so a cancelled job cannot linger as a stale retry.
        ready = [entry for entry in self._ready if entry[2] is not job]
        if len(ready) != len(self._ready):
            self._ready[:] = ready
            heapq.heapify(self._ready)
        delayed = [entry for entry in self._delayed
                   if entry[2] is not job]
        if len(delayed) != len(self._delayed):
            self._delayed[:] = delayed
            heapq.heapify(self._delayed)

    def _publish_gauges(self) -> None:
        # Called with the lock held.
        self.metrics.set_gauge("queue_depth",
                               self._live[JobState.QUEUED])
        self.metrics.set_gauge("jobs_running",
                               self._live[JobState.RUNNING])

    def _finish(self, job: Job, state: JobState) -> None:
        # Called with the lock held; records terminal state + metrics,
        # then wakes the waiters — strictly after the journal append,
        # so a client never sees a state the journal lacks.
        self._transition(job, state)
        self.metrics.inc(f"jobs_{state.value}")
        self.metrics.observe("job_wall_seconds",
                             job.finished_at - job.submitted_at)
        self._retire(job)
        waiters, job.waiters = job.waiters, []
        for wake in waiters:
            wake()
        self._cond.notify_all()

    def _next_job(self) -> Job | None:
        """Pop the next runnable job, or ``None`` when shutting down."""
        with self._cond:
            while True:
                now = time.monotonic()
                while self._delayed and self._delayed[0][0] <= now:
                    _, _, job = heapq.heappop(self._delayed)
                    heapq.heappush(self._ready,
                                   (-job.priority, next(self._seq), job))
                while self._ready:
                    _, _, job = heapq.heappop(self._ready)
                    if job.state is JobState.QUEUED:
                        job.attempts += 1
                        self._transition(job, JobState.RUNNING)
                        return job
                    # Cancelled while queued: stale heap entry, skip.
                if self._stopping:
                    return None
                wait = None
                if self._delayed:
                    wait = max(0.0, self._delayed[0][0] - now)
                self._cond.wait(wait)

    def _worker_loop(self) -> None:
        while (job := self._next_job()) is not None:
            if self._journal is not None \
                    and self._journal.needs_compact():
                # Opportunistic compaction between attempts.  The
                # cheap threshold pre-check keeps the common path off
                # the scheduler lock; compact_journal re-checks under
                # the lock, so two racing workers compact only once.
                try:
                    self.compact_journal()
                except ReproError:
                    self.metrics.inc("journal_compact_errors")
            if job.timeout is not None:
                job.deadline = time.monotonic() + job.timeout
            # One tracer per attempt: the converter/runtime spans of
            # this job land in an isolated tree (activate() is
            # thread-local, so concurrent jobs do not interleave).
            tracer = Tracer(enabled=True)
            result, exc = None, None
            try:
                with tracer.activate(), \
                        tracer.span(f"job.{job.kind}", "service",
                                    args={"job_id": job.job_id,
                                          "attempt": job.attempts}):
                    # The attempt-level fault point: armed
                    # ``exception`` makes the retry/backoff path real,
                    # armed ``crash`` dies mid-RUNNING so journal
                    # replay re-queues this job.
                    faults.fire("scheduler.attempt")
                    result = self._runner(job)
            except BaseException as error:  # noqa: BLE001 — reported
                exc = error
            # Timed out: the runner gave up at the deadline (the body's
            # worker is killed there) or came back after it.
            timed_out = job.deadline is not None and (
                isinstance(exc, TimeoutError)
                or time.monotonic() > job.deadline)
            spans = [span.to_dict() for span in tracer.spans()]
            with self._cond:
                job.trace.extend(spans)
                for span in spans:
                    if span.get("end") is not None:
                        self.metrics.observe(f"span.{span['name']}",
                                             span["end"] - span["start"])
                if job.cancel_requested.is_set():
                    self._finish(job, JobState.CANCELLED)
                    continue
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
                    continue
                if job.attempts_left > 0 and not self._stopping:
                    delay = job.backoff * 2 ** (job.attempts - 1)
                    self._transition(job, JobState.QUEUED)
                    self.metrics.inc("jobs_retried")
                    heapq.heappush(
                        self._delayed,
                        (time.monotonic() + delay, next(self._seq), job))
                    self._cond.notify_all()
                elif job.attempts_left > 0:
                    # Pool is stopping: parking a retry would orphan it.
                    self._finish(job, JobState.CANCELLED)
                else:
                    self._finish(job, JobState.FAILED)
