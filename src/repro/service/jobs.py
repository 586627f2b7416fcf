"""Job model for the conversion service.

A :class:`Job` is one unit of work submitted to the service: a full or
partial conversion, or a standalone preprocessing run.  Jobs move
through a small state machine::

    QUEUED -> RUNNING -> DONE
                      -> FAILED      (after exhausting retries)
                      -> QUEUED      (retry with backoff)
    QUEUED/RUNNING -> CANCELLED

State transitions are validated centrally (:meth:`Job.transition`) so a
scheduler bug cannot silently resurrect a finished job.  The job object
itself is passive — the scheduler owns the locking discipline; callers
outside the service read jobs only through :meth:`Job.to_dict`
snapshots or the :attr:`Job.done` event.
"""

from __future__ import annotations

import enum
import itertools
import math
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ServiceError


class JobState(enum.Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the state admits no further transitions."""
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


#: Allowed (from, to) state transitions.
_TRANSITIONS: frozenset[tuple[JobState, JobState]] = frozenset({
    (JobState.QUEUED, JobState.RUNNING),
    (JobState.QUEUED, JobState.CANCELLED),
    (JobState.RUNNING, JobState.DONE),
    (JobState.RUNNING, JobState.FAILED),
    (JobState.RUNNING, JobState.CANCELLED),
    (JobState.RUNNING, JobState.QUEUED),  # retry re-queue
})

_id_lock = threading.Lock()
_job_counter = itertools.count(1)
#: Per-process run nonce baked into job ids.  Without a journal, two
#: daemon incarnations would both hand out ``job-000001`` — the nonce
#: keeps their ids distinct.  Journaled daemons clear it through
#: :func:`seed_job_counter` so recovered id sequences simply continue.
_id_nonce = secrets.token_hex(2) + "-"


def next_job_id() -> str:
    """Monotonic process-local job id (``job-<nonce>-000001``, ...).

    The nonce disambiguates daemon restarts that share no journal; a
    journaled service calls :func:`seed_job_counter` to drop it and
    continue the journal's plain numeric sequence instead.
    """
    with _id_lock:
        return f"job-{_id_nonce}{next(_job_counter):06d}"


def seed_job_counter(floor: int, nonce: str | None = None) -> None:
    """Restart the id sequence above *floor* (journal high-water mark).

    With ``nonce=""`` (what a journaled service passes) new ids are
    plain ``job-%06d`` continuing the recovered sequence, so clients
    keep observing collision-free ids across daemon restarts.
    """
    global _job_counter, _id_nonce
    if floor < 0:
        raise ServiceError(f"job counter floor {floor} must be >= 0")
    with _id_lock:
        _job_counter = itertools.count(floor + 1)
        if nonce is not None:
            _id_nonce = nonce


def job_id_sequence(job_id: str) -> int:
    """The numeric sequence component of a job id (0 if unparseable)."""
    tail = job_id.rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else 0


@dataclass
class Job:
    """One unit of service work plus its scheduling policy.

    Attributes
    ----------
    kind:
        Work type dispatched by the service runner (``convert``,
        ``region``, ``preprocess``).
    params:
        Kind-specific parameters (input path, target, out dir, ...).
    priority:
        Higher values are scheduled first among ready jobs; ties are
        FIFO by submission order.
    timeout:
        Per-attempt wall-clock limit in seconds (``None`` = unlimited).
    max_retries:
        Extra attempts allowed after the first one fails or times out.
    backoff:
        Base retry delay; attempt ``k`` waits ``backoff * 2**(k-1)``.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    timeout: float | None = None
    max_retries: int = 0
    backoff: float = 0.1
    job_id: str = field(default_factory=next_job_id)

    state: JobState = JobState.QUEUED
    attempts: int = 0
    result: Any = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False)
    cancel_requested: threading.Event = field(
        default_factory=threading.Event, repr=False)
    #: Span dicts recorded by the worker pool, one tree per attempt.
    #: Deliberately excluded from :meth:`to_dict` — traces can be large
    #: and are fetched on demand through the ``trace`` protocol op.
    trace: list = field(default_factory=list, repr=False)
    #: Wake-up callables parked by :meth:`WorkerPool.watch`; the pool
    #: hands them to its loop and clears them once the terminal record
    #: is journaled.
    waiters: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ServiceError(
                f"job {self.job_id}: max_retries must be >= 0")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ServiceError(f"job {self.job_id}: timeout must be "
                               f"positive and finite")
        if not 0 <= self.backoff < math.inf:  # NaN poisons the retry heap
            raise ServiceError(f"job {self.job_id}: backoff must be "
                               f">= 0 and finite")

    @property
    def attempts_left(self) -> int:
        """Attempts remaining, counting the first run as attempt 1."""
        return self.max_retries + 1 - self.attempts

    def transition(self, to: JobState) -> None:
        """Move to state *to*, enforcing the state machine."""
        if (self.state, to) not in _TRANSITIONS:
            raise ServiceError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {to.value}")
        self.state = to
        if to is JobState.RUNNING and self.started_at is None:
            self.started_at = time.time()
        if to.terminal:
            self.finished_at = time.time()
            self.done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.done.wait(timeout)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot for status queries/protocol."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state.value,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_retries": self.max_retries,
            "error": self.error,
            "result": self.result,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def to_spec(self) -> dict[str, Any]:
        """Full JSON-safe (de)serialization of the job.

        Unlike :meth:`to_dict` (a read-only status snapshot) this
        round-trips through :meth:`from_spec`: it carries the
        scheduling policy (timeout, backoff, params) a journal replay
        needs to actually *re-run* the job.  Traces are excluded —
        they are observability data, not recovery state.
        """
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "params": dict(self.params),
            "priority": self.priority,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "state": self.state.value,
            "attempts": self.attempts,
            "result": self.result,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "Job":
        """Reconstruct a job from a :meth:`to_spec` dict.

        Terminal jobs come back with their ``done`` event set, so
        ``wait``/status work identically for recovered and live jobs.
        """
        try:
            state = JobState(spec.get("state", "queued"))
        except ValueError:
            raise ServiceError(
                f"job spec has unknown state {spec.get('state')!r}") \
                from None
        try:
            job = cls(
                kind=spec["kind"],
                params=dict(spec.get("params", {})),
                priority=int(spec.get("priority", 0)),
                timeout=spec.get("timeout"),
                max_retries=int(spec.get("max_retries", 0)),
                backoff=float(spec.get("backoff", 0.1)),
                job_id=spec["job_id"],
            )
        except KeyError as exc:
            raise ServiceError(
                f"job spec is missing field {exc.args[0]!r}") from None
        job.state = state
        job.attempts = int(spec.get("attempts", 0))
        job.result = spec.get("result")
        job.error = spec.get("error")
        job.submitted_at = float(spec.get("submitted_at",
                                          job.submitted_at))
        job.started_at = spec.get("started_at")
        job.finished_at = spec.get("finished_at")
        if state.terminal:
            job.done.set()
        return job
