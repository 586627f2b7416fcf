"""Admission control: bounded pending work instead of silent buffering.

The paper's service front door must stay responsive under overload —
the failure mode to prevent is an unbounded queue that accepts every
submit and then serves none of them well.  :class:`AdmissionController`
bounds the number of *pending* jobs (queued in the worker pool plus
submits currently in flight through the gateway) and rejects the rest
with an explicit ``overloaded`` protocol error the client can see and
retry, never a silent drop.

It is also the drain switch for graceful shutdown: once
:meth:`start_draining` is called, every new submit is refused (again
explicitly) while already-admitted work runs to completion.

It runs on the scheduler's event loop, which admits, releases and
moves the pending count it reads; :meth:`start_draining`, called by
the thread that stops the gateway, only sets a flag.
"""

from __future__ import annotations

from ...runtime.metrics import ServiceMetrics


class AdmissionController:
    """Bounded-pending-jobs gate in front of the worker pool.

    Parameters
    ----------
    max_pending_jobs:
        Cap on queued-but-not-running jobs; ``None`` disables the
        bound (drain rejection still applies).
    queued_count:
        Zero-argument callable returning the worker pool's current
        queued-job count (:meth:`WorkerPool.queued_count`).
    metrics:
        Shared :class:`ServiceMetrics`; admission state is surfaced as
        ``gateway_pending_jobs`` / ``gateway_draining`` gauges and the
        ``gateway_rejected_overloaded`` counter.
    """

    def __init__(self, max_pending_jobs: int | None,
                 queued_count, metrics: ServiceMetrics) -> None:
        self.max_pending_jobs = max_pending_jobs
        self._queued_count = queued_count
        self.metrics = metrics
        self._inflight_submits = 0
        self._draining = False
        self.metrics.set_gauge("gateway_draining", 0)

    @property
    def draining(self) -> bool:
        """Whether the gateway is refusing new work for shutdown."""
        return self._draining

    def start_draining(self) -> None:
        """Refuse all new submits from now on (graceful shutdown)."""
        self._draining = True
        self.metrics.set_gauge("gateway_draining", 1)

    def try_admit(self) -> str | None:
        """Try to admit one submit.

        Returns ``None`` when admitted (caller must :meth:`release`
        after handing the job to the pool) or a human-readable refusal
        reason.  The in-flight count closes the race between
        concurrent submitters — two submits admitted together both
        count against the bound even before either reaches the pool.
        """
        if self._draining:
            self.metrics.inc("gateway_rejected_overloaded")
            return ("service is draining for shutdown; "
                    "not accepting new jobs")
        pending = self._queued_count() + self._inflight_submits
        if self.max_pending_jobs is not None \
                and pending >= self.max_pending_jobs:
            self.metrics.inc("gateway_rejected_overloaded")
            return (f"{pending} jobs pending >= limit "
                    f"{self.max_pending_jobs}; retry later")
        self._inflight_submits += 1
        self.metrics.set_gauge("gateway_pending_jobs", pending + 1)
        return None

    def release(self) -> None:
        """One admitted submit has reached (or failed to reach) the
        pool; it no longer counts as gateway-in-flight."""
        self._inflight_submits = max(0, self._inflight_submits - 1)
        self.metrics.set_gauge("gateway_pending_jobs",
                               self._queued_count() + self._inflight_submits)
