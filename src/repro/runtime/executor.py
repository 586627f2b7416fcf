"""Persistent shared worker pool with dynamic task dispatch.

The paper removes the *sequential* bottleneck; this module removes the
*launch* bottleneck that was left behind: every ``execute_rank_tasks``
call used to build a fresh thread pool or fork a fresh process pool,
pay its startup cost, and tear it down again — and the job service paid
that price once per job.  htslib's answer (the long-lived shared thread
pool of "Twelve years of SAMtools and BCFtools", Danecek et al. 2021)
is the production shape: **one** lazily-started pool per process, warm
across calls, many small work items pulled dynamically.

:class:`SharedExecutor` provides exactly that:

* lazily-created thread *and* forked-process pools, reused across
  calls (``stats()["process_pool_starts"]`` stays at 1 over a burst of
  conversions);
* worker counts capped at ``os.cpu_count()`` by default — never one
  thread per rank;
* ``fork`` start method where the platform has it, transparent
  fallback to ``spawn`` elsewhere (work is always submitted as
  ``fn(item)`` with picklable module-level functions, which both
  start methods can ship);
* idle-timeout shutdown: pools that sit unused are torn down by a
  timer and lazily recreated on the next call;
* dynamic dispatch: :meth:`SharedExecutor.map_tasks` submits items in
  descending cost order (longest-shard-first), so whichever worker
  frees up pulls the next-largest remaining item — the classic LPT
  greedy schedule;
* crash containment: a worker dying mid-task surfaces as
  :class:`ExecutorFailure` naming the task's label (shard id), the
  broken pool is discarded, and the next call gets a fresh one.

Ordinary exceptions *raised by* a task propagate unchanged (the pool
is unharmed); :class:`ExecutorFailure` is reserved for the pool
machinery itself breaking under a task.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import suppress
from typing import TYPE_CHECKING, Any

from ..errors import RuntimeLayerError

if TYPE_CHECKING:  # the pool machinery loads where a pool is first built
    from concurrent.futures import Future, ProcessPoolExecutor, \
        ThreadPoolExecutor

__all__ = [
    "ExecutorFailure", "SharedExecutor", "get_shared_executor",
    "reset_shared_executor", "shared_executor_stats",
    "resolve_start_method", "simulate_schedule",
    "default_worker_count", "DEFAULT_IDLE_TIMEOUT", "POOL_KINDS",
]

#: Pool kinds :meth:`SharedExecutor.map_tasks` accepts.
POOL_KINDS = ("thread", "process")

#: Seconds an unused pool survives before the idle timer reclaims it.
DEFAULT_IDLE_TIMEOUT = 120.0


class ExecutorFailure(RuntimeLayerError):
    """A pool worker died (or the pool broke) while running a task.

    The message names the failing work item (its rank/shard label) and
    the underlying cause, so a crash inside one shard of one rank is
    attributable.
    """

    def __init__(self, label: str, detail: str) -> None:
        self.label = label
        self.detail = detail
        super().__init__(f"worker pool task [{label}] failed: {detail}")

    def __reduce__(self) -> tuple:
        # A pool worker that ran its own ranks sends this home pickled.
        return ExecutorFailure, (self.label, self.detail)


def _pool_worker_init(owner_pid: int | None) -> None:
    """Worker initializer: disabled tracer, SIGINT ignored, no inherited
    executor, and no life after the parent.

    A forked worker inherits whatever tracer the parent had installed
    at pool-creation time; traced runs always ship spans explicitly
    (child tracer + epoch in the payload), so the inherited global must
    not also record.  Ctrl-C is the parent's to handle: a terminal
    SIGINT reaches the whole foreground process group, and an idle
    warm worker would die printing a KeyboardInterrupt traceback while
    the parent shuts the pool down cleanly.  The inherited ``_SHARED``
    handle points at the *parent's* pools: a task that itself asks for
    ``thread``/``process`` ranks (a service job) must build its own.
    And a worker whose parent was SIGKILLed would wait on the call
    queue forever — siblings hold its write end, so EOF never comes —
    so a daemon thread compares ``os.getppid()`` once a second and
    exits the worker, mid-task or idle, once it is no longer
    *owner_pid* (``None`` under ``forkserver``: the parent is the fork
    server, which dies with its owner).  Module-level so ``spawn`` can
    pickle it.
    """
    global _SHARED, _SHARED_LOCK
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from .tracing import Tracer, install
    install(Tracer(enabled=False))
    _SHARED, _SHARED_LOCK = None, threading.Lock()
    parent = owner_pid or os.getppid()

    def exit_when_orphaned() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=exit_when_orphaned, name="repro-orphan-watch",
                     daemon=True).start()


def default_worker_count() -> int:
    """The worker cap a default-constructed :class:`SharedExecutor`
    would use: ``REPRO_EXECUTOR_WORKERS`` when set (validated the same
    way), else ``os.cpu_count()``.

    Lets schedule modeling (the autotuner) know the pool width without
    forcing the global executor into existence.
    """
    env = os.environ.get("REPRO_EXECUTOR_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise RuntimeLayerError(
            f"invalid REPRO_EXECUTOR_WORKERS value {env!r}: expected "
            f"a positive integer") from None
    if workers < 1:
        raise RuntimeLayerError(
            f"invalid REPRO_EXECUTOR_WORKERS value {env!r}: must be "
            f">= 1")
    return workers


def resolve_start_method(start_method: str | None = None) -> str:
    """The multiprocessing start method the process pool will use.

    Preference order: explicit argument, ``REPRO_EXECUTOR_START_METHOD``
    environment variable, ``fork`` when the platform offers it, else
    ``spawn`` (the fork-unsafe-platform fallback).
    """
    if start_method is None:
        start_method = os.environ.get("REPRO_EXECUTOR_START_METHOD") \
            or None
    import multiprocessing as mp
    available = mp.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in available else "spawn"
    if start_method not in available:
        raise RuntimeLayerError(
            f"start method {start_method!r} unavailable on this "
            f"platform; choose from {available}")
    return start_method


class SharedExecutor:
    """Lazily-started, reusable thread + process pools behind one front.

    Parameters
    ----------
    max_workers:
        Worker cap per pool; defaults to ``REPRO_EXECUTOR_WORKERS`` or
        ``os.cpu_count()``.  Ranks/shards beyond the cap queue inside
        the pool — never one thread per spec.
    idle_timeout:
        Seconds of disuse after which live pools are shut down (they
        are recreated lazily on the next call).  ``None`` or ``<= 0``
        disables the timer; defaults to ``REPRO_EXECUTOR_IDLE_TIMEOUT``
        or :data:`DEFAULT_IDLE_TIMEOUT`.
    start_method:
        Multiprocessing start method; see :func:`resolve_start_method`.
    """

    def __init__(self, max_workers: int | None = None,
                 idle_timeout: float | None = None,
                 start_method: str | None = None) -> None:
        if max_workers is None:
            # Validates REPRO_EXECUTOR_WORKERS with a friendly error
            # naming the bad value instead of a raw int() traceback.
            max_workers = default_worker_count()
        if max_workers < 1:
            raise RuntimeLayerError(
                f"max_workers {max_workers} must be >= 1")
        if idle_timeout is None:
            env = os.environ.get("REPRO_EXECUTOR_IDLE_TIMEOUT")
            with suppress(ValueError):
                idle_timeout = float(env) if env else DEFAULT_IDLE_TIMEOUT
            if idle_timeout is None or not math.isfinite(idle_timeout):
                raise RuntimeLayerError(
                    f"invalid REPRO_EXECUTOR_IDLE_TIMEOUT value {env!r}: "
                    f"expected a number of seconds")
        self.max_workers = max_workers
        self.idle_timeout = idle_timeout
        self.start_method = resolve_start_method(start_method)
        self._lock = threading.RLock()
        self._thread_pool: ThreadPoolExecutor | None = None
        self._process_pool: ProcessPoolExecutor | None = None
        self._timer: threading.Timer | None = None
        self._active_calls = 0
        self._last_used = time.monotonic()
        self._counters = {
            "calls": 0,
            "tasks_completed": 0,
            "tasks_failed": 0,
            "thread_pool_starts": 0,
            "process_pool_starts": 0,
            "idle_shutdowns": 0,
        }

    # -- pool lifecycle ----------------------------------------------

    def _get_pool(self, kind: str):
        # Called with the lock held.
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
        if kind == "thread":
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-exec")
                self._counters["thread_pool_starts"] += 1
            return self._thread_pool
        if self._process_pool is None:
            import multiprocessing
            ctx = multiprocessing.get_context(self.start_method)
            self._process_pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=ctx,
                initializer=_pool_worker_init, initargs=(
                    None if self.start_method == "forkserver"
                    else os.getpid(),))
            self._counters["process_pool_starts"] += 1
        return self._process_pool

    def _take_pools(self) -> list[Any]:
        # Called with the lock held; detaches live pools for shutdown.
        pools = [p for p in (self._thread_pool, self._process_pool)
                 if p is not None]
        self._thread_pool = None
        self._process_pool = None
        return pools

    def _arm_idle_timer(self, delay: float | None = None) -> None:
        # One pending check serves any number of calls (a service job
        # ends one every few ms): it re-arms itself for the time left.
        with self._lock:
            if self._timer is not None or not self.idle_timeout \
                    or self.idle_timeout <= 0:
                return
            if self._thread_pool is None and self._process_pool is None:
                return
            timer = threading.Timer(delay or self.idle_timeout,
                                    self._idle_check)
            timer.daemon = True
            timer.start()
            self._timer = timer

    def _idle_check(self) -> None:
        with self._lock:
            self._timer = None
            idle_for = time.monotonic() - self._last_used
            if self._active_calls:     # the call's end arms the next one
                return
            pools = self._take_pools() \
                if idle_for >= self.idle_timeout else []
            if pools:
                self._counters["idle_shutdowns"] += 1
        for pool in pools:
            pool.shutdown(wait=False)
        if not pools:
            self._arm_idle_timer(self.idle_timeout - idle_for)

    def shutdown(self, wait_for_tasks: bool = True) -> None:
        """Stop both pools (they are recreated lazily if used again)."""
        with self._lock:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            pools = self._take_pools()
        for pool in pools:
            pool.shutdown(wait=wait_for_tasks)

    # -- dispatch ----------------------------------------------------

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any],
                  kind: str, labels: Sequence[str] | None = None,
                  costs: Sequence[float] | None = None) -> list[Any]:
        """Run ``fn(item)`` for every item on the *kind* pool.

        Items are submitted in descending *costs* order
        (longest-first), so the pool's work queue realizes a dynamic
        LPT schedule: whichever worker frees up pulls the largest
        remaining item.  Results come back in **input order**
        regardless.

        A task raising an ordinary exception propagates that exception
        unchanged after the remaining futures settle.  A worker *crash*
        (broken pool) raises :class:`ExecutorFailure` carrying the
        first affected item's label; the broken pool is discarded so
        the executor survives for the next call.
        """
        from concurrent.futures import FIRST_EXCEPTION, BrokenExecutor, wait
        if kind not in POOL_KINDS:
            raise RuntimeLayerError(
                f"unknown pool kind {kind!r}; choose from {POOL_KINDS}")
        items = list(items)
        if not items:
            return []
        order = list(range(len(items)))
        if costs is not None:
            if len(costs) != len(items):
                raise RuntimeLayerError(
                    f"{len(costs)} costs for {len(items)} items")
            order.sort(key=lambda i: -costs[i])
        with self._lock:
            pool = self._get_pool(kind)
            self._active_calls += 1
            self._counters["calls"] += 1
        try:
            futures: dict[int, Future] = {}
            try:
                for i in order:
                    futures[i] = pool.submit(fn, items[i])
            except BrokenExecutor as exc:
                for future in futures.values():
                    future.cancel()
                self._fail(pool, self._label(labels, order[len(futures)]),
                           exc)
            wait(futures.values(), return_when=FIRST_EXCEPTION)
            failed = [i for i in order
                      if futures[i].done() and not futures[i].cancelled()
                      and futures[i].exception() is not None]
            if failed:
                for future in futures.values():
                    future.cancel()
                wait(futures.values())  # let in-flight tasks settle
                first = failed[0]
                exc = futures[first].exception()
                assert exc is not None
                if isinstance(exc, BrokenExecutor):
                    self._fail(pool, self._label(labels, first), exc)
                raise exc
            results = [futures[i].result() for i in range(len(items))]
            with self._lock:
                self._counters["tasks_completed"] += len(items)
            return results
        finally:
            with self._lock:
                self._active_calls -= 1
                self._last_used = time.monotonic()
            self._arm_idle_timer()

    def _fail(self, pool: Any, label: str, exc: BaseException) -> None:
        # A broken process pool is dropped so the next call starts a
        # fresh one; a second caller that saw the same pool break finds
        # it gone and leaves the replacement alone.
        with self._lock:
            self._counters["tasks_failed"] += 1
            if self._process_pool is pool:
                self._process_pool = None
                pool.shutdown(wait=False)
        raise ExecutorFailure(
            label, f"{type(exc).__name__}: {exc}") from exc

    @staticmethod
    def _label(labels: Sequence[str] | None, index: int) -> str:
        if labels is not None and index < len(labels):
            return labels[index]
        return f"task {index}"

    # -- introspection -----------------------------------------------

    def stats(self) -> dict[str, float]:
        """Counters plus live-pool gauges (for tests and service
        metrics)."""
        with self._lock:
            out: dict[str, float] = dict(self._counters)
            out["max_workers"] = self.max_workers
            out["thread_pool_alive"] = int(self._thread_pool is not None)
            out["process_pool_alive"] = int(
                self._process_pool is not None)
            out["active_calls"] = self._active_calls
        return out


# -- the process-global instance ------------------------------------

_SHARED: SharedExecutor | None = None
_SHARED_LOCK = threading.Lock()


def get_shared_executor() -> SharedExecutor:
    """The process-global executor, created lazily on first use."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = SharedExecutor()
        return _SHARED


def reset_shared_executor() -> None:
    """Shut down and forget the process-global executor.

    Test/bench hook: the next :func:`get_shared_executor` call builds a
    cold one, which is how per-call pool startup is measured.
    """
    global _SHARED
    with _SHARED_LOCK:
        shared, _SHARED = _SHARED, None
    if shared is not None:
        shared.shutdown()


def shared_executor_stats() -> dict[str, float]:
    """Stats of the global executor *without* creating it (empty dict
    when no call has started it yet)."""
    with _SHARED_LOCK:
        shared = _SHARED
    return shared.stats() if shared is not None else {}


# -- schedule modeling ----------------------------------------------

def simulate_schedule(costs: Sequence[float], workers: int,
                      longest_first: bool = True) -> float:
    """Makespan of greedy list scheduling of *costs* over *workers*.

    With ``longest_first=True`` this is the LPT schedule
    :meth:`SharedExecutor.map_tasks` realizes (items sorted by
    descending cost, each assigned to the earliest-free worker); with
    ``False`` the given order is kept (the arrival-order schedule).
    Used by the scaling bench to model dynamic-shard vs static-rank
    makespans from measured per-item durations, the same
    measure-then-model methodology as the figure benches, and by the
    autotuner to compare candidate shard counts.

    The makespan contract (asserted by tests/test_executor.py):

    * an empty cost list returns ``0.0`` — no work takes no time;
    * ``workers > len(costs)`` behaves as ``workers == len(costs)``:
      every task gets its own worker and the makespan is
      ``max(costs)``;
    * zero-cost tasks are legal and contribute nothing;
    * ``workers == 1`` degenerates to ``sum(costs)`` regardless of
      ``longest_first``;
    * ``workers < 1`` raises :class:`~repro.errors.RuntimeLayerError`.
    """
    if workers < 1:
        raise RuntimeLayerError(f"workers {workers} must be >= 1")
    seq = sorted(costs, reverse=True) if longest_first else list(costs)
    if not seq:
        return 0.0
    free = [0.0] * min(workers, len(seq))
    heapq.heapify(free)
    for cost in seq:
        heapq.heappush(free, heapq.heappop(free) + float(cost))
    return max(free)
