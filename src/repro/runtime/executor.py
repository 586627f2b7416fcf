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

* lazily-created thread and process (:class:`PipeWorkers`) pools,
  reused across calls and kept until :meth:`SharedExecutor.shutdown`
  or exit — nothing watches them idle;
* worker counts capped at ``os.cpu_count()`` by default — never one
  thread per rank;
* ``fork`` start method where the platform has it, transparent
  fallback to ``spawn`` elsewhere (work is always ``fn(item)`` with
  picklable module-level functions, which both can ship);
* dynamic dispatch: :meth:`SharedExecutor.map_tasks` hands items out
  in descending cost order (longest-shard-first), so whichever worker
  frees up pulls the next-largest remaining item — the classic LPT
  greedy schedule;
* crash containment: a worker dying mid-task fails that task alone
  with :class:`ExecutorFailure` naming its label (shard id); only that
  worker is re-forked, and the tasks beside it run to their end.

Ordinary exceptions *raised by* a task propagate unchanged (the pool
is unharmed); :class:`ExecutorFailure` is reserved for a worker dying
under a task.
"""

from __future__ import annotations

import heapq
import os
import queue
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import suppress
from typing import TYPE_CHECKING, Any

from ..errors import RuntimeLayerError

if TYPE_CHECKING:  # the pool machinery loads where a pool is first built
    from concurrent.futures import ThreadPoolExecutor

    from .metrics import ServiceMetrics

__all__ = [
    "ExecutorFailure", "PipeWorkers", "SharedExecutor",
    "get_shared_executor", "reset_shared_executor",
    "resolve_start_method", "simulate_schedule", "default_worker_count",
    "POOL_KINDS",
]

#: Pool kinds :meth:`SharedExecutor.map_tasks` accepts.
POOL_KINDS = ("thread", "process")


class ExecutorFailure(RuntimeLayerError):
    """A pool worker died while running a task.

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
    """Worker set-up: disabled tracer, SIGINT ignored, no inherited
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
    And a worker whose parent was SIGKILLed must not finish its task,
    nor wait on a pipe another child of the parent may hold open — so
    a daemon thread compares ``os.getppid()`` once a second and exits
    the worker, mid-task or idle, once it is no longer *owner_pid*
    (``None`` under ``forkserver``: the parent is the fork server,
    which dies with its owner).
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


# -- the process pool -------------------------------------------------

def _pipe_worker(conn: Any, owner_pid: int | None,
                 inherited: list[Any]) -> None:
    """A worker's loop: ``(fn, item)`` in, ``(True, fn(item))`` or
    ``(False, exception)`` out, until ``None`` or EOF (a reply that
    does not pickle ends the worker).  *inherited*, the parent's ends
    of the pipes at the fork, are closed so that EOF can come."""
    for other in inherited:
        other.close()
    _pool_worker_init(owner_pid)
    with suppress(EOFError, OSError):
        while (task := conn.recv()) is not None:
            fn, item = task
            try:
                reply = (True, fn(item))
            except Exception as exc:  # noqa: BLE001 — sent home
                reply = (False, exc)
            conn.send(reply)


def _stop_workers(slots: list[list[Any]], lock: threading.Lock) -> None:
    """Stop every worker of *slots*; a task still running finishes."""
    with lock:      # a fork under way ends first; none starts after
        for _, conn in slots:
            with suppress(OSError):
                conn.send(None)
    for proc, conn in slots:
        proc.join()
        conn.close()


class PipeWorkers:
    """*n* worker processes, one duplex pipe each: the process pool.

    The constructor forks them, so the service builds it before any
    thread exists.  A task is one ``(fn, item)`` send and one receive,
    with no relay thread: :meth:`map` waits on the pipes of a batch of
    rank pieces, and :meth:`call` awaits one on an event loop.  A
    worker that dies under a task fails that task with
    :class:`ExecutorFailure` and is re-forked alone.
    :attr:`counts` (``starts``, ``alive``, ``tasks_completed``,
    ``tasks_failed``) are also *metrics*' ``body_worker_*`` gauges.
    """

    def __init__(self, n: int, start_method: str | None = None,
                 metrics: ServiceMetrics | None = None) -> None:
        import multiprocessing
        from multiprocessing.util import Finalize
        method = resolve_start_method(start_method)
        self._ctx = multiprocessing.get_context(method)
        self._owner = None if method == "forkserver" else os.getpid()
        self._metrics = metrics
        self._lock = threading.Lock()
        self.counts = dict.fromkeys(
            ("starts", "alive", "tasks_completed", "tasks_failed"), 0)
        self._slots: list[list[Any]] = []     # [process, parent's end]
        self._free: queue.SimpleQueue[int] = queue.SimpleQueue()
        # Also at interpreter exit, before multiprocessing joins them.
        self._stop = Finalize(self, _stop_workers, exitpriority=10,
                              args=(self._slots, self._lock))
        for i in range(n):
            self._fork(i)
            self._free.put(i)

    def close(self) -> None:
        """Stop every worker; a task still running finishes first."""
        self._stop()

    @property
    def pids(self) -> list[int]:
        """The workers' process ids, in slot order."""
        return [proc.pid for proc, _ in self._slots]

    def _fork(self, i: int) -> None:
        """Fork slot *i*'s worker, killing the one there — but none once
        the pool is closed.  One fork at a time: a worker must not
        inherit another's end of its pipe."""
        if i < len(self._slots):
            proc, conn = self._slots[i]
            conn.close()
            proc.kill()
            proc.join()
            self._count(alive=-1, tasks_failed=1)
        with self._lock:
            if not self._stop.still_active():
                return
            ours, theirs = self._ctx.Pipe()
            inherited = [conn for _, conn in self._slots if not conn.closed]
            proc = self._ctx.Process(target=_pipe_worker, args=(
                theirs, self._owner, [*inherited, ours]))
            proc.start()
            theirs.close()
            self._slots[i:i + 1] = [[proc, ours]]
        self._count(starts=1, alive=1)

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self.counts[name] += delta
            if self._metrics is not None:
                for name, value in self.counts.items():
                    self._metrics.set_gauge(f"body_worker_{name}", value)

    def _send(self, slot: int, fn: Callable[[Any], Any], item: Any) -> None:
        """Send ``fn(item)`` to busy *slot*'s worker.  A task that does
        not pickle frees the slot and raises: pickling fails before a
        byte is written, so the worker is unharmed."""
        try:
            with suppress(OSError):     # a dead worker shows at the receive
                self._slots[slot][1].send((fn, item))
        except Exception:
            self._free.put(slot)
            raise

    def _receive(self, slot: int, label: str) -> tuple[bool, Any]:
        """Busy *slot*'s reply, ``(True, result)`` or ``(False,
        exception)``, and the slot freed.  A worker that died is
        :class:`ExecutorFailure` naming *label*, and is re-forked."""
        proc, conn = self._slots[slot]
        try:
            ok, reply = conn.recv()
        except (EOFError, OSError) as exc:
            self._abandon(slot)
            return False, ExecutorFailure(
                label, f"{type(exc).__name__}: worker {proc.pid} died "
                f"(exit code {proc.exitcode})")
        self._free.put(slot)
        if ok:
            self._count(tasks_completed=1)
        return ok, reply

    def _abandon(self, slot: int) -> None:
        """Kill busy *slot*'s worker, re-fork it and free the slot."""
        self._fork(slot)
        self._free.put(slot)

    async def call(self, fn: Callable[[Any], Any], item: Any,
                   label: str) -> Any:
        """``fn(item)`` on a free worker, awaited on the running loop,
        which watches the worker's pipe: no thread waits.  It fails as
        :meth:`map` says.  The caller keeps no more calls in flight than
        there are workers, so a free one is there.  A call cancelled
        (an attempt's timeout) kills and re-forks its worker."""
        import asyncio
        loop = asyncio.get_running_loop()
        slot = self._free.get_nowait()
        self._send(slot, fn, item)
        fd, readable = self._slots[slot][1].fileno(), loop.create_future()
        loop.add_reader(fd, lambda: readable.done()
                        or readable.set_result(None))
        try:
            await readable
        except BaseException:
            loop.remove_reader(fd)
            self._abandon(slot)
            raise
        loop.remove_reader(fd)
        ok, reply = self._receive(slot, label)
        if not ok:
            raise reply
        return reply

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            labels: Sequence[str],
            order: Sequence[int] | None = None) -> list[Any]:
        """``fn(item)`` for every item, sent in *order* to whichever
        worker is free; results in input order.  After a failure no
        more is sent, the tasks in flight settle, and the first failure
        is raised: the task's exception, or :class:`ExecutorFailure`
        naming its label if its worker died.  A call waits for a worker
        only while it holds none, so concurrent calls cannot deadlock.
        A task that does not pickle is a failure that leaves its worker
        untouched.
        """
        from multiprocessing.connection import wait
        results: list[Any] = [None] * len(items)
        todo = list(range(len(items)) if order is None else order)[::-1]
        busy: dict[Any, tuple[int, int]] = {}   # parent's end -> slot, item
        failure: BaseException | None = None
        try:
            while busy or todo and failure is None:
                while todo and failure is None:
                    try:
                        slot = self._free.get(block=not busy)
                    except queue.Empty:
                        break
                    index = todo.pop()
                    try:
                        self._send(slot, fn, items[index])
                    except Exception as exc:  # noqa: BLE001 — pickling
                        failure = exc
                        break
                    busy[self._slots[slot][1]] = slot, index
                if not busy:
                    break
                for conn in wait(list(busy)):
                    slot, index = busy.pop(conn)
                    ok, reply = self._receive(slot, labels[index])
                    if ok:
                        results[index] = reply
                    elif failure is None:
                        failure = reply
        finally:
            for slot, _ in busy.values():
                self._abandon(slot)
        if failure is not None:
            raise failure
        return results


class SharedExecutor:
    """Lazily-started, reusable thread + process pools behind one lock.

    Parameters
    ----------
    max_workers:
        Worker cap per pool; defaults to ``REPRO_EXECUTOR_WORKERS`` or
        ``os.cpu_count()``.  Ranks/shards beyond the cap wait for a
        free worker — never one thread per spec.
    start_method:
        Multiprocessing start method; see :func:`resolve_start_method`.
    """

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        if max_workers is None:
            # Validates REPRO_EXECUTOR_WORKERS with a friendly error
            # naming the bad value instead of a raw int() traceback.
            max_workers = default_worker_count()
        if max_workers < 1:
            raise RuntimeLayerError(
                f"max_workers {max_workers} must be >= 1")
        self.max_workers = max_workers
        self.start_method = resolve_start_method(start_method)
        self._lock = threading.Lock()
        self._thread_pool: ThreadPoolExecutor | None = None
        self._process_pool: PipeWorkers | None = None

    def _get_pool(self, kind: str) -> Any:
        # Called with the lock held.
        if kind == "thread":
            if self._thread_pool is None:
                from concurrent.futures import ThreadPoolExecutor
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-exec")
            return self._thread_pool
        if self._process_pool is None:
            self._process_pool = PipeWorkers(self.max_workers,
                                             self.start_method)
        return self._process_pool

    def shutdown(self, wait_for_tasks: bool = True) -> None:
        """Stop both pools (they are recreated lazily if used again)."""
        with self._lock:
            threads, processes = self._thread_pool, self._process_pool
            self._thread_pool = self._process_pool = None
        if threads is not None:
            threads.shutdown(wait=wait_for_tasks)
        if processes is not None:
            processes.close()

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any],
                  kind: str, labels: Sequence[str] | None = None,
                  costs: Sequence[float] | None = None) -> list[Any]:
        """Run ``fn(item)`` for every item on the *kind* pool.

        Items are handed out in descending *costs* order
        (longest-first), whichever worker frees up taking the largest
        remaining item: a dynamic LPT schedule.  Results come back in
        **input order** regardless.

        A task raising an ordinary exception propagates that exception
        unchanged after the tasks in flight settle.  A worker dying
        under a task raises :class:`ExecutorFailure` carrying that
        task's label (``task <i>`` without *labels*); only that worker
        is re-forked, so the executor serves the next call.
        """
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
        if kind == "process":
            return pool.map(fn, items, [
                labels[i] if labels is not None and i < len(labels)
                else f"task {i}" for i in range(len(items))], order)
        from concurrent.futures import FIRST_EXCEPTION, wait
        futures = [pool.submit(fn, items[i]) for i in order]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()     # those not started; the rest settle
        wait(futures)
        results: list[Any] = [None] * len(items)
        for i, future in zip(order, futures):   # FIFO: a failed one
            results[i] = future.result()        # precedes a cancel
        return results


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
