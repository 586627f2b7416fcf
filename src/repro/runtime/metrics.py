"""Per-rank metrics and the simulated-cluster performance model.

The paper evaluates on a 256-core Opteron cluster; this reproduction runs
on whatever cores are available (possibly one).  Functional parallelism
is real (thread/process backends), but *scalability figures* are
regenerated analytically: every rank's work is executed and measured
individually (compute seconds, I/O seconds, bytes moved), and a cluster
model turns those per-rank measurements into a modeled parallel time:

``T_par(n) = max_r(compute_r) + IO(n) + alpha * ceil(log2 n)``

where ``IO(n)`` spreads the measured single-stream I/O over at most
``io_streams`` concurrent streams (the shared-storage ceiling that makes
the paper's I/O-heavy conversions flatten at high core counts), and the
log term models the collectives/barriers.  This is the standard
load-balance analysis for bulk-synchronous programs: the *shape* of the
resulting speedup curves — who scales, where the I/O bottleneck bites —
is determined by the measured work distribution, not by invented
numbers.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import RuntimeLayerError


@dataclass(slots=True)
class RankMetrics:
    """Measured work of one rank (or of the whole sequential run)."""

    compute_seconds: float = 0.0
    io_seconds: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    records: int = 0
    emitted: int = 0
    #: Slabs the batch pipeline degraded: SAM text to the per-line path,
    #: BAM preprocessing to decoded records.
    fallbacks: int = 0
    #: Columnar slabs the kernel layer degraded to the record path.
    kernel_fallbacks: int = 0

    @property
    def total_seconds(self) -> float:
        """Compute plus I/O seconds."""
        return self.compute_seconds + self.io_seconds

    def merge(self, other: "RankMetrics") -> "RankMetrics":
        """Element-wise sum (e.g. combining phases of one rank)."""
        return RankMetrics(
            self.compute_seconds + other.compute_seconds,
            self.io_seconds + other.io_seconds,
            self.bytes_read + other.bytes_read,
            self.bytes_written + other.bytes_written,
            self.records + other.records,
            self.emitted + other.emitted,
            self.fallbacks + other.fallbacks,
            self.kernel_fallbacks + other.kernel_fallbacks,
        )

    @classmethod
    def merge_shards(cls, shards: "list[RankMetrics]") -> "RankMetrics":
        """Fold the metrics of one rank's shards back into rank metrics.

        Counters (bytes, records, emitted) sum — the rank moved all of
        that data.  Time fields take the **max** over shards: shards of
        one rank run concurrently on the shared pool, so the rank's
        effective wall contribution is its slowest shard, not the sum
        (summing would erase exactly the load-balancing gain the shards
        exist to model).  Order-insensitive over the counters; max is
        order-insensitive too, so the whole fold is.
        """
        if not shards:
            raise RuntimeLayerError("no shard metrics to merge")
        return cls(
            compute_seconds=max(m.compute_seconds for m in shards),
            io_seconds=max(m.io_seconds for m in shards),
            bytes_read=sum(m.bytes_read for m in shards),
            bytes_written=sum(m.bytes_written for m in shards),
            records=sum(m.records for m in shards),
            emitted=sum(m.emitted for m in shards),
            fallbacks=sum(m.fallbacks for m in shards),
            kernel_fallbacks=sum(m.kernel_fallbacks for m in shards),
        )


def merge_all(metrics: list[RankMetrics]) -> RankMetrics:
    """Sum a list of metrics into one aggregate."""
    total = RankMetrics()
    for m in metrics:
        total = total.merge(m)
    return total


class ServiceMetrics:
    """Thread-safe counters/gauges/timers for the conversion service.

    Three families, all named by plain strings so the service layer can
    add counters without touching this class:

    * **counters** — monotonically increasing (``jobs_submitted``,
      ``cache_hits``, ...);
    * **gauges** — last-set value (``queue_depth``, ``cache_bytes``);
    * **timers** — (count, total seconds) pairs (``job_wall_seconds``).

    ``snapshot()`` returns one plain dict safe to serialize over the
    service protocol; ``format_report()`` renders it for humans.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, tuple[int, float]] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value*."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration under timer *name*."""
        with self._lock:
            count, total = self._timers.get(name, (0, 0.0))
            self._timers[name] = (count + 1, total + seconds)

    @contextmanager
    def timed(self, name: str):
        """Context manager observing the enclosed wall time as *name*."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    def counter(self, name: str) -> int:
        """Current value of counter *name* (zero if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        """Current value of gauge *name* (zero if never set)."""
        with self._lock:
            return self._gauges.get(name, 0.0)

    def snapshot(self) -> dict:
        """One consistent, JSON-serializable view of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {"count": count, "total_seconds": total,
                           "mean_seconds": total / count if count else 0.0}
                    for name, (count, total) in self._timers.items()
                },
            }

    def absorb(self, snap: dict) -> None:
        """Fold in a :meth:`snapshot` taken in another process (a job
        body's deltas): counters and timers add, gauges overwrite."""
        with self._lock:
            for name, amount in snap["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + amount
            self._gauges.update(snap["gauges"])
            for name, timer in snap["timers"].items():
                count, total = self._timers.get(name, (0, 0.0))
                self._timers[name] = (count + timer["count"],
                                      total + timer["total_seconds"])

    def format_report(self) -> str:
        """Human-readable metrics table (``repro status --metrics``)."""
        return format_metrics_snapshot(self.snapshot())


def format_metrics_snapshot(snap: dict) -> str:
    """Render a :meth:`ServiceMetrics.snapshot` dict for humans.

    Module-level so protocol clients can format a snapshot received
    over the wire without reconstructing a ServiceMetrics.
    """
    lines = []
    for name in sorted(snap.get("counters", {})):
        lines.append(f"{name:<28} {snap['counters'][name]}")
    for name in sorted(snap.get("gauges", {})):
        lines.append(f"{name:<28} {snap['gauges'][name]:g}")
    for name in sorted(snap.get("timers", {})):
        t = snap["timers"][name]
        lines.append(f"{name:<28} count={t['count']} "
                     f"total={t['total_seconds']:.3f}s "
                     f"mean={t['mean_seconds']:.6f}s")
    return "\n".join(lines) if lines else "(no metrics recorded)"


@dataclass(frozen=True, slots=True)
class ClusterModel:
    """Parameters of the modeled cluster.

    Defaults mirror the paper's testbed: 8-core nodes, shared storage
    whose aggregate bandwidth saturates well below 128 concurrent
    streams, and sub-millisecond collectives.

    Attributes
    ----------
    cores_per_node:
        Cores per node (8 dual-core-CPU AMD Opteron nodes in the paper).
    io_streams:
        Number of concurrent I/O streams the shared storage sustains at
        full single-stream speed; beyond this, aggregate bandwidth is
        flat and I/O time stops shrinking.
    collective_alpha:
        Seconds per ``log2`` step of a barrier/reduction.
    """

    cores_per_node: int = 8
    io_streams: int = 48
    collective_alpha: float = 2e-4

    def nodes_for(self, nprocs: int) -> int:
        """Number of nodes hosting *nprocs* ranks."""
        return max(1, math.ceil(nprocs / self.cores_per_node))


DEFAULT_CLUSTER = ClusterModel()


def modeled_parallel_time(rank_metrics: list[RankMetrics],
                          model: ClusterModel = DEFAULT_CLUSTER) -> float:
    """Modeled wall time of one bulk-synchronous parallel phase.

    ``max`` over ranks of compute (ranks compute independently), plus
    I/O spread over at most ``model.io_streams`` streams but never
    faster than the slowest single rank's own I/O, plus the collective
    term.
    """
    if not rank_metrics:
        raise RuntimeLayerError("no rank metrics to model")
    n = len(rank_metrics)
    compute = max(m.compute_seconds for m in rank_metrics)
    io_serial = sum(m.io_seconds for m in rank_metrics)
    io_max = max(m.io_seconds for m in rank_metrics)
    io_time = max(io_serial / min(n, model.io_streams), io_max)
    collective = 0.0 if n == 1 \
        else model.collective_alpha * math.ceil(math.log2(n))
    return compute + io_time + collective
