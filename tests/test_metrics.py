"""Unit tests for rank metrics and the simulated-cluster model."""

import math

import pytest

from repro.errors import RuntimeLayerError
from repro.runtime.metrics import DEFAULT_CLUSTER, ClusterModel, \
    RankMetrics, merge_all, modeled_parallel_time


def test_merge_adds_fields():
    a = RankMetrics(1.0, 0.5, 10, 20, 3, 2)
    b = RankMetrics(2.0, 0.25, 1, 2, 4, 4)
    m = a.merge(b)
    assert m.compute_seconds == 3.0
    assert m.io_seconds == 0.75
    assert m.bytes_read == 11
    assert m.bytes_written == 22
    assert m.records == 7
    assert m.emitted == 6


def test_total_seconds():
    assert RankMetrics(1.5, 0.5).total_seconds == 2.0


def test_merge_all():
    total = merge_all([RankMetrics(records=2), RankMetrics(records=3)])
    assert total.records == 5


def test_modeled_time_compute_bound_scales_linearly():
    model = ClusterModel(io_streams=1000, collective_alpha=0.0)
    for n in (4, 8):        # 8 s of work, evenly spread
        ranks = [RankMetrics(compute_seconds=8.0 / n) for _ in range(n)]
        assert modeled_parallel_time(ranks, model) == pytest.approx(8.0 / n)


def test_modeled_time_dominated_by_slowest_rank():
    model = ClusterModel(collective_alpha=0.0, io_streams=1000)
    ranks = [RankMetrics(compute_seconds=1.0),
             RankMetrics(compute_seconds=5.0)]
    assert modeled_parallel_time(ranks, model) == pytest.approx(5.0)


def test_modeled_io_saturates_at_stream_cap():
    model = ClusterModel(io_streams=4, collective_alpha=0.0)
    # 16 ranks each with 1s of I/O: serial I/O = 16s, capped at 4
    # streams -> 4s, not 1s.
    ranks = [RankMetrics(io_seconds=1.0) for _ in range(16)]
    assert modeled_parallel_time(ranks, model) == pytest.approx(4.0)


def test_modeled_io_never_faster_than_slowest_rank():
    model = ClusterModel(io_streams=1000, collective_alpha=0.0)
    ranks = [RankMetrics(io_seconds=0.1) for _ in range(7)]
    ranks.append(RankMetrics(io_seconds=3.0))
    assert modeled_parallel_time(ranks, model) == pytest.approx(3.0)


def test_collective_term_grows_logarithmically():
    model = ClusterModel(collective_alpha=1.0, io_streams=1000)
    ranks2 = [RankMetrics() for _ in range(2)]
    ranks64 = [RankMetrics() for _ in range(64)]
    t2 = modeled_parallel_time(ranks2, model)
    t64 = modeled_parallel_time(ranks64, model)
    assert t2 == pytest.approx(1.0)
    assert t64 == pytest.approx(math.log2(64))


def test_modeled_time_requires_ranks():
    with pytest.raises(RuntimeLayerError):
        modeled_parallel_time([])


def test_nodes_for():
    assert DEFAULT_CLUSTER.nodes_for(1) == 1
    assert DEFAULT_CLUSTER.nodes_for(8) == 1
    assert DEFAULT_CLUSTER.nodes_for(9) == 2
    assert DEFAULT_CLUSTER.nodes_for(256) == 32


def test_service_metrics_counters_gauges_timers():
    from repro.runtime.metrics import ServiceMetrics
    metrics = ServiceMetrics()
    metrics.inc("jobs_submitted")
    metrics.inc("jobs_submitted", 2)
    metrics.set_gauge("queue_depth", 4)
    metrics.set_gauge("queue_depth", 3)
    metrics.observe("job_wall_seconds", 2.0)
    metrics.observe("job_wall_seconds", 4.0)
    assert metrics.counter("jobs_submitted") == 3
    assert metrics.counter("never_touched") == 0
    assert metrics.gauge("queue_depth") == 3
    snap = metrics.snapshot()
    assert snap["counters"]["jobs_submitted"] == 3
    timer = snap["timers"]["job_wall_seconds"]
    assert timer["count"] == 2
    assert timer["mean_seconds"] == pytest.approx(3.0)
    report = metrics.format_report()
    assert "jobs_submitted" in report and "queue_depth" in report


def test_service_metrics_thread_safety():
    import threading

    from repro.runtime.metrics import ServiceMetrics
    metrics = ServiceMetrics()

    def spin():
        for _ in range(500):
            metrics.inc("hits")

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert metrics.counter("hits") == 4000


def test_format_metrics_snapshot_empty():
    from repro.runtime.metrics import format_metrics_snapshot
    assert format_metrics_snapshot({}) == "(no metrics recorded)"
