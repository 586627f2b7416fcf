"""Unit tests for the persistent shared worker pool
(:mod:`repro.runtime.executor`) and the shard-metrics fold."""

import os
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RuntimeLayerError
from repro.runtime.executor import (
    ExecutorFailure,
    PipeWorkers,
    SharedExecutor,
    get_shared_executor,
    reset_shared_executor,
    resolve_start_method,
    shared_executor_stats,
    simulate_schedule,
)
from repro.runtime.metrics import RankMetrics


# Module-level task functions so the process pool can pickle them.

def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"bad item {x}")


def _crash(_x):
    os._exit(3)


def _crash_if_negative(x):
    if x < 0:
        os._exit(3)
    return x


def _thread_name(_x):
    time.sleep(0.02)
    return threading.current_thread().name


def _crash_or_sleep(x):
    if x < 0:
        os._exit(3)
    time.sleep(0.3)
    return x


def _pid(_x):
    return os.getpid()


_ORDER_LOG: list[int] = []


def _log_order(x):
    """The position at which *x* ran: the log is per process, and a
    process pool's worker starts it empty."""
    _ORDER_LOG.append(x)
    return len(_ORDER_LOG)


@pytest.fixture()
def executor():
    ex = SharedExecutor(idle_timeout=0)
    yield ex
    ex.shutdown()


# -- dispatch basics -------------------------------------------------

def test_results_come_back_in_input_order(executor):
    items = [5, 1, 4, 2, 3]
    assert executor.map_tasks(_double, items, "thread") == \
        [10, 2, 8, 4, 6]
    # Costs reorder the submission, never the results.
    assert executor.map_tasks(_double, items, "thread",
                              costs=[1, 5, 2, 4, 3]) == [10, 2, 8, 4, 6]


def test_empty_items_short_circuit(executor):
    assert executor.map_tasks(_double, [], "thread") == []
    assert executor.stats()["calls"] == 0


def test_unknown_pool_kind_rejected(executor):
    with pytest.raises(RuntimeLayerError, match="unknown pool kind"):
        executor.map_tasks(_double, [1], "simulate")


def test_costs_length_mismatch_rejected(executor):
    with pytest.raises(RuntimeLayerError, match="costs"):
        executor.map_tasks(_double, [1, 2], "thread", costs=[1.0])


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_longest_first_submission_order(kind):
    # One worker makes the pool's execution order equal the submission
    # order, exposing the LPT (descending cost) sort.
    ex = SharedExecutor(max_workers=1, idle_timeout=0)
    try:
        _ORDER_LOG.clear()
        items = [10, 30, 20]
        ran_at = ex.map_tasks(_log_order, items, kind,
                              costs=[1.0, 3.0, 2.0])
        assert [x for _, x in sorted(zip(ran_at, items))] == [30, 20, 10]
    finally:
        ex.shutdown()


def test_process_pool_runs_tasks(executor):
    assert executor.map_tasks(_double, [1, 2, 3], "process") == [2, 4, 6]


def test_process_map_leaves_no_helper_thread():
    """The process pool is pipes and processes: a map starts no thread
    in the parent (no queue feeder, no manager)."""
    before = threading.active_count()
    ex = SharedExecutor(max_workers=2, idle_timeout=0)
    try:
        assert ex.map_tasks(_double, [1, 2, 3], "process") == [2, 4, 6]
        assert threading.active_count() == before, threading.enumerate()
    finally:
        ex.shutdown()


# -- oversubscription guard (satellite 1) ----------------------------

def test_worker_cap_defaults_to_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR_WORKERS", raising=False)
    ex = SharedExecutor(idle_timeout=0)
    try:
        assert ex.max_workers == (os.cpu_count() or 1)
    finally:
        ex.shutdown()


def test_no_thread_per_task_oversubscription():
    """Many more tasks than workers must reuse the capped thread set
    (the old executor spawned ``len(specs)`` threads unconditionally)."""
    ex = SharedExecutor(max_workers=2, idle_timeout=0)
    try:
        names = ex.map_tasks(_thread_name, list(range(16)), "thread")
        assert len(set(names)) <= 2
        assert all(name.startswith("repro-exec") for name in names)
    finally:
        ex.shutdown()


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "3")
    ex = SharedExecutor(idle_timeout=0)
    try:
        assert ex.max_workers == 3
    finally:
        ex.shutdown()


def test_invalid_worker_count_rejected():
    with pytest.raises(RuntimeLayerError, match="max_workers"):
        SharedExecutor(max_workers=0)


# -- warm reuse and idle timeout -------------------------------------

def test_pools_are_reused_across_calls(executor):
    for _ in range(4):
        executor.map_tasks(_double, [1, 2], "thread")
        executor.map_tasks(_double, [1, 2], "process")
    stats = executor.stats()
    assert stats["thread_pool_starts"] == 1
    assert stats["process_pool_starts"] == 1
    assert stats["calls"] == 8
    assert stats["tasks_completed"] == 16


def test_idle_timeout_reclaims_and_recreates_pools():
    ex = SharedExecutor(idle_timeout=0.05)
    try:
        ex.map_tasks(_double, [1], "thread")
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            stats = ex.stats()
            if stats["idle_shutdowns"] >= 1:
                break
            time.sleep(0.02)
        stats = ex.stats()
        assert stats["idle_shutdowns"] >= 1
        assert stats["thread_pool_alive"] == 0
        # The executor survives reclamation: the next call restarts.
        assert ex.map_tasks(_double, [2], "thread") == [4]
        assert ex.stats()["thread_pool_starts"] == 2
    finally:
        ex.shutdown()


def test_one_idle_check_serves_a_burst_of_calls():
    """Ending a call used to cancel the pending idle timer and start a
    new one — a thread per call.  One pending check is kept instead; if
    it finds the pools used since, it waits out the time that is left,
    so reclamation still comes ``idle_timeout`` after the *last* use."""
    ex = SharedExecutor(max_workers=1, idle_timeout=0.25)
    try:
        ex.map_tasks(_double, [1], "thread")
        first = ex._timer
        assert first is not None
        for _ in range(10):
            ex.map_tasks(_double, [1], "thread")
            assert ex._timer is first
        time.sleep(0.15)
        ex.map_tasks(_double, [1], "thread")    # before the check fires
        last_use = time.monotonic()
        deadline = last_use + 3.0
        while ex.stats()["idle_shutdowns"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ex.stats()["idle_shutdowns"] == 1
        assert time.monotonic() - last_use >= 0.25 * 0.9
        assert ex.stats()["thread_pool_alive"] == 0 and ex._timer is None
    finally:
        ex.shutdown()


def test_shutdown_then_reuse(executor):
    executor.map_tasks(_double, [1], "thread")
    executor.shutdown()
    assert executor.map_tasks(_double, [3], "thread") == [6]


# -- spawn fallback (satellite 2) ------------------------------------

def test_resolve_start_method_prefers_fork_when_available():
    import multiprocessing as mp
    expected = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    assert resolve_start_method() == expected


def test_resolve_start_method_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_START_METHOD", "spawn")
    assert resolve_start_method() == "spawn"


def test_resolve_start_method_rejects_unavailable():
    with pytest.raises(RuntimeLayerError, match="unavailable"):
        resolve_start_method("no-such-method")


def test_forced_spawn_context_runs_tasks():
    """The fork-unsafe-platform fallback: a spawn pool must run the
    same picklable ``fn(item)`` work items."""
    ex = SharedExecutor(max_workers=2, idle_timeout=0,
                        start_method="spawn")
    try:
        assert ex.start_method == "spawn"
        assert ex.map_tasks(_double, [1, 2, 3], "process") == [2, 4, 6]
    finally:
        ex.shutdown()


def test_forced_spawn_conversion_byte_identical(sam_file, tmp_path,
                                                monkeypatch):
    """A whole conversion must work under a spawn-only process pool."""
    from repro.core import SamConverter
    reset_shared_executor()
    monkeypatch.setenv("REPRO_EXECUTOR_START_METHOD", "spawn")
    try:
        spawned = SamConverter().convert(sam_file, "bed",
                                         tmp_path / "spawn", nprocs=2,
                                         executor="process")
    finally:
        reset_shared_executor()
    inline = SamConverter().convert(sam_file, "bed", tmp_path / "sim",
                                    nprocs=2)
    a = b"".join(open(p, "rb").read() for p in spawned.outputs)
    b = b"".join(open(p, "rb").read() for p in inline.outputs)
    assert a == b


# -- crash containment (satellite 4) ---------------------------------

def test_worker_crash_raises_executor_failure_with_label(executor):
    with pytest.raises(ExecutorFailure) as err:
        executor.map_tasks(_crash, [0], "process",
                           labels=["rank 2 shard 1"])
    assert "rank 2 shard 1" in str(err.value)
    assert err.value.label == "rank 2 shard 1"


def test_pool_survives_worker_crash(executor):
    with pytest.raises(ExecutorFailure):
        executor.map_tasks(_crash, [0], "process")
    # The pool lives on; only the dead worker was re-forked.
    assert executor.map_tasks(_double, [4], "process") == [8]
    stats = executor.stats()
    assert stats["process_pool_starts"] == 1
    assert executor._process_pool.counts["starts"] == \
        executor.max_workers + 1
    assert stats["tasks_failed"] == 1


@pytest.mark.parametrize("items, dying", [([1, -1], "item 1"),
                                          ([1, 2, 3, -1], "item 3")])
def test_crash_names_the_dying_item_and_spares_its_neighbour(items, dying):
    """The label is the piece whose worker died, not the first piece
    submitted; the other worker and the piece it ran live on."""
    ex = SharedExecutor(max_workers=2, idle_timeout=0)
    try:
        before = set(ex.map_tasks(_pid, [0, 1], "process"))
        assert len(before) == 2
        with pytest.raises(ExecutorFailure) as err:
            ex.map_tasks(_crash_or_sleep, items, "process",
                         labels=[f"item {i}" for i in range(len(items))])
        assert err.value.label == dying
        after = set(ex.map_tasks(_pid, [0, 1], "process"))
        assert len(before & after) == 1, (before, after)
        assert ex.stats()["process_pool_starts"] == 1
    finally:
        ex.shutdown()


def test_concurrent_callers_share_the_process_pool():
    """Six threads — three calling ``run`` piece by piece, three
    ``map`` — on a pool of two workers all finish with their own
    results and no count lost: a call waits for a worker only while it
    holds none, so callers cannot deadlock one another."""
    pool = PipeWorkers(2)
    results, errors = {}, []

    def caller(k):
        items = list(range(10 * k, 10 * k + 5))
        try:
            if k % 2:
                results[k] = pool.map(_double, items, ["piece"] * 5,
                                      order=[4, 3, 2, 1, 0])
            else:
                results[k] = [pool.run(_double, x, "piece")[0]
                              for x in items]
        except Exception as exc:  # noqa: BLE001 — asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,), daemon=True)
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == {k: [2 * x for x in range(10 * k, 10 * k + 5)]
                           for k in range(6)}
        assert pool.counts["tasks_completed"] == 30
        assert pool.counts["starts"] == 2
    finally:
        sys.setswitchinterval(interval)
        pool.close()


def test_crash_in_one_item_of_many(executor):
    with pytest.raises(ExecutorFailure):
        executor.map_tasks(_crash_if_negative, [1, 2, -1, 3], "process",
                           labels=[f"item {i}" for i in range(4)])
    assert executor.map_tasks(_double, [1], "process") == [2]


def test_ordinary_task_exception_propagates_unwrapped(executor):
    """Task-raised exceptions are the caller's contract — they pass
    through unchanged and the pool stays healthy."""
    with pytest.raises(ValueError, match="bad item 7"):
        executor.map_tasks(_boom, [7], "process")
    with pytest.raises(ValueError, match="bad item 7"):
        executor.map_tasks(_boom, [7], "thread")
    stats = executor.stats()
    assert stats["process_pool_starts"] == 1
    assert executor.map_tasks(_double, [1], "process") == [2]


# -- the process-global instance -------------------------------------

def test_global_executor_is_shared_and_resettable():
    reset_shared_executor()
    assert shared_executor_stats() == {}
    ex = get_shared_executor()
    assert ex is get_shared_executor()
    ex.map_tasks(_double, [1], "thread")
    assert shared_executor_stats()["calls"] >= 1
    reset_shared_executor()
    assert shared_executor_stats() == {}


# -- RankMetrics.merge_shards (satellite 3) --------------------------

_metrics_strategy = st.builds(
    RankMetrics,
    compute_seconds=st.floats(0, 1e3, allow_nan=False),
    io_seconds=st.floats(0, 1e3, allow_nan=False),
    bytes_read=st.integers(0, 2**40),
    bytes_written=st.integers(0, 2**40),
    records=st.integers(0, 2**32),
    emitted=st.integers(0, 2**32),
)


@given(_metrics_strategy)
def test_merge_shards_of_one_is_identity(m):
    assert RankMetrics.merge_shards([m]) == m


@given(st.lists(_metrics_strategy, min_size=1, max_size=6),
       st.randoms())
def test_merge_shards_is_order_insensitive(shards, rng):
    shuffled = list(shards)
    rng.shuffle(shuffled)
    assert RankMetrics.merge_shards(shuffled) == \
        RankMetrics.merge_shards(shards)


@given(st.lists(_metrics_strategy, min_size=1, max_size=6))
def test_merge_shards_sums_counters_and_maxes_time(shards):
    merged = RankMetrics.merge_shards(shards)
    assert merged.records == sum(m.records for m in shards)
    assert merged.bytes_read == sum(m.bytes_read for m in shards)
    assert merged.bytes_written == sum(m.bytes_written for m in shards)
    assert merged.emitted == sum(m.emitted for m in shards)
    assert merged.compute_seconds == \
        max(m.compute_seconds for m in shards)
    assert merged.io_seconds == max(m.io_seconds for m in shards)


def test_merge_shards_rejects_empty():
    with pytest.raises(RuntimeLayerError):
        RankMetrics.merge_shards([])


# -- simulate_schedule -----------------------------------------------

def test_simulate_schedule_single_worker_is_sum():
    assert simulate_schedule([3, 1, 2], 1) == pytest.approx(6.0)


def test_simulate_schedule_enough_workers_is_max():
    assert simulate_schedule([3, 1, 2], 8) == pytest.approx(3.0)


def test_simulate_schedule_lpt_beats_arrival_order_on_skew():
    # One big item last: arrival order strands it after the small ones.
    costs = [1, 1, 1, 1, 8]
    lpt = simulate_schedule(costs, 2, longest_first=True)
    arrival = simulate_schedule(costs, 2, longest_first=False)
    assert lpt <= arrival
    assert lpt == pytest.approx(8.0)
    assert arrival == pytest.approx(10.0)


@given(st.lists(st.floats(0.01, 100, allow_nan=False), min_size=1,
                max_size=12),
       st.integers(1, 6))
def test_simulate_schedule_bounds(costs, workers):
    makespan = simulate_schedule(costs, workers)
    assert makespan >= max(costs) - 1e-9
    assert makespan <= sum(costs) + 1e-9
    # Graham's list-scheduling bound: sum/m + (1 - 1/m) * max.
    upper = sum(costs) / workers + \
        (1 - 1 / workers) * max(costs)
    assert makespan <= upper + 1e-9


def test_simulate_schedule_rejects_bad_workers():
    with pytest.raises(RuntimeLayerError):
        simulate_schedule([1.0], 0)


def test_simulate_schedule_empty_is_zero():
    assert simulate_schedule([], 4) == 0.0


def test_simulate_schedule_more_workers_than_tasks():
    # Each task gets its own worker; the makespan is the longest task.
    assert simulate_schedule([3.0, 1.0, 2.0], 8) == pytest.approx(3.0)


def test_simulate_schedule_zero_cost_tasks_are_legal():
    assert simulate_schedule([0.0, 0.0, 0.0], 2) == 0.0
    assert simulate_schedule([0.0, 5.0], 2) == pytest.approx(5.0)


def test_simulate_schedule_single_worker_is_total_work():
    costs = [0.5, 2.0, 1.25]
    assert simulate_schedule(costs, 1) == pytest.approx(sum(costs))


# -- friendly REPRO_EXECUTOR_WORKERS validation (satellite) ----------

def test_worker_env_non_integer_names_the_value(monkeypatch):
    from repro.runtime.executor import default_worker_count
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "lots")
    with pytest.raises(RuntimeLayerError,
                       match=r"REPRO_EXECUTOR_WORKERS value 'lots'"):
        default_worker_count()


def test_worker_env_non_positive_names_the_value(monkeypatch):
    from repro.runtime.executor import default_worker_count
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "0")
    with pytest.raises(RuntimeLayerError, match=r"'0'.*>= 1"):
        SharedExecutor(idle_timeout=0)


# -- friendly REPRO_EXECUTOR_IDLE_TIMEOUT validation -----------------

@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "1,5"])
def test_idle_timeout_env_non_numeric_names_the_value(monkeypatch, bad):
    monkeypatch.setenv("REPRO_EXECUTOR_IDLE_TIMEOUT", bad)
    with pytest.raises(
            RuntimeLayerError,
            match=rf"REPRO_EXECUTOR_IDLE_TIMEOUT value '{bad}'"):
        SharedExecutor(max_workers=1)


@pytest.mark.parametrize("value, seconds", [
    ("2.5", 2.5), ("0", 0.0), ("-1", -1.0), ("", 120.0)])
def test_idle_timeout_env_values(monkeypatch, value, seconds):
    """A number is taken as given; ``<= 0`` keeps meaning "no reaping"
    (no timer is armed); empty falls back to the default."""
    monkeypatch.setenv("REPRO_EXECUTOR_IDLE_TIMEOUT", value)
    ex = SharedExecutor(max_workers=1)
    try:
        assert ex.idle_timeout == seconds
        assert ex.map_tasks(_double, [2], "thread") == [4]
        assert (ex._timer is not None) == (seconds > 0)
    finally:
        ex.shutdown()
