"""Robustness tests for the rank executors: pickling of every spec
shape, failing rank tasks, and cross-backend equivalence with the
newest features (filters, BAMZ, overlap mode)."""

import os
import pickle

import numpy as np
import pytest

from repro.core import BamConverter, RecordFilter, SamConverter


def cat(result):
    return b"".join(open(p, "rb").read() for p in result.outputs)


def test_all_rank_specs_are_picklable(sam_file, bam_file, tmp_path):
    """Every rank spec — a PartSpec over each kind of cut — must
    survive pickling (process executor)."""
    from repro.core.bam_converter import StoreCut
    from repro.core.base import PartSpec
    from repro.core.sam_converter import SamCut
    f = RecordFilter(min_mapq=30, primary_only=True)
    specs = [
        PartSpec(SamCut(sam_file, 0, 10, "", 4096), "bed", "/tmp/x.bed", f),
        PartSpec(StoreCut("x.bamx", 0, 5), "sam", "/tmp/x.sam", f),
        PartSpec(SamCut(sam_file, 0, 10, "", 4096), "bamx", "/tmp/x.bamx"),
    ]
    for spec in specs:
        assert pickle.loads(pickle.dumps(spec)) == spec
    picks = PartSpec(StoreCut("x.bamx", picks=np.array([1, 2, 3])), "sam",
                     "/tmp/x.sam", f)
    back = pickle.loads(pickle.dumps(picks))
    assert back.open.picks.tolist() == [1, 2, 3]
    assert back.open.picks.dtype == picks.open.picks.dtype
    assert (back.target, back.out_path, back.record_filter) == \
        (picks.target, picks.out_path, f)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_filtered_conversion_across_executors(sam_file, tmp_path,
                                              executor):
    f = RecordFilter(min_mapq=40)
    sim = SamConverter().convert(sam_file, "bed", tmp_path / "sim",
                                 nprocs=3, record_filter=f)
    other = SamConverter().convert(sam_file, "bed", tmp_path / executor,
                                   nprocs=3, executor=executor,
                                   record_filter=f)
    assert cat(sim) == cat(other)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_bamz_region_across_executors(bam_file, tmp_path, executor):
    converter = BamConverter()
    bamz, baix, _ = converter.preprocess(bam_file, tmp_path / "w",
                                         compress=True)
    sim = converter.convert_region(bamz, baix, "chr1:1-30000", "sam",
                                   tmp_path / "sim", nprocs=2)
    other = converter.convert_region(bamz, baix, "chr1:1-30000", "sam",
                                     tmp_path / executor, nprocs=2,
                                     executor=executor)
    assert cat(sim) == cat(other)


@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
def test_failing_stats_rank_raises_and_pool_serves_next_call(executor):
    """A rank task that raises propagates its error out of
    execute_rank_tasks on every executor, and the shared pool runs the
    next (healthy) call."""
    from dataclasses import replace

    from repro.core.base import execute_rank_tasks
    from repro.errors import ReproError
    from repro.stats.fdr import FdrRankSpec, fdr_parallel, \
        fdr_rank_work, fdr_vectorized
    from repro.stats.nlmeans import nlmeans
    from repro.stats.nlmeans_parallel import NlmeansRankSpec, \
        halo_partition, nlmeans_parallel, nlmeans_rank_work
    values = np.arange(40, dtype=float)
    specs = [NlmeansRankSpec(*part, 2, 1, 1.0)
             for part in halo_partition(values, 3, 3)]
    # Rank 1 lost its halo: the kernel refuses the partition.
    specs[1] = replace(specs[1], enlarged=specs[1].enlarged[:4])
    with pytest.raises(ReproError, match="context"):
        execute_rank_tasks(nlmeans_rank_work, specs, executor)
    par, _ = nlmeans_parallel(values, 3, 2, 1, 1.0, executor=executor)
    assert np.array_equal(par, nlmeans(values, 2, 1, 1.0))

    sims = np.arange(120, dtype=float).reshape(3, 40) % 7
    bad = [FdrRankSpec(values[:20], sims[:, :20], 1.0, "quadratic"),
           FdrRankSpec(values[20:], sims[:, 25:], 1.0, "quadratic")]
    with pytest.raises(ValueError):     # 20 bins against 15 columns
        execute_rank_tasks(fdr_rank_work, bad, executor)
    par, _ = fdr_parallel(values, sims, 1.0, 2, executor=executor)
    assert par == fdr_vectorized(values, sims, 1.0)


# -- shard-level robustness (dynamic-shard schedule) -----------------

def _shard_crash(_item):
    os._exit(3)


def test_worker_crash_mid_shard_names_the_shard():
    """A worker dying inside one shard must surface as an
    ExecutorFailure naming that shard, and the shared pool must
    survive to serve the next call."""
    from repro.runtime.executor import ExecutorFailure, SharedExecutor
    ex = SharedExecutor(max_workers=2, idle_timeout=0)
    try:
        with pytest.raises(ExecutorFailure) as err:
            ex.map_tasks(_shard_crash, [0], "process",
                         labels=["rank 1 shard 3"])
        assert "rank 1 shard 3" in str(err.value)
        # The next call runs on the same pool: one worker re-forked.
        assert ex.map_tasks(len, [[1, 2]], "process") == [2]
        assert ex.stats()["process_pool_starts"] == 1
        assert ex._process_pool.counts["starts"] == 3
    finally:
        ex.shutdown()


def test_conversion_survives_prior_pool_crash(sam_file, tmp_path):
    """A crash in one job must not poison later conversions that use
    the process-global pool."""
    from repro.runtime.executor import (
        ExecutorFailure,
        get_shared_executor,
        reset_shared_executor,
    )
    reset_shared_executor()
    try:
        with pytest.raises(ExecutorFailure):
            get_shared_executor().map_tasks(_shard_crash, [0], "process")
        sim = SamConverter().convert(sam_file, "bed", tmp_path / "sim",
                                     nprocs=2)
        after = SamConverter(shards_per_rank=3).convert(
            sam_file, "bed", tmp_path / "after", nprocs=2,
            executor="process")
        assert cat(sim) == cat(after)
    finally:
        reset_shared_executor()


def test_sharded_specs_are_picklable(sam_file, tmp_path):
    """split() products (with their write_header field) must survive
    pickling just like their parent rank specs; a preprocessing spec
    (a store-format target) does not split."""
    from repro.core.base import PartSpec, plan_sources
    _, _, (cut,) = plan_sources(sam_file, 1)
    sam_spec = PartSpec(cut, "bed", str(tmp_path / "x.bed"), RecordFilter())
    pre_spec = PartSpec(cut, "bamx", str(tmp_path / "x.bamx"))
    for spec in (*sam_spec.split(3), pre_spec):
        assert pickle.loads(pickle.dumps(spec)) == spec
    shards = sam_spec.split(3)
    assert len(shards) > 1
    assert shards[0].write_header and not shards[1].write_header
    assert pre_spec.split(3) == [pre_spec]


def pid_alive(pid: int) -> bool:
    """Whether *pid* is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_pool_workers_do_not_outlive_their_parent():
    """A parent that dies the way SIGKILL kills it (no shutdown, no
    atexit) must not leave its warm pool workers behind: they notice
    the changed parent pid and exit, here within 3 s."""
    import subprocess
    import sys
    import time

    import repro
    code = ("import os\n"
            "from repro.runtime.executor import get_shared_executor\n"
            "def pid(_):\n"
            "    return os.getpid()\n"
            "pids = get_shared_executor().map_tasks(pid, range(8), 'process')\n"
            "print(*sorted(set(pids)), flush=True)\n"
            "os._exit(0)\n")
    env = dict(os.environ, REPRO_EXECUTOR_WORKERS="2",
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    pids = [int(word) for word in done.stdout.split()]
    assert pids and os.getpid() not in pids
    deadline = time.monotonic() + 3.0
    while any(map(pid_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(pid_alive, pids)), pids


def test_body_workers_do_not_outlive_repro_serve(tmp_path):
    """The orphan rule for the service: once a ``repro serve`` daemon is
    SIGKILLed, its body workers (the children it forked at start-up,
    one per ``--workers``) notice and exit, here within 3 s."""
    import signal
    import subprocess
    import sys
    import time

    import repro
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--listen",
         "127.0.0.1:0", "--work-dir", str(tmp_path / "svc"),
         "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    try:
        assert "listening" in proc.stdout.readline()

        def children() -> list[int]:
            pids = []
            for name in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{name}/stat") as fh:
                        fields = fh.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == proc.pid:
                    pids.append(int(name))
            return pids

        pids = children()
        assert len(pids) == 2
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(30)
        proc.stdout.close()
    deadline = time.monotonic() + 3.0
    while any(map(pid_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(pid_alive, pids)), pids
