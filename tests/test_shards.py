"""Byte-identity of the dynamic-shard schedule.

The acceptance contract for over-decomposition: for every converter and
every registered target, ``shards_per_rank > 1`` produces *exactly* the
bytes of the static single-shard run, on every executor.  The shard
reducer concatenates shard outputs in range order (only shard 0 writes
the header), so equality is checked per part file, not just in
aggregate.  A BAM part is compared inflated: shards cut its BGZF blocks
in other places, and the stream the blocks hold is the output.
"""

import gzip
import os

import pytest

from repro.core import (
    BamConverter,
    PreprocSamConverter,
    RecordFilter,
    SamConverter,
)
from repro.core.targets import get_target, target_names

EXECUTORS = ["simulate", "thread", "process"]


def read_parts(result):
    """``{basename: bytes}`` of a conversion result's output parts, a
    BAM part inflated — once it is checked to end in the one BGZF EOF
    marker it holds."""
    from repro.formats.bgzf import EOF_MARKER
    parts = {}
    for path in result.outputs:
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".bam"):
            assert data.endswith(EOF_MARKER), path
            assert data.count(EOF_MARKER) == 1, path
            data = gzip.decompress(data)
        parts[os.path.basename(path)] = data
    return parts


def read_tree(root):
    """``{name: bytes}`` of every file under *root*."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def assert_no_shard_leftovers(root):
    for _dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            assert ".shard" not in name and ".tail" not in name, \
                f"leftover shard temporary {name}"


# -- SamConverter: every target x every executor ---------------------

@pytest.mark.parametrize("target", target_names())
def test_sam_converter_sharded_identity_all_targets(sam_file, tmp_path,
                                                    target):
    static = SamConverter().convert(sam_file, target,
                                    tmp_path / "static", nprocs=3)
    for executor in EXECUTORS:
        sharded = SamConverter(shards_per_rank=4).convert(
            sam_file, target, tmp_path / f"dyn-{executor}", nprocs=3,
            executor=executor)
        assert read_parts(sharded) == read_parts(static), \
            f"{target} via {executor}"
        assert_no_shard_leftovers(tmp_path / f"dyn-{executor}")


def test_binary_targets_split_like_text(sam_file, tmp_path):
    """BGZF members concatenate, so a BAM spec splits like a text one:
    shard 0 alone writes the header block, and the reducer keeps the
    last part's EOF marker only."""
    from repro.core.base import PartSpec, plan_sources
    _, _, (cut,) = plan_sources(sam_file, 1)
    spec = PartSpec(cut, "bam", str(tmp_path / "x.bam"), RecordFilter())
    assert get_target("bam").mode == "binary"
    shards = spec.split(4)
    assert len(shards) == 4
    assert [s.write_header for s in shards] == [True, False, False, False]
    assert [s.out_path for s in shards] == [
        f"{spec.out_path}.shard{i:02d}" for i in range(4)]


@pytest.mark.parametrize("kind", ["sam", "range", "pick"])
def test_resplit_never_resurrects_the_header(sam_file, bam_file,
                                             tmp_path, kind):
    """Shard 0 of a headerless spec stays headerless, whichever kind
    of cut is split."""
    from dataclasses import replace

    import numpy as np

    from repro.core.bam_converter import StoreCut
    from repro.core.base import PartSpec, plan_sources
    if kind == "sam":
        _, _, (cut,) = plan_sources(sam_file, 1)
    else:
        bamx, _, _ = BamConverter().preprocess(bam_file, tmp_path / "w")
        cut = StoreCut(bamx, 0, 90) if kind == "range" \
            else StoreCut(bamx, picks=np.arange(90))
    spec = PartSpec(cut, "sam", str(tmp_path / "x.sam"))
    shards = spec.split(3)
    assert [s.write_header for s in shards] == [True, False, False]
    tails = replace(spec, write_header=False).split(3)
    assert len(tails) == 3
    assert not any(s.write_header for s in tails)


def test_sam_converter_sharded_with_filter(sam_file, tmp_path):
    f = RecordFilter(min_mapq=30, primary_only=True)
    static = SamConverter().convert(sam_file, "bed", tmp_path / "s",
                                    nprocs=2, record_filter=f)
    sharded = SamConverter(shards_per_rank=5).convert(
        sam_file, "bed", tmp_path / "d", nprocs=2, executor="process",
        record_filter=f)
    assert read_parts(sharded) == read_parts(static)


def test_shards_of_one_is_the_static_path(sam_file, tmp_path):
    one = SamConverter(shards_per_rank=1).convert(
        sam_file, "sam", tmp_path / "one", nprocs=2, executor="thread")
    base = SamConverter().convert(sam_file, "sam", tmp_path / "base",
                                  nprocs=2)
    assert read_parts(one) == read_parts(base)


# -- BamConverter: full convert + region picks -----------------------

@pytest.mark.parametrize("executor", EXECUTORS)
def test_bam_converter_sharded_identity(bam_file, tmp_path, executor):
    converter = BamConverter()
    bamx, baix, _ = converter.preprocess(bam_file, tmp_path / "w")
    static = converter.convert(bamx, "sam", tmp_path / "static",
                               nprocs=3)
    sharded = BamConverter(shards_per_rank=4).convert(
        bamx, "sam", tmp_path / f"dyn-{executor}", nprocs=3,
        executor=executor)
    assert read_parts(sharded) == read_parts(static)
    assert_no_shard_leftovers(tmp_path / f"dyn-{executor}")


@pytest.mark.parametrize("executor", EXECUTORS)
def test_bam_region_sharded_identity(bam_file, tmp_path, executor):
    converter = BamConverter()
    bamx, baix, _ = converter.preprocess(bam_file, tmp_path / "w")
    static = converter.convert_region(bamx, baix, "chr1:1-40000",
                                      "sam", tmp_path / "static",
                                      nprocs=2)
    sharded = BamConverter(shards_per_rank=3).convert_region(
        bamx, baix, "chr1:1-40000", "sam",
        tmp_path / f"dyn-{executor}", nprocs=2, executor=executor)
    assert read_parts(sharded) == read_parts(static)
    assert_no_shard_leftovers(tmp_path / f"dyn-{executor}")


@pytest.mark.parametrize("target", ["bed", "json"])
def test_bam_converter_sharded_other_targets(bam_file, tmp_path,
                                             target):
    converter = BamConverter()
    bamx, _baix, _ = converter.preprocess(bam_file, tmp_path / "w")
    static = converter.convert(bamx, target, tmp_path / "static",
                               nprocs=2)
    sharded = BamConverter(shards_per_rank=4).convert(
        bamx, target, tmp_path / "dyn", nprocs=2, executor="process")
    assert read_parts(sharded) == read_parts(static)


# -- PreprocSamConverter: BAMX store + indexes -----------------------

@pytest.mark.parametrize("executor", EXECUTORS)
def test_preprocess_sharded_identity(sam_file, tmp_path, executor):
    _, static_metrics = PreprocSamConverter().preprocess(
        sam_file, tmp_path / "static", nprocs=2)
    _, sharded_metrics = PreprocSamConverter(
        shards_per_rank=4).preprocess(
        sam_file, tmp_path / f"dyn-{executor}", nprocs=2,
        executor=executor)
    assert read_tree(tmp_path / f"dyn-{executor}") == \
        read_tree(tmp_path / "static")
    assert [m.records for m in sharded_metrics] == \
        [m.records for m in static_metrics]


def test_preprocess_then_convert_sharded_end_to_end(sam_file, tmp_path):
    static = PreprocSamConverter().convert_end_to_end(
        sam_file, "bed", tmp_path / "sw", tmp_path / "static",
        preprocess_procs=2, convert_procs=2)
    sharded = PreprocSamConverter(shards_per_rank=3).convert_end_to_end(
        sam_file, "bed", tmp_path / "dw", tmp_path / "dyn",
        preprocess_procs=2, convert_procs=2, executor="process")
    assert read_parts(sharded) == read_parts(static)


# -- metrics fold ----------------------------------------------------

def test_sharded_metrics_conserve_record_counts(sam_file, tmp_path):
    """Per-rank metrics of a sharded run must fold back to the static
    run's counters (records/emitted/bytes_read are sums over shards)."""
    static = SamConverter().convert(sam_file, "bed", tmp_path / "s",
                                    nprocs=3)
    sharded = SamConverter(shards_per_rank=4).convert(
        sam_file, "bed", tmp_path / "d", nprocs=3, executor="thread")
    assert len(sharded.rank_metrics) == len(static.rank_metrics)
    for dyn, stat in zip(sharded.rank_metrics, static.rank_metrics):
        assert dyn.records == stat.records
        assert dyn.emitted == stat.emitted
        assert dyn.bytes_read == stat.bytes_read
    assert sharded.records == static.records
    assert sharded.emitted == static.emitted


# -- One dispatch per call -------------------------------------------

@pytest.mark.parametrize("tuned", [False, True], ids=["plain", "tuned"])
@pytest.mark.parametrize("executor", ["thread", "process"])
def test_one_map_tasks_call_of_ranks_times_shards_items(
        sam_file, tmp_path, monkeypatch, executor, tuned):
    """A sharded call is one ``map_tasks`` over ranks x shards pieces —
    with or without a tuner watching — and shards are numbered by plain
    integers, in labels and spans alike."""
    from repro.runtime.autotune import AutoTuner, CostModel
    from repro.runtime.executor import SharedExecutor
    from repro.runtime.tracing import Tracer, install

    calls = []
    real = SharedExecutor.map_tasks

    def counting(self, fn, items, kind, **kwargs):
        calls.append((kind, len(items), kwargs["labels"]))
        return real(self, fn, items, kind, **kwargs)

    monkeypatch.setattr(SharedExecutor, "map_tasks", counting)
    tuner = AutoTuner(CostModel(tmp_path / "m.json")) if tuned else None
    tracer = Tracer(enabled=True)
    prev = install(tracer)
    try:
        SamConverter(shards_per_rank=3, tuner=tuner).convert(
            sam_file, "bed", tmp_path / "out", nprocs=2,
            executor=executor)
    finally:
        install(prev)
    assert calls == [(executor, 6, [f"rank {rank} shard {shard}"
                                    for rank in range(2)
                                    for shard in range(3)])]
    shards = [(s.rank, s.args["shard"]) for s in tracer.spans()
              if s.name == "shard"]
    assert sorted(shards) == [(rank, shard) for rank in range(2)
                              for shard in range(3)]
    assert all(type(shard) is int for _, shard in shards)


# -- CLI and service surfaces ----------------------------------------

def test_cli_shards_flag_byte_identical(sam_file, tmp_path, capsys):
    from repro.cli import main
    assert main(["convert", str(sam_file), "--target", "bed",
                 "--out-dir", str(tmp_path / "static"),
                 "--nprocs", "2"]) == 0
    assert main(["convert", str(sam_file), "--target", "bed",
                 "--out-dir", str(tmp_path / "dyn"), "--nprocs", "2",
                 "--shards", "4", "--executor", "thread"]) == 0
    capsys.readouterr()
    static = {p: open(os.path.join(tmp_path / "static", p), "rb").read()
              for p in sorted(os.listdir(tmp_path / "static"))}
    dyn = {p: open(os.path.join(tmp_path / "dyn", p), "rb").read()
           for p in sorted(os.listdir(tmp_path / "dyn"))}
    assert dyn == static


def test_service_job_with_shards_param(sam_file, tmp_path):
    from repro.runtime.executor import reset_shared_executor
    from repro.service.server import ConversionService
    reset_shared_executor()
    service = ConversionService(tmp_path / "svc", workers=1)
    try:
        static = service.submit("convert", {
            "input": str(sam_file), "target": "bed",
            "out_dir": str(tmp_path / "static"), "nprocs": 2})
        dynamic = service.submit("convert", {
            "input": str(sam_file), "target": "bed",
            "out_dir": str(tmp_path / "dyn"), "nprocs": 2,
            "shards": 4, "executor": "thread"})
        assert service.pool.wait_all(timeout=60)
        static_job = service.pool.get(static.job_id)
        dynamic_job = service.pool.get(dynamic.job_id)
        assert static_job.state.value == "done", static_job.error
        assert dynamic_job.state.value == "done", dynamic_job.error

        def job_bytes(job):
            return {os.path.basename(p): open(p, "rb").read()
                    for p in job.result["outputs"]}
        assert job_bytes(dynamic_job) == job_bytes(static_job)
        # Both bodies ran in the service's body workers.
        gauges = service.metrics.snapshot()["gauges"]
        assert gauges["body_worker_tasks_completed"] == 2
    finally:
        service.close()
        reset_shared_executor()


# -- Columnar stores: shards x kernels x the v1 reference ------------

@pytest.mark.parametrize("target", ["bed", "sam"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_bamc_sharded_identity_vs_bamx(bam_file, tmp_path, executor,
                                       target):
    """Sharded columnar conversion == static row-store conversion.

    ``bed`` exercises the vectorized kernel emitters; ``sam`` has no
    kernel, so every columnar slab takes the record-driver fallback —
    both must reproduce the v1 bytes under over-decomposition.
    """
    row = BamConverter()
    bamx, _, _ = row.preprocess(bam_file, tmp_path / "wx")
    static = row.convert(bamx, target, tmp_path / "static", nprocs=3)
    col = BamConverter(shards_per_rank=4, store_format="bamc")
    bamc, _, _ = col.preprocess(bam_file, tmp_path / "wc")
    sharded = col.convert(bamc, target, tmp_path / f"dyn-{executor}",
                          nprocs=3, executor=executor)
    assert read_parts(sharded) == read_parts(static)
    assert_no_shard_leftovers(tmp_path / f"dyn-{executor}")


@pytest.mark.parametrize("target", ["bed", "sam"])
def test_bamc_region_sharded_identity_vs_bamx(bam_file, tmp_path,
                                              target):
    row = BamConverter()
    bamx, baix, _ = row.preprocess(bam_file, tmp_path / "wx")
    static = row.convert_region(bamx, baix, "chr1:1-40000", target,
                                tmp_path / "static", nprocs=2)
    col = BamConverter(shards_per_rank=3, store_format="bamc")
    bamc, cbaix, _ = col.preprocess(bam_file, tmp_path / "wc")
    sharded = col.convert_region(bamc, cbaix, "chr1:1-40000", target,
                                 tmp_path / "dyn", nprocs=2,
                                 executor="process")
    assert read_parts(sharded) == read_parts(static)
    assert_no_shard_leftovers(tmp_path / "dyn")


def test_bamc_sharded_with_filter(bam_file, tmp_path):
    f = RecordFilter(min_mapq=30, primary_only=True)
    row = BamConverter()
    bamx, _, _ = row.preprocess(bam_file, tmp_path / "wx")
    static = row.convert(bamx, "fastq", tmp_path / "s", nprocs=2,
                         record_filter=f)
    col = BamConverter(shards_per_rank=5, store_format="bamc")
    bamc, _, _ = col.preprocess(bam_file, tmp_path / "wc")
    sharded = col.convert(bamc, "fastq", tmp_path / "d", nprocs=2,
                          executor="process", record_filter=f)
    assert read_parts(sharded) == read_parts(static)


def test_preproc_sam_converter_bamc_parts(sam_file, tmp_path):
    """PreprocSamConverter writes .bamc rank parts and its end-to-end
    conversion matches the row-store run byte for byte."""
    row = PreprocSamConverter()
    col = PreprocSamConverter(store_format="bamc")
    row_paths, _ = row.preprocess(sam_file, tmp_path / "wx", nprocs=2)
    col_paths, _ = col.preprocess(sam_file, tmp_path / "wc", nprocs=2)
    assert all(p.endswith(".bamx") for p in row_paths)
    assert all(p.endswith(".bamc") for p in col_paths)
    static = row.convert(row_paths, "bedgraph", tmp_path / "s",
                         nprocs=2)
    columnar = col.convert(col_paths, "bedgraph", tmp_path / "d",
                           nprocs=2)
    assert read_parts(columnar) == read_parts(static)


# -- A dispatched shard runs to completion, slow or not --------------

@pytest.mark.parametrize("target", target_names())
def test_delayed_shards_with_tuner_identity_all_targets(sam_file,
                                                        tmp_path, target):
    """With an injected per-batch delay, a tuner attached and three
    shards per rank, every shard still runs to completion where it was
    dispatched: the bytes equal the static single-shard run for every
    registered target (a BAM's inflated) and no ``.shardNN``/``.tail``
    file survives."""
    from repro.runtime import faults
    from repro.runtime.autotune import AutoTuner, CostModel

    static = SamConverter().convert(sam_file, target,
                                    tmp_path / "static", nprocs=2)
    faults.arm("shard.batch:delay")
    try:
        for executor in ("simulate", "thread"):
            tuner = AutoTuner(CostModel(tmp_path / f"m-{executor}.json"))
            slow = SamConverter(
                shards_per_rank=3, batch_size=32, tuner=tuner).convert(
                sam_file, target, tmp_path / f"slow-{executor}", nprocs=2,
                executor=executor)
            assert read_parts(slow) == read_parts(static), \
                f"{target} via {executor}"
            assert_no_shard_leftovers(tmp_path / f"slow-{executor}")
    finally:
        faults.disarm()


def test_auto_shards_identity_vs_static(sam_file, tmp_path):
    """`--shards auto` (cold, then warm from the persisted model) must
    match the static bytes on the same workload."""
    from repro.runtime.autotune import AutoTuner, CostModel

    static = SamConverter().convert(sam_file, "bed", tmp_path / "static",
                                    nprocs=3)
    model_path = tmp_path / "model.json"
    for run, executor in (("cold", "simulate"), ("warm", "thread"),
                          ("warm2", "process")):
        auto = SamConverter(
            shards_per_rank="auto",
            tuner=AutoTuner(CostModel(model_path), workers=3)).convert(
            sam_file, "bed", tmp_path / run, nprocs=3,
            executor=executor)
        assert read_parts(auto) == read_parts(static), run
        assert_no_shard_leftovers(tmp_path / run)


# -- One runner / one chunk loop: equivalence over the folded paths --

#: Span names whose shape `repro status --trace` and
#: docs/observability.md show users.
_SHAPE_SPANS = ("rank", "shard", "write", "batch.pipeline", "autotune")

#: ``(source, schedule) -> [(name, category, arg keys,
#: has-parent, count)]``, captured at the commit before the twins were
#: folded (d5ff596); executor and tracer-on/off must not change it.
GOLDEN_SPANS = {
    ("sam", "static"): [
        ("batch.pipeline", "sam",
         "batch_size,batches,fallbacks,kernel,records,target",
         True, 2),
        ("convert", "sam", "input,nprocs,target", False, 1),
        ("rank", "rank", "task", True, 2),
    ],
    ("sam", "shards3"): [
        ("batch.pipeline", "sam",
         "batch_size,batches,fallbacks,kernel,records,target",
         True, 6),
        ("convert", "sam", "input,nprocs,target", False, 1),
        ("shard", "rank", "rank,shard,task", True, 6),
    ],
    ("bamx", "static"): [
        ("batch.pipeline", "bam",
         "batch_size,batches,fallbacks,kernel,records,target",
         True, 2),
        ("convert", "bam", "nprocs,store,target", False, 1),
        ("rank", "rank", "task", True, 2),
        ("write", "io", "out", True, 2),
    ],
    ("bamx", "shards3"): [
        ("batch.pipeline", "bam",
         "batch_size,batches,fallbacks,kernel,records,target",
         True, 6),
        ("convert", "bam", "nprocs,store,target", False, 1),
        ("shard", "rank", "rank,shard,task", True, 6),
        ("write", "io", "out", True, 6),
    ],
    ("bamc", "static"): [
        ("batch.pipeline", "bam",
         "batch_size,batches,fallbacks,kernel,records,target",
         True, 2),
        ("convert", "bam", "nprocs,store,target", False, 1),
        ("rank", "rank", "task", True, 2),
        ("write", "io", "out", True, 2),
    ],
    ("bamc", "shards3"): [
        ("batch.pipeline", "bam",
         "batch_size,batches,fallbacks,kernel,records,target",
         True, 6),
        ("convert", "bam", "nprocs,store,target", False, 1),
        ("shard", "rank", "rank,shard,task", True, 6),
        ("write", "io", "out", True, 6),
    ],
}


def span_shape(tracer):
    """Sorted multiset of the user-visible span shapes of a traced run."""
    counts = {}
    for s in tracer.spans():
        if s.name in _SHAPE_SPANS or s.name.startswith("convert"):
            key = (s.name, s.category, ",".join(sorted(s.args)),
                   s.parent_id is not None)
            counts[key] = counts.get(key, 0) + 1
    return sorted(key + (n,) for key, n in counts.items())


@pytest.fixture(scope="module")
def fold_sources(sam_file, bam_file, tmp_path_factory):
    """SAM / BAMX / BAMC inputs plus their record-pipeline oracles."""
    work = tmp_path_factory.mktemp("fold")
    bamx, _, _ = BamConverter().preprocess(bam_file, work / "wx")
    bamc, _, _ = BamConverter(store_format="bamc").preprocess(
        bam_file, work / "wc")
    sources = {"sam": (SamConverter, sam_file),
               "bamx": (BamConverter, bamx),
               "bamc": (BamConverter, bamc)}
    oracles = {}
    for name, (cls, path) in sources.items():
        for target in ("bed", "json"):
            result = cls(pipeline="record").convert(
                path, target, work / f"oracle-{name}-{target}", nprocs=1)
            oracles[name, target] = open(result.outputs[0], "rb").read()
    return sources, oracles


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("target", ["bed", "json"])
@pytest.mark.parametrize("schedule", ["static", "shards3"])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("source", ["sam", "bamx", "bamc"])
def test_folded_paths_match_record_oracle_and_span_shape(
        fold_sources, tmp_path, source, executor, schedule, target,
        traced):
    """Every executor x schedule x tracer x source combination runs the
    same task runner and chunk loop: bytes equal the record-pipeline
    single-rank oracle, and a traced run shows the golden span shape."""
    from repro.runtime.tracing import Tracer, install

    sources, oracles = fold_sources
    cls, path = sources[source]
    knobs = {} if schedule == "static" else {"shards_per_rank": 3}
    tracer = Tracer(enabled=traced)
    prev = install(tracer)
    try:
        result = cls(**knobs).convert(path, target, tmp_path / "out",
                                      nprocs=2, executor=executor)
    finally:
        install(prev)
    produced = b"".join(open(p, "rb").read() for p in result.outputs)
    assert produced == oracles[source, target]
    assert_no_shard_leftovers(tmp_path / "out")
    if traced:
        assert span_shape(tracer) == GOLDEN_SPANS[source, schedule]
    else:
        assert tracer.spans() == []
