"""A part file and a joined output are published once: written under a
temporary name, moved into place only once complete, and removed when
the rank or the join fails — so no failed run leaves a final-named file
that looks whole."""

import os

import pytest

from repro.core import BamConverter, SamConverter
from repro.core.bam_converter import convert_bam_direct
from repro.errors import FaultInjectedError, FormatError, SamFormatError
from repro.formats.bam import write_bam
from repro.formats.bgzf import scan_blocks
from repro.runtime import faults


@pytest.fixture()
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.mark.parametrize("target", ["sam", "bam"])
def test_a_failed_rank_leaves_no_final_named_part(tmp_path, workload,
                                                  target):
    """A BAM cut at a BGZF block boundary inside a record: the direct
    conversion converts the whole blocks before it, then fails — and
    leaves no output under the final name, nor its temporary."""
    _, header, records = workload
    whole = tmp_path / "whole.bam"
    write_bam(whole, header, records * 10)
    starts, _ = scan_blocks(whole)
    assert len(starts) > 6
    cut = tmp_path / "cut.bam"
    cut.write_bytes(whole.read_bytes()[:starts[4]])
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(FormatError):
        convert_bam_direct(cut, target, out / f"out.{target}")
    assert os.listdir(out) == []


def test_a_failed_rank_of_many_publishes_only_the_good_parts(tmp_path,
                                                             sam_file):
    """Rank 1 meets a line cut to ten columns: rank 0's part is whole
    and published, rank 1 leaves nothing."""
    bad = tmp_path / "bad.sam"
    with open(sam_file, encoding="ascii") as fh:
        text = fh.read()
    bad.write_text(text + "r\t0\tchr1\t5\t60\t4M\t*\t0\t0\tACGT\n")
    with pytest.raises(SamFormatError):
        SamConverter().convert(bad, "bed", tmp_path / "out", nprocs=2)
    assert os.listdir(tmp_path / "out") == ["bad.part0000.bed"]


def test_a_rank_killed_mid_write_leaves_only_a_temporary(tmp_path,
                                                        sam_file, disarmed):
    """A pool process that dies the way SIGKILL would while its rank
    writes runs no cleanup: what it leaves must not carry the part's
    final name."""
    from repro.runtime.executor import ExecutorFailure, \
        reset_shared_executor
    faults.arm("shard.batch:crash")
    reset_shared_executor()     # fork the pool's workers armed
    try:
        with pytest.raises(ExecutorFailure):
            SamConverter().convert(sam_file, "bed", tmp_path / "out",
                                   nprocs=2, executor="process")
    finally:
        faults.disarm()
        reset_shared_executor()
    assert not [name for name in os.listdir(tmp_path / "out")
                if name.endswith(".bed")]


@pytest.mark.parametrize("source", ["sam", "store"])
@pytest.mark.parametrize("target", ["sam", "bam"])
def test_a_failed_join_publishes_nothing(tmp_path, sam_file, bam_file,
                                         disarmed, source, target):
    """``merge.copy`` armed at p=1.0 fails the shard join of a sharded
    text and BAM conversion: no final-named output, no ``.shardNN``
    part and no temporary is left — a BGZF join that lost its tail
    would still inflate."""
    if source == "sam":
        convert = SamConverter(shards_per_rank=3).convert
        path = sam_file
    else:
        path, _, _ = BamConverter().preprocess(bam_file, tmp_path / "w")
        convert = BamConverter(shards_per_rank=3).convert
    faults.arm("merge.copy:exception")
    with pytest.raises(FaultInjectedError, match="merge.copy"):
        convert(path, target, tmp_path / "out", nprocs=1)
    assert os.listdir(tmp_path / "out") == []
    faults.disarm()
    result = convert(path, target, tmp_path / "out", nprocs=1)
    assert os.listdir(tmp_path / "out") == [
        os.path.basename(p) for p in result.outputs]


@pytest.mark.parametrize("kind", ["exception", "partial-write"])
@pytest.mark.parametrize("target", ["sam", "bam"])
def test_a_failed_part_write_publishes_nothing(tmp_path, sam_file,
                                               disarmed, kind, target):
    """``output.write`` armed at p=1.0 fails a part file at its publish
    — raised there, or a short write that cut the file first: no
    final-named part and no temporary is left, and the next run
    publishes every part."""
    faults.arm(f"output.write:{kind}")
    with pytest.raises(FaultInjectedError, match="output.write"):
        SamConverter().convert(sam_file, target, tmp_path / "out",
                               nprocs=2)
    assert faults.snapshot()["output.write"]["fires"] == 1
    assert os.listdir(tmp_path / "out") == []
    faults.disarm()
    result = SamConverter().convert(sam_file, target, tmp_path / "out",
                                    nprocs=2)
    assert sorted(os.listdir(tmp_path / "out")) == [
        os.path.basename(p) for p in result.outputs]


def _publish_cells():
    """``(point, cell)``: every call that joins shard parts (fires
    ``shard.done``) or publishes a store (``store.publish``)."""
    from repro.core import PreprocSamConverter
    from repro.core.sort import sort_file

    def sort(key):
        return lambda p, out: sort_file(p[key], out / "s.bam", 2,
                                        work_dir=out / "w", chunk_records=50)

    def cold(p, out):       # what `repro convert x.bam --work-dir W` runs
        converter = BamConverter()
        store = converter.ensure_preprocessed(p["bam"], out / "w")[0]
        converter.convert(store.store_path, "bed", out / "o")
    return {
        ("shard.done", "convert-sam"): lambda p, out: SamConverter(
            shards_per_rank=3).convert(p["sam"], "bed", out),
        ("shard.done", "convert-store-bam"): lambda p, out: BamConverter(
            shards_per_rank=3).convert(p["bamx"], "bam", out),
        ("shard.done", "sort-sam"): sort("sam"),
        ("shard.done", "sort-bam"): sort("bam"),
        ("shard.done", "sort-store"): sort("bamc"),
        ("store.publish", "preprocess-bam"): lambda p, out: BamConverter()
        .preprocess(p["bam"], out, nprocs=2),
        ("store.publish", "preprocess-bam-bamc"): lambda p, out: BamConverter(
            store_format="bamc").preprocess(p["bam"], out),
        ("store.publish", "preprocess-bam-bamz"): lambda p, out: BamConverter()
        .preprocess(p["bam"], out, compress=True),
        ("store.publish", "preprocess-sam"): lambda p, out:
        PreprocSamConverter().preprocess(p["sam"], out, nprocs=2),
        ("store.publish", "convert-bam-cold"): cold,
    }


@pytest.mark.parametrize("point, cell", list(_publish_cells()))
def test_a_failed_shard_join_or_store_publish_leaves_nothing(
        tmp_path, sam_file, bam_file, disarmed, point, cell):
    """``shard.done`` (a complete shard part, before its join) and
    ``store.publish`` (a written store, before its moves) armed as
    ``exception``: the call fails, and no output, store or sidecar —
    final-named or not — is left under its directory."""
    paths = {"sam": sam_file, "bam": bam_file,
             "bamc": BamConverter(store_format="bamc").preprocess(
                 bam_file, tmp_path / "in")[0],
             "bamx": BamConverter().preprocess(bam_file, tmp_path / "in")[0]}
    out = tmp_path / "out"
    out.mkdir()
    faults.arm(f"{point}:exception")
    with pytest.raises(FaultInjectedError):
        _publish_cells()[point, cell](paths, out)
    assert faults.snapshot()[point]["fires"] >= 1
    faults.disarm()
    assert [name for _, _, names in os.walk(out) for name in names] == []
