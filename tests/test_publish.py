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
