"""One fold for every statistic: flagstat and the coverage histogram
read SAM, BAM and every store through the converters' sources, and equal
the record oracles at any rank count and executor."""

import numpy as np
import pytest

from repro.core.bam_converter import preprocess_bam
from repro.core.sort import parallel_sort_sam, sort_sam
from repro.defaults import DEFAULT_BATCH_SIZE
from repro.formats.bam import read_bam, write_bam
from repro.formats.sam import read_sam
from repro.simdata import build_sam_dataset
from repro.stats.histogram import histogram_from_records, histogram_parallel
from repro.tools.flagstat import flagstat_parallel, flagstat_records

#: A read on a reference missing from @SQ, and a mate there.
CHRZ = ("zr\t97\tchrZ\t100\t60\t4M\tchr1\t200\t0\tACGT\tIIII\n"
        "zm\t145\tchr1\t200\t60\t4M\tchrZ\t100\t0\tACGT\tIIII\n")
#: A tag the slab proof refuses: its slab takes the records path.
FLOAT = "ft\t0\tchr2\t50\t60\t4M\t*\t0\t0\tACGT\tIIII\tXX:f:1.5\n"

KINDS = ["sam", "sam_refused", "bam", "bam_slabs", "bamx", "bamz", "bamc"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``{kind: (path, records)}``: 40 simulated records on chr1/chr2 —
    the SAMs with the CHRZ lines (and FLOAT) appended, the stores
    preprocessed from the BAM in 7-record slabs, so slab boundaries fall
    inside a chromosome; ``bam_slabs`` the 40 records 250 times over,
    three slabs of a BAM."""
    root = tmp_path_factory.mktemp("fold")
    sam = root / "base.sam"
    wl = build_sam_dataset(sam, 20, [("chr1", 4000), ("chr2", 3000)],
                           seed=5)
    out = {}
    for kind, extra in (("sam", CHRZ), ("sam_refused", CHRZ + FLOAT)):
        path = root / f"{kind}.sam"
        path.write_text(sam.read_text() + extra)
        out[kind] = str(path), read_sam(path)[1]
    bam = str(root / "in.bam")
    write_bam(bam, wl.header, wl.records)
    out["bam"] = bam, read_bam(bam)[1]
    many = str(root / "many.bam")
    write_bam(many, wl.header, wl.records * 250)
    out["bam_slabs"] = many, read_bam(many)[1]
    for kind, store_format, compress in (("bamx", "bamx", False),
                                         ("bamz", "bamx", True),
                                         ("bamc", "bamc", False)):
        path = str(root / f"in.{kind}")
        preprocess_bam(bam, path, compress=compress, batch_size=7,
                       store_format=store_format)
        out[kind] = path, out["bam"][1]
    return out, wl.header


def _ranks(kind, nprocs, records):
    """A BAM is spooled into slabs of DEFAULT_BATCH_SIZE records, and a
    rank takes a run of whole slabs; a SAM or a store splits any way."""
    if kind in ("bam", "bam_slabs"):
        return min(nprocs, -(-len(records) // DEFAULT_BATCH_SIZE))
    return nprocs


@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 64])
@pytest.mark.parametrize("kind", KINDS)
def test_flagstat_equals_the_record_oracle(inputs, kind, nprocs, executor):
    (path, records), _ = inputs[0][kind], inputs[1]
    stats, metrics = flagstat_parallel(path, nprocs, executor)
    assert stats == flagstat_records(records)
    assert len(metrics) == _ranks(kind, nprocs, records)
    assert sum(m.records for m in metrics) == len(records)


@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 64])
@pytest.mark.parametrize("kind", KINDS)
def test_histogram_equals_the_record_oracle(inputs, kind, nprocs, executor):
    (path, records), header = inputs[0][kind], inputs[1]
    got, metrics = histogram_parallel(path, 25, nprocs, executor)
    want = histogram_from_records(records, header, 25)
    assert list(got) == list(want)
    for chrom in want:
        assert np.array_equal(got[chrom], want[chrom]), chrom
    assert len(metrics) == _ranks(kind, nprocs, records)


@pytest.mark.parametrize("tag", ["", "\tXX:f:1.5"])
def test_names_missing_from_sq(tmp_path, tag):
    """Through columns and through records alike: a mate on a reference
    missing from @SQ is on a different chr unless it is the read's own,
    and no histogram counts a read there."""
    path = tmp_path / "z.sam"
    path.write_text(
        "@SQ\tSN:chr1\tLN:1000\n"
        f"zr\t97\tchrZ\t100\t60\t4M\tchr1\t200\t0\tACGT\tIIII{tag}\n"
        "zz\t97\tchrZ\t100\t60\t4M\tchrZ\t300\t0\tACGT\tIIII\n"
        "zy\t97\tchrZ\t100\t60\t4M\tchrY\t300\t0\tACGT\tIIII\n"
        "r\t97\tchr1\t10\t60\t4M\t=\t300\t0\tACGT\tIIII\n")
    stats, _ = flagstat_parallel(path)
    assert stats == flagstat_records(read_sam(path)[1])
    assert stats.mate_on_different_chr == 2
    histos, _ = histogram_parallel(path, 1)
    assert list(histos) == ["chr1"] and histos["chr1"].sum() == 4


@pytest.mark.parametrize("nprocs", [1, 3])
def test_histogram_needs_sq_at_every_rank_count(tmp_path, nprocs):
    from repro.errors import ReproError
    path = tmp_path / "nosq.sam"
    path.write_text("r\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII\n" * 5)
    with pytest.raises(ReproError, match="@SQ reference dictionary"):
        histogram_parallel(path, 25, nprocs)


@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
@pytest.mark.parametrize("nprocs", [1, 2, 3])
def test_parallel_sort_is_byte_identical_to_sort_sam(tmp_path, nprocs,
                                                     executor):
    path = tmp_path / "u.sam"
    build_sam_dataset(path, 25, [("chr1", 4000), ("chr2", 3000)], seed=9,
                      sort=False)
    with open(path, "a") as fh:
        fh.write(FLOAT)
    seq = sort_sam(path, tmp_path / "seq.sam")
    par, _ = parallel_sort_sam(path, tmp_path / "par.sam", nprocs,
                               tmp_path / "w", executor)
    assert open(par.output, "rb").read() == open(seq.output, "rb").read()


def test_a_bam_fold_removes_its_spool(inputs, tmp_path, monkeypatch):
    """The spool of a folded BAM lives in a scratch directory that is
    gone after the fold, and after a fold that failed."""
    import tempfile

    from repro.errors import FormatError
    from repro.formats.bgzf import scan_blocks
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    path, records = inputs[0]["bam_slabs"]
    stats, _ = flagstat_parallel(path, 2, "thread")
    assert stats == flagstat_records(records)
    cut = tmp_path / "cut.bam"
    with open(path, "rb") as fh:    # whole blocks, the last record cut
        cut.write_bytes(fh.read()[:scan_blocks(path)[0][3]])
    with pytest.raises(FormatError):
        flagstat_parallel(cut, 2, "thread")
    assert list(scratch.iterdir()) == []
