"""Tests for the external coordinate sort (samtools-sort substitute)."""

import gzip
import os

import pytest

from repro.core import EXECUTORS
from repro.core.sort import parallel_sort_sam, sort_bam, sort_file, \
    sort_key, sort_sam
from repro.errors import ConversionError
from repro.formats.bam import read_bam, write_bam
from repro.formats.bgzf import EOF_MARKER
from repro.formats.sam import read_sam, write_sam


def is_sorted(records, header):
    keys = [sort_key(r, header) for r in records]
    return keys == sorted(keys)


@pytest.fixture(scope="module")
def unsorted_sam(unsorted_workload, tmp_path_factory):
    _, header, records = unsorted_workload
    path = tmp_path_factory.mktemp("sort") / "u.sam"
    write_sam(path, header, records)
    return str(path), header, records


def test_sort_key_ordering(unsorted_workload):
    from repro.formats.sam import parse_alignment
    _, header, records = unsorted_workload
    mapped = next(r for r in records if r.is_mapped)
    unmapped = parse_alignment("u\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII")
    assert sort_key(mapped, header) < sort_key(unmapped, header)


def test_in_memory_sort(unsorted_sam, tmp_path):
    path, header, records = unsorted_sam
    result = sort_sam(path, tmp_path / "s.sam")
    assert result.runs == 0  # fits in one chunk
    assert result.records == len(records)
    out_header, out_records = read_sam(result.output)
    assert is_sorted(out_records, out_header)
    assert out_header.sort_order == "coordinate"
    assert len(out_records) == len(records)


def test_external_sort_with_spills(unsorted_sam, tmp_path):
    path, header, records = unsorted_sam
    result = sort_sam(path, tmp_path / "s.sam", chunk_records=37)
    assert result.runs > 1
    _, out_records = read_sam(result.output)
    assert is_sorted(out_records, header)
    # Same multiset of records: sort both deterministically and compare.
    assert sorted(map(str, map(id, out_records))) is not None
    assert sorted((r.qname, r.flag) for r in out_records) == \
        sorted((r.qname, r.flag) for r in records)


def test_spill_and_in_memory_agree(unsorted_sam, tmp_path):
    path, header, _ = unsorted_sam
    a = sort_sam(path, tmp_path / "a.sam", chunk_records=10 ** 9)
    b = sort_sam(path, tmp_path / "b.sam", chunk_records=13)
    assert open(a.output).read() == open(b.output).read()


def test_sort_is_stable(tmp_path):
    """Records at the same coordinate keep their input order."""
    from repro.formats.header import SamHeader
    from repro.formats.sam import parse_alignment
    header = SamHeader.from_references([("chr1", 1000)])
    records = [parse_alignment(
        f"r{i}\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII")
        for i in range(20)]
    path = tmp_path / "ties.sam"
    write_sam(path, header, records)
    result = sort_sam(path, tmp_path / "s.sam", chunk_records=6)
    _, out = read_sam(result.output)
    assert [r.qname for r in out] == [f"r{i}" for i in range(20)]


def test_sort_bam_roundtrip(unsorted_workload, tmp_path):
    _, header, records = unsorted_workload
    bam_in = tmp_path / "u.bam"
    write_bam(bam_in, header, records)
    result = sort_bam(bam_in, tmp_path / "s.bam", chunk_records=50)
    out_header, out_records = read_bam(result.output)
    assert is_sorted(out_records, out_header)
    assert len(out_records) == len(records)
    # Sorted BAM is now indexable.
    from repro.formats.bai import BaiIndex
    BaiIndex.from_bam(result.output)


def test_parallel_sort_matches_sequential(unsorted_sam, tmp_path):
    path, header, _ = unsorted_sam
    seq = sort_sam(path, tmp_path / "seq.sam")
    for nprocs in (1, 2, 5):
        par, rank_metrics = parallel_sort_sam(
            path, tmp_path / f"par{nprocs}.sam", nprocs,
            tmp_path / f"w{nprocs}")
        assert len(rank_metrics) == nprocs
        assert open(par.output).read() == open(seq.output).read()


def test_one_sort_for_every_input(unsorted_workload, tmp_path):
    """SAM and BAM input through the one planner, nprocs {1, 2, 3} x
    executors x part sizes: a SAM sorts to the same bytes, a BAM to the
    same records, both the stable sort of the input; a BAM's parts join
    into one BGZF stream with one EOF marker that stdlib gzip reads
    whole; the scratch directory goes."""
    _, header, records = unsorted_workload
    want = sorted(records, key=lambda r: sort_key(r, header))
    sam, bam = tmp_path / "u.sam", tmp_path / "u.bam"
    write_sam(sam, header, records)
    write_bam(bam, header, records)
    base = sort_sam(sam, tmp_path / "base.sam").output
    assert read_sam(base)[1] == want
    work = tmp_path / "w"
    for nprocs in (1, 2, 3):
        for executor in EXECUTORS:
            for chunk in (7, 10 ** 6):
                out = tmp_path / "s.sam"
                sort_file(sam, out, nprocs, executor, work, chunk)
                assert out.read_bytes() == open(base, "rb").read()
                out = tmp_path / "s.bam"
                result, _ = sort_file(bam, out, nprocs, executor, work,
                                      chunk)
                assert result.runs == (0 if chunk > len(records)
                                       and nprocs == 1 else
                                       max(nprocs, -(-len(records) // chunk)))
                out_header, got = read_bam(out)
                assert got == want and out_header.sort_order == "coordinate"
                raw = out.read_bytes()
                assert raw.endswith(EOF_MARKER)
                assert raw.count(EOF_MARKER) == 1
                assert gzip.decompress(raw).startswith(b"BAM\x01")
                assert os.listdir(work) == []


def test_a_failed_sort_leaves_no_output(unsorted_sam, tmp_path):
    """A record the store cannot hold fails the sort with the typed
    error; no output, temporary name or scratch file is left, and an
    output already there is untouched."""
    from repro.errors import SamFormatError
    path, _, _ = unsorted_sam
    bad = tmp_path / "bad.sam"
    bad.write_text(open(path).read()
                   + "x\t0\tchrNone\t5\t60\t4M\t*\t0\t0\tACGT\tIIII\n")
    out, work = tmp_path / "out", tmp_path / "w"
    out.mkdir()
    for nprocs in (1, 3):
        with pytest.raises(SamFormatError, match="chrNone"):
            sort_file(bad, out / "s.sam", nprocs, work_dir=work)
        assert os.listdir(out) == [] and os.listdir(work) == []
    (out / "s.sam").write_text("kept")
    with pytest.raises(SamFormatError):
        sort_file(bad, out / "s.sam", 2, work_dir=work)
    assert os.listdir(out) == ["s.sam"]
    assert (out / "s.sam").read_text() == "kept"


def test_invalid_parameters(unsorted_sam, tmp_path):
    path, _, _ = unsorted_sam
    with pytest.raises(ConversionError):
        sort_sam(path, tmp_path / "x.sam", chunk_records=0)
    with pytest.raises(ConversionError):
        parallel_sort_sam(path, tmp_path / "x.sam", 0, tmp_path / "w")
