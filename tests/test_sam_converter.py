"""Tests for the SAM format converter (Fig. 2 execution flow)."""

import os

import pytest

from repro.core.sam_converter import SamConverter, convert_sam, \
    partition_alignments, scan_header
from repro.errors import ConversionError


def cat(paths):
    return b"".join(open(p, "rb").read() for p in paths)


def cat_no_header(paths):
    """Concatenate text parts, dropping the per-part @ header lines
    (each rank's SAM part legitimately repeats the header)."""
    out = []
    for p in paths:
        for line in open(p, "rb"):
            if not line.startswith(b"@"):
                out.append(line)
    return b"".join(out)


def test_scan_header(sam_file, workload):
    _, header, _ = workload
    parsed, offset = scan_header(sam_file)
    assert parsed == header
    with open(sam_file, "rb") as fh:
        fh.seek(offset)
        first = fh.readline()
    assert not first.startswith(b"@")


def test_partition_alignments_starts_after_header(sam_file):
    _, header_end = scan_header(sam_file)
    parts = partition_alignments(sam_file, 4, header_end)
    assert parts[0].start == header_end
    assert parts[-1].end == os.path.getsize(sam_file)


@pytest.mark.parametrize("target", ["bed", "bedgraph", "fasta", "fastq",
                                    "sam", "json", "yaml"])
def test_parallel_equals_sequential(tmp_path, sam_file, target):
    converter = SamConverter()
    seq = converter.convert(sam_file, target, tmp_path / "seq", nprocs=1)
    par = converter.convert(sam_file, target, tmp_path / "par", nprocs=5)
    if target == "sam":
        assert cat_no_header(seq.outputs) == cat_no_header(par.outputs)
    else:
        assert cat(seq.outputs) == cat(par.outputs)
    assert par.records == seq.records


def test_record_counts(tmp_path, sam_file, workload):
    _, _, records = workload
    result = SamConverter().convert(sam_file, "bed", tmp_path / "o",
                                    nprocs=3)
    assert result.records == len(records)
    mapped = sum(1 for r in records if r.is_mapped)
    assert result.emitted == mapped


def test_one_output_file_per_rank(tmp_path, sam_file):
    result = SamConverter().convert(sam_file, "bed", tmp_path / "o",
                                    nprocs=7)
    assert len(result.outputs) == 7
    assert all(os.path.exists(p) for p in result.outputs)
    assert result.nprocs == 7


def test_sam_target_includes_header_per_part(tmp_path, sam_file):
    result = SamConverter().convert(sam_file, "sam", tmp_path / "o",
                                    nprocs=2)
    for path in result.outputs:
        with open(path) as fh:
            assert fh.readline().startswith("@HD")


def test_sam_roundtrip_preserves_records(tmp_path, sam_file, workload):
    _, _, records = workload
    from repro.formats.sam import read_sam
    result = SamConverter().convert(sam_file, "sam", tmp_path / "o",
                                    nprocs=3)
    recovered = []
    for path in result.outputs:
        _, part = read_sam(path)
        recovered.extend(part)
    assert recovered == records


def test_bam_target_parts_are_valid_bam(tmp_path, sam_file, workload):
    _, _, records = workload
    from repro.formats.bam import read_bam
    result = SamConverter().convert(sam_file, "bam", tmp_path / "o",
                                    nprocs=3)
    recovered = []
    for path in result.outputs:
        _, part = read_bam(path)
        recovered.extend(part)
    assert recovered == records


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_executors_match_simulate(tmp_path, sam_file, executor):
    converter = SamConverter()
    sim = converter.convert(sam_file, "bed", tmp_path / "sim", nprocs=3)
    other = converter.convert(sam_file, "bed", tmp_path / executor,
                              nprocs=3, executor=executor)
    assert cat(sim.outputs) == cat(other.outputs)


def test_more_ranks_than_records(tmp_path):
    from repro.formats.header import SamHeader
    from repro.formats.sam import parse_alignment, write_sam
    rec = parse_alignment("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII")
    path = tmp_path / "tiny.sam"
    write_sam(path, SamHeader.from_references([("chr1", 100)]), [rec] * 2)
    result = SamConverter().convert(path, "bed", tmp_path / "o",
                                    nprocs=16)
    assert result.records == 2
    assert len(result.outputs) == 16  # most parts simply come out empty


def test_rank_metrics_populated(tmp_path, sam_file):
    result = SamConverter().convert(sam_file, "bed", tmp_path / "o",
                                    nprocs=2)
    assert len(result.rank_metrics) == 2
    total_read = sum(m.bytes_read for m in result.rank_metrics)
    _, header_end = scan_header(sam_file)
    assert total_read == os.path.getsize(sam_file) - header_end
    assert all(m.compute_seconds >= 0 for m in result.rank_metrics)


def test_invalid_nprocs(tmp_path, sam_file):
    with pytest.raises(ConversionError):
        SamConverter().convert(sam_file, "bed", tmp_path / "o", nprocs=0)


def test_invalid_target_rejected_before_work(tmp_path, sam_file):
    with pytest.raises(ConversionError):
        SamConverter().convert(sam_file, "vcf", tmp_path / "o")


def test_convenience_wrapper(tmp_path, sam_file):
    result = convert_sam(sam_file, "bed", tmp_path / "o", nprocs=2)
    assert result.nprocs == 2


@pytest.mark.parametrize("pipeline", ["batch", "record"])
@pytest.mark.parametrize("target", ["bed", "sam", "bam"])
def test_malformed_line_is_located(tmp_path, workload, pipeline, target):
    """Errors say where: the bad line sits in rank 1 of 3 and the
    message carries its file offset, identically from both pipelines."""
    from repro.errors import SamFormatError
    from repro.formats.sam import format_alignment
    _, header, records = workload
    lines = [format_alignment(r) for r in records[:90]]
    lines[45] = "\t".join(lines[45].split("\t")[:10])
    text = header.to_text() + "".join(line + "\n" for line in lines)
    path = tmp_path / "bad.sam"
    path.write_bytes(text.encode("ascii"))
    at = text.index(lines[45])
    assert len(text) // 3 < at < 2 * len(text) // 3
    with pytest.raises(SamFormatError) as info:
        SamConverter(pipeline=pipeline).convert(
            str(path), target, tmp_path / "out", nprocs=3)
    assert str(info.value) == (
        f"{path}: line at byte offset {at}: alignment line has 10 "
        f"columns, expected >= 11")
