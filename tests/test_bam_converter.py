"""Tests for the BAM format converter (Fig. 3) and partial conversion."""

import os

import pytest

from repro.core.bam_converter import BamConverter, convert_bam_direct, \
    preprocess_bam
from repro.core.region import GenomicRegion
from repro.errors import ConversionError
from repro.formats.baix import BaixIndex
from repro.formats.bamx import BamxReader


def cat(paths):
    return b"".join(open(p, "rb").read() for p in paths)


def cat_no_header(paths):
    out = []
    for p in paths:
        for line in open(p, "rb"):
            if not line.startswith(b"@"):
                out.append(line)
    return b"".join(out)


@pytest.fixture(scope="module")
def preprocessed(bam_file, tmp_path_factory):
    work = tmp_path_factory.mktemp("bamx")
    converter = BamConverter()
    bamx, baix, metrics = converter.preprocess(bam_file, work)
    return bamx, baix, metrics


def test_preprocess_preserves_records(preprocessed, workload):
    bamx, baix, metrics = preprocessed
    _, _, records = workload
    with BamxReader(bamx) as reader:
        assert list(reader) == records
    assert metrics.records == len(records)


def test_preprocess_builds_sorted_index(preprocessed, workload):
    _, baix, _ = preprocessed
    _, header, records = workload
    index = BaixIndex.load(baix)
    placed = sum(1 for r in records if r.rname != "*" and r.pos >= 0)
    assert len(index) == placed


def test_preprocess_metrics_account_for_one_pass(preprocessed, bam_file):
    _, _, metrics = preprocessed
    assert metrics.bytes_read == os.path.getsize(bam_file)
    assert metrics.bytes_written > 0


@pytest.mark.parametrize("target", ["bed", "bedgraph", "fasta", "sam"])
def test_full_conversion_parallel_equals_sequential(tmp_path, preprocessed,
                                                    target):
    bamx, _, _ = preprocessed
    converter = BamConverter()
    seq = converter.convert(bamx, target, tmp_path / "seq", nprocs=1)
    par = converter.convert(bamx, target, tmp_path / "par", nprocs=6)
    if target == "sam":
        assert cat_no_header(seq.outputs) == cat_no_header(par.outputs)
    else:
        assert cat(seq.outputs) == cat(par.outputs)


def test_full_conversion_equal_record_partitioning(tmp_path, preprocessed,
                                                   workload):
    bamx, _, _ = preprocessed
    _, _, records = workload
    result = BamConverter().convert(bamx, "bed", tmp_path / "o", nprocs=4)
    counts = [m.records for m in result.rank_metrics]
    assert sum(counts) == len(records)
    assert max(counts) - min(counts) <= 1  # paper: equal number per rank


def test_partial_conversion_selects_region(tmp_path, preprocessed,
                                           workload):
    bamx, baix, _ = preprocessed
    _, header, records = workload
    region = GenomicRegion("chr1", 10_000, 30_000)
    result = BamConverter().convert_region(bamx, baix, region, "sam",
                                           tmp_path / "o", nprocs=3)
    expected = [r for r in records
                if r.rname == "chr1" and 10_000 <= r.pos < 30_000]
    assert result.records == len(expected)
    from repro.formats.sam import read_sam
    recovered = []
    for path in result.outputs:
        _, part = read_sam(path)
        recovered.extend(part)
    assert sorted(r.qname for r in recovered) == \
        sorted(r.qname for r in expected)


def test_partial_conversion_accepts_region_string(tmp_path, preprocessed):
    bamx, baix, _ = preprocessed
    result = BamConverter().convert_region(bamx, baix, "chr2:1-5000",
                                           "bed", tmp_path / "o",
                                           nprocs=2)
    assert result.records >= 0
    for path in result.outputs:
        for line in open(path):
            assert line.startswith("chr2\t")


def test_partial_conversion_defaults_to_sibling_index(tmp_path,
                                                      preprocessed):
    bamx, baix, _ = preprocessed
    a = BamConverter().convert_region(bamx, None, "chr1:1-2000", "bed",
                                      tmp_path / "a", nprocs=2)
    b = BamConverter().convert_region(bamx, baix, "chr1:1-2000", "bed",
                                      tmp_path / "b", nprocs=2)
    assert cat(a.outputs) == cat(b.outputs)


def test_partial_conversion_proportional_work(tmp_path, preprocessed,
                                              workload):
    """Fig. 8 property: larger subsets convert more records."""
    bamx, baix, _ = preprocessed
    _, header, _ = workload
    converter = BamConverter()
    counts = []
    for frac in (0.2, 0.6, 1.0):
        end = int(60_000 * frac)
        result = converter.convert_region(
            bamx, baix, GenomicRegion("chr1", 0, end), "sam",
            tmp_path / f"o{frac}", nprocs=2)
        counts.append(result.records)
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] > counts[0]


def test_direct_conversion_matches_preprocessed(tmp_path, bam_file,
                                                preprocessed):
    bamx, _, _ = preprocessed
    direct = convert_bam_direct(bam_file, "sam", tmp_path / "direct.sam")
    via_bamx = BamConverter().convert(bamx, "sam", tmp_path / "o",
                                      nprocs=1)
    assert cat(direct.outputs) == cat(via_bamx.outputs)


def test_a_new_source_plugs_into_the_one_rank_task(tmp_path, bam_file,
                                                   workload):
    """``core/base.py``'s claim, executed: a source is a value its rank
    spec opens — here a list of record batches, no columns — and the
    one rank task every converter runs converts it, filter, binary
    target and all; nothing in ``src/`` knows this source."""
    from contextlib import contextmanager
    from dataclasses import dataclass

    from repro.core import RecordFilter
    from repro.core.base import Source, convert_rank
    _, header, records = workload

    @dataclass(frozen=True)
    class ListSpec:
        target: str
        out_path: str
        record_filter: RecordFilter = RecordFilter()
        batch_size: int = 100
        pipeline: str = "batch"
        write_header: bool = True

        @contextmanager
        def open(self, metrics, n):
            # Opened as every opener is: (metrics, batch_size).
            yield Source(header, (records[i:i + n]
                                  for i in range(0, len(records), n)),
                         None, lambda batch: batch)

    for target in ("bed", "fastq", "json", "bam"):
        want = convert_bam_direct(bam_file, target, tmp_path / "want")
        metrics = convert_rank(ListSpec(target, str(tmp_path / "got")))
        assert cat([tmp_path / "got"]) == cat(want.outputs), target
        assert metrics.records == want.records == len(records)
        # No columns: every batch of every target takes the records.
        assert metrics.kernel_fallbacks == -(-len(records) // 100)
    mapped = RecordFilter(mapped_only=True, min_mapq=30)
    kept = convert_rank(ListSpec("bed", str(tmp_path / "kept"), mapped))
    assert kept.records == sum(map(mapped.matches, records)) > 0


def test_preprocess_bam_function(tmp_path, bam_file, workload):
    _, _, records = workload
    bamx = tmp_path / "x.bamx"
    metrics = preprocess_bam(bam_file, bamx)
    assert metrics.records == len(records)
    assert os.path.exists(str(bamx) + ".baix")


def test_invalid_nprocs(tmp_path, preprocessed):
    bamx, baix, _ = preprocessed
    with pytest.raises(ConversionError):
        BamConverter().convert(bamx, "bed", tmp_path / "o", nprocs=0)
    with pytest.raises(ConversionError):
        BamConverter().convert_region(bamx, baix, "chr1:1-10", "bed",
                                      tmp_path / "o", nprocs=-1)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_executors_match_simulate(tmp_path, preprocessed, executor):
    bamx, _, _ = preprocessed
    converter = BamConverter()
    sim = converter.convert(bamx, "bed", tmp_path / "sim", nprocs=3)
    other = converter.convert(bamx, "bed", tmp_path / executor, nprocs=3,
                              executor=executor)
    assert cat(sim.outputs) == cat(other.outputs)
