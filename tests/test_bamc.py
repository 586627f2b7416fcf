"""Unit, property and identity tests for the columnar BAMC format.

The acceptance contract of the columnar store: every record round-trips
exactly, and every conversion through the vectorized kernels is
byte-identical to the v1 BAMX pipeline — per part file, for every
target, with and without filters, for full and partial conversions.
"""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BamConverter, RecordFilter
from repro.core.targets import target_names
from repro.errors import BamxFormatError, CapacityError
from repro.formats.bamc import DEFAULT_SLAB_RECORDS, MAGIC, BamcReader, \
    BamcWriter, read_bamc, write_bamc
from repro.formats.bamx import BamxLayout, plan_layout
from repro.formats.header import SamHeader
from repro.formats.record import UNMAPPED_POS, AlignmentRecord
from repro.formats.store import open_record_store, store_extension
from repro.formats.tags import Tag

HDR = SamHeader.from_references([("chr1", 100_000), ("chr2", 50_000)])


def make_record(**overrides):
    base = dict(qname="q1", flag=99, rname="chr1", pos=500, mapq=60,
                cigar=[(4, "M")], rnext="=", pnext=700, tlen=204,
                seq="ACGT", qual="IIII", tags=[Tag("NM", "i", 0)])
    base.update(overrides)
    return AlignmentRecord(**base)


EDGE_RECORDS = [
    make_record(),
    make_record(seq="*", qual="*", cigar=[]),          # zero-length seq
    make_record(qual="*"),                             # missing quals
    make_record(flag=4 | 1, rname="*", pos=UNMAPPED_POS, mapq=0,
                cigar=[], rnext="*", pnext=UNMAPPED_POS, tlen=0,
                tags=[]),                              # unmapped
    make_record(rnext="chr2", pnext=3),                # cross-chrom mate
    make_record(qname="a" * 254),                      # name at hard cap
    make_record(seq="ACGTA", qual="\x7f" * 5,          # odd-length seq,
                cigar=[(5, "M")]),                     # high qual chars
    make_record(cigar=[(1, "M")] * 3 + [(1, "I")], seq="ACGT",
                qual="IIII"),                          # many CIGAR ops
]


@pytest.mark.parametrize("slab_records", [1, 3, 7, 64,
                                          len(EDGE_RECORDS) + 10])
def test_roundtrip_edge_records(tmp_path, slab_records):
    path = tmp_path / "t.bamc"
    write_bamc(path, HDR, EDGE_RECORDS, slab_records=slab_records)
    header, decoded = read_bamc(path)
    assert header.to_text() == HDR.to_text()
    assert decoded == EDGE_RECORDS


def test_default_slab_size_matches_batch_default():
    from repro.formats.batch import DEFAULT_BATCH_SIZE
    assert DEFAULT_SLAB_RECORDS == DEFAULT_BATCH_SIZE


def test_random_access_and_ranges(tmp_path):
    records = [make_record(qname=f"r{i}", pos=10 * i)
               for i in range(50)]
    path = tmp_path / "t.bamc"
    write_bamc(path, HDR, records, slab_records=7)
    with BamcReader(path) as reader:
        assert len(reader) == 50
        assert reader[0] == records[0]
        assert reader[49] == records[49]
        assert reader[-1] == records[-1]
        assert list(reader.read_range(13, 29)) == records[13:29]
        with pytest.raises(IndexError):
            reader[50]


def test_column_picks_preserve_caller_order(tmp_path):
    records = [make_record(qname=f"r{i}", pos=10 * i)
               for i in range(40)]
    path = tmp_path / "t.bamc"
    write_bamc(path, HDR, records, slab_records=8)
    picks = [3, 4, 5, 30, 31, 2, 17, 16, 39, 0]
    with BamcReader(path) as reader:
        got = [record
               for slab in reader.read_column_picks(picks)
               for record in slab.decode_all(reader.header)]
    assert got == [records[i] for i in picks]


def test_end_pos_column_is_record_end(tmp_path):
    records = [make_record(qname="a", pos=100,
                           cigar=[(2, "M"), (3, "D"), (2, "M")],
                           seq="ACGT", qual="IIII"),
               make_record(flag=4, rname="*", pos=UNMAPPED_POS, mapq=0,
                           cigar=[], rnext="*", pnext=UNMAPPED_POS,
                           tlen=0, tags=[])]
    path = tmp_path / "t.bamc"
    write_bamc(path, HDR, records)
    with BamcReader(path) as reader:
        slab = next(reader.read_column_batches(0, len(reader)))
        assert slab.end_pos[0] == records[0].end == 107
        assert slab.end_pos[1] == records[1].end


def test_capacity_violations(tmp_path):
    layout = BamxLayout(name_cap=3, cigar_cap=1, seq_cap=4, tag_cap=4)
    path = tmp_path / "t.bamc"
    for bad in (make_record(qname="toolong"),
                make_record(cigar=[(2, "M"), (2, "M")]),
                make_record(seq="ACGTA", qual="IIIII",
                            cigar=[(5, "M")]),
                make_record(tags=[Tag("XZ", "Z", "long value")])):
        # Records are buffered per slab, so the capacity check fires at
        # flush time — by context exit at the latest.
        with pytest.raises(CapacityError):
            with BamcWriter(path, HDR, layout) as writer:
                writer.write(bad)


def test_qual_length_mismatch_rejected(tmp_path):
    layout = plan_layout([make_record()])
    with pytest.raises(BamxFormatError):
        with BamcWriter(tmp_path / "t.bamc", HDR, layout) as writer:
            writer.write(make_record(qual="II"))


def test_open_record_store_dispatches_on_magic(tmp_path):
    path = tmp_path / "oddly.named"
    write_bamc(path, HDR, EDGE_RECORDS)
    with open(path, "rb") as fh:
        assert fh.read(len(MAGIC)) == MAGIC
    with open_record_store(path) as reader:
        assert isinstance(reader, BamcReader)
        assert list(reader) == EDGE_RECORDS


def test_store_extension_knows_bamc():
    assert store_extension(False, "bamc") == ".bamc"
    assert store_extension(False, "bamx") == ".bamx"
    assert store_extension(True, "bamx") == ".bamz"
    with pytest.raises(BamxFormatError):
        store_extension(True, "bamc")  # no BGZF layering
    with pytest.raises(BamxFormatError):
        store_extension(False, "parquet")


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "t.bamc"
    write_bamc(path, HDR, EDGE_RECORDS)
    data = open(path, "rb").read()
    clipped = tmp_path / "clipped.bamc"
    clipped.write_bytes(data[:len(data) - 9])
    with pytest.raises(BamxFormatError):
        BamcReader(clipped)


def _fields(slab):
    """A slab's per-record values: every fixed column, and every
    variable field's bytes record by record."""
    fixed = {f.name: getattr(slab, f.name).tolist()
             for f in dataclasses.fields(slab)
             if f.name.endswith(("_id", "pos", "tlen", "l_seq", "flag",
                                 "mapq"))}
    return fixed, [[blob[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
                   for lo, hi, blob in slab.sections()]


def test_every_window_reads_as_the_slice_of_its_slab(tmp_path):
    """A window that is part of a slab is read alone (its columns, its
    offsets, its blob ranges): field by field it is the same window
    sliced from the whole slab; cut the file under an open reader and
    the window read is the typed error."""
    records = [dataclasses.replace(r, qname=f"r{i}{r.qname[:200]}")
               for i, r in enumerate(EDGE_RECORDS * 3)]
    path = tmp_path / "t.bamc"
    write_bamc(path, HDR, records, slab_records=7)
    with BamcReader(path) as reader:
        for first in range(0, len(records), 7):
            whole = reader._load_slab(first // 7)
            for a in range(whole.count):
                for b in range(a + 1, whole.count + 1):
                    (got,) = reader.read_column_batches(first + a,
                                                        first + b)
                    want = whole.window(a, b, first + a)
                    assert (got.start, got.count) == (want.start, b - a)
                    assert _fields(got) == _fields(want), (first, a, b)
                    assert list(got.decode_all(HDR)) == \
                        records[first + a:first + b]
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(BamxFormatError, match="truncated"):
            list(reader.read_column_batches(len(records) - 3,
                                            len(records) - 1))


# -- property fuzz ----------------------------------------------------

_qname = st.from_regex(r"[!-?A-~]{1,24}", fullmatch=True)
_seq = st.text(alphabet="ACGTN", min_size=1, max_size=40)


@st.composite
def records(draw):
    seq = draw(_seq)
    mapped = draw(st.booleans())
    n = len(seq)
    if mapped:
        if draw(st.booleans()) and n >= 3:
            a = draw(st.integers(1, n - 2))
            cigar = [(a, "S"), (n - a, "M")]
        else:
            cigar = [(n, "M")]
        rname = draw(st.sampled_from(["chr1", "chr2"]))
        pos = draw(st.integers(0, 100_000))
        mapq = draw(st.integers(0, 254))
        flag = draw(st.sampled_from([0, 16, 99, 147, 83, 163, 1024]))
    else:
        cigar = []
        rname, pos, mapq, flag = "*", UNMAPPED_POS, 0, 4
    if mapped and draw(st.booleans()):
        rnext = draw(st.sampled_from(["=", "chr1", "chr2"]))
        pnext = draw(st.integers(0, 100_000))
    else:
        rnext, pnext = "*", UNMAPPED_POS
    if draw(st.booleans()):
        seq, qual = "*", "*"
        cigar = [] if not mapped else cigar
        if mapped:
            cigar = []
    else:
        qual = "*" if draw(st.booleans()) else "".join(
            chr(draw(st.integers(33, 126))) for _ in range(n))
    return AlignmentRecord(
        qname=draw(_qname), flag=flag, rname=rname, pos=pos, mapq=mapq,
        cigar=cigar, rnext=rnext, pnext=pnext,
        tlen=draw(st.integers(-(1 << 30), 1 << 30)), seq=seq, qual=qual,
        tags=[])


def _norm(record):
    """BAM-family stores normalize same-reference RNEXT to '='."""
    if record.rnext not in ("*", "=") and record.rnext == record.rname:
        return dataclasses.replace(record, rnext="=")
    return record


@given(st.lists(records(), min_size=1, max_size=9),
       st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_bamc_fuzz_roundtrip(batch, slab_records):
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/t.bamc"
        write_bamc(path, HDR, batch, slab_records=slab_records)
        _, decoded = read_bamc(path)
    assert decoded == [_norm(r) for r in batch]


# -- byte identity against the v1 BAMX pipeline -----------------------

FILTERS = [None, RecordFilter(min_mapq=30, primary_only=True)]


def _parts(result):
    return {os.path.basename(p): open(p, "rb").read()
            for p in result.outputs}


@pytest.mark.parametrize("target", target_names())
def test_bamc_conversion_byte_identical_all_targets(bam_file, tmp_path,
                                                    target):
    bamx_conv = BamConverter()
    bamc_conv = BamConverter(store_format="bamc")
    bamx, _, _ = bamx_conv.preprocess(bam_file, tmp_path / "wx")
    bamc, _, _ = bamc_conv.preprocess(bam_file, tmp_path / "wc")
    assert bamc.endswith(".bamc")
    for i, flt in enumerate(FILTERS):
        v1 = bamx_conv.convert(bamx, target, tmp_path / f"x{i}",
                               nprocs=2, record_filter=flt)
        v2 = bamc_conv.convert(bamc, target, tmp_path / f"c{i}",
                               nprocs=2, record_filter=flt)
        assert _parts(v2) == _parts(v1), (target, flt)
        assert (v2.records, v2.emitted) == (v1.records, v1.emitted)


@pytest.mark.parametrize("mode", ["start", "overlap"])
def test_bamc_region_byte_identical(bam_file, tmp_path, mode):
    bamx_conv = BamConverter()
    bamc_conv = BamConverter(store_format="bamc")
    bamx, _, _ = bamx_conv.preprocess(bam_file, tmp_path / "wx")
    bamc, _, _ = bamc_conv.preprocess(bam_file, tmp_path / "wc")
    for target in ("bed", "fastq", "sam"):
        v1 = bamx_conv.convert_region(bamx, None, "chr1:1-40000",
                                      target, tmp_path / f"x-{target}",
                                      nprocs=2, mode=mode)
        v2 = bamc_conv.convert_region(bamc, None, "chr1:1-40000",
                                      target, tmp_path / f"c-{target}",
                                      nprocs=2, mode=mode)
        assert _parts(v2) == _parts(v1), (target, mode)


def test_record_pipeline_matches_batch_on_bamc(bam_file, tmp_path):
    conv = BamConverter(store_format="bamc")
    bamc, _, _ = conv.preprocess(bam_file, tmp_path / "w")
    batch = conv.convert(bamc, "fastq", tmp_path / "batch", nprocs=2)
    record = BamConverter(pipeline="record",
                          store_format="bamc").convert(
        bamc, "fastq", tmp_path / "record", nprocs=2)
    assert _parts(record) == _parts(batch)


def test_kernel_fallback_counted_for_non_kernel_targets(bam_file,
                                                        tmp_path):
    conv = BamConverter(store_format="bamc")
    bamc, _, _ = conv.preprocess(bam_file, tmp_path / "w")
    kernel = conv.convert(bamc, "bed", tmp_path / "k")
    fallback = conv.convert(bamc, "gff", tmp_path / "f")
    assert sum(m.kernel_fallbacks for m in kernel.rank_metrics) == 0
    assert sum(m.kernel_fallbacks for m in fallback.rank_metrics) > 0


# -- vectorized kernels vs record-path results ------------------------

def test_flagstat_kernel_matches_record_path(bam_file, tmp_path,
                                             workload):
    from repro.tools.flagstat import flagstat, flagstat_records
    _genome, _header, records = workload
    conv = BamConverter(store_format="bamc")
    bamc, _, _ = conv.preprocess(bam_file, tmp_path / "w")
    assert flagstat(bamc) == flagstat_records(records)


def test_histogram_kernel_matches_record_path(bam_file, tmp_path,
                                              workload):
    from repro.stats import histogram_from_records, histogram_from_store
    _genome, header, records = workload
    conv = BamConverter(store_format="bamc")
    bamc, _, _ = conv.preprocess(bam_file, tmp_path / "w")
    with open_record_store(bamc) as reader:
        columnar = histogram_from_store(reader, 25)
    reference = histogram_from_records(records, header, 25)
    assert set(columnar) == set(reference)
    for name in reference:
        assert np.array_equal(columnar[name], reference[name])


def test_filter_mask_matches_scalar_filter(tmp_path, workload):
    from repro.formats.kernels import slab_filter_mask
    _genome, header, records = workload
    path = tmp_path / "t.bamc"
    write_bamc(path, header, records, slab_records=37)
    flt = RecordFilter(min_mapq=30, exclude_flags=0x10,
                       mapped_only=True)
    with BamcReader(path) as reader:
        for slab in reader.read_column_batches(0, len(reader)):
            mask = slab_filter_mask(slab, flt)
            expect = [flt.matches_flag_mapq(int(f), int(q))
                      for f, q in zip(slab.flag, slab.mapq)]
            assert mask.tolist() == expect
            assert slab_filter_mask(slab, RecordFilter()) is None


# -- service-layer integration ---------------------------------------

def test_service_store_format_param(bam_file, tmp_path):
    from repro.runtime.executor import reset_shared_executor
    from repro.service.server import ConversionService
    reset_shared_executor()
    service = ConversionService(tmp_path / "svc", workers=1)
    try:
        row = service.submit("convert", {
            "input": str(bam_file), "target": "bed",
            "out_dir": str(tmp_path / "row")})
        col = service.submit("convert", {
            "input": str(bam_file), "target": "bed",
            "out_dir": str(tmp_path / "col"), "store_format": "bamc"})
        json_job = service.submit("convert", {
            "input": str(bam_file), "target": "json",
            "out_dir": str(tmp_path / "json"), "store_format": "bamc"})
        assert service.pool.wait_all(timeout=60)
        for job_id in (row.job_id, col.job_id, json_job.job_id):
            job = service.pool.get(job_id)
            assert job.state.value == "done", job.error

        def job_bytes(job_id):
            job = service.pool.get(job_id)
            return {os.path.basename(p): open(p, "rb").read()
                    for p in job.result["outputs"]}
        assert job_bytes(col.job_id) == job_bytes(row.job_id)
        # Row and columnar artifacts of the same BAM live in distinct
        # cache entries (store_format is part of the cache key).
        extensions = set()
        for dirpath, _dirnames, filenames in os.walk(service.cache.cache_dir):
            for name in filenames:
                extensions.add(os.path.splitext(name)[1])
        assert ".bamx" in extensions and ".bamc" in extensions
        # The json job has no columnar kernel -> its slabs fell back to
        # the record path and the service counter says so.
        assert service.metrics.counter("kernel_fallbacks") > 0
    finally:
        service.close()
        reset_shared_executor()
