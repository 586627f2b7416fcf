"""Row stores speak columns: BAMX/BAMZ rows decode to the same
``ColumnSlab``s BAMC holds, so one kernel path serves every store.

The contracts: ``decode_slab`` inverts ``encode_slab`` and agrees with
the per-record decoder; every store x target x selection converts to
the bytes of ``pipeline="record"``; the scan kernels agree across
stores and with the record functions; the SAM slab emitter renders
exactly ``format_alignment`` or declines the slab.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BamConverter, RecordFilter
from repro.core.targets import get_target, target_names
from repro.errors import ReproError
from repro.formats.bamc import slab_from_records
from repro.formats.bamx import BamxLayout, plan_layout
from repro.formats.header import SamHeader
from repro.formats.kernels import KERNEL_TARGETS, KernelFallback, \
    kernel_emitter_for
from repro.formats.record import UNMAPPED_POS, AlignmentRecord
from repro.formats.sam import format_alignment
from repro.formats.store import column_slabs, open_record_store
from repro.formats.tags import Tag

HDR = SamHeader.from_references([("chr1", 1 << 20), ("chr2", 1 << 18)])
COLUMNS = ("ref_id", "pos", "end_pos", "next_ref", "next_pos", "tlen",
           "l_seq", "flag", "mapq")

_qname = st.from_regex(r"[!-?A-~]{1,24}", fullmatch=True)
_tag_name = st.from_regex(r"[A-Za-z][A-Za-z0-9]", fullmatch=True)
_INT_RANGES = {"c": (-128, 127), "C": (0, 255), "s": (-(1 << 15), 32767),
               "S": (0, 65535), "i": (-(1 << 31), (1 << 31) - 1),
               "I": (0, (1 << 32) - 1)}
_float32 = st.floats(width=32, allow_nan=True, allow_infinity=True)


def _array(sub):
    values = _float32 if sub == "f" else st.integers(*_INT_RANGES[sub])
    return st.tuples(st.just(sub),
                     st.lists(values, max_size=5).map(tuple))


#: Tags of every BAM type: ints of all six widths (the encoder picks the
#: narrowest), ``A``, ``f`` incl. inf/nan, ``Z``, ``H``, every ``B``.
_tags = st.lists(st.one_of(
    st.builds(Tag, _tag_name, st.just("i"), st.one_of(
        *(st.integers(*bounds) for bounds in _INT_RANGES.values()))),
    st.builds(Tag, _tag_name, st.just("A"),
              st.from_regex(r"[!-~]", fullmatch=True)),
    st.builds(Tag, _tag_name, st.just("f"), _float32),
    st.builds(Tag, _tag_name, st.just("Z"),
              st.from_regex(r"[ -~]{0,12}", fullmatch=True)),
    st.builds(Tag, _tag_name, st.just("H"), st.binary(max_size=6)),
    st.builds(Tag, _tag_name, st.just("B"),
              st.sampled_from("cCsSiIf").flatmap(_array)),
), max_size=4)


@st.composite
def records(draw):
    """Placed and unplaced records, ``*`` SEQ, absent QUAL, zero-op
    CIGARs, every tag type."""
    n = draw(st.integers(0, 30))
    seq = draw(st.text(alphabet="ACGTN", min_size=n, max_size=n)) or "*"
    placed = draw(st.booleans())
    cigar = []
    if placed and draw(st.booleans()):
        cigar = draw(st.lists(st.tuples(
            st.integers(1, 500), st.sampled_from("MIDNSHP=X")), max_size=5))
    qual = "*" if not n or draw(st.booleans()) else draw(st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=n, max_size=n))
    return AlignmentRecord(
        qname=draw(_qname),
        flag=draw(st.integers(0, 0xFFF)),
        rname=draw(st.sampled_from(["chr1", "chr2"])) if placed else "*",
        pos=draw(st.integers(0, 1 << 20)) if placed else UNMAPPED_POS,
        mapq=draw(st.integers(0, 255)), cigar=cigar,
        rnext=draw(st.sampled_from(["*", "=", "chr2"])) if placed else "*",
        pnext=draw(st.integers(-1, 1 << 20)),
        tlen=draw(st.integers(-(1 << 30), 1 << 30)), seq=seq, qual=qual,
        tags=draw(_tags))


def _fields(slab):
    """Each variable field of each record, as bytes."""
    return [[bytes(blob[a:b]) for a, b in zip(lo.tolist(), hi.tolist())]
            for lo, hi, blob in slab.sections()]


def _same(a, b):
    """Record equality that lets a NaN tag value equal itself."""
    return repr(a) == repr(b)


# -- restride -----------------------------------------------------------------

@given(st.lists(records(), min_size=1, max_size=7),
       st.tuples(*[st.integers(0, 9)] * 4))
@settings(max_examples=100, deadline=None)
def test_restride_is_encoding_under_the_wider_layout(batch, slack):
    """Rows encoded under the layout a batch needs, re-laid under one
    with room to spare in any field, are the rows encoded under that
    one; under the same layout they come back untouched."""
    tight = plan_layout(batch)
    slab = slab_from_records(batch, HDR)
    rows = tight.encode_slab(slab).tobytes()
    wide = tight.merge(BamxLayout(
        min(tight.name_cap + slack[0], 254), tight.cigar_cap + slack[1],
        tight.seq_cap + slack[2], tight.tag_cap + slack[3]))
    assert bytes(wide.restride(rows, len(batch), tight)) == bytes(
        wide.encode_slab(slab))
    assert tight.restride(rows, len(batch), tight) is rows


# -- decode_slab ------------------------------------------------------------

@given(st.lists(records(), max_size=7), st.integers(0, 99))
@settings(max_examples=150, deadline=None)
def test_decode_slab_inverts_encode_slab(batch, start):
    """Tight layouts, so in every batch some field sits exactly at its
    capacity; ``count == 0`` is the empty batch."""
    layout = plan_layout(batch)
    slab = slab_from_records(batch, HDR)
    rows = layout.encode_slab(slab).tobytes()
    assert rows == bytes(layout.encode_batch(batch, HDR))
    back = layout.decode_slab(memoryview(rows), len(batch), start)
    assert (back.start, back.count) == (start, len(batch))
    for name in COLUMNS:
        column = getattr(back, name)
        assert column.dtype == getattr(slab, name).dtype, name
        assert np.array_equal(column, getattr(slab, name)), name
    assert _fields(back) == _fields(slab)
    for i in range(len(batch)):
        assert _same(back.decode(i, HDR),
                     layout.decode(rows, HDR, i * layout.record_size))


def test_decode_slab_of_gathered_rows_and_short_buffers():
    batch = [AlignmentRecord("r%d" % i, 0, "chr1", 10 * i, 30, [(4, "M")],
                             "*", -1, 0, "ACGT", "IIII") for i in range(5)]
    layout = BamxLayout(8, 2, 10, 4)   # looser than the records need
    rows = bytes(layout.encode_batch(batch, HDR))
    picked = layout.decode_slab(rows, 5, np.array([9, 3, 4, 5, 1]))
    assert picked.start == -1
    assert list(picked.decode_all(HDR)) == batch
    assert picked.end_pos.tolist() == [4, 14, 24, 34, 44]
    with pytest.raises(ReproError, match="truncated"):
        layout.decode_slab(rows[:-1], 5)


# -- the converter matrix -----------------------------------------------------

STORES = {"bamx": {}, "bamz": {"compress": True}, "bamc": {}}
FILTER = RecordFilter(min_mapq=30, mapped_only=True, primary_only=True)
#: Overlapping and out of genome order, so the union's picks are
#: neither sorted nor contiguous.
REGIONS = ["chr2:1-15000", "chr1:20000-50000", "chr1:1-25000"]
SELECTIONS = ("full", "region", "regions", "filtered")


@pytest.fixture(scope="module")
def stores(bam_file, tmp_path_factory):
    work = tmp_path_factory.mktemp("stores")
    return {kind: BamConverter(
        store_format="bamc" if kind == "bamc" else "bamx").preprocess(
            bam_file, work / kind, **kwargs)[0]
        for kind, kwargs in STORES.items()}


def _convert(converter, store, target, selection, out_dir):
    if selection == "region":
        result = converter.convert_region(store, None, "chr1:5000-30000",
                                          target, out_dir, nprocs=2)
    elif selection == "regions":
        result = converter.convert_regions(store, None, REGIONS, target,
                                           out_dir, nprocs=2,
                                           mode="overlap")
    else:
        result = converter.convert(
            store, target, out_dir, nprocs=2,
            record_filter=FILTER if selection == "filtered" else None)
    parts = [open(path, "rb").read() for path in result.outputs]
    return parts, result.records, result.emitted


@pytest.mark.parametrize("target", target_names())
def test_every_store_matches_the_record_pipeline(stores, tmp_path, target):
    for selection in SELECTIONS:
        want = None
        for kind, store in stores.items():
            for pipeline in ("record", "batch"):
                got = _convert(BamConverter(pipeline=pipeline), store,
                               target, selection,
                               tmp_path / f"{kind}-{pipeline}-{selection}")
                want = want or got     # bamx through pipeline="record"
                assert got == want, (kind, pipeline, selection)
        assert want[1] > 0


def test_kernel_targets_take_no_fallback_on_any_store(stores, tmp_path):
    assert "sam" in KERNEL_TARGETS
    for kind, store in stores.items():
        for target in KERNEL_TARGETS:
            result = BamConverter().convert(store, target,
                                            tmp_path / kind / target)
            assert sum(m.kernel_fallbacks
                       for m in result.rank_metrics) == 0, (kind, target)


def test_unsorted_duplicate_picks_keep_caller_order(stores, tmp_path):
    """Explicit picks in any order, with repeats: every store gathers
    them as asked (BAMC's FASTA/FASTQ kernels used to misread a slab
    gathered out of order)."""
    from repro.core.bam_converter import StoreCut, convert_rank
    from repro.core.base import PartSpec
    picks = tuple(np.random.default_rng(5).permutation(400)[:150]) \
        + (7, 7, 8, 3)
    for target in ("bed", "fasta", "fastq", "sam", "bam"):
        want = None
        for kind, store in stores.items():
            for pipeline in ("record", "batch"):
                out = tmp_path / f"{kind}.{pipeline}.{target}"
                convert_rank(PartSpec(StoreCut(store, picks=np.array(picks)),
                                      target, str(out), pipeline=pipeline,
                                      batch_size=64))
                want = want or out.read_bytes()
                assert out.read_bytes() == want, (kind, pipeline, target)


# -- the readers' own column reads --------------------------------------------

def _flat(slabs):
    """``(columns and fields of all the slabs' records, slab sizes)``."""
    slabs = list(slabs)
    return ([np.concatenate([getattr(s, name) for s in slabs]).tolist()
             for name in COLUMNS],
            [field for s in slabs for field in zip(*_fields(s))]), \
        [s.count for s in slabs]


def test_every_reader_yields_the_same_column_slabs(bam_file, tmp_path):
    """``read_column_batches`` / ``read_column_picks`` are each reader's
    own: BAMX and BAMZ rows decode to what BAMC holds — for ranges that
    straddle a batch boundary, and for picks out of order and repeated —
    cut every *batch_size* records where BAMC cuts at its slabs."""
    readers = {kind: open_record_store(BamConverter(
        batch_size=64, store_format="bamc" if kind == "bamc" else "bamx",
        ).preprocess(bam_file, tmp_path / kind, **kwargs)[0])
        for kind, kwargs in STORES.items()}
    try:
        n = len(readers["bamc"])
        assert n > 200
        for a, b in ((0, n), (60, 70), (63, 65), (64, 128), (n - 1, n)):
            want, cuts = _flat(readers["bamc"].read_column_batches(a, b))
            assert len(cuts) == -(-b // 64) - a // 64
            for kind in ("bamx", "bamz"):
                got, sizes = _flat(
                    readers[kind].read_column_batches(a, b, 64))
                assert got == want, (kind, a, b)
                assert sizes == [min(64, b - at)
                                 for at in range(a, b, 64)]
        picks = [150, 3, 64, 63, 3, 199, 65, 64, 64, 0, n - 1]
        want, _ = _flat(readers["bamc"].read_column_picks(picks))
        for kind in ("bamx", "bamz"):
            got, sizes = _flat(readers[kind].read_column_picks(picks, 4))
            assert got == want, kind
            assert sizes == [4, 4, 3]
        for reader in readers.values():
            assert list(reader.read_column_batches(5, 5)) == []
            assert list(reader.read_column_picks([])) == []
            with pytest.raises(ReproError):
                list(reader.read_column_batches(0, n + 1))
    finally:
        for reader in readers.values():
            reader.close()


# -- scans --------------------------------------------------------------------

def test_scans_agree_across_stores_and_with_records(stores, workload):
    from repro.stats import histogram_from_records, histogram_from_store
    from repro.tools.flagstat import flagstat_records, flagstat_store
    _, header, records = workload
    stats = flagstat_records(records)
    histogram = histogram_from_records(records, header, 25)
    for kind, store in stores.items():
        with open_record_store(store) as reader:
            assert sum(s.count for s in column_slabs(reader)) == len(records)
            assert flagstat_store(reader) == stats, kind
            got = histogram_from_store(reader, 25)
        assert set(got) == set(histogram)
        for name in histogram:
            assert np.array_equal(got[name], histogram[name]), (kind, name)


# -- the SAM slab emitter -------------------------------------------------------

def _sam_lines(slab, record_filter=None):
    return kernel_emitter_for(get_target("sam"), HDR)(slab, record_filter)


@given(st.lists(records(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_sam_emitter_matches_format_alignment(batch):
    slab = slab_from_records(batch, HDR)
    lines, seen = _sam_lines(slab)
    assert seen == len(batch)
    assert lines == [format_alignment(r) for r in slab.decode_all(HDR)]
    kept, seen = _sam_lines(slab, FILTER)
    assert kept == [line for line, r in zip(lines, batch)
                    if FILTER.matches(r)] and seen == len(kept)


@given(records(), st.binary(max_size=24), st.integers(0, 15))
@settings(max_examples=300, deadline=None)
def test_sam_emitter_on_hostile_blocks_is_equal_or_declines(
        record, block, op_code):
    """Arbitrary bytes as the tag block, any 4-bit CIGAR op code: the
    emitter renders what the record path renders, or raises
    ``KernelFallback`` (the record path then raises the typed error) —
    never anything else."""
    slab = slab_from_records([record], HDR)
    word = np.array([(7 << 4) | op_code], "<u4").tobytes()
    slab = dataclasses.replace(
        slab, tag_blob=block, tag_lo=np.array([0]),
        tag_hi=np.array([len(block)]), cigar_blob=word,
        cigar_lo=np.array([0]), cigar_hi=np.array([4]))
    try:
        want = [format_alignment(r) for r in slab.decode_all(HDR)]
    except ReproError:
        want = None
    try:
        lines, _ = _sam_lines(slab)
    except KernelFallback:
        return
    assert lines == want


def test_sam_emitter_float_rendering():
    for value, text in ((0.1, "0.10000000149011612"), (math.inf, "inf"),
                        (-math.inf, "-inf"), (math.nan, "nan")):
        record = AlignmentRecord("q", 4, "*", -1, 0, [], "*", -1, 0, "*",
                                 "*", [Tag("XF", "f", value),
                                       Tag("XB", "B", ("f", (value,)))])
        (line,), _ = _sam_lines(slab_from_records([record], HDR))
        assert line.endswith(f"\tXF:f:{text}\tXB:B:f,{text}")
        assert os.linesep not in line
