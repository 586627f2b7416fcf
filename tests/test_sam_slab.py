"""SAM text on the slab pipeline: ``sam.slab_columns`` proves and parses
a block of lines on arrays and the converter emits from its columns.
The contract is byte identity with ``pipeline="record"`` — through the
columns where a block is proven canonical, through the per-line path
(counted) where it is not."""

import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EXECUTORS, SamConverter
from repro.core.filters import parse_filter_expr
from repro.core.targets import get_target
from repro.errors import SamFormatError
from repro.formats import batch as batch_codec
from repro.formats.bamc import slab_from_records
from repro.formats.cigar import format_cigar
from repro.formats.kernels import kernel_emitter_for
from repro.formats.record import UNMAPPED_POS, AlignmentRecord
from repro.formats.sam import format_alignment, parse_alignment, \
    slab_columns, write_sam
from repro.formats.tags import Tag, format_tags
from tests.test_properties_records import HDR
from tests.test_properties_records import records as record_strategy

TARGETS = ("bed", "bedgraph", "fasta", "fastq", "sam")
FILTERS = {"all": None, "filtered": parse_filter_expr("q=30,mapped,primary")}


def convert(path, target, out_dir, **options):
    """``(bytes of all parts, result)`` of one conversion."""
    knobs = {k: options.pop(k) for k in ("pipeline", "batch_size",
                                         "read_chunk") if k in options}
    result = SamConverter(**knobs).convert(path, target, out_dir, **options)
    return b"".join(open(p, "rb").read() for p in result.outputs), result


def fallbacks(result):
    return sum(m.fallbacks for m in result.rank_metrics)


# -- (a) batch == record over the whole matrix ------------------------

@pytest.mark.parametrize("filtered", FILTERS)
@pytest.mark.parametrize("target", TARGETS)
def test_batch_equals_record_oracle(sam_file, tmp_path, target, filtered):
    record_filter = FILTERS[filtered]
    for nprocs in (1, 2, 3):
        oracle, _ = convert(sam_file, target, tmp_path / f"o{nprocs}",
                            pipeline="record", nprocs=nprocs,
                            record_filter=record_filter)
        for batch_size in (1, 7, 4096):
            for executor in EXECUTORS:
                got, result = convert(
                    sam_file, target, tmp_path / "out", nprocs=nprocs,
                    batch_size=batch_size, executor=executor,
                    record_filter=record_filter)
                assert got == oracle, (nprocs, batch_size, executor)
                assert fallbacks(result) == 0


def _read(name, flag, mapq=60, qual="IIIIFFFF", seq="ACGTTGCA", pos=99,
          rname="chr1", **rest):
    return AlignmentRecord(
        name, flag, rname, pos, mapq, [(8, "M")] if pos >= 0 else [],
        rest.pop("rnext", "*"), rest.pop("pnext", UNMAPPED_POS), 0, seq,
        qual, **rest)


#: Both strands, absent QUAL, ``*`` SEQ, MAPQ 255, unplaced reads, both
#: and neither mate bit, secondary/supplementary, tags.
MIXED = [
    _read("fwd1", 99, rnext="=", pnext=300,
          tags=[Tag("NM", "i", 2), Tag("RG", "Z", "g 1")]),
    _read("rev2", 147, mapq=255, qual="ABCDEFGH", rnext="chr2", pnext=7),
    _read("rev.noqual", 16, mapq=30, qual="*", seq="AACCGGTN"),
    _read("noseq", 0, mapq=0, seq="*", qual="*"),
    _read("unplaced", 4, mapq=0, pos=UNMAPPED_POS, rname="*"),
    _read("unmapped.placed", 4 | 16, mapq=0, rname="chr2", pos=5),
    _read("both.mates", 1 | 64 | 128, mapq=29),
    _read("neither.mate", 1, mapq=30, tags=[Tag("XA", "A", "q")]),
    _read("secondary", 256 | 16, qual="*"),
    _read("supplementary", 2048, pos=0, tags=[Tag("XH", "H", b"\x1a\xff")]),
]


@pytest.mark.parametrize("filtered", FILTERS)
@pytest.mark.parametrize("target", TARGETS)
def test_one_emitter_serves_text_and_binary_slabs(target, filtered):
    """The same records as a block of SAM lines and as a store's slab,
    through the same emitter object: equal lines, equal ``seen``, and
    both the record oracle's."""
    emit = kernel_emitter_for(get_target(target), HDR)
    text = slab_columns("".join(
        format_alignment(r) + "\n" for r in MIXED).encode("ascii"))
    assert text is not None and text.count == len(MIXED)
    got = emit(text, FILTERS[filtered])
    assert got == emit(slab_from_records(MIXED, HDR), FILTERS[filtered])
    oracle = []
    seen, _ = batch_codec.convert_records(MIXED, get_target(target),
                                          FILTERS[filtered], oracle)
    assert got == (oracle, seen) and 0 < len(oracle) <= seen


@given(st.lists(record_strategy(), min_size=1, max_size=12),
       st.sampled_from((1, 3, 4096)), st.sampled_from(TARGETS),
       st.sampled_from(sorted(FILTERS)))
@settings(max_examples=40, deadline=None)
def test_generated_records_are_proven_and_equal(batch, batch_size, target,
                                                filtered):
    """Whatever ``format_alignment`` writes is canonical: no block of
    it may fall back, and the columns give the oracle's bytes."""
    with tempfile.TemporaryDirectory() as d:
        write_sam(f"{d}/in.sam", HDR, batch)
        oracle, _ = convert(f"{d}/in.sam", target, f"{d}/o",
                            pipeline="record", nprocs=2,
                            record_filter=FILTERS[filtered])
        got, result = convert(f"{d}/in.sam", target, f"{d}/b", nprocs=2,
                              batch_size=batch_size,
                              record_filter=FILTERS[filtered])
    assert got == oracle
    assert fallbacks(result) == 0


# -- (b) corners: each must send its block to the per-line path -------

GOOD = "r{}\t99\tchr1\t{}\t40\t4M\t=\t200\t104\tACGT\tIIII\tNM:i:0"


def corner(**columns):
    """A good line with the named columns (0-based index) replaced."""
    cols = GOOD.format("x", 50).split("\t")
    for index, text in columns.items():
        cols[int(index[1:])] = text
    return "\t".join(cols)


CORNERS = {
    "flag-plus": corner(c1="+5"),
    "flag-space": corner(c1=" 5"),
    "flag-underscore": corner(c1="1_0"),
    "flag-leading-zero": corner(c1="007"),
    "flag-11-digits": corner(c1="10000000099"),
    "pos-negative": corner(c3="-3"),
    "pos-empty": corner(c3=""),
    "tlen-minus-zero": corner(c8="-0"),
    "tlen-bare-minus": corner(c8="-"),
    "cigar-zero": corner(c5="0M"),
    "cigar-no-op": corner(c5="5"),
    "cigar-bad-op": corner(c5="5Q"),
    "cigar-nine-digits": corner(c5="123456789M"),
    "cigar-star-inside": corner(c5="2M*2M"),
    "tag-float": corner(c11="XX:f:1.5"),
    "tag-array": corner(c11="XB:B:c,1"),
    "tag-lower-hex": corner(c11="XH:H:ab"),
    "tag-odd-hex": corner(c11="XH:H:ABC"),
    "tag-short-name": corner(c11="X:i:1"),
    "tag-int-leading-zero": corner(c11="NM:i:01"),
    "tag-int-minus-zero": corner(c11="NM:i:-0"),
    "tag-empty": corner(c11=""),
    "ten-columns": "\t".join(corner().split("\t")[:10]),
    "blank-line": "",
    "comment-mid-body": "@CO\tmid-body comment",
    "tab-in-qname": "a\t" + corner(),
    "star-seq-with-qual": corner(c9="*"),
    "empty-seq": corner(c9="", c10="*"),
    "qual-wrong-length": corner(c10="III"),
    "carriage-return": corner() + "\r",
    "delete-byte": corner(c0="r\x7f"),
}


def today(lines, target_name, record_filter):
    """What the per-line path makes of *lines*: bytes, or the message of
    its typed error."""
    target, out = get_target(target_name), []
    try:
        batch_codec.convert_sam_lines(
            lines, target, batch_codec.sam_fastpath_for(target),
            record_filter, out)
    except SamFormatError as exc:
        return str(exc)
    return "".join(line + "\n" for line in out).encode("ascii")


@pytest.mark.parametrize("name", CORNERS)
def test_corner_lines_fall_back_and_match(name, tmp_path):
    lines = [GOOD.format(i, 10 + i) for i in range(6)]
    lines.insert(4, CORNERS[name])
    path = tmp_path / "c.sam"
    path.write_bytes(HDR.to_text().encode("ascii")
                     + "".join(line + "\n" for line in lines).encode("ascii"))
    assert slab_columns("\n".join(lines).encode("ascii")) is None
    for target in TARGETS:
        head = get_target(target).file_header(HDR).encode("ascii")
        for filtered, record_filter in FILTERS.items():
            outcome = {}
            for pipeline in ("record", "batch"):
                try:
                    outcome[pipeline], result = convert(
                        str(path), target, tmp_path / "out",
                        pipeline=pipeline, record_filter=record_filter)
                except SamFormatError as exc:
                    outcome[pipeline] = str(exc)
                else:
                    assert fallbacks(result) == (pipeline == "batch"), target
            expected = today(lines, target, record_filter)
            if isinstance(expected, bytes):
                assert outcome["batch"] == head + expected, target
            else:       # a typed error that says where, never a traceback
                at = len(HDR.to_text()) + sum(len(x) + 1 for x in lines[:4])
                assert outcome["batch"] == \
                    f"{path}: line at byte offset {at}: {expected}", target
            # Where the oracle converts, so does the batch pipeline, to
            # the same bytes; where both refuse, with the same words.
            # (A column a target's fastpath never reads is diagnosed by
            # the oracle only — docs/parallelization.md.)
            if isinstance(outcome["record"], bytes) \
                    or isinstance(outcome["batch"], str):
                assert outcome["batch"] == outcome["record"], \
                    (target, filtered)


# -- (c) the columns are the record's fields --------------------------

def assert_columns_are_fields(lines):
    slab = slab_columns(("\n".join(lines) + "\n").encode("ascii"))
    assert slab is not None and slab.count == len(lines)
    records = [parse_alignment(line) for line in lines]
    assert [format_alignment(r) for r in records] == lines
    for name, c in (("qname", 0), ("rname", 2), ("rnext", 6), ("seq", 9),
                    ("qual", 10)):
        assert slab.column(c) == [getattr(r, name) for r in records], name
    assert slab.column(5) == [format_cigar(r.cigar) for r in records]
    for name in ("flag", "pos", "mapq", "pnext", "tlen"):
        assert getattr(slab, name).tolist() \
            == [getattr(r, name) for r in records], name
    assert slab.end_pos.tolist() == [r.end for r in records]
    assert slab.l_seq.tolist() \
        == [0 if r.seq == "*" else len(r.seq) for r in records]
    assert [slab.text[a:b] for a, b in zip(slab.tags_lo.tolist(),
                                           slab.line_hi.tolist())] \
        == [format_tags(r.tags) for r in records]
    assert [slab.text[a:b] for a, b in zip(slab.lo[0].tolist(),
                                           slab.line_hi.tolist())] == lines


def test_columns_are_fields_on_the_shared_workload(records):
    assert_columns_are_fields([format_alignment(r) for r in records])


@given(st.lists(record_strategy(), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_columns_are_fields_on_generated_records(batch):
    assert_columns_are_fields([format_alignment(r) for r in batch])


def test_proven_extremes():
    """Ten-digit numbers, eight-digit CIGAR lengths, every tag type the
    proof admits, ``*`` everywhere it may stand."""
    assert_columns_are_fields([
        corner(c1="4095", c3="9999999999", c7="2147483647",
               c8="-2147483648", c5="12345678M1I2D3N4S5H6P7=8X",
               c11="XA:A:!\tXI:i:-12\tXZ:Z:\tXH:H:\tXJ:H:0AF9\tXY:Z:a b:c"),
        corner(c1="4", c2="*", c3="0", c5="*", c6="*", c7="0", c8="0",
               c9="*", c10="*")[:-len("\tNM:i:0")],
        corner(c10="*"), corner(c0=""), corner(c4="2000")])


# -- (d) memory does not grow with the input --------------------------

def test_conversion_memory_is_bounded_by_the_slab(tmp_path):
    from benchmarks.e2e.gen import Dataset
    data = Dataset(5, 10_000)
    small = str(tmp_path / "small.sam")
    data.write_sam(small)
    with open(small, "rb") as fh:
        head = fh.read(len(data.header_text))
        body = fh.read()
    big = tmp_path / "big.sam"
    big.write_bytes(head + body * 4)
    peaks = {}
    for path in (small, str(big)):
        tracemalloc.start()
        try:
            _, result = convert(path, "bed", tmp_path / "out",
                                read_chunk=1 << 20)
            peaks[path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fallbacks(result) == 0
    assert result.records == 40_000
    assert peaks[str(big)] <= 1.3 * peaks[small], peaks


# -- the gain cannot silently vanish ----------------------------------

def test_benchmark_shaped_input_never_falls_back(tmp_path):
    """One non-canonical habit of the benchmark's generator would put
    ``sam_text`` back on the per-line path with every check green."""
    from benchmarks.e2e.gen import FILTER_EXPR, Dataset
    path = str(tmp_path / "reads.sam")
    Dataset(7, 2_000).write_sam(path)
    for target in TARGETS:
        for record_filter in (None, parse_filter_expr(FILTER_EXPR)):
            got, result = convert(path, target, tmp_path / "out", nprocs=2,
                                  record_filter=record_filter)
            assert fallbacks(result) == 0, target
            oracle, _ = convert(path, target, tmp_path / "oracle",
                                pipeline="record", nprocs=2,
                                record_filter=record_filter)
            assert got == oracle, target
