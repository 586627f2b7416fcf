"""Unit tests for the BAM binary codec."""

import pytest

from repro.errors import BamFormatError
from repro.formats.bam import BamReader, BamWriter, decode_record, \
    encode_record, read_bam, write_bam
from repro.formats.header import SamHeader
from repro.formats.record import UNMAPPED_POS, AlignmentRecord
from repro.formats.sam import parse_alignment
from repro.formats.tags import Tag

HDR = SamHeader.from_references([("chr1", 100_000), ("chr2", 50_000)])


def make_record(**overrides):
    base = dict(qname="q1", flag=99, rname="chr1", pos=500, mapq=60,
                cigar=[(4, "M")], rnext="=", pnext=700, tlen=204,
                seq="ACGT", qual="IIII",
                tags=[Tag("NM", "i", 0)])
    base.update(overrides)
    return AlignmentRecord(**base)


def test_record_roundtrip():
    rec = make_record()
    body = encode_record(rec, HDR)
    size = int.from_bytes(body[:4], "little")
    assert size == len(body) - 4
    assert decode_record(body[4:], HDR) == rec


def test_unmapped_record_roundtrip():
    rec = make_record(flag=4 | 1 | 64, rname="*", pos=UNMAPPED_POS,
                      mapq=0, cigar=[], rnext="*", pnext=UNMAPPED_POS,
                      tlen=0)
    body = encode_record(rec, HDR)
    assert decode_record(body[4:], HDR) == rec


def test_mate_on_other_chromosome():
    rec = make_record(rnext="chr2", pnext=100)
    body = encode_record(rec, HDR)
    assert decode_record(body[4:], HDR).rnext == "chr2"


def test_equal_sign_convention():
    # rnext "=" survives; an explicit same-name rnext normalizes to "=".
    rec = make_record(rnext="chr1")
    decoded = decode_record(encode_record(rec, HDR)[4:], HDR)
    assert decoded.rnext == "="


def test_missing_quality_roundtrip():
    rec = make_record(qual="*")
    decoded = decode_record(encode_record(rec, HDR)[4:], HDR)
    assert decoded.qual == "*"


def test_no_sequence_roundtrip():
    rec = make_record(seq="*", qual="*", cigar=[(4, "M")])
    decoded = decode_record(encode_record(rec, HDR)[4:], HDR)
    assert decoded.seq == "*" and decoded.qual == "*"


def test_odd_length_sequence():
    rec = make_record(seq="ACGTA", qual="IIIII", cigar=[(5, "M")])
    assert decode_record(encode_record(rec, HDR)[4:], HDR) == rec


def test_unknown_reference_rejected():
    with pytest.raises(Exception):
        encode_record(make_record(rname="chrX"), HDR)


def test_qname_length_limit():
    with pytest.raises(BamFormatError):
        encode_record(make_record(qname="x" * 255), HDR)


def test_qual_seq_length_mismatch_rejected():
    with pytest.raises(BamFormatError):
        encode_record(make_record(qual="III"), HDR)


def test_file_roundtrip(tmp_path, workload):
    _, header, records = workload
    path = tmp_path / "t.bam"
    assert write_bam(path, header, records) == len(records)
    header2, records2 = read_bam(path)
    assert records2 == records
    assert [r.name for r in header2.references] == \
        [r.name for r in header.references]


def test_reader_exposes_header(bam_file, workload):
    _, header, _ = workload
    with BamReader(bam_file) as reader:
        assert [r.name for r in reader.header.references] == \
            [r.name for r in header.references]
        assert reader.header.sort_order == "coordinate"


def test_iter_with_offsets_allows_seek(bam_file):
    with BamReader(bam_file) as reader:
        pairs = list(reader.iter_with_offsets())
        assert len(pairs) > 10
        voffset, expected = pairs[7]
        reader.seek_virtual(voffset)
        assert reader._read_one() == expected


def test_rewind(bam_file):
    with BamReader(bam_file) as reader:
        first_pass = list(reader)
        reader.rewind()
        assert list(reader) == first_pass


def test_bad_magic_rejected(tmp_path):
    from repro.formats.bgzf import BgzfWriter
    path = tmp_path / "bad.bam"
    writer = BgzfWriter(path)
    writer.write(b"NOPE")
    writer.close()
    with pytest.raises(BamFormatError):
        BamReader(path)


def test_mismatched_sq_lines_rejected(tmp_path):
    import struct

    from repro.formats.bgzf import BgzfWriter
    # Header text says chr1:100, binary list says chr1:200.
    text = "@SQ\tSN:chr1\tLN:100\n".encode()
    blob = bytearray(b"BAM\x01")
    blob += struct.pack("<i", len(text)) + text
    blob += struct.pack("<i", 1)
    name = b"chr1\x00"
    blob += struct.pack("<i", len(name)) + name + struct.pack("<i", 200)
    path = tmp_path / "mismatch.bam"
    writer = BgzfWriter(path)
    writer.write(bytes(blob))
    writer.close()
    with pytest.raises(BamFormatError):
        BamReader(path)


def test_writer_returns_monotonic_offsets(tmp_path):
    path = tmp_path / "t.bam"
    with BamWriter(path, HDR) as writer:
        offsets = [writer.write(make_record(pos=i)) for i in range(100)]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == len(offsets)


def test_sam_line_through_bam_roundtrip():
    line = ("r9\t147\tchr2\t321\t7\t3S7M2I4M\t=\t100\t-250\t"
            "ACGTACGTACGTACGT\tABCDEFGHIJKLMNOP\tNM:i:3\tXB:B:c,1,-1")
    rec = parse_alignment(line)
    assert decode_record(encode_record(rec, HDR)[4:], HDR) == rec


@pytest.mark.parametrize("per_slab", [1, 7, 4096])
def test_iter_raw_slabs_cuts_whole_records(bam_file, workload, per_slab):
    from repro.formats.bam import slab_columns, slab_records
    _, header, records = workload
    seen = []
    with BamReader(bam_file) as reader:
        for buf, offsets in reader.iter_raw_slabs(per_slab):
            assert offsets[0] == 0 and offsets[-1] == len(buf)
            assert len(offsets) - 1 == min(per_slab,
                                           len(records) - len(seen))
            for a, b in zip(offsets, offsets[1:]):
                assert bytes(buf[a:b]) == encode_record(
                    records[len(seen)], header)
                seen.append(records[len(seen)])
            # What this repo writes is canonical: columns, no records.
            slab = slab_columns(buf, offsets, len(header.references))
            assert slab is not None and slab.count == len(offsets) - 1
            assert list(slab.decode_all(header)) \
                == slab_records(buf, offsets, header)
    assert len(seen) == len(records)


@pytest.mark.parametrize("field, value", [
    ("block_size", 20), ("l_read_name", 0), ("n_cigar", 500),
    ("l_seq", 1 << 30), ("l_seq", -4)])
def test_decode_record_bounds_are_typed(field, value):
    import struct
    body = bytearray(encode_record(make_record(), HDR)[4:])
    if field == "block_size":
        body = body[:value]
    else:
        off, fmt = {"l_read_name": (8, "B"), "n_cigar": (12, "<H"),
                    "l_seq": (16, "<i")}[field]
        struct.pack_into(fmt, body, off, value)
    with pytest.raises(BamFormatError, match=field):
        decode_record(bytes(body), HDR)
