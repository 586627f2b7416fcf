"""Failure injection: corrupt and truncated inputs must fail loudly
with library exceptions, never silently return wrong data or crash with
unrelated errors."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BamFormatError, BamxFormatError, BgzfError, \
    IndexError_, ReproError, SamFormatError
from repro.formats.bam import BamReader, write_bam
from repro.formats.bamx import BamxReader, write_bamx
from repro.formats.bamz import BamzReader, write_bamz
from repro.formats.bgzf import BgzfReader, BgzfWriter, compress_bytes
from repro.formats.sam import parse_alignment


# --- SAM text ----------------------------------------------------------


@given(st.text(max_size=120))
@settings(max_examples=150)
def test_sam_parser_never_crashes_unexpectedly(line):
    """Arbitrary text either parses or raises SamFormatError."""
    try:
        parse_alignment(line)
    except SamFormatError:
        pass


@given(st.binary(max_size=80))
@settings(max_examples=80)
def test_sam_parser_on_binary_garbage(data):
    try:
        parse_alignment(data.decode("latin-1"))
    except SamFormatError:
        pass


# --- BGZF --------------------------------------------------------------


def test_bgzf_bit_flip_detected(tmp_path):
    path = tmp_path / "t.bgzf"
    writer = BgzfWriter(path)
    writer.write(b"payload " * 5_000)
    writer.close()
    blob = bytearray(path.read_bytes())
    # Flip one byte inside the compressed body of the first block.
    blob[30] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BgzfError):
        BgzfReader(path).read(-1)


def test_bgzf_truncated_header(tmp_path):
    path = tmp_path / "t.bgzf"
    path.write_bytes(compress_bytes(b"data")[:10])
    with pytest.raises(BgzfError):
        BgzfReader(path)


def test_bgzf_seek_past_block_payload(tmp_path):
    path = tmp_path / "t.bgzf"
    writer = BgzfWriter(path)
    writer.write(b"abc")
    writer.close()
    reader = BgzfReader(path)
    with pytest.raises(BgzfError):
        reader.seek_virtual(5_000)  # uoffset beyond the 3-byte payload


# --- BAM ---------------------------------------------------------------


@pytest.fixture()
def small_bam(tmp_path, workload):
    _, header, records = workload
    path = tmp_path / "t.bam"
    write_bam(path, header, records[:50])
    return path


def test_bam_truncated_mid_record(small_bam):
    blob = small_bam.read_bytes()
    # Cut the BGZF stream partway: drop the last 60% of bytes and the
    # EOF marker, then re-terminate at a non-block boundary.
    small_bam.write_bytes(blob[: int(len(blob) * 0.4)])
    with pytest.raises((BamFormatError, BgzfError)):
        with BamReader(small_bam) as reader:
            list(reader)


def test_bam_garbage_after_header(tmp_path, workload):
    import struct

    from repro.formats.bgzf import BgzfWriter as W
    _, header, _ = workload
    path = tmp_path / "junk.bam"
    writer = W(path)
    text = header.to_text().encode()
    blob = bytearray(b"BAM\x01")
    blob += struct.pack("<i", len(text)) + text
    blob += struct.pack("<i", len(header.references))
    for ref in header.references:
        name = ref.name.encode() + b"\x00"
        blob += struct.pack("<i", len(name)) + name
        blob += struct.pack("<i", ref.length)
    # One plausible-length record frame filled with garbage.
    blob += struct.pack("<i", 64) + os.urandom(64)
    writer.write(bytes(blob))
    writer.close()
    with pytest.raises((BamFormatError, SamFormatError, ReproError,
                        Exception)):
        with BamReader(path) as reader:
            list(reader)


# --- BAMX / BAMZ ---------------------------------------------------------


def test_bamx_header_count_beyond_file(tmp_path, workload):
    _, header, records = workload
    path = tmp_path / "t.bamx"
    write_bamx(path, header, records[:20])
    blob = bytearray(path.read_bytes())
    # Inflate the record count field (u64 at offset 5 + 4 + 16).
    import struct
    struct.pack_into("<Q", blob, 5 + 4 + 16, 10_000)
    path.write_bytes(bytes(blob))
    with pytest.raises(BamxFormatError):
        BamxReader(path)


def test_bamz_truncated_stream(tmp_path, workload):
    _, header, records = workload
    path = tmp_path / "t.bamz"
    write_bamz(path, header, records[:30])
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises((BgzfError, BamxFormatError)):
        with BamzReader(path) as reader:
            list(reader)


def test_bamz_index_record_count_mismatch(tmp_path, workload):
    import struct

    from repro.formats.bamz import index_path_for
    _, header, records = workload
    path = tmp_path / "t.bamz"
    write_bamz(path, header, records[:10])
    index_file = index_path_for(path)
    blob = bytearray(open(index_file, "rb").read())
    struct.pack_into("<Q", blob, 4, 99)  # claim 99 entries
    open(index_file, "wb").write(bytes(blob))
    with pytest.raises(IndexError_):
        BamzReader(path)


# --- BAIX ---------------------------------------------------------------


def test_baix_truncated(tmp_path, workload):
    from repro.formats.baix import BaixIndex
    _, header, records = workload
    idx = BaixIndex.build(enumerate(records), header)
    path = tmp_path / "t.baix"
    idx.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(IndexError_):
        BaixIndex.load(path)


# --- converters on corrupt input -----------------------------------------


def test_sam_converter_propagates_parse_errors(tmp_path):
    path = tmp_path / "broken.sam"
    path.write_text("@HD\tVN:1.4\n@SQ\tSN:chr1\tLN:100\n"
                    "good\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n"
                    "broken line without enough columns\n")
    from repro.core import SamConverter
    with pytest.raises(SamFormatError):
        SamConverter().convert(path, "bed", tmp_path / "o", nprocs=2)


def test_empty_sam_converts_to_empty_outputs(tmp_path):
    path = tmp_path / "empty.sam"
    path.write_text("@HD\tVN:1.4\n@SQ\tSN:chr1\tLN:100\n")
    from repro.core import SamConverter
    result = SamConverter().convert(path, "bed", tmp_path / "o",
                                    nprocs=3)
    assert result.records == 0
    for out in result.outputs:
        assert os.path.getsize(out) == 0


# --- BAM length fields that lie -------------------------------------------

def _mutated_bam(path, **lie):
    """Seven good records, the fourth with a lying field (or, for
    ``name``, a non-ASCII byte in its name)."""
    from tests import rawbam
    good = [rawbam.record(b"read%d" % i, pos=100 + i) for i in range(7)]
    good[3] = rawbam.record(lie.pop("name", b"read3"), pos=103, **lie)
    path.write_bytes(rawbam.bgzf(rawbam.stream(good)))
    return path


LYING_FIELDS = {
    "negative block_size": ({"block_size": -5}, "block_size"),
    "undersized block_size": ({"block_size": 20}, "block_size"),
    "n_cigar 60000": ({"n_cigar": 60000}, "n_cigar"),
    "l_seq +huge": ({"l_seq": (1 << 31) - 1}, "l_seq"),
    "l_seq -huge": ({"l_seq": -(1 << 31) + 7}, "l_seq"),
    "l_read_name 0": ({"l_read_name": 0}, "l_read_name"),
    "non-ASCII name": ({"name": b"re\xe9d3"}, "ASCII"),
}


@pytest.mark.parametrize("case", sorted(LYING_FIELDS))
def test_bam_lying_length_fields_give_typed_errors(tmp_path, case):
    """Every reader of BAM records — the record iterator, the raw-slab
    preprocessor for all three stores, ``repro validate`` — names the
    field in a BamFormatError; never ``struct.error`` or
    ``UnicodeDecodeError``, never a slurp of the rest of the file."""
    import time

    from repro.core.bam_converter import preprocess_bam
    from repro.tools import validate_file
    lie, named = LYING_FIELDS[case]
    bam = _mutated_bam(tmp_path / "lie.bam", **lie)
    t0 = time.perf_counter()
    with pytest.raises(BamFormatError, match=named):
        with BamReader(bam) as reader:
            list(reader)
    for kind, kwargs in (("bamx", {}), ("bamz", {"compress": True}),
                         ("bamc", {"store_format": "bamc"})):
        with pytest.raises(BamFormatError, match=named):
            preprocess_bam(bam, tmp_path / f"s.{kind}", **kwargs)
    with pytest.raises(BamFormatError, match=named):
        validate_file(bam)
    assert time.perf_counter() - t0 < 5.0
    assert sorted(os.listdir(tmp_path)) == ["lie.bam"]


@pytest.mark.parametrize("defect", ["flipped byte", "zero-length op"])
@pytest.mark.parametrize("kwargs", [{}, {"compress": True},
                                    {"store_format": "bamc"}],
                         ids=["bamx", "bamz", "bamc"])
def test_failed_preprocess_leaves_no_store_behind(tmp_path, kwargs,
                                                  defect):
    """A BAM that fails mid-stream — a corrupt last block, or a record
    only the *write* pass rejects — used to leave a truncated but
    valid-looking store in the work dir, reusable through ``--bamx``."""
    import struct

    from repro.core.bam_converter import preprocess_bam
    from tests import rawbam
    records = [rawbam.record(b"read%d" % i, pos=100 + i)
               for i in range(10)]
    if defect == "zero-length op":
        records.append(rawbam.record(cigar=struct.pack("<I", 0)))
    blob = bytearray(rawbam.bgzf(rawbam.stream(records), block=300))
    if defect == "flipped byte":
        blob[-28 - 20] ^= 0xFF  # in the last data block, before EOF
    bam = tmp_path / "in.bam"
    bam.write_bytes(bytes(blob))
    work = tmp_path / "work"
    work.mkdir()
    with pytest.raises(ReproError):
        preprocess_bam(bam, work / "in.store", batch_size=4, **kwargs)
    assert os.listdir(work) == []


# --- A hostile BGZF container under parallel preprocessing ----------------

def _container():
    """A 12-record BAM in 150-byte blocks and its block starts."""
    from tests import rawbam
    records = [rawbam.record(b"read%d" % i, pos=100 + i)
               for i in range(12)]
    blob = rawbam.bgzf(rawbam.stream(records), block=150)
    starts, at = [], 0
    while at < len(blob):
        starts.append(at)
        at += int.from_bytes(blob[at + 16:at + 18], "little") + 1
    return blob, starts


def _patched(at, value, width=2):
    def defect(blob, starts):
        at_ = at(starts) if callable(at) else at
        return blob[:at_] + value.to_bytes(width, "little") \
            + blob[at_ + width:]
    return defect


#: defect -> (blob, block starts) -> damaged blob.  The first four are
#: refused by the scan (no spool is sized from them), the rest by the
#: rank that inflates the block — the last data block, rank 1's.
HOSTILE_CONTAINERS = {
    "BSIZE past EOF": _patched(lambda s: s[-2] + 16, 0xFFFF),
    "BSIZE below an empty block": _patched(lambda s: s[2] + 16, 19),
    "BSIZE into the next block": lambda blob, s: _patched(
        s[1] + 16, s[2] - s[1] + 30 - 1)(blob, s),
    "ISIZE above 64 KiB": _patched(lambda s: s[-1] - 4, 70_000, 4),
    "ISIZE off by one": _patched(lambda s: s[-1] - 4, 99, 4),
    "CRC flip in rank 1": lambda blob, s: blob[:s[-1] - 8] + bytes(
        [blob[s[-1] - 8] ^ 1]) + blob[s[-1] - 7:],
    "truncated last block": lambda blob, s: blob[:-9],
    "garbage after EOF": lambda blob, s: blob + b"\x00garbage",
}


@pytest.mark.parametrize("nprocs, executor", [
    (1, "simulate"), (2, "thread"), (2, "process")])
@pytest.mark.parametrize("defect", sorted(HOSTILE_CONTAINERS))
def test_hostile_container_gives_typed_errors(tmp_path, defect, nprocs,
                                              executor):
    """Lying ``BSIZE``/``ISIZE``, a bad CRC, a cut-off or over-long file:
    ``BgzfError`` at any rank count, quickly, with nothing left in the
    work dir — no store, no sidecar, no spool, no part — and the shared
    pool good for the next run."""
    import time

    from repro.core.bam_converter import preprocess_bam
    blob, starts = _container()
    bam = tmp_path / "in.bam"
    bam.write_bytes(HOSTILE_CONTAINERS[defect](blob, starts))
    work = tmp_path / "work"
    work.mkdir()
    t0 = time.perf_counter()
    for kwargs in ({}, {"compress": True}, {"store_format": "bamc"}):
        with pytest.raises(BgzfError):
            preprocess_bam(bam, work / "in.store", batch_size=4,
                           nprocs=nprocs, executor=executor, **kwargs)
        assert os.listdir(work) == []
    assert time.perf_counter() - t0 < 5.0
    bam.write_bytes(blob)
    metrics = preprocess_bam(bam, work / "in.bamx", batch_size=4,
                             nprocs=nprocs, executor=executor)
    assert metrics.records == 12
    assert sorted(os.listdir(work)) == [
        "in.bamx", "in.bamx.baix", "in.bamx.baix2"]


@pytest.mark.parametrize("nprocs", [1, 2])
def test_huge_l_seq_in_a_late_slab_sizes_nothing(tmp_path, nprocs):
    """A length field that lies is refused before any capacity — a
    rank's, or the store's — is taken from it: the honest slabs must
    not be laid out in 2 GiB rows first."""
    import time

    from repro.core.bam_converter import preprocess_bam
    bam = _mutated_bam(tmp_path / "lie.bam", l_seq=(1 << 31) - 1)
    t0 = time.perf_counter()
    for kwargs in ({}, {"compress": True}, {"store_format": "bamc"}):
        with pytest.raises(BamFormatError, match="l_seq"):
            preprocess_bam(bam, tmp_path / "s.store", batch_size=2,
                           nprocs=nprocs, **kwargs)
    assert time.perf_counter() - t0 < 5.0
    assert sorted(os.listdir(tmp_path)) == ["lie.bam"]


_FLIP_BLOB, _ = _container()


@given(st.integers(0, len(_FLIP_BLOB) - 1), st.integers(1, 255),
       st.sampled_from([(1, "simulate"), (2, "thread")]))
@settings(max_examples=300, deadline=None)
def test_flipped_container_bytes_give_an_error_or_identical_stores(
        offset, mask, ranks):
    """Any one byte of the *compressed* file flipped: a typed error, or
    (a header field nobody reads: MTIME, XFL, OS) the same stores."""
    import tempfile

    from repro.core.bam_converter import preprocess_bam
    nprocs, executor = ranks
    blob = bytearray(_FLIP_BLOB)
    blob[offset] ^= mask
    with tempfile.TemporaryDirectory() as work:
        bams = {"good": _FLIP_BLOB, "flipped": bytes(blob)}
        stores = {}
        for name, data in bams.items():
            os.mkdir(os.path.join(work, name))
            with open(os.path.join(work, name + ".bam"), "wb") as fh:
                fh.write(data)
            try:
                preprocess_bam(os.path.join(work, name + ".bam"),
                               os.path.join(work, name, "s.bamx"),
                               batch_size=4, nprocs=nprocs,
                               executor=executor)
            except (BgzfError, BamFormatError):
                assert name == "flipped"
                assert os.listdir(os.path.join(work, name)) == []
                return
            stores[name] = {
                f: open(os.path.join(work, name, f), "rb").read()
                for f in sorted(os.listdir(os.path.join(work, name)))}
        assert stores["flipped"] == stores["good"]


# --- BAMX / BAMZ rows whose length fields lie -----------------------------

#: field -> (byte offset in the 32-byte row prefix, struct code, value)
LYING_ROWS = {
    "name_len": (9, "<B", 200),
    "n_cigar": (12, "<H", 60000),
    "l_seq huge": (14, "<i", 1 << 20),
    "l_seq negative": (14, "<i", -1),
    "tag_len": (30, "<H", 60000),
    "end past int32": (4, "<i", (1 << 31) - 1),
}


@pytest.mark.parametrize("kind", ["bamx", "bamz"])
@pytest.mark.parametrize("case", sorted(LYING_ROWS))
def test_row_store_lying_length_fields_give_typed_errors(
        tmp_path, workload, kind, case):
    """A row whose length field exceeds its capacity (or whose end
    leaves int32) used to raise ``struct.error`` or read the
    neighbouring field; the record path and the slab path now share one
    bounds rule and name the record and the file."""
    import struct

    from repro.core import BamConverter
    from repro.formats.bamz import BamzWriter
    from repro.formats.store import column_slabs, open_record_store
    from repro.tools.flagstat import flagstat_store
    _, header, records = workload
    plain = tmp_path / "t.bamx"
    layout = write_bamx(plain, header, records[:20])
    blob = bytearray(plain.read_bytes())
    data_offset = len(blob) - 20 * layout.record_size
    at, code, value = LYING_ROWS[case]
    struct.pack_into(code, blob, data_offset + 13 * layout.record_size + at,
                     value)
    path = tmp_path / f"bad.{kind}"
    if kind == "bamx":
        path.write_bytes(bytes(blob))
    else:
        with BamzWriter(path, header, layout) as writer:
            writer.write_encoded(blob[data_offset:], 20)
    named = rf"bad\.{kind}: record 13: "
    with open_record_store(path) as reader:
        assert len(reader) == 20
        assert reader[12].qname == records[12].qname
        with pytest.raises(BamxFormatError, match=named):
            reader[13]
        with pytest.raises(BamxFormatError, match=named):
            list(reader)
        with pytest.raises(BamxFormatError, match=named):
            list(column_slabs(reader))
        with pytest.raises(BamxFormatError, match=named):
            flagstat_store(reader)
    for pipeline in ("batch", "record"):
        with pytest.raises(BamxFormatError, match=named):
            BamConverter(pipeline=pipeline).convert(
                path, "bed", tmp_path / pipeline)
    with pytest.raises(BamxFormatError, match=named):
        BamConverter().convert_region(
            _indexed(path, header, records[:20]), None,
            f"{records[12].rname}:{records[12].pos + 1}-"
            f"{records[19].pos + 1}", "bed", tmp_path / "region")


def _indexed(store, header, records):
    """Give *store* the BAIX sidecar of *records*; returns *store*."""
    from repro.formats.baix2 import record_columns
    from repro.formats.store import write_indexes
    write_indexes(*record_columns(enumerate(records), header), store)
    return store
