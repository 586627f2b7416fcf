"""Record-free BAM preprocessing against its oracle, the record path.

``preprocess_bam`` moves slabs of raw BAM bytes into the stores; the
record path (``plan_layout`` + ``write_batch`` + ``build``) is what it
replaced and what a non-canonical slab still takes.  Whatever the input
— hand-made corner cases, hypothesis-made records, flipped bytes — both
must write byte-identical ``.bamx``, ``.bamz`` + ``.bzi``, ``.bamc``,
``.baix`` and ``.baix2``, or both must refuse with a ``ReproError``.
"""

import os
import struct
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bam_converter import preprocess_bam
from repro.errors import ReproError
from repro.formats import bgzf
from repro.formats.baix import BaixIndex
from repro.formats.baix2 import BaixOverlapIndex
from repro.formats.bam import BamReader, write_bam
from repro.formats.bamx import plan_layout
from repro.formats.store import open_store_writer
from tests import rawbam

KINDS = {"bamx": {}, "bamz": {"compress": True},
         "bamc": {"store_format": "bamc"}}


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def raw_path(bam, out_dir, kind, batch_size, **ranks):
    """``preprocess_bam`` (on *ranks*: ``nprocs``, ``executor``);
    returns ``(files, fallbacks)``."""
    os.makedirs(out_dir)
    metrics = preprocess_bam(bam, os.path.join(out_dir, f"s.{kind}"),
                             batch_size=batch_size, **KINDS[kind], **ranks)
    return _files(out_dir), metrics.fallbacks


def record_path(bam, out_dir, kind, batch_size):
    """The oracle: every record decoded, the stores written from
    records through the public record-level API."""
    os.makedirs(out_dir)
    store = os.path.join(out_dir, f"s.{kind}")
    with BamReader(bam) as reader:
        header, records = reader.header, list(reader)
    with open_store_writer(store, header, plan_layout(records),
                           slab_records=batch_size,
                           **KINDS[kind]) as writer:
        for i in range(0, len(records), batch_size):
            writer.write_batch(records[i:i + batch_size])
    BaixIndex.build(enumerate(records), header).save(store + ".baix")
    BaixOverlapIndex.build(enumerate(records), header).save(
        store + ".baix2")
    return _files(out_dir)


def outcome(fn, *args, **kwargs):
    """The files a path wrote, or how it refused."""
    try:
        return fn(*args, **kwargs)
    except ReproError:
        return "ReproError"


def assert_equivalent(work, blob, batch_size, fallbacks=None, **ranks):
    """Both paths agree on *blob* (a whole BAM file) for every store,
    the raw path running on *ranks*; returns the raw path's outcome for
    the last store."""
    bam = os.path.join(work, "in.bam")
    with open(bam, "wb") as fh:
        fh.write(blob)
    for kind in KINDS:
        tag = f"{kind}-{batch_size}"
        expected = outcome(record_path, bam, os.path.join(
            work, f"rec-{tag}"), kind, batch_size)
        got = outcome(raw_path, bam, os.path.join(work, f"raw-{tag}"),
                      kind, batch_size, **ranks)
        if expected == "ReproError":
            assert got == "ReproError", kind
            assert os.listdir(os.path.join(work, f"raw-{tag}")) == []
            continue
        files, seen_fallbacks = got
        assert sorted(files) == sorted(expected), kind
        for name in expected:
            assert files[name] == expected[name], (kind, name)
        if fallbacks is not None:
            assert seen_fallbacks == fallbacks, kind
    return got


# -- the hand-made corner set ------------------------------------------

def _int_tag(name, code, fmt, value):
    return name + code + struct.pack("<" + fmt, value)


#: Canonical records: everything the decode -> encode round trip leaves
#: as it is, after the in-place same-size normalizations.
CANONICAL = [
    rawbam.record(b"plain", tags=b"RGZgrp1\x00"),
    rawbam.record(b"star", seq=b"", l_seq=0, qual=b"", cigar=b"",
                  ref_id=-1, pos=-1, flag=4),
    rawbam.record(b"noqual", qual=b"\xff" * 10),
    rawbam.record(b"dirty-pad", seq=rawbam.pack_seq("ACGTA", pad=0xF),
                  l_seq=5, tags=b"XAAq"),
    rawbam.record(b"placed-no-cigar", cigar=b"", pos=4242, ref_id=1),
    rawbam.record(b"negatives", ref_id=-7, pos=-9, next_ref=-3,
                  next_pos=-2, flag=4),
    rawbam.record(b"mate", ref_id=1, pos=70, next_ref=1, next_pos=300,
                  tlen=330, flag=99, cigar=rawbam.cigar_words("2S3M1I2M1D2M")),
    # htslib prefers unsigned codes; same width, so still canonical.
    rawbam.record(b"htslib-ints", tags=_int_tag(b"NM", b"C", "B", 5)
                  + _int_tag(b"XS", b"S", "H", 300)
                  + _int_tag(b"XI", b"I", "I", 70_000)
                  + _int_tag(b"XJ", b"I", "I", 3_000_000_000)
                  + _int_tag(b"Xs", b"s", "h", -300)
                  + _int_tag(b"Xc", b"c", "b", -5)),
    rawbam.record(b"arrays", tags=b"XBBc" + struct.pack("<i3b", 3, -1, 0, 1)
                  + b"XCBS" + struct.pack("<i2H", 2, 7, 65535)
                  + b"XEBI" + struct.pack("<i", 0)),
    rawbam.record(b"floats-strings",
                  tags=b"XFf" + struct.pack("<f", 1.5) + b"XZZ\x00"
                  + b"MDZ10A5^AC6\x00"),
    rawbam.record(b"x" * 254, mapq=255, flag=0xFFFF, tlen=-(1 << 31)),
]

#: One record each that the round trip would change: the slab holding
#: it must take the record path.
NON_CANONICAL = {
    "i-coded small int": rawbam.record(tags=_int_tag(b"NM", b"i", "i", 5)),
    "S-coded byte": rawbam.record(tags=_int_tag(b"XS", b"S", "H", 200)),
    "s-coded byte": rawbam.record(tags=_int_tag(b"XS", b"s", "h", -3)),
    "lowercase H": rawbam.record(tags=b"XHH1a2b\x00"),
    "float array": rawbam.record(
        tags=b"XBBf" + struct.pack("<i2f", 2, 0.5, 2.0)),
    "signalling NaN": rawbam.record(tags=b"XFf\x01\x00\x80\x7f"),
    "qual above 222": rawbam.record(qual=bytes([30] * 9 + [240])),
    "qual partly 0xFF": rawbam.record(qual=bytes([0xFF] * 9 + [30])),
    "negative B count": rawbam.record(
        tags=b"XBBc" + struct.pack("<i", -2)),
}

#: One record each that no path may accept.
CORRUPT = {
    "ref id beyond header": rawbam.record(ref_id=2),
    "mate ref beyond header": rawbam.record(next_ref=9),
    "cigar op 9": rawbam.record(cigar=struct.pack("<I", 10 << 4 | 9)),
    "zero-length cigar op": rawbam.record(cigar=struct.pack("<I", 0)),
    "unknown tag code": rawbam.record(tags=b"XXq\x00"),
    "unterminated Z": rawbam.record(tags=b"XZZabc"),
    "truncated int tag": rawbam.record(tags=b"NMi\x01\x00"),
    "truncated B array": rawbam.record(
        tags=b"XBBi" + struct.pack("<i", 4) + b"\x00" * 5),
    "non-ASCII Z": rawbam.record(tags=b"XZZ\xe9\x00"),
    "non-ASCII tag name": rawbam.record(tags=b"\xe9Zc\x01"),
    "non-ASCII A": rawbam.record(tags=b"XAA\xe9"),
    "odd hex": rawbam.record(tags=b"XHH1a2\x00"),
    "name without NUL": rawbam.record(b"abc")[:39] + b"X"
    + rawbam.record(b"abc")[40:],
}


@pytest.mark.parametrize("batch_size", [1, 3, 4096])
def test_canonical_corner_set_never_falls_back(tmp_path, batch_size):
    blob = rawbam.bgzf(rawbam.stream(CANONICAL))
    assert_equivalent(str(tmp_path), blob, batch_size, fallbacks=0)


@pytest.mark.parametrize("case", sorted(NON_CANONICAL))
def test_non_canonical_record_sends_its_slab_to_the_record_path(
        tmp_path, case):
    # Slabs of 3: the odd record sits alone in the last one.
    records = CANONICAL[:9] + [NON_CANONICAL[case]]
    blob = rawbam.bgzf(rawbam.stream(records))
    assert_equivalent(str(tmp_path), blob, 3, fallbacks=1)


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_record_is_refused_by_both_paths(tmp_path, case):
    records = CANONICAL[:4] + [CORRUPT[case]] + CANONICAL[4:6]
    blob = rawbam.bgzf(rawbam.stream(records))
    assert assert_equivalent(str(tmp_path), blob, 3) == "ReproError"


def test_header_only_bam(tmp_path):
    files, fallbacks = assert_equivalent(
        str(tmp_path), rawbam.bgzf(rawbam.stream([])), 4096, fallbacks=0)
    assert len(files["s.bamc.baix"]) == len(b"BAIX\x01") + 8


@pytest.mark.parametrize("batch_size", [1, 3, 4096])
def test_records_straddling_bgzf_blocks(tmp_path, batch_size):
    """113-byte blocks cut every record (and most fixed prefixes) in
    two; an empty block sits mid-stream and the EOF marker is missing."""
    data = rawbam.stream(CANONICAL * 3)
    blob = rawbam.bgzf(data, block=113, empty_after=7, eof=False)
    assert_equivalent(str(tmp_path), blob, batch_size, fallbacks=0)


def _long_reads(count, n=280_001):
    return [
        rawbam.record(b"long%d" % i, seq=bytes([0x12 + i]) * ((n + 1) // 2),
                      l_seq=n, qual=bytes([i + 1]) * n,
                      cigar=rawbam.cigar_words(f"{n}M"), pos=i)
        for i in range(count)]


def test_records_straddling_read_chunks(tmp_path):
    """Records of ~0.4 MiB: each 1 MiB read of ``iter_raw_slabs`` ends
    inside one, and a slab of two spans three reads."""
    blob = rawbam.bgzf(rawbam.stream(_long_reads(7) + CANONICAL))
    for batch_size in (2, 4096):
        assert_equivalent(str(tmp_path), blob, batch_size, fallbacks=0)


def test_fallback_slabs_are_counted_one_by_one(tmp_path):
    odd = NON_CANONICAL["i-coded small int"]
    records = [odd] + CANONICAL[:5] + [odd, odd] + CANONICAL[5:9] + [odd]
    blob = rawbam.bgzf(rawbam.stream(records))
    # Slabs of 3: [odd c c] [c c c] [odd odd c] [c c c] [odd] -> 3.
    assert_equivalent(str(tmp_path), blob, 3, fallbacks=3)
    assert_equivalent(str(tmp_path), blob, 4096, fallbacks=1)


def test_truncated_tail_is_refused(tmp_path):
    data = rawbam.stream(CANONICAL)
    for cut in (1, 3, 40):
        work = tmp_path / str(cut)
        work.mkdir()
        assert assert_equivalent(
            str(work), rawbam.bgzf(data[:-cut]), 3) == "ReproError"


# -- ranks: every cut between two of them is a seam --------------------

EXECUTORS = ["simulate", "thread", "process"]


def _blocks(data, cuts, empty_at=None, eof=True):
    """*data* as BGZF blocks cut exactly at *cuts*, with an empty block
    in front of block number *empty_at*."""
    bounds = [0, *cuts, len(data)]
    blocks = [bgzf.compress_block(data[a:b])
              for a, b in zip(bounds, bounds[1:])]
    if empty_at is not None:
        blocks.insert(empty_at, bgzf.EOF_MARKER)
    return b"".join(blocks) + (bgzf.EOF_MARKER if eof else b"")


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("nprocs", [1, 2, 3, 5])
def test_rank_matrix_writes_identical_stores(tmp_path, nprocs, executor):
    """3 stores x ranks x executors x slab sizes x block sizes: the
    same bytes as the record path.  113-byte blocks put every rank cut
    inside a record, with an empty block mid-stream and no EOF marker;
    64 KiB blocks leave fewer blocks (one) than ranks."""
    data = rawbam.stream(CANONICAL * 3)
    for block, extra in ((113, {"empty_after": 7, "eof": False}),
                         (0xFF00, {})):
        for batch_size in (3, 4096):
            work = tmp_path / f"{block}-{batch_size}"
            work.mkdir()
            assert_equivalent(str(work), rawbam.bgzf(data, block, **extra),
                              batch_size, fallbacks=0, nprocs=nprocs,
                              executor=executor)


_SEAM_DATA = rawbam.stream(CANONICAL * 3)
_SEAM_RECORD = rawbam.record_starts(_SEAM_DATA)[16]
#: name -> (block cuts, empty block in front of block, EOF marker, ranks)
SEAMS = {
    "between two records": ([_SEAM_RECORD], None, True, 2),
    "inside a block_size": ([_SEAM_RECORD + 2], None, True, 2),
    "inside the fixed prefix": ([_SEAM_RECORD + 20], None, True, 2),
    "inside a record body": ([_SEAM_RECORD + 50], None, True, 2),
    "on an empty block": ([_SEAM_RECORD + 20], 1, True, 3),
    "inside a multi-block header": (
        [10, 41, rawbam.record_starts(_SEAM_DATA)[0] - 3], None, True, 4),
    "more ranks than blocks": ([_SEAM_RECORD + 20], None, True, 5),
    "no EOF marker": ([_SEAM_RECORD + 2], None, False, 2),
}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("seam", sorted(SEAMS))
def test_cut_between_ranks_can_fall_anywhere(tmp_path, seam, executor):
    cuts, empty_at, eof, nprocs = SEAMS[seam]
    blob = _blocks(_SEAM_DATA, cuts, empty_at, eof)
    for batch_size in (3, 4096):
        work = tmp_path / str(batch_size)
        work.mkdir()
        assert_equivalent(str(work), blob, batch_size, fallbacks=0,
                          nprocs=nprocs, executor=executor)


def test_record_longer_than_a_rank_range(tmp_path):
    """16 ranks over ~1.3 MiB of 64 KiB blocks: every 0.4 MiB record
    is spread over the ranges of five ranks."""
    blob = rawbam.bgzf(rawbam.stream(_long_reads(3) + CANONICAL))
    assert_equivalent(str(tmp_path), blob, 2, fallbacks=0, nprocs=16,
                      executor="thread")


def test_fallback_slabs_are_counted_across_ranks(tmp_path):
    odd = NON_CANONICAL["i-coded small int"]
    records = [odd] + CANONICAL[:5] + [odd, odd] + CANONICAL[5:9] + [odd]
    blob = rawbam.bgzf(rawbam.stream(records), block=113)
    # Slabs of 3 over 3 ranks: [odd c c] [c c c] | [odd odd c] [c c c]
    # | [odd].
    assert_equivalent(str(tmp_path), blob, 3, fallbacks=3, nprocs=3,
                      executor="process")


# -- capacities: each slab under its own, the store under everyone's ----

def _inflations(monkeypatch):
    """Count ``decompress_block`` calls from here on."""
    calls = []
    real = bgzf.decompress_block

    def counting(block):
        calls.append(len(block))
        return real(block)

    monkeypatch.setattr(bgzf, "decompress_block", counting)
    return calls


def _growing(count, grow):
    """Records whose name, CIGAR, sequence and tags are longest where
    ``grow(i)`` is largest."""
    def record(i):
        k = grow(i)
        return rawbam.record(
            b"n" * (1 + k), pos=100 + i, seq=rawbam.pack_seq("ACGT" * (2 + k)),
            l_seq=8 + 4 * k, cigar=rawbam.cigar_words("1M1I" * k + "6M"),
            qual=bytes([30]) * (8 + 4 * k), tags=b"XZZ" + b"t" * k + b"\x00")
    return [record(i) for i in range(count)]


@pytest.mark.parametrize("nprocs, executor", [(1, "simulate"), (2, "thread")])
@pytest.mark.parametrize("case", ["slab 0 holds the maxima",
                                  "first grow in the last slab",
                                  "grow in every slab",
                                  "the longest tags shrink in a fallback"])
def test_capacities_and_inflations(tmp_path, monkeypatch, case, nprocs,
                                   executor):
    """Wherever the maxima sit, the stores are the record path's — rows
    encoded under their slab's capacities are re-laid under the
    store's — and every BGZF block is inflated exactly once to get
    there, for every store."""
    records = _growing(12, {
        "slab 0 holds the maxima": lambda i: 11 - i,
        "first grow in the last slab": lambda i: 5 * (i == 10),
        "grow in every slab": lambda i: i,
        "the longest tags shrink in a fallback": lambda i: 0}[case])
    fallbacks = 0
    if case == "the longest tags shrink in a fallback":
        # The longest tag block is i-coded; re-encoded it is c-coded,
        # three bytes shorter, and no longer the longest.
        records[7] = rawbam.record(tags=_int_tag(b"NM", b"i", "i", 5))
        fallbacks = 1
    blob = rawbam.bgzf(rawbam.stream(records), block=113)
    n_blocks = len(bgzf.scan_blocks(_write(tmp_path / "probe.bam", blob))[1])
    assert_equivalent(str(tmp_path), blob, 3, fallbacks=fallbacks,
                      nprocs=nprocs, executor=executor)
    for kind in KINDS:
        calls = _inflations(monkeypatch)
        metrics = preprocess_bam(
            tmp_path / "in.bam", tmp_path / f"counted.{kind}", batch_size=3,
            nprocs=nprocs, executor=executor, **KINDS[kind])
        assert len(calls) == n_blocks, kind
        assert metrics.bytes_read == len(blob)
        monkeypatch.undo()


def _write(path, blob):
    path.write_bytes(blob)
    return path


# -- hypothesis: generated records, then flipped bytes -------------------

_TAGS = st.lists(st.one_of(
    st.builds(_int_tag, st.just(b"NM"), st.sampled_from([b"c", b"C"]),
              st.just("B"), st.integers(0, 127)),
    st.builds(_int_tag, st.just(b"XS"), st.sampled_from([b"s", b"S"]),
              st.just("H"), st.integers(0, 32767)),
    st.builds(_int_tag, st.just(b"XI"), st.sampled_from([b"i", b"I"]),
              st.just("I"), st.integers(0, (1 << 31) - 1)),
    st.builds(lambda s: b"RGZ" + s + b"\x00",
              st.binary(max_size=6).map(lambda b: bytes(
                  c % 94 + 33 for c in b))),
    st.builds(lambda h: b"XHH" + h + b"\x00",
              st.sampled_from([b"", b"1A", b"1a", b"FF00"])),
    st.builds(lambda v: b"XFf" + struct.pack("<f", v),
              st.floats(width=32, allow_nan=False)),
    st.builds(lambda vs: b"XBBs" + struct.pack(f"<i{len(vs)}h", len(vs),
                                               *vs),
              st.lists(st.integers(-9, 9), max_size=3)),
), max_size=3).map(b"".join)


@st.composite
def raw_records(draw):
    bases = draw(st.text(alphabet="ACGTN=", max_size=9))
    cigar = draw(st.sampled_from(
        ["", f"{len(bases) + 1}M", "1S2M1D3M", "4M2N4M", "3=1X"]))
    return rawbam.record(
        name=draw(st.binary(min_size=1, max_size=8).map(
            lambda b: bytes(c % 94 + 33 for c in b))),
        ref_id=draw(st.integers(-2, 1)), pos=draw(st.integers(-2, 90_000)),
        mapq=draw(st.integers(0, 255)), flag=draw(st.integers(0, 0xFFF)),
        cigar=rawbam.cigar_words(cigar),
        seq=rawbam.pack_seq(bases, pad=draw(st.integers(0, 15))),
        l_seq=len(bases),
        qual=draw(st.sampled_from([b"\xff", b"\x1e", b"\x5d"])) * len(bases),
        next_ref=draw(st.integers(-2, 1)),
        next_pos=draw(st.integers(-2, 90_000)),
        tlen=draw(st.integers(-500, 500)), tags=draw(_TAGS))


@given(st.lists(raw_records(), max_size=9),
       st.sampled_from([1, 2, 4, 4096]), st.sampled_from([61, 0xFF00]))
@settings(max_examples=150, deadline=None)
def test_generated_bams_are_equivalent(records, batch_size, block):
    blob = rawbam.bgzf(rawbam.stream(records), block=block)
    with tempfile.TemporaryDirectory() as work:
        assert assert_equivalent(work, blob, batch_size) != "ReproError"


_FLIP_BASE = rawbam.stream(CANONICAL)
_FLIP_FROM = rawbam.record_starts(_FLIP_BASE)[0]


@given(st.integers(_FLIP_FROM, len(_FLIP_BASE) - 1), st.integers(1, 255))
@settings(max_examples=400, deadline=None)
def test_flipped_body_bytes_give_an_error_or_identical_stores(offset, mask):
    data = bytearray(_FLIP_BASE)
    data[offset] ^= mask
    with tempfile.TemporaryDirectory() as work:
        assert_equivalent(work, rawbam.bgzf(bytes(data)), 4)


# -- memory ------------------------------------------------------------

def test_peak_memory_is_bounded_by_a_slab_not_by_the_file(
        tmp_path, workload):
    """Nothing per-record outlives its slab but four index integers:
    four times the records must not need much more memory."""
    _, header, records = workload

    def peak(n):
        bam = str(tmp_path / f"n{n}.bam")
        write_bam(bam, header, (records * (n // len(records) + 1))[:n],
                  level=1)
        tracemalloc.start()
        try:
            preprocess_bam(bam, str(tmp_path / f"n{n}.bamx"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40_000) <= 1.3 * peak(10_000)


def test_peak_memory_is_bounded_by_a_slab_a_rank(tmp_path, workload):
    """Two thread ranks at once hold two slabs, not the file: no stage
    buffers its whole input, and what a rank returns is four integers a
    record.  (Both sizes give each rank full slabs; below 16 384 records
    the second rank's would be short.)"""
    _, header, records = workload

    def peak(n):
        bam = str(tmp_path / f"n{n}.bam")
        write_bam(bam, header, (records * (n // len(records) + 1))[:n],
                  level=1)
        tracemalloc.start()
        try:
            preprocess_bam(bam, str(tmp_path / f"n{n}.bamx"), nprocs=2,
                           executor="thread")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(80_000) <= 1.3 * peak(20_000)
