"""Hand-rolled BAM bytes for tests: every field is given raw, so a test
can write exactly the non-canonical or corrupt encodings that
``repro.formats.bam.encode_record`` refuses to produce."""

from __future__ import annotations

import struct

from repro.formats.bgzf import EOF_MARKER, compress_block

REFS = (("chr1", 100_000), ("chr2", 50_000))
HEADER_TEXT = "@HD\tVN:1.6\tSO:unsorted\n" + "".join(
    f"@SQ\tSN:{name}\tLN:{length}\n" for name, length in REFS)

_NYBBLE = {c: i for i, c in enumerate("=ACMGRSVTWYHKDBN")}
_OPS = "MIDNSHP=X"


def cigar_words(text: str) -> bytes:
    """``"5S20M"`` -> packed little-endian CIGAR words."""
    out, n = b"", ""
    for ch in text:
        if ch.isdigit():
            n += ch
        else:
            out += struct.pack("<I", int(n) << 4 | _OPS.index(ch))
            n = ""
    return out


def pack_seq(seq: str, pad: int = 0) -> bytes:
    """4-bit packed bases; *pad* is the low nybble of an odd tail."""
    codes = [_NYBBLE[c] for c in seq] + ([pad] if len(seq) % 2 else [])
    return bytes(a << 4 | b for a, b in zip(codes[::2], codes[1::2]))


def record(name: bytes = b"r", ref_id: int = 0, pos: int = 100,
           mapq: int = 30, cigar: bytes | None = None, flag: int = 0,
           seq: bytes | None = None, l_seq: int | None = None,
           qual: bytes | None = None, next_ref: int = -1,
           next_pos: int = -1, tlen: int = 0, tags: bytes = b"",
           n_cigar: int | None = None, l_read_name: int | None = None,
           block_size: int | None = None, bin_no: int = 4680) -> bytes:
    """One alignment block; the length fields default to the truth and
    can be overridden to lie."""
    if seq is None:
        seq, l_seq_true = pack_seq("ACGTACGTAC"), 10
    else:
        l_seq_true = len(seq) * 2 if l_seq is None else l_seq
    cigar = cigar_words(f"{l_seq_true}M") if cigar is None else cigar
    qual = bytes([30] * l_seq_true) if qual is None else qual
    name = name + b"\x00"
    body = struct.pack(
        "<iiBBHHHiiii", ref_id, pos,
        len(name) if l_read_name is None else l_read_name, mapq, bin_no,
        len(cigar) // 4 if n_cigar is None else n_cigar, flag,
        l_seq_true if l_seq is None else l_seq, next_ref, next_pos,
        tlen) + name + cigar + seq + qual + tags
    return struct.pack(
        "<i", len(body) if block_size is None else block_size) + body


def stream(records: list[bytes], header_text: str = HEADER_TEXT,
           refs: tuple = REFS) -> bytes:
    """The uncompressed BAM byte stream: header, then *records*."""
    text = header_text.encode("ascii")
    out = b"BAM\x01" + struct.pack("<i", len(text)) + text \
        + struct.pack("<i", len(refs))
    for name, length in refs:
        raw = name.encode("ascii") + b"\x00"
        out += struct.pack("<i", len(raw)) + raw + struct.pack("<i", length)
    return out + b"".join(records)


def bgzf(data: bytes, block: int = 0xFF00, empty_after: int | None = None,
         eof: bool = True) -> bytes:
    """BGZF-compress *data* in blocks of *block* bytes; optionally put
    an empty block after block number *empty_after* and/or leave the
    EOF marker off."""
    out = []
    for k, off in enumerate(range(0, len(data), block)):
        out.append(compress_block(data[off:off + block]))
        if k == empty_after:
            out.append(EOF_MARKER)
    return b"".join(out) + (EOF_MARKER if eof else b"")


def record_starts(data: bytes) -> list[int]:
    """Offsets of every alignment's ``block_size`` in a stream made by
    :func:`stream` (walks the chain; the stream must be well-formed)."""
    (l_text,) = struct.unpack_from("<i", data, 4)
    off = 8 + l_text
    (n_ref,) = struct.unpack_from("<i", data, off)
    off += 4
    for _ in range(n_ref):
        (l_name,) = struct.unpack_from("<i", data, off)
        off += 8 + l_name
    starts = []
    while off < len(data):
        starts.append(off)
        off += 4 + struct.unpack_from("<i", data, off)[0]
    return starts
