"""BAM binary format (SAM spec §4): reader and writer over BGZF.

The writer encodes :class:`~repro.formats.record.AlignmentRecord` to the
exact on-disk layout (little-endian, 4-bit packed sequence, packed CIGAR,
binary tags); the reader is the inverse.  Record virtual offsets are
surfaced so BAI construction and the paper's sequential-preprocessing
phase can be built on top.

Like BamTools — the C++ library the paper wraps — this reader decodes
the stream *sequentially*.  BGZF blocks can be found and inflated in any
order, but records carry no delimiter: a record starts where the one
before it ends, so record boundaries only come from walking the
``block_size`` chain front to back (:func:`raw_slabs`) — which is what
the paper's BAM converter needs its preprocessing phase for, and all of
it that has to stay serial.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from ..errors import BamFormatError, BgzfError
from .bamc import ColumnSlab
from .bgzf import BgzfReader, BgzfWriter
from .binning import reg2bin, reg2bin_array
from .cigar import REF_CONSUMING_CODE, decode_ops, encode_ops
from .header import Reference, SamHeader
from .ragged import ragged_index, segment_sums
from .record import UNMAPPED_POS, AlignmentRecord
from .seq import pack_sequence, qual_bytes_to_text, qual_text_to_bytes, \
    unpack_sequence
from .tags import canonical_tag_blocks, decode_tags, encode_tags

MAGIC = b"BAM\x01"

_BLOCK_SIZE = struct.Struct("<i")
_FIXED = struct.Struct("<iiBBHHHiiii")  # refID..tlen after block_size

#: ``block_size`` plus the fixed fields as one 36-byte numpy dtype.
_RAW_DTYPE = np.dtype([
    ("block_size", "<i4"), ("ref_id", "<i4"), ("pos", "<i4"),
    ("l_read_name", "u1"), ("mapq", "u1"), ("bin", "<u2"),
    ("n_cigar", "<u2"), ("flag", "<u2"), ("l_seq", "<i4"),
    ("next_ref", "<i4"), ("next_pos", "<i4"), ("tlen", "<i4")])


def check_record_bounds(block_size: int, l_read_name: int = 1,
                        n_cigar: int = 0, l_seq: int = 0) -> None:
    """Raise :class:`BamFormatError` naming the first length field that
    cannot be true of a record body of *block_size* bytes.  Every
    reader calls this before a read or a slice trusts the field."""
    room = block_size - _FIXED.size - l_read_name - 4 * n_cigar
    if block_size < _FIXED.size:
        field = f"block_size {block_size} (< {_FIXED.size} fixed bytes)"
    elif l_read_name < 1:
        field = "l_read_name 0 (no room for the NUL)"
    elif room < 0:
        field = f"l_read_name {l_read_name} / n_cigar {n_cigar}"
    elif not 0 <= l_seq + (l_seq + 1) // 2 <= room:
        field = f"l_seq {l_seq}"
    else:
        return
    raise BamFormatError(f"corrupt BAM alignment record: {field} does "
                         f"not fit a block_size of {block_size}")


def encode_record(record: AlignmentRecord, header: SamHeader) -> bytes:
    """Encode one alignment to its BAM byte representation, including the
    leading ``block_size`` field."""
    ref_id, next_ref = header.ref_ids(record.rname, record.rnext)
    name = record.qname.encode("ascii") + b"\x00"
    if len(name) > 255:
        raise BamFormatError(f"QNAME {record.qname!r} longer than 254 bytes")
    cigar_words = encode_ops(record.cigar)
    seq = b"" if record.seq == "*" else pack_sequence(record.seq)
    l_seq = 0 if record.seq == "*" else len(record.seq)
    if record.qual == "*":
        qual = b"\xff" * l_seq
    else:
        if len(record.qual) != l_seq:
            raise BamFormatError(
                f"QUAL length {len(record.qual)} != SEQ length {l_seq}")
        qual = qual_text_to_bytes(record.qual)
    tag_block = encode_tags(record.tags)
    bin_no = reg2bin(record.pos, record.end) if record.pos != UNMAPPED_POS \
        else 4680
    fixed = _FIXED.pack(
        ref_id,
        record.pos,
        len(name),
        record.mapq,
        bin_no,
        len(cigar_words),
        record.flag,
        l_seq,
        next_ref,
        record.pnext,
        record.tlen,
    )
    body = (fixed + name
            + struct.pack(f"<{len(cigar_words)}I", *cigar_words)
            + seq + qual + tag_block)
    return struct.pack("<i", len(body)) + body


def decode_record(body: bytes, header: SamHeader) -> AlignmentRecord:
    """Decode one alignment from its BAM body (without ``block_size``)."""
    check_record_bounds(len(body))
    (ref_id, pos, l_read_name, mapq, _bin, n_cigar, flag, l_seq,
     next_ref, next_pos, tlen) = _FIXED.unpack_from(body, 0)
    check_record_bounds(len(body), l_read_name, n_cigar, l_seq)
    off = _FIXED.size
    name = body[off:off + l_read_name - 1].decode("latin-1")
    if not name.isascii():
        raise BamFormatError(f"read name {name!r} is not ASCII")
    if body[off + l_read_name - 1] != 0:
        raise BamFormatError("read name is not NUL-terminated")
    off += l_read_name
    cigar_words = struct.unpack_from(f"<{n_cigar}I", body, off)
    off += 4 * n_cigar
    seq_bytes = (l_seq + 1) // 2
    seq = unpack_sequence(body[off:off + seq_bytes], l_seq) if l_seq else "*"
    off += seq_bytes
    qual_raw = body[off:off + l_seq]
    off += l_seq
    if l_seq == 0 or not qual_raw.strip(b"\xff"):
        qual = "*"
    else:
        qual = qual_bytes_to_text(qual_raw)
    tags = decode_tags(body[off:])
    if pos > 1 << 30 \
            and pos + max(1, sum(w >> 4 for w in cigar_words)) >= 1 << 31:
        raise BamFormatError(f"alignment at pos {pos} ends beyond 2^31")
    rname, rnext = header.ref_names(ref_id, next_ref)
    return AlignmentRecord(
        qname=name,
        flag=flag,
        rname=rname,
        pos=pos if pos >= 0 else UNMAPPED_POS,
        mapq=mapq,
        cigar=decode_ops(list(cigar_words)),
        rnext=rnext,
        pnext=next_pos if next_pos >= 0 else UNMAPPED_POS,
        tlen=tlen,
        seq=seq,
        qual=qual,
        tags=tags,
    )


def header_bytes(header: SamHeader) -> bytes:
    """The BAM header block: magic, header text, reference list."""
    text = header.to_text().encode("ascii")
    return b"".join([
        MAGIC, struct.pack("<i", len(text)), text,
        struct.pack("<i", len(header.references)),
        *(struct.pack("<i", len(ref.name) + 1) + ref.name.encode("ascii")
          + b"\0" + struct.pack("<i", ref.length)
          for ref in header.references)])


class BamWriter:
    """Write a BAM file: header block, then alignments in call order."""

    def __init__(self, target: str | os.PathLike[str], header: SamHeader,
                 level: int = 6) -> None:
        self._bgzf = BgzfWriter(target, level=level)
        self.header = header
        self._bgzf.write(header_bytes(header))

    def __enter__(self) -> "BamWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write(self, record: AlignmentRecord) -> int:
        """Append one record; return the virtual offset where it starts."""
        voffset = self._bgzf.tell()
        self._bgzf.write(encode_record(record, self.header))
        return voffset

    def write_all(self, records: Iterable[AlignmentRecord]) -> int:
        """Append every record; return the count written by this call."""
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def close(self) -> None:
        """Flush blocks, write the BGZF EOF marker, close the file."""
        self._bgzf.close()


def read_header(read: Callable[[int], bytes],
                source_name: str = "<stream>") -> SamHeader:
    """Parse magic, header text and reference list off an inflated
    stream; ``read(n)`` returns its next *n* bytes, fewer at its end."""
    def exactly(n: int) -> bytes:
        data = read(n)
        if len(data) != n:
            raise BgzfError(
                f"unexpected EOF: wanted {n} bytes, got {len(data)}")
        return data

    if read(4) != MAGIC:
        raise BamFormatError("bad BAM magic", source=source_name)
    (l_text,) = struct.unpack("<i", exactly(4))
    text = exactly(l_text).decode("ascii")
    (n_ref,) = struct.unpack("<i", exactly(4))
    references = []
    for _ in range(n_ref):
        (l_name,) = struct.unpack("<i", exactly(4))
        raw = exactly(l_name)
        (l_ref,) = struct.unpack("<i", exactly(4))
        references.append(Reference(raw[:-1].decode("ascii"), l_ref))
    header = SamHeader.from_text(text.rstrip("\x00"))
    if not header.references:
        # Preserve original header lines (e.g. @PG/@CO) if any.
        built = SamHeader.from_references(references)
        built.lines = header.lines + built.lines[1:]
        return built
    # Consistency: binary reference list must match @SQ lines.
    if [(r.name, r.length) for r in header.references] != \
            [(r.name, r.length) for r in references]:
        raise BamFormatError(
            "binary reference list disagrees with @SQ header lines",
            source=source_name)
    return header


class BamReader:
    """Sequential BAM reader; yields records (or records with offsets)."""

    def __init__(self, source: str | os.PathLike[str]) -> None:
        self._bgzf = BgzfReader(source)
        self.source_name = os.fspath(source) if isinstance(
            source, (str, os.PathLike)) else "<stream>"
        self.header = read_header(self._bgzf.read, self.source_name)
        self._after_header = self._bgzf.tell()

    def __enter__(self) -> "BamReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying BGZF stream."""
        self._bgzf.close()

    def _read_one(self) -> AlignmentRecord | None:
        size_raw = self._bgzf.read(4)
        if not size_raw:
            return None
        if len(size_raw) != 4:
            raise BamFormatError("truncated record length",
                                 source=self.source_name)
        (block_size,) = _BLOCK_SIZE.unpack(size_raw)
        check_record_bounds(block_size)
        body = self._bgzf.read_exactly(block_size)
        return decode_record(body, self.header)

    def __iter__(self) -> Iterator[AlignmentRecord]:
        return iter(self._read_one, None)

    def iter_with_offsets(self) -> Iterator[tuple[int, AlignmentRecord]]:
        """Yield ``(virtual_offset, record)`` pairs for index building."""
        while True:
            voffset = self._bgzf.tell()
            record = self._read_one()
            if record is None:
                return
            yield voffset, record

    def iter_raw_slabs(self, records_per_slab: int,
                       ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """:func:`raw_slabs` over the remaining alignments."""
        return raw_slabs(self._bgzf.read, records_per_slab,
                         self.source_name)

    def seek_virtual(self, voffset: int) -> None:
        """Jump to a record boundary previously obtained from
        :meth:`iter_with_offsets` or an index."""
        self._bgzf.seek_virtual(voffset)

    def rewind(self) -> None:
        """Return to the first alignment record."""
        self._bgzf.seek_virtual(self._after_header)


def raw_slabs(read: Callable[[int], bytes], records_per_slab: int,
              source_name: str = "<stream>",
              ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the alignments of an inflated stream (``read(n)`` returns
    its next bytes, none at its end) as ``(buf, offsets)`` slabs of
    exactly *records_per_slab* whole records (the last may be short):
    *buf* the inflated bytes as a writable ``uint8`` array,
    ``buf[offsets[i]:offsets[i + 1]]`` record *i* from its
    ``block_size`` on.  Only the ``block_size`` chain is walked, in
    1 MiB reads, the unfinished tail carried into the next slab.
    """
    pending, offsets = bytearray(), [0]
    unpack, smallest = _BLOCK_SIZE.unpack_from, _FIXED.size + 1
    while chunk := read(1 << 20):
        pending += chunk
        # The one serial loop of BAM preprocessing: keep it lean.
        end, last = offsets[-1], len(pending) - 4
        while end <= last:
            (block_size,) = unpack(pending, end)
            if block_size < smallest:
                check_record_bounds(block_size)  # raises
            end += 4 + block_size
            if end > last + 4:
                break
            offsets.append(end)
            if len(offsets) > records_per_slab:
                yield (np.frombuffer(pending, np.uint8, end),
                       np.array(offsets, np.int32))
                # A new buffer: the slab just yielded keeps its own.
                pending, offsets = pending[end:], [0]
                end, last = 0, len(pending) - 4
    if offsets[-1] != len(pending):
        raise BamFormatError("truncated BAM alignment record",
                             source=source_name)
    if len(offsets) > 1:
        yield (np.frombuffer(pending, np.uint8),
               np.array(offsets, np.int32))


def slab_records(buf: np.ndarray, offsets: np.ndarray,
                 header: SamHeader) -> list[AlignmentRecord]:
    """Decode every record of a raw slab (the record path)."""
    data, bounds = buf.tobytes(), offsets.tolist()
    return [decode_record(data[start + 4:end], header)
            for start, end in zip(bounds, bounds[1:])]


def slab_columns(buf: np.ndarray, offsets: np.ndarray,
                 n_ref: int) -> ColumnSlab | None:
    """A raw slab as a :class:`ColumnSlab` over *buf* (its read names
    in a blob of their own) — or ``None`` unless every record is proven
    *canonical*: well-formed, and encoded exactly as
    :func:`decode_record` followed by a store's ``write_batch`` would
    re-encode it (``docs/formats.md`` lists the rules; the few
    same-size normalizations are applied to *buf*).  On ``None`` the
    caller takes :func:`slab_records`, which raises the typed error or
    yields the normalized records."""
    n, start = len(offsets) - 1, offsets[:-1]
    fixed = buf[start[:, None] + np.arange(
        _RAW_DTYPE.itemsize, dtype=np.int32)].view(_RAW_DTYPE).reshape(n)
    l_seq = fixed["l_seq"]
    name_lo = start + _RAW_DTYPE.itemsize
    name_len = fixed["l_read_name"].astype(np.int32)
    cigar_lo = name_lo + name_len
    cigar_len = 4 * fixed["n_cigar"].astype(np.int32)
    seq_lo = cigar_lo + cigar_len
    # 64-bit until the bounds hold: a hostile l_seq must not wrap.
    qual_lo = seq_lo + (l_seq.astype(np.int64) + 1) // 2
    tag_lo, tag_hi = qual_lo + l_seq, offsets[1:]
    if ((name_len < 1) | (l_seq < 0) | (tag_lo > tag_hi)
            | (tag_hi - tag_lo > 0xFFFF)).any() \
            or buf[cigar_lo - 1].any():
        return None
    names = buf[ragged_index(name_lo, name_len - 1)]
    if (names & 0x80).any() \
            or max(fixed["ref_id"].max(), fixed["next_ref"].max()) >= n_ref:
        return None
    qual_lo, tag_lo = qual_lo.astype(np.int32), tag_lo.astype(np.int32)
    words = buf[ragged_index(cigar_lo, cigar_len)].view("<u4")
    if ((words & 0xF > 8) | (words >> 4 == 0)).any():
        return None
    span = segment_sums(np.where(np.array(REF_CONSUMING_CODE)[words & 0xF],
                                 words >> 4, 0), fixed["n_cigar"])
    pos = np.maximum(fixed["pos"], -1)
    end_pos = np.where(pos < 0, -1, pos + np.where(span > 0, span, 1))
    if end_pos.max() > np.iinfo(np.int32).max:
        return None
    buf[qual_lo[l_seq & 1 == 1] - 1] &= 0xF0
    # QUAL: Phred > 222 re-encodes as 222 except in an all-0xFF record.
    loud = np.flatnonzero(buf > 222)
    owner = np.searchsorted(qual_lo, loud, side="right") - 1
    inside = (owner >= 0) & (loud < (qual_lo + l_seq)[owner])
    loud, owner = loud[inside], owner[inside]
    if len(loud) and ((buf[loud] != 0xFF).any() or (
            np.bincount(owner, minlength=n)[owner] != l_seq[owner]).any()):
        return None
    if not canonical_tag_blocks(buf, tag_lo, tag_hi):
        return None
    name_hi = np.cumsum(name_len - 1, dtype=np.int32)
    return ColumnSlab(
        -1, n, np.maximum(fixed["ref_id"], -1), pos,
        end_pos.astype(np.int32), np.maximum(fixed["next_ref"], -1),
        np.maximum(fixed["next_pos"], -1), fixed["tlen"], l_seq,
        fixed["flag"], fixed["mapq"], name_hi - (name_len - 1), name_hi,
        cigar_lo, seq_lo, seq_lo, qual_lo, qual_lo, tag_lo, tag_lo, tag_hi,
        names.tobytes(), *[buf.tobytes()] * 4)


def slab_bytes(slab: ColumnSlab) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of :func:`slab_columns`: a slab's records as BAM,
    ``(buf, offsets)`` as :func:`raw_slabs` yields them, byte-for-byte
    what :func:`encode_record` makes of each record the slab decodes
    to.  The fixed fields go through the 36-byte dtype, the bins
    through :func:`~.binning.reg2bin_array`, and the five blobs, which
    every slab holds BAM-encoded, through one ragged copy each.  A
    field the format cannot hold (a read name over 254 bytes, more
    than 65535 CIGAR operations, a bin past 16 bits) raises
    :class:`~repro.errors.BamFormatError`."""
    sections = slab.sections()
    sizes = [(hi - lo).astype(np.int64) for lo, hi, _ in sections]
    widths = [sizes[0] + 1, *sizes[1:]]     # the read name's NUL
    bins = reg2bin_array(slab.pos, slab.end_pos)
    if slab.count and (widths[0].max() > 255 or sizes[1].max() > 4 * 0xFFFF
                       or bins.max() > 0xFFFF):
        raise BamFormatError("a record of the slab does not fit BAM's "
                             "fixed fields")
    fixed = np.empty(slab.count, _RAW_DTYPE)
    fixed["block_size"] = _FIXED.size + sum(widths)
    for name in ("ref_id", "pos", "mapq", "flag", "l_seq", "next_ref",
                 "next_pos", "tlen"):
        fixed[name] = getattr(slab, name)
    fixed["l_read_name"], fixed["bin"] = widths[0], bins
    fixed["n_cigar"] = sizes[1] // 4
    offsets = np.zeros(slab.count + 1, np.int64)
    np.cumsum(fixed["block_size"] + 4, out=offsets[1:])
    buf = np.zeros(int(offsets[-1]), np.uint8)
    at = offsets[:-1] + _RAW_DTYPE.itemsize
    buf[ragged_index(offsets[:-1], np.full(slab.count, _RAW_DTYPE.itemsize),
                     np.int64)] = fixed.view(np.uint8)
    for (lo, _, blob), size, width in zip(sections, sizes, widths):
        buf[ragged_index(at, size, np.int64)] = np.frombuffer(
            blob, np.uint8)[ragged_index(lo, size, np.int64)]
        at = at + width
    return buf, offsets


def read_bam(path: str | os.PathLike[str],
             ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire BAM file into memory: ``(header, records)``."""
    with BamReader(path) as reader:
        return reader.header, list(reader)


def write_bam(path: str | os.PathLike[str], header: SamHeader,
              records: Iterable[AlignmentRecord], level: int = 6) -> int:
    """Write *records* to a BAM file at *path*; return the count."""
    with BamWriter(path, header, level=level) as writer:
        return writer.write_all(records)
