"""BAMX ("BAM eXtended"): the paper's fixed-record-length binary format.

The whole point of BAMX (§III-B of the paper) is that every record
occupies exactly ``layout.record_size`` bytes: variable-length fields
(read name, CIGAR, sequence, qualities, tags) are padded to per-file
capacities recorded in the header.  Record *i* therefore lives at
``data_offset + i * record_size``, giving O(1) random access — which is
what makes equal-record partitioning and partial conversion possible in
the parallel phase.

File layout::

    magic "BAMX\\x01"
    u32  header_length          (bytes of everything before record data)
    u32  name_cap  u32 cigar_cap  u32 seq_cap  u32 tag_cap
    u64  record_count
    u32  sam_header_text_length
    ...  SAM header text (ASCII, carries the reference dictionary)
    ...  records, each exactly record_size bytes

Records are *uncompressed* — the paper defers compression to future
work — so the padding trades disk space for layout regularity.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..defaults import DEFAULT_BATCH_SIZE
from ..errors import BamxFormatError, CapacityError
from .cigar import REF_CONSUMING_CODE, decode_ops, encode_ops
from .header import SamHeader
from .ragged import ragged_index
from .record import UNMAPPED_POS, AlignmentRecord
from .seq import pack_sequence, qual_bytes_to_text, qual_text_to_bytes, \
    unpack_sequence
from .tags import decode_tags, encode_tags

if TYPE_CHECKING:
    from .bamc import ColumnSlab

MAGIC = b"BAMX\x01"

_FIXED = struct.Struct("<iiBBHHiiiiH")
# ref_id, pos, mapq, name_len, flag, n_cigar, l_seq,
# next_ref, next_pos, tlen, tag_len

#: The same 32 bytes as a numpy dtype, for whole-slab row encoding.
_FIXED_DTYPE = np.dtype([
    ("ref_id", "<i4"), ("pos", "<i4"), ("mapq", "u1"), ("name_len", "u1"),
    ("flag", "<u2"), ("n_cigar", "<u2"), ("l_seq", "<i4"),
    ("next_ref", "<i4"), ("next_pos", "<i4"), ("tlen", "<i4"),
    ("tag_len", "<u2")])

_REF_CONSUMING = np.array(REF_CONSUMING_CODE)
_INT32_MAX = (1 << 31) - 1


def _corrupt_row(index: int | None, source: str | None) -> BamxFormatError:
    return BamxFormatError(
        "length fields exceed the layout capacities, or the alignment "
        "end exceeds int32", source=source, lineno=index)


@dataclass(frozen=True, slots=True)
class BamxLayout:
    """Per-file field capacities defining the fixed record size.

    Attributes
    ----------
    name_cap:
        Maximum read-name length in bytes (without NUL).
    cigar_cap:
        Maximum number of CIGAR operations.
    seq_cap:
        Maximum sequence length in bases.
    tag_cap:
        Maximum encoded tag-block length in bytes.
    """

    name_cap: int
    cigar_cap: int
    seq_cap: int
    tag_cap: int
    #: Size in bytes of every record under this layout (derived).
    record_size: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        for label, value in (("name_cap", self.name_cap),
                             ("cigar_cap", self.cigar_cap),
                             ("seq_cap", self.seq_cap),
                             ("tag_cap", self.tag_cap)):
            if value < 0:
                raise BamxFormatError(f"negative {label}: {value}")
        if self.name_cap > 254:
            raise BamxFormatError("name_cap exceeds SAM's 254-byte limit")
        object.__setattr__(self, "record_size",
                           _FIXED.size + sum(self._widths()))

    def merge(self, other: "BamxLayout") -> "BamxLayout":
        """Smallest layout accommodating records of both layouts."""
        return BamxLayout(max(self.name_cap, other.name_cap),
                          max(self.cigar_cap, other.cigar_cap),
                          max(self.seq_cap, other.seq_cap),
                          max(self.tag_cap, other.tag_cap))

    # -- slab codec ------------------------------------------------------

    def require(self, slab: "ColumnSlab") -> None:
        """Raise :class:`CapacityError` unless all of *slab* fits (the
        capacity checks of :meth:`encode_into` on whole columns)."""
        need = slab_layout(slab)
        if self.merge(need) != self:
            raise CapacityError(
                f"records needing {need} exceed layout capacity {self}")

    def encode_slab(self, slab: "ColumnSlab") -> np.ndarray:
        """Encode a whole :class:`~repro.formats.bamc.ColumnSlab` as an
        ``n x record_size`` row block: the fixed prefix through one
        structured array, each variable field through one ragged
        scatter into the zeroed rows.  Byte-for-byte what
        :meth:`encode_into` writes for the slab's records."""
        self.require(slab)
        n, sections = slab.count, slab.sections()
        lengths = [hi - lo for lo, hi, _ in sections]
        fixed = np.zeros(n, _FIXED_DTYPE)
        for name in ("ref_id", "pos", "mapq", "flag", "l_seq", "next_ref",
                     "next_pos", "tlen"):
            fixed[name] = getattr(slab, name)
        fixed["name_len"], fixed["n_cigar"] = lengths[0], lengths[1] // 4
        fixed["tag_len"] = lengths[4]
        rows = np.zeros((n, self.record_size), np.uint8)
        rows[:, :_FIXED.size] = fixed.view(np.uint8).reshape(n, _FIXED.size)
        flat = rows.reshape(-1)
        dtype = np.int32 if flat.size < 1 << 31 else np.int64
        dst = np.arange(n, dtype=dtype) * self.record_size + _FIXED.size
        for (lo, _, blob), length, width in zip(sections, lengths,
                                                self._widths()):
            src = ragged_index(lo, length, dtype)
            flat[src + np.repeat(dst - lo.astype(dtype), length)] = \
                np.frombuffer(blob, np.uint8)[src]
            dst += width
        return rows

    def restride(self, rows: bytes | memoryview, count: int,
                 source: "BamxLayout") -> bytes | memoryview | np.ndarray:
        """*count* rows encoded under the narrower layout *source*,
        re-laid under this one: every field keeps its bytes at its new
        offset, only the zero padding grows — byte-for-byte what
        :meth:`encode_slab` writes under this layout."""
        if source == self:
            return rows
        old = np.frombuffer(rows, np.uint8).reshape(count, source.record_size)
        new = np.zeros((count, self.record_size), np.uint8)
        new[:, :_FIXED.size] = old[:, :_FIXED.size]
        at = to = _FIXED.size
        for narrow, wide in zip(source._widths(), self._widths()):
            new[:, to:to + narrow] = old[:, at:at + narrow]
            at, to = at + narrow, to + wide
        return new

    def decode_slab(self, rows: bytes | memoryview, count: int,
                    start: int | np.ndarray = -1, source: str | None = None,
                    ) -> "ColumnSlab":
        """The inverse of :meth:`encode_slab`: *count* rows as a
        :class:`~repro.formats.bamc.ColumnSlab` whose first record has
        index *start* (gathered rows: the index of each, or -1 for
        unknown).  The rows are an ``n x record_size`` byte matrix:
        the fixed prefix is read through one strided structured view,
        each variable field is the copy of one column slice (``lo = i *
        width``, ``hi = lo + length``), and ``end_pos`` is summed off the
        ``n x cigar_cap`` word matrix.  Length fields are checked on
        whole columns first (:class:`BamxFormatError` naming the first
        bad record and *source*)."""
        from .bamc import ColumnSlab
        if len(rows) < count * self.record_size:
            raise BamxFormatError("truncated BAMX record", source=source)
        matrix = np.frombuffer(rows, np.uint8, count * self.record_size
                               ).reshape(count, self.record_size)
        fixed = np.ndarray(count, _FIXED_DTYPE, rows,
                           strides=(self.record_size,))
        name_len, l_seq, tag_len = (fixed[name] for name in (
            "name_len", "l_seq", "tag_len"))
        n_cigar = fixed["n_cigar"].astype(np.int64)
        bad = self._misfit(name_len, n_cigar, l_seq, tag_len)
        bounds, blobs, at = [], [], _FIXED.size
        for length, width in zip(
                (name_len, 4 * n_cigar, (l_seq.astype(np.int64) + 1) // 2,
                 l_seq, tag_len), self._widths()):
            lo = np.arange(count, dtype=np.int64) * width
            bounds += [lo, lo + length]
            blobs.append(matrix[:, at:at + width].tobytes())
            at += width
        words = np.frombuffer(blobs[1], "<u4").reshape(count, self.cigar_cap)
        span = np.where(
            (np.arange(self.cigar_cap) < n_cigar[:, None])
            & _REF_CONSUMING[words & 0xF], words >> 4, 0).sum(1, np.int64)
        pos = np.maximum(fixed["pos"], -1)
        end_pos = np.where(pos < 0, -1, pos + np.maximum(span, 1))
        bad = bad | (end_pos > _INT32_MAX)
        gathered = np.ndim(start) > 0
        if bad.any():
            first = int(bad.argmax())
            raise _corrupt_row(int(start[first]) if gathered
                               else first + max(start, 0), source)
        return ColumnSlab(
            -1 if gathered else start, count,
            np.maximum(fixed["ref_id"], -1), pos,
            end_pos.astype(np.int32), np.maximum(fixed["next_ref"], -1),
            np.maximum(fixed["next_pos"], -1), fixed["tlen"].copy(),
            l_seq.copy(), fixed["flag"].copy(), fixed["mapq"].copy(),
            *bounds, *blobs)

    def _widths(self) -> tuple[int, ...]:
        """Bytes a row reserves for name, CIGAR, SEQ, QUAL and tags."""
        return (self.name_cap, 4 * self.cigar_cap, (self.seq_cap + 1) // 2,
                self.seq_cap, self.tag_cap)

    def _misfit(self, name_len, n_cigar, l_seq, tag_len):
        """Truthy where a row's length fields exceed the capacities —
        the one bounds rule of a stored row, on ints or whole columns."""
        return ((name_len > self.name_cap) | (n_cigar > self.cigar_cap)
                | (l_seq < 0) | (l_seq > self.seq_cap)
                | (tag_len > self.tag_cap))

    # -- record codec ----------------------------------------------------

    def encode(self, record: AlignmentRecord, header: SamHeader) -> bytes:
        """Encode one record to exactly :attr:`record_size` bytes."""
        return bytes(self.encode_batch([record], header))

    def encode_into(self, record: AlignmentRecord, header: SamHeader,
                    out: bytearray, offset: int) -> None:
        """Encode one record into *out* at *offset*.

        The destination region must be zero-initialized (padding bytes
        are not written) and at least :attr:`record_size` bytes long —
        the batch encoders preallocate one zeroed buffer for a whole
        batch and pack records side by side.
        """
        name = record.qname.encode("ascii")
        if len(name) > self.name_cap:
            raise CapacityError(
                f"read name of {len(name)} bytes exceeds layout "
                f"capacity {self.name_cap}")
        cigar_words = encode_ops(record.cigar)
        if len(cigar_words) > self.cigar_cap:
            raise CapacityError(
                f"{len(cigar_words)} CIGAR ops exceed layout capacity "
                f"{self.cigar_cap}")
        l_seq = 0 if record.seq == "*" else len(record.seq)
        if l_seq > self.seq_cap:
            raise CapacityError(
                f"sequence of {l_seq} bases exceeds layout capacity "
                f"{self.seq_cap}")
        tag_block = encode_tags(record.tags)
        if len(tag_block) > self.tag_cap:
            raise CapacityError(
                f"tag block of {len(tag_block)} bytes exceeds layout "
                f"capacity {self.tag_cap}")
        ref_id, next_ref = header.ref_ids(record.rname, record.rnext)
        _FIXED.pack_into(
            out, offset,
            ref_id, record.pos, record.mapq, len(name), record.flag,
            len(cigar_words), l_seq, next_ref, record.pnext, record.tlen,
            len(tag_block))
        off = offset + _FIXED.size
        out[off:off + len(name)] = name
        off += self.name_cap
        struct.pack_into(f"<{len(cigar_words)}I", out, off, *cigar_words)
        off += 4 * self.cigar_cap
        seq_bytes = (self.seq_cap + 1) // 2
        if l_seq:
            packed = pack_sequence(record.seq)
            out[off:off + len(packed)] = packed
        off += seq_bytes
        if l_seq:
            if record.qual == "*":
                out[off:off + l_seq] = b"\xff" * l_seq
            else:
                if len(record.qual) != l_seq:
                    raise BamxFormatError(
                        f"QUAL length {len(record.qual)} != SEQ length "
                        f"{l_seq}")
                out[off:off + l_seq] = qual_text_to_bytes(record.qual)
        off += self.seq_cap
        out[off:off + len(tag_block)] = tag_block

    def encode_batch(self, records: list[AlignmentRecord],
                     header: SamHeader) -> bytearray:
        """Encode *records* side by side into one preallocated buffer."""
        out = bytearray(len(records) * self.record_size)
        for i, record in enumerate(records):
            self.encode_into(record, header, out, i * self.record_size)
        return out

    def decode(self, data: bytes | memoryview, header: SamHeader,
               offset: int = 0, index: int | None = None,
               source: str | None = None) -> AlignmentRecord:
        """Decode one record from *data* starting at *offset*.

        *data* may be any bytes-like object; the batched readers pass a
        :class:`memoryview` over a whole slab so field slices here are
        the only copies made.  *index* and *source* (the record's index
        in the store, the store's name) only label the error of a row
        that breaks the bounds rule of :meth:`decode_slab`.
        """
        if len(data) - offset < self.record_size:
            raise BamxFormatError("truncated BAMX record", source=source)
        (ref_id, pos, mapq, name_len, flag, n_cigar, l_seq,
         next_ref, next_pos, tlen, tag_len) = _FIXED.unpack_from(data, offset)
        if self._misfit(name_len, n_cigar, l_seq, tag_len):
            raise _corrupt_row(index, source)
        off = offset + _FIXED.size
        name = str(data[off:off + name_len], "ascii")
        off += self.name_cap
        cigar_words = struct.unpack_from(f"<{n_cigar}I", data, off)
        # An op is shorter than 2**28, so only a huge pos needs the sum.
        if pos + (max(n_cigar, 1) << 28) > _INT32_MAX and pos + max(1, sum(
                w >> 4 for w in cigar_words
                if REF_CONSUMING_CODE[w & 0xF])) > _INT32_MAX:
            raise _corrupt_row(index, source)
        off += 4 * self.cigar_cap
        seq = unpack_sequence(data[off:off + (l_seq + 1) // 2], l_seq) \
            if l_seq else "*"
        off += (self.seq_cap + 1) // 2
        qual_raw = bytes(data[off:off + l_seq])
        off += self.seq_cap
        if l_seq == 0 or not qual_raw.strip(b"\xff"):
            qual = "*"
        else:
            qual = qual_bytes_to_text(qual_raw)
        tags = decode_tags(bytes(data[off:off + tag_len]))
        rname, rnext = header.ref_names(ref_id, next_ref)
        return AlignmentRecord(
            qname=name, flag=flag, rname=rname,
            pos=pos if pos >= 0 else UNMAPPED_POS,
            mapq=mapq, cigar=decode_ops(list(cigar_words)),
            rnext=rnext,
            pnext=next_pos if next_pos >= 0 else UNMAPPED_POS,
            tlen=tlen, seq=seq, qual=qual, tags=tags)


def plan_layout(records: Iterable[AlignmentRecord]) -> BamxLayout:
    """Scan records and compute the tightest layout that fits them all.

    This is the first pass of the paper's preprocessing phase.
    """
    name_cap = cigar_cap = seq_cap = tag_cap = 0
    for record in records:
        name_cap = max(name_cap, len(record.qname))
        cigar_cap = max(cigar_cap, len(record.cigar))
        if record.seq != "*":
            seq_cap = max(seq_cap, len(record.seq))
        tag_cap = max(tag_cap, len(encode_tags(record.tags)))
    return BamxLayout(name_cap, cigar_cap, seq_cap, tag_cap)


def slab_layout(slab: "ColumnSlab") -> BamxLayout:
    """:func:`plan_layout` from a slab's length columns alone."""
    name, cigar, _, _, tags = ((hi - lo) for lo, hi, _ in slab.sections())
    return BamxLayout(*(int(column.max()) if slab.count else 0
                        for column in (name, cigar // 4, slab.l_seq, tags)))


class BamxWriter:
    """Write a BAMX file with a pre-planned :class:`BamxLayout`."""

    def __init__(self, target: str | os.PathLike[str], header: SamHeader,
                 layout: BamxLayout) -> None:
        self._fh: io.BufferedWriter = open(target, "wb")  # noqa: SIM115
        self.header = header
        self.layout = layout
        self.records_written = 0
        text = header.to_text().encode("ascii")
        head = MAGIC + struct.pack(
            "<IIIIIQI",
            0,  # header_length placeholder, fixed up on close
            layout.name_cap, layout.cigar_cap, layout.seq_cap,
            layout.tag_cap, 0, len(text))
        self._fh.write(head)
        self._fh.write(text)
        self._data_offset = self._fh.tell()

    def __enter__(self) -> "BamxWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write(self, record: AlignmentRecord) -> int:
        """Append one record; return its 0-based record index."""
        return self.write_batch([record])

    def write_batch(self, records: list[AlignmentRecord]) -> int:
        """Append a batch in one preallocated encode + one write;
        returns the index of ``records[0]`` (``records[i]`` gets *i*
        more)."""
        return self.write_encoded(
            self.layout.encode_batch(records, self.header), len(records))

    def write_encoded(self, rows: bytes | bytearray | np.ndarray,
                      count: int, layout: BamxLayout | None = None) -> int:
        """Append *count* rows already encoded (``encode_batch``,
        ``encode_slab``) under *layout* — by default, and at most,
        :attr:`layout`; returns the index of the first."""
        if layout is not None:
            rows = self.layout.restride(rows, count, layout)
        self._fh.write(rows)  # file or, for BAMZ, BGZF stream
        first = self.records_written
        self.records_written += count
        return first

    def write_all(self, records: Iterable[AlignmentRecord]) -> int:
        """Append every record; return the count written by this call."""
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def close(self) -> None:
        """Fix up header_length / record_count and close the file."""
        if self._fh.closed:
            return
        self._fh.seek(len(MAGIC))
        self._fh.write(struct.pack("<I", self._data_offset))
        self._fh.seek(len(MAGIC) + 4 + 16)
        self._fh.write(struct.pack("<Q", self.records_written))
        self._fh.close()


def open_source(source: str | os.PathLike[str] | io.BufferedReader,
                ) -> tuple[io.BufferedReader, str]:
    """``(handle at byte 0, name)`` of a reader's *source*: a path is
    opened; an open binary file — the handle
    :func:`~.store.open_record_store` read the magic on — is rewound
    and becomes the reader's to close."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb"), os.fspath(source)  # noqa: SIM115
    source.seek(0)
    return source, source.name


class RowStoreReader:
    """What the readers of fixed rows share — BAMX and its BGZF-
    compressed twin BAMZ differ in ``read_raw_batches`` alone: rows
    decode to column slabs a batch at a time
    (:meth:`BamxLayout.decode_slab`), the way every store feeds the
    converters and kernels, and to records."""

    def _batch_counts(self, start: int, stop: int,
                      batch_size: int) -> list[int]:
        """Record counts of the slabs ``read_raw_batches`` cuts a valid
        ``[start, stop)`` into."""
        if not 0 <= start <= stop <= len(self):
            raise BamxFormatError(
                f"record range [{start}, {stop}) outside [0, {len(self)})")
        per_slab = batch_size if batch_size > 0 \
            else max(1, (4 << 20) // max(self.layout.record_size, 1))
        return [min(per_slab, stop - at)
                for at in range(start, stop, per_slab)]

    def read_column_batches(self, start: int, stop: int,
                            batch_size: int = DEFAULT_BATCH_SIZE,
                            ) -> Iterator["ColumnSlab"]:
        """Yield the records ``[start, stop)`` as slabs of up to
        *batch_size* rows."""
        for rows, count in self.read_raw_batches(start, stop, batch_size):
            yield self.layout.decode_slab(rows, count, start,
                                          self.source_name)
            start += count

    def read_column_picks(self, indices: Sequence[int],
                          batch_size: int = DEFAULT_BATCH_SIZE,
                          ) -> Iterator["ColumnSlab"]:
        """Yield gathered slabs of up to *batch_size* of the explicit
        *indices*, in their order: one read per run of consecutive
        indices; the joined rows are already in pick order, so the slab
        needs no gather."""
        for off in range(0, len(indices), batch_size):
            part = np.asarray(indices[off:off + batch_size], np.int64)
            runs = np.split(part, np.flatnonzero(np.diff(part) != 1) + 1)
            rows = b"".join(
                rows for run in runs for rows, _ in self.read_raw_batches(
                    int(run[0]), int(run[0]) + len(run), len(run)))
            yield self.layout.decode_slab(rows, len(part), part,
                                          self.source_name)

    def read_range(self, start: int, stop: int,
                   ) -> Iterator[AlignmentRecord]:
        """Yield records ``start <= i < stop``, slab by slab from one
        seek."""
        layout, rsize = self.layout, self.layout.record_size
        for data, n in self.read_raw_batches(start, stop):
            # Full decode touches every field: materializing the slab
            # once makes the per-field slices cheap bytes slices (small
            # memoryview slices are slower than the one big copy).
            data = bytes(data)
            for i in range(n):
                yield layout.decode(data, self.header, i * rsize,
                                    start + i, self.source_name)
            start += n

    def __iter__(self) -> Iterator[AlignmentRecord]:
        return self.read_range(0, len(self))


class BamxReader(RowStoreReader):
    """Random-access BAMX reader: ``len()``, ``[i]``, slices, iteration.

    *source* is a path or an open binary file (:func:`open_source`);
    *header*, the file's header already parsed, saves parsing its text."""

    kind = "bamx"

    def __init__(self, source: str | os.PathLike[str] | io.BufferedReader,
                 header: SamHeader | None = None) -> None:
        self._fh, self.source_name = open_source(source)
        magic = self._fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BamxFormatError("bad BAMX magic", source=self.source_name)
        (self._data_offset, name_cap, cigar_cap, seq_cap, tag_cap,
         self._count, text_len) = struct.unpack(
            "<IIIIIQI", self._fh.read(struct.calcsize("<IIIIIQI")))
        self.layout = BamxLayout(name_cap, cigar_cap, seq_cap, tag_cap)
        text = self._fh.read(text_len)
        self.header = header if header is not None \
            else SamHeader.from_text(text.decode("ascii"))
        size = os.fstat(self._fh.fileno()).st_size
        expected = self._data_offset + self._count * self.layout.record_size
        if size < expected:
            raise BamxFormatError(
                f"file is {size} bytes but layout implies {expected}",
                source=self.source_name)

    def __enter__(self) -> "BamxReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying file."""
        self._fh.close()

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> AlignmentRecord:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"record index {index} out of range "
                             f"[0, {self._count})")
        self._fh.seek(self._data_offset
                      + index * self.layout.record_size)
        data = self._fh.read(self.layout.record_size)
        return self.layout.decode(data, self.header, 0, index,
                                  self.source_name)

    def read_raw(self, index: int) -> bytes:
        """Read the raw :attr:`record_size` bytes of record *index*."""
        if not 0 <= index < self._count:
            raise BamxFormatError(
                f"record index {index} outside [0, {self._count})",
                source=self.source_name)
        rsize = self.layout.record_size
        self._fh.seek(self._data_offset + index * rsize)
        data = self._fh.read(rsize)
        if len(data) != rsize:
            raise BamxFormatError("truncated BAMX data region",
                                  source=self.source_name)
        return data

    def read_raw_batches(self, start: int, stop: int,
                         batch_size: int = 0,
                         ) -> Iterator[tuple[memoryview, int]]:
        """Yield ``(slab, count)`` raw-record slabs for ``[start, stop)``.

        Each slab is a read-only :class:`memoryview` over ``count``
        consecutive records, so callers can slice fields without
        copying.  ``batch_size`` is records per slab; 0 picks a slab of
        roughly 4 MiB (the historical read_range behaviour).
        """
        counts = self._batch_counts(start, stop, batch_size)
        rsize = self.layout.record_size
        self._fh.seek(self._data_offset + start * rsize)
        for n in counts:
            data = self._fh.read(n * rsize)
            if len(data) != n * rsize:
                raise BamxFormatError("truncated BAMX data region",
                                      source=self.source_name)
            yield memoryview(data), n


def write_bamx(path: str | os.PathLike[str], header: SamHeader,
               records: list[AlignmentRecord],
               layout: BamxLayout | None = None) -> BamxLayout:
    """Write *records* to a BAMX file, planning the layout if not given.

    Returns the layout actually used.
    """
    if layout is None:
        layout = plan_layout(records)
    with BamxWriter(path, header, layout) as writer:
        writer.write_all(records)
    return layout


def read_bamx(path: str | os.PathLike[str],
              ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire BAMX file into memory: ``(header, records)``."""
    with BamxReader(path) as reader:
        return reader.header, list(reader)
