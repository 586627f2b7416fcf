"""BAMC ("BAM Columnar"): the columnar BAMX v2 record store.

BAMX (v1) keeps every record in one fixed-size row, so any consumer —
even a BED conversion that needs three fields — walks the full record
stride.  BAMC transposes the layout: records are grouped into slabs of
``slab_records`` records, and each slab stores the fixed-width fields
as contiguous little-endian *columns* (numpy-ready), with the
variable-length fields (name, CIGAR, sequence, qualities, tags) packed
into per-slab blobs addressed by ``u32`` offset tables.  Downstream
kernels (:mod:`repro.formats.kernels`) then run filters, flagstat,
histograms and target emission as vectorized array operations without
materializing a single :class:`~repro.formats.record.AlignmentRecord`.

File layout::

    magic "BAMC\\x01"
    u32  data_offset            (bytes before the first slab; patched)
    u32  name_cap  u32 cigar_cap  u32 seq_cap  u32 tag_cap
    u64  record_count           (patched on close)
    u32  slab_records           (records per slab; last slab partial)
    u64  footer_offset          (patched on close)
    u32  sam_header_text_length
    ...  SAM header text (ASCII, carries the reference dictionary)
    ...  slabs
    footer:
        u32  slab_count
        u64[slab_count]  slab byte offsets
        u32[slab_count]  slab record counts

Slab layout for ``n`` records (all little-endian, tightly packed)::

    i32[n] ref_id      i32[n] pos       i32[n] end_pos
    i32[n] next_ref    i32[n] next_pos  i32[n] tlen   i32[n] l_seq
    u16[n] flag        u8[n]  mapq
    5 x variable sections, each:  u32[n+1] byte offsets, blob bytes
        name   ASCII read names
        cigar  BAM-packed u32 CIGAR words (len<<4 | op)
        seq    BAM 4-bit nybbles, (l_seq+1)//2 bytes per record
        qual   raw Phred bytes, l_seq per record (0xFF fill = absent)
        tags   BAM tag encoding

``end_pos`` is *derived* — ``record.end`` precomputed at write time
(``-1`` for unplaced records) — so interval targets (BED, BEDGRAPH)
and the coverage kernels never touch the CIGAR blob at read time.  The
decode path ignores it; round-trips are governed by the other columns.

The caps in the header are the same capacities a BAMX layout would
plan; BAMC enforces them at write time for error parity (a record that
would raise :class:`~repro.errors.CapacityError` in a BAMX writer
raises it here too) and exposes them through ``reader.layout`` so
record-size-based accounting keeps working unchanged.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import BamxFormatError
from .bamx import BamxLayout, open_source, plan_layout
from .cigar import decode_ops, encode_ops, format_cigar
from .header import SamHeader
from .ragged import ragged_index
from .record import UNMAPPED_POS, AlignmentRecord
from .seq import pack_sequence, qual_blob_to_text, qual_bytes_to_text, \
    qual_text_to_bytes, unpack_sequence, unpack_sequence_blob
from .tags import decode_tags, encode_tags, tag_block_to_sam

MAGIC = b"BAMC\x01"

#: Default records per slab.  Big enough that per-slab numpy dispatch
#: overhead vanishes, small enough that a slab stays cache-friendly.
DEFAULT_SLAB_RECORDS = 4096

_HEADER = struct.Struct("<IIIIIQIQI")
# data_offset, name_cap, cigar_cap, seq_cap, tag_cap,
# record_count, slab_records, footer_offset, text_len
_COUNT_OFFSET = len(MAGIC) + 20          # u64 record_count
_FOOTER_OFFSET = len(MAGIC) + 20 + 8 + 4  # u64 footer_offset


#: The fixed columns of a slab in file order, with their dtypes.
_COLUMNS = (("ref_id", "<i4"), ("pos", "<i4"), ("end_pos", "<i4"),
            ("next_ref", "<i4"), ("next_pos", "<i4"), ("tlen", "<i4"),
            ("l_seq", "<i4"), ("flag", "<u2"), ("mapq", "u1"))


@dataclass(slots=True)
class ColumnSlab:
    """One slab's columns: numpy views plus blob bytes.

    Fixed fields are numpy arrays of length :attr:`count`; each
    variable field has per-record ``lo``/``hi`` byte ranges into its
    blob (``blob[lo[i]:hi[i]]`` is record *i*'s field).  ``start`` is
    the global index of the first record, or ``-1`` for a gathered
    (fancy-indexed) slab where the records are not contiguous.
    """

    start: int
    count: int
    ref_id: np.ndarray
    pos: np.ndarray
    end_pos: np.ndarray
    next_ref: np.ndarray
    next_pos: np.ndarray
    tlen: np.ndarray
    l_seq: np.ndarray
    flag: np.ndarray
    mapq: np.ndarray
    name_lo: np.ndarray
    name_hi: np.ndarray
    cigar_lo: np.ndarray
    cigar_hi: np.ndarray
    seq_lo: np.ndarray
    seq_hi: np.ndarray
    qual_lo: np.ndarray
    qual_hi: np.ndarray
    tag_lo: np.ndarray
    tag_hi: np.ndarray
    name_blob: bytes
    cigar_blob: bytes
    seq_blob: bytes
    qual_blob: bytes
    tag_blob: bytes

    def sections(self) -> tuple[tuple, ...]:
        """The variable fields — name, CIGAR, SEQ, QUAL, tags — as
        ``(lo, hi, blob)`` triples in file order."""
        return ((self.name_lo, self.name_hi, self.name_blob),
                (self.cigar_lo, self.cigar_hi, self.cigar_blob),
                (self.seq_lo, self.seq_hi, self.seq_blob),
                (self.qual_lo, self.qual_hi, self.qual_blob),
                (self.tag_lo, self.tag_hi, self.tag_blob))

    def placed(self, first: int) -> tuple[np.ndarray, ...]:
        """``(ref_ids, starts, ends, indices)`` of the slab's placed
        records — the BAIX/BAIX2 columns — numbering them from
        *first*."""
        keep = np.flatnonzero((self.ref_id >= 0) & (self.pos >= 0))
        return (self.ref_id[keep], self.pos[keep], self.end_pos[keep],
                keep + first)

    def _select(self, key: slice | np.ndarray, start: int,
                count: int) -> "ColumnSlab":
        sections = self.sections()
        return ColumnSlab(
            start, count,
            *(getattr(self, name)[key] for name, _ in _COLUMNS),
            *(bound[key] for lo, hi, _ in sections for bound in (lo, hi)),
            *(blob for _, _, blob in sections))

    def window(self, a: int, b: int, start: int) -> "ColumnSlab":
        """A zero-copy view of records ``[a, b)`` of this slab."""
        return self._select(slice(a, b), start, b - a)

    def take(self, idx: np.ndarray) -> "ColumnSlab":
        """A gathered slab of the (slab-local) records in *idx*.

        Preserves the order of *idx*, which is what lets the partial
        conversion path keep the caller's record order byte-for-byte.
        """
        return self._select(idx, -1, len(idx))

    # -- the text accessors the kernel emitters read of any slab -------

    def names(self, idx: np.ndarray) -> list[str]:
        """Read names of the records *idx*: one blob decode, then
        string slices."""
        text = self.name_blob.decode("ascii")
        return [text[a:b] for a, b in zip(self.name_lo[idx].tolist(),
                                          self.name_hi[idx].tolist())]

    def rnames(self, idx: np.ndarray, refs: list[str]) -> list[str]:
        """Reference names (``*`` where there is none) out of *refs*,
        the header's."""
        return [refs[r] if r >= 0 else "*"
                for r in self.ref_id[idx].tolist()]

    def _reverse(self, idx: np.ndarray, stranded: bool) -> np.ndarray | None:
        return (self.flag[idx] & 0x10) != 0 if stranded else None

    def sequences(self, idx: np.ndarray, stranded: bool = True) -> list[str]:
        """The selected sequences as the reads were sequenced (reverse-
        strand ones reverse-complemented; as stored if not *stranded*),
        decoded with one blob-wide pass."""
        return unpack_sequence_blob(
            self.seq_blob, self.seq_lo[idx], self.seq_hi[idx],
            self.l_seq[idx], self._reverse(idx, stranded))

    def quals(self, idx: np.ndarray, stranded: bool = True,
              ) -> tuple[list[str], list[int]]:
        """Phred+33 text of the selected QUAL runs, in the order of
        :meth:`sequences`, and the places of the runs that are all
        ``0xFF`` — absent QUAL, exactly the BAMX decode rule; only a run
        starting with ``0xFF`` can be one, and only those are looked at
        in full."""
        lo, hi = self.qual_lo[idx], self.qual_hi[idx]
        some = np.flatnonzero(hi > lo)
        raw = np.frombuffer(self.qual_blob, np.uint8)
        return qual_blob_to_text(
            self.qual_blob, lo, hi, self._reverse(idx, stranded)), [
            i for i in some[raw[lo[some]] == 0xFF].tolist()
            if not self.qual_blob[lo[i]:hi[i]].strip(b"\xff")]

    def sam_lines(self, idx: np.ndarray | None,
                  refs: list[str]) -> list[str]:
        """The records *idx* (``None``: all) rendered as SAM lines,
        CIGAR and tag text straight from the BAM-encoded bytes, each
        distinct value once.  A value the renderers reject raises their
        :class:`~repro.errors.FormatError` or a ``ValueError``."""
        if idx is None:
            idx = np.arange(self.count)
        ref_id = self.ref_id[idx].tolist()
        quals, absent = self.quals(idx, stranded=False)
        for i in absent:
            quals[i] = "*"
        lines = []
        for (name, flag, own, pos, mapq, cigar, mate, pnext, tlen, seq,
             qual, tags) in zip(
                self.names(idx), self.flag[idx].tolist(), ref_id,
                self.pos[idx].tolist(), self.mapq[idx].tolist(),
                _field_texts(self.cigar_blob, self.cigar_lo[idx],
                             self.cigar_hi[idx], _cigar_text),
                self.next_ref[idx].tolist(), self.next_pos[idx].tolist(),
                self.tlen[idx].tolist(),
                self.sequences(idx, stranded=False), quals,
                _field_texts(self.tag_blob, self.tag_lo[idx],
                             self.tag_hi[idx], tag_block_to_sam)):
            # The BAMX decode rule: no SEQ, or all-0xFF QUAL, is "*".
            if not seq:
                seq = qual = "*"
            rnext = "*" if mate < 0 else "=" if mate == own else refs[mate]
            lines.append(
                f"{name}\t{flag}\t{refs[own] if own >= 0 else '*'}\t"
                f"{pos + 1 if pos >= 0 else 0}\t{mapq}\t{cigar}\t{rnext}\t"
                f"{pnext + 1 if pnext >= 0 else 0}\t{tlen}\t{seq}\t{qual}"
                + (tags and "\t" + tags))
        return lines

    def decode(self, i: int, header: SamHeader) -> AlignmentRecord:
        """Decode record *i* of this slab, matching BAMX decode exactly."""
        return next(self.window(i, i + 1, -1).decode_all(header))

    def decode_all(self, header: SamHeader) -> Iterator[AlignmentRecord]:
        """Decode every record of this slab in order: the columns and
        field slices as Python values once, then one cheap loop."""
        columns = [getattr(self, name).tolist() for name, _ in _COLUMNS]
        fields = [[blob[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
                  for lo, hi, blob in self.sections()]
        for (ref_id, pos, _, next_ref, next_pos, tlen, l_seq, flag,
             mapq), name, words, seq, qual, tags in zip(zip(*columns),
                                                        *fields):
            if l_seq:
                seq = unpack_sequence(seq, l_seq)
                qual = "*" if not qual.strip(b"\xff") \
                    else qual_bytes_to_text(qual)
            else:
                seq = qual = "*"
            rname, rnext = header.ref_names(ref_id, next_ref)
            yield AlignmentRecord(
                qname=str(name, "ascii"), flag=flag, rname=rname,
                pos=pos if pos >= 0 else UNMAPPED_POS, mapq=mapq,
                cigar=decode_ops(np.frombuffer(words, "<u4").tolist()),
                rnext=rnext,
                pnext=next_pos if next_pos >= 0 else UNMAPPED_POS,
                tlen=tlen, seq=seq, qual=qual, tags=decode_tags(tags))


def _cigar_text(raw: bytes) -> str:
    return format_cigar(decode_ops(np.frombuffer(raw, "<u4").tolist()))


def _field_texts(blob: bytes, lo: np.ndarray, hi: np.ndarray,
                 render) -> list[str]:
    """``render(blob[lo[i]:hi[i]])`` per record, rendering each distinct
    field value once."""
    cache: dict[bytes, str] = {}
    out = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        raw = blob[a:b]
        if raw not in cache:
            cache[raw] = render(raw)
        out.append(cache[raw])
    return out


def _parse_slab(buf: bytes, start: int, count: int) -> ColumnSlab:
    """Build a :class:`ColumnSlab` over one raw slab buffer."""
    off = 0
    columns = []
    for _, dtype in _COLUMNS:
        columns.append(np.frombuffer(buf, dtype, count, off))
        off += columns[-1].nbytes
    bounds, blobs = [], []
    for _ in range(5):
        offsets = np.frombuffer(buf, "<u4", count + 1, off)
        off += offsets.nbytes
        blobs.append(buf[off:off + int(offsets[count])])
        if len(blobs[-1]) != int(offsets[count]):
            raise BamxFormatError("truncated BAMC slab")
        off += len(blobs[-1])
        bounds += [offsets[:-1], offsets[1:]]
    return ColumnSlab(start, count, *columns, *bounds, *blobs)


def slab_from_records(records: list[AlignmentRecord],
                      header: SamHeader) -> ColumnSlab:
    """Encode *records* into the columns and packed blobs of a slab."""
    rows: list[tuple] = []
    blobs: tuple[list[bytes], ...] = ([], [], [], [], [])
    names, cigars, seqs, quals, tags = (blob.append for blob in blobs)
    for record in records:
        ref_id, next_ref = header.ref_ids(record.rname, record.rnext)
        l_seq = 0 if record.seq == "*" else len(record.seq)
        rows.append((ref_id, record.pos, record.end, next_ref,
                     record.pnext, record.tlen, l_seq, record.flag,
                     record.mapq))
        words = encode_ops(record.cigar)
        names(record.qname.encode("ascii"))
        cigars(struct.pack(f"<{len(words)}I", *words))
        seqs(pack_sequence(record.seq) if l_seq else b"")
        if not l_seq or record.qual == "*":
            quals(b"\xff" * l_seq)
        elif len(record.qual) != l_seq:
            raise BamxFormatError(
                f"QUAL length {len(record.qual)} != SEQ length {l_seq}")
        else:
            quals(qual_text_to_bytes(record.qual))
        tags(encode_tags(record.tags))
    columns = [np.array(values, dtype) for values, (_, dtype)
               in zip(zip(*rows) if rows else [()] * 9, _COLUMNS)]
    bounds = []
    for blob in blobs:
        offsets = np.zeros(len(records) + 1, "<u4")
        np.cumsum([len(part) for part in blob], out=offsets[1:])
        bounds += [offsets[:-1], offsets[1:]]
    return ColumnSlab(-1, len(records), *columns, *bounds,
                      *(b"".join(blob) for blob in blobs))


def encode_slab(slab: ColumnSlab, layout: BamxLayout) -> bytes:
    """Serialize one slab to the layout in the module docstring: the
    fixed columns as they are, each variable field as an offset table
    plus one ragged gather out of its blob.  Raises
    :class:`~repro.errors.CapacityError` like a BAMX writer would."""
    layout.require(slab)
    parts = [getattr(slab, name).astype(dtype).tobytes()
             for name, dtype in _COLUMNS]
    for lo, hi, blob in slab.sections():
        offsets = np.zeros(slab.count + 1, "<u4")
        np.cumsum(hi - lo, out=offsets[1:])
        data = np.frombuffer(blob, np.uint8)
        # A blob that is already packed in order needs no gather.
        parts += [offsets.tobytes(), (
            data[:offsets[-1]] if np.array_equal(lo, offsets[:-1])
            else data[ragged_index(lo, hi - lo)]).tobytes()]
    return b"".join(parts)


class BamcWriter:
    """Write a BAMC file with a pre-planned :class:`BamxLayout`.

    Mirrors :class:`~repro.formats.bamx.BamxWriter`: ``write`` /
    ``write_batch`` (returning the first record index, for BAIX
    building) / ``write_all`` / ``close``, with the same capacity
    validation and :class:`~repro.errors.CapacityError` behaviour.
    """

    def __init__(self, target: str | os.PathLike[str], header: SamHeader,
                 layout: BamxLayout,
                 slab_records: int = DEFAULT_SLAB_RECORDS) -> None:
        if slab_records < 1:
            raise BamxFormatError(
                f"slab_records {slab_records} must be >= 1")
        self._fh: io.BufferedWriter = open(target, "wb")  # noqa: SIM115
        self.header = header
        self.layout = layout
        self.slab_records = slab_records
        self.records_written = 0
        self._pending: list[AlignmentRecord] = []
        self._slab_offsets: list[int] = []
        self._slab_counts: list[int] = []
        text = header.to_text().encode("ascii")
        self._fh.write(MAGIC)
        self._fh.write(_HEADER.pack(
            0, layout.name_cap, layout.cigar_cap, layout.seq_cap,
            layout.tag_cap, 0, slab_records, 0, len(text)))
        self._fh.write(text)
        self._data_offset = self._fh.tell()

    def __enter__(self) -> "BamcWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write(self, record: AlignmentRecord) -> int:
        """Append one record; return its 0-based record index."""
        return self.write_batch([record])

    def write_batch(self, records: list[AlignmentRecord]) -> int:
        """Append a batch; return the first record's index."""
        first = self.records_written
        for record in records:
            self._pending.append(record)
            self.records_written += 1
            if len(self._pending) >= self.slab_records:
                self._flush_slab()
        return first

    def write_all(self, records: Iterable[AlignmentRecord]) -> int:
        """Append every record; return the count written by this call."""
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def _flush_slab(self) -> None:
        records, self._pending = self._pending, []
        if records:
            self._append(encode_slab(slab_from_records(
                records, self.header), self.layout), len(records))

    def _append(self, data: bytes, count: int) -> None:
        self._slab_offsets.append(self._fh.tell())
        self._slab_counts.append(count)
        self._fh.write(data)

    def write_encoded(self, data: bytes, count: int,
                      layout: BamxLayout | None = None) -> int:
        """Append one slab of *count* records already serialized by
        :func:`encode_slab` under any *layout* that held it — a slab
        stores no padding — while no single records are pending;
        returns the index of its first record."""
        self._append(data, count)
        self.records_written += count
        return self.records_written - count

    def close(self) -> None:
        """Flush the tail slab, write the footer, patch the header."""
        if self._fh.closed:
            return
        self._flush_slab()
        footer_offset = self._fh.tell()
        self._fh.write(struct.pack("<I", len(self._slab_offsets)))
        self._fh.write(np.array(self._slab_offsets, "<u8").tobytes())
        self._fh.write(np.array(self._slab_counts, "<u4").tobytes())
        self._fh.seek(len(MAGIC))
        self._fh.write(struct.pack("<I", self._data_offset))
        self._fh.seek(_COUNT_OFFSET)
        self._fh.write(struct.pack("<Q", self.records_written))
        self._fh.seek(_FOOTER_OFFSET)
        self._fh.write(struct.pack("<Q", footer_offset))
        self._fh.close()


class BamcReader:
    """Random-access BAMC reader.

    Exposes the :class:`~repro.formats.bamx.BamxReader` surface —
    ``len()``, ``[i]``, ``read_range``, iteration, ``.header``,
    ``.layout`` — plus the columnar access the kernels run on:
    :meth:`read_column_batches` (contiguous ranges) and
    :meth:`read_column_picks` (explicit indices, order-preserving).
    It deliberately does *not* provide ``read_raw_batches``: raw-slab
    consumers assume the v1 row layout.  *source* and *header* are
    :class:`~repro.formats.bamx.BamxReader`'s.
    """

    kind = "bamc"

    def __init__(self, source: str | os.PathLike[str] | io.BufferedReader,
                 header: SamHeader | None = None) -> None:
        self._fh, self.source_name = open_source(source)
        magic = self._fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BamxFormatError("bad BAMC magic",
                                  source=self.source_name)
        (self._data_offset, name_cap, cigar_cap, seq_cap, tag_cap,
         self._count, self.slab_records, footer_offset,
         text_len) = _HEADER.unpack(self._fh.read(_HEADER.size))
        self.layout = BamxLayout(name_cap, cigar_cap, seq_cap, tag_cap)
        text = self._fh.read(text_len)
        self.header = header if header is not None \
            else SamHeader.from_text(text.decode("ascii"))
        size = os.fstat(self._fh.fileno()).st_size
        if footer_offset < self._data_offset or footer_offset + 4 > size:
            raise BamxFormatError("bad BAMC footer offset",
                                  source=self.source_name)
        self._fh.seek(footer_offset)
        (n_slabs,) = struct.unpack("<I", self._fh.read(4))
        directory = self._fh.read(n_slabs * 12)
        if len(directory) != n_slabs * 12:
            raise BamxFormatError("truncated BAMC footer",
                                  source=self.source_name)
        self._slab_offsets = np.frombuffer(directory, "<u8", n_slabs)
        self._slab_counts = np.frombuffer(directory, "<u4", n_slabs,
                                          8 * n_slabs)
        self._footer_offset = footer_offset
        # Global index of each slab's first record; one extra entry so
        # _slab_starts[i + 1] bounds slab i.
        self._slab_starts = np.zeros(n_slabs + 1, dtype=np.int64)
        np.cumsum(self._slab_counts, out=self._slab_starts[1:])
        if int(self._slab_starts[-1]) != self._count:
            raise BamxFormatError(
                f"slab directory sums to {int(self._slab_starts[-1])} "
                f"records but header says {self._count}",
                source=self.source_name)
        self._cached_slab: ColumnSlab | None = None
        self._cached_index = -1

    def __enter__(self) -> "BamcReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying file."""
        self._fh.close()

    def __len__(self) -> int:
        return self._count

    def _slab_of(self, index: int) -> int:
        """Slab number holding global record *index*."""
        return int(np.searchsorted(self._slab_starts, index,
                                   side="right")) - 1

    def _span(self, slab_index: int) -> tuple[int, int]:
        """Byte range ``[start, end)`` of slab *slab_index*."""
        end = int(self._slab_offsets[slab_index + 1]) \
            if slab_index + 1 < len(self._slab_offsets) \
            else self._footer_offset
        return int(self._slab_offsets[slab_index]), end

    def _load_slab(self, slab_index: int) -> ColumnSlab:
        """Parse (and cache) slab *slab_index*."""
        if slab_index == self._cached_index \
                and self._cached_slab is not None:
            return self._cached_slab
        offset, end = self._span(slab_index)
        self._fh.seek(offset)
        buf = self._fh.read(end - offset)
        if len(buf) != end - offset:
            raise BamxFormatError("truncated BAMC slab",
                                  source=self.source_name)
        slab = _parse_slab(buf, int(self._slab_starts[slab_index]),
                           int(self._slab_counts[slab_index]))
        self._cached_slab, self._cached_index = slab, slab_index
        return slab

    def _read_window(self, slab_index: int, a: int, b: int) -> ColumnSlab:
        """Records ``[a, b)`` of slab *slab_index*, reading only their
        bytes — each fixed column's run, each section's offsets and
        blob range — with ``os.pread`` (no shared file position, so
        safe across forks); its offsets count from its own blobs."""
        at, end = self._span(slab_index)
        n, fd = int(self._slab_counts[slab_index]), self._fh.fileno()

        def read(offset: int, size: int) -> bytes:
            buf = os.pread(fd, size, at + offset) \
                if 0 <= size and at + offset + size <= end else b""
            if len(buf) != size:
                raise BamxFormatError("truncated BAMC slab",
                                      source=self.source_name)
            return buf

        columns, off = [], 0
        for _, dtype in _COLUMNS:
            size = np.dtype(dtype).itemsize
            columns.append(np.frombuffer(
                read(off + a * size, (b - a) * size), dtype))
            off += n * size
        bounds, blobs = [], []
        for _ in range(5):
            offsets = np.frombuffer(read(off + 4 * a, 4 * (b - a + 1)), "<u4")
            off += 4 * (n + 1)
            blobs.append(read(off + int(offsets[0]),
                              int(offsets[-1]) - int(offsets[0])))
            off += struct.unpack("<I", read(off - 4, 4))[0]
            offsets = offsets - offsets[0]
            bounds += [offsets[:-1], offsets[1:]]
        return ColumnSlab(int(self._slab_starts[slab_index]) + a, b - a,
                          *columns, *bounds, *blobs)

    def __getitem__(self, index: int) -> AlignmentRecord:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"record index {index} out of range "
                             f"[0, {self._count})")
        slab = self._load_slab(self._slab_of(index))
        return slab.decode(index - slab.start, self.header)

    def read_column_batches(self, start: int, stop: int,
                            batch_size: int | None = None,
                            ) -> Iterator[ColumnSlab]:
        """Yield :class:`ColumnSlab` windows covering ``[start, stop)``,
        cut where the file's slabs are (*batch_size*, which sizes a row
        store's slabs, is not consulted): a whole slab parsed once,
        its fixed columns zero-copy numpy views; part of a slab read
        alone (:meth:`_read_window`).
        """
        if not 0 <= start <= stop <= self._count:
            raise BamxFormatError(
                f"record range [{start}, {stop}) outside "
                f"[0, {self._count})")
        index = start
        while index < stop:
            slab_index = self._slab_of(index)
            first = int(self._slab_starts[slab_index])
            count = int(self._slab_counts[slab_index])
            a, b = index - first, min(stop - first, count)
            yield self._load_slab(slab_index) if (a == 0 and b == count) \
                else self._read_window(slab_index, a, b)
            index = first + b

    def read_column_picks(self, indices: Sequence[int],
                          batch_size: int | None = None,
                          ) -> Iterator[ColumnSlab]:
        """Yield gathered slabs for explicit *indices*, in order.

        Consecutive indices living in the same slab are grouped into
        one fancy-indexed :class:`ColumnSlab`; the overall record
        order is exactly the order of *indices*, which is what keeps
        partial conversion byte-identical to the v1 pick path.
        """
        picks = np.asarray(indices, dtype=np.int64)
        bad = picks[(picks < 0) | (picks >= self._count)]
        if len(bad):
            raise BamxFormatError(
                f"record index {int(bad[0])} outside [0, {self._count})",
                source=self.source_name)
        if not len(picks):
            return
        slab_of = np.searchsorted(self._slab_starts, picks, side="right") - 1
        cuts = [0, *(np.flatnonzero(np.diff(slab_of)) + 1).tolist(),
                len(picks)]
        for a, b in zip(cuts, cuts[1:]):
            slab = self._load_slab(int(slab_of[a]))
            yield slab.take(picks[a:b] - slab.start)

    def read_range(self, start: int, stop: int,
                   ) -> Iterator[AlignmentRecord]:
        """Yield records ``start <= i < stop`` slab by slab."""
        for slab in self.read_column_batches(start, stop):
            yield from slab.decode_all(self.header)

    def __iter__(self) -> Iterator[AlignmentRecord]:
        return self.read_range(0, self._count)


def write_bamc(path: str | os.PathLike[str], header: SamHeader,
               records: list[AlignmentRecord],
               layout: BamxLayout | None = None,
               slab_records: int = DEFAULT_SLAB_RECORDS) -> BamxLayout:
    """Write *records* to a BAMC file, planning the layout if not given.

    Returns the layout actually used.
    """
    if layout is None:
        layout = plan_layout(records)
    with BamcWriter(path, header, layout,
                    slab_records=slab_records) as writer:
        writer.write_all(records)
    return layout


def read_bamc(path: str | os.PathLike[str],
              ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire BAMC file into memory: ``(header, records)``."""
    with BamcReader(path) as reader:
        return reader.header, list(reader)
