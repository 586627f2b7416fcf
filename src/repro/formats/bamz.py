"""BAMZ: BGZF-compressed BAMX (the paper's future work, §VII).

The paper's conclusions propose "utiliz[ing] certain compression
techniques during the BAMX/BAIX file generation".  BAMZ implements
that: the same fixed-length records as BAMX, but stored inside a BGZF
stream so the padding costs (almost) nothing on disk.  Random access is
preserved with a sidecar ``.bzi`` index holding each record's BGZF
virtual offset (8 bytes per record) — record *i* is one
``seek_virtual`` plus one fixed-size read away.

File layout (all inside the BGZF stream)::

    magic "BAMZ\\x01"
    u32 name_cap  u32 cigar_cap  u32 seq_cap  u32 tag_cap
    u64 record_count
    u32 sam_header_text_length
    ... SAM header text
    ... records, each layout.record_size bytes

Sidecar ``<path>.bzi``::

    magic "BZI\\x01"
    u64 record_count
    u64[record_count] virtual offsets

:class:`BamzReader` exposes the same interface as
:class:`~repro.formats.bamx.BamxReader` (``len``, ``[i]``,
``read_range``, iteration, ``.header``, ``.layout``), so converters can
use either store interchangeably.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Iterator

import numpy as np

from ..errors import BamxFormatError, IndexError_
from .bamx import BamxLayout, BamxWriter, RowStoreReader, open_source, \
    plan_layout
from .bgzf import MAX_BLOCK_DATA, BgzfReader, BgzfWriter
from .header import SamHeader
from .record import AlignmentRecord

MAGIC = b"BAMZ\x01"
INDEX_MAGIC = b"BZI\x01"

_HEAD = struct.Struct("<IIIIQI")


def index_path_for(bamz_path: str | os.PathLike[str]) -> str:
    """The conventional sidecar index path, ``<bamz>.bzi``."""
    return os.fspath(bamz_path) + ".bzi"


class BamzWriter(BamxWriter):
    """Write a BAMZ file plus its ``.bzi`` virtual-offset index: the
    rows of a :class:`~repro.formats.bamx.BamxWriter` inside a BGZF
    stream, so only the header and the close differ."""

    def __init__(self, target: str | os.PathLike[str], header: SamHeader,
                 layout: BamxLayout, level: int = 6) -> None:
        self.path = os.fspath(target)
        self.header = header
        self.layout = layout
        self._fh = BgzfWriter(self.path, level=level)
        text = header.to_text().encode("ascii")
        head = MAGIC + _HEAD.pack(layout.name_cap, layout.cigar_cap,
                                  layout.seq_cap, layout.tag_cap,
                                  0, len(text))
        self._fh.write(head + text)
        self._data_start = len(head) + len(text)
        self.records_written = 0

    def close(self) -> None:
        """Finish the BGZF stream and write the sidecar index.

        The record count inside the BGZF header cannot be patched after
        compression, so the authoritative count lives in the index; the
        reader cross-checks the two.
        """
        if self._fh.closed:
            return
        self._fh.close()
        # The stream is never flushed early, so block k holds bytes
        # [k * 0xFF00, (k + 1) * 0xFF00) and offsets follow from indices.
        upos = self._data_start + self.layout.record_size * np.arange(
            self.records_written, dtype=np.int64)
        starts = np.asarray(self._fh.block_starts, dtype=np.int64)
        voffsets = starts[upos // MAX_BLOCK_DATA] << 16 \
            | upos % MAX_BLOCK_DATA
        with open(index_path_for(self.path), "wb") as fh:
            fh.write(INDEX_MAGIC)
            fh.write(struct.pack("<Q", len(voffsets)))
            fh.write(voffsets.astype("<u8").tobytes())


class BamzReader(RowStoreReader):
    """Random-access BAMZ reader (BamxReader-compatible interface,
    *source* and *header* included)."""

    kind = "bamz"

    def __init__(self, source: str | os.PathLike[str] | io.BufferedReader,
                 header: SamHeader | None = None,
                 index_path: str | os.PathLike[str] | None = None) -> None:
        self._fh, self.source_name = open_source(source)
        self._bgzf = BgzfReader(self._fh)
        magic = self._bgzf.read(len(MAGIC))
        if magic != MAGIC:
            raise BamxFormatError("bad BAMZ magic",
                                  source=self.source_name)
        (name_cap, cigar_cap, seq_cap, tag_cap, _count,
         text_len) = _HEAD.unpack(self._bgzf.read_exactly(_HEAD.size))
        self.layout = BamxLayout(name_cap, cigar_cap, seq_cap, tag_cap)
        text = self._bgzf.read_exactly(text_len)
        self.header = header if header is not None \
            else SamHeader.from_text(text.decode("ascii"))
        self._first_voffset = self._bgzf.tell()
        if index_path is None:
            index_path = index_path_for(self.source_name)
        self._voffsets = _load_index(index_path)
        self._count = len(self._voffsets)
        if self._count and self._voffsets[0] != self._first_voffset:
            raise IndexError_(
                f"index {os.fspath(index_path)} does not match "
                f"{self.source_name} (first record offset differs)")

    def __enter__(self) -> "BamzReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying BGZF stream and its file."""
        self._bgzf.close()
        self._fh.close()

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> AlignmentRecord:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"record index {index} out of range "
                             f"[0, {self._count})")
        self._bgzf.seek_virtual(int(self._voffsets[index]))
        data = self._bgzf.read_exactly(self.layout.record_size)
        return self.layout.decode(data, self.header, 0, index,
                                  self.source_name)

    def read_raw(self, index: int) -> bytes:
        """Read the raw :attr:`record_size` bytes of record *index*."""
        if not 0 <= index < self._count:
            raise BamxFormatError(
                f"record index {index} outside [0, {self._count})",
                source=self.source_name)
        self._bgzf.seek_virtual(int(self._voffsets[index]))
        return self._bgzf.read_exactly(self.layout.record_size)

    def read_raw_batches(self, start: int, stop: int,
                         batch_size: int = 0,
                         ) -> Iterator[tuple[memoryview, int]]:
        """Yield ``(slab, count)`` raw-record slabs for ``[start, stop)``.

        Same contract as
        :meth:`~repro.formats.bamx.BamxReader.read_raw_batches`:
        records are contiguous in the decompressed stream, so one seek
        plus sequential slab reads suffices.
        """
        counts = self._batch_counts(start, stop, batch_size)
        if counts:
            self._bgzf.seek_virtual(int(self._voffsets[start]))
        for n in counts:
            yield memoryview(self._bgzf.read_exactly(
                n * self.layout.record_size)), n


def _load_index(path: str | os.PathLike[str]) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(len(INDEX_MAGIC))
        if magic != INDEX_MAGIC:
            raise IndexError_(f"bad BZI magic in {os.fspath(path)}")
        (count,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(8 * count), dtype="<u8")
    if len(data) != count:
        raise IndexError_(f"truncated BZI index {os.fspath(path)}")
    return data


def write_bamz(path: str | os.PathLike[str], header: SamHeader,
               records: list[AlignmentRecord],
               layout: BamxLayout | None = None,
               level: int = 6) -> BamxLayout:
    """Write *records* to a BAMZ file (+ index), planning the layout if
    not given.  Returns the layout used."""
    if layout is None:
        layout = plan_layout(records)
    with BamzWriter(path, header, layout, level=level) as writer:
        writer.write_all(records)
    return layout


def read_bamz(path: str | os.PathLike[str],
              ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire BAMZ file into memory: ``(header, records)``."""
    with BamzReader(path) as reader:
        return reader.header, list(reader)
