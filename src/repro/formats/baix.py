"""BAIX ("BAI eXtended"): the paper's index over a BAMX file.

A BAIX file stores every alignment's *starting position* together with
its *record index* in the associated BAMX file, sorted by genomic
coordinate (Fig. 4 of the paper: positions ascending, indices in
whatever order the records landed in the BAMX).  A user-specified region
maps to a contiguous BAIX subrange via binary search; the subrange is
then split evenly across processors for partial conversion.

On-disk layout::

    magic "BAIX\\x01"
    u64 entry_count
    i32[entry_count]  ref ids        )
    i32[entry_count]  positions      )  columnar, numpy-friendly
    i64[entry_count]  record indices )

Unplaced records (no reference / no position) are excluded from the
index, mirroring BAI behaviour.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable

import numpy as np

from ..errors import IndexError_
from .bamx import BamxReader
from .header import SamHeader
from .record import AlignmentRecord

MAGIC = b"BAIX\x01"


class BaixIndex:
    """Sorted (ref, pos) -> BAMX record index mapping."""

    def __init__(self, ref_ids: np.ndarray, positions: np.ndarray,
                 indices: np.ndarray) -> None:
        if not (len(ref_ids) == len(positions) == len(indices)):
            raise IndexError_("BAIX column lengths disagree")
        self.ref_ids = np.ascontiguousarray(ref_ids, dtype=np.int32)
        self.positions = np.ascontiguousarray(positions, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        # Composite sort key: ref id in the high bits, position low.
        self._keys = (self.ref_ids.astype(np.int64) << 32) \
            | self.positions.astype(np.int64)
        if len(self._keys) > 1 and np.any(np.diff(self._keys) < 0):
            raise IndexError_("BAIX entries are not coordinate-sorted")

    def __len__(self) -> int:
        return len(self.indices)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_columns(cls, ref_ids, positions, indices) -> "BaixIndex":
        """Build from the ``(ref id, start, record index)`` columns of
        the placed records, in any order."""
        ref_arr = np.asarray(ref_ids, dtype=np.int32)
        pos_arr = np.asarray(positions, dtype=np.int32)
        idx_arr = np.asarray(indices, dtype=np.int64)
        order = np.lexsort((idx_arr, pos_arr, ref_arr))
        return cls(ref_arr[order], pos_arr[order], idx_arr[order])

    @classmethod
    def build(cls, records: Iterable[tuple[int, AlignmentRecord]],
              header: SamHeader) -> "BaixIndex":
        """Build from ``(record_index, record)`` pairs in any order."""
        ref_ids, positions, indices = [], [], []
        for index, record in records:
            if record.rname != "*" and record.pos >= 0:
                ref_ids.append(header.ref_id(record.rname))
                positions.append(record.pos)
                indices.append(index)
        return cls.from_columns(ref_ids, positions, indices)

    @classmethod
    def from_bamx(cls, reader: BamxReader) -> "BaixIndex":
        """Index every placed record of an open BAMX reader."""
        return cls.build(enumerate(reader), reader.header)

    # -- (de)serialization -------------------------------------------------

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the columnar on-disk layout."""
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(self.indices)))
            fh.write(self.ref_ids.astype("<i4").tobytes())
            fh.write(self.positions.astype("<i4").tobytes())
            fh.write(self.indices.astype("<i8").tobytes())

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "BaixIndex":
        """Parse an on-disk BAIX file."""
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise IndexError_(f"bad BAIX magic in {os.fspath(path)}")
            (count,) = struct.unpack("<Q", fh.read(8))
            ref_ids = np.frombuffer(fh.read(4 * count), dtype="<i4")
            positions = np.frombuffer(fh.read(4 * count), dtype="<i4")
            indices = np.frombuffer(fh.read(8 * count), dtype="<i8")
        if len(indices) != count:
            raise IndexError_(f"truncated BAIX file {os.fspath(path)}")
        return cls(ref_ids, positions, indices)

    # -- queries -----------------------------------------------------------

    def locate(self, ref_id: int, start: int, end: int) -> tuple[int, int]:
        """Return the BAIX entry subrange ``[lo, hi)`` whose records
        *start* within ``[start, end)`` on reference *ref_id*.

        This is the binary search of §III-B: both region boundaries are
        located over the sorted starting positions.  (Like the paper, the
        region selects by record start position, the quantity BAIX
        stores.)
        """
        if start < 0 or end < start:
            raise IndexError_(f"invalid region [{start}, {end})")
        lo_key = (ref_id << 32) | start
        hi_key = (ref_id << 32) | end
        lo = int(np.searchsorted(self._keys, lo_key, side="left"))
        hi = int(np.searchsorted(self._keys, hi_key, side="left"))
        return lo, hi

    def record_indices(self, lo: int, hi: int) -> np.ndarray:
        """BAMX record indices for BAIX entries ``[lo, hi)``."""
        if not 0 <= lo <= hi <= len(self.indices):
            raise IndexError_(
                f"BAIX subrange [{lo}, {hi}) outside [0, {len(self.indices)})")
        return self.indices[lo:hi]

    def ref_span(self, ref_id: int) -> tuple[int, int]:
        """Entry subrange covering all of reference *ref_id*."""
        return self.locate(ref_id, 0, 1 << 31)


def default_index_path(bamx_path: str | os.PathLike[str]) -> str:
    """The conventional sibling index path, ``<bamx>.baix``."""
    return os.fspath(bamx_path) + ".baix"
