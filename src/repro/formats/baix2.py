"""BAIX v2: overlap-capable extension of the BAIX index.

The paper's conclusions propose "more sophisticated indexing techniques
to the BAIX structure design for supporting more partial conversion
types".  Version 1 (:mod:`repro.formats.baix`) answers exactly one
query: *records whose start lies inside a region*.  Version 2 adds the
query genome browsers and pileup tools actually need — *records whose
alignment span overlaps a region* — by additionally storing each
record's end position and the maximum span per reference.

Overlap query (classic max-span trick): a record overlapping
``[qstart, qend)`` must start in ``[qstart - max_span, qend)``; binary
search gives that candidate subrange, then a vectorized filter on the
stored ends keeps actual overlappers.  Cost: O(log n + candidates).

On-disk layout (magic ``BAIX\\x02``)::

    u64 entry_count
    i32[n] ref ids   i32[n] starts   i32[n] ends   i64[n] record indices
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable

import numpy as np

from ..errors import IndexError_
from .header import SamHeader
from .record import AlignmentRecord

MAGIC = b"BAIX\x02"


def record_columns(records: Iterable[tuple[int, AlignmentRecord]],
                   header: SamHeader) -> tuple[list[int], ...]:
    """``(ref_ids, starts, ends, indices)`` of the placed records among
    ``(record_index, record)`` pairs: what the indexes are built from."""
    ref_ids, starts, ends, indices = columns = [], [], [], []
    for index, record in records:
        if record.rname != "*" and record.pos >= 0:
            ref_ids.append(header.ref_id(record.rname))
            starts.append(record.pos)
            ends.append(record.end)
            indices.append(index)
    return columns


class BaixOverlapIndex:
    """Coordinate-sorted (ref, start, end) -> record-index mapping with
    both start-within and overlap queries."""

    def __init__(self, ref_ids: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, indices: np.ndarray) -> None:
        n = len(indices)
        if not (len(ref_ids) == len(starts) == len(ends) == n):
            raise IndexError_("BAIX2 column lengths disagree")
        self.ref_ids = np.ascontiguousarray(ref_ids, dtype=np.int32)
        self.starts = np.ascontiguousarray(starts, dtype=np.int32)
        self.ends = np.ascontiguousarray(ends, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._keys = (self.ref_ids.astype(np.int64) << 32) \
            | self.starts.astype(np.int64)
        if n > 1 and np.any(np.diff(self._keys) < 0):
            raise IndexError_("BAIX2 entries are not coordinate-sorted")
        if np.any(self.ends < self.starts):
            raise IndexError_("BAIX2 entry with end < start")
        # Maximum alignment span per reference drives the overlap
        # candidate window.  The entries are sorted, so each reference
        # is one run (np.unique would import numpy.ma to say the same).
        runs = [0, *(np.flatnonzero(np.diff(self.ref_ids)) + 1).tolist(), n]
        spans = self.ends - self.starts
        self._max_span: dict[int, int] = {
            int(self.ref_ids[lo]): int(spans[lo:hi].max())
            for lo, hi in zip(runs, runs[1:]) if hi > lo}

    def __len__(self) -> int:
        return len(self.indices)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_columns(cls, ref_ids, starts, ends, indices,
                     ) -> "BaixOverlapIndex":
        """Build from the ``(ref id, start, end, record index)`` columns
        of the placed records, in any order."""
        ref_arr = np.asarray(ref_ids, dtype=np.int32)
        start_arr = np.asarray(starts, dtype=np.int32)
        end_arr = np.asarray(ends, dtype=np.int32)
        idx_arr = np.asarray(indices, dtype=np.int64)
        order = np.lexsort((idx_arr, start_arr, ref_arr))
        return cls(ref_arr[order], start_arr[order], end_arr[order],
                   idx_arr[order])

    @classmethod
    def build(cls, records: Iterable[tuple[int, AlignmentRecord]],
              header: SamHeader) -> "BaixOverlapIndex":
        """Build from ``(record_index, record)`` pairs in any order."""
        return cls.from_columns(*record_columns(records, header))

    # -- (de)serialization -------------------------------------------------

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the columnar v2 layout."""
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(self.indices)))
            fh.write(self.ref_ids.astype("<i4").tobytes())
            fh.write(self.starts.astype("<i4").tobytes())
            fh.write(self.ends.astype("<i4").tobytes())
            fh.write(self.indices.astype("<i8").tobytes())

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "BaixOverlapIndex":
        """Parse an on-disk v2 index."""
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise IndexError_(
                    f"bad BAIX2 magic in {os.fspath(path)}")
            (count,) = struct.unpack("<Q", fh.read(8))
            ref_ids = np.frombuffer(fh.read(4 * count), dtype="<i4")
            starts = np.frombuffer(fh.read(4 * count), dtype="<i4")
            ends = np.frombuffer(fh.read(4 * count), dtype="<i4")
            indices = np.frombuffer(fh.read(8 * count), dtype="<i8")
        if len(indices) != count:
            raise IndexError_(f"truncated BAIX2 file {os.fspath(path)}")
        return cls(ref_ids, starts, ends, indices)

    # -- queries -----------------------------------------------------------

    def locate_starts(self, ref_id: int, start: int, end: int,
                      ) -> tuple[int, int]:
        """v1 semantics: entry subrange whose records *start* within
        ``[start, end)``."""
        if start < 0 or end < start:
            raise IndexError_(f"invalid region [{start}, {end})")
        lo = int(np.searchsorted(self._keys, (ref_id << 32) | start,
                                 side="left"))
        hi = int(np.searchsorted(self._keys, (ref_id << 32) | end,
                                 side="left"))
        return lo, hi

    def locate_overlaps(self, ref_id: int, start: int, end: int,
                        ) -> np.ndarray:
        """Record indices whose alignment span overlaps ``[start, end)``.

        May be non-contiguous in the index; returned in coordinate
        order.
        """
        if start < 0 or end < start:
            raise IndexError_(f"invalid region [{start}, {end})")
        span = self._max_span.get(int(ref_id), 0)
        lo, hi = self.locate_starts(ref_id, max(0, start - span), end)
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        candidate_ends = self.ends[lo:hi]
        keep = candidate_ends > start
        return self.indices[lo:hi][keep]


def default_index_path(store_path: str | os.PathLike[str]) -> str:
    """The conventional sibling path, ``<store>.baix2``."""
    return os.fspath(store_path) + ".baix2"
