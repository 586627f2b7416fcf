"""Partitioning strategies: Algorithm 1 for delimited text, and
equal-record splitting for fixed-layout (BAMX) data.

The paper's Algorithm 1 splits a SAM file into byte ranges so that every
partition starts exactly at a record (line) boundary:

1. distribute the file evenly: rank *i* tentatively owns
   ``[i * L / N, (i + 1) * L / N)``;
2. every rank except 0 scans forward from its tentative start for the
   first line breaker and moves its start just past it;
3. ``end[i] = start[i + 1]`` (rank N-1 keeps the file end);
4. barrier; recompute lengths.

Consequences worth noting (and property-tested): partitions tile the
file exactly, each partition begins immediately after a ``\\n`` (or at
offset 0), and a rank whose tentative slice contains no newline ends up
with an *empty* partition — records are never split or duplicated.

The algorithm has one implementation, :func:`partition_bytes_source`: a
pure function computing every rank's boundaries at once, so step 3's
boundary exchange is a list lookup and step 4's barrier its return.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import PartitionError
from .tracing import get_tracer

#: Default number of bytes to read per probe while scanning for a
#: delimiter.  Large enough that one probe nearly always suffices for SAM.
PROBE_SIZE = 1 << 16

LINE_BREAKER = b"\n"


@dataclass(frozen=True, slots=True)
class Partition:
    """One rank's byte range ``[start, end)`` of a file."""

    rank: int
    start: int
    end: int

    @property
    def length(self) -> int:
        """Partition size in bytes (0 for an empty partition)."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise PartitionError(
                f"invalid partition [{self.start}, {self.end}) "
                f"for rank {self.rank}")


def even_split(length: int, nparts: int) -> list[tuple[int, int]]:
    """Tentative even byte split: ``nparts`` ranges tiling [0, length).

    Sizes differ by at most one byte; this is the "evenly distribute"
    step of Algorithm 1.
    """
    if nparts < 1:
        raise PartitionError(f"partition count {nparts} must be >= 1")
    if length < 0:
        raise PartitionError(f"negative length {length}")
    base, extra = divmod(length, nparts)
    bounds = []
    offset = 0
    for i in range(nparts):
        size = base + (1 if i < extra else 0)
        bounds.append((offset, offset + size))
        offset += size
    return bounds


def _scan_forward(read_at, start: int, length: int,
                  probe_size: int = PROBE_SIZE) -> int:
    """Offset just past the first line breaker at or after *start*.

    *read_at(offset, size)* must return up to *size* bytes at *offset*.
    Returns *length* when no breaker exists in ``[start, length)``.
    """
    offset = start
    while offset < length:
        chunk = read_at(offset, probe_size)
        if not chunk:
            break
        found = chunk.find(LINE_BREAKER)
        if found >= 0:
            return offset + found + 1
        offset += len(chunk)
    return length


def partition_text_file(path: str | os.PathLike[str], nparts: int,
                        probe_size: int = PROBE_SIZE) -> list[Partition]:
    """Algorithm 1 over a newline-delimited file, all ranks at once.

    The returned partitions tile ``[0, file_size)``; every partition
    start (except 0) immediately follows a line breaker.
    """
    length = os.path.getsize(path)
    with get_tracer().span("partition.algorithm1", "partition",
                           args={"nparts": nparts, "bytes": length}), \
            open(path, "rb") as fh:
        def read_at(offset: int, size: int) -> bytes:
            fh.seek(offset)
            return fh.read(size)
        return partition_bytes_source(read_at, length, nparts, probe_size)


def partition_bytes(data: bytes, nparts: int,
                    probe_size: int = PROBE_SIZE) -> list[Partition]:
    """Algorithm 1 over an in-memory byte string (tests, small inputs)."""
    def read_at(offset: int, size: int) -> bytes:
        return data[offset:offset + size]
    return partition_bytes_source(read_at, len(data), nparts, probe_size)


def partition_bytes_source(read_at, length: int, nparts: int,
                           probe_size: int = PROBE_SIZE) -> list[Partition]:
    """Algorithm 1 core, over any random-access byte source."""
    tentative = even_split(length, nparts)
    # Step 2: every rank except 0 advances its start past the first
    # line breaker at or after the tentative boundary.
    starts = [0] * nparts
    for rank in range(1, nparts):
        starts[rank] = _scan_forward(read_at, tentative[rank][0], length,
                                     probe_size)
    # Step 3: end[i] = start[i+1]; the last rank keeps the file end.
    partitions = []
    for rank in range(nparts):
        end = starts[rank + 1] if rank + 1 < nparts else length
        start = min(starts[rank], end)
        partitions.append(Partition(rank, start, end))
    return partitions


def partition_records(count: int, nparts: int) -> list[tuple[int, int]]:
    """Equal-record split used after BAMX preprocessing (§III-B).

    Returns ``nparts`` half-open index ranges tiling ``[0, count)`` whose
    sizes differ by at most one record.
    """
    return even_split(count, nparts)
