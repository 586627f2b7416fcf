"""Buffered, metered I/O: the runtime's read and write buffers.

The paper's runtime "schedules repeated loading of partitioned data into
memory via the read buffer" and sends converted objects "to the write
buffer".  These classes implement that double-ended buffering and, when
given a :class:`~repro.runtime.metrics.RankMetrics`, attribute wall time
and byte counts to the I/O phase so the cost model can separate compute
from I/O.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator

from ..errors import PartitionError, SamFormatError
from .metrics import RankMetrics

#: Default read-buffer capacity (4 MiB).
DEFAULT_READ_CHUNK = 4 << 20

#: Default write-buffer flush threshold (4 MiB).
DEFAULT_WRITE_CHUNK = 4 << 20

#: Files changed more recently than this are not yet :func:`settled`: a
#: coarse-clock filesystem (tick <= 10 ms) may stamp a second write the
#: same.
SETTLE_NS = 20_000_000


def file_identity(st: os.stat_result) -> tuple[int, ...]:
    """What tells one state of a file from the next without reading it —
    the key the artifact cache remembers digests under and the stores
    keep parsed metadata under: publishing by ``os.replace`` changes the
    inode, a rewrite in place the ``ctime``."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
            st.st_ctime_ns)


def settled(st: os.stat_result) -> bool:
    """Whether *st*'s timestamps are old enough (:data:`SETTLE_NS`) for
    its :func:`file_identity` to be remembered."""
    return max(st.st_mtime_ns, st.st_ctime_ns) < time.time_ns() - SETTLE_NS


class RangeLineReader:
    """Iterate the complete text lines of a byte range of a file.

    The range must start at a line boundary (Algorithm 1 guarantees
    this); the final line may lack a trailing newline only if the range
    ends at end-of-file.  Lines are yielded *without* their newline.
    """

    def __init__(self, path: str | os.PathLike[str], start: int, end: int,
                 chunk_size: int = DEFAULT_READ_CHUNK,
                 metrics: RankMetrics | None = None) -> None:
        if start < 0 or end < start:
            raise PartitionError(f"invalid byte range [{start}, {end})")
        self.path = os.fspath(path)
        self.start = start
        self.end = end
        self.chunk_size = chunk_size
        self.metrics = metrics or RankMetrics()

    def iter_blocks(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(file offset, block)`` pairs: consecutive blocks of
        whole lines, each ending in its newline — one per disk chunk
        that completes a line — except a final unterminated line.
        The one read loop: metered reads, the unfinished tail carried
        into the next block, and the check that SAM text is ASCII.
        """
        remaining = self.end - self.start
        offset, tail = self.start, b""
        with open(self.path, "rb") as fh:
            fh.seek(self.start)
            while remaining > 0:
                t0 = time.perf_counter()
                chunk = fh.read(min(self.chunk_size, remaining))
                self.metrics.io_seconds += time.perf_counter() - t0
                if not chunk:
                    break
                self.metrics.bytes_read += len(chunk)
                remaining -= len(chunk)
                cut = chunk.rfind(b"\n") + 1
                if not cut:
                    tail += chunk
                    continue
                # One copy of the data alive at a time, not three: a
                # rank's peak memory is a gated benchmark metric.
                block = b"".join((tail, memoryview(chunk)[:cut]))
                tail = chunk[cut:]
                del chunk
                yield offset, self._ascii(offset, block)
                offset += len(block)
                del block
        if tail:
            yield offset, self._ascii(offset, tail)

    def _ascii(self, offset: int, block: bytes) -> bytes:
        if not block.isascii():
            at = next(i for i, b in enumerate(block) if b > 0x7F)
            raise SamFormatError(
                f"non-ASCII byte 0x{block[at]:02x} at offset {offset + at}",
                source=self.path)
        return block

    def _line_lists(self) -> Iterator[list[str]]:
        """The lines of each block, decoded and split in one pass."""
        for _, block in self.iter_blocks():
            lines = block.decode("ascii").split("\n")
            if not lines[-1]:
                lines.pop()     # the block ended in its newline
            yield lines

    def __iter__(self) -> Iterator[str]:
        for lines in self._line_lists():
            yield from lines

    def iter_batches(self, batch_size: int) -> Iterator[list[str]]:
        """Yield lists of up to *batch_size* complete lines (only the
        last may be short), so the per-line Python iteration happens
        once, in the codec."""
        if batch_size < 1:
            raise PartitionError(f"batch size must be >= 1, "
                                 f"got {batch_size}")
        pending: list[str] = []
        for lines in self._line_lists():
            pending.extend(lines)
            while len(pending) >= batch_size:
                yield pending[:batch_size]
                del pending[:batch_size]
        if pending:
            yield pending


class BufferedTextWriter:
    """Accumulate text and flush to disk in large metered writes."""

    def __init__(self, path: str | os.PathLike[str],
                 chunk_size: int = DEFAULT_WRITE_CHUNK,
                 metrics: RankMetrics | None = None) -> None:
        self.path = os.fspath(path)
        self.chunk_size = chunk_size
        self.metrics = metrics or RankMetrics()
        self._fh = open(self.path, "wb")  # noqa: SIM115
        self._buffer: list[bytes] = []
        self._buffered = 0

    def __enter__(self) -> "BufferedTextWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write_line(self, line: str) -> None:
        """Queue one line (newline appended) for the next flush."""
        data = line.encode("ascii") + b"\n"
        self._buffer.append(data)
        self._buffered += len(data)
        if self._buffered >= self.chunk_size:
            self.flush()

    def write_lines(self, lines: list[str]) -> None:
        """Queue a batch of lines in one join + encode.

        Byte-identical to calling :meth:`write_line` per line, but the
        newline joining and ASCII encoding run once per batch.
        """
        if not lines:
            return
        data = ("\n".join(lines) + "\n").encode("ascii")
        self._buffer.append(data)
        self._buffered += len(data)
        if self._buffered >= self.chunk_size:
            self.flush()

    def write_text(self, text: str) -> None:
        """Queue raw text (no newline added)."""
        data = text.encode("ascii")
        self._buffer.append(data)
        self._buffered += len(data)
        if self._buffered >= self.chunk_size:
            self.flush()

    def flush(self) -> None:
        """Write the queued data in one OS call, metering it."""
        if not self._buffer:
            return
        blob = b"".join(self._buffer)
        self._buffer.clear()
        self._buffered = 0
        t0 = time.perf_counter()
        self._fh.write(blob)
        self.metrics.io_seconds += time.perf_counter() - t0
        self.metrics.bytes_written += len(blob)

    def close(self) -> None:
        """Flush and close the file."""
        if self._fh.closed:
            return
        self.flush()
        self._fh.close()
