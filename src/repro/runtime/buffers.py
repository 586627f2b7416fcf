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

from ..errors import PartitionError
from .metrics import RankMetrics

#: Default read-buffer capacity (4 MiB).
DEFAULT_READ_CHUNK = 4 << 20

#: Default write-buffer flush threshold (4 MiB).
DEFAULT_WRITE_CHUNK = 4 << 20


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

    def __iter__(self) -> Iterator[str]:
        remaining = self.end - self.start
        if remaining == 0:
            return
        tail = b""
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
                data = tail + chunk
                lines = data.split(b"\n")
                tail = lines.pop()
                for line in lines:
                    yield line.decode("ascii")
        if tail:
            yield tail.decode("ascii")

    def iter_batches(self, batch_size: int) -> Iterator[list[str]]:
        """Yield lists of up to *batch_size* complete lines.

        The batched counterpart of ``__iter__``: each disk chunk is
        decoded and split in one pass (both C-speed) instead of
        decoding line by line, and lines reach the caller in lists so
        the per-line Python iteration happens once, in the codec.
        """
        if batch_size < 1:
            raise PartitionError(f"batch size must be >= 1, "
                                 f"got {batch_size}")
        remaining = self.end - self.start
        if remaining == 0:
            return
        tail = ""
        pending: list[str] = []
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
                lines = (tail + chunk.decode("ascii")).split("\n")
                tail = lines.pop()
                pending.extend(lines)
                while len(pending) >= batch_size:
                    yield pending[:batch_size]
                    del pending[:batch_size]
        if tail:
            pending.append(tail)
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
