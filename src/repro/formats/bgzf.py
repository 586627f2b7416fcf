"""BGZF: the blocked-gzip framing used by BAM (SAM spec §4.1).

A BGZF file is a series of gzip members ("blocks"), each at most 64 KiB of
uncompressed data, carrying a ``BC`` extra subfield that records the
compressed block size.  Because block boundaries are discoverable from the
headers alone, BGZF supports *virtual offsets*::

    voffset = (compressed_block_start << 16) | offset_within_block

which BAI/BAIX indices use for random access.  The blocks themselves are
independent: ``BSIZE`` in every header (and ``ISIZE`` in every trailer)
gives all block boundaries and inflated offsets without inflating
anything (:func:`scan_blocks`), so any block range can be decoded on its
own (``BgzfReader(path, start, stop)``).  What is sequential in a BAM is
the record chain *inside* the inflated stream, not the BGZF layer.
"""

from __future__ import annotations

import io
import os
import struct
import zlib

from ..errors import BgzfError
from ..runtime.tracing import get_tracer

#: Fixed 18-byte BGZF member header prefix (through XLEN), less BSIZE.
_HEADER = struct.Struct("<4BI2BH2BH")
_MAGIC = b"\x1f\x8b\x08\x04"

#: Maximum uncompressed payload per block (samtools convention, keeps the
#: compressed block under 64 KiB even for incompressible data).
MAX_BLOCK_DATA = 0xFF00

#: The 28-byte empty block that marks proper end-of-file.
EOF_MARKER = bytes.fromhex(
    "1f8b08040000000000ff0600424302001b0003000000000000000000")


def make_virtual_offset(coffset: int, uoffset: int) -> int:
    """Combine a compressed block start and an in-block offset."""
    if not 0 <= uoffset < 1 << 16:
        raise ValueError(f"within-block offset {uoffset} outside [0, 65536)")
    if not 0 <= coffset < 1 << 48:
        raise ValueError(f"block offset {coffset} outside 48-bit range")
    return (coffset << 16) | uoffset


def split_virtual_offset(voffset: int) -> tuple[int, int]:
    """Inverse of :func:`make_virtual_offset`."""
    return voffset >> 16, voffset & 0xFFFF


def compress_block(data: bytes, level: int = 6) -> bytes:
    """Compress at most :data:`MAX_BLOCK_DATA` bytes into one BGZF block."""
    if len(data) > MAX_BLOCK_DATA:
        raise BgzfError(
            f"block payload {len(data)} exceeds {MAX_BLOCK_DATA} bytes")
    compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    cdata = compressor.compress(data) + compressor.flush()
    bsize = len(cdata) + 25  # header(18) + cdata + crc(4) + isize(4) - 1
    if bsize >= 1 << 16:
        raise BgzfError("compressed block exceeds 64 KiB")
    header = _MAGIC + struct.pack(
        "<IBBHBBHH",
        0,          # MTIME
        0,          # XFL
        0xFF,       # OS: unknown
        6,          # XLEN
        66, 67,     # SI1='B', SI2='C'
        2,          # SLEN
        bsize,      # BSIZE (total block size minus 1)
    )
    trailer = struct.pack("<II", zlib.crc32(data), len(data) & 0xFFFFFFFF)
    return header + cdata + trailer


def _read_block_size(header: bytes) -> int:
    """Extract BSIZE+1 from an 18-byte block header; raise if malformed."""
    if len(header) < 18:
        raise BgzfError("truncated BGZF block header")
    if header[:4] != _MAGIC:
        raise BgzfError("bad BGZF magic (not a BGZF stream?)")
    xlen = struct.unpack_from("<H", header, 10)[0]
    # The BC subfield is required to be present; samtools always writes it
    # first with XLEN == 6, which is what we emit and require here.
    if xlen != 6 or header[12:14] != b"BC":
        raise BgzfError("missing BC extra subfield in BGZF header")
    bsize = struct.unpack_from("<H", header, 16)[0]
    return bsize + 1


def decompress_block(block: bytes) -> bytes:
    """Decompress one complete BGZF block (header through trailer)."""
    total = _read_block_size(block)
    if len(block) < total:
        raise BgzfError("truncated BGZF block body")
    cdata = block[18:total - 8]
    crc, isize = struct.unpack_from("<II", block, total - 8)
    try:
        data = zlib.decompress(cdata, -15)
    except zlib.error as exc:
        raise BgzfError(f"corrupt BGZF block payload: {exc}") from None
    if len(data) != isize:
        raise BgzfError(f"BGZF ISIZE mismatch: {len(data)} != {isize}")
    if zlib.crc32(data) != crc:
        raise BgzfError("BGZF CRC mismatch")
    return data


def scan_blocks(path: str | os.PathLike[str],
                ) -> tuple[list[int], list[int]]:
    """``(starts, sizes)`` from the block headers and trailers alone:
    the compressed offset of every block plus the end of the file, and
    every block's ``ISIZE``.  Nothing is inflated, and nothing is sized
    from a ``BSIZE`` or ``ISIZE`` that cannot be true."""
    starts, sizes = [0], []
    with open(path, "rb", buffering=0) as fh:
        end = os.fstat(fh.fileno()).st_size
        while (at := starts[-1]) < end:
            total = _read_block_size(os.pread(fh.fileno(), 18, at))
            if total < len(EOF_MARKER):
                raise BgzfError(f"BGZF block of {total} bytes is smaller "
                                f"than an empty block")
            if at + total > end:
                raise BgzfError("truncated BGZF block")
            (isize,) = struct.unpack(
                "<I", os.pread(fh.fileno(), 4, at + total - 4))
            if isize > 1 << 16:
                raise BgzfError(f"BGZF ISIZE {isize} exceeds 64 KiB")
            starts.append(at + total)
            sizes.append(isize)
    return starts, sizes


class BgzfWriter(io.RawIOBase):
    """File-like object writing a BGZF-compressed stream.

    ``tell()`` returns the *virtual offset* of the next byte, so callers
    (the BAM writer, index builders) can record record positions.
    """

    def __init__(self, target: str | os.PathLike[str] | io.RawIOBase,
                 level: int = 6) -> None:
        if isinstance(target, (str, os.PathLike)):
            self._raw: io.RawIOBase = open(target, "wb")  # noqa: SIM115
            self._owns = True
        else:
            self._raw = target
            self._owns = False
        self._level = level
        self._buffer = bytearray()
        self._coffset = 0  # compressed bytes emitted so far
        #: Compressed offset of every block emitted so far (block *k*
        #: starts at uncompressed ``k * MAX_BLOCK_DATA`` unless flushed).
        self.block_starts: list[int] = []
        self._closed = False

    def writable(self) -> bool:  # noqa: D102 - io.RawIOBase API
        return True

    def write(self, data: bytes) -> int:  # type: ignore[override]
        """Buffer *data* (any contiguous buffer, e.g. a 2-D row block),
        flushing full 64 KiB blocks as they fill."""
        data = memoryview(data).cast("B")
        self._buffer += data
        while len(self._buffer) >= MAX_BLOCK_DATA:
            self._emit(bytes(self._buffer[:MAX_BLOCK_DATA]))
            del self._buffer[:MAX_BLOCK_DATA]
        return len(data)

    def _emit(self, payload: bytes) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("compress", "bgzf",
                             args={"bytes": len(payload)}):
                block = compress_block(payload, self._level)
        else:
            block = compress_block(payload, self._level)
        self._raw.write(block)
        self.block_starts.append(self._coffset)
        self._coffset += len(block)

    def flush_block(self) -> None:
        """Force the current partial block out (starts a fresh block)."""
        if self._buffer:
            self._emit(bytes(self._buffer))
            self._buffer.clear()

    def tell(self) -> int:
        """Virtual offset of the next byte to be written."""
        return make_virtual_offset(self._coffset, len(self._buffer))

    def close(self) -> None:
        """Flush remaining data, append the EOF marker, close if owned."""
        if self._closed:
            return
        self._closed = True
        self.flush_block()
        self._raw.write(EOF_MARKER)
        if self._owns:
            self._raw.close()
        else:
            self._raw.flush()
        super().close()


class BgzfReader(io.RawIOBase):
    """File-like object reading a BGZF-compressed stream sequentially,
    with random access via :meth:`seek_virtual`.  *start* and *stop*
    (compressed block offsets, e.g. from :func:`scan_blocks`) confine
    the stream to one block range.
    """

    def __init__(self, source: str | os.PathLike[str] | io.RawIOBase,
                 start: int = 0, stop: int | None = None) -> None:
        if isinstance(source, (str, os.PathLike)):
            self._raw: io.RawIOBase = open(source, "rb")  # noqa: SIM115
            self._owns = True
        else:
            self._raw = source
            self._owns = False
        self._block_start = 0   # compressed offset of the loaded block
        self._block_data = b""
        self._within = 0        # cursor within the loaded block
        self._next_start = start  # compressed offset of the next block
        self._stop = stop
        self._eof = False
        self._load_next_block()

    def readable(self) -> bool:  # noqa: D102 - io.RawIOBase API
        return True

    def _load_next_block(self) -> None:
        """Load the next block that holds data: an empty block is legal
        mid-stream and mandatory at EOF, and read() wants a contiguous
        byte stream."""
        self._block_data, self._within = b"", 0
        tracer = get_tracer()
        while not self._block_data:
            self._raw.seek(self._next_start)
            header = b"" if self._next_start == self._stop \
                else self._raw.read(18)
            if not header:
                self._eof = True
                return
            total = _read_block_size(header)
            body = self._raw.read(total - 18)
            if len(body) != total - 18:
                raise BgzfError("truncated BGZF block")
            self._block_start = self._next_start
            self._next_start += total
            with tracer.span("decompress", "bgzf", args={"bytes": total}):
                self._block_data = decompress_block(header + body)

    def read(self, n: int = -1) -> bytes:  # type: ignore[override]
        """Read up to *n* uncompressed bytes (all remaining if n < 0)."""
        if n < 0:
            chunks = []
            while True:
                chunk = self.read(1 << 20)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
        out = bytearray()
        while n > 0 and not (self._eof and self._within >= len(self._block_data)):
            avail = len(self._block_data) - self._within
            if avail == 0:
                self._load_next_block()
                continue
            take = min(n, avail)
            out += self._block_data[self._within:self._within + take]
            self._within += take
            n -= take
        return bytes(out)

    def read_exactly(self, n: int) -> bytes:
        """Read exactly *n* bytes or raise :class:`BgzfError`."""
        data = self.read(n)
        if len(data) != n:
            raise BgzfError(f"unexpected EOF: wanted {n} bytes, got {len(data)}")
        return data

    def tell(self) -> int:
        """Virtual offset of the next byte to be read."""
        return make_virtual_offset(self._block_start, self._within)

    def seek_virtual(self, voffset: int) -> None:
        """Position the cursor at a virtual offset previously obtained
        from a writer's/reader's ``tell()`` or from an index."""
        coffset, uoffset = split_virtual_offset(voffset)
        if coffset != self._block_start or not self._block_data:
            self._next_start = coffset
            self._eof = False
            self._load_next_block()
        if uoffset > len(self._block_data):
            raise BgzfError(
                f"virtual offset {voffset} points beyond block payload")
        self._within = uoffset

    def at_eof(self) -> bool:
        """True once every uncompressed byte has been consumed."""
        return self._eof and self._within >= len(self._block_data)

    def close(self) -> None:  # noqa: D102 - io.RawIOBase API
        if self._owns:
            self._raw.close()
        super().close()


def is_bgzf(source: str | os.PathLike[str] | bytes) -> bool:
    """Cheap sniff: does the file at *source* — or do its first 18
    bytes, handed over as ``bytes`` — start with a BGZF block header?"""
    if isinstance(source, bytes):
        header = source
    else:
        with open(source, "rb") as fh:
            header = fh.read(18)
    try:
        _read_block_size(header)
    except BgzfError:
        return False
    return True


def compress_bytes(data: bytes, level: int = 6) -> bytes:
    """Compress an arbitrary byte string into a full BGZF stream
    (blocks + EOF marker).  Convenience for tests and small payloads."""
    out = bytearray()
    for off in range(0, len(data), MAX_BLOCK_DATA):
        out += compress_block(data[off:off + MAX_BLOCK_DATA], level)
    out += EOF_MARKER
    return bytes(out)


def decompress_bytes(stream: bytes) -> bytes:
    """Inverse of :func:`compress_bytes`."""
    out = bytearray()
    off = 0
    while off < len(stream):
        total = _read_block_size(stream[off:off + 18])
        out += decompress_block(stream[off:off + total])
        off += total
    return bytes(out)
