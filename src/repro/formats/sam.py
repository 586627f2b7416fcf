"""SAM text format: parse and emit alignment lines and whole files.

The parser maps each tab-delimited alignment line onto the canonical
:class:`~repro.formats.record.AlignmentRecord`; the writer is its exact
inverse, so ``format_alignment(parse_alignment(line)) == line`` for any
spec-conforming line (this round-trip is property-tested).

:func:`slab_columns` is the way past records: a block of lines proven
canonical becomes a :class:`TextSlab` — numeric columns as arrays, and
the text accessors the :mod:`.kernels` emitters read of any slab,
answered by slicing the block — which :meth:`TextSlab.column_slab`
BAM-encodes into the slab a store is written from.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SamFormatError
from .cigar import CIGAR_OPS, REF_CONSUMING, format_cigar, parse_cigar
from .header import SamHeader
from .ragged import ragged_index, segment_sums
from .record import UNMAPPED_POS, AlignmentRecord
from .seq import NYBBLE_ALPHABET, reverse_complement
from .tags import encode_tag, format_tags, parse_tag, parse_tags

if TYPE_CHECKING:
    from .bamc import ColumnSlab

#: Number of mandatory columns in a SAM alignment line.
MANDATORY_COLUMNS = 11


def parse_alignment(line: str, *, lineno: int | None = None,
                    validate: bool = False) -> AlignmentRecord:
    """Parse one SAM alignment line (no trailing newline required).

    Parameters
    ----------
    line:
        The raw text line.
    lineno:
        Optional line number for error messages.
    validate:
        When True, run full structural validation on the parsed record
        (slower; parsing alone only checks field syntax).
    """
    cols = line.rstrip("\n").split("\t")
    if len(cols) < MANDATORY_COLUMNS:
        raise SamFormatError(
            f"alignment line has {len(cols)} columns, "
            f"expected >= {MANDATORY_COLUMNS}", lineno=lineno)
    try:
        flag = int(cols[1])
        pos1 = int(cols[3])
        mapq = int(cols[4])
        pnext1 = int(cols[7])
        tlen = int(cols[8])
    except ValueError as exc:
        raise SamFormatError(f"non-integer numeric column: {exc}",
                             lineno=lineno) from None
    record = AlignmentRecord(
        qname=cols[0],
        flag=flag,
        rname=cols[2],
        pos=pos1 - 1 if pos1 > 0 else UNMAPPED_POS,
        mapq=mapq,
        cigar=parse_cigar(cols[5]),
        rnext=cols[6],
        pnext=pnext1 - 1 if pnext1 > 0 else UNMAPPED_POS,
        tlen=tlen,
        seq=cols[9],
        qual=cols[10],
        tags=parse_tags(cols[MANDATORY_COLUMNS:]),
    )
    if validate:
        record.validate()
    return record


def format_alignment(record: AlignmentRecord) -> str:
    """Render a record as a SAM alignment line (no trailing newline)."""
    cols = [
        record.qname,
        str(record.flag),
        record.rname,
        str(record.pos + 1 if record.pos != UNMAPPED_POS else 0),
        str(record.mapq),
        format_cigar(record.cigar),
        record.rnext,
        str(record.pnext + 1 if record.pnext != UNMAPPED_POS else 0),
        str(record.tlen),
        record.seq,
        record.qual,
    ]
    tag_text = format_tags(record.tags)
    if tag_text:
        cols.append(tag_text)
    return "\t".join(cols)


class SamReader:
    """Streaming reader over a SAM file or text stream.

    Iterating yields :class:`AlignmentRecord`; the header (if present) is
    parsed eagerly on construction and exposed as :attr:`header`.

    Can be used as a context manager when constructed from a path.
    """

    def __init__(self, source: str | os.PathLike[str] | io.TextIOBase,
                 *, validate: bool = False) -> None:
        if isinstance(source, (str, os.PathLike)):
            self._stream: io.TextIOBase = open(source, "r",  # noqa: SIM115
                                               encoding="ascii", newline="")
            self._owns_stream = True
            self.source_name = os.fspath(source)
        else:
            self._stream = source
            self._owns_stream = False
            self.source_name = getattr(source, "name", "<stream>")
        self._validate = validate
        self._lineno = 0
        self._lines = self._read_lines()
        self._pending: list[str] = []
        header_lines = []
        for line in self._lines:
            if line.startswith("@"):
                header_lines.append(line)
            else:
                self._pending = [line]
                break
        self.header = SamHeader.from_text("".join(header_lines))

    def _read_lines(self) -> Iterator[str]:
        """The stream's lines, counted; a non-ASCII byte is a typed
        error, not the codec's."""
        try:
            for line in self._stream:
                self._lineno += 1
                yield line
        except UnicodeDecodeError as exc:
            raise SamFormatError(
                f"non-ASCII byte 0x{exc.object[exc.start]:02x} after "
                f"line {self._lineno}", source=self.source_name) from None

    def __enter__(self) -> "SamReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying stream if this reader opened it."""
        if self._owns_stream:
            self._stream.close()

    def __iter__(self) -> Iterator[AlignmentRecord]:
        pending, self._pending = self._pending, []
        for line in chain(pending, self._lines):
            if line.strip():
                yield parse_alignment(line, lineno=self._lineno,
                                      validate=self._validate)


class SamWriter:
    """Streaming writer producing a SAM file (header first, then records).

    Can be used as a context manager when constructed from a path.
    """

    def __init__(self, target: str | os.PathLike[str] | io.TextIOBase,
                 header: SamHeader | None = None) -> None:
        if isinstance(target, (str, os.PathLike)):
            self._stream: io.TextIOBase = open(target, "w",  # noqa: SIM115
                                               encoding="ascii", newline="")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        if header is not None:
            self._stream.write(header.to_text())
        self.records_written = 0

    def __enter__(self) -> "SamWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write(self, record: AlignmentRecord) -> None:
        """Append one alignment line."""
        self._stream.write(format_alignment(record))
        self._stream.write("\n")
        self.records_written += 1

    def write_all(self, records: Iterable[AlignmentRecord]) -> int:
        """Append every record; return the count written by this call."""
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def close(self) -> None:
        """Flush and close the underlying stream if owned."""
        if self._owns_stream:
            self._stream.close()
        else:
            self._stream.flush()


def read_sam(path: str | os.PathLike[str], *, validate: bool = False,
             ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire SAM file into memory: ``(header, records)``."""
    with SamReader(path, validate=validate) as reader:
        return reader.header, list(reader)


def write_sam(path: str | os.PathLike[str], header: SamHeader | None,
              records: Iterable[AlignmentRecord]) -> int:
    """Write *records* (with optional header) to *path*; return count."""
    with SamWriter(path, header) as writer:
        return writer.write_all(records)


# --------------------------------------------------------------------------
# SAM text -> columns without records
# --------------------------------------------------------------------------

@dataclass(slots=True)
class TextSlab:
    """A block of proven-canonical alignment lines as columns.

    *text* is the block (every line newline-terminated); column *c* of
    line *i* is ``text[lo[c][i]:hi[c][i]]`` for the eleven mandatory
    columns, its tags (tab-joined, maybe empty)
    ``text[tags_lo[i]:line_hi[i]]`` and the whole line
    ``text[lo[0][i]:line_hi[i]]``.  The numeric columns are ``int64``
    arrays with the record's conventions: 0-based *pos* / *pnext*
    (-1 unplaced), *end_pos* = ``AlignmentRecord.end``, *l_seq* 0
    for a ``*`` SEQ.
    """

    text: str
    count: int
    flag: np.ndarray
    pos: np.ndarray
    mapq: np.ndarray
    pnext: np.ndarray
    tlen: np.ndarray
    end_pos: np.ndarray
    l_seq: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    tags_lo: np.ndarray
    line_hi: np.ndarray

    def column(self, c: int, idx: np.ndarray | None = None) -> list[str]:
        """Texts of mandatory column *c* (of the lines *idx*)."""
        lo, hi = self.lo[c], self.hi[c]
        if idx is not None:
            lo, hi = lo[idx], hi[idx]
        text = self.text
        return [text[a:b] for a, b in zip(lo.tolist(), hi.tolist())]

    # -- the text accessors the kernel emitters read of any slab -------

    def names(self, idx: np.ndarray) -> list[str]:
        return self.column(0, idx)

    def rnames(self, idx: np.ndarray, refs: list[str]) -> list[str]:
        return self.column(2, idx)

    def sequences(self, idx: np.ndarray) -> list[str]:
        """SEQ as the reads were sequenced (:meth:`_stranded`)."""
        return self._stranded(9, idx, reverse_complement)

    def quals(self, idx: np.ndarray) -> tuple[list[str], list[int]]:
        """QUAL in the order of :meth:`sequences`, and the places of the
        absent (``*``) ones."""
        quals = self._stranded(10, idx, lambda text: text[::-1])
        return quals, [i for i in np.flatnonzero(
            self.hi[10][idx] - self.lo[10][idx] == 1).tolist()
            if quals[i] == "*"]

    def _stranded(self, c: int, idx: np.ndarray, mirror) -> list[str]:
        """Column *c* of the lines *idx*, the reverse-strand texts joined
        through *mirror* at once, which reverses their order (SEQ and QUAL
        of a 4 096-line slab of the e2e SAM: 2.51 → 2.05 ms, 2-vCPU Xeon)."""
        texts = self.column(c, idx)
        rev = np.flatnonzero(self.flag[idx] & 0x10).tolist()
        done = mirror("\t".join([texts[i] for i in rev])).split("\t")
        for i, text in zip(rev, reversed(done)):
            texts[i] = text
        return texts

    def sam_lines(self, idx: np.ndarray | None,
                  refs: list[str]) -> list[str]:
        """A proven line is its own output (*idx* ``None``: all)."""
        text = self.text
        if idx is None:
            return text[:-1].split("\n")
        return [text[a:b] for a, b in zip(self.lo[0][idx].tolist(),
                                          self.line_hi[idx].tolist())]

    def column_slab(self, header: SamHeader) -> ColumnSlab | None:
        """The lines BAM-encoded: the :class:`~.bamc.ColumnSlab`
        ``slab_from_records`` makes of their records, the text read
        through table lookups — or ``None`` where a value has no BAM
        encoding (a reference missing from *header*, a SEQ byte outside
        ``=ACMGRSVTWYHKDBN``, a number wider than its field), for the
        record path to report."""
        from .bamc import ColumnSlab
        raw = self.text.encode("ascii")
        a = np.frombuffer(raw, np.uint8)
        ids = {"*": -1, **{ref.name: i
                           for i, ref in enumerate(header.references)}}
        try:
            own = [ids[name] for name in self.column(2)]
            mate = [o if name == "=" else ids[name]
                    for o, name in zip(own, self.column(6))]
            tags = _tag_blocks(self.text, self.tags_lo, self.line_hi)
        except (KeyError, SamFormatError):
            return None
        wide = (self.pos, self.end_pos, self.pnext, self.tlen)
        if max(int(c.max()) for c in wide) > _INT32_MAX \
                or int(self.tlen.min()) < -_INT32_MAX - 1 \
                or int(self.flag.max()) > 0xFFFF \
                or int(self.mapq.max()) > 0xFF:
            return None
        l_seq, packed = self.l_seq, (self.l_seq + 1) // 2
        bases = _NYBBLE[a[ragged_index(self.lo[9], l_seq, np.int64)]]
        if (bases > 15).any():
            return None
        seq_hi = np.cumsum(packed)
        nybbles = np.zeros(2 * int(seq_hi[-1]), np.uint8)
        nybbles[ragged_index(2 * (seq_hi - packed), l_seq, np.int64)] = bases
        qlo = self.lo[10]
        given = ~((self.hi[10] - qlo == 1) & (a[qlo] == 42))
        qual = np.full(int(l_seq.sum()), 0xFF, np.uint8)
        qual[np.repeat(given, l_seq)] = a[ragged_index(
            qlo[given], l_seq[given], np.int64)].clip(33) - 33
        words, n_ops = _cigar_words(a, self.lo[5], self.hi[5])
        tag_len = [len(block) for block in tags]
        if int(n_ops.max()) > 0xFFFF or max(tag_len) > 0xFFFF:
            return None
        bounds = [np.concatenate(([0], np.cumsum(n)))
                  for n in (4 * n_ops, packed, l_seq, tag_len)]
        return ColumnSlab(
            -1, self.count, np.array(own, np.int32), self.pos, self.end_pos,
            np.array(mate, np.int32), self.pnext, self.tlen, l_seq,
            self.flag, self.mapq, self.lo[0], self.hi[0],
            *(edge for b in bounds for edge in (b[:-1], b[1:])), raw,
            words.tobytes(), (nybbles[0::2] << 4 | nybbles[1::2]).tobytes(),
            qual.tobytes(), b"".join(tags))


def _tag_blocks(text: str, lo: np.ndarray, hi: np.ndarray) -> list[bytes]:
    """BAM tag block of each tab-joined tag text ``text[lo:hi]``, every
    distinct field encoded once."""
    encoded: dict[str, bytes] = {}

    def field(f: str) -> bytes:
        if f not in encoded:
            encoded[f] = encode_tag(parse_tag(f))
        return encoded[f]

    return [b"".join([field(f) for f in text[a:b].split("\t")]) if b > a
            else b"" for a, b in zip(lo.tolist(), hi.tolist())]


def _cigar_words(a: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BAM-packed words (``len << 4 | op``) of the proven CIGARs
    ``a[lo:hi]``, and each one's operation count (``*``: none)."""
    width = np.where((hi - lo == 1) & (a[lo] == 42), 0, hi - lo)
    c = a[ragged_index(lo, width, np.int64)]
    is_op = _CIGAR_CLASS[c] > 1
    ops = np.flatnonzero(is_op)
    if not len(ops):
        return np.zeros(0, "<u4"), np.zeros(len(lo), np.int64)
    nxt = ops[np.cumsum(is_op) - is_op]      # each byte's operation
    digits = np.where(is_op, 0, c.astype(np.int64) - 48) \
        * _POW10[np.maximum(nxt - np.arange(len(c)) - 1, 0)]
    lengths = np.add.reduceat(digits, np.concatenate(([0], ops[:-1] + 1)))
    return ((lengths << 4) | _OP_CODE[c[ops]]).astype("<u4"), \
        segment_sums(is_op, width)


#: Byte classes of CIGAR text: 1 digit, 2 operation, 3 operation that
#: consumes the reference, 0 anything else.
_CIGAR_CLASS = np.zeros(256, np.uint8)
_CIGAR_CLASS[48:58] = 1
for _op in CIGAR_OPS:
    _CIGAR_CLASS[ord(_op)] = 3 if _op in REF_CONSUMING else 2
#: ``_ALNUM[b]``: 1 letter, 2 digit, 0 other; ``_HEX``: uppercase hex.
_ALNUM = np.zeros(256, np.uint8)
_ALNUM[48:58] = 2
_ALNUM[65:91] = _ALNUM[97:123] = 1
_HEX = np.zeros(256, bool)
_HEX[48:58] = _HEX[65:71] = True
_TAG_TYPE = np.zeros(256, bool)
_TAG_TYPE[[65, 72, 90, 105]] = True          # A H Z i
_POW10 = 10 ** np.arange(10, dtype=np.int64)
#: BAM code of each CIGAR operation byte; 4-bit code of each SEQ byte
#: (either case), 16 for a byte that has none.
_OP_CODE = np.zeros(256, np.int64)
_OP_CODE[[ord(op) for op in CIGAR_OPS]] = np.arange(len(CIGAR_OPS))
_NYBBLE = np.full(256, 16, np.uint8)
for _code, _base in enumerate(NYBBLE_ALPHABET):
    _NYBBLE[[ord(_base), ord(_base.lower())]] = _code
_INT32_MAX = (1 << 31) - 1


def _decimals(a: np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> np.ndarray | None:
    """Values of the decimals ``a[lo:hi]``; ``None`` unless each is
    1-10 digits with no leading zero (so ``str(value)`` is the text)."""
    width = hi - lo
    if width.min() < 1 or width.max() > 10 \
            or ((a[lo] == 48) & (width > 1)).any():
        return None
    value = np.zeros(lo.shape, np.int64)
    for k in range(int(width.max())):
        at = hi - (k + 1)
        live = at >= lo
        digit = a[np.where(live, at, lo)] - np.uint8(48)  # wraps below "0"
        if ((digit > 9) & live).any():
            return None
        value += np.where(live, digit, 0) * _POW10[k]
    return value


def _cigar_spans(a: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray | None:
    """Reference span of every CIGAR ``a[lo:hi]`` (``*`` spans 0), or
    ``None`` unless each is ``*`` or ``([1-9][0-9]{0,7}[MIDNSHP=X])+``:
    one walk over all CIGAR bytes of the block, a digit weighing
    ``10 ** (distance to its operation - 1)``."""
    width = hi - lo
    if width.min() < 1:
        return None
    width = np.where((width == 1) & (a[lo] == 42), 0, width)
    ends = np.cumsum(width)
    total = int(ends[-1])
    if not total:
        return np.zeros(lo.shape, np.int64)
    c = a[ragged_index(lo, width, np.int64)]
    cls = _CIGAR_CLASS[c]
    is_op = cls > 1
    # Every CIGAR ends in an operation, so digit runs never span two.
    if not cls.all() or not is_op[ends[width > 0] - 1].all():
        return None
    ops = np.flatnonzero(is_op)
    run = np.diff(ops, prepend=-1) - 1       # digits before each op
    if run.min() < 1 or run.max() > 8 or (c[ops - run] == 48).any():
        return None
    nxt = ops[np.cumsum(is_op) - is_op]      # each byte's operation
    weight = np.where(is_op | (cls[nxt] != 3), 0,
                      _POW10[nxt - np.arange(total) - 1])
    return segment_sums((c - np.uint8(48)) * weight, width)


def _canonical_tags(a: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> bool:
    """Whether every tag field ``a[lo:hi]`` is one :func:`parse_tag` /
    ``to_sam`` round-trips: ``XX:A:c``, ``XX:i:`` canonical integer,
    ``XX:Z:`` anything printable, ``XX:H:`` uppercase hex pairs."""
    if not len(lo):
        return True
    if (hi - lo).min() < 5:
        return False
    kind = a[lo + 3]
    if not ((_ALNUM[a[lo]] == 1) & (_ALNUM[a[lo + 1]] > 0)
            & (a[lo + 2] == 58) & (a[lo + 4] == 58)
            & _TAG_TYPE[kind]).all() \
            or ((kind == 65) & (hi - lo != 6)).any():
        return False
    ints = kind == 105
    vlo, vhi = lo[ints] + 5, hi[ints]
    if (vlo >= vhi).any():
        return False
    signed = a[vlo] == 45
    vlo = vlo + signed
    if (vlo >= vhi).any() or (_ALNUM[a[ragged_index(
            vlo, vhi - vlo, np.int64)]] != 2).any() \
            or ((a[vlo] == 48) & (signed | (vhi - vlo > 1))).any():
        return False
    hexes = kind == 72
    vlo, width = lo[hexes] + 5, hi[hexes] - lo[hexes] - 5
    return not (width & 1).any() \
        and bool(_HEX[a[ragged_index(vlo, width, np.int64)]].all())


def slab_columns(buf: bytes) -> TextSlab | None:
    """A block of whole SAM alignment lines as a :class:`TextSlab` — or
    ``None`` unless every line is proven *canonical*, i.e.
    ``format_alignment(parse_alignment(line)) == line`` (the rules are
    tabled in ``docs/formats.md``): then a line is its own SAM output
    and its columns are the record's fields.  On ``None`` the caller
    takes the per-line path, which reproduces the record pipeline's
    output or its typed error.
    """
    if not buf.endswith(b"\n"):
        buf += b"\n"
    a = np.frombuffer(buf, np.uint8)
    sep = np.flatnonzero(a < 32)
    kind = a[sep]
    if a.max() > 126 or ((kind != 9) & (kind != 10)).any():
        return None
    eol = np.flatnonzero(kind == 10)         # index in sep of each "\n"
    first = np.concatenate(([0], eol[:-1] + 1))   # ... of its first sep
    line_hi = sep[eol]
    line_lo = np.concatenate(([0], line_hi[:-1] + 1))
    if (eol - first).min() < MANDATORY_COLUMNS - 1 \
            or (a[line_lo] == 64).any():
        return None       # a short or blank line, or a header line
    hi = sep[first + np.arange(MANDATORY_COLUMNS)[:, None]]
    lo = np.concatenate((line_lo[None], hi[:-1] + 1))
    numbers = (1, 3, 4, 7, 8)                # FLAG POS MAPQ PNEXT TLEN
    num_lo, num_hi = lo[numbers, :], hi[numbers, :]
    negative = a[num_lo[4]] == 45            # "-" only on TLEN
    num_lo[4] += negative
    value = _decimals(a, num_lo, num_hi)
    if value is None or (negative & (value[4] == 0)).any():
        return None
    span = _cigar_spans(a, lo[5], hi[5])
    l_seq, qual_width = hi[9] - lo[9], hi[10] - lo[10]
    tag_tab = ragged_index(first + MANDATORY_COLUMNS - 1,
                           eol - first - (MANDATORY_COLUMNS - 1),
                           np.int64)
    # SEQ is not empty; QUAL is "*" or as long as SEQ.
    if span is None or l_seq.min() < 1 \
            or ((qual_width != l_seq)
                & ((qual_width != 1) | (a[lo[10]] != 42))).any() \
            or not _canonical_tags(a, sep[tag_tab] + 1, sep[tag_tab + 1]):
        return None
    flag, pos1, mapq, pnext1, tlen = value
    pos = np.where(pos1 > 0, pos1 - 1, UNMAPPED_POS)
    return TextSlab(
        buf.decode("ascii"), len(eol), flag, pos, mapq,
        np.where(pnext1 > 0, pnext1 - 1, UNMAPPED_POS),
        np.where(negative, -tlen, tlen),
        np.where(pos < 0, UNMAPPED_POS, pos + np.where(span > 0, span, 1)),
        np.where((l_seq == 1) & (a[lo[9]] == 42), 0, l_seq),
        lo, hi, np.minimum(hi[10] + 1, line_hi), line_hi)
