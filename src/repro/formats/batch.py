"""Chunk-level codecs: batched record conversion and zero-copy fastpaths.

The per-record pipeline materializes every alignment as an
:class:`~repro.formats.record.AlignmentRecord` — a dataclass built from
a fully parsed CIGAR and tag list — even when the target format needs
three of its eleven columns.  This module is the batched alternative the
converters' hot loops run by default (``pipeline="batch"``):

* **SAM column fastpaths** — one tab-split per line, then a per-target
  emitter over the raw columns.  Only the columns the target consumes
  are converted (``int`` on FLAG/POS, a span scan over the CIGAR text);
  no record object is built.  Anything the fast emitter cannot prove it
  handles byte-identically (non-canonical CIGAR/tag text, short lines)
  falls back to the record path *for that line*, so output — and error
  behaviour for lines the fastpath touches — matches the per-record
  pipeline exactly.
* **BAMX field fastpaths** — emitters over the raw fixed-layout record
  bytes of a BAMX/BAMZ store.  Fields are sliced straight out of a
  ``memoryview`` of the slab (zero copies until a field is actually
  rendered); a BED conversion never unpacks the sequence, qualities or
  tags at all.
* **Batch encode** — :func:`encode_bamx_batch` packs many records into
  one preallocated ``bytearray`` so writers issue one large write per
  batch instead of one small write per record.

Record filters apply on both fastpaths without materialization:
:class:`~repro.core.filters.RecordFilter` only reads FLAG and MAPQ, and
both are available before any other field is decoded.

Targets without a registered fastpath (GFF needs tags; JSON/YAML need
every field) still run batched — decoded record-at-a-time but emitted
through the same chunked writers — via :func:`convert_records`.

One behavioural caveat, by design: the fastpaths validate only the
fields a target consumes, so a malformed column in a line the fast
emitter never inspects (e.g. a corrupt tag in a SAM -> BEDGRAPH run) is
not diagnosed.  ``pipeline="record"`` keeps the strict
parse-everything behaviour.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterable
from itertools import islice

from .bamx import _FIXED, BamxLayout
from .cigar import REF_CONSUMING, REF_CONSUMING_CODE
from .header import SamHeader
from .record import AlignmentRecord
from .sam import MANDATORY_COLUMNS, parse_alignment
from .seq import qual_bytes_to_text, reverse_complement, unpack_sequence

#: Pipeline names accepted by the converters.
PIPELINES = ("batch", "record")

#: Default records per batch through the converter hot loops.
DEFAULT_BATCH_SIZE = 4096


class FallbackToRecord(Exception):
    """Raised by a fast emitter when a line needs the full record path."""


# --------------------------------------------------------------------------
# SAM column fastpaths: one emitter per target, fn(cols) -> str | None.
# Each must produce exactly ``target.emit(parse_alignment(line))`` or
# raise FallbackToRecord.
# --------------------------------------------------------------------------

#: Canonical CIGAR text: what format_cigar(parse_cigar(s)) == s implies.
#: Lengths are capped at 8 digits so every match is < MAX_OP_LEN.
_CANON_CIGAR = re.compile(r"(?:[1-9][0-9]{0,7}[MIDNSHP=X])+\Z")
_CIGAR_OPS_RE = re.compile(r"([0-9]+)([MIDNSHP=X])")

#: Canonical tag columns: exactly the forms to_sam(parse_tag(s)) == s
#: guarantees.  f/B/H-lowercase and any other shape fall back.
_CANON_TAG = re.compile(
    r"[A-Za-z][A-Za-z0-9]:"
    r"(?:A:[ -~]"
    r"|i:(?:0|-?[1-9][0-9]*)"
    r"|Z:[ -~]*"
    r"|H:(?:[0-9A-F]{2})*)\Z")


def _cigar_ref_span(text: str) -> int:
    """Reference span of a canonical CIGAR string (``*`` spans 0)."""
    if text == "*":
        return 0
    if not _CANON_CIGAR.match(text):
        raise FallbackToRecord
    span = 0
    for n, op in _CIGAR_OPS_RE.findall(text):
        if op in REF_CONSUMING:
            span += int(n)
    return span


def _mate_suffix(flag: int) -> str:
    """``/1``, ``/2`` or empty — mirror of flags.mate_number."""
    read1 = flag & 0x40
    read2 = flag & 0x80
    if read1 and not read2:
        return "/1"
    if read2 and not read1:
        return "/2"
    return ""


def _sam_fast_bed(cols: list[str]) -> str | None:
    flag = int(cols[1])
    if flag & 0x4:
        return None
    pos1 = int(cols[3])
    if pos1 <= 0:
        return None
    pos = pos1 - 1
    span = _cigar_ref_span(cols[5])
    end = pos + (span if span > 0 else 1)
    score = min(int(cols[4]), 1000)
    strand = "-" if flag & 0x10 else "+"
    return f"{cols[2]}\t{pos}\t{end}\t{cols[0]}\t{score}\t{strand}"


def _sam_fast_bedgraph(cols: list[str]) -> str | None:
    flag = int(cols[1])
    if flag & 0x4:
        return None
    pos1 = int(cols[3])
    if pos1 <= 0:
        return None
    pos = pos1 - 1
    span = _cigar_ref_span(cols[5])
    return f"{cols[2]}\t{pos}\t{pos + (span if span > 0 else 1)}\t1"


def _sam_fast_fasta(cols: list[str]) -> str | None:
    seq = cols[9]
    if seq == "*":
        return None
    flag = int(cols[1])
    if flag & 0x10:
        seq = reverse_complement(seq)
    return f">{cols[0]}{_mate_suffix(flag)}\n{seq}"


def _sam_fast_fastq(cols: list[str]) -> str | None:
    flag = int(cols[1])
    if flag & 0x900:  # SECONDARY | SUPPLEMENTARY
        return None
    seq = cols[9]
    if seq == "*":
        return None
    qual = cols[10]
    if flag & 0x10:
        seq = reverse_complement(seq)
        if qual != "*":
            qual = qual[::-1]
    if qual == "*":
        qual = "!" * len(seq)
    return f"@{cols[0]}{_mate_suffix(flag)}\n{seq}\n+\n{qual}"


def _sam_fast_sam(cols: list[str]) -> str:
    """Identity transcode: normalize numerics, pass canonical text
    through untouched."""
    cigar = cols[5]
    if cigar != "*" and not _CANON_CIGAR.match(cigar):
        raise FallbackToRecord
    for tag in cols[MANDATORY_COLUMNS:]:
        if not _CANON_TAG.match(tag):
            raise FallbackToRecord
    pos1 = int(cols[3])
    pnext1 = int(cols[7])
    out = [
        cols[0],
        str(int(cols[1])),
        cols[2],
        str(pos1) if pos1 > 0 else "0",
        str(int(cols[4])),
        cigar,
        cols[6],
        str(pnext1) if pnext1 > 0 else "0",
        str(int(cols[8])),
        cols[9],
        cols[10],
    ]
    out.extend(cols[MANDATORY_COLUMNS:])
    return "\t".join(out)


_SAM_FASTPATHS = {
    "bed": _sam_fast_bed,
    "bedgraph": _sam_fast_bedgraph,
    "fasta": _sam_fast_fasta,
    "fastq": _sam_fast_fastq,
    "sam": _sam_fast_sam,
}


def sam_fastpath_for(target) -> object | None:
    """Column fast emitter for *target*, or None if it needs records."""
    if getattr(target, "mode", "text") != "text":
        return None
    return _SAM_FASTPATHS.get(getattr(target, "name", None))


def convert_sam_lines(lines: Iterable[str], target, fast_emit,
                      record_filter, out: list[str],
                      ) -> tuple[int, int, int]:
    """Drive one batch of SAM text lines through a column fastpath.

    Appends emitted lines to *out*; returns
    ``(records_seen, lines_emitted, fallback_lines)`` where *seen*
    counts records that passed the filter (matching the per-record
    pipeline's metrics).
    """
    seen = emitted = fallbacks = 0
    flt = record_filter if record_filter is not None \
        and not record_filter.is_noop else None
    for line in lines:
        if not line or line[0] == "@":
            continue
        try:
            cols = line.split("\t")
            if len(cols) < MANDATORY_COLUMNS:
                raise FallbackToRecord
            if flt is not None and not flt.matches_flag_mapq(
                    int(cols[1]), int(cols[4])):
                continue
            res = fast_emit(cols)
        except (FallbackToRecord, ValueError, IndexError):
            # The record path reproduces the canonical output — or the
            # canonical error — for anything the fastpath cannot prove.
            fallbacks += 1
            record = parse_alignment(line)
            if flt is not None and not flt.matches(record):
                continue
            res = target.emit(record)
        seen += 1
        if res is not None:
            out.append(res)
            emitted += 1
    return seen, emitted, fallbacks


def convert_records(records: Iterable[AlignmentRecord], target,
                    record_filter, out: list[str]) -> tuple[int, int]:
    """The record-at-a-time driver: filter, ``target.emit``, collect.

    Every source without a fastpath for *target* — and every source
    under ``pipeline="record"`` — decodes its chunk into records and
    runs them through here; appends emitted lines to *out* and returns
    ``(records_seen, lines_emitted)`` (seen = post-filter).
    """
    seen = emitted = 0
    flt = record_filter if record_filter is not None \
        and not record_filter.is_noop else None
    emit = target.emit
    for record in records:
        if flt is not None and not flt.matches(record):
            continue
        res = emit(record)
        seen += 1
        if res is not None:
            out.append(res)
            emitted += 1
    return seen, emitted


def batched(items: Iterable, n: int):
    """Yield lists of up to *n* consecutive *items* (the
    ``itertools.batched`` of Python 3.12)."""
    items = iter(items)
    while chunk := list(islice(items, n)):
        yield chunk


def parse_sam_lines(lines: Iterable[str]) -> list[AlignmentRecord]:
    """Parse a batch of SAM lines (header/blank lines skipped)."""
    return [parse_alignment(line) for line in lines
            if line and line[0] != "@"]


# --------------------------------------------------------------------------
# BAMX field fastpaths: emitters over raw fixed-layout record bytes.
# fn(buf, off, fixed) -> str | None where *fixed* is the unpacked
# _FIXED tuple for the record at *off*.
# --------------------------------------------------------------------------

_U32_STRUCTS: dict[int, struct.Struct] = {}


def _cigar_words(buf, off: int, n: int) -> tuple[int, ...]:
    s = _U32_STRUCTS.get(n)
    if s is None:
        s = _U32_STRUCTS[n] = struct.Struct(f"<{n}I")
    return s.unpack_from(buf, off)


def _words_ref_span(words: tuple[int, ...]) -> int:
    span = 0
    for w in words:
        if REF_CONSUMING_CODE[w & 0xF]:
            span += w >> 4
    return span


def _make_bamx_bed(layout: BamxLayout, header: SamHeader):
    off_name = _FIXED.size
    off_cigar = off_name + layout.name_cap
    refs = [r.name for r in header.references]

    def emit(buf, off: int, fixed) -> str | None:
        ref_id, pos, mapq, name_len, flag, n_cigar = fixed[:6]
        if flag & 0x4 or pos < 0:
            return None
        span = _words_ref_span(
            _cigar_words(buf, off + off_cigar, n_cigar)) if n_cigar else 0
        end = pos + (span if span > 0 else 1)
        rname = refs[ref_id] if ref_id >= 0 else "*"
        name = str(buf[off + off_name:off + off_name + name_len], "ascii")
        strand = "-" if flag & 0x10 else "+"
        return f"{rname}\t{pos}\t{end}\t{name}\t{min(mapq, 1000)}\t{strand}"

    return emit


def _make_bamx_bedgraph(layout: BamxLayout, header: SamHeader):
    off_cigar = _FIXED.size + layout.name_cap
    refs = [r.name for r in header.references]

    def emit(buf, off: int, fixed) -> str | None:
        ref_id, pos, _mapq, _name_len, flag, n_cigar = fixed[:6]
        if flag & 0x4 or pos < 0:
            return None
        span = _words_ref_span(
            _cigar_words(buf, off + off_cigar, n_cigar)) if n_cigar else 0
        rname = refs[ref_id] if ref_id >= 0 else "*"
        return f"{rname}\t{pos}\t{pos + (span if span > 0 else 1)}\t1"

    return emit


def _make_bamx_fasta(layout: BamxLayout, header: SamHeader):
    off_name = _FIXED.size
    off_seq = off_name + layout.name_cap + 4 * layout.cigar_cap

    def emit(buf, off: int, fixed) -> str | None:
        name_len, flag = fixed[3], fixed[4]
        l_seq = fixed[6]
        if l_seq == 0:
            return None
        seq = unpack_sequence(
            buf[off + off_seq:off + off_seq + (l_seq + 1) // 2], l_seq)
        if flag & 0x10:
            seq = reverse_complement(seq)
        name = str(buf[off + off_name:off + off_name + name_len], "ascii")
        return f">{name}{_mate_suffix(flag)}\n{seq}"

    return emit


def _make_bamx_fastq(layout: BamxLayout, header: SamHeader):
    off_name = _FIXED.size
    off_seq = off_name + layout.name_cap + 4 * layout.cigar_cap
    off_qual = off_seq + (layout.seq_cap + 1) // 2

    def emit(buf, off: int, fixed) -> str | None:
        name_len, flag = fixed[3], fixed[4]
        if flag & 0x900:
            return None
        l_seq = fixed[6]
        if l_seq == 0:
            return None
        seq = unpack_sequence(
            buf[off + off_seq:off + off_seq + (l_seq + 1) // 2], l_seq)
        qual_raw = bytes(buf[off + off_qual:off + off_qual + l_seq])
        if flag & 0x10:
            seq = reverse_complement(seq)
        if not qual_raw.strip(b"\xff"):
            qual = "!" * l_seq
        else:
            qual = qual_bytes_to_text(qual_raw)
            if flag & 0x10:
                qual = qual[::-1]
        name = str(buf[off + off_name:off + off_name + name_len], "ascii")
        return f"@{name}{_mate_suffix(flag)}\n{seq}\n+\n{qual}"

    return emit


_BAMX_FASTPATH_MAKERS = {
    "bed": _make_bamx_bed,
    "bedgraph": _make_bamx_bedgraph,
    "fasta": _make_bamx_fasta,
    "fastq": _make_bamx_fastq,
}


def bamx_fastpath_for(target, layout: BamxLayout, header: SamHeader):
    """Field fast emitter for *target* over *layout*, or None."""
    if getattr(target, "mode", "text") != "text":
        return None
    maker = _BAMX_FASTPATH_MAKERS.get(getattr(target, "name", None))
    if maker is None:
        return None
    return maker(layout, header)


def convert_bamx_slab(buf, count: int, layout: BamxLayout, fast_emit,
                      record_filter, out: list[str]) -> tuple[int, int]:
    """Drive one raw slab of *count* fixed-size records through a field
    fastpath.  Appends emitted lines to *out*; returns
    ``(records_seen, lines_emitted)`` (seen = post-filter)."""
    seen = emitted = 0
    flt = record_filter if record_filter is not None \
        and not record_filter.is_noop else None
    rsize = layout.record_size
    unpack_fixed = _FIXED.unpack_from
    off = 0
    for _ in range(count):
        fixed = unpack_fixed(buf, off)
        if flt is not None and not flt.matches_flag_mapq(fixed[4],
                                                         fixed[2]):
            off += rsize
            continue
        res = fast_emit(buf, off, fixed)
        seen += 1
        if res is not None:
            out.append(res)
            emitted += 1
        off += rsize
    return seen, emitted


# --------------------------------------------------------------------------
# Batch BAMX encode
# --------------------------------------------------------------------------

def encode_bamx_batch(records: list[AlignmentRecord], header: SamHeader,
                      layout: BamxLayout) -> bytearray:
    """Encode *records* into one preallocated buffer of
    ``len(records) * layout.record_size`` bytes."""
    rsize = layout.record_size
    out = bytearray(len(records) * rsize)
    off = 0
    for record in records:
        layout.encode_into(record, header, out, off)
        off += rsize
    return out


def decode_bamx_batch(buf, count: int, layout: BamxLayout,
                      header: SamHeader) -> list[AlignmentRecord]:
    """Decode *count* records from a raw slab (memoryview-friendly)."""
    rsize = layout.record_size
    return [layout.decode(buf, header, i * rsize) for i in range(count)]
