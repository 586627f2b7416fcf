"""Chunk-level codecs: batched record conversion and zero-copy fastpaths.

The per-record pipeline materializes every alignment as an
:class:`~repro.formats.record.AlignmentRecord` — a dataclass built from
a fully parsed CIGAR and tag list — even when the target format needs
three of its eleven columns.  This module is the batched layer under
the converters' hot loops (``pipeline="batch"``):

* **SAM column fastpaths** — the per-line tier a slab of SAM text
  takes when :func:`~.sam.slab_columns` cannot prove it canonical:
  one tab-split per line, then a per-target
  emitter over the raw columns.  Only the columns the target consumes
  are converted (``int`` on FLAG/POS, a span scan over the CIGAR text);
  no record object is built.  Anything the fast emitter cannot prove it
  handles byte-identically (non-canonical CIGAR/tag text, short lines)
  falls back to the record path *for that line*, so output — and error
  behaviour for lines the fastpath touches — matches the per-record
  pipeline exactly.
* **BAMX slab adapters** — :func:`bamx_fastpath_for` /
  :func:`convert_bamx_slab` keep the signatures of the former per-record
  field fastpaths over raw BAMX/BAMZ slabs; the rows now decode to a
  column slab (:meth:`~.bamx.BamxLayout.decode_slab`) and go through
  the :mod:`.kernels` emitters, like every store.
* **Batch encode** — :func:`encode_bamx_batch` packs many records into
  one preallocated ``bytearray`` so writers issue one large write per
  batch instead of one small write per record.

Record filters apply on the fastpaths without materialization:
:class:`~repro.core.filters.RecordFilter` only reads FLAG and MAPQ, and
both are available before any other field is decoded.

Targets without a registered fastpath or kernel (GFF needs tags;
JSON/YAML need every field) still run batched — decoded
record-at-a-time but emitted through the same chunked writers — via
:func:`convert_records`.

One behavioural caveat, by design: the fastpaths validate only the
fields a target consumes, so a malformed column in a line the fast
emitter never inspects (e.g. a corrupt tag in a SAM -> BEDGRAPH run) is
not diagnosed.  ``pipeline="record"`` keeps the strict
parse-everything behaviour.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from ..defaults import DEFAULT_BATCH_SIZE  # noqa: F401
from .bamx import BamxLayout
from .cigar import REF_CONSUMING
from .header import SamHeader
from .kernels import MATE_SUFFIX, kernel_emitter_for
from .record import AlignmentRecord
from .sam import MANDATORY_COLUMNS, parse_alignment
from .seq import reverse_complement


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
    return f">{cols[0]}{MATE_SUFFIX[(flag >> 6) & 3]}\n{seq}"


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
    return f"@{cols[0]}{MATE_SUFFIX[(flag >> 6) & 3]}\n{seq}\n+\n{qual}"


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


def parse_sam_lines(lines: Iterable[str]) -> list[AlignmentRecord]:
    """Parse a batch of SAM lines (header/blank lines skipped)."""
    return [parse_alignment(line) for line in lines
            if line and line[0] != "@"]


# --------------------------------------------------------------------------
# BAMX slabs: adapters from the raw-slab signatures onto the kernels.
# --------------------------------------------------------------------------

def bamx_fastpath_for(target, layout: BamxLayout, header: SamHeader):
    """The slab emitter for *target*, or None: since BAMX rows decode to
    column slabs this is :func:`~.kernels.kernel_emitter_for`."""
    return kernel_emitter_for(target, header)


def convert_bamx_slab(buf, count: int, layout: BamxLayout, fast_emit,
                      record_filter, out: list[str]) -> tuple[int, int]:
    """Drive one raw slab of *count* fixed-size records through
    *fast_emit* (from :func:`bamx_fastpath_for`): decode the rows to a
    column slab, emit.  Appends emitted lines to *out*; returns
    ``(records_seen, lines_emitted)`` (seen = post-filter)."""
    lines, seen = fast_emit(layout.decode_slab(buf, count), record_filter)
    out.extend(lines)
    return seen, len(lines)


# --------------------------------------------------------------------------
# Batch BAMX encode
# --------------------------------------------------------------------------

def encode_bamx_batch(records: list[AlignmentRecord], header: SamHeader,
                      layout: BamxLayout) -> bytearray:
    """Encode *records* into one preallocated buffer of
    ``len(records) * layout.record_size`` bytes."""
    return layout.encode_batch(records, header)


def decode_bamx_batch(buf, count: int, layout: BamxLayout,
                      header: SamHeader) -> list[AlignmentRecord]:
    """Decode *count* records from a raw slab (memoryview-friendly)."""
    rsize = layout.record_size
    return [layout.decode(buf, header, i * rsize) for i in range(count)]
