"""Vectorized numpy kernels over column slabs — what every store
yields: BAMC reads them, BAMX/BAMZ rows decode to them.

Every operation the converter hot loops run per record — filter
predicates, flagstat category counts, coverage/MAPQ histograms, target
emission — has a columnar formulation here that touches whole arrays
at once.  The contracts are strict:

* **Filters** are exactly :meth:`RecordFilter.matches_flag_mapq` as
  boolean array ops.
* **Flagstat** counts are exactly what :class:`FlagStats.add` would
  accumulate record by record (the mate-on-different-chr categories
  use the ``next_ref``/``ref_id`` columns, which is the integer form
  of the record path's ``rnext not in ("=", "*", rname)`` test —
  reference names are unique, so the two are equivalent).
* **Emitters** produce byte-identical lines to the per-record
  pipeline; the interval targets read the ``end_pos`` column instead
  of re-walking CIGARs, and the SAM emitter renders CIGAR and tag text
  straight from the BAM-encoded bytes.

Targets without a kernel (GFF needs tags; JSON/YAML need everything)
and slabs an emitter declines (:class:`KernelFallback`) go per slab to
the decoded-record path — the converters count those slabs as
``kernel_fallbacks`` so a silently-degraded run is visible in the
service metrics.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from .bamc import ColumnSlab
from .cigar import decode_ops, format_cigar
from .header import SamHeader
from .seq import qual_blob_to_text, unpack_sequence_blob
from .tags import tag_block_to_sam


class KernelFallback(Exception):
    """Raised by a kernel emitter when a slab needs the record path."""


#: Mate suffix by the (READ1, READ2) bit pair — index with
#: ``(flag >> 6) & 3``.  Both-set and neither-set read as unpaired,
#: matching :func:`repro.formats.flags.mate_number`.
MATE_SUFFIX = ("", "/1", "/2", "")


def filter_mask(flag: np.ndarray, mapq: np.ndarray,
                record_filter) -> np.ndarray:
    """Boolean mask of records passing *record_filter*.

    Vectorized :meth:`~repro.core.filters.RecordFilter.matches_flag_mapq`
    over FLAG/MAPQ columns.
    """
    mask = np.ones(len(flag), dtype=bool)
    if record_filter.require_flags:
        mask &= (flag & record_filter.require_flags) \
            == record_filter.require_flags
    if record_filter.exclude_flags:
        mask &= (flag & record_filter.exclude_flags) == 0
    if record_filter.primary_only:
        mask &= (flag & 0x900) == 0
    if record_filter.mapped_only:
        mask &= (flag & 0x4) == 0
    if record_filter.min_mapq:
        mask &= mapq >= record_filter.min_mapq
    return mask


def slab_filter_mask(slab: ColumnSlab, record_filter) -> np.ndarray | None:
    """:func:`filter_mask` over a slab, or ``None`` for a no-op filter."""
    if record_filter is None or record_filter.is_noop:
        return None
    return filter_mask(slab.flag, slab.mapq, record_filter)


# --------------------------------------------------------------------------
# Flagstat
# --------------------------------------------------------------------------

def flagstat_counts(flag: np.ndarray, mapq: np.ndarray,
                    ref_id: np.ndarray, next_ref: np.ndarray,
                    ) -> dict[str, int]:
    """samtools-flagstat category counts from columns.

    Field-for-field mirror of :meth:`repro.tools.flagstat.FlagStats.add`
    accumulated over the whole slab at once.
    """
    n = len(flag)
    mapped = (flag & 0x4) == 0
    primary = (flag & 0x900) == 0
    paired = primary & ((flag & 0x1) != 0)
    paired_mapped = paired & mapped
    mate_mapped = paired_mapped & ((flag & 0x8) == 0)
    diff_chr = mate_mapped & (next_ref >= 0) & (next_ref != ref_id)
    return {
        "total": n,
        "secondary": int(np.count_nonzero((flag & 0x100) != 0)),
        "supplementary": int(np.count_nonzero((flag & 0x800) != 0)),
        "duplicates": int(np.count_nonzero((flag & 0x400) != 0)),
        "mapped": int(np.count_nonzero(mapped)),
        "paired": int(np.count_nonzero(paired)),
        "read1": int(np.count_nonzero(paired & ((flag & 0x40) != 0))),
        "read2": int(np.count_nonzero(paired & ((flag & 0x80) != 0))),
        "properly_paired": int(np.count_nonzero(
            paired_mapped & ((flag & 0x2) != 0))),
        "with_mate_mapped": int(np.count_nonzero(mate_mapped)),
        "singletons": int(np.count_nonzero(
            paired_mapped & ((flag & 0x8) != 0))),
        "mate_on_different_chr": int(np.count_nonzero(diff_chr)),
        "mate_on_different_chr_mapq5": int(np.count_nonzero(
            diff_chr & (mapq >= 5))),
    }


def flagstat_slab(slab: ColumnSlab) -> dict[str, int]:
    """:func:`flagstat_counts` over one slab."""
    return flagstat_counts(slab.flag, slab.mapq, slab.ref_id,
                           slab.next_ref)


# --------------------------------------------------------------------------
# Histograms
# --------------------------------------------------------------------------

def mapq_histogram(slab: ColumnSlab,
                   mask: np.ndarray | None = None) -> np.ndarray:
    """256-bin MAPQ histogram of one slab (optionally masked)."""
    mapq = slab.mapq if mask is None else slab.mapq[mask]
    return np.bincount(mapq, minlength=256)


def add_coverage_events(slab: ColumnSlab, ref_id: int, length: int,
                        diff: np.ndarray) -> None:
    """Accumulate one slab's coverage starts/ends into *diff*.

    *diff* is a difference array of ``length + 1`` int64 slots;
    ``np.cumsum(diff[:-1])`` afterwards yields per-base depth.  The
    selection mirrors :func:`repro.stats.histogram.coverage_depth`:
    mapped records on *ref_id* with a placed position, intervals
    clipped to ``[0, length)``, empty intervals dropped.  ``end_pos``
    is the precomputed ``record.end`` column, so no CIGAR is decoded.
    """
    mask = (slab.ref_id == ref_id) & ((slab.flag & 0x4) == 0) \
        & (slab.pos >= 0)
    if not mask.any():
        return
    starts = np.minimum(slab.pos[mask], length)
    ends = np.minimum(slab.end_pos[mask], length)
    valid = ends > starts
    if not valid.any():
        return
    diff[:length + 1] += np.bincount(starts[valid],
                                     minlength=length + 1)
    diff[:length + 1] -= np.bincount(ends[valid], minlength=length + 1)


def coverage_depth_columns(slabs, ref_id: int,
                           length: int) -> np.ndarray:
    """Per-base depth over ``[0, length)`` from an iterable of slabs."""
    diff = np.zeros(length + 1, dtype=np.int64)
    for slab in slabs:
        add_coverage_events(slab, ref_id, length, diff)
    return np.cumsum(diff[:-1])


# --------------------------------------------------------------------------
# Columnar target emitters.  Each maker returns
# ``fn(slab, record_filter) -> (lines, seen)`` where *seen* counts
# post-filter records (matching the record pipeline's metrics) and
# *lines* are byte-identical to the record pipeline's output.
# --------------------------------------------------------------------------

def _base_and_seen(slab: ColumnSlab, record_filter,
                   ) -> tuple[np.ndarray | None, int]:
    base = slab_filter_mask(slab, record_filter)
    seen = slab.count if base is None else int(np.count_nonzero(base))
    return base, seen


def _names(slab: ColumnSlab, idx: np.ndarray) -> list[str]:
    """Read names for *idx*: one blob decode, then string slices."""
    text = slab.name_blob.decode("ascii")
    lo = slab.name_lo[idx].tolist()
    hi = slab.name_hi[idx].tolist()
    return [text[a:b] for a, b in zip(lo, hi)]


def _rnames(refs: list[str], ref_id: list[int]) -> list[str]:
    return [refs[r] if r >= 0 else "*" for r in ref_id]


def _make_bed(header: SamHeader):
    refs = [r.name for r in header.references]

    def emit(slab: ColumnSlab, record_filter) -> tuple[list[str], int]:
        base, seen = _base_and_seen(slab, record_filter)
        keep = ((slab.flag & 0x4) == 0) & (slab.pos >= 0)
        if base is not None:
            keep &= base
        idx = np.flatnonzero(keep)
        if not idx.size:
            return [], seen
        names = _names(slab, idx)
        rnames = _rnames(refs, slab.ref_id[idx].tolist())
        pos = slab.pos[idx].tolist()
        end = slab.end_pos[idx].tolist()
        mapq = slab.mapq[idx].tolist()  # u8: min(mapq, 1000) == mapq
        flag = slab.flag[idx].tolist()
        return [f"{r}\t{p}\t{e}\t{n}\t{q}\t"
                f"{'-' if f & 0x10 else '+'}"
                for r, p, e, n, q, f
                in zip(rnames, pos, end, names, mapq, flag)], seen

    return emit


def _make_bedgraph(header: SamHeader):
    refs = [r.name for r in header.references]

    def emit(slab: ColumnSlab, record_filter) -> tuple[list[str], int]:
        base, seen = _base_and_seen(slab, record_filter)
        keep = ((slab.flag & 0x4) == 0) & (slab.pos >= 0)
        if base is not None:
            keep &= base
        idx = np.flatnonzero(keep)
        if not idx.size:
            return [], seen
        rnames = _rnames(refs, slab.ref_id[idx].tolist())
        pos = slab.pos[idx].tolist()
        end = slab.end_pos[idx].tolist()
        return [f"{r}\t{p}\t{e}\t1"
                for r, p, e in zip(rnames, pos, end)], seen

    return emit


def _sequences(slab: ColumnSlab, idx: np.ndarray,
               reverse: np.ndarray | None = None) -> list[str]:
    """Decode the selected packed sequences with one blob-wide pass,
    those *reverse* marks reverse-complemented."""
    return unpack_sequence_blob(slab.seq_blob, slab.seq_lo[idx],
                                slab.seq_hi[idx], slab.l_seq[idx], reverse)


def _quals(slab: ColumnSlab, idx: np.ndarray,
           reverse: np.ndarray | None = None) -> tuple[list[str], list[int]]:
    """Phred+33 text of the selected QUAL runs, those *reverse* marks
    back to front, and the places of the runs that are all ``0xFF`` —
    absent QUAL, exactly the BAMX decode rule; only a run starting with
    ``0xFF`` can be one, and only those are looked at in full."""
    lo, hi = slab.qual_lo[idx], slab.qual_hi[idx]
    some = np.flatnonzero(hi > lo)
    raw = np.frombuffer(slab.qual_blob, np.uint8)
    return qual_blob_to_text(slab.qual_blob, lo, hi, reverse), [
        i for i in some[raw[lo[some]] == 0xFF].tolist()
        if not slab.qual_blob[lo[i]:hi[i]].strip(b"\xff")]


def _mate_suffixes(flag: np.ndarray) -> list[str]:
    return [MATE_SUFFIX[m] for m in ((flag >> 6) & 3).tolist()]


def _make_fasta(header: SamHeader):
    def emit(slab: ColumnSlab, record_filter) -> tuple[list[str], int]:
        base, seen = _base_and_seen(slab, record_filter)
        keep = slab.l_seq > 0
        if base is not None:
            keep &= base
        idx = np.flatnonzero(keep)
        if not idx.size:
            return [], seen
        flag = slab.flag[idx]
        return [f">{n}{m}\n{s}" for n, m, s in zip(
            _names(slab, idx), _mate_suffixes(flag),
            _sequences(slab, idx, (flag & 0x10) != 0))], seen

    return emit


def _make_fastq(header: SamHeader):
    def emit(slab: ColumnSlab, record_filter) -> tuple[list[str], int]:
        base, seen = _base_and_seen(slab, record_filter)
        keep = ((slab.flag & 0x900) == 0) & (slab.l_seq > 0)
        if base is not None:
            keep &= base
        idx = np.flatnonzero(keep)
        if not idx.size:
            return [], seen
        flag = slab.flag[idx]
        reverse = (flag & 0x10) != 0
        seqs = _sequences(slab, idx, reverse)
        quals, absent = _quals(slab, idx, reverse)
        for i in absent:
            quals[i] = "!" * len(seqs[i])
        return [f"@{n}{m}\n{s}\n+\n{q}" for n, m, s, q in zip(
            _names(slab, idx), _mate_suffixes(flag), seqs, quals)], seen

    return emit


def _make_sam(header: SamHeader):
    refs = [r.name for r in header.references]

    def emit(slab: ColumnSlab, record_filter) -> tuple[list[str], int]:
        base, seen = _base_and_seen(slab, record_filter)
        idx = np.arange(slab.count) if base is None \
            else np.flatnonzero(base)
        if not idx.size:
            return [], seen
        ref_id = slab.ref_id[idx].tolist()
        next_ref = slab.next_ref[idx].tolist()
        quals, absent = _quals(slab, idx)
        for i in absent:
            quals[i] = "*"
        lines = []
        for (name, flag, rname, pos, mapq, cigar, mate, own, pnext, tlen,
             seq, qual, tags) in zip(
                _names(slab, idx), slab.flag[idx].tolist(),
                _rnames(refs, ref_id), slab.pos[idx].tolist(),
                slab.mapq[idx].tolist(),
                _field_texts(slab.cigar_blob, slab.cigar_lo[idx],
                             slab.cigar_hi[idx], _cigar_text),
                next_ref, ref_id, slab.next_pos[idx].tolist(),
                slab.tlen[idx].tolist(), _sequences(slab, idx), quals,
                _field_texts(slab.tag_blob, slab.tag_lo[idx],
                             slab.tag_hi[idx], tag_block_to_sam)):
            # The BAMX decode rule: no SEQ, or all-0xFF QUAL, is "*".
            if not seq:
                seq = qual = "*"
            rnext = "*" if mate < 0 else "=" if mate == own else refs[mate]
            lines.append(
                f"{name}\t{flag}\t{rname}\t{pos + 1 if pos >= 0 else 0}\t"
                f"{mapq}\t{cigar}\t{rnext}\t"
                f"{pnext + 1 if pnext >= 0 else 0}\t{tlen}\t{seq}\t{qual}"
                + (tags and "\t" + tags))
        return lines, seen

    return emit


def _cigar_text(raw: bytes) -> str:
    return format_cigar(decode_ops(np.frombuffer(raw, "<u4").tolist()))


def _field_texts(blob: bytes, lo: np.ndarray, hi: np.ndarray,
                 render) -> list[str]:
    """``render(blob[lo[i]:hi[i]])`` per record, rendering each distinct
    field value once; a value *render* rejects sends the slab to the
    record path, which raises the typed error."""
    cache: dict[bytes, str] = {}
    out = []
    try:
        for a, b in zip(lo.tolist(), hi.tolist()):
            raw = blob[a:b]
            if raw not in cache:
                cache[raw] = render(raw)
            out.append(cache[raw])
    except (FormatError, ValueError):   # ValueError: a ragged CIGAR blob
        raise KernelFallback from None
    return out


_KERNEL_MAKERS = {
    "bed": _make_bed,
    "bedgraph": _make_bedgraph,
    "fasta": _make_fasta,
    "fastq": _make_fastq,
    "sam": _make_sam,
}

#: Target names with a columnar kernel emitter.
KERNEL_TARGETS = tuple(sorted(_KERNEL_MAKERS))


def kernel_emitter_for(target, header: SamHeader):
    """Columnar emitter for *target*, or ``None`` if it needs records."""
    if getattr(target, "mode", "text") != "text":
        return None
    maker = _KERNEL_MAKERS.get(getattr(target, "name", None))
    if maker is None:
        return None
    return maker(header)
