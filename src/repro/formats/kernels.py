"""Vectorized numpy kernels over slabs of columns — what every source
yields: BAMC reads :class:`~.bamc.ColumnSlab`s, BAMX/BAMZ rows and a
BAM's raw records decode to them, a block of canonical SAM lines parses
to a :class:`~.sam.TextSlab`.

Every operation the converter hot loops run per record — filter
predicates, flagstat category counts, coverage histograms, target
emission — has a columnar formulation here that touches whole arrays
at once.  The contracts are strict:

* **Filters** are exactly :meth:`RecordFilter.matches_flag_mapq` as
  boolean array ops.
* **Flagstat** counts are exactly what :class:`FlagStats.add` would
  accumulate record by record (the mate-on-different-chr categories
  use the ``next_ref``/``ref_id`` columns, which is the integer form
  of the record path's ``rnext not in ("=", "*", rname)`` test —
  reference names are unique, and a name missing from ``@SQ`` gets an
  id of its own past the dictionary, so the two are equivalent).
* **Emitters** — one per target, for either kind of slab — produce
  byte-identical lines to the per-record pipeline from the columns both
  kinds share and the text accessors each implements its own way; the
  interval targets read the ``end_pos`` column instead of re-walking
  CIGARs, and the SAM lines are the slab's to make (a proven line is
  its own output; a binary row is rendered from the BAM-encoded bytes),
  as are BAM records (:func:`~.bam.slab_bytes`).

Targets without a kernel (GFF needs tags; JSON/YAML need everything)
and slabs an emitter declines (:class:`KernelFallback`) go per slab to
the decoded-record path — the converters count those slabs as
``kernel_fallbacks`` so a silently-degraded run is visible in the
service metrics.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import BamFormatError, FormatError
from .header import SamHeader


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


def slab_filter_mask(slab, record_filter) -> np.ndarray | None:
    """:func:`filter_mask` over a slab, or ``None`` for a no-op filter."""
    if record_filter is None or record_filter.is_noop:
        return None
    return filter_mask(slab.flag, slab.mapq, record_filter)


# --------------------------------------------------------------------------
# Flagstat
# --------------------------------------------------------------------------

def flagstat_slab(slab) -> dict[str, int]:
    """samtools-flagstat category counts of one slab's ``flag``,
    ``mapq``, ``ref_id`` and ``next_ref`` columns.

    Field-for-field mirror of :meth:`repro.tools.flagstat.FlagStats.add`
    accumulated over the whole slab at once.
    """
    flag = slab.flag
    mapped = (flag & 0x4) == 0
    primary = (flag & 0x900) == 0
    paired = primary & ((flag & 0x1) != 0)
    paired_mapped = paired & mapped
    mate_mapped = paired_mapped & ((flag & 0x8) == 0)
    diff_chr = mate_mapped & (slab.next_ref >= 0) \
        & (slab.next_ref != slab.ref_id)
    return {
        "total": len(flag),
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
            diff_chr & (slab.mapq >= 5))),
    }


# --------------------------------------------------------------------------
# Histograms
# --------------------------------------------------------------------------

def add_coverage_events(slab, ref_id: int, length: int,
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


# --------------------------------------------------------------------------
# Target emitters, one per target for every kind of slab:
# ``fn(refs, slab, record_filter) -> (lines, seen)`` — *refs* the
# header's reference names, *seen* the post-filter record count
# (matching the record pipeline's metrics), *lines* byte-identical to
# the record pipeline's output (a BAM record's bytes, for BAM).  They
# read the columns every slab has — ``count``, ``flag``, ``mapq``,
# ``pos``, ``end_pos``, ``l_seq`` — and its text through the accessors
# each slab implements its own way (a ColumnSlab over BAM-encoded
# blobs, a TextSlab by slicing its lines): ``names(idx)``,
# ``rnames(idx, refs)``, ``sequences(idx)`` / ``quals(idx)`` as the
# read was sequenced (``quals`` also lists the absent ones) and
# ``sam_lines(idx, refs)``.
# --------------------------------------------------------------------------

def _selected(slab, record_filter, keep: np.ndarray | None = None,
              ) -> tuple[np.ndarray | None, int]:
    """Indices of the records to emit — those passing *record_filter*
    and the target's own *keep* mask, ``None`` meaning all — and how
    many passed the filter."""
    base = slab_filter_mask(slab, record_filter)
    if base is None:
        return None if keep is None else np.flatnonzero(keep), slab.count
    return np.flatnonzero(base if keep is None else keep & base), \
        int(np.count_nonzero(base))


def _placed(slab) -> np.ndarray:
    """The interval targets' own mask: mapped, with a position."""
    return ((slab.flag & 0x4) == 0) & (slab.pos >= 0)


#: BED caps the score column (an int64, so a ``u1`` MAPQ column widens).
_BED_MAX_SCORE = np.int64(1000)


def _emit_bed(refs, slab, record_filter) -> tuple[list[str], int]:
    idx, seen = _selected(slab, record_filter, _placed(slab))
    return [f"{r}\t{p}\t{e}\t{n}\t{q}\t{'-' if f & 0x10 else '+'}"
            for r, p, e, n, q, f in zip(
                slab.rnames(idx, refs), slab.pos[idx].tolist(),
                slab.end_pos[idx].tolist(), slab.names(idx),
                np.minimum(slab.mapq[idx], _BED_MAX_SCORE).tolist(),
                slab.flag[idx].tolist())], seen


def _emit_bedgraph(refs, slab, record_filter) -> tuple[list[str], int]:
    idx, seen = _selected(slab, record_filter, _placed(slab))
    return [f"{r}\t{p}\t{e}\t1" for r, p, e in zip(
        slab.rnames(idx, refs), slab.pos[idx].tolist(),
        slab.end_pos[idx].tolist())], seen


def _mate_suffixes(flag: np.ndarray) -> list[str]:
    return [MATE_SUFFIX[m] for m in ((flag >> 6) & 3).tolist()]


def _emit_fasta(refs, slab, record_filter) -> tuple[list[str], int]:
    idx, seen = _selected(slab, record_filter, slab.l_seq > 0)
    return [f">{n}{m}\n{s}" for n, m, s in zip(
        slab.names(idx), _mate_suffixes(slab.flag[idx]),
        slab.sequences(idx))], seen


def _emit_fastq(refs, slab, record_filter) -> tuple[list[str], int]:
    idx, seen = _selected(slab, record_filter,
                          ((slab.flag & 0x900) == 0) & (slab.l_seq > 0))
    seqs = slab.sequences(idx)
    quals, absent = slab.quals(idx)
    for i in absent:
        quals[i] = "!" * len(seqs[i])
    return [f"@{n}{m}\n{s}\n+\n{q}" for n, m, s, q in zip(
        slab.names(idx), _mate_suffixes(slab.flag[idx]), seqs,
        quals)], seen


def _emit_sam(refs, slab, record_filter) -> tuple[list[str], int]:
    """The one target whose lines the slab makes itself: a proven line
    of text is its own output, a binary row is rendered."""
    idx, seen = _selected(slab, record_filter)
    try:
        return slab.sam_lines(idx, refs), seen
    except (FormatError, ValueError):   # ValueError: a ragged CIGAR blob
        # The record path raises the typed error.
        raise KernelFallback from None


def _emit_bam(header, slab, record_filter) -> tuple[list[bytes], int]:
    """The records as BAM (:func:`~.bam.slab_bytes`), a proven text
    slab BAM-encoded first; a slab either step refuses goes to the
    record path, which raises the typed error."""
    from .bam import slab_bytes
    if hasattr(slab, "column_slab"):    # proven SAM text
        slab = slab.column_slab(header)
        if slab is None:
            raise KernelFallback
    idx, seen = _selected(slab, record_filter)
    try:
        buf, offsets = slab_bytes(slab if idx is None else slab.take(idx))
    except BamFormatError:
        raise KernelFallback from None
    data, bounds = buf.tobytes(), offsets.tolist()
    return [data[a:b] for a, b in zip(bounds, bounds[1:])], seen


_KERNELS = {"bed": _emit_bed, "bedgraph": _emit_bedgraph,
            "fasta": _emit_fasta, "fastq": _emit_fastq, "sam": _emit_sam,
            "bam": _emit_bam}

#: Target names with a kernel emitter.
KERNEL_TARGETS = tuple(sorted(_KERNELS))


def kernel_emitter_for(target, header: SamHeader):
    """The emitter ``fn(slab, record_filter) -> (lines, seen)`` of
    *target* over any slab, or ``None`` if it needs records.  The BAM
    emitter is handed *header*, to BAM-encode text against; the others
    the reference names."""
    emit = _KERNELS.get(getattr(target, "name", None))
    if emit is None:
        return None
    return partial(emit, header if emit is _emit_bam
                   else [r.name for r in header.references])
